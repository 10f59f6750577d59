//! Workload generators shared by the experiments.

use greem::Body;
use greem_math::{wrap01, Vec3};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Uniform random positions in the unit box.
pub fn uniform(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Vec3::new(rng.random(), rng.random(), rng.random()))
        .collect()
}

/// A cosmological-looking clustered distribution: a uniform background
/// plus a few dense Plummer-ish clumps — the regime where the paper's
/// load balancer and cost arguments bite ("the density of such
/// structures are typically a hundred or a thousand times higher than
/// the average").
pub fn clustered(n: usize, n_clumps: usize, clump_fraction: f64, seed: u64) -> Vec<Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec3> = (0..n_clumps)
        .map(|_| Vec3::new(rng.random(), rng.random(), rng.random()))
        .collect();
    (0..n)
        .map(|_| {
            if rng.random::<f64>() < clump_fraction && !centers.is_empty() {
                let c = centers[rng.random_range(0..centers.len())];
                // Tight isotropic blob: scale radius ~1.5 % of the box.
                let r = 0.015 * rng.random::<f64>().powf(2.0) + 1e-4;
                let phi = rng.random::<f64>() * std::f64::consts::TAU;
                let ct: f64 = rng.random::<f64>() * 2.0 - 1.0;
                let st = (1.0 - ct * ct).sqrt();
                wrap01(c + Vec3::new(r * st * phi.cos(), r * st * phi.sin(), r * ct))
            } else {
                Vec3::new(rng.random(), rng.random(), rng.random())
            }
        })
        .collect()
}

/// The repo benchmark's clustered shape: 60 % of the bodies in eight
/// Gaussian clumps (`benchmark/src/inputs.rs`'s centres and widths),
/// the rest uniform. Drawn from this crate's RNG, so the bodies are not
/// the benchmark's own.
pub fn eight_clumps(n: usize) -> Vec<Vec3> {
    const CLUMPS: [([f64; 3], f64); 8] = [
        ([0.21, 0.33, 0.27], 0.030),
        ([0.72, 0.18, 0.64], 0.022),
        ([0.55, 0.61, 0.12], 0.036),
        ([0.13, 0.82, 0.71], 0.026),
        ([0.86, 0.77, 0.35], 0.032),
        ([0.40, 0.09, 0.88], 0.020),
        ([0.64, 0.44, 0.52], 0.040),
        ([0.30, 0.58, 0.45], 0.024),
    ];
    let mut rng = StdRng::seed_from_u64(1);
    let mut normal = move || {
        let (u, v): (f64, f64) = (1.0 - rng.random::<f64>(), rng.random());
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    };
    let mut uniform = StdRng::seed_from_u64(2);
    (0..n)
        .map(|i| {
            if i < n * 6 / 10 {
                let (c, sigma) = CLUMPS[i % CLUMPS.len()];
                wrap01(Vec3::from(c) + sigma * Vec3::new(normal(), normal(), normal()))
            } else {
                Vec3::new(uniform.random(), uniform.random(), uniform.random())
            }
        })
        .collect()
}

/// Equal-mass bodies at rest from positions (total mass 1).
pub fn bodies_at_rest(pos: &[Vec3]) -> Vec<Body> {
    let m = 1.0 / pos.len() as f64;
    pos.iter()
        .enumerate()
        .map(|(i, &p)| Body::at_rest(p, m, i as u64))
        .collect()
}

/// Equal masses summing to 1.
pub fn unit_masses(n: usize) -> Vec<f64> {
    vec![1.0 / n as f64; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_in_box_points() {
        for p in uniform(100, 1).into_iter().chain(clustered(100, 3, 0.5, 2)) {
            assert!((0.0..1.0).contains(&p.x));
            assert!((0.0..1.0).contains(&p.y));
            assert!((0.0..1.0).contains(&p.z));
        }
    }

    #[test]
    fn clustered_is_clustered() {
        // Peak cell occupancy of the clustered field must far exceed the
        // uniform one.
        let occupancy = |pos: &[Vec3]| -> usize {
            let g = 16;
            let mut cells = vec![0usize; g * g * g];
            for p in pos {
                let c = |x: f64| ((x * g as f64) as usize).min(g - 1);
                cells[(c(p.x) * g + c(p.y)) * g + c(p.z)] += 1;
            }
            cells.into_iter().max().unwrap()
        };
        let u = occupancy(&uniform(4000, 3));
        let c = occupancy(&clustered(4000, 4, 0.6, 3));
        assert!(c > 4 * u, "clustered {c} !>> uniform {u}");
    }

    #[test]
    fn bodies_total_mass_is_one() {
        let b = bodies_at_rest(&uniform(64, 9));
        let total: f64 = b.iter().map(|x| x.mass).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
