//! Seeded inputs. The benchmark generates every body and every job
//! submission itself; the program sees only the generated values.
//!
//! The seed drives the particle *realisation* only. The macro-structure
//! of a workload (how many clumps, where, how wide) is fixed, because
//! step cost depends on it: with seeded clump centres the interaction
//! count per step moved by several percent between seeds, which would
//! have spent the regression bound on input variance.

use greem::Body;
use greem_math::{wrap01, Vec3};

/// splitmix64: one 64-bit state, full period, and every seed (0 too)
/// gives a usable stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box-Muller; one of the pair is dropped so the
    /// stream position does not depend on call parity).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Centre and Gaussian width of each clump of the clustered workloads.
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

/// Share of the bodies (all of equal mass) placed in clumps.
const CLUMP_SHARE: f64 = 0.6;

/// `n` equal-mass bodies at rest: 60 % in the eight fixed Gaussian
/// clumps, the rest uniform. Total mass 1.
pub fn clustered(n: usize, seed: u64) -> Vec<Body> {
    let mut rng = Rng::new(seed);
    let in_clumps = (n as f64 * CLUMP_SHARE) as usize;
    let mass = 1.0 / n as f64;
    (0..n)
        .map(|i| {
            let pos = if i < in_clumps {
                let (c, sigma) = CLUMPS[i % CLUMPS.len()];
                wrap01(Vec3::new(
                    c[0] + sigma * rng.normal(),
                    c[1] + sigma * rng.normal(),
                    c[2] + sigma * rng.normal(),
                ))
            } else {
                Vec3::new(rng.unit(), rng.unit(), rng.unit())
            };
            Body::at_rest(pos, mass, i as u64)
        })
        .collect()
}

/// `n` equal-mass bodies at rest, uniform in the box. Total mass 1.
pub fn uniform(n: usize, seed: u64) -> Vec<Body> {
    let mut rng = Rng::new(seed);
    let mass = 1.0 / n as f64;
    (0..n)
        .map(|i| {
            Body::at_rest(
                Vec3::new(rng.unit(), rng.unit(), rng.unit()),
                mass,
                i as u64,
            )
        })
        .collect()
}

/// `k` distinct indices below `n`, ascending.
pub fn probe_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5052_4F42_4553);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k.min(n) {
        picked.insert(rng.below(n));
    }
    picked.into_iter().collect()
}

/// FNV-1a over the bit patterns of every body: equal exactly when the
/// inputs are bit-identical.
pub fn fingerprint(bodies: &[Body]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for b in bodies {
        for v in [b.pos.x, b.pos.y, b.pos.z, b.vel.x, b.vel.y, b.vel.z, b.mass] {
            eat(v.to_bits());
        }
        eat(b.id);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        for make in [clustered, uniform] {
            let a = fingerprint(&make(4096, 5));
            assert_eq!(a, fingerprint(&make(4096, 5)));
            assert_ne!(a, fingerprint(&make(4096, 6)));
        }
        assert_eq!(probe_indices(1000, 64, 9), probe_indices(1000, 64, 9));
        assert_eq!(probe_indices(1000, 64, 9).len(), 64);
    }

    #[test]
    fn bodies_lie_in_the_box_and_sum_to_unit_mass() {
        for bodies in [clustered(5000, 1), uniform(5000, 1)] {
            let total: f64 = bodies.iter().map(|b| b.mass).sum();
            assert!((total - 1.0).abs() < 1e-12);
            assert!(bodies.iter().all(|b| {
                [b.pos.x, b.pos.y, b.pos.z]
                    .iter()
                    .all(|c| (0.0..1.0).contains(c))
            }));
        }
    }

    #[test]
    fn clustered_puts_its_share_in_the_clumps() {
        let bodies = clustered(20000, 2);
        let near = bodies
            .iter()
            .filter(|b| {
                CLUMPS.iter().any(|(c, sigma)| {
                    let d = greem_math::min_image_vec(b.pos, Vec3::new(c[0], c[1], c[2]));
                    d.norm() < 4.0 * sigma
                })
            })
            .count() as f64;
        assert!(near / 20000.0 > CLUMP_SHARE);
    }
}
