//! Isolated-boundary PM solve: James'-method zero padding.
//!
//! The periodic solver ([`crate::serial::PmSolver`]) answers the
//! paper's cosmology box; an isolated system needs *open* space — no
//! periodic images, no neutralising background. This module
//! implements the classic Hockney–Eastwood / James construction:
//!
//! 1. The physical unit box keeps its mesh spacing `h = 1/n` but is
//!    embedded in a **2n-padded** mesh (still a power of two, as the
//!    FFT requires). Density is deposited only into the corner region
//!    the particles occupy; the padding stays empty.
//! 2. The convolution kernel is built in **real space** on the padded
//!    mesh: `K(r) = −G·(1 − h(2r/r_cut))/r`, the long-range (S2-filtered)
//!    potential of a point mass, with the per-axis separation taken as
//!    the signed minimum image *on the padded torus* — `min(i, 2n−i)`
//!    cells. Because any two points of the physical box are separated
//!    by less than `n` cells per axis, the circular convolution on the
//!    padded torus equals the open-space convolution **exactly**: there
//!    are no image forces to cancel, by construction.
//! 3. One forward FFT of the kernel (at solver construction,
//!    [`GreensFn::isolated`](crate::GreensFn::isolated)) and the
//!    periodic solver's density → multiply → inverse cycle per solve,
//!    then the same 4-point differencing and TSC interpolation: the
//!    open boundary is [`PmSolver::isolated`], the same solver type on
//!    the padded mesh, with the same real ↔ half-complex transform.
//!
//! The kernel keeps the `S̃2²` long-range shape of the TreePM split (its
//! `r = 0` value is the S2 self-potential, its large-r tail is `−1/r`),
//! so the short-range tree walk — run with `periodic: false` — completes
//! the total force to Newtonian `1/r²` exactly as in the periodic box.
//!
//! Positions may drift slightly outside `[0,1)` (isolated drifts do not
//! wrap): deposits and interpolation wrap indices on the *padded* mesh,
//! which keeps every pair interaction exact as long as per-axis
//! separations stay below 1 box length.

use crate::serial::{PmParams, PmSolver};

/// [`PmSolver::isolated`] under the name the repo benchmark builds it by.
pub struct IsolatedPmSolver(PmSolver);

impl IsolatedPmSolver {
    /// `PmSolver::isolated(params)`.
    pub fn new(params: PmParams) -> Self {
        IsolatedPmSolver(PmSolver::isolated(params))
    }
}

impl std::ops::Deref for IsolatedPmSolver {
    type Target = PmSolver;
    fn deref(&self) -> &PmSolver {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GreensFn;
    use greem_math::cutoff::{h_p3m, s2_self_potential};
    use greem_math::Vec3;

    #[test]
    fn padded_deposit_conserves_mass() {
        let solver = IsolatedPmSolver::new(PmParams::standard(16));
        let pos = greem_math::testutil::rand_positions(100, 3);
        let mass: Vec<f64> = (0..100).map(|i| 0.5 + (i % 7) as f64 * 0.1).collect();
        let rho = solver.assign_density(&pos, &mass);
        let cell_vol = 1.0 / 16f64.powi(3);
        let got: f64 = rho.iter().sum::<f64>() * cell_vol;
        let want: f64 = mass.iter().sum();
        assert!((got - want).abs() < 1e-10 * want, "mass {got} vs {want}");
    }

    #[test]
    fn point_mass_potential_matches_analytic_1_over_r() {
        // A unit point mass at the box centre: beyond r_cut the
        // long-range potential IS the total potential, so the isolated
        // solve must reproduce −1/r. Documented tolerance: 2 % of the
        // local value at TSC+mesh resolution n = 32 (probes off mesh
        // points, radii up to 0.45 — right against the box face, where
        // a periodic solver is off by tens of percent).
        let n = 32;
        let solver = IsolatedPmSolver::new(PmParams::standard(n));
        let centre = Vec3::splat(0.5);
        for r in [0.15, 0.25, 0.35, 0.45] {
            let probe = Vec3::new(0.5 + r, 0.5, 0.5);
            let (pos, mass) = ([centre, probe], [1.0, 1e-12]);
            let phi = solver.potential_mesh(&solver.assign_density(&pos, &mass));
            let phi = solver.interpolate(&phi, &pos)[1];
            let want = -1.0 / r;
            assert!(
                (phi - want).abs() < 0.02 * want.abs(),
                "r={r}: phi {phi} vs analytic {want}"
            );
        }
    }

    #[test]
    fn point_mass_force_matches_analytic_1_over_r2() {
        let n = 32;
        let solver = IsolatedPmSolver::new(PmParams::standard(n));
        let centre = Vec3::splat(0.5);
        for r in [0.15, 0.25, 0.4] {
            let probe = Vec3::new(0.5 + r, 0.5, 0.5);
            let res = solver.solve(&[centre, probe], &[1.0, 1e-12]);
            let f = -res.accel[1].x; // attraction toward −x
            let want = 1.0 / (r * r);
            assert!(
                (f - want).abs() < 0.05 * want,
                "r={r}: force {f} vs newton {want}"
            );
            // No transverse leakage.
            assert!(res.accel[1].y.abs() < 0.02 * want);
        }
    }

    #[test]
    fn no_periodic_image_contamination_at_box_edge() {
        // Two equal masses near opposite faces: separation 0.84 through
        // the interior, 0.16 through the (non-existent) wrap. The
        // periodic solver pulls them OUT through the boundary; the
        // isolated solver must pull them IN through the interior with
        // close to the Newtonian 1/0.84² magnitude.
        let n = 32;
        let params = PmParams::standard(n);
        let pos = vec![Vec3::new(0.08, 0.5, 0.5), Vec3::new(0.92, 0.5, 0.5)];
        let mass = vec![1.0, 1.0];

        let iso = IsolatedPmSolver::new(params).solve(&pos, &mass);
        let d = 0.84;
        let newton = 1.0 / (d * d);
        assert!(
            iso.accel[0].x > 0.0 && iso.accel[1].x < 0.0,
            "isolated force must act through the interior: {:?}",
            iso.accel
        );
        assert!(
            (iso.accel[0].x - newton).abs() < 0.05 * newton,
            "edge pair force {} vs newton {newton}",
            iso.accel[0].x
        );

        // Contrast: the periodic solver sees the 0.16 image separation
        // and pulls the pair apart (toward the boundary).
        let per = PmSolver::new(params).solve(&pos, &mass);
        assert!(
            per.accel[0].x < 0.0 && per.accel[1].x > 0.0,
            "periodic control must wrap: {:?}",
            per.accel
        );
    }

    #[test]
    fn pair_force_is_antisymmetric() {
        let solver = IsolatedPmSolver::new(PmParams::standard(32));
        let pos = vec![Vec3::new(0.3, 0.45, 0.55), Vec3::new(0.62, 0.5, 0.5)];
        let res = solver.solve(&pos, &[1.0, 1.0]);
        assert!(
            (res.accel[0] + res.accel[1]).norm() < 1e-9 * res.accel[0].norm(),
            "{:?} vs {:?}",
            res.accel[0],
            res.accel[1]
        );
    }

    #[test]
    fn positions_outside_unit_box_stay_exact() {
        // Isolated drifts do not wrap: a particle just below 0 must
        // interact with one at 0.3 at its true separation.
        let solver = IsolatedPmSolver::new(PmParams::standard(32));
        let r: f64 = 0.34;
        let pos = vec![Vec3::new(-0.04, 0.5, 0.5), Vec3::new(0.3, 0.5, 0.5)];
        let res = solver.solve(&pos, &[1.0, 1.0]);
        let newton = 1.0 / (r * r);
        assert!(
            (res.accel[0].x - newton).abs() < 0.05 * newton,
            "out-of-box pair force {} vs newton {newton}",
            res.accel[0].x
        );
    }

    #[test]
    fn kernel_dc_mode_is_finite_and_negative() {
        // No Jeans swindle in open space: the DC mode carries the
        // (finite) integral of the kernel, so an isolated mass
        // distribution has a well-defined absolute potential.
        let dc = GreensFn::isolated(16, 3.0 / 16.0, true).get(0, 0, 0);
        assert!(dc.is_finite());
        assert!(dc < 0.0);
    }

    #[test]
    fn potential_is_the_circular_convolution_with_the_james_kernel() {
        // Without deconvolution the k-space product is exactly the
        // circular convolution of the padded density with the real-space
        // kernel: compute that sum directly on the 8³ padded mesh.
        let n = 4;
        let np = 2 * n;
        let params = PmParams {
            deconvolve: false,
            ..PmParams::standard(n)
        };
        let solver = PmSolver::isolated(params);
        let pos = greem_math::testutil::rand_positions(30, 11);
        let mass: Vec<f64> = (0..30).map(|i| 0.5 + (i % 4) as f64 * 0.25).collect();
        let rho = solver.assign_density(&pos, &mass);
        let got = solver.potential_mesh(&rho);

        let h = 1.0 / n as f64;
        let kernel = |d: [usize; 3]| {
            let d = d.map(|i| i.min(np - i) as f64);
            let r = h * (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            let phi = if r == 0.0 {
                s2_self_potential(params.r_cut)
            } else {
                -(1.0 - h_p3m(2.0 * r / params.r_cut)) / r
            };
            greem_math::G_SIM * h * h * h * phi
        };
        let cell = |i: usize| [i / (np * np), i / np % np, i % np];
        let want: Vec<f64> = (0..np * np * np)
            .map(|i| {
                let a = cell(i);
                rho.iter()
                    .enumerate()
                    .map(|(j, &r)| {
                        let b = cell(j);
                        r * kernel([0, 1, 2].map(|k| (a[k] + np - b[k]) % np))
                    })
                    .sum()
            })
            .collect();
        let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() <= 1e-12 * scale, "cell {i}: {g} vs {w}");
        }
    }
}
