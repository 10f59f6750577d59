//! Isolated-boundary PM solve: James'-method zero padding.
//!
//! The periodic solver ([`crate::serial::PmSolver`]) answers the
//! paper's cosmology box; star clusters and galaxy collapse need *open*
//! space — no periodic images, no neutralising background. This module
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
//! 3. One forward FFT of the kernel (at solver construction) and the
//!    usual density-FFT → multiply → inverse-FFT cycle per solve, then
//!    the same 4-point differencing and TSC interpolation as the
//!    periodic path.
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

use greem_fft::{fft3d, fft3d_inverse, Fft1d, Mesh3};
use greem_math::cutoff::{h_p3m, s2_self_potential};
use greem_math::Vec3;
use greem_obs::trace::timed_phase;
use rayon::prelude::*;

use crate::mesh::{self, BlockLists, Grid};
use crate::parallel::PmPhaseTimes;
use crate::serial::{PmParams, PmResult};
use crate::PmPipeline;

/// Open-boundary PM solver on a `2n`-padded mesh.
///
/// ```
/// use greem_math::Vec3;
/// use greem_pm::{IsolatedPmSolver, PmParams};
///
/// let solver = IsolatedPmSolver::new(PmParams::standard(16));
/// // A pair separated by half the box: in open space the force acts
/// // through the interior — no wrap-around image pulls the other way.
/// let pos = vec![Vec3::new(0.25, 0.5, 0.5), Vec3::new(0.75, 0.5, 0.5)];
/// let res = solver.solve(&pos, &[1.0, 1.0]);
/// assert!(res.accel[0].x > 0.0 && res.accel[1].x < 0.0);
/// ```
pub struct IsolatedPmSolver {
    params: PmParams,
    /// Padded mesh side, `2 · n_mesh`.
    np: usize,
    /// Real part of the padded-mesh kernel transform (the kernel is even
    /// in every axis, so its DFT is real up to rounding).
    kernel_hat: Vec<f64>,
    /// Per-axis TSC window `sinc³(π·m̃/np)` on the padded mesh.
    w_tsc: Vec<f64>,
    plan: Fft1d,
    /// S2 self-potential per unit mass — the kernel's `r = 0` value.
    phi_self: f64,
}

impl IsolatedPmSolver {
    /// Build the solver: tabulates the open-space kernel on the padded
    /// mesh and transforms it once.
    pub fn new(params: PmParams) -> Self {
        assert!(
            params.n_mesh.is_power_of_two(),
            "PM mesh must be a power of two"
        );
        let n = params.n_mesh;
        let np = 2 * n;
        let h = 1.0 / n as f64;
        let phi_self = s2_self_potential(params.r_cut);
        // Real-space kernel, folded with the cell volume h³ so that the
        // circular convolution with the *density* mesh (mass/h³) yields
        // the potential directly: φ_i = Σ_j K[i−j]·ρ_j.
        let h3 = h * h * h;
        let mut kernel = vec![0.0f64; np * np * np];
        kernel
            .par_chunks_mut(np * np)
            .enumerate()
            .for_each(|(x, plane)| {
                let dx = x.min(np - x) as f64;
                for y in 0..np {
                    let dy = y.min(np - y) as f64;
                    for z in 0..np {
                        let dz = z.min(np - z) as f64;
                        let r = h * (dx * dx + dy * dy + dz * dz).sqrt();
                        let phi = if r == 0.0 {
                            phi_self
                        } else {
                            // Long-range complement of the PP potential:
                            // h(ξ) = 0 beyond ξ = 2, i.e. plain −1/r
                            // outside the cutoff sphere.
                            -(1.0 - h_p3m(2.0 * r / params.r_cut)) / r
                        };
                        plane[y * np + z] = greem_math::G_SIM * h3 * phi;
                    }
                }
            });
        let plan = Fft1d::new(np);
        let mut mesh = Mesh3::from_real(np, &kernel);
        fft3d(&mut mesh, &plan);
        let kernel_hat = mesh.data().iter().map(|c| c.re).collect();
        let w_tsc = (0..np)
            .map(|i| {
                let m = if i <= np / 2 {
                    i as f64
                } else {
                    i as f64 - np as f64
                };
                let x = std::f64::consts::PI * m / np as f64;
                let s = if x.abs() < 1e-12 { 1.0 } else { x.sin() / x };
                s * s * s
            })
            .collect();
        IsolatedPmSolver {
            params,
            np,
            kernel_hat,
            w_tsc,
            plan,
            phi_self,
        }
    }

    /// The configuration (physical-mesh parameters; the padding is an
    /// implementation detail).
    pub fn params(&self) -> &PmParams {
        &self.params
    }

    /// The S2 self-potential per unit mass (the kernel's `r = 0` value),
    /// for energy diagnostics.
    pub fn self_potential(&self) -> f64 {
        self.phi_self
    }

    /// The padded mesh: side `2n`, cell size still `1/n`.
    fn grid(&self) -> Grid {
        Grid {
            cells_per_unit: self.params.n_mesh,
            ..Grid::periodic(self.np)
        }
    }

    /// TSC mass-density deposit onto the padded mesh. Cell size is the
    /// *physical* `h = 1/n`; indices wrap on the padded torus, so
    /// positions slightly outside `[0,1)` land in the padding and keep
    /// their exact open-space separations.
    pub fn assign_density(&self, pos: &[Vec3], mass: &[f64]) -> Vec<f64> {
        let mut rho = vec![0.0; self.np.pow(3)];
        mesh::assign(self.grid(), &mut BlockLists::default(), pos, mass, &mut rho);
        rho
    }

    /// Solve the open-space filtered Poisson equation on the padded
    /// mesh: density in, long-range potential out.
    pub fn potential_mesh(&self, density: &[f64]) -> Vec<f64> {
        let np = self.np;
        assert_eq!(density.len(), np * np * np);
        let mut mesh = Mesh3::from_real(np, density);
        fft3d(&mut mesh, &self.plan);
        let kernel = &self.kernel_hat;
        let w_tsc = &self.w_tsc;
        let deconvolve = self.params.deconvolve;
        mesh.par_map_modes(|ix, iy, iz, v| {
            let mut g = kernel[(ix * np + iy) * np + iz];
            if deconvolve {
                let wt = w_tsc[ix] * w_tsc[iy] * w_tsc[iz];
                // The padded TSC window only vanishes at |m̃| = np (not a
                // representable mode); the division is safe.
                g /= wt * wt;
            }
            v.scale(g)
        });
        fft3d_inverse(&mut mesh, &self.plan);
        mesh.to_real()
    }

    /// 4-point finite-difference accelerations from the padded potential
    /// mesh (`∂φ/∂x ≈ (−φ₊₂ + 8φ₊₁ − 8φ₋₁ + φ₋₂)/(12h)`, physical cell
    /// size `h = 1/n`).
    pub fn accel_meshes(&self, phi: &[f64]) -> [Vec<f64>; 3] {
        let mut out = std::array::from_fn(|_| vec![0.0; self.np.pow(3)]);
        mesh::accel_from_potential(self.grid(), self.grid(), phi, &mut out);
        out
    }

    /// Fused TSC interpolation of the three acceleration meshes and the
    /// potential to particle positions.
    pub fn interpolate_forces(
        &self,
        acc: &[Vec<f64>; 3],
        phi: &[f64],
        pos: &[Vec3],
    ) -> (Vec<Vec3>, Vec<f64>) {
        mesh::gather_forces(self.grid(), acc, self.grid(), phi, pos)
    }

    /// The full isolated PM cycle: open-space long-range accelerations
    /// (and potentials) at the particle positions.
    pub fn solve(&self, pos: &[Vec3], mass: &[f64]) -> PmResult {
        self.solve_timed(pos, mass).0
    }
}

impl PmPipeline for IsolatedPmSolver {
    fn solve_timed(&self, pos: &[Vec3], mass: &[f64]) -> (PmResult, PmPhaseTimes) {
        assert_eq!(pos.len(), mass.len());
        let mut t = PmPhaseTimes::default();
        let rho = timed_phase(
            "force",
            "pm.density_assignment",
            &mut t.density_assignment,
            || self.assign_density(pos, mass),
        );
        let phi = timed_phase("force", "pm.fft", &mut t.fft, || self.potential_mesh(&rho));
        let acc = timed_phase(
            "force",
            "pm.acceleration_on_mesh",
            &mut t.acceleration_on_mesh,
            || self.accel_meshes(&phi),
        );
        let (accel, potential) = timed_phase(
            "force",
            "pm.force_interpolation",
            &mut t.force_interpolation,
            || self.interpolate_forces(&acc, &phi, pos),
        );
        (PmResult { accel, potential }, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::PmSolver;

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
            let res = solver.solve(&[centre, probe], &[1.0, 1e-12]);
            let phi = res.potential[1];
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
        let solver = IsolatedPmSolver::new(PmParams::standard(16));
        assert!(solver.kernel_hat[0].is_finite());
        assert!(solver.kernel_hat[0] < 0.0);
        assert!(solver.self_potential() < 0.0);
    }
}
