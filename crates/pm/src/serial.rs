//! The complete PM cycle in one address space.
//!
//! Reference implementation of the five-step pipeline (§II-B) without
//! the distributed-mesh conversions: assignment → FFT → Green's function
//! → inverse FFT → 4-point differencing → interpolation. The parallel
//! driver must agree with this to rounding-level accuracy, and the
//! single-rank TreePM path in `greem` (core) uses it directly.

use std::sync::Mutex;

use greem_fft::RealFft3;
use greem_math::Vec3;

use crate::greens::GreensFn;
use crate::mesh::{self, BlockLists, Grid};
use crate::parallel::PmPhaseTimes;
use crate::tsc::tsc_weights;
use crate::{timed_phase, PmPipeline};

/// PM configuration.
#[derive(Debug, Clone, Copy)]
pub struct PmParams {
    /// Mesh cells per side (power of two).
    pub n_mesh: usize,
    /// Short-range cutoff radius in box units; the Green's function
    /// carries the matching S2² long-range filter.
    pub r_cut: f64,
    /// Deconvolve the TSC window (assignment + interpolation).
    pub deconvolve: bool,
}

impl PmParams {
    /// The paper's standard configuration for a mesh of side `n`:
    /// `r_cut = 3/n` (§III-A), deconvolution on.
    pub fn standard(n_mesh: usize) -> Self {
        PmParams {
            n_mesh,
            r_cut: 3.0 / n_mesh as f64,
            deconvolve: true,
        }
    }
}

/// Long-range accelerations and potentials at the particle positions.
#[derive(Debug, Clone)]
pub struct PmResult {
    /// PM acceleration per particle.
    pub accel: Vec<Vec3>,
    /// PM potential per particle (G = 1 units; diagnostics).
    pub potential: Vec<f64>,
}

/// Serial PM solver: owns the FFT plan and Green's function tables.
///
/// ```
/// use greem_math::Vec3;
/// use greem_pm::{PmParams, PmSolver};
///
/// let solver = PmSolver::new(PmParams::standard(16)); // r_cut = 3 cells
/// // Two particles far beyond r_cut: the PM force carries the whole
/// // interaction (≈ Newtonian at this separation).
/// let pos = vec![Vec3::new(0.35, 0.5, 0.5), Vec3::new(0.65, 0.5, 0.5)];
/// let res = solver.solve(&pos, &[1.0, 1.0]);
/// assert!(res.accel[0].x > 0.0);
/// assert!((res.accel[0] + res.accel[1]).norm() < 1e-9 * res.accel[0].norm());
/// ```
pub struct PmSolver {
    params: PmParams,
    greens: GreensFn,
    fft: RealFft3,
    /// The meshes of one cycle, kept from step to step so a solve
    /// allocates (and page-faults) nothing. Every pass overwrites what
    /// it uses: nothing is carried from one solve to the next.
    workspace: Mutex<Workspace>,
}

struct Workspace {
    /// Density, then its spectrum, then the potential, in the
    /// transform's padded `n × n × (n+2)` layout.
    mesh: Vec<f64>,
    /// The three acceleration meshes, `n³` each.
    acc: [Vec<f64>; 3],
    lists: BlockLists,
}

impl PmSolver {
    /// Build a solver for the given parameters.
    pub fn new(params: PmParams) -> Self {
        assert!(
            params.n_mesh.is_power_of_two(),
            "PM mesh must be a power of two"
        );
        let fft = RealFft3::new(params.n_mesh);
        let cells = params.n_mesh.pow(3);
        PmSolver {
            greens: GreensFn::new(params.n_mesh, params.r_cut, params.deconvolve),
            workspace: Mutex::new(Workspace {
                mesh: vec![0.0; fft.buf_len()],
                acc: std::array::from_fn(|_| vec![0.0; cells]),
                lists: BlockLists::default(),
            }),
            fft,
            params,
        }
    }

    /// The configuration.
    pub fn params(&self) -> &PmParams {
        &self.params
    }

    fn workspace(&self) -> std::sync::MutexGuard<'_, Workspace> {
        self.workspace
            .lock()
            .expect("a PM solve panicked while holding the workspace")
    }

    /// TSC mass-density assignment onto the full periodic mesh:
    /// `ρ[c] = Σ_p m_p·W(c − x_p) / h³`. Positions must be in `[0,1)`.
    ///
    /// Parallel over x-planes, each owned by one task that deposits, in
    /// particle order, the particles whose clouds reach it
    /// (`mesh::assign`): bit-identical to
    /// [`assign_density_serial`](Self::assign_density_serial) at any
    /// thread count.
    pub fn assign_density(&self, pos: &[Vec3], mass: &[f64]) -> Vec<f64> {
        let n = self.params.n_mesh;
        let mut rho = vec![0.0; n * n * n];
        let mut lists = BlockLists::default();
        mesh::assign(Grid::periodic(n), &mut lists, pos, mass, &mut rho);
        rho
    }

    /// The plain scatter loop over particles: the reference
    /// [`assign_density`](Self::assign_density) must equal bit for bit.
    pub fn assign_density_serial(&self, pos: &[Vec3], mass: &[f64]) -> Vec<f64> {
        let n = self.params.n_mesh;
        let n_i = n as i64;
        let vol_inv = (n * n * n) as f64; // 1/h³
        let mut rho = vec![0.0; n * n * n];
        for (p, &m) in pos.iter().zip(mass) {
            let ([ix, iy, iz], [wx, wy, wz]) = tsc_weights([p.x, p.y, p.z], n);
            let amp = m * vol_inv;
            for (a, &wxa) in wx.iter().enumerate() {
                let cx = (ix + a as i64).rem_euclid(n_i) as usize;
                for (b, &wyb) in wy.iter().enumerate() {
                    let cy = (iy + b as i64).rem_euclid(n_i) as usize;
                    let wxy = wxa * wyb * amp;
                    let row = (cx * n + cy) * n;
                    for (c, &wzc) in wz.iter().enumerate() {
                        let cz = (iz + c as i64).rem_euclid(n_i) as usize;
                        rho[row + cz] += wxy * wzc;
                    }
                }
            }
        }
        rho
    }

    /// Solve the filtered Poisson equation on the mesh: density in,
    /// long-range potential out.
    pub fn potential_mesh(&self, density: &[f64]) -> Vec<f64> {
        let n = self.params.n_mesh;
        assert_eq!(density.len(), n * n * n);
        let buf = &mut self.workspace().mesh;
        for (row, src) in buf.chunks_exact_mut(n + 2).zip(density.chunks_exact(n)) {
            row[..n].copy_from_slice(src);
        }
        self.potential_in_place(buf);
        let mut phi = Vec::with_capacity(density.len());
        for row in buf.chunks_exact(n + 2) {
            phi.extend_from_slice(&row[..n]);
        }
        phi
    }

    /// Density → potential in the padded buffer: real-to-half-complex
    /// transform, Green's function table, and back.
    fn potential_in_place(&self, buf: &mut [f64]) {
        self.fft.convolve(buf, |ix, iy| self.greens.row(ix, iy));
    }

    /// 4-point finite-difference accelerations from the potential mesh:
    /// `a = −∇φ`, `∂φ/∂x ≈ (−φ₊₂ + 8φ₊₁ − 8φ₋₁ + φ₋₂)/(12h)` (§II-B
    /// step 5). Returns the three component meshes.
    pub fn accel_meshes(&self, phi: &[f64]) -> [Vec<f64>; 3] {
        let n = self.params.n_mesh;
        let mut out = std::array::from_fn(|_| vec![0.0; n * n * n]);
        mesh::accel_from_potential(Grid::periodic(n), Grid::periodic(n), phi, &mut out);
        out
    }

    /// TSC interpolation of a mesh field to particle positions.
    pub fn interpolate(&self, field: &[f64], pos: &[Vec3]) -> Vec<f64> {
        let grid = Grid::periodic(self.params.n_mesh);
        mesh::gather([(grid, field)], pos).concat()
    }

    /// Fused TSC interpolation of the three acceleration meshes and the
    /// potential, bit-identical to four [`interpolate`](Self::interpolate)
    /// calls.
    pub fn interpolate_forces(
        &self,
        acc: &[Vec<f64>; 3],
        phi: &[f64],
        pos: &[Vec3],
    ) -> (Vec<Vec3>, Vec<f64>) {
        let grid = Grid::periodic(self.params.n_mesh);
        mesh::gather_forces(grid, acc, grid, phi, pos)
    }

    /// The full PM cycle: long-range accelerations (and potentials) at
    /// the particle positions.
    pub fn solve(&self, pos: &[Vec3], mass: &[f64]) -> PmResult {
        self.solve_timed(pos, mass).0
    }
}

impl PmPipeline for PmSolver {
    /// The cycle on the solver's own workspace: the density is assigned
    /// straight into the transform's padded buffer, becomes the
    /// potential there, and is differenced and interpolated from there.
    fn solve_timed(&self, pos: &[Vec3], mass: &[f64]) -> (PmResult, PmPhaseTimes) {
        assert_eq!(pos.len(), mass.len());
        let n = self.params.n_mesh;
        let (grid, padded) = (Grid::periodic(n), Grid::padded(n, self.fft.row_len()));
        let mut t = PmPhaseTimes::default();
        let ws = &mut *self.workspace();
        timed_phase(
            "force",
            "pm.density_assignment",
            &mut t.density_assignment,
            || mesh::assign(padded, &mut ws.lists, pos, mass, &mut ws.mesh),
        );
        timed_phase("force", "pm.fft", &mut t.fft, || {
            self.potential_in_place(&mut ws.mesh)
        });
        timed_phase(
            "force",
            "pm.acceleration_on_mesh",
            &mut t.acceleration_on_mesh,
            || mesh::accel_from_potential(grid, padded, &ws.mesh, &mut ws.acc),
        );
        let (accel, potential) = timed_phase(
            "force",
            "pm.force_interpolation",
            &mut t.force_interpolation,
            || mesh::gather_forces(grid, &ws.acc, padded, &ws.mesh, pos),
        );
        (PmResult { accel, potential }, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greem_math::cutoff::g_long;

    use greem_math::testutil::rand_positions as rand_pos;

    #[test]
    fn assignment_conserves_mass() {
        let solver = PmSolver::new(PmParams::standard(16));
        let pos = rand_pos(100, 3);
        let mass: Vec<f64> = (0..100).map(|i| 0.5 + (i % 7) as f64 * 0.1).collect();
        let rho = solver.assign_density(&pos, &mass);
        let cell_vol = 1.0 / (16f64).powi(3);
        let got: f64 = rho.iter().sum::<f64>() * cell_vol;
        let want: f64 = mass.iter().sum();
        assert!((got - want).abs() < 1e-10 * want, "mass {got} vs {want}");
    }

    fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: cell {i}: {x} vs {y}");
        }
    }

    #[test]
    fn plane_owned_assignment_equals_serial_scatter_bitwise() {
        let below_one = 1.0 - f64::EPSILON / 2.0;
        let mut edges = rand_pos(40, 29);
        edges.extend([
            Vec3::ZERO,
            Vec3::splat(below_one),
            Vec3::new(0.0, below_one, 0.5),
            Vec3::new(below_one, 0.0, 0.26),
        ]);
        let one_cell: Vec<Vec3> = rand_pos(300, 31)
            .iter()
            .map(|p| (*p * 0.01) + Vec3::splat(0.41))
            .collect();
        let cases = [
            ("uniform", rand_pos(20_000, 17)),
            ("faces and corners", edges),
            ("every particle in one cell", one_cell),
            ("no particles", Vec::new()),
        ];
        // Sides below, at and above one task's planes; 2 wraps a cloud
        // onto the same plane twice.
        for n in [2usize, 4, 8, 16] {
            let solver = PmSolver::new(PmParams::standard(n));
            for (name, pos) in &cases {
                let mass: Vec<f64> = (0..pos.len()).map(|i| 0.5 + (i % 5) as f64 * 0.2).collect();
                let got = solver.assign_density(pos, &mass);
                let want = solver.assign_density_serial(pos, &mass);
                assert_bitwise_eq(&got, &want, &format!("n={n}, {name}"));
            }
        }
    }

    #[test]
    fn second_solve_is_bitwise_the_first() {
        // The workspace carries nothing from one solve to the next —
        // not even through a different particle set in between.
        let solver = PmSolver::new(PmParams::standard(16));
        let pos = rand_pos(500, 41);
        let mass = vec![1.0 / 500.0; 500];
        let first = solver.solve(&pos, &mass);
        solver.solve(&rand_pos(70, 43), &[2.0; 70]);
        let again = solver.solve(&pos, &mass);
        assert_eq!(first.accel, again.accel);
        assert_bitwise_eq(&first.potential, &again.potential, "potential");
    }

    #[test]
    fn workspace_cycle_equals_the_staged_calls_bitwise() {
        let solver = PmSolver::new(PmParams::standard(16));
        let pos = rand_pos(400, 47);
        let mass = vec![1.0; 400];
        let rho = solver.assign_density(&pos, &mass);
        let phi = solver.potential_mesh(&rho);
        let acc = solver.accel_meshes(&phi);
        let (accel, potential) = solver.interpolate_forces(&acc, &phi, &pos);
        let res = solver.solve(&pos, &mass);
        assert_eq!(res.accel, accel);
        assert_bitwise_eq(&res.potential, &potential, "potential");
    }

    #[test]
    fn fused_interpolation_matches_separate_calls() {
        let solver = PmSolver::new(PmParams::standard(16));
        let pos = rand_pos(500, 23);
        let mass = vec![1.0; 500];
        let rho = solver.assign_density(&pos, &mass);
        let phi = solver.potential_mesh(&rho);
        let acc = solver.accel_meshes(&phi);
        let (a3, pot) = solver.interpolate_forces(&acc, &phi, &pos);
        let ax = solver.interpolate(&acc[0], &pos);
        let ay = solver.interpolate(&acc[1], &pos);
        let az = solver.interpolate(&acc[2], &pos);
        let pw = solver.interpolate(&phi, &pos);
        for i in 0..pos.len() {
            // Same gather order per field: bitwise equality.
            assert_eq!(a3[i].x, ax[i]);
            assert_eq!(a3[i].y, ay[i]);
            assert_eq!(a3[i].z, az[i]);
            assert_eq!(pot[i], pw[i]);
        }
    }

    #[test]
    fn uniform_distribution_gives_zero_force() {
        // A particle on every mesh point = exactly uniform density →
        // zero PM force everywhere.
        let n = 8;
        let solver = PmSolver::new(PmParams::standard(n));
        let mut pos = Vec::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    pos.push(Vec3::new(
                        x as f64 / n as f64,
                        y as f64 / n as f64,
                        z as f64 / n as f64,
                    ));
                }
            }
        }
        let mass = vec![1.0 / pos.len() as f64; pos.len()];
        let res = solver.solve(&pos, &mass);
        for a in &res.accel {
            assert!(a.norm() < 1e-10, "uniform lattice force {a:?}");
        }
    }

    #[test]
    fn momentum_is_conserved() {
        let solver = PmSolver::new(PmParams::standard(32));
        let pos = rand_pos(200, 5);
        let mass: Vec<f64> = (0..200).map(|i| 1.0 + (i % 3) as f64).collect();
        let res = solver.solve(&pos, &mass);
        let ptot: Vec3 = res.accel.iter().zip(&mass).map(|(a, &m)| *a * m).sum();
        let scale: f64 = res
            .accel
            .iter()
            .zip(&mass)
            .map(|(a, &m)| (*a * m).norm())
            .sum();
        assert!(
            ptot.norm() < 1e-8 * scale.max(1e-30),
            "momentum {ptot:?} vs scale {scale}"
        );
    }

    #[test]
    fn pair_force_is_antisymmetric() {
        let solver = PmSolver::new(PmParams {
            n_mesh: 32,
            r_cut: 3.0 / 32.0,
            deconvolve: true,
        });
        let pos = vec![Vec3::new(0.3, 0.5, 0.5), Vec3::new(0.62, 0.5, 0.5)];
        let mass = vec![1.0, 1.0];
        let res = solver.solve(&pos, &mass);
        assert!(
            (res.accel[0] + res.accel[1]).norm() < 1e-9 * res.accel[0].norm(),
            "{:?} vs {:?}",
            res.accel[0],
            res.accel[1]
        );
        // Attraction along +x for particle 0.
        assert!(res.accel[0].x > 0.0);
        assert!(res.accel[0].y.abs() < 1e-6 * res.accel[0].x);
    }

    #[test]
    fn pair_beyond_cutoff_is_near_newtonian() {
        // r ≫ r_cut: the PM force carries the whole interaction; at
        // r = 0.2 the periodic-image correction is ~1 %, so compare to
        // 1/r² loosely.
        let n = 64;
        let solver = PmSolver::new(PmParams::standard(n)); // r_cut ≈ 0.047
        let r = 0.2;
        let pos = vec![Vec3::new(0.4, 0.5, 0.5), Vec3::new(0.4 + r, 0.5, 0.5)];
        let mass = vec![1.0, 1.0];
        let res = solver.solve(&pos, &mass);
        let f = res.accel[0].x;
        let newton = 1.0 / (r * r);
        assert!(
            (f - newton).abs() < 0.05 * newton,
            "PM force {f} vs Newton {newton}"
        );
    }

    #[test]
    fn pm_plus_pp_completes_newton_inside_cutoff() {
        // r < r_cut: PM supplies (1−g)·Newton; adding g·Newton must give
        // ~the full force. Use a fat cutoff so the mesh resolves it well.
        let n = 32;
        let r_cut = 8.0 / n as f64; // 0.25
        let solver = PmSolver::new(PmParams {
            n_mesh: n,
            r_cut,
            deconvolve: true,
        });
        for frac in [0.4, 0.6, 0.8] {
            let r = frac * r_cut;
            let pos = vec![Vec3::new(0.3, 0.5, 0.5), Vec3::new(0.3 + r, 0.5, 0.5)];
            let mass = vec![1.0, 1.0];
            let res = solver.solve(&pos, &mass);
            let f_pm = res.accel[0].x;
            let f_pp = greem_math::g_p3m(2.0 * r / r_cut) / (r * r);
            let newton = 1.0 / (r * r);
            let total = f_pm + f_pp;
            assert!(
                (total - newton).abs() < 0.05 * newton,
                "r={r}: PM {f_pm} + PP {f_pp} = {total} vs {newton}"
            );
            // And the PM part alone matches its complement closely.
            let want_pm = g_long(2.0 * r / r_cut) / (r * r);
            assert!(
                (f_pm - want_pm).abs() < 0.1 * newton,
                "r={r}: PM {f_pm} vs complement {want_pm}"
            );
        }
    }

    #[test]
    fn potential_is_negative_near_mass() {
        let solver = PmSolver::new(PmParams::standard(32));
        let pos = vec![Vec3::splat(0.5), Vec3::new(0.5, 0.5, 0.7)];
        let mass = vec![1.0, 1e-9];
        let res = solver.solve(&pos, &mass);
        // Probe particle sits in the heavy particle's potential well.
        assert!(res.potential[1] < 0.0);
    }
}
