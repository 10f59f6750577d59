//! The single-address-space TreePM force engine.
//!
//! One [`TreePm`] owns the serial PM solver and the tree/kernel
//! configuration; [`TreePm::compute`] evaluates the full force split on
//! a particle snapshot, running one rayon task per particle group — the
//! within-process data parallelism that plays the role of the paper's
//! OpenMP threads inside each MPI process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use greem_kernels::{pp_accel_dispatch, SourceList, Targets};
use greem_math::{Aabb, Vec3};
use greem_pm::{IsolatedPmSolver, PmPipeline, PmResult, PmSolver};
use greem_tree::{GroupWalk, Octree, SourceColumns, WalkStats};
use rayon::prelude::*;

use crate::config::{Boundary, TreePmConfig};

/// Per-thread scratch cycled across groups by every PP path: the walk's
/// stack plus the kernel's SoA target/source buffers, which the walk
/// fills directly. One allocation set per rayon worker instead of
/// several `Vec`s per group removes the allocator from the PP hot path
/// (thousands of groups per step).
#[derive(Default)]
pub(crate) struct PpScratch {
    pub stack: Vec<usize>,
    pub targets: Targets,
    pub sources: SourceList,
}

/// The source buffer's columns, for the walk to append to.
pub(crate) fn columns(s: &mut SourceList) -> SourceColumns<'_> {
    SourceColumns {
        x: &mut s.x,
        y: &mut s.y,
        z: &mut s.z,
        m: &mut s.m,
    }
}

/// Output pointer shared across group tasks; each output slot belongs to
/// exactly one group, so writes are disjoint.
pub(crate) struct SendPtr<T>(pub *mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor so closures capture the `Sync` wrapper, not the raw
    /// pointer field (edition-2021 closures capture disjoint fields).
    pub fn get(&self) -> *mut T {
        self.0
    }
}

/// Wall/CPU seconds of the PP pipeline phases of one force evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PpTimes {
    /// Morton sort + octree construction (the "local tree" /
    /// "tree construction" work; one address space has no split).
    pub tree_build: f64,
    /// Sum over tasks of interaction-list building time.
    pub traversal: f64,
    /// Sum over tasks of kernel time.
    pub force: f64,
}

/// The result of one full TreePM force evaluation.
#[derive(Debug, Clone)]
pub struct ForceResult {
    /// Total acceleration (PP + PM) per particle.
    pub accel: Vec<Vec3>,
    /// Short-range part.
    pub pp_accel: Vec<Vec3>,
    /// Long-range part.
    pub pm_accel: Vec<Vec3>,
    /// Walk statistics (⟨Ni⟩, ⟨Nj⟩, interaction counts).
    pub walk: WalkStats,
    /// PP phase timings.
    pub pp_times: PpTimes,
    /// PM phase timings (serial path: assignment/FFT/差分/interpolation
    /// wall times; no communication).
    pub pm_times: greem_pm::PmPhaseTimes,
}

/// Single-process TreePM solver.
///
/// ```
/// use greem::{TreePm, TreePmConfig};
/// use greem_math::Vec3;
///
/// let solver = TreePm::new(TreePmConfig::standard(16));
/// let pos = vec![Vec3::new(0.40, 0.5, 0.5), Vec3::new(0.45, 0.5, 0.5)];
/// let mass = vec![0.5, 0.5];
/// let res = solver.compute(&pos, &mass);
/// // The pair attracts along x, with equal and opposite forces.
/// assert!(res.accel[0].x > 0.0 && res.accel[1].x < 0.0);
/// assert!((res.accel[0] + res.accel[1]).norm() < 1e-6 * res.accel[0].norm());
/// ```
pub struct TreePm {
    cfg: TreePmConfig,
    /// PM backend selected by `cfg.boundary`: the periodic torus solver
    /// or the James'-method zero-padded isolated solver. The phase
    /// structure of [`TreePm::compute_pm`] is identical either way.
    pm: Box<dyn PmPipeline>,
}

impl TreePm {
    /// Build a solver from a configuration. The boundary condition
    /// selects the PM backend (periodic FFT vs zero-padded open-space
    /// convolution); the PP half reads the same flag through
    /// [`TreePmConfig::traverse_params`].
    pub fn new(cfg: TreePmConfig) -> Self {
        let pm: Box<dyn PmPipeline> = match cfg.boundary {
            Boundary::Periodic => Box::new(PmSolver::new(cfg.pm_params())),
            Boundary::Isolated => Box::new(IsolatedPmSolver::new(cfg.pm_params())),
        };
        TreePm { pm, cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &TreePmConfig {
        &self.cfg
    }

    /// Evaluate PP accelerations only (tree + kernel) on a snapshot.
    pub fn compute_pp(&self, pos: &[Vec3], mass: &[f64]) -> (Vec<Vec3>, WalkStats, PpTimes) {
        assert_eq!(pos.len(), mass.len());
        #[cfg(feature = "obs")]
        let mut _pp_span = greem_obs::trace::span("force", "pp.compute");
        let mut times = PpTimes::default();
        let t0 = Instant::now();
        let tree = {
            #[cfg(feature = "obs")]
            let _span = greem_obs::trace::span("force", "pp.tree_build");
            Octree::build(pos, mass, Aabb::UNIT, self.cfg.tree_params())
        };
        times.tree_build = t0.elapsed().as_secs_f64();

        #[cfg(feature = "obs")]
        let _walk_span = greem_obs::trace::span("force", "pp.walk_force");
        let walk = GroupWalk::new(&tree, self.cfg.traverse_params());
        let groups = walk.groups();
        let split = self.cfg.split();
        let traversal_ns = AtomicU64::new(0);
        let force_ns = AtomicU64::new(0);

        // One task per group, with per-thread scratch buffers (walk
        // stack, kernel SoA arrays) cycled across groups instead of
        // freshly allocated for each. Results scatter straight into the
        // output array through disjoint original indices, so the only
        // per-group heap traffic left is list growth beyond the
        // high-water mark.
        let mut accel = vec![Vec3::ZERO; pos.len()];
        let out = SendPtr(accel.as_mut_ptr());
        let per_group: Vec<WalkStats> = groups
            .par_iter()
            .map_init(PpScratch::default, |scr, &group| {
                let t = Instant::now();
                scr.sources.clear();
                let cols = columns(&mut scr.sources);
                let stats = walk.list_columns(group, &mut scr.stack, 0.0, None, cols);
                traversal_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);

                let t = Instant::now();
                let lo = group.first as usize;
                let hi = lo + group.count as usize;
                scr.targets.load_positions(&tree.pos()[lo..hi]);
                pp_accel_dispatch(&mut scr.targets, &scr.sources, &split);
                force_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);

                for (i, &orig) in tree.orig_index()[lo..hi].iter().enumerate() {
                    // SAFETY: each original index occurs in exactly one
                    // group; tasks write disjoint output slots.
                    unsafe { *out.get().add(orig as usize) = scr.targets.accel(i) };
                }
                stats
            })
            .collect();

        let mut walk_stats = WalkStats::default();
        for stats in &per_group {
            walk_stats.merge(stats);
        }
        times.traversal = traversal_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        times.force = force_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        #[cfg(feature = "obs")]
        _pp_span.arg("interactions", walk_stats.interactions as f64);
        (accel, walk_stats, times)
    }

    /// Evaluate PM accelerations only: one cycle of the backend, with
    /// the wall seconds of its four Table I phases.
    pub fn compute_pm(&self, pos: &[Vec3], mass: &[f64]) -> (PmResult, greem_pm::PmPhaseTimes) {
        #[cfg(feature = "obs")]
        let _pm_span = greem_obs::trace::span("force", "pm.compute");
        self.pm.solve_timed(pos, mass)
    }

    /// Full TreePM force evaluation: PM + PP.
    pub fn compute(&self, pos: &[Vec3], mass: &[f64]) -> ForceResult {
        // The two halves of the force split share nothing until the
        // final sum; `join` overlaps them so the serial stretches of
        // one (FFT butterflies, tree-arena concatenation) fill the
        // otherwise-idle time of the other's workers.
        #[cfg(feature = "obs")]
        let _span = greem_obs::trace::span("force", "force.compute");
        let ((pm, pm_times), (pp_accel, walk, pp_times)) =
            rayon::join(|| self.compute_pm(pos, mass), || self.compute_pp(pos, mass));
        let accel = pp_accel
            .iter()
            .zip(&pm.accel)
            .map(|(a, b)| *a + *b)
            .collect();
        ForceResult {
            accel,
            pp_accel,
            pm_accel: pm.accel,
            walk,
            pp_times,
            pm_times,
        }
    }

    /// Total gravitational potential energy of the snapshot (G = 1):
    /// `U = ½Σ m_i·φ_i` with φ the PM mesh potential (self-energy
    /// subtracted analytically) plus the pairwise short-range potential.
    /// Diagnostics-grade (scalar loops).
    pub fn potential_energy(&self, pos: &[Vec3], mass: &[f64]) -> f64 {
        // PM part.
        let (pm, _) = self.compute_pm(pos, mass);
        // Self-energy of the S2-filtered particle, subtracted per unit
        // mass (the isolated kernel carries the same value at r = 0).
        let phi_self_per_mass = greem_math::s2_self_potential(self.cfg.r_cut);
        let mut u_pm = 0.0;
        for (&m, &phi) in mass.iter().zip(&pm.potential) {
            u_pm += 0.5 * m * (phi - m * phi_self_per_mass);
        }
        // PP part via the group walk and the pairwise potential shape.
        let tree = Octree::build(pos, mass, Aabb::UNIT, self.cfg.tree_params());
        let walk = GroupWalk::new(&tree, self.cfg.traverse_params());
        let mut u_pp = 0.0;
        walk.for_each_group(|group, list| {
            for slot in group.first..group.first + group.count {
                let p = tree.pos()[slot as usize];
                let m = tree.mass()[slot as usize];
                for s in list {
                    let r = (s.pos - p).norm();
                    if r > 0.0 {
                        u_pp += 0.5 * m * s.mass * self.cfg.split().pp_potential(r);
                    }
                }
            }
        });
        u_pm + u_pp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greem_math::min_image_vec;

    use greem_math::testutil::rand_positions as rand_pos;

    #[test]
    fn pp_matches_brute_force() {
        let cfg = TreePmConfig {
            theta: 0.0, // exact walk
            ..TreePmConfig::standard(16)
        };
        let solver = TreePm::new(cfg);
        let n = 120;
        let pos = rand_pos(n, 3);
        let mass = vec![1.0 / n as f64; n];
        let (acc, walk, _) = solver.compute_pp(&pos, &mass);
        let split = cfg.split();
        for i in 0..n {
            let mut want = Vec3::ZERO;
            for j in 0..n {
                if i != j {
                    want += split.pp_accel(min_image_vec(pos[j], pos[i]), mass[j]);
                }
            }
            assert!(
                (acc[i] - want).norm() < 1e-6 * want.norm().max(1e-9),
                "i={i}: {:?} vs {want:?}",
                acc[i]
            );
        }
        assert_eq!(walk.sum_ni, n as u64);
    }

    #[test]
    fn total_force_momentum_conserves() {
        let solver = TreePm::new(TreePmConfig::standard(16));
        let n = 150;
        let pos = rand_pos(n, 9);
        let mass: Vec<f64> = (0..n).map(|i| (1.0 + (i % 3) as f64) / n as f64).collect();
        let res = solver.compute(&pos, &mass);
        let ptot: Vec3 = res.accel.iter().zip(&mass).map(|(a, &m)| *a * m).sum();
        let scale: f64 = res
            .accel
            .iter()
            .zip(&mass)
            .map(|(a, &m)| (*a * m).norm())
            .sum();
        assert!(
            ptot.norm() < 1e-4 * scale,
            "net momentum {ptot:?} / {scale}"
        );
    }

    #[test]
    fn split_parts_are_returned_consistently() {
        let solver = TreePm::new(TreePmConfig::standard(16));
        let pos = rand_pos(50, 4);
        let mass = vec![0.02; 50];
        let res = solver.compute(&pos, &mass);
        for i in 0..50 {
            let sum = res.pp_accel[i] + res.pm_accel[i];
            assert!((res.accel[i] - sum).norm() < 1e-14 * sum.norm().max(1e-30));
        }
        assert!(res.walk.interactions > 0);
    }

    #[test]
    fn isolated_pair_total_force_is_newtonian() {
        // Inside the cutoff the PP + PM total must reproduce ~1/r²
        // regardless of where r sits relative to r_cut.
        let n_mesh = 32;
        let cfg = TreePmConfig {
            eps: 0.0,
            r_cut: 8.0 / n_mesh as f64,
            ..TreePmConfig::standard(n_mesh)
        };
        let solver = TreePm::new(cfg);
        // r ≲ 0.2 only: beyond that the periodic images and the
        // neutralising background pull the true (Ewald) force well
        // below 1/r² — at r = 0.3 by ~15 % — which the baselines crate's
        // Ewald reference quantifies.
        for r in [0.06, 0.12, 0.2] {
            let pos = vec![Vec3::new(0.3, 0.5, 0.5), Vec3::new(0.3 + r, 0.5, 0.5)];
            let mass = vec![1.0, 1.0];
            let res = solver.compute(&pos, &mass);
            let f = res.accel[0].x;
            let newton = 1.0 / (r * r);
            assert!(
                (f - newton).abs() < 0.06 * newton,
                "r={r}: total {f} vs newton {newton} (pp {}, pm {})",
                res.pp_accel[0].x,
                res.pm_accel[0].x
            );
        }
    }

    #[test]
    fn isolated_boundary_removes_ewald_suppression_at_wide_separation() {
        // At r = 0.3 the periodic images and neutralising background
        // pull the true periodic force ~15 % below 1/r² (see the test
        // above); under isolated boundaries the same pair must feel the
        // plain Newtonian attraction through both halves of the split.
        let solver = TreePm::new(TreePmConfig::isolated(32));
        let r: f64 = 0.3;
        let pos = vec![Vec3::new(0.3, 0.5, 0.5), Vec3::new(0.3 + r, 0.5, 0.5)];
        let mass = vec![1.0, 1.0];
        let res = solver.compute(&pos, &mass);
        let newton = 1.0 / (r * r);
        assert!(
            (res.accel[0].x - newton).abs() < 0.05 * newton,
            "isolated total {} vs newton {newton}",
            res.accel[0].x
        );
        assert!(
            (res.accel[0] + res.accel[1]).norm() < 1e-6 * newton,
            "isolated pair must be antisymmetric"
        );
    }

    #[test]
    fn potential_energy_is_negative_for_clustered() {
        let solver = TreePm::new(TreePmConfig::standard(16));
        // A tight clump: strongly bound.
        let pos: Vec<Vec3> = (0..20)
            .map(|i| Vec3::splat(0.5) + Vec3::new(1e-3 * i as f64, 0.0, 0.0))
            .collect();
        let mass = vec![0.05; 20];
        let u = solver.potential_energy(&pos, &mass);
        assert!(u < 0.0, "clustered potential energy {u}");
    }
}
