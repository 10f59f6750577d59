//! The single-address-space TreePM force engine.
//!
//! One [`TreePm`] owns the serial PM solver and the tree/kernel
//! configuration; [`TreePm::compute`] evaluates the full force split on
//! a particle snapshot; the PP half is one fresh pass of the resident
//! engine ([`crate::resident`]), which runs one rayon task per particle
//! group — the within-process data parallelism that plays the role of
//! the paper's OpenMP threads inside each MPI process.

use greem_math::{Aabb, Vec3};
use greem_pm::{PmResult, PmSolver};
use greem_tree::{GroupWalk, SnapshotTree, WalkStats};

use crate::config::{Boundary, TreePmConfig};
use crate::particle::Body;
use crate::resident::ResidentPp;
use crate::stats::StepBreakdown;
use crate::store::ParticleStore;

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
    /// The PM solver, built for `cfg.boundary`: the periodic torus or
    /// the James'-method zero-padded open mesh.
    pm: PmSolver,
}

impl TreePm {
    /// Build a solver from a configuration. The boundary condition
    /// selects the PM solver's constructor (periodic mesh vs zero-padded
    /// open-space mesh); the PP half reads the same flag through
    /// [`TreePmConfig::traverse_params`].
    pub fn new(cfg: TreePmConfig) -> Self {
        let pm = match cfg.boundary {
            Boundary::Periodic => PmSolver::new(cfg.pm_params()),
            Boundary::Isolated => PmSolver::isolated(cfg.pm_params()),
        };
        TreePm { pm, cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &TreePmConfig {
        &self.cfg
    }

    /// Evaluate PP accelerations only (tree + kernel) on a snapshot: one
    /// whole-box walking pass of the resident engine at
    /// `cfg.group_size` over a store whose ids are the input indices,
    /// scattered back through them. A snapshot has no later pass to
    /// replay on, so the pass records no lists. The pass's PP rows and
    /// walk statistics come back as one breakdown.
    pub fn compute_pp(&self, pos: &[Vec3], mass: &[f64]) -> (Vec<Vec3>, StepBreakdown) {
        assert_eq!(pos.len(), mass.len());
        let mut span = greem_obs::trace::span("force", "pp.compute");
        let mut store = ParticleStore::with_capacity(pos.len());
        for (id, (&p, &m)) in pos.iter().zip(mass).enumerate() {
            store.push(Body::at_rest(p, m, id as u64));
        }
        let cfg = TreePmConfig {
            list_reuse: false,
            ..self.cfg
        };
        let (by_row, bd) = ResidentPp::new().pass(&cfg, &mut store, None, 0.0);
        let mut accel = vec![Vec3::ZERO; pos.len()];
        for (a, &id) in by_row.iter().zip(store.id_column()) {
            accel[id as usize] = *a;
        }
        span.arg("interactions", bd.walk.interactions as f64);
        (accel, bd)
    }

    /// Evaluate PM accelerations only: one cycle of the PM solver, with
    /// the wall seconds of its four Table I phases.
    pub fn compute_pm(&self, pos: &[Vec3], mass: &[f64]) -> (PmResult, greem_pm::PmPhaseTimes) {
        let _pm_span = greem_obs::trace::span("force", "pm.compute");
        self.pm.solve_timed(pos, mass)
    }

    /// Full TreePM force evaluation: PM + PP.
    pub fn compute(&self, pos: &[Vec3], mass: &[f64]) -> ForceResult {
        // The two halves of the force split share nothing until the
        // final sum; `join` overlaps them so the serial stretches of
        // one (FFT butterflies, tree-arena concatenation) fill the
        // otherwise-idle time of the other's workers.
        let _span = greem_obs::trace::span("force", "force.compute");
        let ((pm, _), (pp_accel, pp)) =
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
            walk: pp.walk,
        }
    }

    /// Total gravitational potential energy of the snapshot (G = 1):
    /// `U = ½Σ m_i·φ_i` with φ the PM mesh potential (self-energy
    /// subtracted analytically) plus the pairwise short-range potential.
    /// Diagnostics-grade (scalar loops).
    pub fn potential_energy(&self, pos: &[Vec3], mass: &[f64]) -> f64 {
        // PM part: the mesh potential, interpolated to the particles.
        let phi = self.pm.potential_mesh(&self.pm.assign_density(pos, mass));
        let phi = self.pm.interpolate(&phi, pos);
        // Self-energy of the S2-filtered particle, subtracted per unit
        // mass (the isolated kernel carries the same value at r = 0).
        let phi_self_per_mass = greem_math::s2_self_potential(self.cfg.r_cut);
        let mut u_pm = 0.0;
        for (&m, &phi) in mass.iter().zip(&phi) {
            u_pm += 0.5 * m * (phi - m * phi_self_per_mass);
        }
        // PP part via the group walk and the pairwise potential shape.
        let tree = SnapshotTree::build(pos, mass, Aabb::UNIT, self.cfg.tree_params());
        let view = tree.view();
        let walk = GroupWalk::new(&view, self.cfg.traverse_params());
        let mut u_pp = 0.0;
        walk.for_each_group(|group, list| {
            for slot in group.first..group.first + group.count {
                let i = tree.order()[slot as usize] as usize;
                let (p, m) = (pos[i], mass[i]);
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
        let (acc, bd) = solver.compute_pp(&pos, &mass);
        let walk = bd.walk;
        let split = cfg.split();
        // Held to the kernel suite's budget, 2⁻¹⁸ of each target's
        // interaction scale: a bound relative to the net force would be
        // one on a cutoff-suppressed sum of cancelling terms, which no
        // 24-bit kernel (the paper's included) can meet.
        for i in 0..n {
            let images: greem_kernels::SourceList = (0..n)
                .filter(|&j| j != i)
                .map(|j| (pos[i] + min_image_vec(pos[j], pos[i]), mass[j]))
                .collect();
            let mut want = Vec3::ZERO;
            for j in 0..images.len() {
                want += split.pp_accel(images.pos(j) - pos[i], images.m[j]);
            }
            let scale = greem_kernels::testutil::interaction_scale(&split, pos[i], &images);
            assert!(
                (acc[i] - want).norm() <= 2.0f64.powi(-18) * scale,
                "i={i}: {:?} vs {want:?} on a scale of {scale:e}",
                acc[i]
            );
        }
        assert_eq!(walk.sum_ni, n as u64);
    }

    /// FNV-1a of `compute_pp` over {periodic, isolated} × {monopole,
    /// pseudo-particle quadrupole} × `list_reuse` on/off at n = 230 and
    /// 3000: every `WalkStats` field into one digest, the bits of every
    /// acceleration (input order) into another.
    fn golden_pp_hashes() -> (u64, u64) {
        use crate::config::Boundary;
        use greem_math::testutil::Fnv1a;
        use greem_tree::Multipole;
        let (mut walk_hash, mut accel_hash) = (Fnv1a::default(), Fnv1a::default());
        for n in [230usize, 3000] {
            let pos = rand_pos(n, 7);
            let mass: Vec<f64> = (0..n).map(|i| (1.0 + (i % 5) as f64) / n as f64).collect();
            for boundary in [Boundary::Periodic, Boundary::Isolated] {
                for multipole in [Multipole::Monopole, Multipole::PseudoParticleQuad] {
                    for list_reuse in [true, false] {
                        let cfg = TreePmConfig {
                            group_size: 24,
                            boundary,
                            multipole,
                            list_reuse,
                            ..TreePmConfig::standard(16)
                        };
                        let (acc, bd) = TreePm::new(cfg).compute_pp(&pos, &mass);
                        let w = bd.walk;
                        for v in [
                            w.n_groups,
                            w.sum_ni,
                            w.sum_nj,
                            w.interactions,
                            w.particle_entries,
                            w.node_entries,
                            w.visited_nodes,
                        ] {
                            walk_hash.u64(v);
                        }
                        for b in w.group_size_buckets {
                            walk_hash.u64(b);
                        }
                        for a in &acc {
                            accel_hash.f64s(&[a.x, a.y, a.z]);
                        }
                    }
                }
            }
        }
        (walk_hash.0, accel_hash.0)
    }

    /// Recorded on the tree whose `compute_pp` still built an `Octree`
    /// and ran its own group loop (PR 17's); the two x86 acceleration
    /// digests re-recorded when those kernels moved to single precision
    /// (PR 21). The walk digest holds under every kernel; the
    /// acceleration digest is the selected kernel's, and the x86 ones
    /// are those of Intel's `rsqrt` tables.
    #[test]
    fn compute_pp_golden_hashes() {
        use greem_kernels::testutil::hardware_seed_is_the_recorded_one;
        use greem_kernels::{selected_variant, KernelVariant};
        let (walk, accel) = golden_pp_hashes();
        assert_eq!(
            walk, 0x0322_1f18_8b62_69c5,
            "walk statistics moved: {walk:#018x}"
        );
        let variant = selected_variant();
        let want: u64 = match variant {
            KernelVariant::Avx512 => 0x295d_00d3_a76f_8059,
            KernelVariant::Avx2 => 0x1f61_5582_686a_d42d,
            KernelVariant::Portable => 0x9753_370b_fa16_70b9,
            KernelVariant::Scalar => 0x8ba2_5dcc_6d54_52ed,
        };
        let x86 = matches!(variant, KernelVariant::Avx512 | KernelVariant::Avx2);
        if x86 && !hardware_seed_is_the_recorded_one() {
            eprintln!(
                "skipping the {} pin: not the recording vendor's rsqrt table",
                variant.name()
            );
            return;
        }
        assert_eq!(
            accel,
            want,
            "{} acceleration bits moved: {accel:#018x}",
            variant.name()
        );
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
    fn potential_energy_keeps_the_bits_of_the_four_field_gather() {
        // Recorded when the PM cycle still interpolated φ beside the
        // three accelerations: interpolating it on its own, from the
        // staged mesh calls, gives every bit back, on both boundaries.
        let pos = rand_pos(300, 61);
        let mass: Vec<f64> = (0..300).map(|i| 0.5 + (i % 7) as f64 * 0.1).collect();
        for (cfg, want) in [
            (TreePmConfig::standard(16), 0xc06d_6045_c3a7_8002_u64),
            (TreePmConfig::isolated(16), 0xc0e9_f283_e5ac_ad75),
        ] {
            let u = TreePm::new(cfg).potential_energy(&pos, &mass);
            assert_eq!(u.to_bits(), want, "{:?}: {u:e}", cfg.boundary);
        }
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
