//! The pure (no force split) Barnes-Hut tree with open boundary —
//! the algorithm of the pre-TreePM Gordon-Bell winners (§I).
//!
//! Used for the paper's two comparative claims:
//!
//! 1. at equal force accuracy, TreePM needs *fewer operations* because
//!    "the contributions of distant (large) cells dominate the error in
//!    the calculated force" of a pure tree, while TreePM ships them
//!    through the FFT and can afford a looser θ;
//! 2. the open-boundary interaction lists are much longer: the paper's
//!    ⟨Nj⟩ ≈ 2300 is ~6× shorter than the previous GPU winner's
//!    open-boundary tree, because the cutoff prunes the walk.

use greem_kernels::{newton_accel_blocked, SourceList, Targets};
use greem_math::{Aabb, Vec3};
use greem_tree::{GroupWalk, SnapshotTree, TraverseParams, TreeParams, WalkStats};

/// Statistics of a pure-tree force evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PureTreeStats {
    /// Walk statistics (⟨Ni⟩, ⟨Nj⟩, interactions).
    pub walk: WalkStats,
}

/// Open-boundary Barnes-Hut accelerations at opening angle `theta` with
/// group size `group_size` and softening `eps`. Returns accelerations
/// in input order plus walk statistics.
pub fn pure_tree_accel(
    pos: &[Vec3],
    mass: &[f64],
    theta: f64,
    group_size: usize,
    eps: f64,
) -> (Vec<Vec3>, PureTreeStats) {
    assert_eq!(pos.len(), mass.len());
    let mut bb = Aabb::from_points(pos.iter().copied());
    // Fatten degenerate boxes so the tree build is well-posed.
    let pad = bb.max_extent().max(1e-12) * 1e-9;
    bb = Aabb::new(bb.lo - Vec3::splat(pad), bb.hi + Vec3::splat(pad));
    let tree = SnapshotTree::build(pos, mass, bb, TreeParams::default());
    let view = tree.view();
    let walk = GroupWalk::new(
        &view,
        TraverseParams {
            theta,
            group_size,
            r_cut: None,
            periodic: false,
            multipole: Default::default(),
        },
    );
    let mut accel = vec![Vec3::ZERO; pos.len()];
    let stats = walk.for_each_group(|group, list| {
        let lo = group.first as usize;
        let hi = lo + group.count as usize;
        let group = &tree.order()[lo..hi];
        let group_pos: Vec<Vec3> = group.iter().map(|&oi| pos[oi as usize]).collect();
        let mut targets = Targets::from_positions(&group_pos);
        let mut sources = SourceList::with_capacity(list.len());
        for s in list {
            sources.push(s.pos, s.mass);
        }
        newton_accel_blocked(&mut targets, &sources, eps);
        for (k, &oi) in group.iter().enumerate() {
            accel[oi as usize] = targets.accel(k);
        }
    });
    (accel, PureTreeStats { walk: stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::direct_open;

    fn plummer_sphere(n: usize, seed: u64) -> Vec<Vec3> {
        // Crude centrally-concentrated sphere around 0.5.
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let r = 0.25 * next().powf(1.5);
                let phi = next() * std::f64::consts::TAU;
                let ct: f64 = 2.0 * next() - 1.0;
                let st = (1.0 - ct * ct).sqrt();
                Vec3::splat(0.5) + Vec3::new(r * st * phi.cos(), r * st * phi.sin(), r * ct)
            })
            .collect()
    }

    #[test]
    fn theta_zero_matches_direct() {
        let pos = plummer_sphere(100, 3);
        let mass = vec![0.01; 100];
        let (acc, stats) = pure_tree_accel(&pos, &mass, 0.0, 16, 1e-4);
        let want = direct_open(&pos, &mass, 1e-4);
        for (a, w) in acc.iter().zip(&want) {
            assert!((*a - *w).norm() < 1e-6 * w.norm().max(1e-9));
        }
        assert_eq!(stats.walk.node_entries, 0);
    }

    #[test]
    fn accuracy_degrades_smoothly_with_theta() {
        let pos = plummer_sphere(300, 7);
        let mass = vec![1.0 / 300.0; 300];
        let want = direct_open(&pos, &mass, 1e-4);
        let mut last_err = 0.0;
        let mut last_inter = u64::MAX;
        for theta in [0.3, 0.6, 1.0] {
            let (acc, stats) = pure_tree_accel(&pos, &mass, theta, 32, 1e-4);
            let mut err_acc = 0.0;
            let mut cnt = 0;
            for (a, w) in acc.iter().zip(&want) {
                if w.norm() > 1e-9 {
                    err_acc += (*a - *w).norm() / w.norm();
                    cnt += 1;
                }
            }
            let err = err_acc / cnt as f64;
            assert!(err >= last_err - 1e-4, "error should grow with θ");
            assert!(
                stats.walk.interactions <= last_inter,
                "work should shrink with θ"
            );
            assert!(err < 0.1, "θ={theta}: error {err}");
            last_err = err;
            last_inter = stats.walk.interactions;
        }
    }

    #[test]
    fn open_lists_longer_than_cutoff_lists() {
        // The §I claim behind ⟨Nj⟩ ≈ 2300 vs ~6× more: at the same θ
        // and group size, an open-boundary pure-tree walk accepts far
        // more list entries than a cutoff-pruned TreePM walk.
        let pos = plummer_sphere(500, 9);
        let mass = vec![1.0 / 500.0; 500];
        let (_, pure_stats) = pure_tree_accel(&pos, &mass, 0.5, 32, 1e-4);
        // Cutoff walk over the same particles (periodic unit box), with
        // the cutoff a small fraction of the system as `standard(128)`
        // makes it (3/128): the regime of §I, where the cutoff prunes.
        let tree = SnapshotTree::build(&pos, &mass, Aabb::UNIT, TreeParams::default());
        let cut = GroupWalk::new(
            &tree.view(),
            TraverseParams {
                theta: 0.5,
                group_size: 32,
                r_cut: Some(3.0 / 128.0),
                periodic: true,
                multipole: Default::default(),
            },
        )
        .for_each_group(|_, _| {});
        assert!(
            pure_stats.walk.mean_nj() > 2.0 * cut.mean_nj(),
            "pure ⟨Nj⟩ {} vs cutoff {}",
            pure_stats.walk.mean_nj(),
            cut.mean_nj()
        );
    }
}
