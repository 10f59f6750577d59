//! **§I** — TreePM needs fewer operations than a pure tree at equal
//! accuracy.
//!
//! "With the tree algorithm, the contributions of distant (large) cells
//! dominate the error in the calculated force. With the TreePM
//! algorithm, the contributions of distant particles are calculated
//! using FFT. Thus, we can allow relatively moderate accuracy parameter
//! for the tree part, resulting in considerable reduction in the
//! computational cost."
//!
//! Experiment: sweep θ for both methods on the same clustered snapshot,
//! measuring force error against each method's exact reference (Ewald
//! for periodic TreePM, direct summation for the open-boundary pure
//! tree) and the pairwise interaction count. At matched error the
//! TreePM count is far smaller.
//! Against P3M, whose short range sums every pair in neighbouring cells
//! (O(n²) in a dense one), the tree's cost grows gently with clustering.

use greem::{TreePm, TreePmConfig};
use greem_baselines::{direct_open, direct_periodic_fast, p3m_short_range, pure_tree_accel};
use greem_math::ForceSplit;

use crate::workloads;

/// One θ sample of one method.
#[derive(Debug, Clone, Copy)]
pub struct OpsRow {
    pub theta: f64,
    pub rms_rel_error: f64,
    pub interactions: u64,
}

/// Pure-tree error/cost sweep.
pub fn pure_tree_rows(n: usize, thetas: &[f64], seed: u64) -> Vec<OpsRow> {
    let pos = workloads::clustered(n, 3, 0.4, seed);
    let mass = workloads::unit_masses(n);
    let eps = 1e-4;
    let want = direct_open(&pos, &mass, eps);
    thetas
        .iter()
        .map(|&theta| {
            let (acc, stats) = pure_tree_accel(&pos, &mass, theta, 32, eps);
            let mut err = 0.0;
            let mut cnt = 0;
            for (a, w) in acc.iter().zip(&want) {
                if w.norm() > 1e-9 {
                    err += ((*a - *w).norm() / w.norm()).powi(2);
                    cnt += 1;
                }
            }
            OpsRow {
                theta,
                rms_rel_error: (err / cnt as f64).sqrt(),
                interactions: stats.walk.interactions,
            }
        })
        .collect()
}

/// TreePM error/cost sweep (PP interactions; the FFT cost is shared and
/// small — the paper's point).
pub fn treepm_rows(n: usize, n_mesh: usize, thetas: &[f64], seed: u64) -> Vec<OpsRow> {
    let pos = workloads::clustered(n, 3, 0.4, seed);
    let mass = workloads::unit_masses(n);
    let want = direct_periodic_fast(&pos, &mass);
    thetas
        .iter()
        .map(|&theta| {
            let cfg = TreePmConfig {
                theta,
                eps: 0.0,
                // A fatter cutoff (6 cells) pushes the PM error floor to
                // ~5e-3 so the comparison happens at error levels the
                // pure tree also reaches.
                r_cut: 6.0 / n_mesh as f64,
                ..TreePmConfig::standard(n_mesh)
            };
            let solver = TreePm::new(cfg);
            let res = solver.compute(&pos, &mass);
            let mut err = 0.0;
            let mut cnt = 0;
            for (a, w) in res.accel.iter().zip(&want) {
                if w.norm() > 1e-9 {
                    err += ((*a - *w).norm() / w.norm()).powi(2);
                    cnt += 1;
                }
            }
            OpsRow {
                theta,
                rms_rel_error: (err / cnt as f64).sqrt(),
                interactions: res.walk.interactions,
            }
        })
        .collect()
}

/// Interactions needed to reach `target_err` (log-interpolated over the
/// sweep; `None` when unreached).
pub fn ops_at_error(rows: &[OpsRow], target_err: f64) -> Option<f64> {
    // rows sorted by growing θ: error grows, ops shrink.
    for w in rows.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let (e0, e1) = (a.rms_rel_error, b.rms_rel_error);
        if (e0 <= target_err && target_err <= e1) || (e1 <= target_err && target_err <= e0) {
            let t = ((target_err.ln() - e0.ln()) / (e1.ln() - e0.ln())).clamp(0.0, 1.0);
            let ops = (a.interactions as f64).ln() * (1.0 - t) + (b.interactions as f64).ln() * t;
            return Some(ops.exp());
        }
    }
    None
}

/// `(bodies, P3M's short-range pairs, the tree's interactions)` at
/// r_cut = 3/32 on `n` uniform bodies and on `n` with 70 % in two
/// clumps: exact counts, so their ratios are deterministic.
pub fn short_range(n: usize) -> [(&'static str, u64, u64); 2] {
    let mass = workloads::unit_masses(n);
    let split = ForceSplit::new(3.0 / 32.0, 1e-4);
    let solver = TreePm::new(TreePmConfig {
        r_cut: split.r_cut,
        eps: split.eps,
        ..TreePmConfig::standard(32)
    });
    [
        ("uniform", workloads::uniform(n, 3)),
        ("clustered", workloads::clustered(n, 2, 0.7, 3)),
    ]
    .map(|(bodies, pos)| {
        let p3m = p3m_short_range(&pos, &mass, &split).1.pair_interactions;
        (bodies, p3m, solver.compute_pp(&pos, &mass).1.interactions())
    })
}

/// Both θ sweeps on 500 (`small`) or 2000 bodies and the P3M comparison
/// on 2000 or 6000, as text and JSON.
pub fn run(small: bool) -> super::Outcome {
    let n = if small { 500 } else { 2000 };
    let thetas = [0.2, 0.35, 0.5, 0.7, 0.9, 1.2, 1.6, 2.0];
    let pure = pure_tree_rows(n, &thetas, 77);
    let tpm = treepm_rows(n, 64, &thetas, 77);
    let mut s = String::from(
        "=== Sec. I: pure tree vs TreePM, operations at equal error =====\n\
         theta    pure-tree err     ops        TreePM err       ops\n",
    );
    for (a, b) in pure.iter().zip(&tpm) {
        s.push_str(&format!(
            "{:>5.2} {:>14.4e} {:>11} {:>13.4e} {:>11}\n",
            a.theta, a.rms_rel_error, a.interactions, b.rms_rel_error, b.interactions
        ));
    }
    for target in [0.01, 0.005, 0.003] {
        let po = ops_at_error(&pure, target);
        let to = ops_at_error(&tpm, target);
        if let (Some(po), Some(to)) = (po, to) {
            s.push_str(&format!(
                "\nat rms error {target}: pure tree needs {:.3e} ops, TreePM {:.3e} ({:.1}x fewer)",
                po,
                to,
                po / to
            ));
        }
    }
    s.push_str(
        "\n(TreePM reaches the same accuracy with far fewer pairwise ops —\n the Sec. I claim.)\n",
    );
    let mut w = super::summary_writer("tree_vs_treepm", small);
    w.u64(Some("n"), n as u64);
    for (key, rows) in [("pure_tree", &pure), ("treepm", &tpm)] {
        w.begin_arr(Some(key));
        for r in rows {
            w.begin_obj(None);
            w.f64(Some("theta"), r.theta);
            w.f64(Some("rms_rel_error"), r.rms_rel_error);
            w.u64(Some("interactions"), r.interactions);
            w.end_obj();
        }
        w.end_arr();
    }
    let short_n = if small { 2000 } else { 6000 };
    s.push_str(&format!(
        "\nshort range at r_cut = 3/32, {short_n} bodies: clustering multiplies P3M's\n\
         direct-in-cell pairs far more than the tree's interactions\n\
         bodies       P3M pairs  tree interactions\n"
    ));
    w.begin_obj(Some("short_range"));
    w.u64(Some("n"), short_n as u64);
    for (bodies, p3m, tree) in short_range(short_n) {
        s.push_str(&format!("{bodies:<9} {p3m:>12} {tree:>18}\n"));
        w.begin_obj(Some(bodies));
        w.u64(Some("p3m_pairs"), p3m);
        w.u64(Some("tree_interactions"), tree);
        w.end_obj();
    }
    w.end_obj();
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn treepm_cheaper_at_matched_error() {
        let thetas = [0.3, 0.5, 0.8, 1.1];
        let pure = pure_tree_rows(800, &thetas, 3);
        // Mesh 32, not 16: treepm_rows widens the cutoff to 6/n_mesh
        // cells, and at mesh 16 that is 0.375 of the box — the cutoff
        // sphere covers ~22% of the volume, PP lists stay near-direct
        // size, and the PM error floor sits above the tree's, so the
        // comparison never reaches the regime §I describes (distant
        // contributions through the FFT, moderate θ for the tree part).
        // Mesh 32 keeps the cutoff at 0.1875 and restores that regime.
        let tpm = treepm_rows(800, 32, &thetas, 3);
        // Find a common achievable error level.
        let target = pure
            .iter()
            .map(|r| r.rms_rel_error)
            .fold(f64::MIN, f64::max)
            .min(tpm.iter().map(|r| r.rms_rel_error).fold(f64::MIN, f64::max))
            * 0.8;
        let po = ops_at_error(&pure, target);
        let to = ops_at_error(&tpm, target);
        if let (Some(po), Some(to)) = (po, to) {
            assert!(
                to < po,
                "TreePM ops {to:.3e} should undercut pure tree {po:.3e} at err {target:.1e}"
            );
        } else {
            // At minimum the cutoff walk must produce shorter lists.
            assert!(tpm[1].interactions < pure[1].interactions);
        }
    }
}
