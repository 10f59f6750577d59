//! **Figure 3** — the adaptive domain decomposition.
//!
//! The paper's figure shows an 8×8 (2-D view) multisection following a
//! clustered particle distribution: dense structures get divided into
//! small domains so every process carries the same force cost. We
//! reproduce it with the sampling-method balancer in feedback with a
//! cost model `cost ∝ count²` (the short-range pathology), printing the
//! imbalance trajectory and an ASCII rendering of the final boundaries.

use greem_domain::{BalancerParams, DomainGrid, SamplingBalancer};
use greem_math::Vec3;

use crate::workloads;

/// Result of the load-balance experiment.
pub struct Fig3Result {
    pub grid: DomainGrid,
    /// max/mean particle count per domain, per iteration (index 0 =
    /// uniform decomposition).
    pub imbalance_history: Vec<f64>,
    pub positions: Vec<Vec3>,
}

/// Run `iters` feedback rounds of the balancer on a clustered field
/// divided `div[0]×div[1]×div[2]`.
pub fn balance(n: usize, div: [usize; 3], iters: usize, seed: u64) -> Fig3Result {
    let positions = workloads::clustered(n, 5, 0.55, seed);
    let mut bal = SamplingBalancer::new(BalancerParams::new(div, (n / 2).clamp(512, 20_000)));
    let mut grid = bal.current();
    let imbalance = |grid: &DomainGrid| -> f64 {
        let mut counts = vec![0f64; grid.len()];
        for p in &positions {
            counts[grid.rank_of_point(*p)] += 1.0;
        }
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        counts.iter().cloned().fold(0.0, f64::max) / mean
    };
    let mut history = vec![imbalance(&grid)];
    for _ in 0..iters {
        let per_rank: Vec<(Vec<Vec3>, f64)> = (0..grid.len())
            .map(|r| {
                let mine: Vec<Vec3> = positions
                    .iter()
                    .copied()
                    .filter(|p| grid.rank_of_point(*p) == r)
                    .collect();
                let cost = (mine.len() as f64).powi(2);
                (mine, cost)
            })
            .collect();
        grid = bal.rebalance_serial(&per_rank);
        history.push(imbalance(&grid));
    }
    Fig3Result {
        grid,
        imbalance_history: history,
        positions,
    }
}

/// ASCII rendering of the decomposition in the (x, y) plane at z≈0.5:
/// domain boundaries over a particle-density map.
pub fn render_plane(result: &Fig3Result, chars: usize) -> String {
    let n = chars;
    let mut density = vec![0usize; n * n];
    for p in &result.positions {
        if (p.z - 0.5).abs() < 0.25 {
            let c = |x: f64| ((x * n as f64) as usize).min(n - 1);
            density[c(p.y) * n + c(p.x)] += 1;
        }
    }
    let max = *density.iter().max().unwrap_or(&1);
    let grid = &result.grid;
    let mut out = String::new();
    for row in 0..n {
        for col in 0..n {
            let x = (col as f64 + 0.5) / n as f64;
            let y = (row as f64 + 0.5) / n as f64;
            // Domain boundary detection: owner changes to the right or
            // below.
            let p = Vec3::new(x, y, 0.5);
            let here = grid.rank_of_point(p);
            let right = grid.rank_of_point(Vec3::new((x + 1.0 / n as f64).min(1.0 - 1e-9), y, 0.5));
            let below = grid.rank_of_point(Vec3::new(x, (y + 1.0 / n as f64).min(1.0 - 1e-9), 0.5));
            let d = density[row * n + col];
            let ch = if here != right {
                '|'
            } else if here != below {
                '-'
            } else if d == 0 {
                ' '
            } else {
                const RAMP: &[u8] = b".:+*#@";
                let t = (d as f64 / max as f64).powf(0.4);
                RAMP[((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)] as char
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

/// Ten balancer rounds on an 8×8 division of 2000 (`small`) or 20000
/// clustered bodies, as text and JSON.
pub fn run(small: bool) -> super::Outcome {
    let n = if small { 2000 } else { 20000 };
    let div = [8, 8, 1];
    let result = balance(n, div, 10, 99);
    let mut s = String::from("=== Fig. 3: adaptive 8x8 domain decomposition ===============\n");
    s.push_str("imbalance (max/mean particles per domain) per iteration:\n  ");
    let mut w = super::summary_writer("fig3", small);
    w.u64(Some("n"), n as u64);
    w.begin_arr(Some("div"));
    for d in div {
        w.u64(None, d as u64);
    }
    w.end_arr();
    w.begin_arr(Some("imbalance_history"));
    for (i, im) in result.imbalance_history.iter().enumerate() {
        s.push_str(&format!("{}:{:.2} ", i, im));
        w.f64(None, *im);
    }
    w.end_arr();
    s.push_str("\n\nfinal boundaries over the particle density (x right, y down):\n");
    s.push_str(&render_plane(&result, 64));
    s.push_str("\n(dense clumps sit in visibly smaller domains, as in the paper's figure.)\n");
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balancer_reduces_count_imbalance() {
        let r = balance(3000, [4, 4, 1], 8, 5);
        let first = r.imbalance_history[0];
        let last = *r.imbalance_history.last().unwrap();
        assert!(
            last < 0.6 * first,
            "imbalance {first} -> {last}: no improvement"
        );
    }

    #[test]
    fn render_has_boundaries() {
        let r = balance(1500, [4, 4, 1], 4, 6);
        let art = render_plane(&r, 32);
        assert!(
            art.contains('|') && art.contains('-'),
            "no boundaries:\n{art}"
        );
        assert_eq!(art.lines().count(), 32);
    }
}
