//! **§III-B** — strong scaling: 173.8 s/step on 24576 nodes → 60.2 s on
//! 82944 (a 2.89× speedup on 3.375× the nodes, 86 % parallel
//! efficiency), with the PP part scaling and the FFT flat.
//!
//! Two parts: a measured strong-scaling sweep of the real multi-rank
//! driver on the simulated network, and the perfmodel curve across node
//! counts up to the full system.

use greem::{ParallelTreePm, SimulationMode, StepBreakdown, TreePmConfig};
use greem_perfmodel::model_table;
use mpisim::{NetModel, World};

use crate::workloads;

/// One measured scaling point.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    pub ranks: usize,
    /// Mean wall seconds per step (rank 0's breakdown).
    pub wall_per_step: f64,
    /// PP force seconds per step.
    pub pp_force: f64,
    /// Interactions per step.
    pub interactions: u64,
}

/// Measure a strong-scaling sweep at fixed N.
pub fn measure(n: usize, configs: &[(usize, [usize; 3])], steps: usize) -> Vec<ScalePoint> {
    let pos = workloads::clustered(n, 3, 0.35, 123);
    let bodies = workloads::bodies_at_rest(&pos);
    configs
        .iter()
        .map(|&(p, div)| {
            let bodies = bodies.clone();
            let out = World::new(p)
                .with_net(NetModel::k_computer())
                .run(move |ctx, world| {
                    let cfg = TreePmConfig {
                        group_size: 64,
                        ..TreePmConfig::standard(32)
                    };
                    let root = (world.rank() == 0).then(|| bodies.clone());
                    let mut sim = ParallelTreePm::new(
                        ctx,
                        world,
                        cfg,
                        div,
                        world.size().min(8),
                        None,
                        root,
                        SimulationMode::Static,
                    );
                    let mut acc = StepBreakdown::default();
                    let t0 = std::time::Instant::now();
                    for _ in 0..steps {
                        let s = sim.step(ctx, world, 1e-3);
                        acc.accumulate(&s.breakdown);
                    }
                    (t0.elapsed().as_secs_f64(), acc)
                });
            let (wall, bd) = &out[0];
            ScalePoint {
                ranks: p,
                wall_per_step: wall / steps as f64,
                pp_force: bd.pp_force_calculation / steps as f64,
                interactions: bd.walk.interactions / steps as u64,
            }
        })
        .collect()
}

/// The measured sweep on 1000 (`small`) or 6000 bodies plus the
/// perfmodel curve, as text and JSON.
pub fn run(small: bool) -> super::Outcome {
    let n = if small { 1000 } else { 6000 };
    let configs = [
        (1usize, [1usize, 1, 1]),
        (2, [2, 1, 1]),
        (4, [2, 2, 1]),
        (8, [2, 2, 2]),
    ];
    let points = measure(n, &configs, 2);
    let mut s = String::from(
        "=== Sec. III-B: strong scaling ==================================\n\n\
         -- measured on this implementation (mpisim ranks as host threads;\n\
            wall time per step, so host core count bounds the speedup) --\n\
         ranks   wall/step(s)   PP force(s)   interactions/step\n",
    );
    let mut w = super::summary_writer("scaling", small);
    w.u64(Some("n"), n as u64);
    w.begin_arr(Some("measured"));
    for p in &points {
        s.push_str(&format!(
            "{:>5} {:>13.4} {:>13.4} {:>15}\n",
            p.ranks, p.wall_per_step, p.pp_force, p.interactions
        ));
        w.begin_obj(None);
        w.u64(Some("ranks"), p.ranks as u64);
        w.f64(Some("wall_per_step_s"), p.wall_per_step);
        w.f64(Some("pp_force_s"), p.pp_force);
        w.u64(Some("interactions_per_step"), p.interactions);
        w.end_obj();
    }
    w.end_arr();
    s.push_str("\n-- perfmodel at the paper's scale (N = 10240^3) --\n");
    s.push_str("nodes    total(s/step)   PP(s)    FFT(s)   Pflops   efficiency\n");
    w.begin_arr(Some("model"));
    for p in [6144usize, 12288, 24576, 49152, 82944] {
        let t = model_table(p);
        let pp = t.rows().section("pp");
        s.push_str(&format!(
            "{:>6} {:>13.1} {:>8.1} {:>8.2} {:>8.2} {:>10.1}%\n",
            p,
            t.total(),
            pp,
            t.pm_fft,
            t.performance() / 1e15,
            t.efficiency() * 100.0
        ));
        w.begin_obj(None);
        w.u64(Some("nodes"), p as u64);
        w.f64(Some("total_s_per_step"), t.total());
        w.f64(Some("pp_s"), pp);
        w.f64(Some("fft_s"), t.pm_fft);
        w.f64(Some("pflops"), t.performance() / 1e15);
        w.f64(Some("efficiency"), t.efficiency());
        w.end_obj();
    }
    w.end_arr();
    s.push_str(
        "\n(paper: 173.8 s -> 60.2 s from 24576 -> 82944 nodes; 1.53 -> 4.45\n\
         Pflops; efficiency declines as the flat FFT bites — same shape here.)\n",
    );
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_rank_work_shrinks_with_ranks() {
        let points = measure(1200, &[(1, [1, 1, 1]), (4, [2, 2, 1])], 1);
        // Strong scaling: rank 0's share of the pairwise work shrinks
        // with more ranks. Interactions, not seconds — mpisim ranks are
        // host threads, so on a loaded (or single-core) host wall-time
        // shares race against the scheduler and flake.
        assert!(
            points[1].interactions < points[0].interactions,
            "rank-0 interactions {} !< {}",
            points[1].interactions,
            points[0].interactions
        );
        // Total interactions stay in the same ballpark (same physics).
        let r = points[1].interactions as f64 * 4.0 / points[0].interactions as f64;
        assert!(r > 0.5 && r < 8.0, "interaction ratio {r}");
    }
}
