//! The perf-regression gate (`harness regress`).
//!
//! Runs a fixed deterministic TreePM workload on the simulated network,
//! captures the trace, and distills it — via `greem-analysis` — into a
//! metric vector (virtual step time, per-phase vtimes, interaction and
//! comm-byte counts, critical-path share, %-of-peak, recovery counters,
//! clean-run alert count) that is judged against a committed baseline
//! under `baselines/` with explicit noise tolerances by [`crate::gate`].
//! See DESIGN.md §13 for the tolerance and baseline-update policy.
//!
//! Gated metrics come from the *virtual* clock and exact counters, so
//! they are reproducible across hosts; the tolerances only absorb the
//! trajectory-level perturbation of SIMD-kernel variants. Wall time is
//! recorded (`gate: false`) but never fails the build.

use greem::{ParallelTreePm, SimulationMode, TreePmConfig};
use greem_analysis::{
    critical_path, efficiency, leaf_segments, phase_imbalance, CriticalPath, Direction, Efficiency,
    MetricSpec, Monitor, PhaseImbalance,
};
use greem_obs::json::JsonWriter;
use mpisim::{NetModel, World};

use crate::experiments::{chaos, GateSpec, Outcome};
use crate::workloads;

/// One fixed regression workload shape.
#[derive(Debug, Clone)]
pub struct RegressShape {
    /// Baseline/bench name (`regress_small` / `regress_full`).
    pub name: &'static str,
    pub n: usize,
    pub mesh: usize,
    pub ranks: usize,
    pub div: [usize; 3],
    pub steps: usize,
}

impl RegressShape {
    /// The CI smoke shape (`--small`).
    pub fn small() -> Self {
        RegressShape {
            name: "regress_small",
            n: 1500,
            mesh: 16,
            ranks: 4,
            div: [2, 2, 1],
            steps: 2,
        }
    }

    /// The default shape.
    pub fn full() -> Self {
        RegressShape {
            name: "regress_full",
            n: 6000,
            mesh: 32,
            ranks: 8,
            div: [2, 2, 2],
            steps: 3,
        }
    }
}

/// Everything one regression run measured: the distilled analyses (for
/// the report) and the metric vector (for the gate).
pub struct Measurement {
    pub shape: RegressShape,
    pub wall_s: f64,
    pub cp: CriticalPath,
    pub imbalance: Vec<PhaseImbalance>,
    pub eff: Efficiency,
    /// Online-detector alerts on this clean run (gated to stay 0).
    pub alerts_total: u64,
    pub interactions: u64,
    pub comm_bytes: u64,
    pub recovery: chaos::ChaosOutcome,
    pub metrics: Vec<MetricSpec>,
}

/// Run the workload, capture its trace, run the offline analyses and
/// the online monitor, and assemble the gated metric vector.
pub fn measure(shape: &RegressShape) -> Measurement {
    let bodies = workloads::bodies_at_rest(&workloads::uniform(shape.n, 42));
    let cfg = TreePmConfig {
        // Balancer feedback and all gated timings run on the virtual
        // clock: deterministic across hosts and interleavings.
        modeled_pp_cost: Some(5e-9),
        ..TreePmConfig::standard(shape.mesh)
    };
    let (ranks, div, steps) = (shape.ranks, shape.div, shape.steps);
    let t0 = std::time::Instant::now();
    let (outs, events) = greem_obs::trace::capture(|| {
        let bodies = bodies.clone();
        World::new(ranks)
            .with_net(NetModel::k_computer())
            .run(move |ctx, comm| {
                let root = (comm.rank() == 0).then(|| bodies.clone());
                let mut sim =
                    ParallelTreePm::new(ctx, comm, cfg, div, 2, None, root, SimulationMode::Static);
                let mut mon = Monitor::new();
                let mut interactions = 0u64;
                for _ in 0..steps {
                    let st = sim.step(ctx, comm, 1e-3);
                    mon.observe_step(ctx, comm, &sim, &st);
                    interactions += st.breakdown.interactions();
                }
                (interactions, ctx.comm_stats().bytes_sent, mon.alert_total())
            })
    });
    let segs = leaf_segments(&events);
    let cp = critical_path(&segs);
    let imbalance = phase_imbalance(&segs);
    let interactions: u64 = outs.iter().map(|&(i, _, _)| i).sum();
    let comm_bytes: u64 = outs.iter().map(|&(_, b, _)| b).sum();
    let alerts_total = outs.iter().map(|&(_, _, a)| a).max().unwrap_or(0);
    let eff = efficiency(interactions as f64, cp.makespan_s, ranks);

    // Recovery counters from the chaos crash scenario (sharded
    // checkpoints + rollback, bitwise-checked against a clean run).
    let chaos_bodies = workloads::bodies_at_rest(&workloads::clustered(400, 3, 0.35, 123));
    let chaos_steps = 6;
    let recovery = chaos::run_scenario(
        "crash",
        &chaos_bodies,
        chaos_steps,
        greem_resil::FaultPlan::new(7).crash(2, chaos_steps as u64 / 2),
        true,
    );
    let wall_s = t0.elapsed().as_secs_f64();

    let per_step = 1.0 / steps as f64;
    let mut metrics = vec![
        MetricSpec::new(
            "interactions_per_step",
            interactions as f64 * per_step,
            0.05,
            true,
            Direction::Exact,
        ),
        MetricSpec::new(
            "comm_bytes_per_step",
            comm_bytes as f64 * per_step,
            0.10,
            true,
            Direction::Exact,
        ),
        MetricSpec::new(
            "step_vtime_s",
            cp.makespan_s * per_step,
            0.10,
            true,
            Direction::LowerIsBetter,
        ),
        MetricSpec::new(
            "critical_path_share",
            cp.share,
            0.10,
            true,
            Direction::HigherIsBetter,
        ),
        MetricSpec::new(
            "pct_of_peak",
            eff.pct_of_peak,
            0.10,
            true,
            Direction::HigherIsBetter,
        ),
        MetricSpec::new(
            "alerts_total_clean",
            alerts_total as f64,
            0.0,
            true,
            Direction::Exact,
        ),
    ];
    // Per-phase mean vtimes (the balancer's view, per step). Phases
    // with negligible cost are skipped — their relative noise is
    // meaningless.
    for p in &imbalance {
        if p.mean_s * per_step > 1e-9 {
            metrics.push(MetricSpec::new(
                format!("phase_vtime_s.{}", p.phase),
                p.mean_s * per_step,
                0.15,
                true,
                Direction::LowerIsBetter,
            ));
        }
    }
    if let Some(walk) = imbalance.iter().find(|p| p.phase == "pp.walk_force") {
        metrics.push(MetricSpec::new(
            "pp_imbalance_factor",
            walk.factor,
            0.20,
            true,
            Direction::LowerIsBetter,
        ));
    }
    metrics.push(MetricSpec::new(
        "recovery_rollbacks",
        recovery.stats.rollbacks as f64,
        0.0,
        true,
        Direction::Exact,
    ));
    metrics.push(MetricSpec::new(
        "recovery_crashes_detected",
        recovery.stats.crashes_detected as f64,
        0.0,
        true,
        Direction::Exact,
    ));
    metrics.push(MetricSpec::new(
        "recovery_bitwise_match",
        if recovery.final_matches_clean == Some(true) {
            1.0
        } else {
            0.0
        },
        0.0,
        true,
        Direction::Exact,
    ));
    metrics.push(MetricSpec::new(
        "wall_s",
        wall_s,
        0.5,
        false,
        Direction::LowerIsBetter,
    ));

    Measurement {
        shape: shape.clone(),
        wall_s,
        cp,
        imbalance,
        eff,
        alerts_total,
        interactions,
        comm_bytes,
        recovery,
        metrics,
    }
}

/// The machine-readable measurement summary (tagged `"bench"`, not
/// `"experiment"`), left open for the gate's verdict.
fn report_json(m: &Measurement) -> JsonWriter {
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.str_(Some("bench"), m.shape.name);
    w.u64(Some("n_particles"), m.shape.n as u64);
    w.u64(Some("ranks"), m.shape.ranks as u64);
    w.u64(Some("steps"), m.shape.steps as u64);
    w.str_(
        Some("pp_kernel_variant"),
        greem_kernels::selected_variant().name(),
    );
    w.f64(Some("wall_s"), m.wall_s);
    w.begin_obj(Some("critical_path"));
    w.f64(Some("makespan_s"), m.cp.makespan_s);
    w.f64(Some("share"), m.cp.share);
    w.u64(Some("critical_rank"), m.cp.critical_rank as u64);
    w.f64(Some("busy_s"), m.cp.busy_s);
    w.f64(Some("wait_s"), m.cp.wait_s);
    w.begin_arr(Some("phases"));
    for p in &m.cp.phases {
        w.begin_obj(None);
        w.str_(Some("phase"), p.phase);
        w.f64(Some("on_path_s"), p.on_path_s);
        w.f64(Some("mean_s"), p.mean_s);
        w.f64(Some("slack_s"), p.slack_s);
        w.f64(Some("comm_s"), p.comm_s);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.begin_arr(Some("imbalance"));
    for p in &m.imbalance {
        w.begin_obj(None);
        w.str_(Some("phase"), p.phase);
        w.f64(Some("factor"), p.factor);
        w.f64(Some("max_s"), p.max_s);
        w.f64(Some("mean_s"), p.mean_s);
        w.end_obj();
    }
    w.end_arr();
    w.begin_obj(Some("efficiency"));
    w.f64(Some("gflops"), m.eff.gflops);
    w.f64(Some("pct_of_peak"), m.eff.pct_of_peak);
    w.f64(Some("pct_of_kernel_bound"), m.eff.pct_of_kernel_bound);
    w.f64(Some("model_pct_of_peak"), m.eff.model_pct_of_peak);
    w.f64(Some("ratio_to_model"), m.eff.ratio_to_model);
    w.end_obj();
    w.u64(Some("interactions"), m.interactions);
    w.u64(Some("comm_bytes"), m.comm_bytes);
    w.u64(Some("alerts_total"), m.alerts_total);
    w.begin_obj(Some("recovery"));
    w.u64(Some("rollbacks"), m.recovery.stats.rollbacks);
    w.u64(Some("crashes_detected"), m.recovery.stats.crashes_detected);
    w.u64(
        Some("checkpoints_written"),
        m.recovery.stats.checkpoints_written,
    );
    w.bool_(
        Some("bitwise_match"),
        m.recovery.final_matches_clean == Some(true),
    );
    w.end_obj();
    w
}

/// The human-readable report.
fn report_text(m: &Measurement) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "regress: {} — {} bodies, {} ranks, {} steps ({} kernel)\n",
        m.shape.name,
        m.shape.n,
        m.shape.ranks,
        m.shape.steps,
        greem_kernels::selected_variant().name(),
    ));
    out.push_str(&format!(
        "  critical path: rank {} carries {:.1} % of the {:.3} ms makespan\n",
        m.cp.critical_rank,
        m.cp.share * 100.0,
        m.cp.makespan_s * 1e3
    ));
    for p in m.cp.phases.iter().take(4) {
        out.push_str(&format!(
            "    {:<24} on-path {:8.3} ms  mean {:8.3} ms  slack {:8.3} ms\n",
            p.phase,
            p.on_path_s * 1e3,
            p.mean_s * 1e3,
            p.slack_s * 1e3
        ));
    }
    out.push_str("  imbalance factors (max/mean):\n");
    for p in m.imbalance.iter().take(4) {
        out.push_str(&format!("    {:<24} {:.3}\n", p.phase, p.factor));
    }
    out.push_str(&format!(
        "  efficiency: {:.2} Gflops = {:.1} % of peak ({:.1} % of kernel bound)\n",
        m.eff.gflops,
        m.eff.pct_of_peak * 100.0,
        m.eff.pct_of_kernel_bound * 100.0
    ));
    out.push_str(&format!(
        "  clean-run alerts: {}   recovery: {} rollback(s), bitwise {}\n",
        m.alerts_total,
        m.recovery.stats.rollbacks,
        m.recovery.final_matches_clean == Some(true)
    ));
    out
}

/// Both renderings of a measurement plus its gate spec
/// (`baselines/regress_{small,full}.json`; a baseline is required).
pub fn outcome(m: &Measurement) -> Outcome {
    Outcome::new(report_text(m), report_json(m)).gated(GateSpec {
        bench: m.shape.name.to_string(),
        metrics: m.metrics.clone(),
        hard_failures: Vec::new(),
        baseline_required: true,
    })
}

/// `harness regress`: measure the `small` or the full shape.
pub fn run(small: bool) -> Outcome {
    let shape = if small {
        RegressShape::small()
    } else {
        RegressShape::full()
    };
    eprintln!(
        "regress: measuring {} ({} bodies, {} ranks, {} steps)…",
        shape.name, shape.n, shape.ranks, shape.steps
    );
    outcome(&measure(&shape))
}
