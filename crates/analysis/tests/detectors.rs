//! The headline detector proofs: the online [`Monitor`] fires on
//! FaultPlan-injected stragglers and flaky links, and publishes zero
//! `analysis_alerts_total` on a clean balanced run. Also exercises the
//! offline analyses over a real captured multi-rank trace and the
//! `ResilientSim::run_with` integration.

use greem::{Body, ParallelTreePm, SimulationMode, TreePmConfig};
use greem_analysis::{
    critical_path, efficiency, leaf_segments, phase_imbalance, DetectorKind, Monitor,
};
use greem_math::testutil::rand_positions;
use mpisim::{FaultPlan, NetModel, World};

const RANKS: usize = 4;
const DIV: [usize; 3] = [2, 2, 1];
const STEPS: usize = 8;

fn cfg() -> TreePmConfig {
    TreePmConfig {
        // Modeled PP cost: balancer feedback and detector signals run
        // on the virtual clock, deterministically.
        modeled_pp_cost: Some(5e-9),
        ..TreePmConfig::standard(16)
    }
}

fn bodies(n: usize, seed: u64) -> Vec<Body> {
    let m = 1.0 / n as f64;
    rand_positions(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, p)| Body::at_rest(p, m, i as u64))
        .collect()
}

/// Run `steps` monitored steps under `plan`; returns each rank's
/// monitor (they agree — the signals are allgathered).
fn monitored_run(n: usize, steps: usize, plan: Option<FaultPlan>) -> Vec<Monitor> {
    let bodies = bodies(n, 42);
    let cfg = cfg();
    let mut world = World::new(RANKS).with_net(NetModel::free());
    if let Some(plan) = plan {
        world = world.with_faults(plan);
    }
    world.run(move |ctx, comm| {
        let root = (comm.rank() == 0).then(|| bodies.clone());
        let mut sim =
            ParallelTreePm::new(ctx, comm, cfg, DIV, 2, None, root, SimulationMode::Static);
        let mut mon = Monitor::new();
        for _ in 0..steps {
            let st = sim.step(ctx, comm, 1e-3);
            mon.observe_step(ctx, comm, &sim, &st);
        }
        mon
    })
}

#[test]
fn clean_run_publishes_zero_alerts() {
    let monitors = monitored_run(1200, STEPS, None);
    for m in &monitors {
        assert_eq!(
            m.alert_total(),
            0,
            "clean balanced run must stay silent, got {:?}",
            m.alerts()
        );
    }
    // The registry carries the zero explicitly.
    let mut reg = greem_obs::Registry::new();
    monitors[0].publish(&mut reg);
    for kind in DetectorKind::ALL {
        let key = format!("analysis_alerts_total{{detector={}}}", kind.name());
        assert_eq!(reg.value(&key), Some(0.0), "missing zero for {key}");
    }
    assert_eq!(reg.value("analysis_steps_observed"), Some(STEPS as f64));
}

#[test]
fn injected_straggler_fires_the_straggler_detector() {
    // 4× slowdown on rank 1 — the same scenario the chaos suite runs.
    let monitors = monitored_run(1200, STEPS, Some(FaultPlan::new(7).straggler(1, 4.0)));
    let m = &monitors[0];
    assert!(
        m.count(DetectorKind::Straggler) >= 1,
        "straggler must fire, alerts: {:?}",
        m.alerts()
    );
    let alert = m
        .alerts()
        .iter()
        .find(|a| a.kind == DetectorKind::Straggler)
        .unwrap();
    assert_eq!(alert.rank, Some(1), "detector must name the slow rank");
    assert!(alert.value > alert.threshold);
    // Every rank reached the same verdicts.
    for other in &monitors[1..] {
        assert_eq!(other.alert_total(), m.alert_total());
    }
}

#[test]
fn flaky_links_fire_the_comm_fault_detector() {
    let plan = FaultPlan::new(7)
        .drop_messages(0.05)
        .delay_messages(0.1, 2e-5);
    let monitors = monitored_run(1200, STEPS, Some(plan));
    let m = &monitors[0];
    assert!(
        m.count(DetectorKind::CommFault) >= 1,
        "injected drops/delays must fire, alerts: {:?}",
        m.alerts()
    );
}

#[test]
fn monitor_rides_resilient_sim_through_a_crash() {
    let bodies = bodies(800, 9);
    let cfg = cfg();
    let dir = std::env::temp_dir().join(format!("greem_analysis_ckpt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let steps = 6usize;
    let dts = vec![1e-3; steps];
    let out = {
        let dir = dir.clone();
        World::new(RANKS)
            .with_net(NetModel::free())
            .with_faults(FaultPlan::new(3).crash(1, 3))
            .run(move |ctx, comm| {
                let root = (comm.rank() == 0).then(|| bodies.clone());
                let sim =
                    ParallelTreePm::new(ctx, comm, cfg, DIV, 2, None, root, SimulationMode::Static);
                let rc = greem_resil::ResilConfig::new(&dir);
                let mut resil = greem_resil::ResilientSim::new(ctx, comm, sim, rc)
                    .expect("checkpoint dir writable");
                let mut mon = Monitor::new();
                let stats = resil
                    .run_with(ctx, comm, &dts, |ctx, comm, sim, st| {
                        mon.observe_step(ctx, comm, sim, st);
                    })
                    .expect("recovery converges");
                (stats, mon)
            })
    };
    std::fs::remove_dir_all(&dir).ok();
    let (stats, mon) = &out[0];
    assert_eq!(stats.rollbacks, 1, "the crash must have forced a rollback");
    // The hook sees completed steps plus re-executed ones after the
    // rollback — at least `steps` observations, more with the replay.
    assert!(mon.steps_seen() >= steps as u64);
    for (other_stats, other_mon) in &out[1..] {
        assert_eq!(other_stats.rollbacks, stats.rollbacks);
        assert_eq!(other_mon.steps_seen(), mon.steps_seen());
    }
}

#[test]
fn offline_analyses_work_on_a_real_captured_trace() {
    let bodies = bodies(1200, 42);
    let cfg = cfg();
    let (outs, events) = greem_obs::trace::capture(|| {
        World::new(RANKS)
            .with_net(NetModel::k_computer())
            .run(move |ctx, comm| {
                let root = (comm.rank() == 0).then(|| bodies.clone());
                let mut sim =
                    ParallelTreePm::new(ctx, comm, cfg, DIV, 2, None, root, SimulationMode::Static);
                let mut interactions = 0u64;
                for _ in 0..3 {
                    let st = sim.step(ctx, comm, 1e-3);
                    interactions += st.breakdown.interactions();
                }
                (interactions, ctx.vtime())
            })
    });
    let segs = leaf_segments(&events);
    assert!(!segs.is_empty(), "instrumented run must yield segments");

    let cp = critical_path(&segs);
    assert_eq!(cp.ranks, RANKS);
    assert!(cp.makespan_s > 0.0);
    assert!(cp.share > 0.0 && cp.share <= 1.0 + 1e-12);
    assert!(
        cp.phases.iter().any(|p| p.phase == "pp.walk_force"),
        "walk phase must appear on the path: {:?}",
        cp.phases.iter().map(|p| p.phase).collect::<Vec<_>>()
    );

    let imb = phase_imbalance(&segs);
    assert!(!imb.is_empty());
    for p in &imb {
        assert!(p.factor >= 1.0 - 1e-12, "{}: factor {}", p.phase, p.factor);
    }

    let total_interactions: u64 = outs.iter().map(|&(i, _)| i).sum();
    let eff = efficiency(total_interactions as f64, cp.makespan_s, RANKS);
    assert!(eff.gflops > 0.0);
    assert!(eff.pct_of_peak > 0.0 && eff.pct_of_peak < 1.0);
}
