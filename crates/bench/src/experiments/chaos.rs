//! **Resilience** — chaos experiment: drive the fault-tolerant step
//! driver (`greem-resil`) through crash / straggler / flaky-network
//! scenarios on the simulated machine and report what recovery cost.
//!
//! Each scenario runs the real multi-rank TreePM driver under a seeded
//! [`FaultPlan`]; the crash scenario additionally proves end-to-end
//! correctness by comparing the recovered final state bitwise against
//! an uninterrupted run of the same seed (possible because balancer
//! feedback uses the modelled PP cost, not wall clock).

use greem::{Body, ParallelTreePm, SimulationMode, TreePmConfig};
use greem_resil::{aggregate, FaultPlan, RecoveryStats, ResilConfig, ResilientSim};
use mpisim::{NetModel, World};

use crate::workloads;

/// One scenario's outcome.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    pub scenario: &'static str,
    pub steps: usize,
    /// World-aggregated recovery counters.
    pub stats: RecoveryStats,
    /// Max final virtual time across ranks (seconds).
    pub vtime: f64,
    /// `Some(true)` when the scenario also ran an uninterrupted
    /// reference and the recovered state matched it bitwise.
    pub final_matches_clean: Option<bool>,
    /// Post-mortem flight-recorder bundles the scenario dumped (paths,
    /// one per crashed-rank detection; empty when the recorder was off
    /// or nothing crashed). The files are left on disk for inspection.
    pub flight_bundles: Vec<String>,
}

const RANKS: usize = 4;
const DIV: [usize; 3] = [2, 2, 1];

fn cfg() -> TreePmConfig {
    TreePmConfig {
        modeled_pp_cost: Some(5e-9),
        ..TreePmConfig::standard(16)
    }
}

fn chaos_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("greem_chaos_{tag}_{}", std::process::id()))
}

/// Uninterrupted reference trajectory (no faults, plain step loop).
fn clean_run(bodies: &[Body], steps: usize) -> Vec<Body> {
    let bodies = bodies.to_vec();
    let cfg = cfg();
    let out = World::new(RANKS)
        .with_net(NetModel::free())
        .run(move |ctx, world| {
            let root = (world.rank() == 0).then(|| bodies.clone());
            let mut sim =
                ParallelTreePm::new(ctx, world, cfg, DIV, 2, None, root, SimulationMode::Static);
            for _ in 0..steps {
                sim.step(ctx, world, 1e-3);
            }
            sim.gather_bodies(ctx, world)
        });
    out[0].clone().expect("root gathers")
}

/// Run one fault scenario through the resilient driver.
pub fn run_scenario(
    scenario: &'static str,
    bodies: &[Body],
    steps: usize,
    plan: FaultPlan,
    check_bitwise: bool,
) -> ChaosOutcome {
    run_scenario_with_flight(scenario, bodies, steps, plan, check_bitwise, None)
}

/// Like [`run_scenario`], with the per-rank flight recorder armed:
/// crash detections dump post-mortem bundles into `flight_dir`, which
/// are listed (and left on disk) in the outcome.
pub fn run_scenario_with_flight(
    scenario: &'static str,
    bodies: &[Body],
    steps: usize,
    plan: FaultPlan,
    check_bitwise: bool,
    flight_dir: Option<&std::path::Path>,
) -> ChaosOutcome {
    let reference = check_bitwise.then(|| clean_run(bodies, steps));
    let dir = chaos_dir(scenario);
    std::fs::remove_dir_all(&dir).ok();
    if let Some(fd) = flight_dir {
        // Fresh bundle dir per scenario, so the listing below is this
        // run's dumps and nothing stale.
        std::fs::remove_dir_all(fd).ok();
    }
    let dts = vec![1e-3; steps];
    let cfg = cfg();
    let out = {
        let bodies = bodies.to_vec();
        let dir = dir.clone();
        let flight = flight_dir.map(|d| d.to_path_buf());
        World::new(RANKS)
            .with_net(NetModel::free())
            .with_faults(plan)
            .run(move |ctx, world| {
                let root = (world.rank() == 0).then(|| bodies.clone());
                let sim = ParallelTreePm::new(
                    ctx,
                    world,
                    cfg,
                    DIV,
                    2,
                    None,
                    root,
                    SimulationMode::Static,
                );
                let mut rc = ResilConfig::new(&dir);
                rc.every = 3;
                if let Some(fd) = &flight {
                    rc = rc.with_flight(fd);
                }
                let mut resil =
                    ResilientSim::new(ctx, world, sim, rc).expect("checkpoint dir writable");
                let stats = resil.run(ctx, world, &dts).expect("recovery converges");
                let gathered = resil.sim().gather_bodies(ctx, world);
                (stats, ctx.vtime(), gathered)
            })
    };
    std::fs::remove_dir_all(&dir).ok();
    let per_rank: Vec<RecoveryStats> = out.iter().map(|(s, _, _)| *s).collect();
    let vtime = out.iter().map(|&(_, v, _)| v).fold(0.0, f64::max);
    let final_matches_clean =
        reference.map(|want| out[0].2.as_deref().expect("root gathers") == &want[..]);
    let mut flight_bundles = Vec::new();
    if let Some(fd) = flight_dir {
        if let Ok(entries) = std::fs::read_dir(fd) {
            for e in entries.flatten() {
                let p = e.path();
                if p.extension().is_some_and(|x| x == "json") {
                    flight_bundles.push(p.display().to_string());
                }
            }
        }
        flight_bundles.sort();
    }
    ChaosOutcome {
        scenario,
        steps,
        stats: aggregate(&per_rank),
        vtime,
        final_matches_clean,
        flight_bundles,
    }
}

/// The scenario suite at a given particle count. Scenarios that crash
/// run with the flight recorder armed; their post-mortem bundles land
/// under `greem_chaos_flight_*` in the temp dir and stay on disk (the
/// `--json` summary lists the paths).
pub fn run_suite(n: usize, steps: usize) -> Vec<ChaosOutcome> {
    let pos = workloads::clustered(n, 3, 0.35, 123);
    let bodies = workloads::bodies_at_rest(&pos);
    let mid = (steps / 2) as u64;
    vec![
        run_scenario_with_flight(
            "crash",
            &bodies,
            steps,
            FaultPlan::new(7).crash(2, mid),
            true,
            Some(&chaos_dir("flight_crash")),
        ),
        run_scenario(
            "straggler",
            &bodies,
            steps,
            FaultPlan::new(7).straggler(1, 4.0),
            false,
        ),
        run_scenario(
            "flaky-net",
            &bodies,
            steps,
            FaultPlan::new(7)
                .drop_messages(0.05)
                .delay_messages(0.1, 2e-5),
            false,
        ),
        run_scenario_with_flight(
            "chaos",
            &bodies,
            steps,
            FaultPlan::new(7)
                .crash(2, mid)
                .straggler(1, 2.0)
                .drop_messages(0.02)
                .delay_messages(0.05, 2e-5),
            false,
            Some(&chaos_dir("flight_chaos")),
        ),
    ]
}

/// Publish a scenario's counters into a metrics registry (the same
/// `resil_*` names the driver publishes at runtime).
#[cfg(feature = "obs")]
pub fn publish(outcome: &ChaosOutcome, reg: &mut greem_obs::Registry) {
    use greem_obs::Observe;
    reg.with_label("scenario", outcome.scenario, |reg| {
        outcome.stats.observe(reg);
    });
}

/// The scenario suite on 400 bodies × 6 steps (`small`) or 2000 × 10,
/// as text and JSON.
pub fn run(small: bool) -> super::Outcome {
    let (n, steps) = if small { (400, 6) } else { (2000, 10) };
    let outcomes = run_suite(n, steps);
    let mut s = format!(
        "=== chaos: fault injection + rollback recovery ==================\n\n\
         {n} bodies, {RANKS} ranks on the simulated torus, {steps} steps; sharded\n\
         checkpoints every 3 steps; seeded FaultPlan per scenario.\n\n\
         scenario    crashes  rollbacks  ckpts  lost vt(s)  dropped  delayed  flight  bitwise\n",
    );
    let mut w = super::summary_writer("chaos", small);
    w.u64(Some("n"), n as u64);
    w.u64(Some("ranks"), RANKS as u64);
    w.u64(Some("steps"), steps as u64);
    w.begin_arr(Some("scenarios"));
    for o in &outcomes {
        s.push_str(&format!(
            "{:<11} {:>7} {:>10} {:>6} {:>11.4} {:>8} {:>8} {:>7}  {}\n",
            o.scenario,
            o.stats.crashes_detected,
            o.stats.rollbacks,
            o.stats.checkpoints_written,
            o.stats.lost_vtime,
            o.stats.dropped_messages,
            o.stats.delayed_messages,
            o.flight_bundles.len(),
            match o.final_matches_clean {
                Some(true) => "MATCH",
                Some(false) => "DIVERGED",
                None => "-",
            },
        ));
        w.begin_obj(None);
        w.str_(Some("scenario"), o.scenario);
        w.u64(Some("crashes_detected"), o.stats.crashes_detected);
        w.u64(Some("rollbacks"), o.stats.rollbacks);
        w.u64(Some("checkpoints_written"), o.stats.checkpoints_written);
        w.u64(Some("checkpoint_bytes"), o.stats.checkpoint_bytes);
        w.u64(Some("recovered_bytes"), o.stats.recovered_bytes);
        w.f64(Some("lost_vtime_s"), o.stats.lost_vtime);
        w.u64(Some("messages_dropped"), o.stats.dropped_messages);
        w.u64(Some("messages_retried"), o.stats.retried_messages);
        w.u64(Some("messages_delayed"), o.stats.delayed_messages);
        w.f64(Some("vtime_s"), o.vtime);
        if let Some(m) = o.final_matches_clean {
            w.bool_(Some("bitwise_match"), m);
        }
        w.u64(Some("flight_dumps"), o.flight_bundles.len() as u64);
        w.begin_arr(Some("flight_bundles"));
        for b in &o.flight_bundles {
            w.str_(None, b);
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    s.push_str(
        "\n(crash scenario replays against an uninterrupted run: MATCH means\n\
         the recovered final particle state is bitwise identical. 'flight'\n\
         counts the post-mortem flight-recorder bundles dumped on crash\n\
         detection — see DESIGN.md §18.)\n",
    );
    for o in &outcomes {
        if let Some(b) = o.flight_bundles.first() {
            s.push_str(&format!("  {} flight bundle: {b}\n", o.scenario));
        }
    }
    #[cfg(feature = "obs")]
    {
        let mut reg = greem_obs::Registry::new();
        for o in &outcomes {
            publish(o, &mut reg);
        }
        reg.write_json(&mut w, Some("metrics"));
    }
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_scenario_recovers_bitwise() {
        let pos = workloads::clustered(300, 3, 0.35, 9);
        let bodies = workloads::bodies_at_rest(&pos);
        let o = run_scenario("crash", &bodies, 6, FaultPlan::new(3).crash(1, 3), true);
        assert_eq!(o.stats.rollbacks, 1);
        assert_eq!(o.final_matches_clean, Some(true));
        assert!(o.flight_bundles.is_empty(), "recorder off by default");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn crash_scenario_dumps_flight_bundles() {
        let pos = workloads::clustered(250, 3, 0.35, 11);
        let bodies = workloads::bodies_at_rest(&pos);
        let fd = chaos_dir("flight_test");
        // Its own scenario tag: the tag names the checkpoint directory,
        // and the test above runs "crash" in this process concurrently.
        let o = run_scenario_with_flight(
            "crash_flight",
            &bodies,
            6,
            FaultPlan::new(3).crash(1, 3),
            false,
            Some(&fd),
        );
        assert_eq!(
            o.flight_bundles.len(),
            RANKS,
            "every rank dumps one post-mortem bundle: {:?}",
            o.flight_bundles
        );
        let src = std::fs::read_to_string(&o.flight_bundles[0]).unwrap();
        let v = greem_obs::json::parse(&src).expect("bundle parses");
        assert_eq!(
            v.get("bundle").and_then(|x| x.as_str()),
            Some("flight-recorder")
        );
        std::fs::remove_dir_all(&fd).ok();
    }
}
