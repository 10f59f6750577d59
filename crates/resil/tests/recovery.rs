//! End-to-end recovery proofs for the resilient step driver.
//!
//! The headline test crashes a rank mid-run and demands the recovered
//! trajectory be **bitwise identical** to an uninterrupted run of the
//! same seed — possible because the balancer feedback runs on modelled
//! PP cost, so physics never observes wall-clock noise.

use std::path::PathBuf;

use greem::{
    Body, ParallelTreePm, ParticleStore, ResidentPp, SimulationMode, TreePm, TreePmConfig,
};
use greem_math::Vec3;
use greem_resil::recover::MAX_ROLLBACKS;
use greem_resil::{FaultPlan, RecoveryStats, ResilConfig, ResilError, ResilientSim};
use mpisim::{NetModel, World};

fn rand_bodies(n: usize, seed: u64) -> Vec<Body> {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| Body {
            pos: Vec3::new(next(), next(), next()),
            vel: Vec3::new(next() - 0.5, next() - 0.5, next() - 0.5) * 1e-3,
            mass: 1.0 / n as f64,
            id: i as u64,
        })
        .collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("greem_resil_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn modeled_cfg() -> TreePmConfig {
    TreePmConfig {
        modeled_pp_cost: Some(5e-9),
        ..TreePmConfig::standard(16)
    }
}

/// A rank crashes at step 5 of 8; the driver detects it, rolls back to
/// the step-3 checkpoint, re-executes, and finishes with final particle
/// state bitwise identical to a run that never crashed.
#[test]
fn crash_recovery_matches_uninterrupted_run_bitwise() {
    let n = 160;
    let bodies = rand_bodies(n, 42);
    let cfg = modeled_cfg();
    let dts = [1e-3; 8];

    // Uninterrupted reference: plain step loop, no faults, no driver.
    let clean = World::new(4).with_net(NetModel::free()).run(|ctx, world| {
        let root_bodies = (world.rank() == 0).then(|| bodies.clone());
        let mut sim = ParallelTreePm::new(
            ctx,
            world,
            cfg,
            [2, 2, 1],
            2,
            None,
            root_bodies,
            SimulationMode::Static,
        );
        for &dt in &dts {
            sim.step(ctx, world, dt);
        }
        sim.gather_bodies(ctx, world)
    });
    let clean = clean[0].clone().expect("root gathers");

    let dir = tmpdir("recovery");
    let plan = FaultPlan::new(7).crash(2, 5);
    let out = World::new(4)
        .with_net(NetModel::free())
        .with_faults(plan)
        .run({
            let dir = dir.clone();
            let bodies = bodies.clone();
            move |ctx, world| {
                let root_bodies = (world.rank() == 0).then(|| bodies.clone());
                let sim = ParallelTreePm::new(
                    ctx,
                    world,
                    cfg,
                    [2, 2, 1],
                    2,
                    None,
                    root_bodies,
                    SimulationMode::Static,
                );
                let mut cfg = ResilConfig::new(&dir);
                cfg.every = 3;
                let mut resil = ResilientSim::new(ctx, world, sim, cfg).unwrap();
                let stats = resil.run(ctx, world, &dts).unwrap();
                (stats, resil.sim().gather_bodies(ctx, world))
            }
        });

    let (stats, recovered) = out[0].clone();
    let recovered = recovered.expect("root gathers");
    assert_eq!(stats.crashes_detected, 1, "crash surfaced to the driver");
    assert_eq!(stats.rollbacks, 1, "one rollback-restart");
    // gen 0 at construction + after steps 3 and 6 (step 8 isn't a
    // multiple of every=3... 3 and 6 are; 8 is not).
    assert!(stats.checkpoints_written >= 3, "{stats:?}");
    assert!(stats.checkpoint_bytes > 0 && stats.recovered_bytes > 0);
    assert!(stats.lost_vtime > 0.0, "rollback discarded virtual time");

    assert_eq!(recovered.len(), clean.len());
    assert_eq!(recovered, clean, "recovered trajectory diverged");

    // Every rank reports the same collective counters.
    for (s, _) in &out {
        assert_eq!(s.rollbacks, stats.rollbacks);
        assert_eq!(s.checkpoint_bytes, stats.checkpoint_bytes);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One rank owns the whole box and replays recorded lists, and a
/// replay's forces differ in their last bits from the fresh walk a
/// restore starts with. A checkpoint there is a synchronisation point
/// that recomputes the forces as a restore will, so a crash at step 5
/// recovers from the step-3 checkpoint to exactly the run that never
/// crashed.
#[test]
fn one_rank_crash_recovery_matches_uninterrupted_run_bitwise() {
    // Ten times the other tests' speed: enough motion over the three
    // steps before a checkpoint for replayed and walked forces to part.
    let mut bodies = rand_bodies(2000, 42);
    for b in &mut bodies {
        b.vel *= 10.0;
    }
    let cfg = TreePmConfig::standard(16);
    let dts = [1e-3; 8];

    // The premise: on this input, three steps' drift after a recording,
    // a replay and a fresh walk at the same positions differ in bits.
    let mut store = ParticleStore::from_bodies(&bodies);
    let mut engine = ResidentPp::new();
    engine.pass(&cfg, &mut store, None, 0.0);
    store.drift_wrap(3.0 * dts[0]);
    let (replayed, bd) = engine.pass(&cfg, &mut store, None, 0.0);
    assert_eq!(bd.pp_list_replays, 1);
    let (fresh, _) = TreePm::new(cfg).compute_pp(&store.positions(), &store.masses());
    assert_ne!(replayed, fresh, "a replay must differ from a walk in bits");

    let run = |tag: &str, plan: Option<FaultPlan>| -> (RecoveryStats, Vec<Body>) {
        let dir = tmpdir(tag);
        let world = World::new(1).with_net(NetModel::free());
        let world = match plan {
            Some(plan) => world.with_faults(plan),
            None => world,
        };
        let mut out = world.run(|ctx, world| {
            let root = Some(bodies.clone());
            let mode = SimulationMode::Static;
            let sim = ParallelTreePm::new(ctx, world, cfg, [1, 1, 1], 1, None, root, mode);
            let mut rcfg = ResilConfig::new(&dir);
            rcfg.every = 3;
            let mut resil = ResilientSim::new(ctx, world, sim, rcfg).unwrap();
            let stats = resil.run(ctx, world, &dts).unwrap();
            (stats, resil.sim().gather_bodies(ctx, world).unwrap())
        });
        std::fs::remove_dir_all(&dir).ok();
        out.remove(0)
    };
    let (clean_stats, clean) = run("one_rank_clean", None);
    let (stats, recovered) = run("one_rank_crash", Some(FaultPlan::new(7).crash(0, 5)));
    assert_eq!((clean_stats.rollbacks, stats.rollbacks), (0, 1));
    assert_eq!(recovered.len(), bodies.len());
    assert!(recovered == clean, "recovered trajectory diverged");
}

/// Two crashes on different ranks at different steps both recover.
#[test]
fn survives_repeated_crashes() {
    let n = 96;
    let bodies = rand_bodies(n, 9);
    let cfg = modeled_cfg();
    let dts = [1e-3; 7];
    let dir = tmpdir("repeated");
    let plan = FaultPlan::new(11).crash(1, 2).crash(3, 5);
    let out = World::new(4)
        .with_net(NetModel::free())
        .with_faults(plan)
        .run({
            let dir = dir.clone();
            move |ctx, world| {
                let root_bodies = (world.rank() == 0).then(|| bodies.clone());
                let sim = ParallelTreePm::new(
                    ctx,
                    world,
                    cfg,
                    [2, 2, 1],
                    2,
                    None,
                    root_bodies,
                    SimulationMode::Static,
                );
                let mut rc = ResilConfig::new(&dir);
                rc.every = 2;
                let mut resil = ResilientSim::new(ctx, world, sim, rc).unwrap();
                let stats = resil.run(ctx, world, &dts).unwrap();
                (resil.sim().steps_taken(), stats)
            }
        });
    let (steps, stats) = out[0];
    assert_eq!(steps, 7, "run completed despite two crashes");
    assert_eq!(stats.crashes_detected, 2);
    assert_eq!(stats.rollbacks, 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery gives up: `MAX_ROLLBACKS + 1` one-shot crashes scheduled at
/// the same step fire one per re-execution, and the driver ends the run
/// with `TooManyRollbacks` on every rank instead of rolling back forever.
#[test]
fn gives_up_after_max_rollbacks() {
    let bodies = rand_bodies(96, 5);
    let cfg = modeled_cfg();
    let dir = tmpdir("give_up");
    let plan = (0..=MAX_ROLLBACKS).fold(FaultPlan::new(3), |p, _| p.crash(0, 1));
    let out = World::new(4)
        .with_net(NetModel::free())
        .with_faults(plan)
        .run({
            let dir = dir.clone();
            move |ctx, world| {
                let root_bodies = (world.rank() == 0).then(|| bodies.clone());
                let sim = ParallelTreePm::new(
                    ctx,
                    world,
                    cfg,
                    [2, 2, 1],
                    2,
                    None,
                    root_bodies,
                    SimulationMode::Static,
                );
                let mut resil = ResilientSim::new(ctx, world, sim, ResilConfig::new(&dir)).unwrap();
                let err = resil.run(ctx, world, &[1e-3; 3]).unwrap_err();
                (err, resil.stats())
            }
        });
    for (err, stats) in &out {
        assert!(
            matches!(
                err,
                ResilError::TooManyRollbacks {
                    limit: MAX_ROLLBACKS
                }
            ),
            "{err}"
        );
        assert_eq!(stats.crashes_detected, MAX_ROLLBACKS as u64 + 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: a 4× straggler on one rank must push the sampling
/// balancer to shrink that rank's domain slab within the 5-step
/// moving-average window.
#[test]
fn balancer_shifts_boundary_away_from_straggler() {
    // Enough particles that the balancer's per-rank sample budget
    // (cost share × 512) is never clamped by the local particle count —
    // otherwise every rank submits the same number of samples and the
    // cost signal is erased.
    let n = 2048;
    let bodies = rand_bodies(n, 3);
    let cfg = modeled_cfg();
    let straggler = 1usize;

    let width_after = |plan: Option<FaultPlan>| -> f64 {
        let bodies = bodies.clone();
        let mut w = World::new(4).with_net(NetModel::free());
        if let Some(p) = plan {
            w = w.with_faults(p);
        }
        let out = w.run(move |ctx, world| {
            let root_bodies = (world.rank() == 0).then(|| bodies.clone());
            let mut sim = ParallelTreePm::new(
                ctx,
                world,
                cfg,
                [4, 1, 1],
                2,
                None,
                root_bodies,
                SimulationMode::Static,
            );
            for (k, dt) in [1e-3; 10].iter().enumerate() {
                ctx.set_fault_step(k as u64);
                sim.step(ctx, world, *dt);
            }
            let dom = sim.my_domain(world);
            dom.hi.x - dom.lo.x
        });
        out[straggler]
    };

    let fair = width_after(None);
    let squeezed = width_after(Some(FaultPlan::new(5).straggler(straggler, 4.0)));
    assert!(
        squeezed < fair * 0.8,
        "straggler slab should shrink: fair={fair:.4} squeezed={squeezed:.4}"
    );
}

/// The checkpoint shard round-trips the SoA particle store bitwise:
/// after a few steps the Morton sort has physically permuted the
/// store's columns, so each rank's [`RankState`] carries bodies in
/// store-row order. That order and every f64 bit must survive
/// `write_shard` → `read_shard`, and a sim restored from the decoded
/// shard must continue bit-identically to the uninterrupted original.
#[test]
fn checkpoint_roundtrips_soa_store_bitwise() {
    use greem_resil::{read_shard, write_shard};

    fn bits(v: Vec3) -> [u64; 3] {
        [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
    }

    let bodies = rand_bodies(120, 77);
    let cfg = modeled_cfg();
    let dir = tmpdir("soa_roundtrip");

    let out = World::new(4).with_net(NetModel::free()).run({
        let dir = dir.clone();
        let bodies = bodies.clone();
        move |ctx, world| {
            let root_bodies = (world.rank() == 0).then(|| bodies.clone());
            let mut sim = ParallelTreePm::new(
                ctx,
                world,
                cfg,
                [2, 2, 1],
                2,
                None,
                root_bodies,
                SimulationMode::Static,
            );
            for _ in 0..3 {
                sim.step(ctx, world, 1e-3);
            }
            let saved = sim.rank_state();
            write_shard(&dir, 1, world.size(), world.rank(), &saved).unwrap();
            let loaded = read_shard(&dir, 1, world.size(), world.rank(), None).unwrap();
            let bit_equal = loaded.step == saved.step
                && loaded.bodies.len() == saved.bodies.len()
                && loaded.bodies.iter().zip(&saved.bodies).all(|(a, b)| {
                    a.id == b.id
                        && a.mass.to_bits() == b.mass.to_bits()
                        && bits(a.pos) == bits(b.pos)
                        && bits(a.vel) == bits(b.vel)
                });

            // Continue the original one step, then rewind to the
            // decoded shard and re-run that step.
            sim.step(ctx, world, 1e-3);
            let cont = sim.gather_bodies(ctx, world);
            sim.restore_rank_state(ctx, world, loaded);
            sim.step(ctx, world, 1e-3);
            let replay = sim.gather_bodies(ctx, world);
            (bit_equal, cont, replay)
        }
    });

    for (rank, (bit_equal, _, _)) in out.iter().enumerate() {
        assert!(bit_equal, "rank {rank}: shard mangled the SoA row order");
    }
    let cont = out[0].1.clone().expect("root gathers");
    let replay = out[0].2.clone().expect("root gathers");
    assert_eq!(cont, replay, "restored-from-shard step diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash with the flight recorder armed leaves a post-mortem bundle
/// per rank: recent metric lines, the crash verdict, a recovery-counter
/// snapshot, and (tracing was on) the rank's recent spans.
#[test]
fn crash_dumps_flight_recorder_bundles() {
    let bodies = rand_bodies(96, 13);
    let cfg = modeled_cfg();
    let dts = [1e-3; 8];
    let ckpt = tmpdir("flight_ckpt");
    let flight = tmpdir("flight_dump");
    let plan = FaultPlan::new(7).crash(2, 5);

    let (out, _events) = greem_obs::trace::capture(|| {
        World::new(4)
            .with_net(NetModel::free())
            .with_faults(plan)
            .run({
                let (ckpt, flight, bodies) = (ckpt.clone(), flight.clone(), bodies.clone());
                move |ctx, world| {
                    let root_bodies = (world.rank() == 0).then(|| bodies.clone());
                    let sim = ParallelTreePm::new(
                        ctx,
                        world,
                        cfg,
                        [2, 2, 1],
                        2,
                        None,
                        root_bodies,
                        SimulationMode::Static,
                    );
                    let rc = ResilConfig::new(&ckpt).with_flight(&flight);
                    let mut resil = ResilientSim::new(ctx, world, sim, rc).unwrap();
                    resil.run(ctx, world, &dts).unwrap();
                    resil.flight_dumps()
                }
            })
    });
    assert!(
        out.iter().all(|&d| d == 1),
        "every rank dumps exactly once: {out:?}"
    );

    let mut bundles: Vec<_> = std::fs::read_dir(&flight)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    bundles.sort();
    assert_eq!(bundles.len(), 4, "one bundle per rank");
    let doc = greem_obs::json::parse(&std::fs::read_to_string(&bundles[0]).unwrap()).unwrap();
    use greem_obs::json::Value;
    assert_eq!(
        doc.get("bundle").and_then(Value::as_str),
        Some("flight-recorder")
    );
    let verdicts = doc.get("verdicts").and_then(Value::as_arr).unwrap();
    assert_eq!(
        verdicts[0].get("detector").and_then(Value::as_str),
        Some("fault.crash")
    );
    assert_eq!(verdicts[0].get("step").and_then(Value::as_f64), Some(5.0));
    let lines = doc.get("metrics_recent").and_then(Value::as_arr).unwrap();
    assert!(!lines.is_empty(), "per-step metric lines retained");
    assert!(
        lines
            .iter()
            .all(|l| l.get("pp_cost").and_then(Value::as_f64).is_some()),
        "metric lines carry the balancer-visible cost"
    );
    // Tracing was enabled, so the bundle embeds real spans.
    let trace = doc.get("trace").expect("embedded trace");
    assert!(!trace
        .get("traceEvents")
        .and_then(Value::as_arr)
        .unwrap()
        .is_empty());
    std::fs::remove_dir_all(&ckpt).ok();
    std::fs::remove_dir_all(&flight).ok();
}
