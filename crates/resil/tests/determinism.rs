//! Satellite: fault injection is replayable. The same `FaultPlan` seed
//! must reproduce the exact fault schedule, the exact per-rank trace
//! event sequence, and the exact final particle state.

use greem::{Body, ParallelTreePm, SimulationMode, TreePmConfig};
use greem_math::Vec3;
use greem_resil::{FaultPlan, RecoveryStats, ResilConfig, ResilientSim};
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

fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .crash(2, 3)
        .straggler(1, 2.0)
        .drop_messages(0.05)
        .delay_messages(0.1, 2e-5)
}

/// The message-fault schedule is a pure function of (seed, src, dst,
/// sequence number): two plans built alike agree draw for draw, and a
/// different seed disagrees somewhere.
#[test]
fn same_seed_same_fault_schedule() {
    let a = chaos_plan(99);
    let b = chaos_plan(99);
    let c = chaos_plan(100);
    let mut diverged = false;
    for src in 0..4 {
        for dst in 0..4 {
            for seq in 0..64 {
                let fa = a.draw_msg(src, dst, seq);
                let fb = b.draw_msg(src, dst, seq);
                assert_eq!(fa.drops, fb.drops);
                assert_eq!(fa.delay.to_bits(), fb.delay.to_bits());
                let fc = c.draw_msg(src, dst, seq);
                diverged |= fa.drops != fc.drops || fa.delay != fc.delay;
            }
        }
    }
    assert!(diverged, "seed must matter");
}

/// Full chaos scenario (crash + straggler + drops + delays) run twice
/// from the same seed: identical recovery stats, identical final
/// particle state, and — per rank — the identical sequence of trace
/// events at identical virtual times.
#[test]
fn same_seed_same_traces_and_final_state() {
    use greem_obs::trace;

    let n = 128;
    let bodies = rand_bodies(n, 21);
    let cfg = TreePmConfig {
        modeled_pp_cost: Some(5e-9),
        ..TreePmConfig::standard(16)
    };
    let dts = [1e-3; 6];

    // (phase, cat, name, rank, vtime-bits): everything replayable. Wall
    // time, thread ids, and the cross-thread global sequence number are
    // host-scheduling noise and excluded.
    type Key = (
        greem_obs::trace::Phase,
        &'static str,
        &'static str,
        u32,
        u64,
    );

    let run = |tag: &str| -> (Vec<Body>, RecoveryStats, Vec<Vec<Key>>) {
        let dir =
            std::env::temp_dir().join(format!("greem_resil_det_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let bodies = bodies.clone();
        let ((out, stats), events) = trace::capture(|| {
            let out = World::new(4)
                .with_net(NetModel::free())
                .with_faults(chaos_plan(77))
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
                        (resil.sim().gather_bodies(ctx, world), stats)
                    }
                });
            let stats = out.iter().map(|(_, s)| *s).collect::<Vec<_>>();
            (out[0].0.clone().unwrap(), stats[0])
        });
        std::fs::remove_dir_all(&dir).ok();
        let mut per_rank: Vec<Vec<Key>> = vec![Vec::new(); 4];
        for e in &events {
            if e.has_vtime() {
                per_rank[e.rank as usize].push((e.phase, e.cat, e.name, e.rank, e.vtime.to_bits()));
            }
        }
        (out, stats, per_rank)
    };

    let (state_a, stats_a, traces_a) = run("a");
    let (state_b, stats_b, traces_b) = run("b");

    assert!(stats_a.rollbacks >= 1, "the crash must have fired");
    assert!(
        stats_a.dropped_messages + stats_a.delayed_messages > 0,
        "transport faults must have fired: {stats_a:?}"
    );
    assert_eq!(stats_a, stats_b, "recovery stats must replay");
    assert_eq!(state_a, state_b, "final particle state must replay");
    for (r, (ta, tb)) in traces_a.iter().zip(&traces_b).enumerate() {
        assert!(!ta.is_empty(), "rank {r} must have produced events");
        assert_eq!(ta.len(), tb.len(), "rank {r} event count");
        for (i, (ea, eb)) in ta.iter().zip(tb).enumerate() {
            assert_eq!(ea, eb, "rank {r} event {i} diverged");
        }
    }
}
