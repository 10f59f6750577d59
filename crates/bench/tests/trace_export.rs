//! Acceptance test for the observability tentpole: a multi-rank fig. 5
//! relay run must export Chrome-trace JSON with one track per simulated
//! rank, spans ordered by virtual time and strictly nested per rank,
//! and comm spans carrying bytes/hops arguments. The distributed PM
//! cycle must emit its Table I phase spans on every rank.

use std::collections::BTreeMap;

use greem_bench::trace::{capture_relay_trace, relay_trace_validated, TraceRun};
use greem_domain::DomainGrid;
use greem_obs::json::{parse, Value};
use greem_obs::trace::{capture, Phase};
use greem_pm::{ParallelPm, ParallelPmConfig};
use mpisim::{NetModel, World};

fn span_events(trace: &Value) -> Vec<&Value> {
    trace
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .collect()
}

#[test]
fn relay_trace_has_one_ordered_nested_track_per_rank() {
    let run = TraceRun {
        p: 12,
        nf: 2,
        n_mesh: 16,
        groups: 4,
    };
    let json = capture_relay_trace(run);
    let trace = parse(&json).expect("well-formed JSON");
    let spans = span_events(&trace);
    assert!(!spans.is_empty(), "no spans recorded");
    for s in &spans {
        for key in ["name", "cat", "ts", "dur", "pid", "tid"] {
            assert!(s.get(key).is_some(), "span missing {key}: {s:?}");
        }
    }

    // One track (pid) per simulated rank, and nothing else.
    let mut by_pid: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in &spans {
        let pid = s.get("pid").and_then(|v| v.as_f64()).unwrap() as u64;
        let ts = s.get("ts").and_then(|v| v.as_f64()).unwrap();
        let dur = s.get("dur").and_then(|v| v.as_f64()).unwrap();
        by_pid.entry(pid).or_default().push((ts, dur));
    }
    let pids: Vec<u64> = by_pid.keys().copied().collect();
    assert_eq!(
        pids,
        (0..run.p as u64).collect::<Vec<_>>(),
        "expected exactly one track per rank"
    );

    // Per rank: begins ordered by virtual time, spans strictly nested.
    for (pid, items) in &by_pid {
        let mut stack: Vec<f64> = Vec::new(); // open-span end times
        let mut last_ts = f64::NEG_INFINITY;
        for &(ts, dur) in items {
            assert!(ts >= last_ts, "rank {pid}: span begins out of order");
            last_ts = ts;
            let end = ts + dur;
            while let Some(&open_end) = stack.last() {
                if ts >= open_end - 1e-6 {
                    stack.pop();
                } else {
                    // Still inside the enclosing span: must end within it.
                    assert!(
                        end <= open_end + 1e-6,
                        "rank {pid}: span [{ts}, {end}] crosses enclosing end {open_end}"
                    );
                    break;
                }
            }
            stack.push(end);
        }
    }

    // Comm spans carry the traffic arguments.
    let comm: Vec<&&Value> = spans
        .iter()
        .filter(|s| s.get("cat").and_then(|c| c.as_str()) == Some("comm"))
        .collect();
    assert!(!comm.is_empty(), "relay run produced no comm spans");
    for s in &comm {
        let args = s.get("args").expect("comm span args");
        assert!(
            args.get("bytes_sent").is_some(),
            "comm span missing bytes_sent"
        );
        assert!(args.get("hops").is_some(), "comm span missing hops");
    }
    // The relay actually moves data over the torus.
    let total_bytes: f64 = comm
        .iter()
        .filter_map(|s| s.get("args")?.get("bytes_sent")?.as_f64())
        .sum();
    let total_hops: f64 = comm
        .iter()
        .filter_map(|s| s.get("args")?.get("hops")?.as_f64())
        .sum();
    assert!(total_bytes > 0.0, "no bytes recorded on comm spans");
    assert!(total_hops > 0.0, "no hops recorded on comm spans");
}

#[test]
fn validator_agrees_with_the_export() {
    let (json, summary) = relay_trace_validated(TraceRun::small()).expect("schema-valid trace");
    assert_eq!(summary.processes, TraceRun::small().p);
    assert!(summary.spans >= summary.comm_spans);
    assert!(summary.comm_spans > 0);
    // The export is loadable by the same parser CI uses.
    assert!(parse(&json).is_ok());
}

/// The Table I vocabulary of one distributed PM cycle: on every rank the
/// six phase spans, category `pm`, with the relay schedule's spans inside
/// the two conversions. The first four are the rank thread's, in cycle
/// order. The last two come from the sweep that differences and
/// interpolates plane by plane: on every thread that runs a share of it,
/// "acceleration on mesh" then "force interpolation" for each occupied
/// x-plane, one pair per plane in all; the rank thread closes the cycle
/// with the interpolation span of the reordering into particle order.
#[test]
fn parallel_pm_emits_its_phase_spans_on_every_rank() {
    const PHASES: [&str; 4] = [
        "pm.density_assignment",
        "pm.convert_to_slabs",
        "pm.fft",
        "pm.convert_to_local",
    ];
    const PAIR: [&str; 2] = ["pm.acceleration_on_mesh", "pm.force_interpolation"];
    let p = 4;
    let grid = DomainGrid::uniform([2, 2, 1]);
    let (_, events) = capture(|| {
        World::new(p)
            .with_net(NetModel::k_computer())
            .run(|ctx, world| {
                let cfg = ParallelPmConfig {
                    nf: 2,
                    relay_groups: Some(2),
                    ..ParallelPmConfig::standard(8, p)
                };
                let pm = ParallelPm::new(ctx, world, cfg);
                let dom = grid.domain(world.rank());
                // Two bodies one cell apart in x: two occupied planes.
                let centre = (dom.lo + dom.hi) * 0.5;
                let pos = [centre, centre + greem_math::Vec3::new(0.125, 0.0, 0.0)];
                let (lo, hi) = (dom.lo.to_array(), dom.hi.to_array());
                pm.solve(ctx, world, lo, hi, &pos, &[1.0, 1.0]);
            })
    });
    for rank in 0..p as u32 {
        let begins: Vec<_> = events
            .iter()
            .filter(|e| e.rank == rank && e.phase == Phase::Begin && e.cat == "pm")
            .collect();
        // The `pm.` spans of each thread, in order.
        let mut threads: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        for e in begins.iter().filter(|e| e.name.starts_with("pm.")) {
            threads.entry(e.tid).or_default().push(e.name);
        }
        let own = begins
            .iter()
            .find(|e| e.name == PHASES[0])
            .unwrap_or_else(|| panic!("rank {rank}: no {}", PHASES[0]))
            .tid;
        let mut pairs = 0;
        for (&tid, names) in &threads {
            let sweep = if tid == own {
                assert_eq!(names[..4], PHASES, "rank {rank}");
                assert_eq!(names.last(), Some(&PAIR[1]), "rank {rank}: the reordering");
                &names[4..names.len() - 1]
            } else {
                &names[..]
            };
            assert!(
                sweep.chunks(2).all(|pair| pair == PAIR),
                "rank {rank}, thread {tid}: {names:?}"
            );
            pairs += sweep.len() / 2;
        }
        assert_eq!(pairs, 2, "rank {rank}: one pair per occupied plane");
        let seq = |name: &str| begins.iter().find(|e| e.name == name).map(|e| e.seq);
        let after_local = begins
            .iter()
            .filter(|e| PAIR.contains(&e.name))
            .all(|e| Some(e.seq) > seq(PHASES[3]));
        assert!(
            after_local,
            "rank {rank}: a sweep span before the potential"
        );
        let names: Vec<&str> = begins.iter().map(|e| e.name).collect();
        let between = |name: &str, from: &str, to: &str| {
            let at = |n: &str| names.iter().position(|b| *b == n);
            let i = at(name).unwrap_or_else(|| panic!("rank {rank}: no {name} in {names:?}"));
            assert!(
                at(from) < Some(i) && Some(i) < at(to),
                "rank {rank}: {name} outside {from}"
            );
        };
        for relay in ["relay.density_to_slabs", "relay.pack_density"] {
            between(relay, "pm.convert_to_slabs", "pm.fft");
        }
        for relay in ["relay.slabs_to_local", "relay.unpack_potential"] {
            between(relay, "pm.convert_to_local", "pm.acceleration_on_mesh");
        }
    }
}
