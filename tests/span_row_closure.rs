//! Span/row closure: every Table I row that has spans named after its
//! key equals, on each rank, the sum over those spans of their wall
//! seconds plus their virtual-clock extent — the spans and the step
//! breakdown time the same regions.
//!
//! Both drivers build inside the trace capture; each rank then records a
//! marker, and only its events after the marker (one step) count.

use std::collections::{BTreeSet, HashMap};

use greem::{Body, ParallelTreePm, Simulation, SimulationMode, StepBreakdown, TreePmConfig};
use greem_math::testutil::TestLcg;
use greem_obs::trace::{self, Event, Phase};
use mpisim::{NetModel, World};

const MARKER: &str = "closure.marker";

fn bodies(n: usize) -> Vec<Body> {
    let mut rng = TestLcg::new(17);
    (0..n)
        .map(|i| Body::at_rest(rng.next_vec3(), 1.0 / n as f64, i as u64))
        .collect()
}

/// Per `(rank, span name)`: Σ over the rank's spans after its marker of
/// `wall_ms / 1e3` plus the span's virtual extent (0 off `mpisim`).
fn span_seconds(events: &[Event]) -> HashMap<(u32, &'static str), f64> {
    let marker: HashMap<u32, u64> = events
        .iter()
        .filter(|e| e.name == MARKER)
        .map(|e| (e.rank, e.seq))
        .collect();
    let mut open: HashMap<(u32, &str), Vec<f64>> = HashMap::new();
    let mut sums = HashMap::new();
    for e in events {
        if marker.get(&e.rank).is_none_or(|&m| e.seq < m) {
            continue;
        }
        match e.phase {
            Phase::Begin => open.entry((e.tid, e.name)).or_default().push(e.vtime),
            Phase::End => {
                let v0 = open.get_mut(&(e.tid, e.name)).and_then(Vec::pop);
                let v0 = v0.expect("every span ends after it begins");
                let wall_ms = e.args.iter().find(|a| a.0 == "wall_ms").unwrap().1;
                let sum = sums.entry((e.rank, e.name)).or_insert(0.0);
                *sum += wall_ms / 1e3;
                if e.has_vtime() {
                    *sum += e.vtime - v0;
                }
            }
            Phase::Instant => {}
        }
    }
    sums
}

/// Assert every spanned row of each rank's breakdown closes on its
/// spans; return the keys that had spans.
fn assert_rows_close(per_rank: &[StepBreakdown], events: &[Event]) -> BTreeSet<&'static str> {
    let spans = span_seconds(events);
    let mut spanned = BTreeSet::new();
    for (rank, bd) in per_rank.iter().enumerate() {
        for (key, row) in bd.rows().pairs() {
            let Some(&want) = spans.get(&(rank as u32, key)) else {
                continue;
            };
            spanned.insert(key);
            assert!(
                (row - want).abs() <= 1e-12 * want.abs(),
                "rank {rank} row {key}: {row:e} s, its spans {want:e} s"
            );
        }
    }
    spanned
}

#[test]
fn serial_step_rows_equal_their_spans() {
    let (bd, events) = trace::capture(|| {
        let mut sim = Simulation::new(
            TreePmConfig::standard(16),
            bodies(400),
            SimulationMode::Static,
        );
        trace::instant("test", MARKER, &[]);
        sim.step(1e-3)
    });
    let spanned = assert_rows_close(&[bd], &events);
    let want = [
        "dd.position_update",
        "pm.acceleration_on_mesh",
        "pm.density_assignment",
        "pm.fft",
        "pm.force_interpolation",
    ];
    assert_eq!(spanned, BTreeSet::from(want));
}

#[test]
fn parallel_step_rows_equal_their_spans() {
    let all = bodies(600);
    let (per_rank, events) = trace::capture(|| {
        World::new(2)
            .with_net(NetModel::k_computer())
            .run(|ctx, world| {
                let root = (world.rank() == 0).then(|| all.clone());
                let cfg = TreePmConfig::standard(16);
                let mode = SimulationMode::Static;
                let mut sim = ParallelTreePm::new(ctx, world, cfg, [2, 1, 1], 2, None, root, mode);
                trace::instant("test", MARKER, &[]);
                sim.step(ctx, world, 1e-3).breakdown
            })
    });
    assert!(per_rank.iter().all(|bd| bd.pm.fft > 0.0));
    let spanned = assert_rows_close(&per_rank, &events);
    let want = [
        "dd.particle_exchange",
        "dd.position_update",
        "dd.sampling_method",
        "pm.acceleration_on_mesh",
        "pm.density_assignment",
        "pm.fft",
        "pm.force_interpolation",
        "pp.communication",
    ];
    assert_eq!(spanned, BTreeSet::from(want));
}
