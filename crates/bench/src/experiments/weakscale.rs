//! §IV weak scaling at full machine size, on the virtual machine.
//!
//! The paper's headline curve: 1.53 Pflops (49 % of peak) at 24576
//! nodes and 4.45 Pflops (42 %) at 82944 for the 10240³ production
//! run. No supercomputer here, so the sweep runs on phantom-rank
//! worlds ([`mpisim::World::with_phantoms`]): every rank of the real
//! machine exists as a virtual clock on the K-like torus, replaying
//! the Table-I cost model ([`greem_perfmodel::model_table`]) as a
//! [`Script`] — per-phase compute charges plus the paper's
//! communication schedule (sampling gather/bcast, the over-groups
//! relay reduce/bcast, the balancer allreduce, step barriers) with
//! token payloads. One representative rank additionally runs a real
//! (small) TreePM step per simulated step, so the sweep stays wired to
//! the actual kernels. Efficiency is then the paper's accounting —
//! 51 flops × interactions over the virtual makespan against
//! `KMachine::peak_flops(p)` — and `greem_analysis::critical_path`
//! attributes where the lost points went. See DESIGN.md §16.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use greem::{Simulation, SimulationMode, TreePmConfig};
use greem_analysis::{critical_path, efficiency_at, select_ranks, Segment};
use greem_math::FLOPS_PER_INTERACTION;
use greem_obs::json::JsonWriter;
use greem_obs::sketch::Rollup;
use greem_perfmodel::tableone::{
    FORCE_CALCULATION, PM_COMMUNICATION, SAMPLING_METHOD, TREE_TRAVERSAL,
};
use greem_perfmodel::{model_table, paper_table, KMachine, RunShape};
use mpisim::{NetModel, Script, World};

use crate::workloads;

/// Sweep node counts: the full curve touches the paper's two published
/// points; the small (CI smoke) curve stays under a second.
pub fn sweep_points(small: bool) -> &'static [usize] {
    if small {
        &[16, 128, 1024]
    } else {
        &[64, 512, 6144, 24576, 82944]
    }
}

/// Steps per sweep point (the paper averages its production table over
/// a handful of steps; two is enough for a deterministic average that
/// still exercises the per-step schedule twice).
pub const STEPS: u64 = 2;

/// Deterministic per-rank compute skew in [0.98, 1.02) (splitmix64 on
/// the rank id): the imbalance that makes barriers and the critical
/// path mean something without perturbing the model by more than ±2 %.
fn skew(rank: usize) -> f64 {
    let mut z = (rank as u64).wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    0.98 + 0.04 * ((z >> 11) as f64 / (1u64 << 53) as f64)
}

/// Shared state of the representative's real-work hook: a live small
/// simulation and the interactions its kernel actually evaluated.
pub struct RepWork {
    sim: Mutex<Simulation>,
    interactions: AtomicU64,
}

fn rep_work(small: bool) -> Arc<RepWork> {
    let n = if small { 192 } else { 384 };
    let pos = workloads::clustered(n, 3, 0.35, 42);
    let bodies = workloads::bodies_at_rest(&pos);
    let cfg = TreePmConfig::standard(16);
    Arc::new(RepWork {
        sim: Mutex::new(Simulation::new(cfg, bodies, SimulationMode::Static)),
        interactions: AtomicU64::new(0),
    })
}

/// The per-step script for `p` ranks: the 13 Table-I rows as modelled
/// compute charges (timing), interleaved with the paper's collective
/// schedule (structure + traffic). Payload sizes are tokens — enough
/// to exercise the torus and the congestion model without drowning the
/// Table-I timings the curve is calibrated against.
pub fn build_script(p: usize, steps: u64, work: &Arc<RepWork>) -> Script {
    let table = model_table(p);
    let shape = RunShape::paper(p);
    let groups = shape.relay_groups as u64;
    // Per-rank share of the 4096³ density mesh, capped so the token
    // transfer stays small against the modelled pm.communication row.
    let slab_bytes = ((8 * shape.n_mesh.pow(3)) / p).min(4 << 20);
    let mut s = Script::new();
    for step in 0..steps {
        s.set_step(step);
        for (name, secs) in table.phase_rows() {
            if name == FORCE_CALCULATION.key {
                let w = Arc::clone(work);
                s.compute_with_work(
                    name,
                    move |r| secs * skew(r),
                    move |_rank| {
                        let bd = w.sim.lock().unwrap().step(1e-3);
                        w.interactions
                            .fetch_add(bd.interactions(), Ordering::Relaxed);
                    },
                );
            } else if name == TREE_TRAVERSAL.key {
                s.compute(name, move |r| secs * skew(r));
            } else {
                s.compute(name, move |_| secs);
            }
            if name == PM_COMMUNICATION.key {
                // The over-groups relay: Reduce slabs to each group
                // head, Bcast the summed slab back (§II-B, fig. 5).
                s.group_reduce(name, move |r| r as u64 % groups, move |_| slab_bytes);
                s.group_bcast(name, move |r| r as u64 % groups, move |_| slab_bytes);
            } else if name == SAMPLING_METHOD.key {
                // The sampling method: every rank ships samples to
                // rank 0, which broadcasts the new domain boundaries.
                s.gather(name, 0, |_| 24 * 64);
                s.bcast(name, 0, move |_| 48 * p);
            }
        }
        s.allreduce("ctl.balancer", |_| 40);
        s.barrier("ctl.step_barrier");
    }
    s
}

/// Per-phase share of the critical path and the efficiency points it
/// costs (see [`attribute_losses`]).
pub struct PhaseLoss {
    pub phase: &'static str,
    /// Critical-path seconds per step.
    pub on_path_s: f64,
    /// Fraction of the makespan.
    pub share: f64,
    /// Percentage points of machine peak this phase forfeits.
    pub lost_points: f64,
}

/// Cross-rank telemetry roll-up for one sweep point (DESIGN.md §18).
/// Every rank's per-phase virtual seconds fold into mergeable
/// [`DdSketch`]es keyed by phase name; only the retained rank set —
/// the critical-path rank plus seeded random controls, capped by
/// [`greem_analysis::retain::MAX_RETAINED`] — keeps its full timeline. The whole
/// artifact is rendered up front so its byte cost is itself a metric:
/// `telemetry_bytes` is what the bounded roll-up costs,
/// `full_timeline_bytes` what shipping every rank's timeline would
/// have cost at the same `p`.
///
/// [`DdSketch`]: greem_obs::sketch::DdSketch
pub struct PointTelemetry {
    /// Rank with the largest final virtual clock (ties → lowest).
    pub critical_rank: u32,
    /// Retained rank set, sorted (always contains `critical_rank`).
    pub retained: Vec<u32>,
    /// Per-phase duration sketches over all `p` ranks.
    pub rollup: Rollup,
    /// The rendered telemetry JSON object (embedded under `--agg`).
    pub blob: String,
    /// `blob.len()` — the bounded artifact's actual size.
    pub telemetry_bytes: u64,
    /// Size of the unfolded alternative: one rendered per-rank
    /// timeline entry × `p`.
    pub full_timeline_bytes: u64,
}

fn timeline_entry(w: &mut JsonWriter, outcome: &mpisim::ScriptOutcome, r: u32) {
    let t = &outcome.timelines[r as usize];
    w.begin_obj(None);
    w.u64(Some("rank"), r as u64);
    w.f64(Some("vtime"), t.vtime);
    w.begin_arr(Some("phase_vtime"));
    for &d in &t.phase_vtime {
        w.f64(None, d);
    }
    w.end_arr();
    w.end_obj();
}

/// Fold a sweep point's outcome into its bounded telemetry artifact.
pub fn build_telemetry(outcome: &mpisim::ScriptOutcome, p: usize) -> PointTelemetry {
    let mut rollup = Rollup::default();
    let (mut critical_rank, mut worst) = (0u32, f64::NEG_INFINITY);
    for (r, t) in outcome.timelines.iter().enumerate() {
        if t.vtime > worst {
            worst = t.vtime;
            critical_rank = r as u32;
        }
        for (i, &name) in outcome.phases.iter().enumerate() {
            let d = t.phase_vtime.get(i).copied().unwrap_or(0.0);
            if d > 0.0 {
                rollup.observe(name, d);
            }
        }
    }
    let retained = select_ranks(p, critical_rank, &[]);
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.f64(Some("alpha"), rollup.alpha());
    w.u64(Some("ranks"), p as u64);
    w.u64(Some("critical_rank"), critical_rank as u64);
    w.begin_arr(Some("retained_ranks"));
    for &r in &retained {
        w.u64(None, r as u64);
    }
    w.end_arr();
    rollup.write_json(&mut w, Some("phases"));
    w.begin_arr(Some("retained_timelines"));
    for &r in &retained {
        timeline_entry(&mut w, outcome, r);
    }
    w.end_arr();
    w.end_obj();
    let blob = w.finish();
    let mut one = JsonWriter::new();
    timeline_entry(&mut one, outcome, critical_rank);
    let per_rank = one.finish().len() as u64 + 1; // trailing comma
    PointTelemetry {
        critical_rank,
        retained,
        rollup,
        telemetry_bytes: blob.len() as u64,
        full_timeline_bytes: per_rank * p as u64,
        blob,
    }
}

/// One sweep point.
pub struct WeakScalePoint {
    pub p: usize,
    pub steps: u64,
    /// Virtual seconds per step (the paper's "Total(sec/step)").
    pub vtime_per_step: f64,
    /// Sustained Pflops at the paper's 51 flops/interaction.
    pub pflops: f64,
    /// Fraction of `KMachine::peak_flops(p)`.
    pub pct_of_peak: f64,
    /// The Table-I model's prediction at this `p`.
    pub model_pct_of_peak: f64,
    /// The published efficiency, where the paper printed one.
    pub paper_pct_of_peak: Option<f64>,
    /// Engine traffic: total messages and bytes over the whole run.
    pub messages: u64,
    pub bytes_sent: u64,
    /// Interactions the representative's *real* kernel evaluated.
    pub rep_interactions: u64,
    /// Host wall seconds for this point.
    pub wall_s: f64,
    pub losses: Vec<PhaseLoss>,
    /// Cross-rank roll-up + retained timelines (DESIGN.md §18).
    pub telemetry: PointTelemetry,
}

/// Fold per-rank phase timings into critical-path phase losses. The
/// kernel ceiling (51/68 of peak ≈ 72.8 %) is the efficiency the
/// machine would sustain if every critical-path second ran the PP
/// kernel flat out; each phase forfeits its share of that ceiling,
/// except the force phase, which keeps the sustained efficiency and is
/// charged only the remainder (instruction mix + imbalance inside the
/// kernel phase).
fn attribute_losses(
    outcome: &mpisim::ScriptOutcome,
    p: usize,
    steps: f64,
    pct_of_peak: f64,
) -> Vec<PhaseLoss> {
    let phases = &outcome.phases;
    // Sample ≤ 128 ranks (the critical path only needs the spread, and
    // phase times are per-rank totals, not per-step events).
    let stride = p.div_ceil(128).max(1);
    let mut segs = Vec::new();
    for (r, t) in outcome.timelines.iter().enumerate().step_by(stride) {
        let mut cursor = 0.0;
        for (i, &name) in phases.iter().enumerate() {
            let d = t.phase_vtime.get(i).copied().unwrap_or(0.0);
            if d <= 0.0 {
                continue;
            }
            segs.push(Segment {
                rank: r as u32,
                name,
                cat: if name.starts_with("ctl.") {
                    "comm"
                } else {
                    "step"
                },
                phase: name,
                step: None,
                v0: cursor,
                v1: cursor + d,
            });
            cursor += d;
        }
    }
    let cp = critical_path(&segs);
    let machine = KMachine::new();
    let kernel_ceiling =
        machine.interactions_per_sec_per_node() * FLOPS_PER_INTERACTION / machine.peak_flops(1);
    let mut losses: Vec<PhaseLoss> = cp
        .phases
        .iter()
        .map(|ph| {
            let share = if cp.makespan_s > 0.0 {
                ph.on_path_s / cp.makespan_s
            } else {
                0.0
            };
            let lost = if ph.phase == FORCE_CALCULATION.key {
                (share * kernel_ceiling - pct_of_peak).max(0.0) * 100.0
            } else {
                share * kernel_ceiling * 100.0
            };
            PhaseLoss {
                phase: ph.phase,
                on_path_s: ph.on_path_s / steps,
                share,
                lost_points: lost,
            }
        })
        .collect();
    losses.sort_by(|a, b| b.lost_points.total_cmp(&a.lost_points));
    losses
}

/// Run one sweep point on a phantom world (rank 0 is the
/// representative carrying the real-work hook).
pub fn run_point(p: usize, steps: u64, small: bool) -> WeakScalePoint {
    let work = rep_work(small);
    let script = build_script(p, steps, &work);
    let t0 = std::time::Instant::now();
    let outcome = World::new(p)
        .with_net(NetModel::k_computer())
        .with_phantoms([0])
        .run_script(&script);
    let wall_s = t0.elapsed().as_secs_f64();
    let makespan = outcome.makespan();
    let shape = RunShape::paper(p);
    let eff = efficiency_at(shape.interactions * steps as f64, makespan, p, p);
    let bytes_sent: u64 = outcome.timelines.iter().map(|t| t.stats.bytes_sent).sum();
    let messages = outcome.engine.as_ref().map(|e| e.messages).unwrap_or(0);
    let losses = attribute_losses(&outcome, p, steps as f64, eff.pct_of_peak);
    let telemetry = build_telemetry(&outcome, p);
    WeakScalePoint {
        p,
        steps,
        vtime_per_step: makespan / steps as f64,
        pflops: eff.gflops / 1e6,
        pct_of_peak: eff.pct_of_peak,
        model_pct_of_peak: eff.model_pct_of_peak,
        paper_pct_of_peak: matches!(p, 24576 | 82944).then(|| paper_table(p).efficiency()),
        messages,
        bytes_sent,
        rep_interactions: work.interactions.load(Ordering::Relaxed),
        wall_s,
        losses,
        telemetry,
    }
}

/// The sweep.
pub fn run_sweep(small: bool) -> Vec<WeakScalePoint> {
    sweep_points(small)
        .iter()
        .map(|&p| {
            eprintln!("weakscale: p = {p}…");
            run_point(p, STEPS, small)
        })
        .collect()
}

/// The human-readable report: the §IV efficiency curve plus the
/// critical-path loss attribution at the largest point. `agg` appends
/// the cross-rank telemetry roll-up (DESIGN.md §18).
fn render(points: &[WeakScalePoint], agg: bool) -> String {
    let mut s = String::from(
        "=== Sec. IV: weak scaling to the full machine (virtual) =========\n\n\
         Phantom-rank worlds on the K-like torus replay the Table-I cost\n\
         model; rank 0 runs a real TreePM step each virtual step.\n\n\
         p(nodes)  vtime/step(s)   Pflops   %peak   model%   paper%   msgs\n",
    );
    for pt in points {
        s.push_str(&format!(
            "{:>8} {:>14.2} {:>8.2} {:>7.1} {:>8.1} {:>8} {:>8}\n",
            pt.p,
            pt.vtime_per_step,
            pt.pflops,
            pt.pct_of_peak * 100.0,
            pt.model_pct_of_peak * 100.0,
            pt.paper_pct_of_peak
                .map(|v| format!("{:.1}", v * 100.0))
                .unwrap_or_else(|| "-".into()),
            pt.messages,
        ));
    }
    if let Some(last) = points.last() {
        s.push_str(&format!(
            "\nwhere the peak went at p = {} (critical path, per step):\n\
             phase                      on-path(s)   share%   peak-points lost\n",
            last.p
        ));
        for l in &last.losses {
            s.push_str(&format!(
                "  {:<24} {:>11.2} {:>8.1} {:>14.1}\n",
                l.phase,
                l.on_path_s,
                l.share * 100.0,
                l.lost_points
            ));
        }
        s.push_str(&format!(
            "\n  representative's real kernel: {} interactions over {} steps\n",
            last.rep_interactions, last.steps
        ));
        if agg {
            let tel = &last.telemetry;
            s.push_str(&format!(
                "\ncross-rank telemetry at p = {} (α = {:.3}, all ranks folded):\n\
                 phase                            p50(s)     p95(s)     p99(s)     max(s)\n",
                last.p,
                tel.rollup.alpha()
            ));
            for (name, sk) in tel.rollup.iter() {
                s.push_str(&format!(
                    "  {:<28} {:>9.3} {:>10.3} {:>10.3} {:>10.3}\n",
                    name,
                    sk.quantile(0.50).unwrap_or(0.0),
                    sk.quantile(0.95).unwrap_or(0.0),
                    sk.quantile(0.99).unwrap_or(0.0),
                    sk.max().unwrap_or(0.0),
                ));
            }
            s.push_str(&format!(
                "  retained full timelines: {:?} (critical-path rank {})\n\
                 \x20 telemetry artifact: {} bytes (full per-rank timelines ≈ {} bytes)\n",
                tel.retained, tel.critical_rank, tel.telemetry_bytes, tel.full_timeline_bytes
            ));
        }
    }
    s
}

/// The JSON body of one point. The artifact sizes are always
/// recorded (so telemetry growth is regression-gatable); the full
/// roll-up object is embedded only under `agg`.
fn write_point(pt: &WeakScalePoint, w: &mut greem_obs::json::JsonWriter, agg: bool) {
    w.u64(Some("p"), pt.p as u64);
    w.u64(Some("steps"), pt.steps);
    w.f64(Some("vtime_per_step"), pt.vtime_per_step);
    w.f64(Some("pflops"), pt.pflops);
    w.f64(Some("pct_of_peak"), pt.pct_of_peak);
    w.f64(Some("model_pct_of_peak"), pt.model_pct_of_peak);
    if let Some(v) = pt.paper_pct_of_peak {
        w.f64(Some("paper_pct_of_peak"), v);
    }
    w.u64(Some("messages"), pt.messages);
    w.u64(Some("bytes_sent"), pt.bytes_sent);
    w.u64(Some("rep_interactions"), pt.rep_interactions);
    w.f64(Some("wall_s"), pt.wall_s);
    w.begin_arr(Some("losses"));
    for l in &pt.losses {
        w.begin_obj(None);
        w.str_(Some("phase"), l.phase);
        w.f64(Some("on_path_s"), l.on_path_s);
        w.f64(Some("share"), l.share);
        w.f64(Some("lost_points"), l.lost_points);
        w.end_obj();
    }
    w.end_arr();
    w.u64(Some("telemetry_bytes"), pt.telemetry.telemetry_bytes);
    w.u64(
        Some("full_timeline_bytes"),
        pt.telemetry.full_timeline_bytes,
    );
    if agg {
        w.raw(Some("telemetry"), &pt.telemetry.blob);
    }
}

/// Gate metrics: the deterministic virtual-clock and traffic counts of
/// every sweep point. All `Exact` — the engine is bitwise
/// deterministic, so any drift is a semantic change to the runtime or
/// the model, not noise. Host wall time is reported ungated.
fn metric_specs(points: &[WeakScalePoint]) -> Vec<greem_analysis::MetricSpec> {
    use greem_analysis::{Direction, MetricSpec};
    let mut m = Vec::new();
    for pt in points {
        let p = pt.p;
        m.push(MetricSpec::new(
            format!("p{p}_vtime_per_step"),
            pt.vtime_per_step,
            0.0,
            true,
            Direction::Exact,
        ));
        m.push(MetricSpec::new(
            format!("p{p}_pct_of_peak"),
            pt.pct_of_peak,
            0.0,
            true,
            Direction::Exact,
        ));
        m.push(MetricSpec::new(
            format!("p{p}_messages"),
            pt.messages as f64,
            0.0,
            true,
            Direction::Exact,
        ));
        m.push(MetricSpec::new(
            format!("p{p}_bytes"),
            pt.bytes_sent as f64,
            0.0,
            true,
            Direction::Exact,
        ));
        m.push(MetricSpec::new(
            format!("p{p}_wall_s"),
            pt.wall_s,
            0.5,
            false,
            Direction::LowerIsBetter,
        ));
        // The bounded telemetry artifact must not silently balloon:
        // gated with 25 % headroom over the baseline. The unfolded
        // alternative is recorded ungated, for the contrast.
        m.push(MetricSpec::new(
            format!("p{p}_telemetry_bytes"),
            pt.telemetry.telemetry_bytes as f64,
            0.25,
            true,
            Direction::LowerIsBetter,
        ));
        m.push(MetricSpec::new(
            format!("p{p}_full_timeline_bytes"),
            pt.telemetry.full_timeline_bytes as f64,
            0.25,
            false,
            Direction::LowerIsBetter,
        ));
    }
    m
}

/// `harness weakscale`: run the sweep, render it, and hand the
/// deterministic counts to the gate
/// (`baselines/weakscale_{small,full}.json`). Unlike `serve-bench`, a
/// missing baseline is not an error: the full sweep is a first-class
/// experiment, the gate an opt-in for CI.
pub fn run(small: bool, agg: bool) -> super::Outcome {
    let points = run_sweep(small);
    let mut w = super::summary_writer("weakscale", small);
    w.begin_arr(Some("points"));
    for pt in &points {
        w.begin_obj(None);
        write_point(pt, &mut w, agg);
        w.end_obj();
    }
    w.end_arr();
    let spec = super::GateSpec::new("weakscale", small, metric_specs(&points), false);
    super::Outcome::new(render(&points, agg), w).gated(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_deterministic_and_monotone() {
        let a = run_sweep(true);
        let b = run_sweep(true);
        assert_eq!(a.len(), sweep_points(true).len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.vtime_per_step.to_bits(), y.vtime_per_step.to_bits());
            assert_eq!(x.messages, y.messages);
            assert_eq!(x.bytes_sent, y.bytes_sent);
        }
        // Weak scaling: efficiency must not increase with p (Amdahl via
        // the flat FFT + growing sampling cost).
        for w in a.windows(2) {
            assert!(
                w[1].pct_of_peak <= w[0].pct_of_peak + 1e-12,
                "efficiency rose from p={} to p={}",
                w[0].p,
                w[1].p
            );
        }
        for pt in &a {
            assert!(pt.pct_of_peak > 0.0 && pt.pct_of_peak < 1.0);
            assert!(pt.rep_interactions > 0, "real kernel never ran");
            assert!(!pt.losses.is_empty());
            // The force row owns the largest critical-path share
            // everywhere in the sweep (losses are sorted by points
            // *lost*, where the kernel phase is by design near zero).
            let dominant = pt
                .losses
                .iter()
                .max_by(|a, b| a.share.total_cmp(&b.share))
                .unwrap();
            assert_eq!(dominant.phase, "pp.force_calculation");
        }
    }

    #[test]
    fn sweep_tracks_the_model_closely() {
        // The scripted makespan is the model total + token comm + ≤2 %
        // skew, so measured %peak must sit within 10 % (relative) of
        // the Table-I model at every p.
        for pt in run_sweep(true) {
            let ratio = pt.pct_of_peak / pt.model_pct_of_peak;
            assert!(
                (0.85..=1.01).contains(&ratio),
                "p={}: pct_of_peak {:.3} vs model {:.3} (ratio {ratio:.3})",
                pt.p,
                pt.pct_of_peak,
                pt.model_pct_of_peak
            );
        }
    }

    #[test]
    fn published_point_lands_on_the_paper() {
        // The acceptance bar, over the whole full-size curve: both
        // published points within ±10 points of the paper's 49 % / 42 %,
        // every point cheap, and efficiency never rising with p. The
        // representative's work size does not enter `pct_of_peak`, so
        // the small work hook gives the full run's figures. Note
        // `paper_pct_of_peak` is the row-sum basis (52.1 % at 24576 —
        // Table I's printed rows undershoot its printed totals), so both
        // references are checked.
        let pts: Vec<_> = (sweep_points(false).iter())
            .map(|&p| run_point(p, STEPS, true))
            .collect();
        let at = |p| {
            pts.iter()
                .find(|pt| pt.p == p)
                .expect("published point swept")
        };
        let paper_rows = at(24576).paper_pct_of_peak.unwrap();
        assert!((paper_rows - 0.521).abs() < 0.02, "row basis {paper_rows}");
        for (p, published) in [(24576, 0.49), (82944, 0.42)] {
            let pt = at(p);
            assert!(
                (pt.pct_of_peak - published).abs() < 0.10,
                "{p}: {:.3} vs published {published}",
                pt.pct_of_peak
            );
            let paper_rows = pt.paper_pct_of_peak.unwrap();
            assert!(
                (pt.pct_of_peak - paper_rows).abs() < 0.10,
                "{p}: {:.3} vs row-sum {paper_rows:.3}",
                pt.pct_of_peak
            );
            assert!(pt.messages > 0 && pt.bytes_sent > 0);
        }
        for pt in &pts {
            assert!(
                pt.wall_s < 120.0,
                "{}: {:.1} s of host time",
                pt.p,
                pt.wall_s
            );
        }
        for w in pts.windows(2) {
            assert!(
                w[0].pct_of_peak >= w[1].pct_of_peak,
                "efficiency rose from {} ({:.4}) to {} ({:.4})",
                w[0].p,
                w[0].pct_of_peak,
                w[1].p,
                w[1].pct_of_peak
            );
        }
    }

    #[test]
    fn telemetry_rollup_matches_exact_quantiles_and_stays_bounded() {
        // The acceptance bar for the roll-up: sketch quantiles within
        // the documented α relative-error bound of an exact sort over
        // the per-rank phase times, artifact ≤ 1 MiB and far below the
        // unfolded per-rank timelines, retained set ≤ 8 ranks and
        // containing the critical-path rank.
        let p = 128;
        let work = rep_work(true);
        let script = build_script(p, 1, &work);
        let outcome = World::new(p)
            .with_net(NetModel::k_computer())
            .with_phantoms([0])
            .run_script(&script);
        let tel = build_telemetry(&outcome, p);

        assert!(tel.retained.len() <= greem_analysis::retain::MAX_RETAINED);
        assert!(
            tel.retained.contains(&tel.critical_rank),
            "critical-path rank {} not retained in {:?}",
            tel.critical_rank,
            tel.retained
        );
        assert!(
            tel.telemetry_bytes <= 1 << 20,
            "artifact {} bytes exceeds the 1 MiB budget",
            tel.telemetry_bytes
        );
        assert!(
            tel.telemetry_bytes < tel.full_timeline_bytes,
            "roll-up ({}) should undercut full timelines ({})",
            tel.telemetry_bytes,
            tel.full_timeline_bytes
        );

        for (i, &name) in outcome.phases.iter().enumerate() {
            let mut exact: Vec<f64> = outcome
                .timelines
                .iter()
                .filter_map(|t| t.phase_vtime.get(i).copied())
                .filter(|&d| d > 0.0)
                .collect();
            if exact.is_empty() {
                continue;
            }
            exact.sort_by(f64::total_cmp);
            let sk = tel.rollup.get(name).expect("phase sketch missing");
            assert_eq!(sk.count(), exact.len() as u64, "{name}: count");
            assert_eq!(
                sk.max().unwrap().to_bits(),
                exact.last().unwrap().to_bits(),
                "{name}: max is exact"
            );
            for q in [0.5, 0.95, 0.99] {
                let est = sk.quantile(q).unwrap();
                let idx = ((q * (exact.len() - 1) as f64).floor() as usize).min(exact.len() - 1);
                let truth = exact[idx];
                assert!(
                    (est - truth).abs() <= sk.alpha() * truth.abs() + 1e-12,
                    "{name} q{q}: sketch {est} vs exact {truth} breaks the α bound"
                );
            }
        }
    }

    #[test]
    fn point_json_records_artifact_sizes_and_agg_embeds_quantiles() {
        let json_of = |pt: &WeakScalePoint, agg: bool| {
            let mut w = greem_obs::json::JsonWriter::new();
            w.begin_obj(None);
            write_point(pt, &mut w, agg);
            w.end_obj();
            greem_obs::json::parse(&w.finish()).expect("point JSON parses")
        };
        let num = |v: &greem_obs::json::Value, k: &str| {
            v.get(k)
                .and_then(|x| x.as_f64())
                .unwrap_or_else(|| panic!("no number '{k}'"))
        };
        let points = run_sweep(true);
        for pt in &points {
            let p = pt.p;
            let v = json_of(pt, true);
            // Artifact sizes are always recorded (regression-gated), and
            // the sketch roll-up stays a small fraction of what shipping
            // every rank's timeline would cost.
            let bytes = num(&v, "telemetry_bytes");
            assert!(
                bytes > 0.0 && bytes <= (1 << 20) as f64,
                "p = {p}: {bytes} bytes"
            );
            assert!(bytes < num(&v, "full_timeline_bytes"), "p = {p}");
            let tel = v.get("telemetry").expect("--agg embeds the roll-up");
            assert_eq!(num(tel, "ranks"), p as f64);
            // Retention: a bounded rank set, the critical-path rank in it,
            // one timeline per retained rank.
            let critical = num(tel, "critical_rank");
            assert_eq!(critical, pt.telemetry.critical_rank as f64);
            let retained = tel.get("retained_ranks").and_then(|r| r.as_arr()).unwrap();
            assert!(
                (1..=8).contains(&retained.len()),
                "p = {p}: {} retained",
                retained.len()
            );
            assert!(
                retained.iter().any(|r| r.as_f64() == Some(critical)),
                "p = {p}"
            );
            let timelines = tel.get("retained_timelines").and_then(|t| t.as_arr());
            assert_eq!(timelines.map(<[_]>::len), Some(retained.len()), "p = {p}");
            let phases = tel.get("phases").expect("per-phase sketch summaries");
            let pp = phases.get("pp.force_calculation").expect("force row");
            for k in ["count", "min", "max", "mean", "p50", "p95", "p99"] {
                assert!(pp.get(k).is_some(), "p = {p}: phase summary missing '{k}'");
            }
            let q = ["min", "p50", "p95", "p99", "max"].map(|k| num(pp, k));
            assert!(
                q.windows(2).all(|w| w[0] <= w[1]),
                "p = {p}: quantiles {q:?}"
            );
        }
        let pt = &points[0];
        // Without --agg the blob is absent but the sizes remain.
        let v = json_of(pt, false);
        assert!(v.get("telemetry").is_none());
        assert!(v.get("telemetry_bytes").is_some());
    }
}
