//! Online anomaly detectors riding inside the step loop.
//!
//! A [`Monitor`] is created per rank and fed once per completed step
//! (via [`Monitor::observe_step`] inside a plain `ParallelTreePm` loop
//! or a `ResilientSim::run_with` hook). Each call allgathers a small
//! per-rank signal vector — the balancer-visible PP cost, comm-byte
//! and fault-counter deltas, interaction count and virtual clock — so
//! every rank sees the same world picture and the detectors fire
//! identically everywhere (the allgather is collective, like the step
//! itself).
//!
//! Detectors (thresholds are this module's constants, rationale in
//! DESIGN.md §13):
//!
//! * **Straggler** — per-rank PP cost *per interaction* max/mean
//!   exceeds [`STRAGGLER_FACTOR`]; names the slowest rank. Normalizing
//!   by interactions makes the signal immune to the balancer: a slow
//!   *node* keeps its 4× per-interaction cost even after the balancer
//!   shrinks its slab, while a merely *overloaded* rank normalizes
//!   back to 1.
//! * **Imbalance drift** — the raw PP-cost factor stays above
//!   [`IMBALANCE_LIMIT`] for [`IMBALANCE_STEPS`] consecutive steps
//!   (sustained skew the balancer is failing to absorb).
//! * **Comm spike** — world comm bytes this step exceed
//!   [`COMM_SPIKE_FACTOR`] × the rolling-window mean.
//! * **Comm fault** — any injected drop/retry/delay counters moved
//!   this step (flaky links are invisible in byte counts: dropped
//!   messages cost retry *time*, not volume).
//! * **Efficiency collapse** — aggregate interactions per virtual
//!   second falls below [`EFFICIENCY_FLOOR`] × the run's rolling peak.
//!
//! The first [`WARMUP`] steps train the baselines and never fire. All
//! counters are published as `analysis_*` registry series (zero-valued
//! when silent, so "no alerts" is an observable fact, not a missing
//! metric), and each alert emits an `analysis.*` trace instant.

use std::collections::VecDeque;

use greem::{ParallelStepStats, ParallelTreePm};
use greem_obs::sketch::Rollup;
use mpisim::{Comm, Ctx};

use crate::imbalance::imbalance_factor;

/// What fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorKind {
    Straggler,
    CommSpike,
    ImbalanceDrift,
    EfficiencyCollapse,
    CommFault,
}

impl DetectorKind {
    pub const ALL: [DetectorKind; 5] = [
        DetectorKind::Straggler,
        DetectorKind::CommSpike,
        DetectorKind::ImbalanceDrift,
        DetectorKind::EfficiencyCollapse,
        DetectorKind::CommFault,
    ];

    /// Stable label used in metrics and trace instants.
    pub fn name(&self) -> &'static str {
        match self {
            DetectorKind::Straggler => "straggler",
            DetectorKind::CommSpike => "comm_spike",
            DetectorKind::ImbalanceDrift => "imbalance_drift",
            DetectorKind::EfficiencyCollapse => "efficiency_collapse",
            DetectorKind::CommFault => "comm_fault",
        }
    }

    fn instant_name(&self) -> &'static str {
        match self {
            DetectorKind::Straggler => "analysis.straggler",
            DetectorKind::CommSpike => "analysis.comm_spike",
            DetectorKind::ImbalanceDrift => "analysis.imbalance_drift",
            DetectorKind::EfficiencyCollapse => "analysis.efficiency_collapse",
            DetectorKind::CommFault => "analysis.comm_fault",
        }
    }
}

/// One fired detector.
#[derive(Debug, Clone)]
pub struct Alert {
    /// 0-based step index (as counted by the monitor).
    pub step: u64,
    pub kind: DetectorKind,
    /// Implicated rank, when the detector can name one.
    pub rank: Option<u32>,
    /// The observed statistic (factor, ratio, count — see `kind`).
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
}

// Detection thresholds. They are deliberately loose: they stay silent
// on clean balanced runs (test-enforced) while catching the 2–4×
// anomalies worth waking an operator for.

/// Steps used purely to train baselines; no detector fires before this
/// many steps have been observed.
pub const WARMUP: u64 = 2;
/// Rolling-window length for the comm-byte mean.
pub const WINDOW: usize = 8;
/// Straggler fires when PP-cost-per-interaction max/mean exceeds this.
pub const STRAGGLER_FACTOR: f64 = 2.0;
/// Comm spike fires when step bytes exceed this × rolling mean.
pub const COMM_SPIKE_FACTOR: f64 = 3.0;
/// Imbalance drift arms above this factor…
pub const IMBALANCE_LIMIT: f64 = 1.5;
/// …and fires after this many consecutive armed steps.
pub const IMBALANCE_STEPS: usize = 3;
/// Efficiency collapse fires below this × rolling-peak rate.
pub const EFFICIENCY_FLOOR: f64 = 0.4;

/// The world-wide signal vector for one completed step (what
/// [`Monitor::observe_step`] allgathers; exposed so tests and offline
/// replays can feed [`Monitor::record`] directly).
#[derive(Debug, Clone)]
pub struct StepSignals {
    /// Per-rank balancer-visible PP walk cost (virtual seconds when
    /// the solver charges modeled cost).
    pub pp_cost: Vec<f64>,
    /// Per-rank comm bytes sent during the step.
    pub comm_bytes: Vec<f64>,
    /// Per-rank PP interactions this step.
    pub interactions: Vec<f64>,
    /// Step duration: max virtual-clock advance across ranks.
    pub elapsed_s: f64,
    /// World total of injected-fault counter deltas (drops + retries +
    /// delays) this step.
    pub faulty_messages: f64,
}

/// Per-rank rolling detector state (every rank holds an identical copy
/// because the signals are allgathered).
#[derive(Debug)]
pub struct Monitor {
    steps_seen: u64,
    alerts: Vec<Alert>,
    counts: [u64; DetectorKind::ALL.len()],
    // --- per-rank deltas (this rank's previous absolutes) ---
    prev_bytes: f64,
    prev_faulty: f64,
    prev_vtime: f64,
    // --- rolling world state ---
    bytes_window: VecDeque<f64>,
    eff_peak: f64,
    imb_streak: usize,
    // --- last observed values (published as gauges) ---
    last_factor: f64,
    last_bytes: f64,
    last_rate: f64,
    /// Cross-rank distribution sketches, fed from the same allgathered
    /// signal vector the detectors consume: every per-rank pp-cost,
    /// comm-byte and interaction sample folds into a mergeable
    /// [`Rollup`], so quantiles-over-ranks survive at any p with
    /// bounded memory (DESIGN.md §18).
    rollup: Rollup,
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    pub fn new() -> Self {
        Monitor {
            steps_seen: 0,
            alerts: Vec::new(),
            counts: [0; DetectorKind::ALL.len()],
            prev_bytes: 0.0,
            prev_faulty: 0.0,
            prev_vtime: 0.0,
            bytes_window: VecDeque::new(),
            eff_peak: 0.0,
            imb_streak: 0,
            last_factor: 1.0,
            last_bytes: 0.0,
            last_rate: 0.0,
            rollup: Rollup::default(),
        }
    }

    /// Collective: gather this step's per-rank signals and run the
    /// detectors. Call once per completed step, on every rank, right
    /// after `ParallelTreePm::step` (or from a `ResilientSim::run_with`
    /// hook). The allgather is tiny (5 f64 per rank) but collective.
    pub fn observe_step(
        &mut self,
        ctx: &mut Ctx,
        world: &Comm,
        sim: &ParallelTreePm,
        stats: &ParallelStepStats,
    ) {
        let vtime = ctx.vtime();
        let comm = ctx.comm_stats();
        let bytes = comm.bytes_sent as f64;
        let faulty = {
            // All zero without a plan.
            let fs = ctx.fault_stats();
            (fs.messages_dropped + fs.retries + fs.messages_delayed) as f64
        };
        let mine = vec![
            sim.last_pp_cost(),
            bytes - self.prev_bytes,
            stats.breakdown.interactions() as f64,
            vtime - self.prev_vtime,
            faulty - self.prev_faulty,
        ];
        self.prev_bytes = bytes;
        self.prev_faulty = faulty;
        self.prev_vtime = vtime;
        let all = world.allgather(ctx, mine);
        let field = |i: usize| all.iter().map(move |per_rank| per_rank[i]);
        let signals = StepSignals {
            pp_cost: field(0).collect(),
            comm_bytes: field(1).collect(),
            interactions: field(2).collect(),
            elapsed_s: field(3).fold(0.0f64, f64::max),
            faulty_messages: field(4).sum(),
        };
        self.record(&signals);
    }

    /// Pure detector core: consume one step's world signals. Split out
    /// from [`Monitor::observe_step`] so tests can drive synthetic
    /// series without a simulated world.
    pub fn record(&mut self, sig: &StepSignals) {
        let step = self.steps_seen;
        self.steps_seen += 1;
        let warm = step >= WARMUP;

        // Fold every per-rank sample into the cross-rank sketches —
        // this is the bounded-memory replacement for keeping per-rank
        // series, and it rides the allgather the detectors already pay
        // for. The step duration gets one sample per step.
        for i in 0..sig.pp_cost.len() {
            self.rollup.observe("pp_cost", sig.pp_cost[i]);
            self.rollup.observe("comm_bytes", sig.comm_bytes[i]);
            self.rollup.observe("interactions", sig.interactions[i]);
        }
        self.rollup.observe("step_elapsed_s", sig.elapsed_s);

        // Straggler: per-interaction PP cost skew (balancer-immune — a
        // slow node stays slow per interaction no matter how small its
        // slab gets). Only ranks that did work participate.
        let per_int: Vec<f64> = sig
            .pp_cost
            .iter()
            .zip(&sig.interactions)
            .filter(|&(_, &i)| i > 0.0)
            .map(|(&c, &i)| c / i)
            .collect();
        let norm_factor = imbalance_factor(&per_int);
        if warm && norm_factor > STRAGGLER_FACTOR {
            let slowest = sig
                .pp_cost
                .iter()
                .zip(&sig.interactions)
                .map(|(&c, &i)| if i > 0.0 { c / i } else { 0.0 })
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(r, _)| r as u32);
            self.fire(
                step,
                DetectorKind::Straggler,
                slowest,
                norm_factor,
                STRAGGLER_FACTOR,
            );
        }

        // Raw PP-cost skew — the balancer's own view (drift detector
        // and published gauge).
        let factor = imbalance_factor(&sig.pp_cost);
        self.last_factor = factor;

        // Imbalance drift: sustained skew. Fires once per excursion
        // (re-arms when the factor drops back under the limit).
        if factor > IMBALANCE_LIMIT {
            self.imb_streak += 1;
            if warm && self.imb_streak == IMBALANCE_STEPS {
                self.fire(
                    step,
                    DetectorKind::ImbalanceDrift,
                    None,
                    factor,
                    IMBALANCE_LIMIT,
                );
            }
        } else {
            self.imb_streak = 0;
        }

        // Comm spike: step bytes vs rolling mean.
        let bytes: f64 = sig.comm_bytes.iter().sum();
        self.last_bytes = bytes;
        if warm && !self.bytes_window.is_empty() {
            let mean = self.bytes_window.iter().sum::<f64>() / self.bytes_window.len() as f64;
            if mean > 0.0 && bytes > COMM_SPIKE_FACTOR * mean {
                self.fire(
                    step,
                    DetectorKind::CommSpike,
                    None,
                    bytes / mean,
                    COMM_SPIKE_FACTOR,
                );
            }
        }
        self.bytes_window.push_back(bytes);
        while self.bytes_window.len() > WINDOW {
            self.bytes_window.pop_front();
        }

        // Comm fault: any injected transport fault is anomalous.
        if sig.faulty_messages > 0.0 {
            self.fire(
                step,
                DetectorKind::CommFault,
                None,
                sig.faulty_messages,
                0.0,
            );
        }

        // Efficiency collapse: aggregate interaction rate vs rolling peak.
        if sig.elapsed_s > 0.0 {
            let total_interactions: f64 = sig.interactions.iter().sum();
            let rate = total_interactions / sig.elapsed_s;
            self.last_rate = rate;
            if warm && self.eff_peak > 0.0 && rate < EFFICIENCY_FLOOR * self.eff_peak {
                self.fire(
                    step,
                    DetectorKind::EfficiencyCollapse,
                    None,
                    rate / self.eff_peak,
                    EFFICIENCY_FLOOR,
                );
            }
            self.eff_peak = self.eff_peak.max(rate);
        }
    }

    fn fire(
        &mut self,
        step: u64,
        kind: DetectorKind,
        rank: Option<u32>,
        value: f64,
        threshold: f64,
    ) {
        let idx = DetectorKind::ALL.iter().position(|k| *k == kind).unwrap();
        self.counts[idx] += 1;
        greem_obs::trace::instant(
            "analysis",
            kind.instant_name(),
            &[
                ("step", step as f64),
                ("value", value),
                ("threshold", threshold),
                ("rank", rank.map_or(-1.0, |r| r as f64)),
            ],
        );
        self.alerts.push(Alert {
            step,
            kind,
            rank,
            value,
            threshold,
        });
    }

    /// Everything that fired, in step order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Total alerts across all detectors.
    pub fn alert_total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Alerts of one kind.
    pub fn count(&self, kind: DetectorKind) -> u64 {
        let idx = DetectorKind::ALL.iter().position(|k| *k == kind).unwrap();
        self.counts[idx]
    }

    /// Steps observed so far.
    pub fn steps_seen(&self) -> u64 {
        self.steps_seen
    }

    /// The cross-rank signal sketches accumulated so far (`pp_cost`,
    /// `comm_bytes`, `interactions` keyed per rank-sample;
    /// `step_elapsed_s` keyed per step).
    pub fn rollup(&self) -> &Rollup {
        &self.rollup
    }

    /// Publish `analysis_*` series into a registry: one
    /// `analysis_alerts_total{detector=…}` counter per detector
    /// (zero-valued when silent) plus last-value gauges.
    pub fn publish(&self, reg: &mut greem_obs::Registry) {
        for (idx, kind) in DetectorKind::ALL.iter().enumerate() {
            reg.with_label("detector", kind.name(), |r| {
                r.counter_add("analysis_alerts_total", self.counts[idx] as f64);
            });
        }
        reg.gauge_set("analysis_steps_observed", self.steps_seen as f64);
        reg.gauge_set("analysis_pp_imbalance_factor", self.last_factor);
        reg.gauge_set("analysis_comm_bytes_per_step", self.last_bytes);
        reg.gauge_set("analysis_interactions_per_vsecond", self.last_rate);
        // Cross-rank distribution quantiles, one labeled series per
        // allgathered signal.
        for (name, sk) in self.rollup.iter() {
            reg.with_label("signal", name, |r| {
                r.gauge_set("analysis_signal_p50", sk.quantile(0.50).unwrap_or(0.0));
                r.gauge_set("analysis_signal_p95", sk.quantile(0.95).unwrap_or(0.0));
                r.gauge_set("analysis_signal_p99", sk.quantile(0.99).unwrap_or(0.0));
                r.gauge_set("analysis_signal_max", sk.max().unwrap_or(0.0));
            });
        }
    }
}

impl greem_obs::Observe for Monitor {
    fn observe(&self, reg: &mut greem_obs::Registry) {
        self.publish(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(ranks: usize) -> StepSignals {
        StepSignals {
            pp_cost: vec![1.0; ranks],
            comm_bytes: vec![1000.0; ranks],
            interactions: vec![2.5e5; ranks],
            elapsed_s: 1.0,
            faulty_messages: 0.0,
        }
    }

    #[test]
    fn clean_series_stays_silent() {
        let mut m = Monitor::new();
        for _ in 0..20 {
            m.record(&clean(4));
        }
        assert_eq!(m.alert_total(), 0);
        assert_eq!(m.steps_seen(), 20);
    }

    #[test]
    fn straggler_and_drift_fire_on_sustained_skew() {
        let mut m = Monitor::new();
        for _ in 0..4 {
            m.record(&clean(4));
        }
        let mut skew = clean(4);
        skew.pp_cost = vec![1.0, 4.0, 1.0, 1.0]; // factor 2.29
        for _ in 0..4 {
            m.record(&skew);
        }
        assert!(m.count(DetectorKind::Straggler) >= 1);
        let s = m
            .alerts()
            .iter()
            .find(|a| a.kind == DetectorKind::Straggler)
            .unwrap();
        assert_eq!(s.rank, Some(1));
        // Drift fires exactly once per excursion.
        assert_eq!(m.count(DetectorKind::ImbalanceDrift), 1);
    }

    #[test]
    fn warmup_suppresses_early_fires() {
        let mut m = Monitor::new();
        let mut skew = clean(4);
        skew.pp_cost = vec![1.0, 10.0, 1.0, 1.0];
        m.record(&skew);
        m.record(&skew);
        assert_eq!(
            m.count(DetectorKind::Straggler),
            0,
            "warmup steps never fire"
        );
        m.record(&skew);
        assert!(m.count(DetectorKind::Straggler) >= 1);
    }

    #[test]
    fn comm_spike_fires_against_rolling_mean() {
        let mut m = Monitor::new();
        for _ in 0..6 {
            m.record(&clean(4));
        }
        let mut spike = clean(4);
        spike.comm_bytes = vec![5000.0; 4]; // 5× the rolling mean
        m.record(&spike);
        assert_eq!(m.count(DetectorKind::CommSpike), 1);
        // Back to normal: silent again.
        m.record(&clean(4));
        assert_eq!(m.count(DetectorKind::CommSpike), 1);
    }

    #[test]
    fn efficiency_collapse_fires_against_rolling_peak() {
        let mut m = Monitor::new();
        for _ in 0..6 {
            m.record(&clean(4));
        }
        let mut slow = clean(4);
        slow.elapsed_s = 4.0; // same work, 4× the time → 25 % of peak rate
        m.record(&slow);
        assert_eq!(m.count(DetectorKind::EfficiencyCollapse), 1);
    }

    #[test]
    fn rollup_accumulates_cross_rank_distributions() {
        let mut m = Monitor::new();
        for _ in 0..10 {
            let mut sig = clean(8);
            sig.pp_cost[3] = 4.0; // one hot rank every step
            m.record(&sig);
        }
        let r = m.rollup();
        let pp = r.get("pp_cost").expect("pp_cost sketch");
        assert_eq!(pp.count(), 80, "one sample per rank per step");
        assert_eq!(r.get("step_elapsed_s").unwrap().count(), 10);
        // p50 sees the 1.0 bulk; max catches the hot rank exactly.
        let p50 = pp.quantile(0.5).unwrap();
        assert!((p50 - 1.0).abs() <= pp.alpha() * 1.0 + 1e-12);
        assert_eq!(pp.max(), Some(4.0));
        // The whole per-signal state stays tiny — that is the point.
        assert!(r.summary_bytes() < 2048);
    }

    #[test]
    fn transport_faults_always_fire() {
        let mut m = Monitor::new();
        let mut flaky = clean(4);
        flaky.faulty_messages = 3.0;
        m.record(&flaky);
        assert_eq!(m.count(DetectorKind::CommFault), 1);
    }
}
