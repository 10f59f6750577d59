//! `greem_analysis`: turning telemetry into verdicts.
//!
//! The paper's headline claims are *analysis* numbers — 49 %/42 % of
//! peak, the Table I per-phase breakdown, the fig. 5 relay timeline.
//! `greem_obs` records the raw material (virtual-clock span traces,
//! counters); this crate closes the loop with three layers:
//!
//! * **Offline trace analysis** ([`segments`], [`critpath`],
//!   [`imbalance`], [`efficiency`]): fold a captured [`Event`] stream
//!   into per-rank leaf segments on the virtual clock, then compute the
//!   critical path (which rank's chain of compute spans and comm waits
//!   determines the makespan, and which phases sit on it), per-rank
//!   per-phase load-imbalance factors (max/mean — the same shape the
//!   domain balancer reacts to), and measured-vs-model efficiency
//!   (51-flop Gflops against `KMachine` peak and the `TableOne`
//!   prediction, reported as %-of-peak like the paper's Table I).
//! * **Online detectors** ([`detect`]): a rolling per-step [`Monitor`]
//!   that rides inside `ParallelTreePm`/`ResilientSim` step loops,
//!   allgathers each rank's balancer-visible cost plus comm/fault
//!   deltas, and fires straggler / comm-spike / imbalance-drift /
//!   efficiency-collapse / comm-fault alerts, published as
//!   `analysis_*` registry series and `analysis.*` trace instants.
//! * **Adaptive trace retention** ([`retain`]): at full-machine scale
//!   only a sampled rank set keeps its complete span stream — always
//!   the critical-path rank, every detector-flagged rank, plus K
//!   seeded-random controls, capped at 8 — while every other rank's
//!   spans fold into mergeable duration sketches
//!   ([`greem_obs::sketch`]) as the trace drains (DESIGN.md §18).
//! * **Regression gate** ([`regress`]): a metric schema with explicit
//!   noise tolerances and better/worse directions, serialized to the
//!   committed `baselines/*.json` store and compared by
//!   `harness regress`, which exits nonzero on any gated regression.
//!
//! DESIGN.md §13 documents the definitions and thresholds.
//!
//! [`Event`]: greem_obs::Event
//! [`Monitor`]: detect::Monitor

#![forbid(unsafe_code)]

pub mod critpath;
pub mod detect;
pub mod efficiency;
pub mod imbalance;
pub mod regress;
pub mod retain;
pub mod segments;

pub use critpath::{critical_path, CriticalPath, PhasePath};
pub use detect::{Alert, DetectorKind, Monitor, StepSignals};
pub use efficiency::{efficiency, efficiency_at, Efficiency};
pub use imbalance::{imbalance_factor, phase_imbalance, PhaseImbalance};
pub use regress::{compare, Baseline, Comparison, Direction, Finding, MetricSpec, Verdict};
pub use retain::{fold_events, select_ranks};
pub use segments::{leaf_segments, Segment};
