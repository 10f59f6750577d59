//! `greem_obs`: the unified observability subsystem.
//!
//! The paper's whole performance argument is a per-phase cost breakdown
//! (Table I) plus per-rank communication timelines; this crate is the
//! measurement substrate that produces both from one instrumentation layer:
//!
//! * [`trace`] — a low-overhead span/event tracer. Each thread records into
//!   a thread-local ring buffer; spans carry a wall-clock timestamp and,
//!   when the thread is an `mpisim` rank, that rank's *virtual* clock, so a
//!   simulated multi-rank run yields a real per-rank timeline.
//! * [`metrics`] — a registry of counters/gauges/histograms with fixed
//!   label sets. Existing stats structs (`CommStats`,
//!   `WalkStats`, `StepBreakdown`, …) feed it through the [`Observe`]
//!   trait, unifying them under one schema.
//! * [`sketch`] — mergeable log-bucketed quantile sketches ([`DdSketch`])
//!   and keyed families of them ([`sketch::Rollup`]): the bounded-memory
//!   cross-rank per-phase distribution machinery that replaces
//!   keep-every-span telemetry at full-machine scale (DESIGN.md §18).
//! * [`flight`] — a bounded flight recorder of recent spans + metric
//!   lines that dumps a post-mortem bundle when a fault fires or a
//!   detector trips.
//! * [`export`] — exporters: Chrome-trace/Perfetto JSON (one "process" per
//!   simulated rank), a folded-stack flamegraph exporter, a step-report
//!   JSONL stream, and human text tables.
//! * [`json`] — a dependency-free JSON writer and a minimal parser used by
//!   the exporters and by tests/CI that validate emitted files.
//! * [`clock`] — the `Clock` seam (wall vs manual): lets the service
//!   layer's paced loops run deterministically in tests.
//!
//! Every build compiles all of it in; [`trace::enable`] is the one switch,
//! and with recording off a span costs one relaxed load plus the clock
//! read that also times its Table I row.

#![forbid(unsafe_code)]

pub mod clock;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod sketch;
pub mod trace;

pub use clock::{Clock, ManualClock, WallClock};
pub use flight::{FlightRecorder, FlightVerdict};
pub use metrics::{Observe, Registry};
pub use sketch::{DdSketch, Rollup};
pub use trace::{Event, Span};
