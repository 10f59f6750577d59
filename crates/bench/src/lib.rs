//! # greem-bench — experiment harness and benchmarks
//!
//! One module per table/figure of the paper's evaluation (see
//! `DESIGN.md` §4 for the experiment index). The `harness` binary
//! drives them:
//!
//! ```text
//! cargo run --release -p greem-bench --bin harness -- <experiment>
//! ```
//!
//! (`harness --help` lists them). Four of them are judged against the
//! committed `baselines/*.json` by the one `gate` module. Criterion benches
//! live under `benches/`.

#![forbid(unsafe_code)]

pub mod experiments;
#[cfg(feature = "obs")]
pub mod gate;
#[cfg(feature = "obs")]
pub mod regress;
pub mod trace;
pub mod workloads;
