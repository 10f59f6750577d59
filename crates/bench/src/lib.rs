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
//! with `<experiment>` one of `table1`, `fig1` … `fig6`, `kernel`,
//! `ni_sweep`, `accuracy`, `tree_vs_treepm`, `scaling`, or `all`.
//! Criterion benches live under `benches/`.

#![forbid(unsafe_code)]

pub mod experiments;
#[cfg(feature = "obs")]
pub mod regress;
pub mod trace;
pub mod workloads;
