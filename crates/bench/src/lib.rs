//! # greem-bench — the experiment harness
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
//! committed `baselines/*.json` by the one `gate` module. The repo
//! benchmark (`benchmark/`) times end-to-end workloads; everything
//! measured below it — kernel, walk, transforms — is a harness command.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod gate;
pub mod regress;
pub mod trace;
pub mod workloads;
