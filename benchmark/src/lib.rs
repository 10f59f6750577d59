//! The repo benchmark (see `benchmark/README.md`): four fixed-trajectory
//! workloads over the public API of the `crates/*` layers, end-to-end
//! metrics from untraced runs, and a per-layer ledger from a traced run
//! whose spans are recorded here, around the calls into each crate.

pub mod cli;
pub mod compare;
pub mod host;
pub mod hostspeed;
pub mod inputs;
pub mod measure;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod serve;
pub mod solver;
pub mod spec;
pub mod workloads;
