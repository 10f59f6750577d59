//! # greem-perfmodel — the K-computer cost model
//!
//! The paper's headline artifacts — Table I's per-step breakdown at
//! 24576 and 82944 nodes and the relay-mesh timing claim on 12288
//! nodes — were measured on hardware we do not have. This crate models
//! them:
//!
//! * the **particle-particle force row is predicted from first
//!   principles**: §II-A fixes the kernel at 11.65 Gflops/core
//!   (8 cores/node) and 51 flops per interaction, and Table I supplies
//!   the interaction counts; no calibration involved;
//! * rows that are pure local compute (`∝ N/p`) carry one calibrated
//!   constant each, fitted to the 24576-node column and **validated
//!   against the held-out 82944-node column** (the unit tests assert
//!   the match);
//! * communication rows use a congestion model `t = (bytes/bw)·(1 +
//!   senders/s₀)` whose single parameter is fitted to the paper's
//!   relay-mesh experiment, then reproduces the direct-vs-relay
//!   conversion ratio.
//!
//! The *functional* behaviour of every one of these algorithms also
//! runs for real in this workspace (over `mpisim`); this crate only
//! extrapolates the costs to 10240³ particles and 82944 nodes.

#![forbid(unsafe_code)]

pub mod machine;
pub mod relay;
pub mod tableone;

pub use machine::KMachine;
pub use relay::{RelayExperiment, RelayModel};
pub use tableone::{model_table, paper_table, RunShape, TableOne};
