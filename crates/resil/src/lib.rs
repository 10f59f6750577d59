//! # greem-resil — fault tolerance for the parallel TreePM driver
//!
//! The K computer runs behind the reproduced paper held ~82944 nodes
//! for days; at that scale component failure is a scheduling fact, not
//! an exception. This crate closes the loop the solver crates leave
//! open: it *injects* faults deterministically, *detects* them, and
//! *recovers* from them — all inside `mpisim`'s virtual clock, so every
//! experiment is replayable from a seed.
//!
//! Three layers:
//!
//! * **Fault injection** lives in `mpisim` itself (feature `faults`,
//!   re-exported here): a seeded [`FaultPlan`] crashes ranks at chosen
//!   steps, drops/delays messages with chosen probabilities, and slows
//!   ranks down by a straggler factor. Hooks compile out entirely
//!   without the feature, and a plan-free world pays one `Option`
//!   branch.
//! * **Sharded checkpoints** ([`ckpt`]): the single-file snapshot
//!   becomes per-rank shards plus a manifest with per-shard checksums
//!   (all `greem::io` containers), written atomically, manifest last,
//!   with a fallback loop over older generations when a shard is
//!   corrupt.
//! * **Detection + recovery** ([`recover`]): [`ResilientSim`] wraps
//!   [`greem::ParallelTreePm`] with a health-check / rollback-restart
//!   loop and reports [`RecoveryStats`]. With modelled PP cost
//!   (`TreePmConfig::modeled_pp_cost`) the recovered trajectory is
//!   bitwise identical to an uninterrupted run.
//!
//! `DESIGN.md` §12 documents the resilience model; the `chaos`
//! experiment in `greem-bench` drives crash / straggler / drop
//! scenarios end to end.

#![forbid(unsafe_code)]

pub mod ckpt;
pub mod recover;

pub use ckpt::{
    list_generations, load_sharded, read_manifest, read_shard, write_manifest, write_shard,
    write_sharded, CkptError, Manifest, ShardMeta,
};
pub use mpisim::{FaultPlan, FaultStats, MsgFault, RetryPolicy};
pub use recover::{aggregate, RecoveryStats, ResilConfig, ResilError, ResilientSim};
