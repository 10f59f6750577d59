//! # mpisim — a simulated MPI-like message-passing runtime
//!
//! The paper runs GreeM on up to 82944 nodes of the K computer over MPI.
//! This workspace has no supercomputer, so `mpisim` provides the
//! substrate: a rank-per-thread SPMD runtime whose API mirrors the MPI
//! subset the paper uses —
//!
//! * communicators, including [`Comm::split`] (the paper builds
//!   `COMM_FFT`, `COMM_SMALLA2A` and `COMM_REDUCE` with
//!   `MPI_Comm_split`, §II-B),
//! * point-to-point [`Ctx::send`] / [`Ctx::recv`] with `(source, tag)`
//!   matching,
//! * the collectives GreeM calls: `Alltoallv`, `Reduce`, `Bcast`,
//!   `Allreduce`, `Gather`, `Allgather`, `Barrier`.
//!
//! ## Virtual time and the network cost model
//!
//! Every rank carries a deterministic *virtual clock*. Message transfers
//! advance it according to a LogGP-flavoured model of a 3-D torus
//! (K computer's Tofu is a 6-D torus; three of the dimensions are fixed
//! at 2 and it is programmed as a 3-D torus, which is also how the paper
//! maps its 32×54×48 process grid onto physical node coordinates):
//!
//! * a per-message latency proportional to the torus hop distance,
//! * sender injection occupancy (a rank's sends serialise),
//! * **receiver drain occupancy** (a rank's receives serialise at its
//!   network port) — this is the term that makes "an FFT process receives
//!   the local mesh from ~4000 processes" slow, i.e. the congestion the
//!   relay mesh method (§II-B) was invented to avoid.
//!
//! The model is deterministic: occupancy is resolved in each rank's own
//! program order, never by host-thread racing, so simulated timings are
//! reproducible run-to-run regardless of OS scheduling. Real wall-clock
//! time is unaffected by the model; virtual time is read with
//! [`Ctx::vtime`] and is the quantity our relay-mesh benchmarks report.

//!
//! ## Fault injection (feature `faults`)
//!
//! With the `faults` feature (on by default) a world can carry a seeded
//! [`FaultPlan`] — rank crashes at a given step, message drops/delays,
//! straggler slowdowns — whose schedule is replayable bit-for-bit from
//! the seed. See [`fault`] for the model; `greem_resil` builds the
//! detection/rollback machinery on top. Without the feature every hook
//! compiles out; without a plan each hook costs one `Option` branch.
//!
//! ## Virtual scaling (phantom mode)
//!
//! Thread-per-rank tops out around 64 ranks; the paper's runs are at
//! 24576 and 82944. A declarative [`Script`] (compute charges +
//! collectives) can instead run on a [`World::with_phantoms`] world: a
//! single-threaded event engine replays the cost schedule for every
//! rank with payloads elided (bytes/hops/vtime preserved), making
//! full-machine worlds cheap while staying **bitwise identical** to
//! the threaded runtime — see [`script`] and DESIGN.md §16.

#![forbid(unsafe_code)]

pub(crate) mod clock;
pub mod comm;
pub mod ctx;
pub(crate) mod engine;
#[cfg(feature = "faults")]
pub mod fault;
pub mod netmodel;
pub mod script;
pub mod topology;
pub mod world;

pub use comm::Comm;
pub use ctx::{CommStats, Ctx};
#[cfg(feature = "faults")]
pub use fault::{FaultPlan, FaultStats, MsgFault, RetryPolicy};
pub use netmodel::NetModel;
pub use script::{EngineReport, RankTimeline, Script, ScriptOutcome};
pub use topology::Torus3d;
pub use world::World;
