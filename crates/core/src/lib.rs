//! # greem — a GreeM-style massively parallel TreePM library
//!
//! The primary contribution of the reproduced paper (Ishiyama, Nitadori
//! & Makino, SC12): a hybrid **TreePM** gravity solver in which the
//! short-range force is computed by a Barnes-Hut tree with the S2 cutoff
//! of eq. (1)–(3) and the long-range force by a slab-FFT particle-mesh
//! solver, coupled to
//!
//! * Barnes' modified group traversal with the highly-optimised
//!   particle-particle kernel (`greem-kernels`),
//! * the sampling-method load balancer over a 3-D multisection domain
//!   decomposition (`greem-domain`),
//! * the relay-mesh communication schedule for the PM mesh conversions
//!   (`greem-pm`),
//! * the multiple-stepsize kick-drift-kick integrator — one PM (long-
//!   range) cycle and two PP (short-range) + domain-decomposition cycles
//!   per step (§III-A),
//! * comoving (cosmological) dynamics via the kick/drift factors of
//!   `greem-cosmo`.
//!
//! One driver runs the step at any rank count, as the paper's code is
//! one program from one process to the whole machine:
//! [`ParallelTreePm`] distributes particles over `mpisim` ranks (the
//! "MPI" half of the paper's MPI/OpenMP hybrid) and reports the
//! per-phase cost breakdown of the paper's Table I. Its one-rank form
//! owns the whole box — [`Simulation`] is that form with no `mpisim`
//! context to pass — and runs [`TreePm`]'s serial mesh and rayon
//! data-parallel group walks (the "OpenMP" half).

#![forbid(unsafe_code)]

pub mod config;
pub mod diagnostics;
pub mod forces;
pub mod halos;
pub mod integrator;
pub mod io;
pub mod parallel;
pub mod particle;
pub mod resident;
pub mod simulation;
pub mod stats;
pub mod store;

pub use config::{Boundary, TreePmConfig};
pub use diagnostics::{projected_density, Snapshot};
pub use forces::{ForceResult, TreePm};
pub use halos::{find_halos, friends_of_friends, Halo};
pub use io::{read_snapshot, write_snapshot, SnapshotError, SnapshotHeader};
pub use parallel::{ParallelStepStats, ParallelTreePm, RankState};
pub use particle::Body;
pub use resident::ResidentPp;
pub use simulation::{Simulation, SimulationMode};
pub use stats::StepBreakdown;
pub use store::{ParticleStore, PermScratch};
