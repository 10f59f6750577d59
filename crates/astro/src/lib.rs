//! # greem-astro — isolated-system scenarios on the TreePM stack
//!
//! The core library reproduces the paper's *cosmological* TreePM: a
//! periodic unit box, comoving coordinates, Ewald-summed forces. This
//! crate points the same solver at the other classic N-body workload —
//! an **isolated** self-gravitating system — and packages it as a
//! reproducible scenario:
//!
//! * [`plummer`] — multi-species initial conditions: a compact stellar
//!   Plummer sphere inside a dark-matter halo, plus seed black holes,
//!   sampled cold (sub-virial) so the system collapses;
//! * [`scenario`] — the collapse driver: isolated-boundary gravity
//!   (James'-method open-space PM in `greem-pm`), the 4th-order Yoshida
//!   integrator, and a BH event pass (captures + FoF mergers) with
//!   exact mass/momentum conservation and energy bookkeeping;
//! * [`checkpoint`] — scenario checkpoints with bitwise
//!   rollback-restart: the core `greem::io` container with a `scenario`
//!   section beside the state and bodies.
//!
//! The `greem-run` binary (this crate) fronts both worlds: the
//! original cosmological driver and `--scenario galaxy-collapse`.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod plummer;
pub mod scenario;

pub use checkpoint::{load, resume, save, AstroCheckpoint};
pub use plummer::{galaxy_ics, GalaxyParams, N_SPECIES, SPECIES_BH, SPECIES_DM, SPECIES_STAR};
pub use scenario::{BhEvent, GalaxyCollapse, GalaxyConfig, SpeciesCensus};
