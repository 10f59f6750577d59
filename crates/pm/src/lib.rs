//! # greem-pm — the particle-mesh long-range gravity solver
//!
//! Implements the PM half of the TreePM split exactly as the paper's
//! five-step cycle (§II-B):
//!
//! 1. **Density assignment** — each process assigns its particles' mass
//!    to its *local mesh* (own domain plus ghost layers) with the TSC
//!    scheme, "where a particle interacts with 27 grid points".
//! 2. **Conversion to slabs** — the 3-D-distributed local meshes are
//!    combined into the 1-D slab decomposition of the FFT processes,
//!    either by one global `Alltoallv` ([`convert`], the straightforward
//!    method) or by the paper's novel **relay mesh method** ([`relay`]):
//!    a group-local `Alltoallv` followed by a `Reduce` across groups.
//! 3. **FFT + Green's function** — the slab FFT (`RealFft3::convolve`
//!    distributed, same bits) solves the Poisson equation with the
//!    S2-shaped long-range Green's function ([`greens`]).
//! 4. **Conversion back** — slab potential to each process's ghosted
//!    local mesh (again direct or relayed, with `Bcast` replacing
//!    `Reduce` on the way out).
//! 5. **Differencing + interpolation** — the 4-point finite difference
//!    gives accelerations on the local mesh, interpolated to particle
//!    positions with TSC: one sweep over the mesh's x-planes that keeps
//!    three differenced planes at a time, never a whole acceleration
//!    mesh.
//!
//! [`serial::PmSolver`] runs the whole cycle in one address space (the
//! reference and single-rank path) on the real ↔ half-complex transform,
//! for either boundary: [`PmSolver::new`] on the periodic torus, and
//! [`PmSolver::isolated`] in open space on a `2n`-padded mesh
//! ([`isolated`], James' method). [`parallel::ParallelPm`] runs the
//! periodic cycle over `mpisim` with per-phase timings matching the
//! paper's Table I rows.

#![forbid(unsafe_code)]

pub mod convert;
pub mod greens;
pub mod isolated;
pub mod layout;
mod mesh;
pub mod parallel;
pub mod relay;
pub mod serial;
pub mod tsc;

pub use greens::GreensFn;
pub use isolated::IsolatedPmSolver;
pub use layout::{CellBox, LocalMesh};
pub use parallel::{ParallelPm, ParallelPmConfig, PmPhaseTimes};
pub use serial::{PmParams, PmResult, PmSolver};
