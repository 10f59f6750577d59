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
//! 3. **FFT + Green's function** — the slab FFT solves the Poisson
//!    equation with the S2-shaped long-range Green's function
//!    ([`greens`]).
//! 4. **Conversion back** — slab potential to each process's ghosted
//!    local mesh (again direct or relayed, with `Bcast` replacing
//!    `Reduce` on the way out).
//! 5. **Differencing + interpolation** — the 4-point finite difference
//!    gives accelerations on the local mesh, interpolated to particle
//!    positions with TSC.
//!
//! [`serial::PmSolver`] runs the whole cycle in one address space (the
//! reference and single-rank path); [`parallel::ParallelPm`] runs it over
//! `mpisim` with per-phase timings matching the paper's Table I rows.

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

use greem_math::Vec3;

/// The serial PM cycle as a backend-agnostic pipeline, so the force
/// engine can swap boundary conditions without touching its phase
/// structure. Implemented by [`PmSolver`] (periodic torus, the paper's
/// setup) and [`IsolatedPmSolver`] (James'-method zero-padded open
/// space). The meshes never leave the backend — the isolated one's are
/// 8× larger, which callers never see.
pub trait PmPipeline: Send + Sync {
    /// The full cycle — assignment, potential, differencing,
    /// interpolation — with the wall seconds of each of the four.
    fn solve_timed(&self, pos: &[Vec3], mass: &[f64]) -> (PmResult, PmPhaseTimes);
}

/// Run one phase of a cycle under its Table I span (category `force` in
/// the serial solvers, `pm` in the distributed one), adding its wall
/// seconds to `slot`.
fn timed_phase<T>(
    cat: &'static str,
    name: &'static str,
    slot: &mut f64,
    phase: impl FnOnce() -> T,
) -> T {
    #[cfg(feature = "obs")]
    let _span = greem_obs::trace::span(cat, name);
    #[cfg(not(feature = "obs"))]
    let _ = (cat, name);
    let t0 = std::time::Instant::now();
    let out = phase();
    *slot += t0.elapsed().as_secs_f64();
    out
}
