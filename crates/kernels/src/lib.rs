//! # greem-kernels — optimised particle-particle force loops
//!
//! "Most of the CPU time is spent for the evaluation of the
//! particle-particle interactions. Therefore we have developed a highly
//! optimized loop for that part." (§II-A)
//!
//! The paper's loop is **Phantom-GRAPE** ported to the HPC-ACE SIMD
//! architecture of K computer: the cutoff polynomial of eq. (3)
//! restructured for FMA, forces from 4 particles to 4 particles per
//! iteration, an 8-bit approximate reciprocal square root refined by a
//! third-order step, 51 flops per interaction, and 11.65 of a 12 Gflops
//! theoretical bound (97 %) on an O(N²) kernel benchmark.
//!
//! This crate rebuilds that layer as a kernel *family* behind one-time
//! runtime dispatch (see DESIGN.md §11):
//!
//! * [`SourceList`] — structure-of-arrays interaction lists (the "j"
//!   particles: tree nodes' centres of mass and nearby particles),
//! * [`scalar`] — the obviously-correct f64 reference kernel built
//!   directly on [`greem_math::ForceSplit`]: the oracle and the opt-out,
//! * [`phantom`] — the portable blocked 4×4 kernel with the
//!   approximate-rsqrt pipeline, written fully branchless so LLVM's
//!   auto-vectoriser sees straight-line FMA-friendly lanes; the
//!   guaranteed fallback on every host,
//! * [`x86`] — the explicit-intrinsics kernel in the paper's single
//!   precision: one conversion pass per call (origin-relative, ξ units,
//!   f32 staging with a checked range contract), then one
//!   software-pipelined interaction body (four sources in flight
//!   against a target vector, stage by stage) instantiated at the
//!   register file's width — AVX2+FMA (8 lanes, `vrsqrtps` seed
//!   standing in for the paper's `frsqrta`, compare/AND mask) and
//!   AVX-512 (16 lanes, `vrsqrt14ps` seed, `k`-register mask),
//! * [`dispatch`] — CPU-feature detection resolved once per process
//!   ([`pp_accel_dispatch`]); force a variant with the
//!   `GREEM_PP_KERNEL` env var (`scalar`/`portable`/`avx2`/`avx512`)
//!   or compile the intrinsics out with the `portable-only` cargo
//!   feature,
//! * [`newton`] — the same structure without the cutoff (pure tree /
//!   direct-summation baselines),
//! * [`benchmark`] — the O(N²) kernel benchmark of §II-A, reporting
//!   every available variant's interactions/s and the paper's
//!   51-flops/interaction flop rate side by side, and for the
//!   explicit-SIMD variants the bound their counted FMA/non-FMA mix
//!   sets and the measured fraction of it.

pub mod benchmark;
pub mod dispatch;
pub mod newton;
pub mod phantom;
pub mod scalar;
pub mod sources;
pub mod testutil;
pub mod x86;

pub use benchmark::{
    bytes_per_interaction, kernel_benchmark, KernelBenchReport, OpMix, VariantBench,
};
pub use dispatch::{
    available_variants, pp_accel_dispatch, pp_accel_variant, selected_variant, KernelVariant,
};
pub use newton::{newton_accel_blocked, newton_accel_scalar};
pub use phantom::pp_accel_phantom;
pub use scalar::pp_accel_scalar;
pub use sources::{SourceList, Targets};

/// Count of pairwise interactions, used for the paper's flop accounting
/// (51 flops each — [`greem_math::FLOPS_PER_INTERACTION`]).
pub type InteractionCount = u64;
