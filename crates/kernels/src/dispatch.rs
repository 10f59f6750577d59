//! One-time runtime CPU-feature dispatch for the PP force kernel.
//!
//! The paper hand-picks its kernel for the machine (Phantom-GRAPE for
//! HPC-ACE); a portable reproduction must pick at run time. The first
//! call to [`selected_variant`] (or [`pp_accel_dispatch`]) resolves the
//! choice once and caches it:
//!
//! 1. the `GREEM_PP_KERNEL` environment variable, if set, forces a
//!    variant: `scalar`, `portable`, `avx2` or `avx512`; `auto`,
//!    `native` and `simd` mean "as if unset" (the best available).
//!    Forcing a variant the host cannot run falls back to the portable
//!    kernel with a warning on stderr;
//! 2. the `portable-only` cargo feature compiles the intrinsics module
//!    out entirely — the dispatcher then never selects either width (a
//!    compile-time guarantee for the CI fallback leg);
//! 3. otherwise, the best kernel the CPU supports: AVX-512 when
//!    `avx512f` is detected on `x86_64`, else AVX2+FMA, else the
//!    portable blocked kernel.
//!
//! Benchmarks and tests that want a *specific* kernel regardless of the
//! cached choice call [`pp_accel_variant`] directly; the dispatch tests
//! assert that the dispatched path is bitwise identical to the direct
//! call of whichever variant was selected.

use std::sync::OnceLock;

use greem_math::ForceSplit;

use crate::sources::{SourceList, Targets};
use crate::{pp_accel_phantom, pp_accel_scalar, InteractionCount};

/// The PP kernel implementations the dispatcher can choose from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// One pair at a time, exact square roots ([`pp_accel_scalar`]).
    Scalar,
    /// Portable blocked kernel with the approximate-rsqrt pipeline
    /// ([`pp_accel_phantom`]) — the guaranteed fallback.
    Portable,
    /// Explicit AVX2+FMA intrinsics kernel, 8 × f32 (`x86_64` only).
    Avx2,
    /// The same pipeline at 512 bits (`x86_64` with `avx512f` only).
    Avx512,
}

impl KernelVariant {
    /// Stable lower-case name used in reports, JSON and env forcing.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Portable => "portable",
            KernelVariant::Avx2 => "avx2",
            KernelVariant::Avx512 => "avx512",
        }
    }

    /// Can this variant run on the current host/build?
    pub fn is_available(self) -> bool {
        match self {
            KernelVariant::Scalar | KernelVariant::Portable => true,
            KernelVariant::Avx2 => x86_detected(false),
            KernelVariant::Avx512 => x86_detected(true),
        }
    }

    /// Targets processed per source-stream pass: the register-blocking
    /// factor of each implementation. The source columns are re-read
    /// once per block of this many targets — the denominator of the
    /// bytes-per-interaction model the benchmark reports.
    pub fn target_block(self) -> usize {
        match self {
            KernelVariant::Scalar => 1,
            KernelVariant::Portable => 4, // phantom.rs LANES
            // x86.rs: one target vector a block, W f32 lanes (the loop
            // is blocked over sources instead, four to a trip).
            KernelVariant::Avx2 => 8,
            KernelVariant::Avx512 => 16,
        }
    }
}

/// Are the intrinsics compiled in and the features of the 512-bit
/// (`wide`) or 256-bit x86 kernel present on this CPU? Both entry
/// points also enable `popcnt`, for the cull's count of kept sources.
fn x86_detected(wide: bool) -> bool {
    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    return std::arch::is_x86_feature_detected!("popcnt")
        && if wide {
            std::arch::is_x86_feature_detected!("avx512f")
        } else {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        };
    #[cfg(not(all(target_arch = "x86_64", not(feature = "portable-only"))))]
    return {
        let _ = wide;
        false
    };
}

/// Every variant the current host/build can actually run, fastest
/// first. Benchmarks iterate this to report side-by-side rates.
pub fn available_variants() -> Vec<KernelVariant> {
    use KernelVariant::*;
    let mut v = vec![Avx512, Avx2, Portable, Scalar];
    v.retain(|k| k.is_available());
    v
}

/// Run one specific kernel variant directly (no dispatch cache).
///
/// # Panics
///
/// Panics if `variant` is not available on this host/build (check
/// [`KernelVariant::is_available`] first).
pub fn pp_accel_variant(
    variant: KernelVariant,
    targets: &mut Targets,
    sources: &SourceList,
    split: &ForceSplit,
) -> InteractionCount {
    match variant {
        KernelVariant::Scalar => pp_accel_scalar(targets, sources, split),
        KernelVariant::Portable => pp_accel_phantom(targets, sources, split),
        KernelVariant::Avx2 | KernelVariant::Avx512 => {
            assert!(
                variant.is_available(),
                "{} kernel requested on a host or build without it",
                variant.name()
            );
            #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
            // SAFETY: `is_available` just verified `avx2` + `fma`
            // (Avx2) or `avx512f` (Avx512) on this CPU, the only
            // precondition of the matching kernel.
            unsafe {
                if variant == KernelVariant::Avx512 {
                    crate::x86::pp_accel_avx512(targets, sources, split)
                } else {
                    crate::x86::pp_accel_avx2(targets, sources, split)
                }
            }
            #[cfg(not(all(target_arch = "x86_64", not(feature = "portable-only"))))]
            unreachable!("no x86 variant is available in this build")
        }
    }
}

/// Pure selection logic, separated from the process environment so
/// tests can drive it with explicit inputs. `forced` is the value of
/// `GREEM_PP_KERNEL` (if any).
fn select(forced: Option<&str>) -> KernelVariant {
    // Fastest first, and the portable kernel is always in the list.
    let auto = available_variants()[0];
    let Some(forced) = forced else { return auto };
    let requested = match forced.to_ascii_lowercase().as_str() {
        "" | "auto" | "native" | "simd" => return auto,
        "scalar" => KernelVariant::Scalar,
        "portable" => KernelVariant::Portable,
        "avx2" => KernelVariant::Avx2,
        "avx512" => KernelVariant::Avx512,
        other => {
            eprintln!(
                "greem-kernels: unknown GREEM_PP_KERNEL='{other}' \
                 (want auto|scalar|portable|avx2|avx512); using '{}'",
                auto.name()
            );
            return auto;
        }
    };
    if requested.is_available() {
        requested
    } else {
        eprintln!(
            "greem-kernels: GREEM_PP_KERNEL='{forced}' is unavailable on this \
             host/build; falling back to 'portable'"
        );
        KernelVariant::Portable
    }
}

/// The variant the dispatcher chose for this process (resolved once,
/// on first use; see the module docs for the selection order).
pub fn selected_variant() -> KernelVariant {
    static SELECTED: OnceLock<KernelVariant> = OnceLock::new();
    *SELECTED.get_or_init(|| select(std::env::var("GREEM_PP_KERNEL").ok().as_deref()))
}

/// The dispatched PP kernel: semantics of [`pp_accel_scalar`] to ≤ 2⁻¹⁸
/// of each target's interaction scale (the single-precision x86
/// kernels; ≤ 2⁻²² for the portable one), implementation chosen once
/// per process. This is what the tree walk calls on its hot path.
pub fn pp_accel_dispatch(
    targets: &mut Targets,
    sources: &SourceList,
    split: &ForceSplit,
) -> InteractionCount {
    pp_accel_variant(selected_variant(), targets, sources, split)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greem_math::testutil::rand_positions_scaled;

    /// Every variant, fastest first.
    const ALL: [KernelVariant; 4] = [
        KernelVariant::Avx512,
        KernelVariant::Avx2,
        KernelVariant::Portable,
        KernelVariant::Scalar,
    ];

    #[test]
    fn names_roundtrip_through_forcing() {
        for v in ALL {
            let picked = select(Some(v.name()));
            if v.is_available() {
                assert_eq!(picked, v, "forcing '{}' must stick", v.name());
            } else {
                assert_eq!(picked, KernelVariant::Portable);
            }
        }
    }

    #[test]
    fn auto_native_and_unknown_pick_the_best_available() {
        let auto = select(None);
        for alias in ["auto", "", "native", "simd", "SIMD", "hpc-ace"] {
            assert_eq!(select(Some(alias)), auto, "'{alias}'");
        }
        let want = if KernelVariant::Avx512.is_available() {
            KernelVariant::Avx512
        } else if KernelVariant::Avx2.is_available() {
            KernelVariant::Avx2
        } else {
            KernelVariant::Portable
        };
        assert_eq!(auto, want);
    }

    #[test]
    fn avx2_can_still_be_forced_on_an_avx512_host() {
        if !KernelVariant::Avx512.is_available() {
            eprintln!("skipping: no AVX-512 on this host/build");
            return;
        }
        // avx512f hosts all have avx2 + fma.
        assert_eq!(select(Some("avx2")), KernelVariant::Avx2);
        assert_eq!(select(Some("avx512")), KernelVariant::Avx512);
    }

    #[test]
    fn available_variants_are_runnable_and_fastest_first() {
        let avail = available_variants();
        assert!(avail.iter().all(|v| v.is_available()));
        // A subsequence of the full fastest-first order, ending in the
        // two variants every host has.
        let mut all = ALL.iter();
        assert!(avail.iter().all(|v| all.any(|a| a == v)), "{avail:?}");
        assert!(avail.ends_with(&[KernelVariant::Portable, KernelVariant::Scalar]));
        #[cfg(feature = "portable-only")]
        assert_eq!(avail.len(), 2, "intrinsics compiled out: {avail:?}");
    }

    #[test]
    fn dispatch_is_bitwise_identical_to_the_selected_direct_call() {
        let split = ForceSplit::new(0.3, 1e-4);
        let tp = rand_positions_scaled(37, 5, 0.6);
        let sp = rand_positions_scaled(53, 6, 0.6);
        let sources: SourceList = sp.iter().map(|&p| (p, 0.7)).collect();
        let mut via_dispatch = Targets::from_positions(&tp);
        let mut direct = Targets::from_positions(&tp);
        pp_accel_dispatch(&mut via_dispatch, &sources, &split);
        pp_accel_variant(selected_variant(), &mut direct, &sources, &split);
        assert_eq!(via_dispatch.ax, direct.ax);
        assert_eq!(via_dispatch.ay, direct.ay);
        assert_eq!(via_dispatch.az, direct.az);
    }

    #[test]
    fn forced_portable_is_bitwise_the_portable_kernel() {
        let split = ForceSplit::new(0.25, 0.0);
        let tp = rand_positions_scaled(19, 8, 0.5);
        let sp = rand_positions_scaled(23, 9, 0.5);
        let sources: SourceList = sp.iter().map(|&p| (p, 1.1)).collect();
        assert_eq!(select(Some("portable")), KernelVariant::Portable);
        let mut via_variant = Targets::from_positions(&tp);
        let mut direct = Targets::from_positions(&tp);
        pp_accel_variant(KernelVariant::Portable, &mut via_variant, &sources, &split);
        pp_accel_phantom(&mut direct, &sources, &split);
        assert_eq!(via_variant.ax, direct.ax);
        assert_eq!(via_variant.ay, direct.ay);
        assert_eq!(via_variant.az, direct.az);
    }
}
