//! The O(N²) kernel benchmark of §II-A, per kernel variant.
//!
//! The paper measures the force loop on "a simple O(N²) kernel
//! benchmark": all-pairs forces on N particles, reporting the flop rate
//! as 51 flops per interaction. On K the loop reached 11.65 Gflops per
//! core, 97 % of its 12-Gflops theoretical bound — the bound being 75 %
//! of the 16 Gflops core peak because the loop's instruction mix is
//! 17 FMA + 17 non-FMA per two interactions (a pure-FMA loop would hit
//! 100 %).
//!
//! The report carries, for *every* kernel variant the host can run
//! (explicit AVX-512 and AVX2, portable blocked, scalar reference):
//! interactions/s, the paper-accounting flop rate
//! `51 × interactions/s`, and the speedup over the scalar reference.
//! The explicit-SIMD variants also get the paper's own framing: their
//! counted instruction mix ([`OpMix`]), the bound that mix sets against
//! an f32 FMA-peak probe of the variant's own vector width, and the
//! measured fraction of that bound — this host's "97 %". The report
//! records which variant the runtime dispatcher picked, so
//! `harness kernel` outputs say what actually ran on
//! the hot path.

use std::time::Instant;

use greem_math::{ForceSplit, Vec3, FLOPS_PER_INTERACTION};

use crate::dispatch::{available_variants, pp_accel_variant, selected_variant, KernelVariant};
use crate::sources::{SourceList, Targets};

/// Vector instructions one lane-vector of interactions costs in a
/// hand-scheduled loop, split the way §II-A splits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Fused multiply-adds (2 flops per lane).
    pub fma: u32,
    /// Everything else issued to the vector units (at most 1 flop per
    /// lane: add, multiply, max, compare, blend, convert, rsqrt).
    pub other: u32,
}

impl OpMix {
    /// The paper's HPC-ACE loop: 17 FMA + 17 non-FMA per 2-lane vector.
    pub const PAPER: OpMix = OpMix { fma: 17, other: 17 };

    /// The counted mix of one chain of `variant`'s loop body
    /// (`x86.rs::trip`), or `None` where the compiler, not the source,
    /// picks the instructions: beside the 17 FMAs, 3 subtractions, the
    /// floor under r², the seed, 12 multiplies (lengths arrive in ξ
    /// units, so ξ = r²·y₁ needs no scale), ξ − 1, ζ's max and the
    /// cut's compare. The 256-bit body adds the AND that applies its
    /// mask, which at 512 bits is a `k` predicate on the last multiply.
    pub fn of(variant: KernelVariant) -> Option<OpMix> {
        match variant {
            KernelVariant::Avx2 => Some(OpMix { fma: 17, other: 21 }),
            KernelVariant::Avx512 => Some(OpMix { fma: 17, other: 20 }),
            KernelVariant::Portable | KernelVariant::Scalar => None,
        }
    }

    /// The fraction of FMA peak a loop with this mix can reach when
    /// every instruction takes one FMA-capable issue slot: 51 counted
    /// flops per lane in `fma + other` slots worth 2 flops each. The
    /// paper's mix gives its 75 % (12 of 16 Gflops).
    pub fn bound_fraction(self) -> f64 {
        FLOPS_PER_INTERACTION / (2.0 * (self.fma + self.other) as f64)
    }
}

/// One thread's FMA peak (flop/s) at the vector width of `variant`,
/// for the variants that have a counted [`OpMix`].
fn fma_peak_flops(variant: KernelVariant) -> Option<f64> {
    #[cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]
    return crate::x86::fma_peak_flops(variant);
    #[cfg(not(all(target_arch = "x86_64", not(feature = "portable-only"))))]
    return {
        let _ = variant;
        None
    };
}

/// One kernel variant's measured rate on the O(N²) benchmark.
#[derive(Debug, Clone, Copy)]
pub struct VariantBench {
    /// Which kernel ran.
    pub variant: KernelVariant,
    /// Pairwise interactions per second.
    pub interactions_per_sec: f64,
    /// Paper-accounting flop rate: 51 flops × interactions/s.
    pub flops: f64,
    /// Speedup over the scalar reference kernel.
    pub speedup_vs_scalar: f64,
    /// Modelled memory traffic per interaction
    /// ([`bytes_per_interaction`]): the source columns streamed once
    /// per [`KernelVariant::target_block`] targets, plus the per-target
    /// position load and acceleration read-modify-write amortised over
    /// the sources. A blocking model of streamed bytes, not a hardware
    /// counter — roofline-style evidence of memory-boundedness.
    pub bytes_per_interaction: f64,
    /// Achieved modelled bandwidth: interactions/s × bytes/interaction.
    pub gb_per_sec: f64,
    /// Measured one-thread FMA peak at this variant's own vector width
    /// (flop/s), for the variants with a counted [`OpMix`].
    pub fma_peak_flops: Option<f64>,
}

impl VariantBench {
    /// The §II-A bound: FMA peak × the mix's [`OpMix::bound_fraction`]
    /// (flop/s in the 51-flop accounting).
    pub fn mix_bound_flops(&self) -> Option<f64> {
        Some(self.fma_peak_flops? * OpMix::of(self.variant)?.bound_fraction())
    }

    /// Measured flop rate as a percentage of [`Self::mix_bound_flops`]
    /// — the paper's "11.65 of 12 Gflops, 97 %".
    pub fn pct_of_mix_bound(&self) -> Option<f64> {
        Some(100.0 * self.flops / self.mix_bound_flops()?)
    }
}

/// Results of the O(N²) kernel benchmark across all runnable variants.
#[derive(Debug, Clone)]
pub struct KernelBenchReport {
    /// Particle count (N targets × N sources per pass).
    pub n: usize,
    /// Passes timed.
    pub iters: usize,
    /// The variant the runtime dispatcher selects on this host (what
    /// the tree walk's hot path actually runs).
    pub dispatch: KernelVariant,
    /// Per-variant rates, in [`available_variants`] order (fastest
    /// expected first, scalar reference last).
    pub variants: Vec<VariantBench>,
}

impl KernelBenchReport {
    /// The measured rate of one variant, if it ran.
    pub fn rate_of(&self, variant: KernelVariant) -> Option<f64> {
        self.variants
            .iter()
            .find(|v| v.variant == variant)
            .map(|v| v.interactions_per_sec)
    }
}

/// Deterministic quasi-uniform positions in `[0, scale)³`.
fn bench_positions(n: usize, scale: f64, seed: u64) -> Vec<Vec3> {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| Vec3::new(next() * scale, next() * scale, next() * scale))
        .collect()
}

/// Time `iters` all-pairs passes of one variant; returns interactions/s.
fn time_variant(
    variant: KernelVariant,
    targets: &mut Targets,
    sources: &SourceList,
    split: &ForceSplit,
    iters: usize,
) -> f64 {
    // Warm up (page in buffers, settle frequency scaling a little).
    pp_accel_variant(variant, targets, sources, split);
    targets.reset_accel();
    let t0 = Instant::now();
    let mut count = 0u64;
    for _ in 0..iters {
        count += pp_accel_variant(variant, targets, sources, split);
    }
    count as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

/// Run the O(N²) benchmark: `iters` all-pairs passes of every runnable
/// kernel variant over `n` particles, every pair inside the cutoff (the
/// hot path).
pub fn kernel_benchmark(n: usize, iters: usize) -> KernelBenchReport {
    assert!(n > 0 && iters > 0);
    // Keep all pairs within r_cut so the whole polynomial pipeline runs.
    let split = ForceSplit::new(4.0, 0.0);
    let pos = bench_positions(n, 1.0, 12345);
    let sources: SourceList = pos.iter().map(|&p| (p, 1.0 / n as f64)).collect();
    let mut targets = Targets::from_positions(&pos);

    let order = available_variants();
    let rates: Vec<(KernelVariant, f64)> = order
        .iter()
        .map(|&v| (v, time_variant(v, &mut targets, &sources, &split, iters)))
        .collect();
    let scalar_rate = rates
        .iter()
        .find(|(v, _)| *v == KernelVariant::Scalar)
        .map(|&(_, r)| r)
        .unwrap_or(1e-12);
    KernelBenchReport {
        n,
        iters,
        dispatch: selected_variant(),
        variants: rates
            .into_iter()
            .map(|(variant, rate)| {
                let bpi = bytes_per_interaction(variant, n, n);
                VariantBench {
                    variant,
                    interactions_per_sec: rate,
                    flops: rate * FLOPS_PER_INTERACTION,
                    speedup_vs_scalar: rate / scalar_rate.max(1e-12),
                    bytes_per_interaction: bpi,
                    gb_per_sec: rate * bpi / 1e9,
                    fma_peak_flops: fma_peak_flops(variant),
                }
            })
            .collect(),
    }
}

/// The blocking model of streamed bytes per interaction for `nt`
/// targets against `ns` sources: each block of `target_block()` targets
/// re-reads the four source columns, and each target costs one position
/// load plus an acceleration read-modify-write (72 B) amortised over
/// `ns` sources. The f64 kernels stream 32 B per source per block; the
/// x86 kernels stream their f32 staging, 16 B, after a conversion pass
/// that reads each source's 32 B and writes its 16 B once per call.
pub fn bytes_per_interaction(variant: KernelVariant, nt: usize, ns: usize) -> f64 {
    let bt = variant.target_block();
    let passes = nt.div_ceil(bt) as f64;
    let per_source = match variant {
        KernelVariant::Avx2 | KernelVariant::Avx512 => passes * 16.0 + 48.0,
        KernelVariant::Portable | KernelVariant::Scalar => passes * 32.0,
    };
    let target_bytes = nt as f64 * 72.0;
    (ns as f64 * per_source + target_bytes) / (nt as f64 * ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_runs_and_reports_every_variant() {
        let r = kernel_benchmark(64, 2);
        assert_eq!(r.n, 64);
        assert_eq!(r.variants.len(), available_variants().len());
        for v in &r.variants {
            assert!(v.interactions_per_sec > 0.0, "{:?}", v.variant);
            assert!(
                (v.flops - v.interactions_per_sec * FLOPS_PER_INTERACTION).abs() < 1e-6 * v.flops
            );
            assert!(v.speedup_vs_scalar > 0.0);
            assert!(v.bytes_per_interaction > 0.0);
            assert!(v.gb_per_sec > 0.0);
        }
        // More targets per source pass, and narrower sources, must
        // lower the modelled traffic.
        let bytes = |v| bytes_per_interaction(v, 256, 256);
        assert!(bytes(KernelVariant::Avx512) < bytes(KernelVariant::Avx2));
        assert!(bytes(KernelVariant::Avx2) < bytes(KernelVariant::Portable));
        assert!(bytes(KernelVariant::Portable) < bytes(KernelVariant::Scalar));
        assert_eq!(r.variants.last().unwrap().variant, KernelVariant::Scalar);
        assert!(r.rate_of(KernelVariant::Scalar).is_some());
        assert!(r.rate_of(KernelVariant::Portable).is_some());
        assert!(r.dispatch.is_available());
    }

    #[test]
    fn mix_bound_follows_the_papers_accounting() {
        assert!((OpMix::PAPER.bound_fraction() - 0.75).abs() < 1e-12);
        for v in kernel_benchmark(64, 1).variants {
            // A bound exactly where a mix is counted, below the peak
            // it is a fraction of. (No assertion on the measured
            // percentage: unoptimised test builds time nothing useful.)
            let mix = OpMix::of(v.variant);
            assert_eq!(mix.is_some(), v.pct_of_mix_bound().is_some());
            if let (Some(mix), Some(bound)) = (mix, v.mix_bound_flops()) {
                assert_eq!(mix.fma, OpMix::PAPER.fma, "one FMA count, two widths");
                assert!(bound < v.fma_peak_flops.unwrap());
            }
        }
    }
}
