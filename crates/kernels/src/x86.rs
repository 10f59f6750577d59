//! Explicit-SIMD PP kernels for `x86_64` — the analogue of the paper's
//! HPC-ACE Phantom-GRAPE loop (§II-A), written once and instantiated at
//! the two register-file widths the host may have.
//!
//! The eq. (3) pipeline ([`interact`]) and the blocking around it
//! ([`block`], [`run`]) are generic over [`Lanes`], a thin trait naming
//! the vector operations the pipeline needs. Two implementations:
//!
//! * [`Avx2`] — `W` = 4 f64 lanes in 16 ymm registers. Two target
//!   vectors per block: 6 position + 6 accumulator + 4 broadcast-source
//!   values are the 16 the file holds, where a four-vector block keeps
//!   28 live and spills them on every source.
//!   The rsqrt seed is the 12-bit `vrsqrtps`, reached through
//!   `vcvtpd2ps → vrsqrtps → vcvtps2pd`; masks are all-ones/all-zeros
//!   bit patterns ANDed into the force (the paper's `fcmp`/`fand`).
//! * [`Avx512`] — `W` = 8 lanes in 32 zmm registers, four target
//!   vectors per block. The seed is `vrsqrt14pd`, 14 bits directly in
//!   f64 (no f32 round trip); the `ξ < 2` cut and the self-pair guard
//!   live in `k` mask registers and fold into the masked multiply.
//!
//! Both follow the seed with the paper's single third-order step
//! `y₁ = y₀(1 + h/2 + 3h²/8)`, landing at ~2⁻³³ (12-bit seed) and
//! ~2⁻⁴⁰ (14-bit seed) — past the paper's 24-bit target (DESIGN.md §11
//! has the arithmetic). No data-dependent branch exists in the loop.
//!
//! **Targets sit in lanes and every target's sum runs sequentially over
//! the source list.** A lane therefore computes exactly what it would
//! compute alone: results do not depend on where a target falls inside
//! a block, and a source whose force is masked to zero changes no bit —
//! the properties interaction-list replay relies on, pinned by the
//! blocking- and null-source-invariance tests in
//! `tests/simd_equivalence.rs`.
//!
//! Remainders are vector-granular: a block of `live` targets runs
//! `⌈live/W⌉` vectors; the last one loads its positions and
//! read-modify-writes its accelerations under a lane mask, so nothing
//! is staged through padded buffers and no lane beyond `live` is read
//! or written.
//!
//! The flop accounting is unchanged — 51 flops per interaction however
//! the host executes it.

#![cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]

use core::arch::x86_64::*;
use std::time::Instant;

use greem_math::ForceSplit;

use crate::dispatch::KernelVariant;
use crate::sources::{SourceList, Targets};
use crate::InteractionCount;

/// The vector operations of one SIMD width.
///
/// # Safety
///
/// Every method requires the CPU features of its implementor ([`Avx2`]:
/// `avx2` + `fma`; [`Avx512`]: `avx512f`). `load`/`store` additionally
/// require `p.add(l)` to be valid for every lane `l` enabled in `m`;
/// disabled lanes are not accessed.
trait Lanes {
    /// `W` f64 lanes.
    type V: Copy;
    /// A per-lane predicate.
    type M: Copy;
    const W: usize;
    /// Target vectors per register block.
    const MAX_VECS: usize;

    unsafe fn splat(x: f64) -> Self::V;
    /// Lane indices 0, 1, … `W`−1.
    unsafe fn iota() -> Self::V;
    /// Enabled lanes from memory, disabled lanes zero.
    unsafe fn load(p: *const f64, m: Self::M) -> Self::V;
    unsafe fn store(p: *mut f64, m: Self::M, v: Self::V);
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    /// `a·b + c`.
    unsafe fn fmadd(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// `c − a·b`.
    unsafe fn fnmadd(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// Hardware `1/√x` estimate (the paper's `frsqrta`).
    unsafe fn rsqrt_seed(x: Self::V) -> Self::V;
    unsafe fn lt(a: Self::V, b: Self::V) -> Self::M;
    unsafe fn both(a: Self::M, b: Self::M) -> Self::M;
    /// `a` where `m`, else `b`.
    unsafe fn select(m: Self::M, a: Self::V, b: Self::V) -> Self::V;
    /// `a` where `m`, else +0.
    unsafe fn keep(m: Self::M, a: Self::V) -> Self::V;
}

/// One row per [`Lanes`] method: `fn name(args) -> type = intrinsic
/// expression;`, expanded to an `#[inline(always)] unsafe fn` so the
/// whole pipeline inlines into the `#[target_feature]` entry point.
macro_rules! lane_ops {
    ($(fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:expr;)+) => {$(
        #[inline(always)]
        unsafe fn $name($($arg: $ty),*) $(-> $ret)? {
            $body
        }
    )+};
}

/// 256-bit lanes; requires `avx2` and `fma`.
struct Avx2;

impl Lanes for Avx2 {
    type V = __m256d;
    /// All-ones / all-zeros lanes, as `vcmppd` produces them.
    type M = __m256d;
    const W: usize = 4;
    const MAX_VECS: usize = 2;

    lane_ops! {
        fn splat(x: f64) -> __m256d = _mm256_set1_pd(x);
        fn iota() -> __m256d = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
        fn load(p: *const f64, m: __m256d) -> __m256d = _mm256_maskload_pd(p, _mm256_castpd_si256(m));
        fn store(p: *mut f64, m: __m256d, v: __m256d) = _mm256_maskstore_pd(p, _mm256_castpd_si256(m), v);
        fn add(a: __m256d, b: __m256d) -> __m256d = _mm256_add_pd(a, b);
        fn sub(a: __m256d, b: __m256d) -> __m256d = _mm256_sub_pd(a, b);
        fn mul(a: __m256d, b: __m256d) -> __m256d = _mm256_mul_pd(a, b);
        fn max(a: __m256d, b: __m256d) -> __m256d = _mm256_max_pd(a, b);
        fn fmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d = _mm256_fmadd_pd(a, b, c);
        fn fnmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d = _mm256_fnmadd_pd(a, b, c);
        // 12-bit `vrsqrtps` on the f32-rounded argument, widened back.
        // `interact` keeps x above the f32 subnormals; past the f32
        // range the seed is 0 and the lane's force comes out 0.
        fn rsqrt_seed(x: __m256d) -> __m256d = _mm256_cvtps_pd(_mm_rsqrt_ps(_mm256_cvtpd_ps(x)));
        fn lt(a: __m256d, b: __m256d) -> __m256d = _mm256_cmp_pd::<_CMP_LT_OQ>(a, b);
        fn both(a: __m256d, b: __m256d) -> __m256d = _mm256_and_pd(a, b);
        fn select(m: __m256d, a: __m256d, b: __m256d) -> __m256d = _mm256_blendv_pd(b, a, m);
        fn keep(m: __m256d, a: __m256d) -> __m256d = _mm256_and_pd(a, m);
    }
}

/// 512-bit lanes; requires `avx512f`.
struct Avx512;

impl Lanes for Avx512 {
    type V = __m512d;
    type M = __mmask8;
    const W: usize = 8;
    const MAX_VECS: usize = 4;

    lane_ops! {
        fn splat(x: f64) -> __m512d = _mm512_set1_pd(x);
        fn iota() -> __m512d = _mm512_setr_pd(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0);
        fn load(p: *const f64, m: __mmask8) -> __m512d = _mm512_maskz_loadu_pd(m, p);
        fn store(p: *mut f64, m: __mmask8, v: __m512d) = _mm512_mask_storeu_pd(p, m, v);
        fn add(a: __m512d, b: __m512d) -> __m512d = _mm512_add_pd(a, b);
        fn sub(a: __m512d, b: __m512d) -> __m512d = _mm512_sub_pd(a, b);
        fn mul(a: __m512d, b: __m512d) -> __m512d = _mm512_mul_pd(a, b);
        fn max(a: __m512d, b: __m512d) -> __m512d = _mm512_max_pd(a, b);
        fn fmadd(a: __m512d, b: __m512d, c: __m512d) -> __m512d = _mm512_fmadd_pd(a, b, c);
        fn fnmadd(a: __m512d, b: __m512d, c: __m512d) -> __m512d = _mm512_fnmadd_pd(a, b, c);
        // 14 bits, directly in f64.
        fn rsqrt_seed(x: __m512d) -> __m512d = _mm512_rsqrt14_pd(x);
        fn lt(a: __m512d, b: __m512d) -> __mmask8 = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(a, b);
        fn both(a: __mmask8, b: __mmask8) -> __mmask8 = a & b;
        fn select(m: __mmask8, a: __m512d, b: __m512d) -> __m512d = _mm512_mask_blend_pd(m, b, a);
        fn keep(m: __mmask8, a: __m512d) -> __m512d = _mm512_maskz_mov_pd(m, a);
    }
}

/// Loop-invariant broadcast constants, set up once per call.
struct Consts<L: Lanes> {
    zero: L::V,
    one: L::V,
    two: L::V,
    half: L::V,
    c38: L::V,
    /// Smallest positive normal f32 — floor under the rsqrt argument.
    /// `vrsqrtps` would seed inf from an f32-subnormal r²; `vrsqrt14pd`
    /// would seed a y whose cube overflows. Both stay finite above it.
    tiny: L::V,
    iota: L::V,
    eps2: L::V,
    c_xi: L::V,
    k015: L::V,
    km1235: L::V,
    km05: L::V,
    k16: L::V,
    km16: L::V,
    k02: L::V,
    k1835: L::V,
    k335: L::V,
}

impl<L: Lanes> Consts<L> {
    #[inline(always)]
    unsafe fn new(split: &ForceSplit) -> Self {
        Consts {
            zero: L::splat(0.0),
            one: L::splat(1.0),
            two: L::splat(2.0),
            half: L::splat(0.5),
            c38: L::splat(0.375),
            tiny: L::splat(f32::MIN_POSITIVE as f64),
            iota: L::iota(),
            eps2: L::splat(split.eps * split.eps),
            c_xi: L::splat(2.0 / split.r_cut),
            k015: L::splat(0.15),
            km1235: L::splat(-12.0 / 35.0),
            km05: L::splat(-0.5),
            k16: L::splat(1.6),
            km16: L::splat(-1.6),
            k02: L::splat(0.2),
            k1835: L::splat(18.0 / 35.0),
            k335: L::splat(3.0 / 35.0),
        }
    }

    /// The predicate enabling the first `n` lanes (all of them when
    /// `n ≥ W`).
    #[inline(always)]
    unsafe fn first_lanes(&self, n: usize) -> L::M {
        L::lt(self.iota, L::splat(n as f64))
    }
}

/// One lane-vector of eq. (3): accumulate the cutoff force of the
/// broadcast source `s` = (x, y, z, m) onto the `W` targets at `t`.
/// 17 FMA + 27 other vector operations at 256 bits, 23 other at 512
/// (see [`crate::benchmark::OpMix`]).
#[inline(always)]
unsafe fn interact<L: Lanes>(c: &Consts<L>, t: &[L::V; 3], s: &[L::V; 4], a: &mut [L::V; 3]) {
    let dx = L::sub(s[0], t[0]);
    let dy = L::sub(s[1], t[1]);
    let dz = L::sub(s[2], t[2]);
    let r2 = L::fmadd(dx, dx, L::fmadd(dy, dy, L::fmadd(dz, dz, c.eps2)));
    // Self-pair guard: r² == 0 only for the zero-softening self pair.
    // Substitute a dummy radius there (a blend, not a branch) so the
    // rsqrt stays finite.
    let nonzero = L::lt(c.zero, r2);
    let r2s = L::max(L::select(nonzero, r2, c.one), c.tiny);
    // Hardware seed, then one third-order step
    // y₁ = y₀(1 + h/2 + 3h²/8), h = 1 − r²y₀².
    let y0 = L::rsqrt_seed(r2s);
    let h = L::fnmadd(L::mul(r2s, y0), y0, c.one);
    let y1 = L::mul(y0, L::fmadd(h, L::fmadd(h, c.c38, c.half), c.one));
    let r = L::mul(r2s, y1); // ≈ √r²
    let xi = L::mul(c.c_xi, r);
    // ζ = max(ξ−1, 0) branch term of eq. (3).
    let z = L::max(L::sub(xi, c.one), c.zero);
    let z2 = L::mul(z, z);
    let z6 = L::mul(L::mul(z2, z2), z2);
    // The cutoff polynomial as the same FMA Horner chain as the
    // portable kernel: 1 + ξ³(−1.6 + ξ²(1.6 + ξ(−0.5 + ξ(−12/35 + 0.15ξ)))).
    let mut p = L::fmadd(xi, c.k015, c.km1235);
    p = L::fmadd(xi, p, c.km05);
    p = L::fmadd(xi, p, c.k16);
    let xi2 = L::mul(xi, xi);
    p = L::fmadd(xi2, p, c.km16);
    let poly = L::fmadd(L::mul(xi2, xi), p, c.one);
    let mut q = L::fmadd(xi, c.k02, c.k1835);
    q = L::fmadd(xi, q, c.k335);
    let g = L::fnmadd(z6, q, poly);
    // Cutoff (ξ < 2) ∧ self-pair predicate applied to the force — the
    // paper's fcmp/fand, no branches. A masked force is +0 whatever g
    // overflowed to, so it leaves the accumulators bit for bit alone.
    let inside = L::both(L::lt(xi, c.two), nonzero);
    let y3 = L::mul(L::mul(y1, y1), y1);
    let f = L::keep(inside, L::mul(L::mul(s[3], g), y3));
    a[0] = L::fmadd(f, dx, a[0]);
    a[1] = L::fmadd(f, dy, a[1]);
    a[2] = L::fmadd(f, dz, a[2]);
}

/// One register block: targets `i0 .. i0 + live` as `NV` = `⌈live/W⌉`
/// vectors against the whole source list, added onto their
/// accelerations.
///
/// # Safety
///
/// The features of `L`, and `i0 + live ≤` the length of every column of
/// `targets`.
#[inline(always)]
unsafe fn block<L: Lanes, const NV: usize>(
    c: &Consts<L>,
    targets: &mut Targets,
    (i0, live): (usize, usize),
    src: [&[f64]; 4],
) {
    debug_assert!(NV == live.div_ceil(L::W));
    let pos = [targets.x.as_ptr(), targets.y.as_ptr(), targets.z.as_ptr()];
    let out = [
        targets.ax.as_mut_ptr(),
        targets.ay.as_mut_ptr(),
        targets.az.as_mut_ptr(),
    ];
    let mut t = [[c.zero; 3]; NV];
    for (v, tv) in t.iter_mut().enumerate() {
        let m = c.first_lanes(live - v * L::W);
        for (tk, p) in tv.iter_mut().zip(pos) {
            // SAFETY: `m` enables lanes l < live − v·W, which address
            // column elements i0 + v·W + l < i0 + live ≤ len.
            *tk = L::load(p.add(i0 + v * L::W), m);
        }
    }
    let mut acc = [[c.zero; 3]; NV];
    let [sx, sy, sz, sm] = src;
    for (((&x, &y), &z), &m) in sx.iter().zip(sy).zip(sz).zip(sm) {
        let s = [L::splat(x), L::splat(y), L::splat(z), L::splat(m)];
        for (tv, av) in t.iter().zip(&mut acc) {
            interact(c, tv, &s, av);
        }
    }
    for (v, av) in acc.iter().enumerate() {
        let m = c.first_lanes(live - v * L::W);
        for (&a, p) in av.iter().zip(out) {
            let p = p.add(i0 + v * L::W);
            // SAFETY: the same lanes of the acceleration columns, by
            // the same bound; lanes past `live` are neither read nor
            // written.
            L::store(p, m, L::add(L::load(p, m), a));
        }
    }
}

/// The kernel at width `L`: blocks of up to `MAX_VECS`·`W` targets,
/// the last block as many vectors as its live targets need.
///
/// # Safety
///
/// The features of `L`.
#[inline(always)]
unsafe fn run<L: Lanes>(
    targets: &mut Targets,
    sources: &SourceList,
    split: &ForceSplit,
) -> InteractionCount {
    let nt = targets.len();
    let ns = sources.len();
    // `block` goes through raw pointers: make sure all six columns
    // really hold `nt` elements (the fields are public).
    let cols = [
        &targets.y,
        &targets.z,
        &targets.ax,
        &targets.ay,
        &targets.az,
    ];
    assert!(
        cols.iter().all(|col| col.len() == nt),
        "Targets columns differ in length"
    );
    let c = Consts::<L>::new(split);
    let src = [
        &sources.x[..ns],
        &sources.y[..ns],
        &sources.z[..ns],
        &sources.m[..ns],
    ];
    let mut i0 = 0;
    while i0 < nt {
        let live = (L::MAX_VECS * L::W).min(nt - i0);
        // SAFETY (all arms): i0 + live ≤ nt, the length asserted above.
        match live.div_ceil(L::W) {
            1 => block::<L, 1>(&c, targets, (i0, live), src),
            2 => block::<L, 2>(&c, targets, (i0, live), src),
            3 => block::<L, 3>(&c, targets, (i0, live), src),
            _ => block::<L, 4>(&c, targets, (i0, live), src),
        }
        i0 += live;
    }
    (nt * ns) as InteractionCount
}

/// AVX2+FMA cutoff PP kernel. Semantics match [`crate::pp_accel_scalar`]
/// to ≤ 2⁻²⁴ relative accuracy; the interaction count charged is
/// identical to every other kernel in this crate.
///
/// # Safety
///
/// The caller must have verified at runtime that the CPU supports the
/// `avx2` and `fma` target features (e.g. via
/// `is_x86_feature_detected!`); calling this on a CPU without them is
/// undefined behaviour. The dispatcher in [`crate::dispatch`] is the
/// intended caller and performs that check. No other precondition: the
/// column lengths the masked accesses rely on are asserted inside.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn pp_accel_avx2(
    targets: &mut Targets,
    sources: &SourceList,
    split: &ForceSplit,
) -> InteractionCount {
    run::<Avx2>(targets, sources, split)
}

/// AVX-512 cutoff PP kernel: [`pp_accel_avx2`]'s pipeline at twice the
/// width, same accuracy contract.
///
/// # Safety
///
/// The caller must have verified at runtime that the CPU supports the
/// `avx512f` target feature. No other precondition.
#[target_feature(enable = "avx512f")]
pub unsafe fn pp_accel_avx512(
    targets: &mut Targets,
    sources: &SourceList,
    split: &ForceSplit,
) -> InteractionCount {
    run::<Avx512>(targets, sources, split)
}

/// Independent multiply-add chains of the FMA-rate probe: enough to
/// cover latency × issue width (4–5 cycles × 2 ports) on any host.
const PROBE_CHAINS: usize = 10;

/// `iters` rounds of [`PROBE_CHAINS`] dependent FMAs at width `L`;
/// returns a value that depends on all of them.
#[inline(always)]
unsafe fn fma_chains<L: Lanes>(iters: u64) -> f64 {
    // Not a fixed point of the recurrence, or the optimiser folds the
    // whole loop to its constant.
    let (a, b) = (L::splat(1.000_000_1), L::splat(1e-9));
    let mut acc = [L::splat(1.0); PROBE_CHAINS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = L::fmadd(*x, a, b);
        }
    }
    let mut sum = acc[0];
    for &x in &acc[1..] {
        sum = L::add(sum, x);
    }
    let mut lane0 = 0.0f64;
    // SAFETY: only lane 0 is enabled, and it addresses `lane0`.
    L::store(&mut lane0, L::lt(L::iota(), L::splat(1.0)), sum);
    lane0
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fma_chains_avx2(iters: u64) -> f64 {
    fma_chains::<Avx2>(iters)
}

#[target_feature(enable = "avx512f")]
unsafe fn fma_chains_avx512(iters: u64) -> f64 {
    fma_chains::<Avx512>(iters)
}

/// One thread's measured FMA peak in flop/s at the vector width of
/// `variant` — the denominator of the §II-A "% of bound" figure for that
/// kernel. `None` for a variant that is not an x86 kernel this host can
/// run. Best of five bursts of about a millisecond.
pub fn fma_peak_flops(variant: KernelVariant) -> Option<f64> {
    let (w, chains): (usize, unsafe fn(u64) -> f64) = match variant {
        KernelVariant::Avx512 => (Avx512::W, fma_chains_avx512),
        KernelVariant::Avx2 => (Avx2::W, fma_chains_avx2),
        KernelVariant::Portable | KernelVariant::Scalar => return None,
    };
    if !variant.is_available() {
        return None;
    }
    const ITERS: u64 = 400_000;
    let best = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            // SAFETY: `is_available` found the CPU features of
            // `variant`'s width, which are those `chains` needs.
            std::hint::black_box(unsafe { chains(std::hint::black_box(ITERS)) });
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    Some((ITERS as usize * PROBE_CHAINS * w * 2) as f64 / best.max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::pp_accel_variant;
    use greem_math::Vec3;

    #[test]
    #[should_panic(expected = "columns differ in length")]
    fn ragged_target_columns_are_refused_before_any_masked_access() {
        let variant = KernelVariant::Avx2;
        if !variant.is_available() {
            panic!("columns differ in length (skipped: no AVX2 on this host)");
        }
        let mut t = Targets::from_positions(&[Vec3::ZERO; 5]);
        t.az.truncate(3);
        let s: SourceList = [(Vec3::ONE, 1.0)].into_iter().collect();
        pp_accel_variant(variant, &mut t, &s, &ForceSplit::new(0.1, 0.0));
    }

    #[test]
    fn fma_probe_reports_a_rate_exactly_where_the_width_exists() {
        for variant in [KernelVariant::Avx2, KernelVariant::Avx512] {
            let peak = fma_peak_flops(variant);
            assert_eq!(peak.is_some(), variant.is_available());
            assert!(peak.is_none_or(|f| f > 0.0), "{peak:?}");
        }
        assert_eq!(fma_peak_flops(KernelVariant::Portable), None);
    }
}
