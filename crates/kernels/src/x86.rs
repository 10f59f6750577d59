//! Explicit-SIMD PP kernels for `x86_64` — the analogue of the paper's
//! HPC-ACE Phantom-GRAPE loop (§II-A), written once and instantiated at
//! the two register-file widths the host may have.
//!
//! The eq. (3) pipeline ([`trip`]) and the blocking around it
//! ([`block`], [`run`]) are generic over [`Lanes`], a thin trait naming
//! the vector operations the pipeline needs. Two implementations:
//!
//! * [`Avx2`] — `W` = 4 f64 lanes in 16 ymm registers. The rsqrt seed
//!   is the 12-bit `vrsqrtps`, reached through
//!   `vcvtpd2ps → vrsqrtps → vcvtps2pd`; the `ξ < 2` cut is an
//!   all-ones/all-zeros bit pattern ANDed into the force (the paper's
//!   `fcmp`/`fand`).
//! * [`Avx512`] — `W` = 8 lanes in 32 zmm registers. The seed is
//!   `vrsqrt14pd`, 14 bits directly in f64 (no f32 round trip); the cut
//!   lives in a `k` mask register and folds into the masked multiply.
//!
//! Both follow the seed with the paper's single third-order step
//! `y₁ = y₀(1 + h/2 + 3h²/8)`, landing at ~2⁻³³ (12-bit seed) and
//! ~2⁻⁴⁰ (14-bit seed) — past the paper's 24-bit target (DESIGN.md §11
//! has the arithmetic). No data-dependent branch exists in the loop.
//!
//! **The loop is software-pipelined.** One interaction is a dependent
//! chain of ~100 cycles, and left to itself the compiler emits such
//! chains nearly back to back, so the FMA pipes wait on latency. A
//! [`trip`] of the source loop instead carries [`SOURCES`] consecutive
//! sources against one target vector through the pipeline *stage by
//! stage* — differences and r² for all of them, then seed and
//! third-order step for all, then the cutoff polynomial, then the
//! masked force — with [`Lanes::pin`] holding the compiler to that
//! order, so that many independent chains are always in flight. The
//! shape was chosen per width by measured ns/interaction and by the
//! spills in the emitted loop (`scripts/kernel_asm_report.sh`; the
//! sweep is DESIGN.md §11), not by counting registers.
//!
//! **Targets sit in lanes and every target's sum runs sequentially over
//! the source list**: a trip retires its forces in list order, and
//! every lane executes the operations of a one-chain evaluation in the
//! same order. A lane therefore computes exactly what it would compute
//! alone: results do not depend on the trip shape, on where a target
//! falls inside a block or where a source falls inside a trip, and a
//! source whose force is masked to zero changes no bit — the properties
//! interaction-list replay relies on, pinned by the golden-hash,
//! blocking-, tail- and null-source-invariance tests in
//! `tests/simd_equivalence.rs`.
//!
//! A block is one vector of targets; the last block of a call loads its
//! positions and read-modify-writes its accelerations under a lane
//! mask, so nothing is staged through padded buffers and no lane beyond
//! the live targets is read or written.
//!
//! The flop accounting is unchanged — 51 flops per interaction however
//! the host executes it.

#![cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]

use core::arch::asm;
use core::arch::x86_64::*;
use std::time::Instant;

use greem_math::ForceSplit;

use crate::dispatch::KernelVariant;
use crate::sources::{SourceList, Targets};
use crate::InteractionCount;

/// Consecutive sources a [`trip`] keeps in flight against one target
/// vector, at both widths: the fastest shape of the DESIGN.md §11 sweep
/// whose main loop spills less than a one-source, four-vector block
/// did. [`KernelVariant::target_block`] and
/// [`crate::benchmark::OpMix::of`] describe this shape.
const SOURCES: usize = 4;

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
    /// `a` where `m`, else +0.
    unsafe fn keep(m: Self::M, a: Self::V) -> Self::V;
    /// `a`, through an empty `asm!` that takes and returns it in a
    /// vector register — the end of a pipeline stage. The compiler must
    /// have computed `a` before the statement and can start nothing
    /// that uses the result until after it, and the statements keep
    /// their program order among themselves, so stage k of every chain
    /// of a trip is emitted before stage k + 1 of any. The statement is
    /// also declared to touch memory: no load moves or merges across
    /// it, which makes every stage re-read its constants as memory
    /// operands instead of holding them in registers for the whole
    /// trip. It emits no instruction and changes no value.
    unsafe fn pin(a: Self::V) -> Self::V;
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
        // `trip` keeps x above the f32 subnormals; past the f32 range
        // the seed is 0 and the lane's force comes out 0.
        fn rsqrt_seed(x: __m256d) -> __m256d = _mm256_cvtps_pd(_mm_rsqrt_ps(_mm256_cvtpd_ps(x)));
        fn lt(a: __m256d, b: __m256d) -> __m256d = _mm256_cmp_pd::<_CMP_LT_OQ>(a, b);
        fn keep(m: __m256d, a: __m256d) -> __m256d = _mm256_and_pd(a, m);
    }

    // The ymm operand class needs `avx` on the function itself, which
    // rules `#[inline(always)]` out; like the intrinsics above it is
    // inlined once its caller has landed in the entry point.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pin(mut a: __m256d) -> __m256d {
        asm!("/* {0} */", inout(ymm_reg) a, options(nostack, preserves_flags));
        a
    }
}

/// 512-bit lanes; requires `avx512f`.
struct Avx512;

impl Lanes for Avx512 {
    type V = __m512d;
    type M = __mmask8;
    const W: usize = 8;

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
        fn keep(m: __mmask8, a: __m512d) -> __m512d = _mm512_maskz_mov_pd(m, a);
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn pin(mut a: __m512d) -> __m512d {
        asm!("/* {0} */", inout(zmm_reg) a, options(nostack, preserves_flags));
        a
    }
}

/// The predicate enabling the first `n` lanes (all of them when
/// `n ≥ W`).
#[inline(always)]
unsafe fn first_lanes<L: Lanes>(n: usize) -> L::M {
    L::lt(L::iota(), L::splat(n as f64))
}

/// The constants of the loop, as scalars the stages broadcast from
/// memory where they use them ([`Lanes::pin`]).
struct Consts {
    one: f64,
    two: f64,
    half: f64,
    c38: f64,
    /// Smallest positive normal f32 — floor under the rsqrt argument.
    /// `vrsqrtps` would seed inf from an f32-subnormal r²; `vrsqrt14pd`
    /// would seed a y whose cube overflows. Both stay finite above it.
    tiny: f64,
    eps2: f64,
    c_xi: f64,
    k015: f64,
    km1235: f64,
    km05: f64,
    k16: f64,
    km16: f64,
    k02: f64,
    k1835: f64,
    k335: f64,
}

impl Consts {
    fn new(split: &ForceSplit) -> Self {
        Consts {
            one: 1.0,
            two: 2.0,
            half: 0.5,
            c38: 0.375,
            tiny: f32::MIN_POSITIVE as f64,
            eps2: split.eps * split.eps,
            c_xi: 2.0 / split.r_cut,
            k015: 0.15,
            km1235: -12.0 / 35.0,
            km05: -0.5,
            k16: 1.6,
            km16: -1.6,
            k02: 0.2,
            k1835: 18.0 / 35.0,
            k335: 3.0 / 35.0,
        }
    }
}

/// One trip of the source loop: the `S` sources of `src` (the four
/// columns, cut to this trip) against the target vector `t`, `S`
/// independent eq. (3) chains advanced together one stage at a time and
/// retired onto `acc` in list order.
#[inline(always)]
unsafe fn trip<L: Lanes, const S: usize>(
    c: &Consts,
    t: &[L::V; 3],
    src: [&[f64]; 4],
    acc: &mut [L::V; 3],
) {
    // `$e` for every chain `$s` of the trip.
    macro_rules! stage {
        (|$s:ident| $e:expr) => {{
            let mut out = [L::splat(0.0); S];
            for ($s, o) in out.iter_mut().enumerate() {
                *o = $e;
            }
            out
        }};
    }
    let [sx, sy, sz, sm] = src;
    // Stage 1 — differences and softened r², floored so both hardware
    // seeds stay finite. The floor is the whole zero-distance guard: a
    // coincident pair gets a finite force factor below and multiplies
    // it by dx = dy = dz = +0.
    let dx = stage!(|s| L::sub(L::splat(sx[s]), t[0]));
    let dy = stage!(|s| L::sub(L::splat(sy[s]), t[1]));
    let dz = stage!(|s| L::sub(L::splat(sz[s]), t[2]));
    let r2 = stage!(|s| {
        let z2 = L::fmadd(dz[s], dz[s], L::splat(c.eps2));
        let r2 = L::fmadd(dx[s], dx[s], L::fmadd(dy[s], dy[s], z2));
        L::pin(L::max(r2, L::splat(c.tiny)))
    });
    // Stage 2 — hardware seed, then one third-order step
    // y₁ = y₀(1 + h/2 + 3h²/8), h = 1 − r²y₀²; ξ = 2r/r_cut from
    // r = r²·y₁ ≈ √r².
    let y1 = stage!(|s| {
        let one = L::splat(c.one);
        let y0 = L::rsqrt_seed(r2[s]);
        let h = L::fnmadd(L::mul(r2[s], y0), y0, one);
        let step = L::fmadd(h, L::splat(c.c38), L::splat(c.half));
        L::mul(y0, L::fmadd(h, step, one))
    });
    let xi = stage!(|s| L::pin(L::mul(L::splat(c.c_xi), L::mul(r2[s], y1[s]))));
    // Stage 3 — g(ξ) of eq. (3): the ζ = max(ξ−1, 0) branch term and
    // the cutoff polynomial as the same FMA Horner chain as the
    // portable kernel,
    // 1 + ξ³(−1.6 + ξ²(1.6 + ξ(−0.5 + ξ(−12/35 + 0.15ξ)))).
    let g = stage!(|s| {
        let (xi, one) = (xi[s], L::splat(c.one));
        let z = L::max(L::sub(xi, one), L::splat(0.0));
        let z2 = L::mul(z, z);
        let z6 = L::mul(L::mul(z2, z2), z2);
        let mut p = L::fmadd(xi, L::splat(c.k015), L::splat(c.km1235));
        p = L::fmadd(xi, p, L::splat(c.km05));
        p = L::fmadd(xi, p, L::splat(c.k16));
        let xi2 = L::mul(xi, xi);
        p = L::fmadd(xi2, p, L::splat(c.km16));
        let poly = L::fmadd(L::mul(xi2, xi), p, one);
        let mut q = L::fmadd(xi, L::splat(c.k02), L::splat(c.k1835));
        q = L::fmadd(xi, q, L::splat(c.k335));
        L::pin(L::fnmadd(z6, q, poly))
    });
    // Stage 4 — the force factor m·g/r³ under the ξ < 2 cut (the
    // paper's fcmp/fand, no branches; a masked force is +0 whatever g
    // overflowed to, so it leaves the accumulators bit for bit alone),
    // retired in list order: the target's sum stays one sequential FMA
    // chain over the sources.
    for s in 0..S {
        let y3 = L::mul(L::mul(y1[s], y1[s]), y1[s]);
        let inside = L::lt(xi[s], L::splat(c.two));
        let f = L::keep(inside, L::mul(L::mul(L::splat(sm[s]), g[s]), y3));
        acc[0] = L::fmadd(f, dx[s], acc[0]);
        acc[1] = L::fmadd(f, dy[s], acc[1]);
        acc[2] = L::fmadd(f, dz[s], acc[2]);
    }
}

/// One block: the `live ≤ W` targets from `i0` as one vector against
/// the whole source list — [`SOURCES`] a trip, and the sources left
/// over through the same body one a trip — added onto their
/// accelerations.
///
/// # Safety
///
/// The features of `L`, and `i0 + live ≤` the length of every column of
/// `targets`.
#[inline(always)]
unsafe fn block<L: Lanes>(
    c: &Consts,
    targets: &mut Targets,
    (i0, live): (usize, usize),
    src: [&[f64]; 4],
) {
    let m = first_lanes::<L>(live);
    // SAFETY (all six accesses): `m` enables lanes l < live, which
    // address column elements i0 + l < i0 + live ≤ len; lanes past
    // `live` are neither read nor written.
    let mut t = [L::splat(0.0); 3];
    for (tk, col) in t.iter_mut().zip([&targets.x, &targets.y, &targets.z]) {
        *tk = L::load(col.as_ptr().add(i0), m);
    }
    let mut acc = [L::splat(0.0); 3];
    let ns = src[0].len();
    let whole = ns - ns % SOURCES;
    for j in (0..whole).step_by(SOURCES) {
        trip::<L, SOURCES>(c, &t, src.map(|col| &col[j..j + SOURCES]), &mut acc);
    }
    for j in whole..ns {
        trip::<L, 1>(c, &t, src.map(|col| &col[j..=j]), &mut acc);
    }
    let out = [&mut targets.ax, &mut targets.ay, &mut targets.az];
    for (col, a) in out.into_iter().zip(acc) {
        let p = col.as_mut_ptr().add(i0);
        L::store(p, m, L::add(L::load(p, m), a));
    }
}

/// The kernel at width `L`: one block per `W` targets, the last as many
/// lanes as there are targets left.
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
    // Behind `black_box` the constants are memory the optimiser cannot
    // see into, so it loads them where a stage uses them.
    let c = Consts::new(split);
    let c = std::hint::black_box(&c);
    let src = [
        &sources.x[..ns],
        &sources.y[..ns],
        &sources.z[..ns],
        &sources.m[..ns],
    ];
    for i0 in (0..nt).step_by(L::W) {
        // SAFETY: i0 + live ≤ nt, the length asserted above.
        block::<L>(c, targets, (i0, L::W.min(nt - i0)), src);
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
    fn the_reported_target_block_is_one_vector_of_the_width() {
        assert_eq!(KernelVariant::Avx2.target_block(), Avx2::W);
        assert_eq!(KernelVariant::Avx512.target_block(), Avx512::W);
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
