//! Explicit-SIMD PP kernels for `x86_64` — the analogue of the paper's
//! HPC-ACE Phantom-GRAPE loop (§II-A), written once and instantiated at
//! the two register-file widths the host may have, in the paper's
//! precision: single.
//!
//! The eq. (3) pipeline ([`trip`]) and the blocking around it
//! ([`block`], [`run`]) are generic over [`Lanes`], a thin trait naming
//! the vector operations the pipeline needs. Two implementations:
//!
//! * [`Avx2`] — `W` = 8 f32 lanes in 16 ymm registers, the 12-bit
//!   `vrsqrtps` seed; the `ξ < 2` cut is an all-ones/all-zeros bit
//!   pattern ANDed into the force (the paper's `fcmp`/`fand`).
//! * [`Avx512`] — `W` = 16 lanes in 32 zmm registers, the 14-bit
//!   `vrsqrt14ps` seed; the cut lives in a `k` mask register and folds
//!   into the masked multiply. Nothing outside `avx512f` is used.
//!
//! Both follow the seed with the paper's single third-order step
//! `y₁ = y₀(1 + h/2 + 3h²/8)`, past 24 bits from either seed (DESIGN.md
//! §11 has the arithmetic). No data-dependent branch exists in the loop.
//!
//! **What makes f32 sound is the conversion pass at the top of every
//! call** ([`run`]). In f64 it subtracts [`Targets::origin`] from the
//! targets and from the (already nearest-image) sources, scales lengths
//! to ξ units — r_cut/2, so r² *is* ξ² and no ξ multiply is left in the
//! loop — and masses by a power of two that puts them in [2⁻⁶⁴, 1], and
//! rounds once to f32 into the padded staging columns `Targets` owns.
//! The two scale factors come back in f64, once per target, where the
//! f32 sums are widened and added onto `ax/ay/az`. The pass also checks
//! the range contract, so nothing overflows silently:
//!
//! * r² is floored at 2⁻⁸⁰: with masses ≤ 1 the force factor of a
//!   coincident pair stays finite (y³ ≤ 2¹²⁰) and multiplies
//!   dx = dy = dz = +0 — the whole zero-distance guard;
//! * a source farther than 2⁴⁰ ξ from the origin is clamped there, still
//!   beyond the cutoff of every target, so its masked force is +0;
//! * a source heavier than 2⁶⁴ × the lightest of its list is staged
//!   massless and evaluated by [`pp_accel_scalar`] instead;
//! * a target farther than 2⁴⁰ ξ from the origin (or NaN), or a
//!   non-finite r_cut, ε or mass unit, sends the whole call there.
//!
//! **The loop is software-pipelined.** One interaction is a dependent
//! chain of ~100 cycles, so a [`trip`] of the source loop carries
//! [`SOURCES`] consecutive sources against one target vector through
//! the pipeline *stage by stage* — differences and r² for all of them,
//! then seed and third-order step for all, then the cutoff polynomial,
//! then the masked force — with [`Lanes::pin`] holding the compiler to
//! that order, so that many independent chains are always in flight
//! (`scripts/kernel_asm_report.sh` reads the emitted loop).
//!
//! **Targets sit in lanes and every target's sum runs sequentially over
//! the source list**: a trip retires its forces in list order onto plain
//! f32 FMA accumulators, and every lane executes the operations of a
//! one-chain evaluation in the same order. Given the origin, a lane
//! therefore computes exactly what it would compute alone: results do
//! not depend on the trip shape, on where a target falls inside a block
//! or where a source falls inside a trip, and a source whose force is
//! masked to zero changes no bit (nor does one that moves the mass
//! unit, a power of two) — the properties interaction-list replay
//! relies on, pinned in `tests/simd_equivalence.rs`.
//!
//! A block is one vector of targets. The staging columns are padded to
//! the width, so the last block of a call computes on zero lanes whose
//! sums nobody reads; every access is a bounds-checked slice. The flop
//! accounting is unchanged — 51 flops per interaction.

#![cfg(all(target_arch = "x86_64", not(feature = "portable-only")))]

use core::arch::asm;
use core::arch::x86_64::*;
use core::mem::transmute;
use std::time::Instant;

use greem_math::ForceSplit;

use crate::dispatch::KernelVariant;
use crate::sources::{SourceList, Targets};
use crate::{pp_accel_scalar, InteractionCount};

/// Consecutive sources a [`trip`] keeps in flight against one target
/// vector, at both widths: the fastest shape of the DESIGN.md §11 sweep
/// whose main loop spills less than a one-source, four-vector block
/// did. [`crate::benchmark::OpMix::of`] describes this shape.
const SOURCES: usize = 4;

/// The vector operations of one SIMD width.
///
/// # Safety
///
/// Every method requires the CPU features of its implementor ([`Avx2`]:
/// `avx2` + `fma`; [`Avx512`]: `avx512f`), and nothing else.
trait Lanes {
    /// `W` f32 lanes.
    type V: Copy;
    /// A per-lane predicate.
    type M: Copy;
    const W: usize;

    unsafe fn splat(x: f32) -> Self::V;
    /// The `W` elements of `a` (panics on any other length).
    unsafe fn load(a: &[f32]) -> Self::V;
    /// The lanes of `v` over the `W` elements of `out`.
    unsafe fn store(v: Self::V, out: &mut [f32]);
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
    type V = __m256;
    /// All-ones / all-zeros lanes, as `vcmpps` produces them.
    type M = __m256;
    const W: usize = 8;

    lane_ops! {
        fn splat(x: f32) -> __m256 = _mm256_set1_ps(x);
        // A vector and the array of its lanes have one layout.
        fn load(a: &[f32]) -> __m256 = transmute::<[f32; 8], __m256>(a.try_into().expect("one vector of targets"));
        fn store(v: __m256, out: &mut [f32]) = out.copy_from_slice(&transmute::<__m256, [f32; 8]>(v));
        fn sub(a: __m256, b: __m256) -> __m256 = _mm256_sub_ps(a, b);
        fn mul(a: __m256, b: __m256) -> __m256 = _mm256_mul_ps(a, b);
        fn max(a: __m256, b: __m256) -> __m256 = _mm256_max_ps(a, b);
        fn fmadd(a: __m256, b: __m256, c: __m256) -> __m256 = _mm256_fmadd_ps(a, b, c);
        fn fnmadd(a: __m256, b: __m256, c: __m256) -> __m256 = _mm256_fnmadd_ps(a, b, c);
        // 12 bits.
        fn rsqrt_seed(x: __m256) -> __m256 = _mm256_rsqrt_ps(x);
        fn lt(a: __m256, b: __m256) -> __m256 = _mm256_cmp_ps::<_CMP_LT_OQ>(a, b);
        fn keep(m: __m256, a: __m256) -> __m256 = _mm256_and_ps(a, m);
    }

    // The ymm operand class needs `avx` on the function itself, which
    // rules `#[inline(always)]` out; like the intrinsics above it is
    // inlined once its caller has landed in the entry point.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pin(mut a: __m256) -> __m256 {
        asm!("/* {0} */", inout(ymm_reg) a, options(nostack, preserves_flags));
        a
    }
}

/// 512-bit lanes; requires `avx512f`.
struct Avx512;

impl Lanes for Avx512 {
    type V = __m512;
    type M = __mmask16;
    const W: usize = 16;

    lane_ops! {
        fn splat(x: f32) -> __m512 = _mm512_set1_ps(x);
        fn load(a: &[f32]) -> __m512 = transmute::<[f32; 16], __m512>(a.try_into().expect("one vector of targets"));
        fn store(v: __m512, out: &mut [f32]) = out.copy_from_slice(&transmute::<__m512, [f32; 16]>(v));
        fn sub(a: __m512, b: __m512) -> __m512 = _mm512_sub_ps(a, b);
        fn mul(a: __m512, b: __m512) -> __m512 = _mm512_mul_ps(a, b);
        fn max(a: __m512, b: __m512) -> __m512 = _mm512_max_ps(a, b);
        fn fmadd(a: __m512, b: __m512, c: __m512) -> __m512 = _mm512_fmadd_ps(a, b, c);
        fn fnmadd(a: __m512, b: __m512, c: __m512) -> __m512 = _mm512_fnmadd_ps(a, b, c);
        // 14 bits.
        fn rsqrt_seed(x: __m512) -> __m512 = _mm512_rsqrt14_ps(x);
        fn lt(a: __m512, b: __m512) -> __mmask16 = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, b);
        fn keep(m: __mmask16, a: __m512) -> __m512 = _mm512_maskz_mov_ps(m, a);
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn pin(mut a: __m512) -> __m512 {
        asm!("/* {0} */", inout(zmm_reg) a, options(nostack, preserves_flags));
        a
    }
}

/// The constants of the loop, as scalars the stages broadcast from
/// memory where they use them ([`Lanes::pin`]).
struct Consts {
    one: f32,
    two: f32,
    half: f32,
    c38: f32,
    /// Floor under the rsqrt argument, 2⁻⁸⁰: with lengths in ξ units and
    /// masses ≤ 1, y³ ≤ 2¹²⁰ and the force factor of a coincident pair
    /// stay finite (from `f32::MIN_POSITIVE` y³ would overflow).
    tiny: f32,
    /// ε² in ξ units.
    eps2: f32,
    k015: f32,
    km1235: f32,
    km05: f32,
    k16: f32,
    km16: f32,
    k02: f32,
    k1835: f32,
    k335: f32,
}

impl Consts {
    fn new(eps2: f32) -> Self {
        Consts {
            one: 1.0,
            two: 2.0,
            half: 0.5,
            c38: 0.375,
            tiny: f32::from_bits((127 - 80) << 23),
            eps2,
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
/// staged columns, cut to this trip) against the target vector `t`, `S`
/// independent eq. (3) chains advanced together one stage at a time and
/// retired onto `acc` in list order.
#[inline(always)]
unsafe fn trip<L: Lanes, const S: usize>(
    c: &Consts,
    t: &[L::V; 3],
    src: [&[f32]; 4],
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
    // Stage 1 — differences and softened r² = ξ², floored so both
    // hardware seeds and their cubes stay finite. The floor is the whole
    // zero-distance guard: a coincident pair gets a finite force factor
    // below and multiplies it by dx = dy = dz = +0.
    let dx = stage!(|s| L::sub(L::splat(sx[s]), t[0]));
    let dy = stage!(|s| L::sub(L::splat(sy[s]), t[1]));
    let dz = stage!(|s| L::sub(L::splat(sz[s]), t[2]));
    let r2 = stage!(|s| {
        let z2 = L::fmadd(dz[s], dz[s], L::splat(c.eps2));
        let r2 = L::fmadd(dx[s], dx[s], L::fmadd(dy[s], dy[s], z2));
        L::pin(L::max(r2, L::splat(c.tiny)))
    });
    // Stage 2 — hardware seed, then one third-order step
    // y₁ = y₀(1 + h/2 + 3h²/8), h = 1 − r²y₀²; ξ = r²·y₁ ≈ √r².
    let y1 = stage!(|s| {
        let one = L::splat(c.one);
        let y0 = L::rsqrt_seed(r2[s]);
        let h = L::fnmadd(L::mul(r2[s], y0), y0, one);
        let step = L::fmadd(h, L::splat(c.c38), L::splat(c.half));
        L::mul(y0, L::fmadd(h, step, one))
    });
    let xi = stage!(|s| L::pin(L::mul(r2[s], y1[s])));
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

/// One block: the vector of staged targets `t` against the whole staged
/// source list — [`SOURCES`] a trip, and the sources left over through
/// the same body one a trip. Their sums replace their positions in `t`.
///
/// # Safety
///
/// The features of `L`.
#[inline(always)]
unsafe fn block<L: Lanes>(c: &Consts, t: [&mut [f32]; 3], src: [&[f32]; 4]) {
    let pos = [L::load(t[0]), L::load(t[1]), L::load(t[2])];
    let mut acc = [L::splat(0.0); 3];
    let ns = src[0].len();
    let whole = ns - ns % SOURCES;
    for j in (0..whole).step_by(SOURCES) {
        trip::<L, SOURCES>(c, &pos, src.map(|col| &col[j..j + SOURCES]), &mut acc);
    }
    for j in whole..ns {
        trip::<L, 1>(c, &pos, src.map(|col| &col[j..=j]), &mut acc);
    }
    for (col, a) in t.into_iter().zip(acc) {
        L::store(a, col);
    }
}

/// Farthest a staged coordinate may lie from the origin, in ξ units:
/// r² of two such stays far inside f32.
const FAR: f64 = (1u64 << 40) as f64;
/// Heaviest staged mass over the lightest (nonzero) of its list.
const MASS_SPAN: f64 = (1u128 << 64) as f64;

/// The kernel at width `L`: the conversion pass, one block per `W`
/// staged targets, and the write-back of the live ones.
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
    let (nt, ns) = (targets.len(), sources.len());
    let to_xi = 2.0 / split.r_cut;
    let eps = split.eps * to_xi;
    let eps2 = (eps * eps) as f32;
    // The mass unit: the power of two under the lightest nonzero |m|,
    // times the span — a power of two, so staging a mass only moves its
    // exponent and a null source that moves the unit moves no bit. The
    // lightest is found on the bit patterns, which order as the
    // magnitudes do (0 wraps to the top, NaN sits above every number).
    let magnitude = |m: &f64| (m.to_bits() << 1 >> 1).wrapping_sub(1);
    let lightest = sources.m.iter().map(magnitude).min();
    let lightest = lightest.map_or(0, |bits| bits.wrapping_add(1));
    let unit = f64::from_bits(lightest & (0x7ff << 52)) * MASS_SPAN;
    // What a staged sum is worth: m·dr/r³ = unit·to_xi² · m′·dξ/ξ³.
    let (per_unit, back) = (1.0 / unit, unit * (to_xi * to_xi));
    let heavy = |m: f64| (m * per_unit).abs() > 1.0;

    // The conversion pass, in straight-line loops that vectorise at the
    // width of the entry point this inlines into.
    let (origin, st) = (targets.origin, &mut targets.stage);
    let (mut near, mut any_heavy) = (true, false);
    let columns = [
        (&targets.x[..nt], &sources.x),
        (&targets.y[..nt], &sources.y),
        (&targets.z[..nt], &sources.z),
    ];
    for (k, (t, s)) in columns.into_iter().enumerate() {
        let rel = |&p: &f64| (p - origin[k]) * to_xi;
        near &= t.iter().all(|p| rel(p).abs() <= FAR);
        st.t[k].clear();
        st.t[k].extend(t.iter().map(|p| rel(p) as f32));
        st.t[k].resize(nt.next_multiple_of(L::W), 0.0);
        st.s[k].clear();
        st.s[k].extend(s.iter().map(|p| rel(p).clamp(-FAR, FAR) as f32));
    }
    st.s[3].clear();
    st.s[3].extend(sources.m.iter().map(|&m| {
        any_heavy |= heavy(m);
        (if heavy(m) { 0.0 } else { m * per_unit }) as f32
    }));
    // An empty or massless list, a mass unit or a cutoff outside what
    // f64 can scale by, a softening outside f32, a stray or NaN target:
    // not this kernel's call.
    if !(near && eps2.is_finite() && back.is_finite() && back > 0.0) {
        return pp_accel_scalar(targets, sources, split);
    }

    // Behind `black_box` the constants are memory the optimiser cannot
    // see into, so it loads them where a stage uses them.
    let c = Consts::new(eps2);
    let c = std::hint::black_box(&c);
    let src = [
        &st.s[0][..ns],
        &st.s[1][..ns],
        &st.s[2][..ns],
        &st.s[3][..ns],
    ];
    let [tx, ty, tz] = &mut st.t;
    for i0 in (0..tx.len()).step_by(L::W) {
        let lanes = i0..i0 + L::W;
        let t = [
            &mut tx[lanes.clone()],
            &mut ty[lanes.clone()],
            &mut tz[lanes],
        ];
        block::<L>(c, t, src);
    }
    let out = [&mut targets.ax, &mut targets.ay, &mut targets.az];
    for (col, sums) in out.into_iter().zip(&targets.stage.t) {
        for (a, &sum) in col[..nt].iter_mut().zip(sums) {
            *a += f64::from(sum) * back;
        }
    }
    if any_heavy {
        let exact = (0..ns).filter(|&j| heavy(sources.m[j]));
        let exact: SourceList = exact.map(|j| (sources.pos(j), sources.m[j])).collect();
        pp_accel_scalar(targets, &exact, split);
    }
    (nt * ns) as InteractionCount
}

/// AVX2+FMA cutoff PP kernel in single precision on origin-relative
/// coordinates. Semantics match [`crate::pp_accel_scalar`] to ≤ 2⁻¹⁸ of
/// each target's interaction scale; the interaction count charged is
/// identical to every other kernel in this crate.
///
/// # Safety
///
/// The caller must have verified at runtime that the CPU supports the
/// `avx2` and `fma` target features (e.g. via
/// `is_x86_feature_detected!`); calling this on a CPU without them is
/// undefined behaviour. The dispatcher in [`crate::dispatch`] is the
/// intended caller and performs that check. No other precondition.
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

/// `iters` rounds of [`PROBE_CHAINS`] dependent f32 FMAs at width `L`;
/// returns a value that depends on all of them.
#[inline(always)]
unsafe fn fma_chains<L: Lanes>(iters: u64) -> f32 {
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
        sum = L::fmadd(sum, a, x);
    }
    let mut lanes = [0.0f32; 16];
    L::store(sum, &mut lanes[..L::W]);
    lanes[0]
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fma_chains_avx2(iters: u64) -> f32 {
    fma_chains::<Avx2>(iters)
}

#[target_feature(enable = "avx512f")]
unsafe fn fma_chains_avx512(iters: u64) -> f32 {
    fma_chains::<Avx512>(iters)
}

/// One thread's measured f32 FMA peak in flop/s at the vector width of
/// `variant` — the denominator of the §II-A "% of bound" figure for that
/// kernel. `None` for a variant that is not an x86 kernel this host can
/// run. Best of five bursts of about a millisecond.
pub fn fma_peak_flops(variant: KernelVariant) -> Option<f64> {
    let (w, chains): (usize, unsafe fn(u64) -> f32) = match variant {
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
