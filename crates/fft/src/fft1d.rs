//! Iterative radix-2 Cooley-Tukey FFT plan.
//!
//! Conventions (matching FFTW's): the **forward** transform computes
//! `X[k] = Σ_j x[j]·exp(−2πi·jk/n)` and the **inverse** computes the
//! `+2πi` sum, both *unnormalised* — a forward/inverse roundtrip scales
//! by `n`, and the 3-D drivers divide by `n³` once at the end, exactly
//! where a PM code wants the normalisation (folded into the Green's
//! function application).
//!
//! Every production transform runs the same butterflies, two stages at a
//! time, on panels of lines with split real and imaginary parts, inside
//! a job compiled at the CPU's widest vector width ([`Fft1d::in_width`]);
//! [`Fft1d::forward`] is the single-line textbook loop the bitwise tests
//! compare them with.

use crate::columns::{at_width, panels};
use crate::complex::Cpx;
use std::sync::OnceLock;

/// A reusable FFT plan for a fixed power-of-two size: precomputed
/// bit-reversal permutation and twiddle factors.
#[derive(Debug, Clone)]
pub struct Fft1d {
    n: usize,
    /// Bit-reversal permutation table.
    rev: Vec<u32>,
    /// Twiddles for the forward transform, grouped per stage:
    /// stage `s` (half-size `m = 2^s`) uses `twiddle[m-1 .. 2m-1]`,
    /// holding `exp(-πi·k/m)` for `k < m` (flat "w-tree" layout).
    tw: Vec<Cpx>,
    /// The instruction set the panel butterflies run in.
    width: Width,
}

/// The vector width a [`Wide`] job is compiled for: one generic body,
/// instantiated at the baseline target and again with AVX2 or AVX-512
/// enabled, vectorised by the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Width {
    Base,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Width {
    /// Every width this CPU runs, narrowest first.
    fn available() -> Vec<(&'static str, Width)> {
        #[allow(unused_mut)]
        let mut all = vec![("base", Width::Base)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                all.push(("avx2", Width::Avx2));
            }
            if is_x86_feature_detected!("avx512f") {
                all.push(("avx512", Width::Avx512));
            }
        }
        all
    }
}

impl Fft1d {
    /// Plan a transform of size `n` (must be a power of two ≥ 1).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "FFT size must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        // Twiddle tree: for each half-size m = 1,2,4,…,n/2 store
        // exp(-πi·k/m), k < m, at offset m-1.
        let mut tw = Vec::with_capacity(n.max(1));
        let mut m = 1;
        while m <= n / 2 {
            for k in 0..m {
                tw.push(Cpx::cis(-std::f64::consts::PI * k as f64 / m as f64));
            }
            m <<= 1;
        }
        // The widest width, detected once per process.
        static WIDEST: OnceLock<Width> = OnceLock::new();
        let width = *WIDEST.get_or_init(|| Width::available().last().expect("base").1);
        Fft1d { n, rev, tw, width }
    }

    /// This plan once per butterfly width the CPU runs, named, narrowest
    /// first — for the bitwise tests and the bench. [`new`](Self::new)
    /// picks the widest; every width gives the same bits.
    #[doc(hidden)]
    pub fn at_each_width(&self) -> Vec<(&'static str, Fft1d)> {
        let at = |(name, width)| {
            let mut plan = self.clone();
            plan.width = width;
            (name, plan)
        };
        Width::available().into_iter().map(at).collect()
    }

    /// The planned size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the plan is the trivial size-1 transform.
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// In-place forward transform (`exp(−2πi)` convention,
    /// unnormalised) of one line: the textbook loop, kept as the
    /// reference that [`butterflies_columns`](Self::butterflies_columns)
    /// is tested against bit for bit.
    pub fn forward(&self, x: &mut [Cpx]) {
        assert_eq!(x.len(), self.n, "buffer length != plan size");
        let n = self.n;
        if n == 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                x.swap(i, j);
            }
        }
        // Butterflies.
        let mut m = 1; // half-size of the current butterflies
        let mut toff = 0; // twiddle offset for this stage
        while m < n {
            let step = m << 1;
            let tws = &self.tw[toff..toff + m];
            let mut base = 0;
            while base < n {
                for k in 0..m {
                    let w = tws[k];
                    let t = w * x[base + k + m];
                    let u = x[base + k];
                    x[base + k] = u + t;
                    x[base + k + m] = u - t;
                }
                base += step;
            }
            toff += m;
            m = step;
        }
    }

    /// Where element `i` goes under the bit-reversal permutation.
    #[inline]
    pub fn rev(&self, i: usize) -> usize {
        self.rev[i] as usize
    }

    /// The root of unity `exp(−2πi·k/n)` for `k < n/2` (the last
    /// stage's twiddles).
    #[inline]
    pub fn root(&self, k: usize) -> Cpx {
        self.tw[self.n / 2 - 1 + k]
    }

    /// The butterfly stages of [`forward`](Self::forward) on a panel of
    /// `w` sequences with split parts: `re[j·w + b]`, `im[j·w + b]` is
    /// element `j` of sequence `b`, and rows must already be in
    /// bit-reversed order (row `rev(j)` holds element `j`). Every
    /// element sees the same twiddle and the same operations in the same
    /// order as in `forward`, so each column is bit-identical to a
    /// single-line transform; what changes is that the inner loop runs
    /// over contiguous rows of plain `f64`, at the widest vector width
    /// the CPU has. The columns run as the panels [`panels`] cuts `w`
    /// into, each at its own compile-time width.
    pub fn butterflies_columns(&self, re: &mut [f64], im: &mut [f64], w: usize) {
        let len = self.n * w;
        assert!(
            re.len() == len && im.len() == len,
            "panel size != plan size × width"
        );
        self.in_width(Columns {
            tw: &self.tw,
            re,
            im,
            w,
        });
    }

    /// [`butterflies_columns`](Self::butterflies_columns) on a panel of
    /// exactly `W` columns, inside an [`in_width`](Self::in_width) job.
    #[inline(always)]
    pub(crate) fn butterflies<const W: usize>(&self, re: &mut [[f64; W]], im: &mut [[f64; W]]) {
        assert_eq!(re.len(), self.n, "panel rows != plan size");
        stages::<W>(&self.tw, re.as_flattened_mut(), im.as_flattened_mut(), W, 0);
    }

    /// `job` compiled at this plan's butterfly width.
    #[inline(always)]
    pub(crate) fn in_width(&self, job: impl Wide) {
        match self.width {
            Width::Base => job.run(),
            #[cfg(target_arch = "x86_64")]
            wide => wide::run(wide, job),
        }
    }

    /// In-place inverse transform (`exp(+2πi)` convention, unnormalised:
    /// `inverse(forward(x)) == n·x`).
    pub fn inverse(&self, x: &mut [Cpx]) {
        for v in x.iter_mut() {
            *v = v.conj();
        }
        self.forward(x);
        for v in x.iter_mut() {
            *v = v.conj();
        }
    }
}

/// Work [`Fft1d::in_width`] runs compiled at a plan's butterfly width.
/// `run` is `#[inline(always)]` in every implementation, and so is
/// every function it calls that has a loop worth vectorising: that is
/// what puts its body into each width's copy (a closure would be
/// compiled once, at the baseline, and called from all three).
pub(crate) trait Wide {
    fn run(self);
}

/// [`Fft1d::butterflies_columns`]' job: the panel's columns in the
/// widths [`panels`] cuts them into.
struct Columns<'a> {
    tw: &'a [Cpx],
    re: &'a mut [f64],
    im: &'a mut [f64],
    w: usize,
}

impl Wide for Columns<'_> {
    #[inline(always)]
    fn run(self) {
        for (c0, cols) in panels(self.w) {
            at_width!(cols, W => stages::<W>(self.tw, self.re, self.im, self.w, c0));
        }
    }
}

/// The one butterfly: `t = tw·v; (u, v) ← (u + t, u − t)`, `Cpx`'s
/// multiply, add and subtract written out on the split parts.
#[inline(always)]
fn butterfly(tw: Cpx, u: &mut (f64, f64), v: &mut (f64, f64)) {
    let (tr, ti) = (tw.re * v.0 - tw.im * v.1, tw.re * v.1 + tw.im * v.0);
    let (sr, si) = *u;
    *u = (sr + tr, si + ti);
    *v = (sr - tr, si - ti);
}

/// Two stages on every lane of four rows `a, b, c, d` (split parts):
/// stage `m` on the pairs `(a, b)`, `(c, d)` with `t[0]`, then stage
/// `2m` on `(a, c)` with `t[1]` and `(b, d)` with `t[2]`. Each row is
/// its own `&mut` argument, so the lane loop is free to vectorise.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn radix4<const W: usize>(
    t: [Cpx; 3],
    ar: &mut [f64; W],
    ai: &mut [f64; W],
    br: &mut [f64; W],
    bi: &mut [f64; W],
    cr: &mut [f64; W],
    ci: &mut [f64; W],
    dr: &mut [f64; W],
    di: &mut [f64; W],
) {
    for l in 0..W {
        let (mut a, mut b) = ((ar[l], ai[l]), (br[l], bi[l]));
        let (mut c, mut d) = ((cr[l], ci[l]), (dr[l], di[l]));
        butterfly(t[0], &mut a, &mut b);
        butterfly(t[0], &mut c, &mut d);
        butterfly(t[1], &mut a, &mut c);
        butterfly(t[2], &mut b, &mut d);
        (ar[l], ai[l], br[l], bi[l]) = (a.0, a.1, b.0, b.1);
        (cr[l], ci[l], dr[l], di[l]) = (c.0, c.1, d.0, d.1);
    }
}

/// One stage on every lane of two rows.
#[inline(always)]
fn radix2<const W: usize>(
    t: Cpx,
    ar: &mut [f64; W],
    ai: &mut [f64; W],
    br: &mut [f64; W],
    bi: &mut [f64; W],
) {
    for l in 0..W {
        let (mut a, mut b) = ((ar[l], ai[l]), (br[l], bi[l]));
        butterfly(t, &mut a, &mut b);
        (ar[l], ai[l], br[l], bi[l]) = (a.0, a.1, b.0, b.1);
    }
}

/// Lanes `at .. at + W` of `k` rows `gap` apart in `x`.
#[inline(always)]
fn rows<const W: usize, const K: usize>(
    x: &mut [f64],
    at: usize,
    gap: usize,
) -> [&mut [f64; W]; K] {
    let mut rest = &mut x[at..];
    std::array::from_fn(|_| {
        let cut = gap.min(rest.len());
        let (row, tail) = std::mem::take(&mut rest).split_at_mut(cut);
        rest = tail;
        row.first_chunk_mut::<W>().expect("row inside the panel")
    })
}

/// The stages of a panel whose row `j` is lanes `c0 .. c0 + W` of
/// `re[j·s ..]`, `im[j·s ..]`, two at a time ([`radix4`]): the four
/// rows `k`, `k + m`, `k + 2m`, `k + 3m` of a block of `4m` are loaded
/// once, pass stage `m` and stage `2m` in registers, and are stored
/// once. Each element still meets its twiddles in stage order, with the
/// operands of the one-stage-at-a-time loop: the same bits. An odd last
/// stage runs alone. Inlined into every width's copy.
#[inline(always)]
fn stages<const W: usize>(tw: &[Cpx], re: &mut [f64], im: &mut [f64], s: usize, c0: usize) {
    let n = re.len() / s;
    let mut m = 1;
    while 4 * m <= n {
        let (t1, t2) = (&tw[m - 1..2 * m - 1], &tw[2 * m - 1..4 * m - 1]);
        for blk in (0..n).step_by(4 * m) {
            for k in 0..m {
                let at = (blk + k) * s + c0;
                let [ar, br, cr, dr] = rows::<W, 4>(re, at, m * s);
                let [ai, bi, ci, di] = rows::<W, 4>(im, at, m * s);
                radix4([t1[k], t2[k], t2[k + m]], ar, ai, br, bi, cr, ci, dr, di);
            }
        }
        m *= 4;
    }
    if m < n {
        for k in 0..m {
            let at = k * s + c0;
            let [ar, br] = rows::<W, 2>(re, at, m * s);
            let [ai, bi] = rows::<W, 2>(im, at, m * s);
            radix2(tw[m - 1 + k], ar, ai, br, bi);
        }
    }
}

/// The AVX2 and AVX-512 copies of every [`Wide`] job, and the crate's
/// one `unsafe` block: the call into the copy a plan holds.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod wide {
    use super::{Wide, Width};

    #[target_feature(enable = "avx2")]
    fn avx2(job: impl Wide) {
        job.run()
    }

    #[target_feature(enable = "avx512f")]
    fn avx512(job: impl Wide) {
        job.run()
    }

    #[inline(always)]
    pub(super) fn run(width: Width, job: impl Wide) {
        // SAFETY: a plan holds `Width::Avx2` or `Width::Avx512` only if
        // `Width::available` found that feature with
        // `is_x86_feature_detected!` on this CPU, so the copy called here
        // runs on hardware that has every instruction it was compiled to.
        unsafe {
            if width == Width::Avx512 {
                avx512(job)
            } else {
                avx2(job)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference O(n²) DFT used by tests (forward convention).
    fn dft_naive(x: &[Cpx]) -> Vec<Cpx> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|j| {
                        x[j] * Cpx::cis(-2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64)
                    })
                    .fold(Cpx::ZERO, |a, b| a + b)
            })
            .collect()
    }

    fn rand_signal(n: usize, seed: u64) -> Vec<Cpx> {
        // Tiny deterministic LCG; no rand dependency needed here.
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n).map(|_| Cpx::new(next(), next())).collect()
    }

    fn max_err(a: &[Cpx], b: &[Cpx]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 64, 256] {
            let x = rand_signal(n, 42 + n as u64);
            let want = dft_naive(&x);
            let mut got = x.clone();
            Fft1d::new(n).forward(&mut got);
            assert!(
                max_err(&got, &want) < 1e-10 * (n as f64),
                "n={n}: err {}",
                max_err(&got, &want)
            );
        }
    }

    #[test]
    fn roundtrip_scales_by_n() {
        for &n in &[2usize, 8, 32, 128, 1024] {
            let plan = Fft1d::new(n);
            let x = rand_signal(n, 7);
            let mut y = x.clone();
            plan.forward(&mut y);
            plan.inverse(&mut y);
            let scaled: Vec<Cpx> = x.iter().map(|v| v.scale(n as f64)).collect();
            assert!(max_err(&y, &scaled) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn linearity() {
        let n = 64;
        let plan = Fft1d::new(n);
        let a = rand_signal(n, 1);
        let b = rand_signal(n, 2);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut fab: Vec<Cpx> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(3.0)).collect();
        plan.forward(&mut fab);
        let want: Vec<Cpx> = fa.iter().zip(&fb).map(|(x, y)| *x + y.scale(3.0)).collect();
        assert!(max_err(&fab, &want) < 1e-10 * n as f64);
    }

    #[test]
    fn parseval() {
        let n = 256;
        let plan = Fft1d::new(n);
        let x = rand_signal(n, 3);
        let mut f = x.clone();
        plan.forward(&mut f);
        let e_time: f64 = x.iter().map(|v| v.norm2()).sum();
        let e_freq: f64 = f.iter().map(|v| v.norm2()).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() < 1e-10 * e_time);
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let n = 32;
        let mut x = vec![Cpx::ZERO; n];
        x[0] = Cpx::ONE;
        Fft1d::new(n).forward(&mut x);
        for v in x {
            assert!((v - Cpx::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_gives_impulse_spectrum() {
        let n = 32;
        let mut x = vec![Cpx::ONE; n];
        Fft1d::new(n).forward(&mut x);
        assert!((x[0] - Cpx::real(n as f64)).abs() < 1e-12);
        for v in &x[1..] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn shift_theorem() {
        // Cyclically shifting the input multiplies the spectrum by a phase.
        let n = 64;
        let plan = Fft1d::new(n);
        let x = rand_signal(n, 5);
        let mut shifted: Vec<Cpx> = x.clone();
        shifted.rotate_right(1);
        let mut fx = x.clone();
        let mut fs = shifted;
        plan.forward(&mut fx);
        plan.forward(&mut fs);
        for k in 0..n {
            let phase = Cpx::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64);
            assert!((fs[k] - fx[k] * phase).abs() < 1e-10);
        }
    }

    #[test]
    fn batched_columns_equal_single_lines_bitwise() {
        for n in (0..=8).map(|s| 1usize << s) {
            let lines: Vec<Vec<Cpx>> = (0..33).map(|b| rand_signal(n, 90 + b as u64)).collect();
            let reference = Fft1d::new(n);
            let want: Vec<Vec<Cpx>> = lines
                .iter()
                .map(|line| {
                    let mut line = line.clone();
                    reference.forward(&mut line);
                    line
                })
                .collect();
            for (name, plan) in reference.at_each_width() {
                for w in 1..=lines.len() {
                    let (mut re, mut im) = (vec![0.0; n * w], vec![0.0; n * w]);
                    for (b, line) in lines[..w].iter().enumerate() {
                        for (j, v) in line.iter().enumerate() {
                            (re[plan.rev(j) * w + b], im[plan.rev(j) * w + b]) = (v.re, v.im);
                        }
                    }
                    plan.butterflies_columns(&mut re, &mut im, w);
                    for (b, want) in want[..w].iter().enumerate() {
                        for (j, v) in want.iter().enumerate() {
                            assert_eq!(
                                (re[j * w + b].to_bits(), im[j * w + b].to_bits()),
                                (v.re.to_bits(), v.im.to_bits()),
                                "{name}: n={n} w={w} column {b} element {j}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        let _ = Fft1d::new(12);
    }
}
