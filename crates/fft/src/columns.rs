//! Batched transforms: every axis a panel of lines at a time.
//!
//! The unit of work is a [`Panel`]: `W` lines side by side, `W` a
//! compile-time width (16, or a power of two for the rest of an axis),
//! real and imaginary parts in separate arrays of `[f64; W]` rows, so a
//! butterfly row is plain vectors and every loop over a row has a trip
//! count the compiler knows ([`Fft1d::butterflies`]). Rows are written
//! in bit-reversed order where a panel is filled, so the permutation
//! costs nothing. A strided axis comes in as runs of neighbouring
//! columns ([`gather`], [`scatter`]), the contiguous axis as the
//! transposed columns of a panel ([`load_rows`], [`store_rows`]), and
//! one panel's rows become another's columns by [`transpose`]. The
//! per-element arithmetic is [`Fft1d::forward`]'s: line-by-line bits.

use crate::complex::Cpx;
use crate::fft1d::Fft1d;

/// Most lines in a panel: two whole AVX-512 vectors of `f64` a row, and
/// `n × 16` complex values is 32 KB at the largest serial mesh (n = 128).
pub(crate) const PANEL_COLS: usize = 16;

/// `(first column, width)` of the panels `cols` lines run in: whole
/// panels of [`PANEL_COLS`], then the rest in powers of two, widest
/// first — 65 half-complex columns are 4 × 16 + 1, 9 are 8 + 1.
pub(crate) fn panels(cols: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut c0 = 0;
    std::iter::from_fn(move || {
        let rest = cols - c0;
        (rest > 0).then(|| {
            let w = PANEL_COLS.min(1 << rest.ilog2());
            c0 += w;
            (c0 - w, w)
        })
    })
}

/// `$body` with `$W` bound to the panel width `$w` as a constant: one
/// copy of `$body` per width [`panels`] hands out.
macro_rules! at_width {
    ($w:expr, $W:ident => $body:expr) => {
        at_width!($w, $W => $body; 16 8 4 2 1)
    };
    ($w:expr, $W:ident => $body:expr; $($n:literal)*) => {
        match $w {
            $($n => {
                const $W: usize = $n;
                $body
            })*
            w => unreachable!("panel width {w}"),
        }
    };
}
pub(crate) use at_width;

/// `W` lines of `len` complex values, split: element `j` of line `b` is
/// `(re[j][b], im[j][b])`.
pub(crate) struct Panel<'a, const W: usize> {
    pub re: &'a mut [[f64; W]],
    pub im: &'a mut [[f64; W]],
}

impl<'a, const W: usize> Panel<'a, W> {
    /// A panel of `rows` rows from the front of `scratch`, which keeps
    /// the rest.
    #[inline(always)]
    pub fn take(scratch: &mut &'a mut [f64], rows: usize) -> Self {
        let (panel, rest) = std::mem::take(scratch).split_at_mut(2 * rows * W);
        *scratch = rest;
        let (re, im) = panel.split_at_mut(rows * W);
        Panel {
            re: re.as_chunks_mut().0,
            im: im.as_chunks_mut().0,
        }
    }

    /// Rows.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// Every line's butterflies; rows arrive bit-reversed and leave in
    /// natural order.
    #[inline(always)]
    pub fn fft(&mut self, plan: &Fft1d) {
        plan.butterflies(self.re, self.im);
    }

    /// Row `j`, split.
    #[inline(always)]
    pub fn row(&self, j: usize) -> (&[f64; W], &[f64; W]) {
        (&self.re[j], &self.im[j])
    }

    /// Row `j`, split, to write.
    #[inline(always)]
    pub fn row_mut(&mut self, j: usize) -> (&mut [f64; W], &mut [f64; W]) {
        (&mut self.re[j], &mut self.im[j])
    }
}

/// How a mesh stores complex values in a row: [`Cpx`] itself, or
/// interleaved `re, im` pairs of `f64` (the half-complex layout of
/// [`crate::RealFft3`]).
pub(crate) trait Elem: Send + Sized {
    /// Elements per complex value.
    const PER: usize;
    /// Complex value `i` of `row`.
    fn get(row: &[Self], i: usize) -> Cpx;
    /// Store complex value `i` of `row`.
    fn set(row: &mut [Self], i: usize, v: Cpx);
}

impl Elem for Cpx {
    const PER: usize = 1;
    #[inline(always)]
    fn get(row: &[Cpx], i: usize) -> Cpx {
        row[i]
    }
    #[inline(always)]
    fn set(row: &mut [Cpx], i: usize, v: Cpx) {
        row[i] = v;
    }
}

impl Elem for f64 {
    const PER: usize = 2;
    #[inline(always)]
    fn get(row: &[f64], i: usize) -> Cpx {
        Cpx::new(row[2 * i], row[2 * i + 1])
    }
    #[inline(always)]
    fn set(row: &mut [f64], i: usize, v: Cpx) {
        (row[2 * i], row[2 * i + 1]) = (v.re, v.im);
    }
}

/// `(or, oi)[b] ← f(a[b], c[b])` for every lane `b` of split rows.
/// The output row is two `&mut` arguments of their own, so LLVM knows
/// it overlaps neither input and the lane loop vectorises.
#[inline(always)]
pub(crate) fn lanes<const W: usize>(
    or: &mut [f64; W],
    oi: &mut [f64; W],
    (ar, ai): (&[f64; W], &[f64; W]),
    (cr, ci): (&[f64; W], &[f64; W]),
    f: impl Fn(Cpx, Cpx) -> Cpx,
) {
    for b in 0..W {
        let v = f(Cpx::new(ar[b], ai[b]), Cpx::new(cr[b], ci[b]));
        (or[b], oi[b]) = (v.re, v.im);
    }
}

/// `(re, im)[b] ← f` of complex value `b` of `run`, for every lane.
#[inline(always)]
fn from_run<T: Elem, const W: usize>(
    re: &mut [f64; W],
    im: &mut [f64; W],
    run: &[T],
    f: impl Fn(Cpx) -> Cpx,
) {
    let run = &run[..T::PER * W];
    for b in 0..W {
        let v = f(T::get(run, b));
        (re[b], im[b]) = (v.re, v.im);
    }
}

/// Complex value `b` of `run` ← `f` of lane `b` of `(re, im)`.
#[inline(always)]
fn to_run<T: Elem, const W: usize>(
    run: &mut [T],
    (re, im): (&[f64; W], &[f64; W]),
    f: impl Fn(Cpx) -> Cpx,
) {
    let run = &mut run[..T::PER * W];
    for b in 0..W {
        T::set(run, b, f(Cpx::new(re[b], im[b])));
    }
}

/// [`Cpx::conj`] if `yes`, else the identity: the map a copy into or out
/// of a panel applies to each value on its way, so that a conjugation
/// costs no pass over the panel of its own.
pub(crate) fn conj_if(yes: bool) -> impl Fn(Cpx) -> Cpx + Copy {
    move |v| if yes { v.conj() } else { v }
}

/// The strided axis in: panel row `to(j)` ← `f` of complex values
/// `c0 .. c0 + W` of the `j`-th of `rows`.
#[inline(always)]
pub(crate) fn gather<'r, T: Elem + 'r, const W: usize>(
    p: &mut Panel<W>,
    rows: impl Iterator<Item = &'r [T]>,
    c0: usize,
    to: impl Fn(usize) -> usize,
    f: impl Fn(Cpx) -> Cpx,
) {
    for (j, row) in rows.enumerate() {
        gather_row(p, to(j), row, c0, &f);
    }
}

/// Panel row `j` ← `f` of complex values `c0 .. c0 + W` of `row`.
#[inline(always)]
pub(crate) fn gather_row<T: Elem, const W: usize>(
    p: &mut Panel<W>,
    j: usize,
    row: &[T],
    c0: usize,
    f: impl Fn(Cpx) -> Cpx,
) {
    let (re, im) = p.row_mut(j);
    from_run(re, im, &row[T::PER * c0..], f);
}

/// The strided axis out: complex values `c0 .. c0 + W` of the `j`-th
/// of `rows` ← `f` of panel row `j`.
#[inline(always)]
pub(crate) fn scatter<'r, T: Elem + 'r, const W: usize>(
    p: &Panel<W>,
    rows: impl Iterator<Item = &'r mut [T]>,
    c0: usize,
    f: impl Fn(Cpx) -> Cpx,
) {
    for (j, row) in rows.enumerate() {
        scatter_row(p, j, row, c0, &f);
    }
}

/// Complex values `c0 .. c0 + W` of `row` ← `f` of panel row `j`.
#[inline(always)]
pub(crate) fn scatter_row<T: Elem, const W: usize>(
    p: &Panel<W>,
    j: usize,
    row: &mut [T],
    c0: usize,
    f: impl Fn(Cpx) -> Cpx,
) {
    to_run(&mut row[T::PER * c0..], p.row(j), f);
}

/// The contiguous axis in: panel row `to(j)`, lane `b` ← `f` of complex
/// value `j` of row `b` of `rows` (`W` rows, `ld` elements apart), for
/// every row of the panel.
#[inline(always)]
pub(crate) fn load_rows<T: Elem, const W: usize>(
    p: &mut Panel<W>,
    rows: &[T],
    ld: usize,
    to: impl Fn(usize) -> usize,
    f: impl Fn(Cpx) -> Cpx,
) {
    let len = p.len();
    let rows: [&[T]; W] = std::array::from_fn(|b| &rows[b * ld..][..T::PER * len]);
    for j in 0..len {
        let (re, im) = p.row_mut(to(j));
        for b in 0..W {
            let v = f(T::get(rows[b], j));
            (re[b], im[b]) = (v.re, v.im);
        }
    }
}

/// The inverse of [`load_rows`] without a permutation.
#[inline(always)]
pub(crate) fn store_rows<T: Elem, const W: usize>(
    p: &Panel<W>,
    rows: &mut [T],
    ld: usize,
    f: impl Fn(Cpx) -> Cpx,
) {
    let len = p.len();
    for b in 0..W {
        let row = &mut rows[b * ld..][..T::PER * len];
        for j in 0..len {
            T::set(row, j, f(Cpx::new(p.re[j][b], p.im[j][b])));
        }
    }
}

/// Rows into columns: `dst` row `to(i)`, lane `j` ← `f` of `src` row
/// `from + j`, lane `i`, for every lane `i < A` of `src` and `j < B` of
/// `dst`.
#[inline(always)]
pub(crate) fn transpose<const A: usize, const B: usize>(
    src: &Panel<A>,
    from: usize,
    dst: &mut Panel<B>,
    to: impl Fn(usize) -> usize,
    f: impl Fn(Cpx) -> Cpx,
) {
    let (re, im) = (&src.re[from..][..B], &src.im[from..][..B]);
    for i in 0..A {
        let mut out = ([0.0; B], [0.0; B]);
        for j in 0..B {
            let v = f(Cpx::new(re[j][i], im[j][i]));
            (out.0[j], out.1[j]) = (v.re, v.im);
        }
        let (re, im) = dst.row_mut(to(i));
        (*re, *im) = out;
    }
}

/// Every row of an `n × n × row_len` mesh ordered by its middle index:
/// line `y` is `rows[y·n .. (y+1)·n]`, its rows `(x, y)` in `x` order —
/// disjoint borrows a parallel loop can hand out a line at a time.
pub(crate) fn rows_by_middle<T>(data: &mut [T], n: usize, row_len: usize) -> Vec<&mut [T]> {
    let mut rows: Vec<&mut [T]> = data.chunks_exact_mut(row_len).collect();
    assert_eq!(rows.len(), n * n, "mesh is not n × n rows");
    for x in 0..n {
        for y in x + 1..n {
            rows.swap(x * n + y, y * n + x);
        }
    }
    rows
}
