//! Batched transforms along a strided mesh axis.
//!
//! A 3-D mesh axis other than the contiguous one is a set of lines whose
//! elements sit one row apart. Transforming them one at a time means
//! gathering a line element by element — one value used from every
//! cache line fetched. Here the unit of work is a *panel* instead: a
//! block of [`PANEL_COLS`] neighbouring lines, gathered as contiguous
//! runs into a scratch buffer that stays in L1 for all `log₂ n`
//! butterfly stages, each stage an inner loop over a contiguous row
//! ([`Fft1d::butterflies_columns`]). The per-element arithmetic is that
//! of [`Fft1d::forward`], so the result equals line-by-line transforms
//! bit for bit.

use crate::complex::Cpx;
use crate::fft1d::Fft1d;

/// Most columns in a panel: `n × 16` complex values is 32 KB at the
/// largest serial mesh (n = 128).
const PANEL_COLS: usize = 16;

/// How a mesh stores complex values in a row: [`Cpx`] itself, or
/// interleaved `re, im` pairs of `f64` (the half-complex layout of
/// [`crate::RealFft3`]).
pub(crate) trait Elem: Send + Sized {
    /// Copy `dst.len()` complex values starting at column `c0` of `row`.
    fn gather(row: &[Self], c0: usize, dst: &mut [Cpx]);
    /// Store `finish(v)` for each `v` of `src` starting at column `c0`.
    fn scatter(src: &[Cpx], row: &mut [Self], c0: usize, finish: impl Fn(Cpx) -> Cpx);
}

impl Elem for Cpx {
    #[inline]
    fn gather(row: &[Cpx], c0: usize, dst: &mut [Cpx]) {
        dst.copy_from_slice(&row[c0..c0 + dst.len()]);
    }
    #[inline]
    fn scatter(src: &[Cpx], row: &mut [Cpx], c0: usize, finish: impl Fn(Cpx) -> Cpx) {
        for (d, &s) in row[c0..c0 + src.len()].iter_mut().zip(src) {
            *d = finish(s);
        }
    }
}

impl Elem for f64 {
    #[inline]
    fn gather(row: &[f64], c0: usize, dst: &mut [Cpx]) {
        let pairs = row[2 * c0..2 * (c0 + dst.len())].chunks_exact(2);
        for (d, p) in dst.iter_mut().zip(pairs) {
            *d = Cpx::new(p[0], p[1]);
        }
    }
    #[inline]
    fn scatter(src: &[Cpx], row: &mut [f64], c0: usize, finish: impl Fn(Cpx) -> Cpx) {
        let pairs = row[2 * c0..2 * (c0 + src.len())].chunks_exact_mut(2);
        for (p, &s) in pairs.zip(src) {
            let v = finish(s);
            p[0] = v.re;
            p[1] = v.im;
        }
    }
}

/// Transform the `cols` lines that run *down* `rows` (line `c` is column
/// `c` of every row; `rows.len()` is the plan size), a panel at a time.
/// Each panel is gathered into `panel` in bit-reversed row order, handed
/// to `body(panel, c0, w)` — which runs the butterflies, and whatever
/// else it wants done while the panel is in cache — and scattered back
/// through `finish`.
pub(crate) fn columns_pass<T: Elem>(
    plan: &Fft1d,
    rows: &mut [&mut [T]],
    cols: usize,
    panel: &mut Vec<Cpx>,
    mut body: impl FnMut(&mut [Cpx], usize, usize),
    finish: impl Fn(Cpx) -> Cpx + Copy,
) {
    assert_eq!(rows.len(), plan.len(), "row count must match the plan");
    // Equal-width panels, so an odd column count (n/2 + 1) does not
    // leave a one-column panel running at single-line speed.
    let width = cols.div_ceil(cols.div_ceil(PANEL_COLS));
    panel.resize(plan.len() * width, Cpx::ZERO);
    for c0 in (0..cols).step_by(width) {
        let w = width.min(cols - c0);
        let panel = &mut panel[..plan.len() * w];
        for (j, row) in rows.iter().enumerate() {
            T::gather(row, c0, &mut panel[plan.rev(j) * w..][..w]);
        }
        body(panel, c0, w);
        for (row, src) in rows.iter_mut().zip(panel.chunks_exact(w)) {
            T::scatter(src, row, c0, finish);
        }
    }
}

/// The rows of an `n × n × row_len` mesh regrouped by their middle
/// index: element `y` lists row `(x, y)` for every `x` in order — the
/// lines of the slowest axis, as disjoint borrows a parallel loop can
/// hand one list each.
pub(crate) fn rows_by_middle<T>(data: &mut [T], n: usize, row_len: usize) -> Vec<Vec<&mut [T]>> {
    let mut lists: Vec<Vec<&mut [T]>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    for (i, row) in data.chunks_exact_mut(row_len).enumerate() {
        lists[i % n].push(row);
    }
    lists
}
