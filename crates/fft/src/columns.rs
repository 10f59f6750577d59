//! Batched transforms: every axis a panel of lines at a time.
//!
//! The unit of work is a [`Panel`]: up to [`PANEL_COLS`] lines side by
//! side, rows in bit-reversed order so the permutation costs nothing,
//! real and imaginary parts in separate `f64` arrays so a butterfly row
//! is plain vectors, L1-resident for all `log₂ n` stages
//! ([`Fft1d::butterflies_columns`]). A strided axis comes in as runs of
//! neighbouring columns ([`columns_pass`]), the contiguous axis as the
//! transposed columns of a panel ([`Panel::load`]). The per-element
//! arithmetic is [`Fft1d::forward`]'s: line-by-line bits.

use crate::complex::Cpx;
use crate::fft1d::Fft1d;

/// Most lines in a panel: two whole AVX-512 vectors of `f64` a row, and
/// `n × 16` complex values is 32 KB at the largest serial mesh (n = 128).
pub(crate) const PANEL_COLS: usize = 16;

/// `w` lines of `len` complex values, split: element `j` of line `b` is
/// `(re[j·w + b], im[j·w + b])`.
pub(crate) struct Panel<'a> {
    pub re: &'a mut [f64],
    pub im: &'a mut [f64],
    pub w: usize,
}

impl<'a> Panel<'a> {
    /// Panels of `lens[i]` rows, carved from a task's scratch, which
    /// grows to its high-water mark and is never shrunk.
    pub fn of<const K: usize>(scratch: &'a mut Vec<f64>, lens: [usize; K], w: usize) -> [Self; K] {
        let need = 2 * w * lens.iter().sum::<usize>();
        if scratch.len() < need {
            scratch.resize(need, 0.0);
        }
        let mut rest = &mut scratch[..need];
        lens.map(|len| {
            let (panel, tail) = std::mem::take(&mut rest).split_at_mut(2 * len * w);
            rest = tail;
            let (re, im) = panel.split_at_mut(len * w);
            Panel { re, im, w }
        })
    }

    /// Row `j`, split.
    #[inline]
    pub fn row(&self, j: usize) -> (&[f64], &[f64]) {
        let r = j * self.w..(j + 1) * self.w;
        (&self.re[r.clone()], &self.im[r])
    }

    /// Row `j`, split, mutable.
    #[inline]
    pub fn row_mut(&mut self, j: usize) -> (&mut [f64], &mut [f64]) {
        let r = j * self.w..(j + 1) * self.w;
        (&mut self.re[r.clone()], &mut self.im[r])
    }

    /// Every line's butterflies; rows arrive bit-reversed and leave in
    /// natural order.
    pub fn fft(&mut self, plan: &Fft1d) {
        plan.butterflies_columns(self.re, self.im, self.w);
    }

    /// Lines of a contiguous axis as the panel's columns: row `to(j)`,
    /// column `b` ← `f` of element `j` of `lines[b]`, for every row.
    pub fn load<T: Elem>(
        &mut self,
        lines: &[&mut [T]],
        to: impl Fn(usize) -> usize,
        f: impl Fn(Cpx) -> Cpx,
    ) {
        for j in 0..self.re.len() / self.w {
            let (re, im) = self.row_mut(to(j));
            for ((r, i), line) in re.iter_mut().zip(im).zip(lines) {
                let v = f(T::get(line, j));
                (*r, *i) = (v.re, v.im);
            }
        }
    }

    /// The inverse of [`load`](Self::load) without a permutation.
    pub fn store<T: Elem>(&self, lines: &mut [&mut [T]], f: impl Fn(Cpx) -> Cpx) {
        for j in 0..self.re.len() / self.w {
            let (re, im) = self.row(j);
            for ((&r, &i), line) in re.iter().zip(im).zip(lines.iter_mut()) {
                T::set(line, j, f(Cpx::new(r, i)));
            }
        }
    }

    /// Move row `j` to row `plan.rev(j)`, for every `j`.
    pub fn reverse_rows(&mut self, plan: &Fft1d) {
        for j in 0..self.re.len() / self.w {
            let (r, w) = (plan.rev(j), self.w);
            if j < r {
                for part in [&mut *self.re, &mut *self.im] {
                    let (a, b) = part.split_at_mut(r * w);
                    a[j * w..(j + 1) * w].swap_with_slice(&mut b[..w]);
                }
            }
        }
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
    #[inline]
    fn get(row: &[Cpx], i: usize) -> Cpx {
        row[i]
    }
    #[inline]
    fn set(row: &mut [Cpx], i: usize, v: Cpx) {
        row[i] = v;
    }
}

impl Elem for f64 {
    const PER: usize = 2;
    #[inline]
    fn get(row: &[f64], i: usize) -> Cpx {
        Cpx::new(row[2 * i], row[2 * i + 1])
    }
    #[inline]
    fn set(row: &mut [f64], i: usize, v: Cpx) {
        (row[2 * i], row[2 * i + 1]) = (v.re, v.im);
    }
}

/// `out[b] = f(a[b], c[b])` for every column `b` of three split rows.
#[inline]
pub(crate) fn combine_rows(
    out: (&mut [f64], &mut [f64]),
    a: (&[f64], &[f64]),
    c: (&[f64], &[f64]),
    f: impl Fn(Cpx, Cpx) -> Cpx,
) {
    let ins = a.0.iter().zip(a.1).zip(c.0.iter().zip(c.1));
    for ((or, oi), ((&ar, &ai), (&cr, &ci))) in out.0.iter_mut().zip(out.1).zip(ins) {
        let v = f(Cpx::new(ar, ai), Cpx::new(cr, ci));
        (*or, *oi) = (v.re, v.im);
    }
}

/// [`Cpx::conj`] if `yes`, else the identity: the map a copy into or out
/// of a panel applies to each value on its way, so that a conjugation
/// costs no pass over the panel of its own.
pub(crate) fn conj_if(yes: bool) -> impl Fn(Cpx) -> Cpx {
    move |v| if yes { v.conj() } else { v }
}

/// Transform the `cols` lines that run *down* `rows` (line `c` is column
/// `c` of every row; `rows.len()` is the plan size), a panel of
/// [`PANEL_COLS`] at a time and the rest in one last panel. Each panel is
/// gathered through `start`, handed to `body(panel, c0)` — which runs
/// the butterflies, and whatever else it wants done while the panel is
/// in cache — and scattered back through `finish`.
pub(crate) fn columns_pass<T: Elem>(
    plan: &Fft1d,
    rows: &mut [&mut [T]],
    cols: usize,
    scratch: &mut Vec<f64>,
    (start, finish): (impl Fn(Cpx) -> Cpx, impl Fn(Cpx) -> Cpx),
    mut body: impl FnMut(&mut Panel, usize),
) {
    assert_eq!(rows.len(), plan.len(), "row count must match the plan");
    for c0 in (0..cols).step_by(PANEL_COLS) {
        let w = PANEL_COLS.min(cols - c0);
        let [mut p] = Panel::of(scratch, [plan.len()], w);
        let run = T::PER * c0..T::PER * (c0 + w);
        for (j, row) in rows.iter().enumerate() {
            let ((re, im), row) = (p.row_mut(plan.rev(j)), &row[run.clone()]);
            for (b, (r, i)) in re.iter_mut().zip(im).enumerate() {
                let v = start(T::get(row, b));
                (*r, *i) = (v.re, v.im);
            }
        }
        body(&mut p, c0);
        for (j, row) in rows.iter_mut().enumerate() {
            let ((re, im), row) = (p.row(j), &mut row[run.clone()]);
            for (b, (&r, &i)) in re.iter().zip(im).enumerate() {
                T::set(row, b, finish(Cpx::new(r, i)));
            }
        }
    }
}

/// Lines of the slowest axis: each line's middle index `y` and its
/// rows `(x, y)`, `x` in order, as disjoint borrows a parallel loop can
/// hand one line each.
pub(crate) type Lines<'a, T = f64> = Vec<(usize, Vec<&'a mut [T]>)>;

/// Every line of an `n × n × row_len` mesh.
pub(crate) fn rows_by_middle<T>(data: &mut [T], n: usize, row_len: usize) -> Lines<'_, T> {
    let mut lines: Lines<T> = (0..n).map(|y| (y, Vec::with_capacity(n))).collect();
    for (i, row) in data.chunks_exact_mut(row_len).enumerate() {
        lines[i % n].1.push(row);
    }
    lines
}
