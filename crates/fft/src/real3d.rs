//! Real ↔ half-complex 3-D transforms on one padded buffer.
//!
//! A real field's spectrum is Hermitian, `X(−k) = conj X(k)`, so the
//! modes with `k_z > n/2` are redundant. [`RealFft3`] never forms them:
//! it works in place on an `n × n × (n+2)` array of `f64` (FFTW's r2c
//! layout). In real space a row `(x, y)` holds `n` values and two
//! unused pad slots; in k-space the same row holds the `n/2 + 1` modes
//! `k_z = 0 ..= n/2` as interleaved `re, im` pairs. The `k_z = 0` and
//! `k_z = n/2` planes are themselves Hermitian in `(k_x, k_y)` and are
//! stored in full.
//!
//! Against the complex transform of the same field this is half the
//! butterflies and — the larger saving at PM mesh sizes — half the
//! bytes, in three streaming phases:
//!
//! * **A**, per x-plane: the z rows, [`PANEL_COLS`] at a time, as packed
//!   `n/2`-point complex transforms plus the split step, whose output
//!   rows (modes) are transposed straight into the plane's y panels in
//!   scratch; then the y axis on those panels, written to the rows once;
//! * **B**, per `y`: the `x` axis, every row of the line gathered whole
//!   into the line's panels. In [`convolve`](RealFft3::convolve) the
//!   forward transform, the k-space multiply and the inverse transform
//!   of a panel all happen here, on one visit to cache;
//! * **C**, per x-plane: the rows gathered into the y panels and
//!   transformed, then transposed straight into the z merge, and the
//!   rows inverse-transformed back to `n` reals.
//!
//! So each phase reads and writes the mesh once, and between the z rows
//! and the y axis the values stay in a task's scratch.

use crate::columns::{
    at_width, conj_if, gather, gather_row, lanes, load_rows, panels, rows_by_middle, scatter,
    scatter_row, store_rows, transpose, Panel, PANEL_COLS,
};
use crate::complex::Cpx;
use crate::fft1d::{Fft1d, Wide};
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Plan for real ↔ half-complex transforms of an `n³` periodic mesh.
#[derive(Debug, Clone)]
pub struct RealFft3 {
    /// Size-`n` plan: the y and x axes, and the split step's roots.
    pub(crate) full: Fft1d,
    /// Size-`n/2` plan: the packed z rows.
    pub(crate) half: Fft1d,
}

/// What phase B does to an x panel between gathering and scattering it.
enum XPass<K> {
    /// The forward butterflies.
    Forward,
    /// The butterflies of the conjugated panel.
    Inverse,
    /// Forward, the kernel's multiply, inverse.
    Convolve(K),
}

/// The kernel type of the x passes that have none.
type NoKernel = fn(usize, usize) -> &'static [f64];

/// One pass over an x-plane.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The z rows into the y panels.
    ZForward,
    /// The y panels' butterflies, out to the rows.
    YForward,
    /// The rows into the y panels, and their butterflies.
    YInverse,
    /// The y panels into the z rows.
    ZInverse,
}

/// Phase A or C's steps on one x-plane.
struct PlaneJob<'a> {
    fft: &'a RealFft3,
    plane: &'a mut [f64],
    scratch: &'a mut [f64],
    steps: &'a [Step],
}

impl Wide for PlaneJob<'_> {
    #[inline(always)]
    fn run(self) {
        let PlaneJob {
            fft,
            plane,
            scratch,
            steps,
        } = self;
        let rows = PANEL_COLS.min(fft.n());
        for step in steps {
            match step {
                Step::ZForward => at_width!(rows, W => fft.z_forward::<W>(plane, scratch)),
                Step::YForward => fft.y_forward(plane, scratch),
                Step::YInverse => fft.y_inverse(plane, scratch),
                Step::ZInverse => at_width!(rows, W => fft.z_inverse::<W>(plane, scratch)),
            }
        }
    }
}

/// Phase B on one x line at global `y`.
struct LineJob<'a, 'r, K> {
    fft: &'a RealFft3,
    line: &'a mut [&'r mut [f64]],
    y: usize,
    pass: &'a XPass<K>,
    scratch: &'a mut [f64],
}

impl<'k, K: Fn(usize, usize) -> &'k [f64]> Wide for LineJob<'_, '_, K> {
    #[inline(always)]
    fn run(self) {
        self.fft.x_line(self.line, self.y, self.pass, self.scratch);
    }
}

impl RealFft3 {
    /// Plan transforms of side `n` (a power of two ≥ 2).
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "mesh side must be a power of two ≥ 2"
        );
        RealFft3 {
            full: Fft1d::new(n),
            half: Fft1d::new(n / 2),
        }
    }

    /// Mesh side `n`.
    pub fn n(&self) -> usize {
        self.full.len()
    }

    /// Length in `f64` of one padded row, `n + 2`.
    pub fn row_len(&self) -> usize {
        self.n() + 2
    }

    /// Length in `f64` of the padded buffer, `n · n · (n + 2)`.
    pub fn buf_len(&self) -> usize {
        self.n() * self.n() * self.row_len()
    }

    /// Forward transform in place (unnormalised, `exp(−2πi)`): real
    /// rows in, modes `k_z ≤ n/2` out.
    pub fn forward(&self, buf: &mut [f64]) {
        self.yz_planes(buf, false);
        self.x_pass(&mut self.lines(buf), 0, &XPass::<NoKernel>::Forward);
    }

    /// Inverse of [`forward`](Self::forward) in place, `1/n³` included.
    pub fn inverse(&self, buf: &mut [f64]) {
        self.x_pass(&mut self.lines(buf), 0, &XPass::<NoKernel>::Inverse);
        self.yz_planes(buf, true);
    }

    /// Circular convolution with a real, even kernel given in k-space:
    /// forward transform, multiply mode `(k_x, k_y, k_z)` by
    /// `kernel(k_x, k_y)[k_z]` (raw mesh indices; the row has `n/2 + 1`
    /// entries), inverse transform with the `1/n³`. Equal to doing the
    /// three steps one after another, but a mode is multiplied while its
    /// panel is in cache between the two x transforms; `SlabFft` runs
    /// the same three phases with its x lines on other ranks.
    pub fn convolve<'k>(&self, buf: &mut [f64], kernel: impl Fn(usize, usize) -> &'k [f64] + Sync) {
        self.yz_planes(buf, false);
        self.convolve_lines(&mut self.lines(buf), 0, kernel);
        self.yz_planes(buf, true);
    }

    /// [`convolve`](Self::convolve) on one thread with each of its three
    /// kinds of pass timed — the z rows (with the split or merge step
    /// and the transposes to and from the y panels), the y panels and
    /// the x panels: the same passes on the same values, so the same
    /// bits. For the bench.
    #[doc(hidden)]
    pub fn convolve_phases<'k>(
        &self,
        buf: &mut [f64],
        kernel: impl Fn(usize, usize) -> &'k [f64] + Sync,
    ) -> [Duration; 3] {
        let (n, ld) = (self.n(), self.row_len());
        let mut scratch = vec![0.0; self.plane_scratch()];
        let mut step = |buf: &mut [f64], step: Step| {
            let t = Instant::now();
            for plane in buf.chunks_exact_mut(n * ld) {
                self.full.in_width(PlaneJob {
                    fft: self,
                    plane,
                    scratch: &mut scratch,
                    steps: &[step],
                });
            }
            t.elapsed()
        };
        let (z, y) = (step(buf, Step::ZForward), step(buf, Step::YForward));
        let t = Instant::now();
        self.convolve_lines(&mut self.lines(buf), 0, &kernel);
        let x = t.elapsed();
        let y = y + step(buf, Step::YInverse);
        [z + step(buf, Step::ZInverse), y, x]
    }

    /// Phase A (z rows, then y) or, `inverse`, phase C (y, then z rows)
    /// on every x-plane in `planes` — the whole mesh or a slab of it.
    pub(crate) fn yz_planes(&self, planes: &mut [f64], inverse: bool) {
        let (n, ld) = (self.n(), self.row_len());
        assert_eq!(planes.len() % (n * ld), 0, "padded planes size mismatch");
        let steps = if inverse {
            &[Step::YInverse, Step::ZInverse]
        } else {
            &[Step::ZForward, Step::YForward]
        };
        planes.par_chunks_mut(n * ld).for_each_init(
            || vec![0.0; self.plane_scratch()],
            |scratch, plane| {
                self.full.in_width(PlaneJob {
                    fft: self,
                    plane,
                    scratch,
                    steps,
                })
            },
        );
    }

    /// Phase B of [`convolve`](Self::convolve) on the x lines `rows`
    /// holds, `n` rows a line, the first at global `y0`.
    pub(crate) fn convolve_lines<'k>(
        &self,
        rows: &mut [&mut [f64]],
        y0: usize,
        kernel: impl Fn(usize, usize) -> &'k [f64] + Sync,
    ) {
        self.x_pass(rows, y0, &XPass::Convolve(kernel));
    }

    /// Every x line of a whole padded mesh, one after another.
    fn lines<'b>(&self, buf: &'b mut [f64]) -> Vec<&'b mut [f64]> {
        assert_eq!(buf.len(), self.buf_len(), "padded buffer size mismatch");
        rows_by_middle(buf, self.n(), self.row_len())
    }

    /// The `f64`s a plane task works in: the plane's `n/2 + 1` columns
    /// as y panels, then a z panel and a split panel of the batch of z
    /// rows.
    #[inline(always)]
    fn plane_scratch(&self) -> usize {
        let (n, h) = (self.n(), self.half.len());
        2 * (n * (h + 1) + PANEL_COLS.min(n) * (2 * h + 1))
    }

    /// The panel of columns `c0 .. c0 + W` of a plane's y panels or a
    /// line's x panels, `n` rows each, laid out one after another in
    /// `scratch`.
    #[inline(always)]
    fn panel<'s, const W: usize>(&self, scratch: &'s mut [f64], c0: usize) -> Panel<'s, W> {
        Panel::take(&mut &mut scratch[2 * self.n() * c0..], self.n())
    }

    /// The y panels' part of a plane task's scratch, and the z panel and
    /// split panel of a batch of `W` z rows from the rest.
    #[inline(always)]
    fn plane_panels<'s, const W: usize>(
        &self,
        scratch: &'s mut [f64],
    ) -> (&'s mut [f64], [Panel<'s, W>; 2]) {
        let h = self.half.len();
        let (ys, mut rest) = scratch.split_at_mut(2 * self.n() * (h + 1));
        (
            ys,
            [Panel::take(&mut rest, h), Panel::take(&mut rest, h + 1)],
        )
    }

    /// The z rows of one plane, `n` reals → modes `0 ..= n/2`, `W` rows
    /// at a time: transform the even and odd samples together as
    /// `z[j] = x[2j] + i·x[2j+1]`, then split `Z` into their two spectra
    /// `E`, `O` by Hermitian symmetry and combine
    /// `X[k] = E[k] + exp(−2πi·k/n)·O[k]` into a second panel, whose
    /// rows are the modes and whose columns go to the y panels' rows.
    #[inline(always)]
    fn z_forward<const W: usize>(&self, plane: &[f64], scratch: &mut [f64]) {
        let (h, ld) = (self.half.len(), self.row_len());
        let (ys, [mut z, mut x]) = self.plane_panels::<W>(scratch);
        for (i, rows) in plane.chunks_exact(W * ld).enumerate() {
            load_rows(&mut z, rows, ld, |j| self.half.rev(j), conj_if(false));
            z.fft(&self.half);
            let z0 = z.row(0);
            let (re, im) = x.row_mut(0);
            lanes(re, im, z0, z0, |z0, _| Cpx::new(z0.re + z0.im, 0.0));
            let (re, im) = x.row_mut(h);
            lanes(re, im, z0, z0, |z0, _| Cpx::new(z0.re - z0.im, 0.0));
            for k in 1..h {
                let root = self.full.root(k);
                let (re, im) = x.row_mut(k);
                lanes(re, im, z.row(k), z.row(h - k), |a, c| {
                    let c = c.conj();
                    // e = 2E[k], d = 2i·O[k].
                    let (e, d) = (a + c, a - c);
                    (e + root * Cpx::new(d.im, -d.re)).scale(0.5)
                });
            }
            for (c0, cols) in panels(h + 1) {
                at_width!(cols, C => transpose(
                    &x,
                    c0,
                    &mut self.panel::<C>(ys, c0),
                    |b| self.full.rev(i * W + b),
                    conj_if(false),
                ));
            }
        }
    }

    /// The y axis of one plane, forward: the y panels' butterflies, and
    /// the modes written to the rows.
    #[inline(always)]
    fn y_forward(&self, plane: &mut [f64], ys: &mut [f64]) {
        for (c0, cols) in panels(self.half.len() + 1) {
            at_width!(cols, C => {
                let mut p = self.panel::<C>(ys, c0);
                p.fft(&self.full);
                scatter(&p, plane.chunks_exact_mut(self.row_len()), c0, conj_if(false));
            });
        }
    }

    /// The y axis of one plane, inverse: the rows gathered into the y
    /// panels and transformed, left conjugated (undoing the conjugate
    /// [`x_pass`](Self::x_pass) hands over) until
    /// [`z_inverse`](Self::z_inverse) reads them.
    #[inline(always)]
    fn y_inverse(&self, plane: &[f64], ys: &mut [f64]) {
        for (c0, cols) in panels(self.half.len() + 1) {
            at_width!(cols, C => {
                let mut p = self.panel::<C>(ys, c0);
                let rows = plane.chunks_exact(self.row_len());
                gather(&mut p, rows, c0, |y| self.full.rev(y), conj_if(false));
                p.fft(&self.full);
            });
        }
    }

    /// The inverse of [`z_forward`](Self::z_forward) without its ½, so
    /// that with the unnormalised `n/2`-point inverse a row comes out
    /// as `n·x`, like every other axis; the `1/n³` is applied on the way
    /// out.
    #[inline(always)]
    fn z_inverse<const W: usize>(&self, plane: &mut [f64], scratch: &mut [f64]) {
        let (h, ld) = (self.half.len(), self.row_len());
        let scale = 1.0 / (self.n() as f64).powi(3);
        let (ys, [mut z, mut x]) = self.plane_panels::<W>(scratch);
        for (i, rows) in plane.chunks_exact_mut(W * ld).enumerate() {
            for (c0, cols) in panels(h + 1) {
                at_width!(cols, C => transpose(
                    &self.panel::<C>(ys, c0),
                    i * W,
                    &mut x,
                    |l| c0 + l,
                    conj_if(true),
                ));
            }
            for k in 0..h {
                let root = self.full.root(k).conj();
                let (re, im) = z.row_mut(self.half.rev(k));
                lanes(re, im, x.row(k), x.row(h - k), |a, c| {
                    let c = c.conj();
                    // e = 2E[k], d = 2·exp(−2πi·k/n)·O[k]; Z = E + i·O,
                    // conjugated for the forward-as-inverse below.
                    let (e, d) = (a + c, a - c);
                    (e + root * Cpx::new(-d.im, d.re)).conj()
                });
            }
            z.fft(&self.half);
            store_rows(&z, rows, ld, |v| v.conj().scale(scale));
        }
    }

    /// Phase B on every x line of `rows` (`n` rows a line, the first at
    /// global `y0`), one task a line. An inverse leaves the *conjugate*
    /// of the k-space values ([`y_inverse`](Self::y_inverse) undoes
    /// that).
    fn x_pass<'k, K>(&self, rows: &mut [&mut [f64]], y0: usize, pass: &XPass<K>)
    where
        K: Fn(usize, usize) -> &'k [f64] + Sync,
    {
        let n = self.n();
        rows.par_chunks_mut(n).enumerate().for_each_init(
            || vec![0.0; 2 * n * (n / 2 + 1)],
            |scratch, (i, line)| {
                self.full.in_width(LineJob {
                    fft: self,
                    line,
                    y: y0 + i,
                    pass,
                    scratch,
                })
            },
        );
    }

    /// One x line: every row gathered whole into the line's panels
    /// (conjugated for an inverse), each panel transformed — for a
    /// convolution, row `i`, now `k_x = i`, multiplied by the kernel and
    /// conjugated on its way to row `rev(i)`, then the inverse's
    /// butterflies — and every row scattered whole.
    #[inline(always)]
    fn x_line<'k, K>(&self, line: &mut [&mut [f64]], y: usize, pass: &XPass<K>, scratch: &mut [f64])
    where
        K: Fn(usize, usize) -> &'k [f64],
    {
        let cols = self.half.len() + 1;
        let conj = conj_if(matches!(pass, XPass::Inverse));
        for (x, row) in line.iter().enumerate() {
            for (c0, w) in panels(cols) {
                at_width!(w, W => {
                    gather_row(&mut self.panel::<W>(scratch, c0), self.full.rev(x), row, c0, conj)
                });
            }
        }
        for (c0, w) in panels(cols) {
            at_width!(w, W => {
                let mut p = self.panel::<W>(scratch, c0);
                p.fft(&self.full);
                if let XPass::Convolve(kernel) = pass {
                    self.multiply(&mut p, |i| &kernel(i, y)[c0..]);
                    p.fft(&self.full);
                }
            });
        }
        for (x, row) in line.iter_mut().enumerate() {
            for (c0, w) in panels(cols) {
                at_width!(w, W => {
                    scatter_row(&self.panel::<W>(scratch, c0), x, row, c0, conj_if(false))
                });
            }
        }
    }

    /// Row `i` of an x panel times `g(i)`, conjugated, into row
    /// `rev(i)`: the multiply and the bit reversal in one sweep.
    #[inline(always)]
    fn multiply<'k, const W: usize>(&self, p: &mut Panel<W>, g: impl Fn(usize) -> &'k [f64]) {
        #[inline(always)]
        fn times<const W: usize>(re: &mut [f64; W], im: &mut [f64; W], g: &[f64]) {
            let g = g.first_chunk::<W>().expect("kernel row covers the panel");
            for b in 0..W {
                (re[b], im[b]) = (re[b] * g[b], -(im[b] * g[b]));
            }
        }
        for i in 0..self.n() {
            let r = self.full.rev(i);
            if i < r {
                let (lo, hi) = p.re.split_at_mut(r);
                let (a_re, c_re) = (&mut lo[i], &mut hi[0]);
                let (lo, hi) = p.im.split_at_mut(r);
                let (a_im, c_im) = (&mut lo[i], &mut hi[0]);
                std::mem::swap(a_re, c_re);
                std::mem::swap(a_im, c_im);
                times(c_re, c_im, g(i));
                times(a_re, a_im, g(r));
            } else if i == r {
                let (re, im) = p.row_mut(i);
                times(re, im, g(i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::EvenKernel;

    fn rand_reals(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    /// `vals` (n³, unpadded) laid out in the padded buffer.
    fn padded(plan: &RealFft3, vals: &[f64]) -> Vec<f64> {
        let n = plan.n();
        let mut buf = vec![f64::NAN; plan.buf_len()];
        for (row, src) in buf.chunks_exact_mut(n + 2).zip(vals.chunks_exact(n)) {
            row[..n].copy_from_slice(src);
        }
        buf
    }

    const SIDES: [usize; 5] = [2, 4, 8, 16, 64];

    /// The complex spectrum of `vals` (`n³` reals, `z` fastest) by the
    /// DFT's definition, `X[k] = Σ_j x[j]·exp(−2πi·jk/n)`, one axis at a
    /// time.
    fn direct_dft(vals: &[f64], n: usize) -> Vec<Cpx> {
        let root: Vec<Cpx> = (0..n)
            .map(|k| Cpx::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let mut a: Vec<Cpx> = vals.iter().map(|&v| Cpx::real(v)).collect();
        for stride in [1, n, n * n] {
            let line = |i: usize, k: usize| {
                let base = i - i / stride % n * stride;
                (0..n).fold(Cpx::ZERO, |s, j| s + a[base + j * stride] * root[j * k % n])
            };
            a = (0..a.len()).map(|i| line(i, i / stride % n)).collect();
        }
        a
    }

    #[test]
    fn spectrum_is_the_complex_transforms_nonredundant_half() {
        for n in [2, 4, 8, 16] {
            let plan = RealFft3::new(n);
            let vals = rand_reals(n * n * n, 5 + n as u64);
            let want = direct_dft(&vals, n);
            let scale = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
            let mut buf = padded(&plan, &vals);
            plan.forward(&mut buf);
            let mut planes_seen = [false; 2];
            for (i, row) in buf.chunks_exact(n + 2).enumerate() {
                for kz in 0..=n / 2 {
                    let got = Cpx::new(row[2 * kz], row[2 * kz + 1]);
                    let w = want[i * n + kz];
                    assert!(
                        (got - w).abs() <= 1e-12 * scale,
                        "n={n} mode ({},{},{kz}): {got:?} vs {w:?}",
                        i / n,
                        i % n
                    );
                    planes_seen[0] |= kz == 0;
                    planes_seen[1] |= kz == n / 2;
                }
            }
            assert_eq!(planes_seen, [true; 2], "k_z = 0 and Nyquist planes");
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        for n in SIDES {
            let plan = RealFft3::new(n);
            let vals = rand_reals(n * n * n, 17 + n as u64);
            let mut buf = padded(&plan, &vals);
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            for (row, src) in buf.chunks_exact(n + 2).zip(vals.chunks_exact(n)) {
                for (a, b) in row.iter().zip(src) {
                    assert!((a - b).abs() <= 1e-13, "n={n}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn convolve_is_forward_multiply_inverse() {
        for n in SIDES {
            let plan = RealFft3::new(n);
            let vals = rand_reals(n * n * n, 29 + n as u64);
            let kernel = EvenKernel::new(n);

            let mut fused = padded(&plan, &vals);
            plan.convolve(&mut fused, |x, y| kernel.row(x, y));

            let mut steps = padded(&plan, &vals);
            plan.forward(&mut steps);
            for (i, row) in steps.chunks_exact_mut(n + 2).enumerate() {
                for (pair, g) in row.chunks_exact_mut(2).zip(kernel.row(i / n, i % n)) {
                    pair[0] *= g;
                    pair[1] *= g;
                }
            }
            plan.inverse(&mut steps);
            for (a, b) in fused.chunks_exact(n + 2).zip(steps.chunks_exact(n + 2)) {
                // Same arithmetic in the same order.
                assert_eq!(a[..n], b[..n], "n={n}");
            }
        }
    }
}
