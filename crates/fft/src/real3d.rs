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
//!   `n/2`-point complex transforms plus the split step, then the `y`
//!   axis as batched columns while the plane is still in L2;
//! * **B**, per `y`: the `x` axis as batched columns. In
//!   [`convolve`](RealFft3::convolve) the forward transform, the
//!   k-space multiply and the inverse transform of a panel all happen
//!   here, on one visit to cache;
//! * **C**, per x-plane: inverse `y`, then the rows merged and
//!   inverse-transformed back to `n` reals.

use crate::columns::{columns_pass, combine_rows, conj_if, rows_by_middle, Panel, PANEL_COLS};
use crate::complex::Cpx;
use crate::fft1d::Fft1d;
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
        self.planes(buf, |rows, scratch| {
            self.z_forward(rows, scratch);
            self.y_pass(rows, scratch, false);
        });
        self.x_pass(buf, false, |p, _, _| p.fft(&self.full));
    }

    /// Inverse of [`forward`](Self::forward) in place, `1/n³` included.
    pub fn inverse(&self, buf: &mut [f64]) {
        self.x_pass(buf, true, |p, _, _| p.fft(&self.full));
        self.planes(buf, |rows, scratch| {
            self.y_pass(rows, scratch, true);
            self.z_inverse(rows, scratch);
        });
    }

    /// Circular convolution with a real, even kernel given in k-space:
    /// forward transform, multiply mode `(k_x, k_y, k_z)` by
    /// `kernel(k_x, k_y)[k_z]` (raw mesh indices; the row has `n/2 + 1`
    /// entries), inverse transform with the `1/n³`. Equal to doing the
    /// three steps one after another, but a mode is multiplied while its
    /// panel is in cache between the two x transforms.
    pub fn convolve<'k>(&self, buf: &mut [f64], kernel: impl Fn(usize, usize) -> &'k [f64] + Sync) {
        self.planes(buf, |rows, scratch| {
            self.z_forward(rows, scratch);
            self.y_pass(rows, scratch, false);
        });
        self.x_pass(buf, false, |p, y, c0| {
            self.multiply(p, |i| &kernel(i, y)[c0..])
        });
        self.planes(buf, |rows, scratch| {
            self.y_pass(rows, scratch, true);
            self.z_inverse(rows, scratch);
        });
    }

    /// [`convolve`](Self::convolve) with each of its three kinds of pass
    /// — z rows, y panels, x panels — run over the whole mesh on its own
    /// and timed: the same values in the same order, so the same bits,
    /// at one more trip through memory per split. For the bench.
    #[doc(hidden)]
    pub fn convolve_phases<'k>(
        &self,
        buf: &mut [f64],
        kernel: impl Fn(usize, usize) -> &'k [f64] + Sync,
    ) -> [Duration; 3] {
        let mut spent = [Duration::ZERO; 3];
        let mut timed = |phase: usize, pass: &dyn Fn(&mut [f64])| {
            let t = Instant::now();
            pass(buf);
            spent[phase] += t.elapsed();
        };
        timed(0, &|b| self.planes(b, |r, s| self.z_forward(r, s)));
        timed(1, &|b| self.planes(b, |r, s| self.y_pass(r, s, false)));
        timed(2, &|b| {
            self.x_pass(b, false, |p, y, c| self.multiply(p, |i| &kernel(i, y)[c..]))
        });
        timed(1, &|b| self.planes(b, |r, s| self.y_pass(r, s, true)));
        timed(0, &|b| self.planes(b, |r, s| self.z_inverse(r, s)));
        spent
    }

    /// Phases A and C: `pass(rows, scratch)` on every x-plane, one task
    /// each.
    fn planes(&self, buf: &mut [f64], pass: impl Fn(&mut [&mut [f64]], &mut Vec<f64>) + Sync) {
        let (n, ld) = (self.n(), self.row_len());
        assert_eq!(buf.len(), self.buf_len(), "padded buffer size mismatch");
        buf.par_chunks_mut(n * ld)
            .for_each_init(Vec::new, |scratch, plane| {
                pass(&mut plane.chunks_exact_mut(ld).collect::<Vec<_>>(), scratch)
            });
    }

    /// The y axis of one plane; the inverse leaves it conjugated back
    /// (undoing the conjugate [`x_pass`](Self::x_pass) hands over).
    fn y_pass(&self, rows: &mut [&mut [f64]], scratch: &mut Vec<f64>, inverse: bool) {
        let (h, maps) = (self.n() / 2 + 1, (conj_if(false), conj_if(inverse)));
        columns_pass(&self.full, rows, h, scratch, maps, |p, _| p.fft(&self.full));
    }

    /// Phase B: `body(panel, y, c0)` on every x panel, columns `c0..` of
    /// line `y`, gathered conjugated when `conj`. It leaves the
    /// *conjugate* of the k-space values when an inverse follows
    /// ([`y_pass`](Self::y_pass) undoes that).
    fn x_pass(&self, buf: &mut [f64], conj: bool, body: impl Fn(&mut Panel, usize, usize) + Sync) {
        let (n, ld) = (self.n(), self.row_len());
        assert_eq!(buf.len(), self.buf_len(), "padded buffer size mismatch");
        rows_by_middle(buf, n, ld)
            .into_par_iter()
            .enumerate()
            .for_each_init(Vec::new, |scratch, (y, mut rows)| {
                let maps = (conj_if(conj), conj_if(false));
                columns_pass(&self.full, &mut rows, n / 2 + 1, scratch, maps, |p, c0| {
                    body(p, y, c0)
                });
            });
    }

    /// [`convolve`](Self::convolve)'s x panel: forward; row `i`, now
    /// `k_x = i`, multiplied by `g(i)` and conjugated for the inverse;
    /// the rows bit-reversed; inverse.
    fn multiply<'k>(&self, p: &mut Panel, g: impl Fn(usize) -> &'k [f64]) {
        p.fft(&self.full);
        for i in 0..self.n() {
            let (re, im) = p.row_mut(i);
            for ((r, m), &g) in re.iter_mut().zip(im).zip(g(i)) {
                (*r, *m) = (*r * g, -(*m * g));
            }
        }
        p.reverse_rows(&self.full);
        p.fft(&self.full);
    }

    /// The z rows of one plane, `n` reals → modes `0 ..= n/2`, a panel
    /// of rows at a time: transform the even and odd samples together
    /// as `z[j] = x[2j] + i·x[2j+1]`, then split `Z` into their two
    /// spectra `E`, `O` by Hermitian symmetry and combine
    /// `X[k] = E[k] + exp(−2πi·k/n)·O[k]` into a second panel.
    fn z_forward(&self, rows: &mut [&mut [f64]], scratch: &mut Vec<f64>) {
        let h = self.half.len();
        for batch in rows.chunks_mut(PANEL_COLS) {
            let [mut z, mut x] = Panel::of(scratch, [h, h + 1], batch.len());
            z.load(batch, |j| self.half.rev(j), conj_if(false));
            z.fft(&self.half);
            combine_rows(x.row_mut(0), z.row(0), z.row(0), |z0, _| {
                Cpx::new(z0.re + z0.im, 0.0)
            });
            combine_rows(x.row_mut(h), z.row(0), z.row(0), |z0, _| {
                Cpx::new(z0.re - z0.im, 0.0)
            });
            for k in 1..h {
                let root = self.full.root(k);
                combine_rows(x.row_mut(k), z.row(k), z.row(h - k), |a, c| {
                    let c = c.conj();
                    // e = 2E[k], d = 2i·O[k].
                    let (e, d) = (a + c, a - c);
                    (e + root * Cpx::new(d.im, -d.re)).scale(0.5)
                });
            }
            x.store(batch, conj_if(false));
        }
    }

    /// The inverse of [`z_forward`](Self::z_forward) without its ½, so
    /// that with the unnormalised `n/2`-point inverse a row comes out
    /// as `n·x`, like every other axis; the `1/n³` is applied on the way
    /// out.
    fn z_inverse(&self, rows: &mut [&mut [f64]], scratch: &mut Vec<f64>) {
        let (h, scale) = (self.half.len(), 1.0 / (self.n() as f64).powi(3));
        for batch in rows.chunks_mut(PANEL_COLS) {
            let [mut x, mut z] = Panel::of(scratch, [h + 1, h], batch.len());
            x.load(batch, |k| k, conj_if(false));
            for k in 0..h {
                let root = self.full.root(k).conj();
                let dst = z.row_mut(self.half.rev(k));
                combine_rows(dst, x.row(k), x.row(h - k), |a, c| {
                    let c = c.conj();
                    // e = 2E[k], d = 2·exp(−2πi·k/n)·O[k]; Z = E + i·O,
                    // conjugated for the forward-as-inverse below.
                    let (e, d) = (a + c, a - c);
                    (e + root * Cpx::new(-d.im, d.re)).conj()
                });
            }
            z.fft(&self.half);
            z.store(batch, |v| v.conj().scale(scale));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft3d::{fft3d, Mesh3};

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

    #[test]
    fn spectrum_is_the_complex_transforms_nonredundant_half() {
        for n in SIDES {
            let plan = RealFft3::new(n);
            let vals = rand_reals(n * n * n, 5 + n as u64);
            let mut want = Mesh3::from_real(n, &vals);
            fft3d(&mut want, &Fft1d::new(n));
            let scale = want.data().iter().map(|c| c.abs()).fold(0.0, f64::max);
            let mut buf = padded(&plan, &vals);
            plan.forward(&mut buf);
            let mut planes_seen = [false; 2];
            for (i, row) in buf.chunks_exact(n + 2).enumerate() {
                for kz in 0..=n / 2 {
                    let got = Cpx::new(row[2 * kz], row[2 * kz + 1]);
                    let w = want.get(i / n, i % n, kz);
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
            let h = n / 2 + 1;
            let vals = rand_reals(n * n * n, 29 + n as u64);
            // An even kernel: a function of |k| per axis.
            let fold = |i: usize| i.min(n - i);
            let table: Vec<f64> = (0..h * h * h)
                .map(|i| 1.0 / (1.0 + (i / (h * h) + 2 * (i / h % h) + 3 * (i % h)) as f64))
                .collect();
            let kernel = |x: usize, y: usize| &table[(fold(x) * h + fold(y)) * h..][..h];

            let mut fused = padded(&plan, &vals);
            plan.convolve(&mut fused, kernel);

            let mut steps = padded(&plan, &vals);
            plan.forward(&mut steps);
            for (i, row) in steps.chunks_exact_mut(n + 2).enumerate() {
                for (pair, g) in row.chunks_exact_mut(2).zip(kernel(i / n, i % n)) {
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
