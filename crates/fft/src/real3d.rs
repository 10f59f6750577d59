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
//! * **A**, per x-plane: each z row as one packed `n/2`-point complex
//!   transform plus the split step, then the `y` axis as batched
//!   columns while the plane is still in L2;
//! * **B**, per `y`: the `x` axis as batched columns. In
//!   [`convolve`](RealFft3::convolve) the forward transform, the
//!   k-space multiply and the inverse transform of a panel all happen
//!   here, on one visit to cache;
//! * **C**, per x-plane: inverse `y`, then each row merged and
//!   inverse-transformed back to `n` reals.

use crate::columns::{columns_pass, rows_by_middle, Elem};
use crate::complex::Cpx;
use crate::fft1d::Fft1d;
use rayon::prelude::*;

/// Plan for real ↔ half-complex transforms of an `n³` periodic mesh.
#[derive(Debug, Clone)]
pub struct RealFft3 {
    /// Size-`n` plan: the y and x axes, and the split step's roots.
    full: Fft1d,
    /// Size-`n/2` plan: the packed z rows.
    half: Fft1d,
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
        self.planes_forward(buf);
        self.x_pass(buf, |panel, _, _, w| {
            self.full.butterflies_columns(panel, w)
        });
    }

    /// Inverse of [`forward`](Self::forward) in place, `1/n³` included.
    pub fn inverse(&self, buf: &mut [f64]) {
        self.x_pass(buf, |panel, _, _, w| {
            panel.iter_mut().for_each(|v| *v = v.conj());
            self.full.butterflies_columns(panel, w);
        });
        self.planes_inverse(buf);
    }

    /// Circular convolution with a real, even kernel given in k-space:
    /// forward transform, multiply mode `(k_x, k_y, k_z)` by
    /// `kernel(k_x, k_y)[k_z]` (raw mesh indices; the row has `n/2 + 1`
    /// entries), inverse transform with the `1/n³`. Equal to doing the
    /// three steps one after another, but a mode is multiplied while its
    /// panel is in cache between the two x transforms.
    pub fn convolve<'k>(&self, buf: &mut [f64], kernel: impl Fn(usize, usize) -> &'k [f64] + Sync) {
        let n = self.n();
        self.planes_forward(buf);
        self.x_pass(buf, |panel, y, c0, w| {
            self.full.butterflies_columns(panel, w);
            // Row i now holds k_x = i. Multiply, conjugate for the
            // inverse, and move to row rev(i) for its butterflies.
            let mul = |v: &mut Cpx, g: f64| *v = Cpx::new(v.re * g, -(v.im * g));
            for i in 0..n {
                let j = self.full.rev(i);
                if i > j {
                    continue;
                }
                let gi = &kernel(i, y)[c0..c0 + w];
                let gj = &kernel(j, y)[c0..c0 + w];
                let (lo, hi) = panel.split_at_mut(j * w);
                if i == j {
                    hi[..w].iter_mut().zip(gi).for_each(|(v, &g)| mul(v, g));
                } else {
                    let a = &mut lo[i * w..(i + 1) * w];
                    let b = &mut hi[..w];
                    for ((a, b), (&gi, &gj)) in a.iter_mut().zip(b).zip(gi.iter().zip(gj)) {
                        std::mem::swap(a, b);
                        mul(a, gj);
                        mul(b, gi);
                    }
                }
            }
            self.full.butterflies_columns(panel, w);
        });
        self.planes_inverse(buf);
    }

    /// Phase A: z rows real → half-complex, then the y axis.
    fn planes_forward(&self, buf: &mut [f64]) {
        let (n, ld) = (self.n(), self.row_len());
        assert_eq!(buf.len(), self.buf_len(), "padded buffer size mismatch");
        buf.par_chunks_mut(n * ld)
            .for_each_init(Vec::new, |panel, plane| {
                let mut rows: Vec<&mut [f64]> = plane.chunks_exact_mut(ld).collect();
                panel.resize(n / 2, Cpx::ZERO);
                for row in rows.iter_mut() {
                    self.split_row(row, &mut panel[..n / 2]);
                }
                let fft = |p: &mut [Cpx], _, w| self.full.butterflies_columns(p, w);
                columns_pass(&self.full, &mut rows, n / 2 + 1, panel, fft, |v| v);
            });
    }

    /// Phase B: `body(panel, y, c0, w)` on every x panel — columns
    /// `c0 .. c0 + w` of line `y` — which arrives in bit-reversed row
    /// order and leaves in natural order. What it
    /// leaves is the *conjugate* of the k-space values whenever an
    /// inverse follows ([`planes_inverse`](Self::planes_inverse) undoes
    /// that on its way out of the y axis).
    fn x_pass(&self, buf: &mut [f64], body: impl Fn(&mut [Cpx], usize, usize, usize) + Sync) {
        let (n, ld) = (self.n(), self.row_len());
        assert_eq!(buf.len(), self.buf_len(), "padded buffer size mismatch");
        rows_by_middle(buf, n, ld)
            .into_par_iter()
            .enumerate()
            .for_each_init(Vec::new, |panel, (y, mut rows)| {
                let body = |p: &mut [Cpx], c0, w| body(p, y, c0, w);
                columns_pass(&self.full, &mut rows, n / 2 + 1, panel, body, |v| v);
            });
    }

    /// Phase C: the y axis of a conjugated spectrum, then z rows
    /// half-complex → real with the `1/n³`.
    fn planes_inverse(&self, buf: &mut [f64]) {
        let (n, ld) = (self.n(), self.row_len());
        let scale = 1.0 / (n as f64).powi(3);
        buf.par_chunks_mut(n * ld)
            .for_each_init(Vec::new, |panel, plane| {
                let mut rows: Vec<&mut [f64]> = plane.chunks_exact_mut(ld).collect();
                let fft = |p: &mut [Cpx], _, w| self.full.butterflies_columns(p, w);
                columns_pass(&self.full, &mut rows, n / 2 + 1, panel, fft, Cpx::conj);
                for row in rows.iter_mut() {
                    self.merge_row(row, &mut panel[..n / 2], scale);
                }
            });
    }

    /// One z row, `n` reals → modes `0 ..= n/2`: transform the even and
    /// odd samples together as `z[j] = x[2j] + i·x[2j+1]`, then split
    /// `Z` into their two spectra `E`, `O` by Hermitian symmetry and
    /// combine `X[k] = E[k] + exp(−2πi·k/n)·O[k]`.
    fn split_row(&self, row: &mut [f64], line: &mut [Cpx]) {
        let h = line.len();
        f64::gather(row, 0, line);
        self.half.forward(line);
        let z0 = line[0];
        row[0] = z0.re + z0.im;
        row[1] = 0.0;
        row[2 * h] = z0.re - z0.im;
        row[2 * h + 1] = 0.0;
        for k in 1..h {
            let (a, b) = (line[k], line[h - k].conj());
            // e = 2E[k], d = 2i·O[k].
            let (e, d) = (a + b, a - b);
            let x = (e + self.full.root(k) * Cpx::new(d.im, -d.re)).scale(0.5);
            row[2 * k] = x.re;
            row[2 * k + 1] = x.im;
        }
    }

    /// The inverse of [`split_row`](Self::split_row) without its ½, so
    /// that with the unnormalised `n/2`-point inverse the row comes out
    /// as `n·x`, like every other axis; `scale` is applied on the way
    /// out.
    fn merge_row(&self, row: &mut [f64], line: &mut [Cpx], scale: f64) {
        let h = line.len();
        for (k, z) in line.iter_mut().enumerate() {
            let a = Cpx::new(row[2 * k], row[2 * k + 1]);
            let b = Cpx::new(row[2 * (h - k)], -row[2 * (h - k) + 1]);
            // e = 2E[k], d = 2·exp(−2πi·k/n)·O[k]; Z = E + i·O,
            // conjugated for the forward-as-inverse below.
            let (e, d) = (a + b, a - b);
            *z = (e + self.full.root(k).conj() * Cpx::new(-d.im, d.re)).conj();
        }
        self.half.forward(line);
        f64::scatter(line, row, 0, |v| Cpx::new(v.re * scale, -(v.im * scale)));
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
