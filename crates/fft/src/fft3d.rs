//! Complex 3-D transforms on a cubic mesh.
//!
//! No solver runs these: every PM path, serial and slab, and the
//! cosmology crate use [`RealFft3`](crate::RealFft3). What is left is
//! the repo benchmark's FFT probe and [`Mesh3`] as the reference the
//! tests hold the real transforms to. Layout is row-major `(x, y, z)`
//! with `z` contiguous.

use crate::columns::{
    at_width, conj_if, gather, load_rows, panels, rows_by_middle, scatter, store_rows, Panel,
    PANEL_COLS,
};
use crate::complex::Cpx;
use crate::fft1d::{Fft1d, Wide};
use rayon::prelude::*;

/// An `n × n × n` complex mesh, `z` fastest.
#[derive(Debug, Clone)]
pub struct Mesh3 {
    n: usize,
    data: Vec<Cpx>,
}

impl Mesh3 {
    /// A zero-filled mesh of side `n` (power of two).
    pub fn zeros(n: usize) -> Self {
        assert!(n.is_power_of_two(), "mesh side must be a power of two");
        Mesh3 {
            n,
            data: vec![Cpx::ZERO; n * n * n],
        }
    }

    /// Build from real values in `(x,y,z)` row-major order.
    pub fn from_real(n: usize, vals: &[f64]) -> Self {
        assert_eq!(vals.len(), n * n * n);
        let mut m = Self::zeros(n);
        for (d, &v) in m.data.iter_mut().zip(vals) {
            *d = Cpx::real(v);
        }
        m
    }

    /// Mesh side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Flat index of `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (x * self.n + y) * self.n + z
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> Cpx {
        self.data[self.idx(x, y, z)]
    }

    /// The flat data slice.
    pub fn data(&self) -> &[Cpx] {
        &self.data
    }

    /// The flat data slice, mutable.
    pub fn data_mut(&mut self) -> &mut [Cpx] {
        &mut self.data
    }
}

/// In-place forward 3-D FFT (unnormalised, `exp(−2πi)` convention):
/// 1-D transforms along `z`, then `y`, then `x`.
pub fn fft3d(mesh: &mut Mesh3, plan: &Fft1d) {
    transform3d(mesh, plan, false);
}

/// In-place inverse 3-D FFT including the `1/n³` normalisation, so
/// `fft3d_inverse(fft3d(m)) == m`.
pub fn fft3d_inverse(mesh: &mut Mesh3, plan: &Fft1d) {
    transform3d(mesh, plan, true);
}

/// The three axis passes. Per x-plane (one rayon task each, the plane
/// staying in L2 between the two): the z rows as transposed panels and
/// then the y columns. Then `x`, batched over the columns of one `y`
/// per task.
///
/// The inverse is `conj ∘ forward ∘ conj` per line; conjugation is exact
/// and its own inverse, so the conjugations between the axes cancel and
/// only the first (on the way into the z pass) and the last (on the way
/// out of the x pass, with the exact-order `1/n³` scale behind it)
/// remain. Every element therefore sees the arithmetic of
/// `Fft1d::{forward, inverse}` line by line, whatever thread runs it:
/// results are bit-identical to that textbook loop at any thread count.
fn transform3d(mesh: &mut Mesh3, plan: &Fft1d, inverse: bool) {
    let n = mesh.n;
    assert_eq!(plan.len(), n, "plan size must match mesh side");
    let scratch = || vec![0.0; 2 * n * PANEL_COLS];
    mesh.data
        .par_chunks_mut(n * n)
        .for_each_init(scratch, |scratch, plane| {
            plan.in_width(PlaneJob {
                plan,
                plane,
                scratch,
                inverse,
            })
        });
    rows_by_middle(&mut mesh.data, n, n)
        .par_chunks_mut(n)
        .for_each_init(scratch, |scratch, line| {
            plan.in_width(LineJob {
                plan,
                line,
                scratch,
                inverse,
            })
        });
}

/// One x-plane's z rows as transposed panels, conjugated on the way in
/// for an inverse, then its y columns.
struct PlaneJob<'a> {
    plan: &'a Fft1d,
    plane: &'a mut [Cpx],
    scratch: &'a mut [f64],
    inverse: bool,
}

impl Wide for PlaneJob<'_> {
    #[inline(always)]
    fn run(self) {
        let PlaneJob {
            plan,
            plane,
            scratch,
            inverse,
        } = self;
        let n = plan.len();
        at_width!(PANEL_COLS.min(n), W => for rows in plane.chunks_exact_mut(W * n) {
            let mut p = Panel::<W>::take(&mut &mut *scratch, n);
            load_rows(&mut p, rows, n, |j| plan.rev(j), conj_if(inverse));
            p.fft(plan);
            store_rows(&p, rows, n, conj_if(false));
        });
        for (c0, cols) in panels(n) {
            at_width!(cols, W => {
                let mut p = Panel::<W>::take(&mut &mut *scratch, n);
                gather(&mut p, plane.chunks_exact(n), c0, |j| plan.rev(j), conj_if(false));
                p.fft(plan);
                scatter(&p, plane.chunks_exact_mut(n), c0, conj_if(false));
            });
        }
    }
}

/// One x line, a panel of columns at a time; an inverse conjugates and
/// scales by `1/n³` on the way out.
struct LineJob<'a, 'r> {
    plan: &'a Fft1d,
    line: &'a mut [&'r mut [Cpx]],
    scratch: &'a mut [f64],
    inverse: bool,
}

impl Wide for LineJob<'_, '_> {
    #[inline(always)]
    fn run(self) {
        let LineJob {
            plan,
            line,
            scratch,
            inverse,
        } = self;
        let n = plan.len();
        let s = 1.0 / (n as f64).powi(3);
        let finish = |v: Cpx| if inverse { v.conj().scale(s) } else { v };
        for (c0, cols) in panels(n) {
            at_width!(cols, W => {
                let mut p = Panel::<W>::take(&mut &mut *scratch, n);
                let rows = line.iter().map(|r| &**r);
                gather(&mut p, rows, c0, |j| plan.rev(j), conj_if(false));
                p.fft(plan);
                scatter(&p, line.iter_mut().map(|r| &mut **r), c0, finish);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_mesh(n: usize, seed: u64) -> Mesh3 {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let vals: Vec<f64> = (0..n * n * n).map(|_| next()).collect();
        Mesh3::from_real(n, &vals)
    }

    #[test]
    fn roundtrip_is_identity() {
        let n = 16;
        let plan = Fft1d::new(n);
        let orig = rand_mesh(n, 11);
        let mut m = orig.clone();
        fft3d(&mut m, &plan);
        fft3d_inverse(&mut m, &plan);
        let err = m
            .data()
            .iter()
            .zip(orig.data())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-11, "roundtrip err {err}");
    }

    #[test]
    fn batched_passes_equal_line_transforms_bitwise() {
        // Sides on both sides of the panel width, forward and inverse.
        for n in [2usize, 8, 32] {
            let plan = Fft1d::new(n);
            for inverse in [false, true] {
                let mut got = rand_mesh(n, 40 + n as u64);
                let mut want = got.clone();
                let mut line = vec![Cpx::ZERO; n];
                for stride in [1, n, n * n] {
                    for start in (0..n * n * n).filter(|i| i / stride % n == 0) {
                        for (j, l) in line.iter_mut().enumerate() {
                            *l = want.data[start + j * stride];
                        }
                        if inverse {
                            plan.inverse(&mut line);
                        } else {
                            plan.forward(&mut line);
                        }
                        for (j, l) in line.iter().enumerate() {
                            want.data[start + j * stride] = *l;
                        }
                    }
                }
                if inverse {
                    let s = 1.0 / (n as f64).powi(3);
                    want.data.iter_mut().for_each(|v| *v = v.scale(s));
                    fft3d_inverse(&mut got, &plan);
                } else {
                    fft3d(&mut got, &plan);
                }
                for (i, (a, b)) in got.data.iter().zip(&want.data).enumerate() {
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits()),
                        "n={n} inverse={inverse} element {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_mode_transforms_to_delta() {
        // x real field cos(2π·kx·x/n) has power only at modes ±k.
        let n = 8;
        let k = 3usize;
        let vals: Vec<f64> = (0..n * n * n)
            .map(|i| {
                (2.0 * std::f64::consts::PI * k as f64 * (i / (n * n)) as f64 / n as f64).cos()
            })
            .collect();
        let mut m = Mesh3::from_real(n, &vals);
        let plan = Fft1d::new(n);
        fft3d(&mut m, &plan);
        let amp = (n * n * n) as f64 / 2.0;
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let v = m.get(x, y, z);
                    let expected = if (x == k || x == n - k) && y == 0 && z == 0 {
                        amp
                    } else {
                        0.0
                    };
                    assert!(
                        (v.abs() - expected).abs() < 1e-9,
                        "mode ({x},{y},{z}) = {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn dc_mode_is_mean_times_volume() {
        let n = 8;
        let m0 = rand_mesh(n, 5);
        let mean: f64 = m0.data().iter().map(|c| c.re).sum::<f64>();
        let mut m = m0;
        fft3d(&mut m, &Fft1d::new(n));
        assert!((m.get(0, 0, 0).re - mean).abs() < 1e-9);
        assert!(m.get(0, 0, 0).im.abs() < 1e-9);
    }

    #[test]
    fn real_input_has_hermitian_spectrum() {
        let n = 8;
        let mut m = rand_mesh(n, 9);
        fft3d(&mut m, &Fft1d::new(n));
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let a = m.get(x, y, z);
                    let b = m.get((n - x) % n, (n - y) % n, (n - z) % n);
                    assert!(
                        (a - b.conj()).abs() < 1e-9,
                        "not Hermitian at ({x},{y},{z})"
                    );
                }
            }
        }
    }

    #[test]
    fn parseval_3d() {
        let n = 8;
        let m0 = rand_mesh(n, 13);
        let e_real: f64 = m0.data().iter().map(|c| c.norm2()).sum();
        let mut m = m0;
        fft3d(&mut m, &Fft1d::new(n));
        let e_freq: f64 = m.data().iter().map(|c| c.norm2()).sum::<f64>() / (n * n * n) as f64;
        assert!((e_real - e_freq).abs() < 1e-9 * e_real);
    }
}
