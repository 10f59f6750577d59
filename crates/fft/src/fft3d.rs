//! Serial 3-D transforms on a cubic complex mesh.
//!
//! [`Mesh3`] is the n³ complex grid used by the single-rank PM path and
//! by the tests that validate the parallel slab transform. Layout is
//! row-major `(x, y, z)` with `z` contiguous — the same layout the slab
//! solver uses within each x-plane, so data moves between the two without
//! reshuffling.

use crate::columns::{columns_pass, conj_if, rows_by_middle, Panel, PANEL_COLS};
use crate::complex::Cpx;
use crate::fft1d::Fft1d;
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

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, x: usize, y: usize, z: usize) -> &mut Cpx {
        let i = self.idx(x, y, z);
        &mut self.data[i]
    }

    /// The flat data slice.
    pub fn data(&self) -> &[Cpx] {
        &self.data
    }

    /// The flat data slice, mutable.
    pub fn data_mut(&mut self) -> &mut [Cpx] {
        &mut self.data
    }

    /// Real parts, row-major (used after an inverse transform of data
    /// that is real by construction).
    pub fn to_real(&self) -> Vec<f64> {
        self.data.iter().map(|c| c.re).collect()
    }

    /// Apply `f(kx, ky, kz, value)` to every mode in place; the indices
    /// are raw mesh indices (callers map them to signed wavenumbers).
    pub fn map_modes(&mut self, mut f: impl FnMut(usize, usize, usize, Cpx) -> Cpx) {
        let n = self.n;
        for x in 0..n {
            for y in 0..n {
                let row = (x * n + y) * n;
                for z in 0..n {
                    self.data[row + z] = f(x, y, z, self.data[row + z]);
                }
            }
        }
    }

    /// Parallel [`map_modes`](Self::map_modes) for pure per-mode maps
    /// (`Fn`, no cross-mode state): x-planes are processed as rayon
    /// tasks. Bitwise-identical to the serial version — each mode sees
    /// exactly the same single application of `f`.
    pub fn par_map_modes(&mut self, f: impl Fn(usize, usize, usize, Cpx) -> Cpx + Sync) {
        let n = self.n;
        self.data
            .par_chunks_mut(n * n)
            .enumerate()
            .for_each(|(x, plane)| {
                for y in 0..n {
                    let row = y * n;
                    for z in 0..n {
                        plane[row + z] = f(x, y, z, plane[row + z]);
                    }
                }
            });
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
/// staying in L2 between the two): `z` and then `y`
/// ([`plane_yz`]). Then `x`, batched over the columns of one `y` per
/// task.
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
    mesh.data
        .par_chunks_mut(n * n)
        .for_each_init(Vec::new, |scratch, plane| {
            plane_yz(plan, plane, scratch, inverse)
        });
    let s = 1.0 / (n as f64).powi(3);
    rows_by_middle(&mut mesh.data, n, n)
        .into_par_iter()
        .for_each_init(Vec::new, |scratch, mut rows| {
            let finish = |v: Cpx| if inverse { v.conj().scale(s) } else { v };
            let maps = (conj_if(false), finish);
            columns_pass(plan, &mut rows, n, scratch, maps, |p, _| p.fft(plan));
        });
}

/// The forward transforms of one `n × n` x-plane: its z rows as
/// transposed panels, conjugated on the way in when `conj_in`, then its
/// y columns.
pub(crate) fn plane_yz(plan: &Fft1d, plane: &mut [Cpx], scratch: &mut Vec<f64>, conj_in: bool) {
    let mut rows: Vec<&mut [Cpx]> = plane.chunks_exact_mut(plan.len()).collect();
    for batch in rows.chunks_mut(PANEL_COLS) {
        let [mut p] = Panel::of(scratch, [plan.len()], batch.len());
        p.load(batch, |j| plan.rev(j), conj_if(conj_in));
        p.fft(plan);
        p.store(batch, conj_if(false));
    }
    let maps = (conj_if(false), conj_if(false));
    columns_pass(plan, &mut rows, plan.len(), scratch, maps, |p, _| {
        p.fft(plan)
    });
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
        let mut m = Mesh3::zeros(n);
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    *m.get_mut(x, y, z) = Cpx::real(
                        (2.0 * std::f64::consts::PI * k as f64 * x as f64 / n as f64).cos(),
                    );
                }
            }
        }
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

    #[test]
    fn map_modes_visits_every_cell() {
        let n = 4;
        let mut m = Mesh3::zeros(n);
        let mut count = 0;
        m.map_modes(|_, _, _, v| {
            count += 1;
            v + Cpx::ONE
        });
        assert_eq!(count, n * n * n);
        assert!(m.data().iter().all(|c| (*c - Cpx::ONE).abs() < 1e-15));
    }
}
