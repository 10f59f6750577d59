//! Iterative radix-2 Cooley-Tukey FFT plan.
//!
//! Conventions (matching FFTW's): the **forward** transform computes
//! `X[k] = Σ_j x[j]·exp(−2πi·jk/n)` and the **inverse** computes the
//! `+2πi` sum, both *unnormalised* — a forward/inverse roundtrip scales
//! by `n`, and the 3-D drivers divide by `n³` once at the end, exactly
//! where a PM code wants the normalisation (folded into the Green's
//! function application).

use crate::complex::Cpx;

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
        Fft1d { n, rev, tw }
    }

    /// The planned size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the plan is the trivial size-1 transform.
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// In-place forward transform (`exp(−2πi)` convention, unnormalised).
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

    /// The butterfly stages of [`forward`](Self::forward) on `w`
    /// sequences at once: `x[j·w + b]` is element `j` of sequence `b`,
    /// and rows must already be in bit-reversed order (row `rev(j)`
    /// holds element `j`). Every element sees the same twiddle and the
    /// same operations in the same order as in `forward`, so each
    /// column is bit-identical to a single-line transform; what changes
    /// is that the inner loop runs over a contiguous row.
    pub fn butterflies_columns(&self, x: &mut [Cpx], w: usize) {
        assert_eq!(x.len(), self.n * w, "panel size != plan size × width");
        let mut m = 1;
        let mut toff = 0;
        while m < self.n {
            for block in x.chunks_exact_mut(2 * m * w) {
                let (lo, hi) = block.split_at_mut(m * w);
                let rows = lo.chunks_exact_mut(w).zip(hi.chunks_exact_mut(w));
                for (&tw, (a, b)) in self.tw[toff..toff + m].iter().zip(rows) {
                    for (u, v) in a.iter_mut().zip(b) {
                        let t = tw * *v;
                        let s = *u;
                        *u = s + t;
                        *v = s - t;
                    }
                }
            }
            toff += m;
            m <<= 1;
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

/// Reference O(n²) DFT used by tests (forward convention).
pub fn dft_naive(x: &[Cpx]) -> Vec<Cpx> {
    let n = x.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|j| {
                    x[j] * Cpx::cis(-2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64)
                })
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for (n, w) in [(1usize, 3usize), (2, 1), (8, 5), (64, 16)] {
            let plan = Fft1d::new(n);
            let lines: Vec<Vec<Cpx>> = (0..w).map(|b| rand_signal(n, 90 + b as u64)).collect();
            let mut panel = vec![Cpx::ZERO; n * w];
            for (b, line) in lines.iter().enumerate() {
                for (j, &v) in line.iter().enumerate() {
                    panel[plan.rev(j) * w + b] = v;
                }
            }
            plan.butterflies_columns(&mut panel, w);
            for (b, line) in lines.iter().enumerate() {
                let mut want = line.clone();
                plan.forward(&mut want);
                for (j, v) in want.iter().enumerate() {
                    let got = panel[j * w + b];
                    assert_eq!(
                        (got.re.to_bits(), got.im.to_bits()),
                        (v.re.to_bits(), v.im.to_bits()),
                        "n={n} column {b} element {j}"
                    );
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
