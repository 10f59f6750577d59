//! The k-space Green's function of the long-range (PM) force.
//!
//! The PM part of the TreePM split solves, in Fourier space,
//!
//! ```text
//! φ̃(k) = −4πG/k² · S̃2(k·a)² · ρ̃(k) / W_TSC(k)²          a = r_cut/2
//! ```
//!
//! * `−4πG/k²` is the periodic Poisson kernel,
//! * `S̃2²` restricts the mesh to the long-range complement of the eq.-(3)
//!   cutoff (the interaction of two S2 clouds — see
//!   [`greem_math::cutoff`]),
//! * `1/W_TSC²` deconvolves the TSC assignment window once for the mass
//!   assignment and once for the force interpolation (standard PM
//!   practice; Hockney & Eastwood 1981).
//!
//! The k = 0 mode is zeroed — the uniform background does not
//! gravitate in comoving coordinates (the "Jeans swindle" built into
//! periodic cosmological simulators).

//!
//! The multiplier depends on `|m|` per axis only, so it is tabulated
//! once, at construction, over the octant `0 ≤ m ≤ n/2` — `(n/2+1)³`
//! values, 2.2 MB at n = 128 — and every per-step mode loop is a table
//! read: no `sqrt`, `sin` or divide is left in a PM step.

use greem_math::cutoff::s2_fourier;
use rayon::prelude::*;

/// The Green's function of an `n`-mesh, tabulated over the octant of
/// non-negative wavenumbers from per-axis factor tables.
#[derive(Debug, Clone)]
pub struct GreensFn {
    n: usize,
    /// `table[(|mx|·h + |my|)·h + |mz|]`, `h = n/2 + 1`: [`Self::eval`]
    /// at every mode of the octant.
    table: Vec<f64>,
    /// S2 radius `a = r_cut / 2` in box units.
    a: f64,
    /// `4πG` prefactor (G = 1 in simulation units).
    four_pi_g: f64,
    /// Per-axis signed wavenumbers `2π·m`, index 0..n.
    k_axis: Vec<f64>,
    /// Per-axis TSC window `sinc³(π·m/n)`, index 0..n.
    w_tsc: Vec<f64>,
    deconvolve: bool,
}

impl GreensFn {
    /// Tabulate the multiplier for a mesh of side `n` and cutoff `r_cut`
    /// (box units). `deconvolve` divides out the squared TSC window (on
    /// by default in the solvers).
    pub fn new(n: usize, r_cut: f64, deconvolve: bool) -> Self {
        assert!(n >= 2 && r_cut > 0.0);
        let two_pi = 2.0 * std::f64::consts::PI;
        let k_axis = (0..n)
            .map(|i| {
                let m = if i <= n / 2 {
                    i as f64
                } else {
                    i as f64 - n as f64
                };
                two_pi * m
            })
            .collect();
        let w_tsc = (0..n)
            .map(|i| {
                let m = if i <= n / 2 {
                    i as f64
                } else {
                    i as f64 - n as f64
                };
                let x = std::f64::consts::PI * m / n as f64;
                let s = if x.abs() < 1e-12 { 1.0 } else { x.sin() / x };
                s * s * s
            })
            .collect();
        let mut greens = GreensFn {
            n,
            table: Vec::new(),
            a: 0.5 * r_cut,
            four_pi_g: 4.0 * std::f64::consts::PI * greem_math::G_SIM,
            k_axis,
            w_tsc,
            deconvolve,
        };
        let h = n / 2 + 1;
        let mut table = vec![0.0; h * h * h];
        table
            .par_chunks_mut(h * h)
            .enumerate()
            .for_each(|(ix, plane)| {
                for (i, g) in plane.iter_mut().enumerate() {
                    *g = greens.eval(ix, i / h, i % h);
                }
            });
        greens.table = table;
        greens
    }

    /// The multipliers of modes `(ix, iy, 0 ..= n/2)` (raw mesh indices
    /// in x and y): what turns `ρ̃(k)` into `φ̃(k)`. 0 at the DC mode.
    #[inline]
    pub fn row(&self, ix: usize, iy: usize) -> &[f64] {
        let h = self.n / 2 + 1;
        let fold = |i: usize| i.min(self.n - i);
        &self.table[(fold(ix) * h + fold(iy)) * h..][..h]
    }

    /// The multiplier at mode `(ix, iy, iz)` (raw mesh indices).
    #[inline]
    pub fn get(&self, ix: usize, iy: usize, iz: usize) -> f64 {
        self.row(ix, iy)[iz.min(self.n - iz)]
    }

    /// Mesh side.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The closed form the table is filled from (and, in the tests,
    /// checked against mode by mode): the multiplier at integer mode
    /// `(ix, iy, iz)` (raw mesh indices), 0 for the DC mode.
    fn eval(&self, ix: usize, iy: usize, iz: usize) -> f64 {
        if ix == 0 && iy == 0 && iz == 0 {
            return 0.0;
        }
        let kx = self.k_axis[ix];
        let ky = self.k_axis[iy];
        let kz = self.k_axis[iz];
        let k2 = kx * kx + ky * ky + kz * kz;
        let w = s2_fourier((k2.sqrt()) * self.a);
        let mut g = -self.four_pi_g * w * w / k2;
        if self.deconvolve {
            let wt = self.w_tsc[ix] * self.w_tsc[iy] * self.w_tsc[iz];
            // The TSC window only vanishes at the (excluded) DC mode and
            // is ≥ (2/π)⁹ elsewhere; the division is safe.
            g /= wt * wt;
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_mode_is_zero() {
        let g = GreensFn::new(16, 0.2, true);
        assert_eq!(g.get(0, 0, 0), 0.0);
    }

    #[test]
    fn table_equals_closed_form_at_every_mode_bitwise() {
        for n in [8usize, 16, 32] {
            for deconvolve in [true, false] {
                let g = GreensFn::new(n, 3.0 / n as f64, deconvolve);
                for i in 0..n * n * n {
                    let (x, y, z) = (i / (n * n), i / n % n, i % n);
                    assert_eq!(
                        g.get(x, y, z).to_bits(),
                        g.eval(x, y, z).to_bits(),
                        "n={n} deconvolve={deconvolve} mode ({x},{y},{z})"
                    );
                    if z <= n / 2 {
                        assert_eq!(g.row(x, y)[z].to_bits(), g.get(x, y, z).to_bits());
                    }
                }
                assert_eq!(g.get(0, 0, 0), 0.0);
            }
        }
    }

    #[test]
    fn long_wavelengths_approach_poisson() {
        // At k·a ≪ 1 and k ≪ k_Nyquist, the S2 filter and TSC window are
        // ≈ 1, so the multiplier approaches −4πG/k².
        let n = 256;
        let g = GreensFn::new(n, 4.0 / n as f64, true);
        let k = 2.0 * std::f64::consts::PI; // mode (1,0,0)
        let got = g.get(1, 0, 0);
        let want = -4.0 * std::f64::consts::PI / (k * k);
        assert!(
            (got - want).abs() < 2e-3 * want.abs(),
            "got {got}, want {want}"
        );
    }

    #[test]
    fn short_wavelengths_are_suppressed() {
        // Near the cutoff scale the S2² filter kills the mesh force:
        // compare mode amplitudes with the bare Poisson kernel.
        let n = 64;
        let r_cut = 3.0 / n as f64 * 4.0; // exaggerate for a mid-k test
        let g = GreensFn::new(n, r_cut, false);
        let hi = n / 2 - 1;
        let k_hi = 2.0 * std::f64::consts::PI * hi as f64;
        let bare = 4.0 * std::f64::consts::PI / (k_hi * k_hi);
        let got = g.get(hi, 0, 0).abs();
        assert!(got < 0.05 * bare, "high-k not suppressed: {got} vs {bare}");
    }

    #[test]
    fn symmetric_under_k_negation() {
        let g = GreensFn::new(32, 0.1, true);
        for (i, j, k) in [(1, 2, 3), (5, 0, 7), (15, 15, 1)] {
            let a = g.get(i, j, k);
            let b = g.get((32 - i) % 32, (32 - j) % 32, (32 - k) % 32);
            assert!((a - b).abs() < 1e-15 * a.abs().max(1e-30));
        }
    }

    #[test]
    fn deconvolution_boosts_high_k() {
        let n = 32;
        let plain = GreensFn::new(n, 0.1, false);
        let deconv = GreensFn::new(n, 0.1, true);
        let (i, j, k) = (13, 9, 5);
        assert!(deconv.get(i, j, k).abs() > plain.get(i, j, k).abs());
        // And identical in the k→0 limit.
        let r = deconv.get(1, 0, 0) / plain.get(1, 0, 0);
        assert!((r - 1.0).abs() < 1e-2);
    }
}
