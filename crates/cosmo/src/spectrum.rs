//! Measuring the matter power spectrum of a particle snapshot.
//!
//! The diagnostic the paper's science rests on: the free-streaming
//! cutoff must actually be present in the realised initial conditions,
//! and structure growth moves power between scales. We assign the
//! particles to a mesh with `greem-pm`'s TSC assignment, take the real
//! ↔ half-complex transform, and bin `|δ(k)|²` in spherical shells.

use greem_fft::RealFft3;
use greem_math::Vec3;
use greem_pm::{PmParams, PmSolver};

/// One spherical bin of the measured spectrum.
#[derive(Debug, Clone, Copy)]
pub struct PowerBin {
    /// Mean wavenumber of the bin (box units, k = 2π·mode).
    pub k: f64,
    /// Mean mode power ⟨|δ_k|²⟩ in the bin.
    pub power: f64,
    /// Modes in the bin.
    pub modes: usize,
}

/// Measure the binned power spectrum of the density contrast of a
/// particle snapshot on an `n_mesh`³ grid (TSC assignment, no window
/// correction; adequate for k well below the mesh Nyquist).
///
/// Returns one bin per integer |mode| from 1 to `n_mesh/2`. Every mode
/// of the full cube counts: the half-complex spectrum stores `k_z = 0`
/// and `k_z = n/2` once and each `0 < k_z < n/2` for itself and its
/// conjugate mirror, which has the same power and the same `|k|`.
pub fn measure_power(pos: &[Vec3], mass: &[f64], n_mesh: usize) -> Vec<PowerBin> {
    assert_eq!(pos.len(), mass.len());
    assert!(n_mesh.is_power_of_two());
    let n = n_mesh;
    // The periodic solver's assignment (the solve itself is not run).
    let rho = PmSolver::new(PmParams::standard(n)).assign_density(pos, mass);
    let mean = rho.iter().sum::<f64>() / rho.len() as f64;
    let fft = RealFft3::new(n);
    let ld = fft.row_len();
    let mut buf = vec![0.0; fft.buf_len()];
    for (row, src) in buf.chunks_exact_mut(ld).zip(rho.chunks_exact(n)) {
        for (d, r) in row.iter_mut().zip(src) {
            *d = r / mean - 1.0;
        }
    }
    fft.forward(&mut buf);
    // Bin |δ_k|² / N_cells² in shells of integer |mode|.
    let norm = 1.0 / ((n * n * n) as f64).powi(2);
    let half = n / 2;
    let mut power = vec![0.0f64; half + 1];
    let mut count = vec![0usize; half + 1];
    // |signed mode number| per axis; k_z is stored non-negative.
    let fold = |i: usize| i.min(n - i) as f64;
    for (i, row) in buf.chunks_exact(ld).enumerate() {
        let (x, y) = (i / n, i % n);
        for (z, c) in row.chunks_exact(2).enumerate() {
            if x == 0 && y == 0 && z == 0 {
                continue;
            }
            let m2 = fold(x).powi(2) + fold(y).powi(2) + (z as f64).powi(2);
            let bin = m2.sqrt().round() as usize;
            if bin >= 1 && bin <= half {
                let copies = if z == 0 || z == half { 1 } else { 2 };
                power[bin] += copies as f64 * (c[0] * c[0] + c[1] * c[1]) * norm;
                count[bin] += copies;
            }
        }
    }
    (1..=half)
        .filter(|&b| count[b] > 0)
        .map(|b| PowerBin {
            k: 2.0 * std::f64::consts::PI * b as f64,
            power: power[b] / count[b] as f64,
            modes: count[b],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::friedmann::Cosmology;
    use crate::ics::{generate_ics, IcParams};
    use crate::power::PowerSpectrum;

    #[test]
    fn uniform_grid_has_no_power() {
        let n = 8usize;
        let mut pos = Vec::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    pos.push(Vec3::new(
                        x as f64 / n as f64,
                        y as f64 / n as f64,
                        z as f64 / n as f64,
                    ));
                }
            }
        }
        let mass = vec![1.0; pos.len()];
        let bins = measure_power(&pos, &mass, n);
        for b in bins {
            assert!(
                b.power < 1e-20,
                "uniform grid power {} at k={}",
                b.power,
                b.k
            );
        }
    }

    /// The realised ICs must carry the requested spectrum: with a deep
    /// free-streaming cutoff, the measured power above k_fs collapses
    /// relative to the power below it.
    #[test]
    fn ics_carry_the_free_streaming_cutoff() {
        let n = 16usize;
        let kfs_modes = 3.0;
        let ics = generate_ics(&IcParams {
            n_per_side: n,
            a_start: 1.0 / 101.0,
            spectrum: PowerSpectrum::microhalo(1.0, 2.0 * std::f64::consts::PI * kfs_modes),
            cosmology: Cosmology::wmap7(),
            seed: 17,
            normalize_rms_delta: Some(0.05),
        });
        let mass = vec![ics.mass; ics.pos.len()];
        let bins = measure_power(&ics.pos, &mass, n);
        let low: f64 = bins
            .iter()
            .filter(|b| b.k < 2.0 * std::f64::consts::PI * kfs_modes * 0.8)
            .map(|b| b.power)
            .sum::<f64>()
            / bins
                .iter()
                .filter(|b| b.k < 2.0 * std::f64::consts::PI * kfs_modes * 0.8)
                .count()
                .max(1) as f64;
        let high: f64 = bins
            .iter()
            .filter(|b| b.k > 2.0 * std::f64::consts::PI * kfs_modes * 1.8)
            .map(|b| b.power)
            .sum::<f64>()
            / bins
                .iter()
                .filter(|b| b.k > 2.0 * std::f64::consts::PI * kfs_modes * 1.8)
                .count()
                .max(1) as f64;
        assert!(
            high < 0.05 * low,
            "cutoff absent: low-k {low:.3e} vs high-k {high:.3e}"
        );
    }

    /// Mode-by-mode: a single plane-wave displacement produces power in
    /// exactly the matching bin.
    #[test]
    fn single_mode_lands_in_its_bin() {
        let n = 16usize;
        let k_mode = 2usize;
        let amp = 0.002;
        let mut pos = Vec::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let q = x as f64 / n as f64;
                    pos.push(Vec3::new(
                        (q + amp * (2.0 * std::f64::consts::PI * k_mode as f64 * q).sin())
                            .rem_euclid(1.0),
                        y as f64 / n as f64,
                        z as f64 / n as f64,
                    ));
                }
            }
        }
        let mass = vec![1.0; pos.len()];
        let bins = measure_power(&pos, &mass, n);
        let peak = bins
            .iter()
            .max_by(|a, b| a.power.partial_cmp(&b.power).unwrap())
            .unwrap();
        assert_eq!(
            (peak.k / (2.0 * std::f64::consts::PI)).round() as usize,
            k_mode,
            "peak at wrong k: {}",
            peak.k
        );
    }
}
