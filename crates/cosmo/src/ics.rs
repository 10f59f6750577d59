//! Zel'dovich initial conditions.
//!
//! A Gaussian random density field with the requested power spectrum is
//! realised on an n³ grid (white noise → real ↔ half-complex FFT →
//! `√P(k)` colouring), the Zel'dovich displacement field
//! `ψ(k) = i·k/k²·δ(k)` is produced by spectral differentiation, and
//! particles start on the grid displaced by `ψ` with growing-mode
//! velocities `ẋ = f·H·ψ` — the standard setup of cosmological N-body
//! runs, including the paper's (§III-A).

use greem_fft::{Cpx, RealFft3};
use greem_math::{wrap01, Vec3};
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::friedmann::Cosmology;
use crate::power::PowerSpectrum;

/// Initial-condition parameters.
#[derive(Debug, Clone, Copy)]
pub struct IcParams {
    /// Particles per side (power of two; n³ total).
    pub n_per_side: usize,
    /// Starting scale factor (the paper starts at z = 400).
    pub a_start: f64,
    /// Linear spectrum *at the starting epoch*.
    pub spectrum: PowerSpectrum,
    /// Background cosmology (for the velocity growth rate).
    pub cosmology: Cosmology,
    /// Random seed.
    pub seed: u64,
    /// If set, rescale the realised field to this rms density contrast
    /// (overrides the spectrum amplitude; convenient for controlling
    /// how nonlinear the start is).
    pub normalize_rms_delta: Option<f64>,
}

/// A particle snapshot ready for the TreePM integrator.
#[derive(Debug, Clone)]
pub struct InitialConditions {
    /// Positions in the periodic unit box.
    pub pos: Vec<Vec3>,
    /// Comoving momenta `p = a²·dx/dt` in 1/H0 time units (what the
    /// kick/drift leapfrog advances).
    pub vel: Vec<Vec3>,
    /// Mass per particle (total mass 1).
    pub mass: f64,
    /// rms of the realised density contrast.
    pub delta_rms: f64,
    /// Largest displacement applied, in units of the mean interparticle
    /// spacing (≫1 would mean shell crossing — too late a start).
    pub max_displacement: f64,
    /// The realised density contrast field (n³, z fastest) —
    /// diagnostics and tests.
    pub delta_mesh: Vec<f64>,
}

/// Lagrangian perturbation order of the initial conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LptOrder {
    /// First order (Zel'dovich approximation) — the classic setup.
    #[default]
    Zeldovich,
    /// Second order (2LPT): adds the `(3/7)·∇∇⁻²·Σ_{i<j}(φ,ᵢᵢφ,ⱼⱼ −
    /// φ,ᵢⱼ²)` displacement and its growing-mode velocity
    /// (`f₂ ≈ 2·Ωm^{6/11}`), suppressing the transients that a
    /// Zel'dovich start needs extra expansion to shed — the setup
    /// production microhalo runs use.
    TwoLpt,
}

/// Generate Zel'dovich (first-order) initial conditions.
pub fn generate_ics(p: &IcParams) -> InitialConditions {
    generate_ics_with_order(p, LptOrder::Zeldovich)
}

/// Generate initial conditions at the requested Lagrangian order.
pub fn generate_ics_with_order(p: &IcParams, order: LptOrder) -> InitialConditions {
    let n = p.n_per_side;
    assert!(n.is_power_of_two(), "IC grid must be a power of two");
    assert!(p.a_start > 0.0 && p.a_start <= 1.0);
    let fft = RealFft3::new(n);
    let ntot = n * n * n;

    // White Gaussian noise, unit variance per site, drawn in (x, y, z)
    // order into the transform's padded rows.
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut delta_k = vec![0.0; fft.buf_len()];
    for v in cells(&mut delta_k, n) {
        // Box-Muller from two uniforms.
        let u1: f64 = rng.random::<f64>().max(1e-300);
        let u2: f64 = rng.random();
        *v = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
    fft.forward(&mut delta_k);

    // Colour by √P(k): the white spectrum has ⟨|W(k)|²⟩ = n³, so divide
    // by √n³ to make δ(k) carry P(k) per mode.
    let norm = 1.0 / (ntot as f64).sqrt();
    let spectrum = p.spectrum;
    map_modes(&mut delta_k, n, |_, k2, _, v| {
        v * (spectrum.eval(k2.sqrt()).sqrt() * norm)
    });
    // Zero the DC mode (mean density is the background).
    delta_k[..2].fill(0.0);

    // Optional rms normalisation of the real-space contrast.
    let delta_x = filtered(&fft, &delta_k, |_, _, _, v| v);
    let rms = (delta_x.iter().map(|d| d * d).sum::<f64>() / ntot as f64).sqrt();
    let scale = match p.normalize_rms_delta {
        Some(target) if rms > 0.0 => target / rms,
        _ => 1.0,
    };
    let delta_rms = rms * scale;
    let delta_mesh: Vec<f64> = delta_x.iter().map(|d| d * scale).collect();

    // Displacement fields ψ_j = inverse FFT of i·k_j/k²·δ(k).
    let psi = [0, 1, 2].map(|axis| gradient(&fft, &delta_k, axis, scale));

    // Second-order displacement, if requested: build the source
    // δ₂ = Σ_{i<j} (φ,ᵢᵢ·φ,ⱼⱼ − φ,ᵢⱼ²) from the first-order potential's
    // Hessian (all in k-space: φ,ᵢⱼ(k) = k_i·k_j·δ(k)/k²), then
    // Ψ₂(k) = (3/7)·i·k·δ₂(k)/k² — the same spectral-gradient form as
    // Ψ₁ with δ → (3/7)·δ₂. The at-epoch δ already carries D₁, so Ψ₂ is
    // automatically ∝ D₁².
    let psi2: Option<[Vec<f64>; 3]> = match order {
        LptOrder::Zeldovich => None,
        LptOrder::TwoLpt => {
            let hess_pairs = [(0usize, 0usize), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)];
            let hess = hess_pairs.map(|(i, j)| {
                filtered(&fft, &delta_k, |k, k2, nyq, v| {
                    // With i ≠ j, a mode on exactly one of the two
                    // axes' Nyquist planes and its mirror get k_i·k_j of
                    // opposite signs: anti-Hermitian, zeroed (see
                    // `gradient`). On both planes the signs agree.
                    if k2 == 0.0 || (i != j && nyq[i] != nyq[j]) {
                        Cpx::ZERO
                    } else {
                        v * (k[i] * k[j] / k2 * scale)
                    }
                })
            });
            // hess order: xx, xy, xz, yy, yz, zz.
            let mut delta2 = vec![0.0; fft.buf_len()];
            for (c, out) in cells(&mut delta2, n).enumerate() {
                let [xx, xy, xz, yy, yz, zz] = hess.each_ref().map(|h| h[c]);
                *out = xx * yy + xx * zz + yy * zz - xy * xy - xz * xz - yz * yz;
            }
            fft.forward(&mut delta2);
            // forward-FFT'd δ₂ → spectral gradient → the inverse FFT
            // restores the 1/n³.
            Some([0, 1, 2].map(|axis| gradient(&fft, &delta2, axis, 3.0 / 7.0)))
        }
    };

    // Particles on the grid, displaced; growing-mode momenta. Second
    // order carries its own velocity growth rate f₂ ≈ 2·Ωm^(6/11)
    // (Bouchet et al. 1995).
    let f1 = p.cosmology.growth_rate(p.a_start);
    let f2 = 2.0 * p.cosmology.omega_m_of_a(p.a_start).powf(6.0 / 11.0);
    let e = p.cosmology.e_of_a(p.a_start);
    let mom = p.a_start * p.a_start * e;
    let spacing = 1.0 / n as f64;
    let mut pos = Vec::with_capacity(ntot);
    let mut vel = Vec::with_capacity(ntot);
    let mut max_disp: f64 = 0.0;
    for ix in 0..n {
        for iy in 0..n {
            for iz in 0..n {
                let i = (ix * n + iy) * n + iz;
                let d1 = Vec3::new(psi[0][i], psi[1][i], psi[2][i]);
                let d2 = match &psi2 {
                    Some(s) => Vec3::new(s[0][i], s[1][i], s[2][i]),
                    None => Vec3::ZERO,
                };
                let d = d1 + d2;
                max_disp = max_disp.max(d.norm() / spacing);
                let q = Vec3::new(
                    ix as f64 * spacing,
                    iy as f64 * spacing,
                    iz as f64 * spacing,
                );
                pos.push(wrap01(q + d));
                vel.push((d1 * f1 + d2 * f2) * mom);
            }
        }
    }
    InitialConditions {
        pos,
        vel,
        mass: 1.0 / ntot as f64,
        delta_rms,
        max_displacement: max_disp,
        delta_mesh,
    }
}

/// `f(k, |k|², nyquist, value)` on every stored mode of a half-complex
/// spectrum (the padded buffer after [`RealFft3::forward`]): `k = 2π·m`,
/// `m` the signed mode numbers (`m_z ≥ 0`), `nyquist[j]` whether axis
/// `j` sits at index `n/2`.
fn map_modes(spec: &mut [f64], n: usize, f: impl Fn([f64; 3], f64, [bool; 3], Cpx) -> Cpx) {
    let two_pi = 2.0 * std::f64::consts::PI;
    let signed = |i: usize| {
        if i <= n / 2 {
            i as f64
        } else {
            i as f64 - n as f64
        }
    };
    for (i, row) in spec.chunks_exact_mut(n + 2).enumerate() {
        for (iz, c) in row.chunks_exact_mut(2).enumerate() {
            let idx = [i / n, i % n, iz];
            let k = idx.map(|j| two_pi * signed(j));
            let k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
            let v = f(k, k2, idx.map(|j| j == n / 2), Cpx::new(c[0], c[1]));
            (c[0], c[1]) = (v.re, v.im);
        }
    }
}

/// The `n³` real cells of a padded buffer, in `(x, y, z)` order.
fn cells(buf: &mut [f64], n: usize) -> impl Iterator<Item = &mut f64> {
    buf.chunks_exact_mut(n + 2).flat_map(move |r| &mut r[..n])
}

/// The real field `inverse(f · spec)`, `n³` unpadded, z fastest.
fn filtered(
    fft: &RealFft3,
    spec: &[f64],
    f: impl Fn([f64; 3], f64, [bool; 3], Cpx) -> Cpx,
) -> Vec<f64> {
    let n = fft.n();
    let mut m = spec.to_vec();
    map_modes(&mut m, n, f);
    fft.inverse(&mut m);
    cells(&mut m, n).map(|v| *v).collect()
}

/// The spectral gradient `inverse(i·k_j/k² · spec · s)` along `axis`.
///
/// `i·k_j` is odd in `k_j`, and on the Nyquist plane of axis `j` a mode
/// and its conjugate mirror share the index `n/2`: the product there is
/// anti-Hermitian, which a complex inverse would leave in the imaginary
/// part and a half-complex one turns into real error. It is zeroed.
fn gradient(fft: &RealFft3, spec: &[f64], axis: usize, s: f64) -> Vec<f64> {
    filtered(fft, spec, |k, k2, nyq, v| {
        if k2 == 0.0 || nyq[axis] {
            Cpx::ZERO
        } else {
            // i·k_j/k² × δ(k)
            Cpx::new(0.0, k[axis] / k2) * v * s
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_params(n: usize, amp: f64) -> IcParams {
        IcParams {
            n_per_side: n,
            a_start: 1.0 / 401.0,
            spectrum: PowerSpectrum::microhalo(amp, 2.0 * std::f64::consts::PI * 4.0),
            cosmology: Cosmology::wmap7(),
            seed: 42,
            normalize_rms_delta: None,
        }
    }

    #[test]
    fn counts_masses_and_wrapping() {
        let ics = generate_ics(&base_params(8, 1e-4));
        assert_eq!(ics.pos.len(), 512);
        assert_eq!(ics.vel.len(), 512);
        assert!((ics.mass * 512.0 - 1.0).abs() < 1e-12);
        for p in &ics.pos {
            assert!(
                (0.0..1.0).contains(&p.x) && (0.0..1.0).contains(&p.y) && (0.0..1.0).contains(&p.z)
            );
        }
    }

    #[test]
    fn zero_amplitude_gives_unperturbed_grid() {
        let ics = generate_ics(&base_params(8, 0.0));
        assert_eq!(ics.delta_rms, 0.0);
        assert_eq!(ics.max_displacement, 0.0);
        for (i, v) in ics.vel.iter().enumerate() {
            assert_eq!(*v, Vec3::ZERO, "particle {i}");
        }
        // First particle exactly at the origin grid point.
        assert_eq!(ics.pos[0], Vec3::ZERO);
    }

    #[test]
    fn rms_normalisation_is_exact() {
        let mut p = base_params(16, 1.0);
        p.normalize_rms_delta = Some(0.05);
        let ics = generate_ics(&p);
        assert!(
            (ics.delta_rms - 0.05).abs() < 1e-12,
            "rms {}",
            ics.delta_rms
        );
        assert!(ics.max_displacement > 0.0);
    }

    #[test]
    fn velocities_are_parallel_to_displacements() {
        // The Zel'dovich ansatz: p ∝ ψ with one global factor.
        let mut p = base_params(8, 1.0);
        p.normalize_rms_delta = Some(0.02);
        let ics = generate_ics(&p);
        let n = 8usize;
        let spacing = 1.0 / n as f64;
        let mut ratio: Option<f64> = None;
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..n {
                    let i = (ix * n + iy) * n + iz;
                    let q = Vec3::new(ix as f64, iy as f64, iz as f64) * spacing;
                    let d = greem_math::min_image_vec(ics.pos[i], q);
                    let v = ics.vel[i];
                    if d.norm() < 1e-12 {
                        continue;
                    }
                    let r = v.norm() / d.norm();
                    let cross = v.cross(d).norm() / (v.norm() * d.norm()).max(1e-300);
                    assert!(cross < 1e-9, "particle {i}: v not ∥ ψ (sin={cross})");
                    match ratio {
                        None => ratio = Some(r),
                        Some(r0) => assert!((r - r0).abs() < 1e-9 * r0, "ratio varies"),
                    }
                }
            }
        }
    }

    #[test]
    fn cutoff_suppresses_small_scale_power() {
        // Two realisations, identical seeds: one with a deep cutoff, one
        // without. The cutoff field must be much smoother (smaller rms
        // of the cell-to-cell difference) at fixed total rms.
        let n = 16;
        let kfs = 2.0 * std::f64::consts::PI * 2.0;
        let mut with = base_params(n, 1.0);
        with.spectrum = PowerSpectrum::microhalo(1.0, kfs);
        with.normalize_rms_delta = Some(0.05);
        let mut without = with;
        without.spectrum = PowerSpectrum {
            k_fs: None,
            ..with.spectrum
        };
        let a = generate_ics(&with);
        let b = generate_ics(&without);
        let roughness = |d: &[f64]| -> f64 {
            let mut acc = 0.0;
            for x in 0..n {
                for y in 0..n {
                    for z in 0..n {
                        let i = (x * n + y) * n + z;
                        let j = (x * n + y) * n + (z + 1) % n;
                        acc += (d[i] - d[j]).powi(2);
                    }
                }
            }
            (acc / (n * n * n) as f64).sqrt()
        };
        let ra = roughness(&a.delta_mesh);
        let rb = roughness(&b.delta_mesh);
        assert!(ra < 0.6 * rb, "cutoff field roughness {ra} !< uncut {rb}");
    }

    #[test]
    fn two_lpt_vanishes_for_a_single_plane_wave() {
        // δ₂ = Σ_{i<j}(φ,ᵢᵢφ,ⱼⱼ − φ,ᵢⱼ²) is identically zero for a 1-D
        // perturbation (only one diagonal Hessian entry is nonzero), so
        // 2LPT must coincide with Zel'dovich. A power spectrum confined
        // to the fundamental x-mode approximates that; compare both
        // orders on the same seed.
        let mut p = base_params(8, 1.0);
        // Very red spectrum: essentially only the longest mode survives.
        p.spectrum = PowerSpectrum {
            amplitude: 1.0,
            n_s: -8.0,
            gamma_box: 1e-6,
            k_fs: Some(2.0 * std::f64::consts::PI * 1.4),
        };
        p.normalize_rms_delta = Some(0.02);
        let za = generate_ics_with_order(&p, LptOrder::Zeldovich);
        let two = generate_ics_with_order(&p, LptOrder::TwoLpt);
        let mut max_dd = 0.0f64;
        for (a, b) in za.pos.iter().zip(&two.pos) {
            max_dd = max_dd.max(greem_math::min_image_vec(*a, *b).norm());
        }
        // Not exactly one mode (it's a random field), so allow the
        // second-order correction to be small rather than zero.
        let spacing = 1.0 / 8.0;
        assert!(
            max_dd < 0.05 * spacing * za.max_displacement.max(1e-9),
            "2LPT should barely differ from ZA here: {max_dd:e}"
        );
    }

    #[test]
    fn two_lpt_correction_is_second_order_small() {
        // Halving the field amplitude must quarter the 2LPT−ZA
        // displacement difference (it is O(δ²)).
        let diff_at = |amp: f64| -> f64 {
            let mut p = base_params(8, 1.0);
            p.normalize_rms_delta = Some(amp);
            let za = generate_ics_with_order(&p, LptOrder::Zeldovich);
            let two = generate_ics_with_order(&p, LptOrder::TwoLpt);
            za.pos
                .iter()
                .zip(&two.pos)
                .map(|(a, b)| greem_math::min_image_vec(*a, *b).norm())
                .sum::<f64>()
        };
        let d_full = diff_at(0.08);
        let d_half = diff_at(0.04);
        let ratio = d_full / d_half;
        assert!(
            (ratio - 4.0).abs() < 0.4,
            "2LPT correction should scale as amplitude²: ratio {ratio}"
        );
    }

    #[test]
    fn two_lpt_velocities_follow_displacement_split() {
        // 2LPT momenta are f₁·ψ₁ + f₂·ψ₂ with f₂ ≈ 2f₁ at high z: the
        // velocity is no longer exactly parallel to the displacement.
        let mut p = base_params(8, 1.0);
        p.normalize_rms_delta = Some(0.1);
        let two = generate_ics_with_order(&p, LptOrder::TwoLpt);
        assert_eq!(two.pos.len(), 512);
        for v in &two.vel {
            assert!(v.is_finite());
        }
        assert!(two.max_displacement > 0.0);
    }

    #[test]
    fn different_seeds_different_fields() {
        let a = generate_ics(&base_params(8, 1e-4));
        let mut pb = base_params(8, 1e-4);
        pb.seed = 43;
        let b = generate_ics(&pb);
        assert_ne!(a.pos, b.pos);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = generate_ics(&base_params(8, 1e-4));
        let b = generate_ics(&base_params(8, 1e-4));
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.vel, b.vel);
    }
}
