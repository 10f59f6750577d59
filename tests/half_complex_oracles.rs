//! The cosmology crate's real ↔ half-complex paths against a direct
//! complex DFT of the whole cube, computed here as the oracle: the
//! first- and second-order displacements of the initial conditions
//! and the binned power spectrum.

use greem_repro::cosmo::{
    generate_ics, generate_ics_with_order, measure_power, Cosmology, IcParams, LptOrder,
    PowerSpectrum,
};
use greem_repro::fft::Cpx;
use greem_repro::math::testutil::rand_positions;
use greem_repro::math::Vec3;
use greem_repro::pm::{PmParams, PmSolver};

fn signed(i: usize, n: usize) -> f64 {
    if i <= n / 2 {
        i as f64
    } else {
        i as f64 - n as f64
    }
}

/// `Σ_j a[j]·exp(sign·2πi·jk/n)` along every axis of the `n³` cube `a`
/// (`z` fastest), by the definition, one axis at a time: unnormalised.
fn dft3(mut a: Vec<Cpx>, n: usize, sign: f64) -> Vec<Cpx> {
    let root: Vec<Cpx> = (0..n)
        .map(|k| Cpx::cis(sign * 2.0 * std::f64::consts::PI * k as f64 / n as f64))
        .collect();
    for stride in [1, n, n * n] {
        let line = |i: usize, k: usize| {
            let base = i - i / stride % n * stride;
            (0..n).fold(Cpx::ZERO, |s, j| s + a[base + j * stride] * root[j * k % n])
        };
        a = (0..a.len()).map(|i| line(i, i / stride % n)).collect();
    }
    a
}

/// The full complex spectrum of a real cube.
fn spectrum(field: &[f64], n: usize) -> Vec<Cpx> {
    dft3(field.iter().map(|&v| Cpx::real(v)).collect(), n, -1.0)
}

/// `Re inverse(m(k) · forward(field))` on the full complex cube, `k`
/// the signed wavevector: the real part drops whatever an odd
/// multiplier makes anti-Hermitian on a Nyquist plane.
fn complex_filtered(field: &[f64], n: usize, m: impl Fn([f64; 3]) -> Cpx) -> Vec<f64> {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut modes = spectrum(field, n);
    for (i, v) in modes.iter_mut().enumerate() {
        let kv = [i / (n * n), i / n % n, i % n].map(|s| two_pi * signed(s, n));
        *v = m(kv) * *v;
    }
    let scale = 1.0 / (n * n * n) as f64;
    dft3(modes, n, 1.0).iter().map(|c| c.re * scale).collect()
}

/// `Re inverse(i·k_j/k² · s · forward(field))`, 0 at k = 0.
fn complex_gradient(field: &[f64], n: usize, axis: usize, s: f64) -> Vec<f64> {
    complex_filtered(field, n, |kv| {
        let k2 = kv[0] * kv[0] + kv[1] * kv[1] + kv[2] * kv[2];
        if k2 == 0.0 {
            Cpx::ZERO
        } else {
            Cpx::new(0.0, kv[axis] / k2 * s)
        }
    })
}

/// Initial conditions at n = 8 whose Nyquist planes carry power.
fn params() -> IcParams {
    IcParams {
        n_per_side: 8,
        a_start: 1.0 / 401.0,
        spectrum: PowerSpectrum {
            k_fs: None,
            ..PowerSpectrum::microhalo(1.0, 1.0)
        },
        cosmology: Cosmology::wmap7(),
        seed: 42,
        normalize_rms_delta: Some(0.05),
    }
}

/// Each field within `1e-12` of the largest value of its oracle.
fn assert_fields_match(got: &[Vec<f64>], want: &[Vec<f64>], what: &str) {
    for (axis, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = w.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(scale > 0.0);
        for (i, (g, w)) in g.iter().zip(w).enumerate() {
            assert!(
                (g - w).abs() <= 1e-12 * scale,
                "{what} axis {axis} cell {i}: {g} vs {w} (scale {scale})"
            );
        }
    }
}

#[test]
fn zeldovich_displacement_equals_the_complex_transforms_real_part() {
    let p = params();
    let ics = generate_ics(&p);
    // Zel'dovich momenta are f·a²·E(a)·ψ.
    let a = p.a_start;
    let per_psi = p.cosmology.growth_rate(a) * a * a * p.cosmology.e_of_a(a);
    let got: Vec<Vec<f64>> = (0..3)
        .map(|j| {
            ics.vel
                .iter()
                .map(|v| [v.x, v.y, v.z][j] / per_psi)
                .collect()
        })
        .collect();
    let want: Vec<Vec<f64>> = (0..3)
        .map(|j| complex_gradient(&ics.delta_mesh, p.n_per_side, j, 1.0))
        .collect();
    assert_fields_match(&got, &want, "ψ₁");
}

#[test]
fn second_order_displacement_equals_the_complex_transforms_real_part() {
    let p = params();
    let n = p.n_per_side;
    let za = generate_ics(&p);
    let two = generate_ics_with_order(&p, LptOrder::TwoLpt);
    // 2LPT momenta are (f₁·ψ₁ + f₂·ψ₂)·a²·E(a), and f₁·ψ₁·a²·E(a) is
    // the Zel'dovich momentum.
    let a = p.a_start;
    let mom = a * a * p.cosmology.e_of_a(a);
    let f2 = 2.0 * p.cosmology.omega_m_of_a(a).powf(6.0 / 11.0);
    let got: Vec<Vec<f64>> = (0..3)
        .map(|j| {
            let c = |v: &Vec3| [v.x, v.y, v.z][j];
            let v2 = two.vel.iter().zip(&za.vel);
            v2.map(|(v2, v1)| (c(v2) / mom - c(v1) / mom) / f2)
                .collect()
        })
        .collect();
    // δ₂ = Σ_{i<j} (φ,ᵢᵢ·φ,ⱼⱼ − φ,ᵢⱼ²), φ,ᵢⱼ(k) = k_i·k_j·δ(k)/k².
    let hess = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)].map(|(i, j)| {
        complex_filtered(&za.delta_mesh, n, |kv| {
            let k2 = kv[0] * kv[0] + kv[1] * kv[1] + kv[2] * kv[2];
            Cpx::real(if k2 == 0.0 { 0.0 } else { kv[i] * kv[j] / k2 })
        })
    });
    let delta2: Vec<f64> = (0..n * n * n)
        .map(|c| {
            let [xx, xy, xz, yy, yz, zz] = hess.each_ref().map(|h| h[c]);
            xx * yy + xx * zz + yy * zz - xy * xy - xz * xz - yz * yz
        })
        .collect();
    let want: Vec<Vec<f64>> = (0..3)
        .map(|j| complex_gradient(&delta2, n, j, 3.0 / 7.0))
        .collect();
    assert_fields_match(&got, &want, "ψ₂");
}

#[test]
fn power_spectrum_equals_the_full_cube_estimate() {
    let n = 16;
    let pos: Vec<Vec3> = rand_positions(3000, 7);
    let mass: Vec<f64> = (0..pos.len()).map(|i| 1.0 + (i % 3) as f64).collect();
    let got = measure_power(&pos, &mass, n);

    // Every mode of the complex cube, each counted once.
    let rho = PmSolver::new(PmParams::standard(n)).assign_density(&pos, &mass);
    let mean = rho.iter().sum::<f64>() / rho.len() as f64;
    let delta: Vec<f64> = rho.iter().map(|r| r / mean - 1.0).collect();
    let m = spectrum(&delta, n);
    let norm = 1.0 / ((n * n * n) as f64).powi(2);
    let half = n / 2;
    let (mut power, mut count) = (vec![0.0f64; half + 1], vec![0usize; half + 1]);
    for (i, v) in m.iter().enumerate().skip(1) {
        let m2: f64 = [i / (n * n), i / n % n, i % n]
            .map(|s| signed(s, n).powi(2))
            .iter()
            .sum();
        let bin = m2.sqrt().round() as usize;
        if (1..=half).contains(&bin) {
            power[bin] += v.norm2() * norm;
            count[bin] += 1;
        }
    }
    let want: Vec<_> = (1..=half).filter(|&b| count[b] > 0).collect();
    assert_eq!(got.len(), want.len());
    for (g, &b) in got.iter().zip(&want) {
        let w = power[b] / count[b] as f64;
        assert_eq!(g.modes, count[b], "bin {b}");
        assert_eq!(g.k, 2.0 * std::f64::consts::PI * b as f64);
        assert!(
            (g.power - w).abs() <= 1e-12 * w,
            "bin {b}: {} vs {w}",
            g.power
        );
    }
}
