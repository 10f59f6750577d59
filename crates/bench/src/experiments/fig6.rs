//! **Figure 6** — snapshots of the microhalo simulation.
//!
//! The paper shows the projected dark-matter density of its 600-parsec
//! box at z = 400 (the initial condition), 70, 40 and 31: smooth
//! Zel'dovich ripples collapsing into the first dark-matter structures,
//! whose minimum size is set by the neutralino free-streaming cutoff in
//! the initial power spectrum.
//!
//! We run the same physics end-to-end at laptop scale: Green+04-style
//! cutoff spectrum → Zel'dovich ICs → comoving TreePM integration from
//! z = 400 to z = 31 → projected-density maps at the paper's four
//! epochs, with the measured density contrast compared against linear
//! theory while it is linear and growing past it as structures collapse.

use greem::{projected_density, Simulation, SimulationMode, Snapshot, TreePmConfig};
use greem_cosmo::{generate_ics, Cosmology, IcParams, PowerSpectrum};

/// Parameters of the scaled-down microhalo run.
pub struct MicrohaloRun {
    /// Particles per side.
    pub n_side: usize,
    /// PM mesh per side.
    pub n_mesh: usize,
    /// Steps between z = 400 and z = 31 (log-spaced in a).
    pub steps: usize,
    /// rms density contrast at z = 400.
    pub delta0: f64,
    /// Free-streaming cutoff in units of the fundamental mode.
    pub kfs_modes: f64,
    pub seed: u64,
}

impl Default for MicrohaloRun {
    fn default() -> Self {
        MicrohaloRun {
            n_side: 16,
            n_mesh: 32,
            steps: 24,
            delta0: 0.20,
            kfs_modes: 4.0,
            seed: 20120810,
        }
    }
}

/// One recorded epoch.
pub struct Epoch {
    pub z: f64,
    pub snapshot: Snapshot,
    /// Measured rms density contrast on a coarse mesh.
    pub delta_rms: f64,
    /// Linear-theory prediction D(a)/D(a0) · delta0.
    pub delta_linear: f64,
    /// Binned power spectrum of the snapshot.
    pub power: Vec<greem_cosmo::PowerBin>,
    /// FoF halos (canonical 0.2 linking, ≥ 20 members).
    pub halos: Vec<greem::Halo>,
}

/// rms density contrast on an `m³` mesh via TSC assignment.
///
/// Nearest-cell counting would alias badly here: the IC particles sit
/// exactly on cell boundaries of any power-of-two mesh, so sub-cell
/// displacements flip counts discontinuously. TSC is the assignment the
/// production PM path uses and is exact (uniform) for the unperturbed
/// lattice.
fn delta_rms(bodies: &[greem::Body], m: usize) -> f64 {
    let solver = greem_pm::PmSolver::new(greem_pm::PmParams {
        n_mesh: m,
        r_cut: 3.0 / m as f64,
        deconvolve: false,
    });
    let pos: Vec<greem_math::Vec3> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let rho = solver.assign_density(&pos, &mass);
    let mean = rho.iter().sum::<f64>() / rho.len() as f64;
    (rho.iter().map(|r| ((r - mean) / mean).powi(2)).sum::<f64>() / rho.len() as f64).sqrt()
}

/// Run the simulation, recording the paper's four redshifts.
pub fn simulate(p: &MicrohaloRun) -> Vec<Epoch> {
    let cosmo = Cosmology::wmap7();
    let a0 = 1.0 / 401.0;
    let a_end = 1.0 / 32.0;
    let ics = generate_ics(&IcParams {
        n_per_side: p.n_side,
        a_start: a0,
        spectrum: PowerSpectrum::microhalo(1.0, 2.0 * std::f64::consts::PI * p.kfs_modes),
        cosmology: cosmo,
        seed: p.seed,
        normalize_rms_delta: Some(p.delta0),
    });
    let bodies: Vec<greem::Body> = ics
        .pos
        .iter()
        .zip(&ics.vel)
        .enumerate()
        .map(|(i, (q, v))| greem::Body {
            pos: *q,
            vel: *v,
            mass: ics.mass,
            id: i as u64,
        })
        .collect();
    let cfg = TreePmConfig::standard(p.n_mesh);
    let mut sim = Simulation::new(
        cfg,
        bodies,
        SimulationMode::Cosmological {
            cosmology: cosmo,
            a: a0,
        },
    );
    // The paper's snapshot redshifts.
    let targets = [400.0, 70.0, 40.0, 31.0];
    let mut epochs = Vec::new();
    let record = |sim: &Simulation, z: f64, epochs: &mut Vec<Epoch>| {
        let m = p.n_side.max(4);
        let a = 1.0 / (1.0 + z);
        let lin = p.delta0 * cosmo.growth(a) / cosmo.growth(a0);
        let bodies = sim.bodies();
        let pos: Vec<greem_math::Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        epochs.push(Epoch {
            z,
            snapshot: projected_density(&bodies, 48, 2, &format!("z = {z}")),
            delta_rms: delta_rms(&bodies, m),
            delta_linear: lin,
            power: greem_cosmo::measure_power(&pos, &mass, m),
            halos: greem::find_halos(&bodies, 0.2, 20),
        });
    };
    record(&sim, targets[0], &mut epochs);
    // Log-spaced steps in a.
    let ratio = (a_end / a0).powf(1.0 / p.steps as f64);
    let mut a = a0;
    let mut next_target = 1;
    for _ in 0..p.steps {
        a *= ratio;
        sim.step(a);
        while next_target < targets.len() && 1.0 / a - 1.0 <= targets[next_target] + 0.5 {
            record(&sim, targets[next_target], &mut epochs);
            next_target += 1;
        }
    }
    epochs
}

/// The microhalo run at 8³ particles / 12 steps (`small`) or the
/// default 16³ / 24 steps: four ASCII maps plus the contrast-growth
/// table as text, per-epoch clustering statistics as JSON.
pub fn run(small: bool) -> super::Outcome {
    let p = if small {
        MicrohaloRun {
            n_side: 8,
            n_mesh: 16,
            steps: 12,
            ..Default::default()
        }
    } else {
        MicrohaloRun::default()
    };
    let epochs = simulate(&p);
    let mut s = String::from("=== Fig. 6: microhalo run snapshots =============================\n");
    s.push_str(&format!(
        "{}^3 particles, {}^3 mesh, {} steps, WMAP-7, free-streaming cutoff at mode {}\n\n",
        p.n_side, p.n_mesh, p.steps, p.kfs_modes
    ));
    s.push_str("z        delta_rms   linear-theory   peak contrast   halos(>=20p)   largest\n");
    let mut w = super::summary_writer("fig6", small);
    w.u64(Some("n_side"), p.n_side as u64);
    w.u64(Some("n_mesh"), p.n_mesh as u64);
    w.u64(Some("steps"), p.steps as u64);
    w.begin_arr(Some("epochs"));
    let n_tot = p.n_side.pow(3);
    for e in &epochs {
        let largest = e.halos.first().map(|h| h.members.len()).unwrap_or(0);
        s.push_str(&format!(
            "{:>5.0} {:>11.3} {:>13.3} {:>15.1} {:>14} {:>9}\n",
            e.z,
            e.delta_rms,
            e.delta_linear,
            e.snapshot.peak_contrast(),
            e.halos.len(),
            format!("{largest}/{n_tot}"),
        ));
        w.begin_obj(None);
        w.f64(Some("z"), e.z);
        w.f64(Some("delta_rms"), e.delta_rms);
        w.f64(Some("delta_linear"), e.delta_linear);
        w.f64(Some("peak_contrast"), e.snapshot.peak_contrast());
        w.u64(Some("halos"), e.halos.len() as u64);
        w.u64(Some("largest_halo"), largest as u64);
        w.end_obj();
    }
    w.end_arr();
    // Power-spectrum evolution: the free-streaming cutoff's imprint and
    // nonlinear power transfer to small scales.
    s.push_str("\npower spectrum (mode power per |k| bin):\nk/2pi ");
    for e in &epochs {
        s.push_str(&format!("{:>12}", format!("z={:.0}", e.z)));
    }
    s.push('\n');
    let n_bins = epochs[0].power.len();
    for b in 0..n_bins {
        s.push_str(&format!(
            "{:>5.0} ",
            epochs[0].power[b].k / (2.0 * std::f64::consts::PI)
        ));
        for e in &epochs {
            s.push_str(&format!("{:>12.3e}", e.power[b].power));
        }
        s.push('\n');
    }
    for e in &epochs {
        s.push_str(&format!("\nprojected density, {}:\n", e.snapshot.label));
        s.push_str(&e.snapshot.ascii());
    }
    s.push_str("\n(structure grows from smooth ripples to collapsed clumps, as in fig. 6;\n");
    s.push_str(" nonlinear collapse feeds power into the initially-empty modes above k_fs;\n the FoF census shows the first bound structures condensing out, each\n containing a macroscopic fraction of the particles — the paper's 'more\n than ~100,000 particles per smallest structure' criterion, scaled down.)\n");
    super::Outcome::new(s, w)
}

/// Validation helper used by the integration tests: the contrast must
/// grow ≈ linearly with D(a) while δ ≪ 1 and exceed it once collapsed.
pub fn growth_check(epochs: &[Epoch]) -> (f64, f64) {
    let first = &epochs[0];
    let last = epochs.last().unwrap();
    let measured_growth = last.delta_rms / first.delta_rms;
    let linear_growth = last.delta_linear / first.delta_linear;
    (measured_growth, linear_growth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_microhalo_run_grows_structure() {
        let p = MicrohaloRun {
            n_side: 8,
            n_mesh: 16,
            steps: 10,
            delta0: 0.08,
            kfs_modes: 2.0,
            seed: 7,
        };
        let epochs = simulate(&p);
        assert_eq!(epochs.len(), 4, "must record all four redshifts");
        let (measured, linear) = growth_check(&epochs);
        // Growth happened and is within a factor ~2.5 of linear theory
        // (nonlinearity and the tiny box both push it around).
        assert!(
            measured > 3.0,
            "contrast must grow substantially: {measured}"
        );
        assert!(
            measured / linear > 0.4 && measured / linear < 2.5,
            "growth {measured} vs linear {linear}"
        );
        // Monotone clustering.
        assert!(epochs[3].delta_rms > epochs[1].delta_rms);
    }
}
