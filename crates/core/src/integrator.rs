//! The multiple-stepsize KDK step's schedule, once for every rank
//! count and both time variables. "The one simulation
//! step was composed by a cycle of the PM and two cycles of the PP and
//! the domain decomposition" (§III-A): the slowly varying long-range
//! force kicks at the step's ends, the short-range one on two
//! half-length sub-cycles — the multiple-timestep scheme of Skeel &
//! Biesiadecki (1994):
//!
//! ```text
//! K_PM(Δ/2) · [ K_PP(δ/2) · D(δ) · K_PP(δ/2) ]² · K_PM(Δ/2),  δ = Δ/2
//! ```
//!
//! `schedule` is pure arithmetic: the step's cycle (a PM half-kick
//! weight, two PP sub-cycles of a kick and a drift weight) and the mode
//! after it. The one loop that applies it to a rank's store and calls
//! its PP and PM cycles is the rank driver's
//! ([`crate::ParallelTreePm`]), of which [`crate::Simulation`] is the
//! one-rank case.
//! A static step is one leapfrog cycle of `dt`; a cosmological step is
//! one weighted by the ΛCDM kick/drift integrals of `greem-cosmo` times
//! `G_eff = 3Ωm/(8π)`.

use greem_cosmo::KickDrift;

use crate::simulation::SimulationMode;

/// One PP sub-cycle: the kick weight on each side of the drift.
#[derive(Clone, Copy)]
pub(crate) struct SubCycle {
    pub(crate) kick: f64,
    pub(crate) drift: f64,
}

/// One KDK cycle: the PM half-kick weight and the two PP sub-cycles.
pub(crate) struct Cycle {
    pub(crate) pm: f64,
    pub(crate) pp: [SubCycle; 2],
}

/// A static leapfrog cycle of `dt`.
fn leapfrog(dt: f64) -> Cycle {
    let delta = 0.5 * dt;
    let sub = SubCycle {
        kick: 0.5 * delta,
        drift: delta,
    };
    Cycle {
        pm: 0.5 * dt,
        pp: [sub; 2],
    }
}

/// The cycle of one step and the mode after it. `dt` is the timestep
/// in static mode and the target scale factor in cosmological mode,
/// where the step must advance `a`; its PP sub-cycles split the step
/// at the arithmetic midpoint of `a`.
pub(crate) fn schedule(mode: SimulationMode, dt: f64) -> (Cycle, SimulationMode) {
    let SimulationMode::Cosmological { cosmology, a } = mode else {
        return (leapfrog(dt), mode);
    };
    let a_next = dt;
    assert!(
        a_next > a,
        "cosmological step must advance a (got {a} -> {a_next})"
    );
    // ∫dt/a over each interval times G_eff: the force's 1/a and the
    // kick's dt combine into the kick integral.
    let g_eff = 3.0 * cosmology.omega_m / (8.0 * std::f64::consts::PI);
    let am = 0.5 * (a + a_next);
    let sub = |kd: KickDrift| SubCycle {
        kick: 0.5 * kd.kick * g_eff,
        drift: kd.drift,
    };
    let cycle = Cycle {
        pm: 0.5 * cosmology.kick_drift(a, a_next).kick * g_eff,
        pp: [
            sub(cosmology.kick_drift(a, am)),
            sub(cosmology.kick_drift(am, a_next)),
        ],
    };
    let after = SimulationMode::Cosmological {
        cosmology,
        a: a_next,
    };
    (cycle, after)
}

#[cfg(test)]
mod tests {
    use crate::config::TreePmConfig;
    use crate::particle::Body;
    use crate::simulation::{Simulation, SimulationMode};

    /// The periodic leapfrog must conserve energy over ~50 small steps.
    /// Documented bound: 1e-3 for cold random ICs with the standard
    /// (hard, ε = r_cut/30) softening — close encounters, not the
    /// integrator, set the floor here (observed ≈ 4e-4).
    #[test]
    fn periodic_leapfrog_conserves_energy_over_50_steps() {
        let n = 128;
        let bodies = greem_math::testutil::rand_positions(n, 42)
            .into_iter()
            .enumerate()
            .map(|(i, p)| Body::at_rest(p, 1.0 / n as f64, i as u64))
            .collect();
        let mut sim = Simulation::new(TreePmConfig::standard(16), bodies, SimulationMode::Static);
        let e0 = sim.energy();
        for _ in 0..50 {
            sim.step(1e-4);
        }
        let drift = ((sim.energy() - e0) / e0).abs();
        assert!(drift < 1e-3, "leapfrog |ΔE/E₀| = {drift} over 50 steps");
    }
}
