//! The multiple-stepsize KDK step's schedule, once for every rank
//! count, both time variables and both integrators. "The one simulation
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
//! `schedule` is pure arithmetic: the step's cycles (a PM half-kick
//! weight, two PP sub-cycles of a kick and a drift weight) and the mode
//! after it. The one loop that applies them to a rank's store and
//! calls its PP and PM cycles is the rank driver's
//! ([`crate::ParallelTreePm`]), of which [`crate::Simulation`] is the
//! one-rank case.
//! Static runs pick the integrator: the paper's leapfrog is one cycle of
//! `dt`, Yoshida's (1990) 4th-order "triple jump" three, of `w1·dt`,
//! `w0·dt`, `w1·dt` — its `dt⁴` energy error lets a `greem-astro`
//! collapse run hold `|ΔE/E₀| ≤ 1e-3`. A cosmological step is one
//! leapfrog cycle weighted by the ΛCDM kick/drift integrals of
//! `greem-cosmo` times `G_eff = 3Ωm/(8π)`.

use greem_cosmo::KickDrift;

use crate::simulation::SimulationMode;

/// `w1` coefficient of the triple jump, `1/(2 − 2^{1/3})`.
pub const YOSHIDA4_W1: f64 = 1.3512071919596576;
/// `w0` coefficient of the triple jump, `1 − 2·w1 = −2^{1/3}/(2 − 2^{1/3})`:
/// the backward substep that cancels the leapfrog's 3rd-order error.
pub const YOSHIDA4_W0: f64 = 1.0 - 2.0 * YOSHIDA4_W1;

/// Static-mode integrator of a [`crate::Simulation`] (cosmological
/// steps are always leapfrog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegratorKind {
    /// The paper's 2nd-order multiple-stepsize KDK leapfrog (default).
    #[default]
    Leapfrog,
    /// Yoshida's 4th-order composition of three leapfrog cycles.
    Yoshida4,
}

impl IntegratorKind {
    /// Display name (CLI values, logs, baselines).
    pub fn name(self) -> &'static str {
        match self {
            IntegratorKind::Leapfrog => "leapfrog",
            IntegratorKind::Yoshida4 => "yoshida4",
        }
    }

    /// Parse a CLI/job value (`"leapfrog"` / `"yoshida4"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "leapfrog" => Some(IntegratorKind::Leapfrog),
            "yoshida4" => Some(IntegratorKind::Yoshida4),
            _ => None,
        }
    }
}

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

/// The cycles of one step and the mode after it. `dt` is the timestep
/// in static mode and the target scale factor in cosmological mode,
/// where the step must advance `a`; its PP sub-cycles split the step
/// at the arithmetic midpoint of `a`.
pub(crate) fn schedule(
    mode: SimulationMode,
    kind: IntegratorKind,
    dt: f64,
) -> (Vec<Cycle>, SimulationMode) {
    let SimulationMode::Cosmological { cosmology, a } = mode else {
        let cycles = match kind {
            IntegratorKind::Leapfrog => vec![leapfrog(dt)],
            IntegratorKind::Yoshida4 => [YOSHIDA4_W1, YOSHIDA4_W0, YOSHIDA4_W1]
                .map(|w| leapfrog(w * dt))
                .into(),
        };
        return (cycles, mode);
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
    (vec![cycle], after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreePmConfig;
    use crate::particle::Body;
    use crate::simulation::{Simulation, SimulationMode};
    use greem_math::Vec3;

    #[test]
    fn yoshida_coefficients_satisfy_order_conditions() {
        let two_pow = 2f64.powf(1.0 / 3.0);
        assert!((YOSHIDA4_W1 - 1.0 / (2.0 - two_pow)).abs() < 1e-15);
        assert!((YOSHIDA4_W0 + two_pow / (2.0 - two_pow)).abs() < 1e-14);
        // Consistency: the substeps tile the step exactly...
        assert!((2.0 * YOSHIDA4_W1 + YOSHIDA4_W0 - 1.0).abs() < 1e-15);
        // ...and the 3rd-order error cancels: 2·w1³ + w0³ = 0.
        assert!(
            (2.0 * YOSHIDA4_W1.powi(3) + YOSHIDA4_W0.powi(3)).abs() < 1e-13,
            "triple-jump cancellation"
        );
        // The middle substep runs backward.
        assert!(std::hint::black_box(YOSHIDA4_W0) < 0.0);
    }

    #[test]
    fn kind_parses_and_names_roundtrip() {
        for kind in [IntegratorKind::Leapfrog, IntegratorKind::Yoshida4] {
            assert_eq!(IntegratorKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(IntegratorKind::parse("rk4"), None);
        assert_eq!(IntegratorKind::default(), IntegratorKind::Leapfrog);
    }

    /// Deterministic clustered ICs for the energy-drift tests.
    fn test_bodies(n: usize) -> Vec<Body> {
        greem_math::testutil::rand_positions(n, 42)
            .into_iter()
            .enumerate()
            .map(|(i, p)| Body::at_rest(p, 1.0 / n as f64, i as u64))
            .collect()
    }

    fn energy_drift(cfg: TreePmConfig, kind: IntegratorKind, dt: f64, steps: usize) -> f64 {
        let mut sim = Simulation::new(cfg, test_bodies(128), SimulationMode::Static);
        sim.set_integrator(kind);
        let e0 = sim.energy();
        for _ in 0..steps {
            sim.step(dt);
        }
        ((sim.energy() - e0) / e0).abs()
    }

    /// The periodic leapfrog must conserve energy over ~50 small steps.
    /// Documented bound: 1e-3 for cold random ICs with the standard
    /// (hard, ε = r_cut/30) softening — close encounters, not the
    /// integrator, set the floor here (observed ≈ 4e-4).
    #[test]
    fn periodic_leapfrog_conserves_energy_over_50_steps() {
        let drift = energy_drift(
            TreePmConfig::standard(16),
            IntegratorKind::Leapfrog,
            1e-4,
            50,
        );
        assert!(drift < 1e-3, "leapfrog |ΔE/E₀| = {drift} over 50 steps");
    }

    /// Energy drift of a tight two-body circular orbit (separation well
    /// inside r_cut, where the PP potential is the exact antiderivative
    /// of the PP force and the PM share of the interaction is ~1 %), so
    /// the measured drift is integrator truncation, not mesh error.
    fn orbit_drift(kind: IntegratorKind, steps_per_period: usize, periods: f64, vfrac: f64) -> f64 {
        let cfg = TreePmConfig {
            eps: 0.0,
            ..TreePmConfig::standard(16)
        };
        let d = 0.02; // ξ = 2d/r_cut ≈ 0.21: 98.5 % of the force is PP
        let m = 0.5;
        // Circular speed for the softening-free cutoff force
        // F = m²·g(2d/r_cut)/d² acting on each mass at radius d/2.
        let g = greem_math::g_p3m(2.0 * d / cfg.r_cut);
        // Relative circular speed: m·v_orb²/(d/2) = m²g/d² with
        // v_rel = 2·v_orb gives v_rel = √(2·m·g/d).
        let v = (2.0 * m * g / d).sqrt() * vfrac;
        let bodies = vec![
            Body {
                pos: Vec3::new(0.5 - d / 2.0, 0.5, 0.5),
                vel: Vec3::new(0.0, -v / 2.0, 0.0),
                mass: m,
                id: 0,
            },
            Body {
                pos: Vec3::new(0.5 + d / 2.0, 0.5, 0.5),
                vel: Vec3::new(0.0, v / 2.0, 0.0),
                mass: m,
                id: 1,
            },
        ];
        let period = 2.0 * std::f64::consts::PI * d / v;
        let dt = period / steps_per_period as f64;
        let steps = (periods * steps_per_period as f64) as usize;
        let mut sim = Simulation::new(cfg, bodies, SimulationMode::Static);
        sim.set_integrator(kind);
        let e0 = sim.energy();
        let mut worst = 0.0f64;
        for _ in 0..steps {
            sim.step(dt);
            worst = worst.max(((sim.energy() - e0) / e0).abs());
        }
        worst
    }

    #[test]
    fn yoshida_beats_leapfrog_on_eccentric_binary() {
        // An eccentric binary (v = 0.8·v_circ) at 50 steps per orbit:
        // the pericenter passage is where a 2nd-order scheme's energy
        // error spikes, and where the 4th-order composition earns its
        // 3× force cost. (A *circular* orbit would not discriminate —
        // leapfrog's energy error on circular orbits sits below the
        // PM-share measurement floor of ~3e-4.) Deterministic setup;
        // observed ratio ≈ 4, asserted margin 3×.
        let lf = orbit_drift(IntegratorKind::Leapfrog, 50, 2.0, 0.8);
        let y4 = orbit_drift(IntegratorKind::Yoshida4, 50, 2.0, 0.8);
        assert!(lf < 5e-2, "leapfrog drift {lf} out of expected regime");
        assert!(
            y4 < lf / 3.0,
            "yoshida4 drift {y4} not clearly below leapfrog {lf}"
        );
    }

    #[test]
    fn yoshida_step_counts_three_cycles() {
        let mut sim = Simulation::new(
            TreePmConfig::standard(16),
            test_bodies(64),
            SimulationMode::Static,
        );
        sim.set_integrator(IntegratorKind::Yoshida4);
        let bd = sim.step(1e-3);
        assert_eq!(sim.steps_taken(), 1);
        // 3 KDK cycles × 2 PP sub-cycles; the replayed ones don't
        // re-walk, but every cycle contributes groups to the breakdown.
        assert!(bd.walk.n_groups > 0);
        assert!(bd.rows().section("pm") > 0.0);
    }
}
