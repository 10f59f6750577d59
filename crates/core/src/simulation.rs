//! The one-rank facade of the rank driver.
//!
//! [`Simulation`] is a [`ParallelTreePm`] in its one-rank form, which
//! owns the whole box: the paper's multiple-stepsize KDK step (see
//! [`crate::integrator`]) on [`crate::TreePm`]'s serial PM solver and a
//! resident PP engine that replays its recorded interaction lists on
//! every PP sub-cycle, across steps, while the drift since the
//! recording stays inside their skin — with no `mpisim` context to
//! pass. Two time variables share the step: a
//! **static** box (G = 1, plain time units — the validation playground;
//! periodic or isolated) and **comoving**
//! cosmological integration, where kicks and drifts use the ΛCDM
//! integrals of `greem-cosmo` and the force is scaled by
//! `G_eff/a = 3Ωm/(8π·a)` (unit box, total mass 1, 1/H0 time units).

use greem_cosmo::Cosmology;
use greem_math::Vec3;

use crate::config::TreePmConfig;
use crate::parallel::{Mesh, ParallelTreePm};
use crate::particle::Body;
use crate::stats::StepBreakdown;

/// Time variable of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimulationMode {
    /// Fixed periodic unit box, plain time, G = 1.
    Static,
    /// Comoving coordinates: the state carries the scale factor; steps
    /// advance it. `vel` stores `p = a²·dx/dt` in 1/H0 time units.
    Cosmological { cosmology: Cosmology, a: f64 },
}

/// A TreePM simulation in one address space: the rank driver at one
/// rank.
///
/// ```
/// use greem::{Body, Simulation, SimulationMode, TreePmConfig};
/// use greem_math::Vec3;
///
/// let bodies = vec![
///     Body::at_rest(Vec3::new(0.4, 0.5, 0.5), 0.5, 0),
///     Body::at_rest(Vec3::new(0.6, 0.5, 0.5), 0.5, 1),
/// ];
/// let mut sim = Simulation::new(TreePmConfig::standard(16), bodies, SimulationMode::Static);
/// let breakdown = sim.step(1e-3); // 1 PM + 2 PP cycles, like the paper
/// assert!(breakdown.walk.interactions > 0);
/// // The pair fell toward each other.
/// assert!(sim.bodies()[0].vel.x > 0.0);
/// ```
///
/// Internally particles live in a Morton-resident [`crate::ParticleStore`]
/// that the PP engine ([`crate::ResidentPp`]) physically re-permutes at
/// every fresh tree build; [`Simulation::bodies`] therefore
/// materialises an AoS copy **sorted by id** so callers see a stable
/// external order.
pub struct Simulation {
    rank: ParallelTreePm,
}

impl Simulation {
    /// Create a simulation; forces are evaluated immediately so the
    /// first step starts with a consistent state.
    pub fn new(cfg: TreePmConfig, bodies: Vec<Body>, mode: SimulationMode) -> Self {
        Simulation {
            rank: ParallelTreePm::whole_box(cfg, &bodies, mode),
        }
    }

    /// The bodies, materialised from the resident store and sorted by
    /// id so the order is stable across internal Morton permutations.
    pub fn bodies(&self) -> Vec<Body> {
        let mut v = self.rank.bodies();
        v.sort_by_key(|b| b.id);
        v
    }

    /// Apply an in-place edit to every body (e.g. to inject
    /// perturbations in tests); call [`Simulation::reset_forces`]
    /// afterwards.
    pub fn edit_bodies(&mut self, mut f: impl FnMut(&mut Body)) {
        let store = &mut self.rank.store;
        for i in 0..store.len() {
            let mut b = store.body(i);
            f(&mut b);
            store.set(i, b);
        }
    }

    /// Recompute cached forces after external state changes.
    pub fn reset_forces(&mut self) {
        self.rank.refresh(None);
    }

    /// The integration mode (current scale factor for cosmological
    /// runs).
    pub fn mode(&self) -> SimulationMode {
        self.rank.mode()
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.rank.steps_taken()
    }

    /// The configuration.
    pub fn config(&self) -> &TreePmConfig {
        &self.rank.cfg
    }

    /// The box's potential energy at the current positions (G = 1).
    fn potential_energy(&self) -> f64 {
        let Mesh::WholeBox(solver) = &self.rank.mesh else {
            unreachable!("a Simulation's one rank owns the whole box");
        };
        let s = &self.rank.store;
        solver.potential_energy(&s.positions(), &s.masses())
    }

    /// Kinetic + potential energy (static mode; diagnostics).
    pub fn energy(&self) -> f64 {
        let s = &self.rank.store;
        let kinetic: f64 = (0..s.len())
            .map(|i| 0.5 * s.mass_column()[i] * s.vel(i).norm2())
            .sum();
        kinetic + self.potential_energy()
    }

    /// Total momentum.
    pub fn momentum(&self) -> Vec3 {
        let s = &self.rank.store;
        (0..s.len()).map(|i| s.vel(i) * s.mass_column()[i]).sum()
    }

    /// The comoving energy pair (T, W) of the Layzer-Irvine equation,
    /// for cosmological runs (`None` in static mode):
    ///
    /// * `T = Σ ½·m·(p/a)²` — peculiar kinetic energy (p = a²ẋ),
    /// * `W = (G_eff/a)·U_box` — peculiar potential energy, with
    ///   `U_box` the unit-box potential energy (G = 1) and
    ///   `G_eff = 3Ωm/(8π)` the comoving coupling.
    ///
    /// The continuum relation `d[a(T+W)]/da = −T` is the standard
    /// energy-conservation check of cosmological simulations
    /// (Layzer 1963; Irvine 1961); the integration tests verify it over
    /// a run of this integrator.
    pub fn layzer_irvine_energies(&self) -> Option<(f64, f64)> {
        let SimulationMode::Cosmological { cosmology, a } = self.mode() else {
            return None;
        };
        let s = &self.rank.store;
        let t: f64 = (0..s.len())
            .map(|i| 0.5 * s.mass_column()[i] * (s.vel(i) / a).norm2())
            .sum();
        let g_eff = 3.0 * cosmology.omega_m / (8.0 * std::f64::consts::PI);
        Some((t, g_eff / a * self.potential_energy()))
    }

    /// One full TreePM step of size `dt` (static mode) or from the
    /// current `a` to `a_next` (cosmological mode, pass the target scale
    /// factor as `dt`). Returns the step's cost breakdown.
    pub fn step(&mut self, dt: f64) -> StepBreakdown {
        self.rank.advance(None, dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greem_math::wrap01;

    fn grid_bodies(n_side: usize, jitter: f64, seed: u64) -> Vec<Body> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let spacing = 1.0 / n_side as f64;
        let mut out = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                for k in 0..n_side {
                    let p = Vec3::new(
                        (i as f64 + 0.5 + jitter * next()) * spacing,
                        (j as f64 + 0.5 + jitter * next()) * spacing,
                        (k as f64 + 0.5 + jitter * next()) * spacing,
                    );
                    out.push(Body::at_rest(
                        wrap01(p),
                        1.0 / (n_side * n_side * n_side) as f64,
                        out.len() as u64,
                    ));
                }
            }
        }
        out
    }

    /// Nothing wraps an isolated drift, so a fast body can leave the
    /// unit cube the tree is rooted on. The Morton sort refuses it, in
    /// release builds too: clamped into a boundary cell that does not
    /// contain it, it would let the walk prune partners inside `r_cut`.
    #[test]
    #[should_panic(expected = "particle outside root box: Vec3 { x: 1.0")]
    fn isolated_body_leaving_the_box_fails_loudly() {
        let mut bodies = grid_bodies(4, 0.1, 5);
        bodies[0].pos = Vec3::new(0.9, 0.5, 0.5);
        bodies[0].vel = Vec3::new(2.0, 0.0, 0.0);
        let mut sim = Simulation::new(TreePmConfig::isolated(16), bodies, SimulationMode::Static);
        sim.step(0.2);
    }

    #[test]
    fn momentum_conserved_over_steps() {
        let cfg = TreePmConfig::standard(16);
        let mut sim = Simulation::new(cfg, grid_bodies(6, 0.4, 3), SimulationMode::Static);
        let p0 = sim.momentum();
        for _ in 0..3 {
            sim.step(1e-3);
        }
        let p1 = sim.momentum();
        // Accelerations scale ~1/d² with d ~ 1/6: compare against the
        // typical impulse magnitude.
        let impulse_scale: f64 = sim
            .bodies()
            .iter()
            .map(|b| b.vel.norm() * b.mass)
            .sum::<f64>()
            .max(1e-30);
        assert!(
            (p1 - p0).norm() < 1e-3 * impulse_scale,
            "momentum drift {:?} (scale {impulse_scale})",
            p1 - p0
        );
    }

    #[test]
    fn static_step_counts_and_breakdown() {
        let cfg = TreePmConfig::standard(16);
        let mut sim = Simulation::new(cfg, grid_bodies(4, 0.3, 5), SimulationMode::Static);
        let bd = sim.step(1e-3);
        assert_eq!(sim.steps_taken(), 1);
        // Two PP cycles per step.
        assert!(bd.walk.n_groups > 0);
        assert!(bd.pp_force_calculation > 0.0);
        assert!(bd.rows().section("pm") > 0.0);
        assert!(bd.total() > 0.0);
        assert!(bd.dd_position_update > 0.0);
    }

    #[test]
    fn uniform_lattice_stays_put() {
        // A perfect lattice is an equilibrium: after a step nothing
        // should move appreciably.
        let cfg = TreePmConfig::standard(16);
        let bodies = grid_bodies(4, 0.0, 0);
        let before: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mut sim = Simulation::new(cfg, bodies, SimulationMode::Static);
        sim.step(1e-2);
        for (b, p0) in sim.bodies().iter().zip(&before) {
            assert!(
                greem_math::min_image_vec(b.pos, *p0).norm() < 1e-6,
                "lattice moved: {:?} -> {:?}",
                p0,
                b.pos
            );
        }
    }

    /// Slow bodies keep the lists the constructor's walk recorded:
    /// both sub-cycles of a step replay them, no node is visited, and
    /// the trajectory stays within the replay tolerance of the
    /// walk-every-time one.
    #[test]
    fn sub_cycles_replay_recorded_lists() {
        let base = TreePmConfig::standard(16);
        let bodies = grid_bodies(5, 0.4, 9);

        let mut reuse = Simulation::new(base, bodies.clone(), SimulationMode::Static);
        let bd_r = reuse.step(1e-4);
        assert_eq!(bd_r.pp_list_replays, 2, "both PP sub-cycles must replay");
        assert_eq!(bd_r.walk.visited_nodes, 0, "a replay walks no tree");

        let mut fresh = Simulation::new(
            TreePmConfig {
                list_reuse: false,
                ..base
            },
            bodies,
            SimulationMode::Static,
        );
        let bd_f = fresh.step(1e-4);
        assert_eq!(bd_f.pp_list_replays, 0);
        assert!(bd_f.walk.visited_nodes > 0);
        for (a, b) in reuse.bodies().iter().zip(&fresh.bodies()) {
            assert_eq!(a.id, b.id);
            assert!(
                greem_math::min_image_vec(a.pos, b.pos).norm() < 1e-9,
                "replayed trajectory diverged for body {}",
                a.id
            );
        }
    }

    /// Replay is the validity check's call alone, on any sub-cycle: a
    /// body moved past half the skin before a step makes that step's
    /// first sub-cycle walk, and its second replays the new lists.
    #[test]
    fn a_body_past_half_the_skin_walks_on_a_first_sub_cycle() {
        let cfg = TreePmConfig::standard(16);
        let mut sim = Simulation::new(cfg, grid_bodies(5, 0.4, 9), SimulationMode::Static);
        assert_eq!(sim.step(1e-4).pp_list_replays, 2);
        let push = Vec3::new(0.6 * crate::resident::SKIN * cfg.r_cut, 0.0, 0.0);
        sim.edit_bodies(|b| {
            if b.id == 7 {
                b.pos = wrap01(b.pos + push);
            }
        });
        let bd = sim.step(1e-4);
        assert_eq!(bd.pp_list_replays, 1);
        assert!(bd.walk.visited_nodes > 0);
        assert_eq!(sim.step(1e-4).pp_list_replays, 2);
    }

    #[test]
    fn cosmological_step_advances_scale_factor() {
        let cfg = TreePmConfig::standard(16);
        let cosmo = Cosmology::wmap7();
        let a0 = 1.0 / 401.0;
        let mut sim = Simulation::new(
            cfg,
            grid_bodies(4, 0.2, 7),
            SimulationMode::Cosmological {
                cosmology: cosmo,
                a: a0,
            },
        );
        let a1 = a0 * 1.05;
        sim.step(a1);
        match sim.mode() {
            SimulationMode::Cosmological { a, .. } => assert_eq!(a, a1),
            _ => panic!("mode changed"),
        }
    }

    #[test]
    #[should_panic]
    fn cosmological_step_backwards_rejected() {
        let cfg = TreePmConfig::standard(16);
        let cosmo = Cosmology::wmap7();
        let mut sim = Simulation::new(
            cfg,
            grid_bodies(2, 0.1, 9),
            SimulationMode::Cosmological {
                cosmology: cosmo,
                a: 0.01,
            },
        );
        sim.step(0.009);
    }
}
