//! The multiple-stepsize KDK integrator.
//!
//! "The one simulation step was composed by a cycle of the PM and two
//! cycles of the PP and the domain decomposition" (§III-A): the
//! long-range (PM) force, which varies slowly, kicks once per step at
//! the step boundaries, while the short-range (PP) force kicks on two
//! half-length sub-cycles — the multiple-timestep symplectic scheme of
//! Skeel & Biesiadecki (1994) / Duncan, Levison & Lee (1998):
//!
//! ```text
//! K_PM(Δ/2) · [ K_PP(δ/2) · D(δ) · K_PP(δ/2) ]² · K_PM(Δ/2),   δ = Δ/2
//! ```
//!
//! Two modes share the structure: a **static** periodic box (G = 1,
//! plain time units — the validation playground) and **comoving**
//! cosmological integration, where kicks and drifts use the ΛCDM
//! integrals of `greem-cosmo` and the force is scaled by
//! `G_eff/a = 3Ωm/(8π·a)` (unit box, total mass 1, 1/H0 time units).

use greem_cosmo::Cosmology;
use greem_math::Vec3;

use crate::config::{Boundary, TreePmConfig};
use crate::forces::TreePm;
use crate::integrator::IntegratorKind;
use crate::particle::Body;
use crate::resident::ResidentPp;
use crate::stats::StepBreakdown;
use crate::store::ParticleStore;

/// Time variable of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimulationMode {
    /// Fixed periodic unit box, plain time, G = 1.
    Static,
    /// Comoving coordinates: the state carries the scale factor; steps
    /// advance it. `vel` stores `p = a²·dx/dt` in 1/H0 time units.
    Cosmological { cosmology: Cosmology, a: f64 },
}

/// A periodic-box TreePM simulation (single address space).
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
/// Internally particles live in a Morton-resident [`ParticleStore`]
/// that the PP engine ([`ResidentPp`]) physically re-permutes at every
/// fresh tree build; [`Simulation::bodies`] therefore materialises an
/// AoS copy **sorted by id** so callers see a stable external order.
pub struct Simulation {
    solver: TreePm,
    cfg: TreePmConfig,
    store: ParticleStore,
    engine: ResidentPp,
    mode: SimulationMode,
    /// Cached accelerations, split as the integrator needs them; both
    /// aligned with the store's current row order.
    pp_accel: Vec<Vec3>,
    pm_accel: Vec<Vec3>,
    /// Largest per-particle displacement of the last drift — the margin
    /// budget of the interaction-list cache.
    last_drift: f64,
    steps_taken: u64,
    /// Static-mode integrator (cosmological steps always use the
    /// dedicated ΛCDM leapfrog below).
    integrator: IntegratorKind,
}

impl Simulation {
    /// Create a simulation; forces are evaluated immediately so the
    /// first step starts with a consistent state.
    pub fn new(cfg: TreePmConfig, bodies: Vec<Body>, mode: SimulationMode) -> Self {
        let solver = TreePm::new(cfg);
        let mut sim = Simulation {
            solver,
            cfg,
            store: ParticleStore::from_bodies(&bodies),
            engine: ResidentPp::new(),
            mode,
            pp_accel: Vec::new(),
            pm_accel: Vec::new(),
            last_drift: 0.0,
            steps_taken: 0,
            integrator: IntegratorKind::default(),
        };
        sim.refresh_forces();
        sim
    }

    /// Select the static-mode integrator (ignored by cosmological
    /// steps). Safe mid-run: every integrator leaves cached forces
    /// consistent at step boundaries.
    pub fn set_integrator(&mut self, kind: IntegratorKind) {
        self.integrator = kind;
    }

    /// The active static-mode integrator.
    pub fn integrator(&self) -> IntegratorKind {
        self.integrator
    }

    fn refresh_forces(&mut self) {
        // PP first: the fresh walk Morton-permutes the store (and the
        // held PM accelerations, when present); PM then runs at the
        // permuted positions so both arrays share the store's order.
        self.engine.invalidate_cache();
        let out = self.engine.compute(
            &self.cfg,
            &mut self.store,
            &mut [&mut self.pm_accel],
            false,
            0.0,
        );
        self.pp_accel = out.accel;
        let pos = self.store.positions();
        let mass = self.store.masses();
        let (res, _) = self.solver.compute_pm(&pos, &mass);
        self.pm_accel = res.accel;
    }

    /// The bodies, materialised from the resident store and sorted by
    /// id so the order is stable across internal Morton permutations.
    pub fn bodies(&self) -> Vec<Body> {
        let mut v = self.store.to_bodies();
        v.sort_by_key(|b| b.id);
        v
    }

    /// Apply an in-place edit to every body (e.g. to inject
    /// perturbations in tests); call [`Simulation::reset_forces`]
    /// afterwards.
    pub fn edit_bodies(&mut self, mut f: impl FnMut(&mut Body)) {
        for i in 0..self.store.len() {
            let mut b = self.store.body(i);
            f(&mut b);
            self.store.set(i, b);
        }
    }

    /// Recompute cached forces after external state changes.
    pub fn reset_forces(&mut self) {
        self.refresh_forces();
    }

    /// The PP engine's auto-tuner state, if auto-tuning has run:
    /// `(group_size, converged)`.
    pub fn tuner_state(&self) -> Option<(usize, bool)> {
        self.engine.tuner_state()
    }

    /// The integration mode (current scale factor for cosmological
    /// runs).
    pub fn mode(&self) -> SimulationMode {
        self.mode
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// The underlying force solver.
    pub fn solver(&self) -> &TreePm {
        &self.solver
    }

    /// The configuration.
    pub fn config(&self) -> &TreePmConfig {
        &self.cfg
    }

    /// The resident particle store (current Morton row order; use
    /// [`Simulation::bodies`] for an id-stable view).
    pub fn store(&self) -> &ParticleStore {
        &self.store
    }

    /// Kinetic + potential energy (static mode; diagnostics).
    pub fn energy(&self) -> f64 {
        let kinetic: f64 = (0..self.store.len())
            .map(|i| 0.5 * self.store.mass_column()[i] * self.store.vel(i).norm2())
            .sum();
        let pos = self.store.positions();
        let mass = self.store.masses();
        kinetic + self.solver.potential_energy(&pos, &mass)
    }

    /// Total momentum.
    pub fn momentum(&self) -> Vec3 {
        (0..self.store.len())
            .map(|i| self.store.vel(i) * self.store.mass_column()[i])
            .sum()
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
        let SimulationMode::Cosmological { cosmology, a } = self.mode else {
            return None;
        };
        let t: f64 = (0..self.store.len())
            .map(|i| 0.5 * self.store.mass_column()[i] * (self.store.vel(i) / a).norm2())
            .sum();
        let g_eff = 3.0 * cosmology.omega_m / (8.0 * std::f64::consts::PI);
        let pos = self.store.positions();
        let mass = self.store.masses();
        let u_box = self.solver.potential_energy(&pos, &mass);
        Some((t, g_eff / a * u_box))
    }

    /// One full TreePM step of size `dt` (static mode) or from the
    /// current `a` to `a_next` (cosmological mode, pass the target scale
    /// factor as `dt`). Returns the step's cost breakdown.
    pub fn step(&mut self, dt: f64) -> StepBreakdown {
        let mut bd = StepBreakdown::default();
        match self.mode {
            SimulationMode::Static => {
                self.integrator
                    .as_integrator()
                    .step_static(self, dt, &mut bd);
            }
            SimulationMode::Cosmological { cosmology, a } => {
                let a_next = dt;
                assert!(
                    a_next > a,
                    "cosmological step must advance a (got {a} -> {a_next})"
                );
                self.step_cosmo(&cosmology, a, a_next, &mut bd);
                self.mode = SimulationMode::Cosmological {
                    cosmology,
                    a: a_next,
                };
            }
        }
        self.steps_taken += 1;
        bd
    }

    /// Cosmological step from `a0` to `a1` with ΛCDM kick/drift factors
    /// and force scaling `G_eff/a`.
    fn step_cosmo(&mut self, cosmo: &Cosmology, a0: f64, a1: f64, bd: &mut StepBreakdown) {
        let g_eff = 3.0 * cosmo.omega_m / (8.0 * std::f64::consts::PI);
        // Sub-step boundaries in a: split the step at the midpoint of
        // cosmic *time* ≈ geometric mean of a (EdS-like at high z); the
        // arithmetic midpoint is fine for the short steps used here.
        let am = 0.5 * (a0 + a1);
        // Force-kick weights: ∫ dt/a over the relevant half-intervals,
        // scaled by G_eff (the 1/a of the force and the dt of the kick
        // combine into the kick integral).
        let kd_whole = cosmo.kick_drift(a0, a1);
        let kd_first = cosmo.kick_drift(a0, am);
        let kd_second = cosmo.kick_drift(am, a1);
        // PM half kicks use half the whole-step kick integral.
        let pm_half = 0.5 * kd_whole.kick * g_eff;
        self.kick_pm(pm_half);
        // First PP sub-cycle (fresh walk, records lists).
        self.kick_pp(0.5 * kd_first.kick * g_eff);
        self.drift(kd_first.drift, bd);
        self.recompute_pp(false, bd);
        self.kick_pp(0.5 * kd_first.kick * g_eff);
        // Second PP sub-cycle (replays the recorded lists when valid).
        self.kick_pp(0.5 * kd_second.kick * g_eff);
        self.drift(kd_second.drift, bd);
        self.recompute_pp(true, bd);
        self.kick_pp(0.5 * kd_second.kick * g_eff);
        // Closing PM half kick at the new positions.
        self.recompute_pm(bd);
        self.kick_pm(pm_half);
    }

    pub(crate) fn kick_pm(&mut self, w: f64) {
        self.store.kick(&self.pm_accel, w);
    }

    pub(crate) fn kick_pp(&mut self, w: f64) {
        self.store.kick(&self.pp_accel, w);
    }

    /// Drift positions by `w`: wrapped into the torus under periodic
    /// boundaries, plain open-space translation under isolated ones.
    pub(crate) fn drift(&mut self, w: f64, bd: &mut StepBreakdown) {
        let t0 = std::time::Instant::now();
        self.last_drift = match self.cfg.boundary {
            Boundary::Periodic => self.store.drift_wrap(w),
            Boundary::Isolated => self.store.drift_free(w),
        };
        bd.dd_position_update += t0.elapsed().as_secs_f64();
    }

    pub(crate) fn recompute_pp(&mut self, try_replay: bool, bd: &mut StepBreakdown) {
        let out = self.engine.compute(
            &self.cfg,
            &mut self.store,
            &mut [&mut self.pm_accel],
            try_replay,
            self.last_drift,
        );
        self.pp_accel = out.accel;
        bd.pp_local_tree += out.times.tree_build * 0.5;
        bd.pp_tree_construction += out.times.tree_build * 0.5;
        bd.pp_tree_traversal += out.times.traversal;
        bd.pp_force_calculation += out.times.force;
        bd.walk.merge(&out.walk);
        bd.pp_list_replays += out.replayed as u64;
        bd.pp_group_size = out.group_size as f64;
    }

    pub(crate) fn recompute_pm(&mut self, bd: &mut StepBreakdown) {
        let pos = self.store.positions();
        let mass = self.store.masses();
        let (res, times) = self.solver.compute_pm(&pos, &mass);
        self.pm_accel = res.accel;
        bd.pm.accumulate(&times);
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
        assert!(bd.pm.total() > 0.0);
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

    #[test]
    fn second_subcycle_replays_cached_lists() {
        let base = TreePmConfig::standard(16);
        let bodies = grid_bodies(5, 0.4, 9);

        let mut reuse = Simulation::new(base, bodies.clone(), SimulationMode::Static);
        let bd_r = reuse.step(1e-4);
        assert_eq!(
            bd_r.pp_list_replays, 1,
            "the second PP subcycle must replay the recorded lists"
        );

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
        // The replayed subcycle skips the tree walk entirely, so the
        // walk-once step visits well under the walk-twice node count
        // (ideally half; allow slack for the shared initial walk).
        assert!(
            2 * bd_r.walk.visited_nodes < bd_f.walk.visited_nodes + bd_f.walk.visited_nodes / 2,
            "replay did not cut the walk: {} vs {}",
            bd_r.walk.visited_nodes,
            bd_f.walk.visited_nodes
        );
        // Replayed trajectories stay within the documented monopole
        // replay tolerance of the walk-twice trajectory.
        for (a, b) in reuse.bodies().iter().zip(&fresh.bodies()) {
            assert_eq!(a.id, b.id);
            assert!(
                greem_math::min_image_vec(a.pos, b.pos).norm() < 1e-9,
                "replayed trajectory diverged for body {}",
                a.id
            );
        }
    }

    #[test]
    fn autotuner_converges_on_modeled_cost() {
        let cfg = TreePmConfig {
            autotune: true,
            // Deterministic objective: modeled per-interaction cost
            // instead of wall time.
            modeled_pp_cost: Some(5e-9),
            ..TreePmConfig::standard(16)
        };
        let mut sim = Simulation::new(cfg, grid_bodies(6, 0.4, 11), SimulationMode::Static);
        for _ in 0..30 {
            sim.step(1e-4);
        }
        let (gs, converged) = sim.tuner_state().expect("autotune on => tuner active");
        assert!(converged, "tuner still probing after 30 steps (gs={gs})");
        assert!(
            (8..=512).contains(&gs),
            "converged group size {gs} outside the search window"
        );
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
