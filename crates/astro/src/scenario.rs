//! The galaxy-collapse scenario engine.
//!
//! Drives a [`Simulation`] under **isolated** boundary conditions
//! ([`greem::Boundary::Isolated`] → James'-method open-space PM) through
//! a cold Plummer collapse, with a black-hole event pass after every
//! step:
//!
//! * **captures** — a star or dark-matter particle inside
//!   `capture_radius` of a BH is absorbed by the nearest one;
//! * **mergers** — BHs linked within `merge_radius` (friends-of-friends
//!   over the BH subset) coalesce into the lowest-id member.
//!
//! Both conserve mass and momentum exactly; the orbital energy a merger
//! dissipates is booked into `energy_offset` so the conservation
//! diagnostic [`GalaxyCollapse::energy_drift`] keeps measuring the
//! *integrator*, not the (physically lossy) merger model:
//!
//! ```text
//! drift = |(E(t) − offset(t) − E₀)| / |E₀|
//! ```
//!
//! The engine also records the virial ratio 2T/|W| after every step —
//! the collapse signature is a rise from the sub-virial cold start
//! through peak infall, then relaxation toward ~1.

use greem::{
    projected_density, species_of_id, Body, IntegratorKind, Simulation, SimulationMode, Snapshot,
    StepBreakdown, TreePmConfig,
};
use greem_math::{h_p3m_fast, Vec3};

use crate::checkpoint::AstroCheckpoint;
use crate::plummer::{galaxy_ics, GalaxyParams, N_SPECIES, SPECIES_BH};

/// Full configuration of a galaxy-collapse run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GalaxyConfig {
    /// The initial-condition realisation.
    pub galaxy: GalaxyParams,
    /// PM mesh cells per side (isolated solver pads to 2×).
    pub n_mesh: usize,
    /// Tree opening angle.
    pub theta: f64,
    /// Step size in simulation time units (G = 1, unit box).
    pub dt: f64,
    /// Number of steps a full [`GalaxyCollapse::run`] takes.
    pub steps: usize,
    /// Static-mode integrator; the scenario defaults to 4th-order
    /// Yoshida, which is what the energy-drift acceptance gate assumes.
    pub integrator: IntegratorKind,
    /// Plummer softening of the short-range force. A *scenario*
    /// parameter here (the physical resolution of the galaxy model),
    /// not the cosmological default `r_cut/30` — the isolated collapse
    /// runs with a deliberately coarse mesh, and tying ε to `r_cut`
    /// would smooth away the close encounters that feed the BHs.
    pub eps: f64,
    /// A non-BH particle inside this distance of a BH is captured.
    pub capture_radius: f64,
    /// BHs linked within this distance merge.
    pub merge_radius: f64,
}

impl Default for GalaxyConfig {
    fn default() -> Self {
        GalaxyConfig {
            galaxy: GalaxyParams::default(),
            n_mesh: 4,
            theta: 0.4,
            dt: 2.5e-4,
            steps: 96,
            integrator: IntegratorKind::Yoshida4,
            eps: 3e-3,
            capture_radius: 3e-3,
            merge_radius: 6e-3,
        }
    }
}

impl GalaxyConfig {
    /// The CI/smoke configuration: the small realisation, fewer steps.
    pub fn small() -> Self {
        GalaxyConfig {
            galaxy: GalaxyParams::small(),
            steps: 48,
            ..GalaxyConfig::default()
        }
    }

    /// The TreePM solver configuration this scenario runs under. The
    /// mesh is deliberately coarse (`r_cut = 3/n_mesh` grows with a
    /// smaller mesh): an isolated collapse concentrates the whole
    /// system into a region the exactly-summed PP half should cover,
    /// leaving the mesh only the smooth outer envelope — mesh force
    /// error on a sub-cell core does secular work against the energy
    /// integral otherwise.
    pub fn treepm(&self) -> TreePmConfig {
        TreePmConfig {
            theta: self.theta,
            eps: self.eps,
            ..TreePmConfig::isolated(self.n_mesh)
        }
    }
}

/// Direct-sum potential energy of the **applied** pair force law: the
/// short-range part is the softened S2-cutoff potential
/// (`ForceSplit::pp_potential`, the exact antiderivative of the PP
/// kernel) and the long-range part its complement
/// `−(1 − h(2r/r_cut))/r`. Together they are the potential whose
/// gradient the TreePM force approximates, with none of the PM mesh's
/// interpolation bias — under deep clustering the mesh potential
/// estimate acquires a configuration-dependent systematic of order
/// 1e-2·E₀ that would masquerade as integrator drift. For an isolated
/// system the O(N²) sum is affordable and is the standard energy
/// diagnostic of collisional N-body codes.
fn direct_potential(bodies: &[Body], split: greem_math::ForceSplit) -> f64 {
    let rc = split.r_cut;
    let eps2 = split.eps * split.eps;
    let mut u = 0.0;
    for (i, a) in bodies.iter().enumerate() {
        for b in &bodies[i + 1..] {
            let r = (a.pos - b.pos).norm();
            // Short-range part: −h(2r̃/rc)/r̃ with the softened radius
            // r̃ = √(r² + ε²), identical to `ForceSplit::pp_potential`
            // but through the tabulated h — the adaptive quadrature
            // recurses deeply at small ξ and this sum is O(N²) per call.
            let rs = (r * r + eps2).sqrt();
            let short = -h_p3m_fast(2.0 * rs / rc) / rs;
            let long = if r > 0.0 {
                -(1.0 - h_p3m_fast(2.0 * r / rc)) / r
            } else {
                0.0
            };
            u += a.mass * b.mass * (short + long);
        }
    }
    u
}

fn kinetic_energy(bodies: &[Body]) -> f64 {
    bodies.iter().map(|b| 0.5 * b.mass * b.vel.norm2()).sum()
}

/// Per-species census of the current particle state.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeciesCensus {
    /// Particle count per species tag (star, dm, bh).
    pub counts: Vec<usize>,
    /// Total mass per species tag.
    pub masses: Vec<f64>,
}

/// A black-hole event the engine performed, for logs and traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BhEvent {
    /// `victim` (non-BH id) absorbed by BH `bh` at step `step`.
    Capture { step: u64, bh: u64, victim: u64 },
    /// `absorbed` BH merged into `survivor` at step `step`.
    Merger {
        step: u64,
        survivor: u64,
        absorbed: u64,
    },
}

/// The running scenario: simulation plus event bookkeeping.
pub struct GalaxyCollapse {
    cfg: GalaxyConfig,
    sim: Simulation,
    /// Energy at t = 0 (the conserved reference).
    e0: f64,
    /// Cumulative energy removed/added by discrete BH events.
    energy_offset: f64,
    mergers: u64,
    captures: u64,
    steps_taken: u64,
    /// 2T/|W| after every step, element 0 being the initial state.
    virial_history: Vec<f64>,
    events: Vec<BhEvent>,
}

impl GalaxyCollapse {
    /// Realise the ICs and initialise the simulation (forces evaluated,
    /// E₀ measured).
    pub fn new(cfg: GalaxyConfig) -> Self {
        let bodies = galaxy_ics(&cfg.galaxy);
        Self::from_bodies(cfg, bodies)
    }

    fn from_bodies(cfg: GalaxyConfig, bodies: Vec<Body>) -> Self {
        let e0 = kinetic_energy(&bodies) + direct_potential(&bodies, cfg.treepm().split());
        let mut sim = Simulation::new(cfg.treepm(), bodies, SimulationMode::Static);
        sim.set_integrator(cfg.integrator);
        let mut sc = GalaxyCollapse {
            cfg,
            sim,
            e0,
            energy_offset: 0.0,
            mergers: 0,
            captures: 0,
            steps_taken: 0,
            virial_history: Vec::new(),
            events: Vec::new(),
        };
        sc.virial_history.push(sc.virial_ratio());
        sc
    }

    /// Rebuild from checkpointed state (see [`crate::checkpoint`]).
    pub(crate) fn restore(cfg: GalaxyConfig, ck: AstroCheckpoint) -> Self {
        let mut sim = Simulation::new(cfg.treepm(), ck.bodies, SimulationMode::Static);
        sim.set_integrator(cfg.integrator);
        GalaxyCollapse {
            cfg,
            sim,
            e0: ck.e0,
            energy_offset: ck.energy_offset,
            mergers: ck.mergers,
            captures: ck.captures,
            steps_taken: ck.steps_taken,
            virial_history: ck.virial_history,
            events: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GalaxyConfig {
        &self.cfg
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Simulation time elapsed (`steps_taken · dt`).
    pub fn time(&self) -> f64 {
        self.steps_taken as f64 * self.cfg.dt
    }

    /// The reference energy E₀.
    pub fn e0(&self) -> f64 {
        self.e0
    }

    /// Cumulative energy booked to discrete BH events.
    pub fn energy_offset(&self) -> f64 {
        self.energy_offset
    }

    /// BH–BH mergers performed so far.
    pub fn mergers(&self) -> u64 {
        self.mergers
    }

    /// Particle captures performed so far.
    pub fn captures(&self) -> u64 {
        self.captures
    }

    /// Every BH event in order.
    pub fn events(&self) -> &[BhEvent] {
        &self.events
    }

    /// The virial-ratio trajectory (entry per step, plus the t=0 state).
    pub fn virial_history(&self) -> &[f64] {
        &self.virial_history
    }

    /// Current bodies, id-sorted.
    pub fn bodies(&self) -> Vec<Body> {
        self.sim.bodies()
    }

    /// Current total energy, measured by direct summation of the
    /// applied pair potential (see [`direct_potential`]).
    pub fn energy(&self) -> f64 {
        let bodies = self.sim.bodies();
        kinetic_energy(&bodies) + direct_potential(&bodies, self.cfg.treepm().split())
    }

    /// |ΔE/E₀| with BH-event energy booked out — the integrator-quality
    /// metric the acceptance gate checks.
    pub fn energy_drift(&self) -> f64 {
        ((self.energy() - self.energy_offset - self.e0) / self.e0).abs()
    }

    /// Instantaneous virial ratio 2T/|W| (direct-sum W).
    pub fn virial_ratio(&self) -> f64 {
        let bodies = self.sim.bodies();
        let w = direct_potential(&bodies, self.cfg.treepm().split());
        if w.abs() < f64::MIN_POSITIVE {
            return 0.0;
        }
        2.0 * kinetic_energy(&bodies) / w.abs()
    }

    /// Per-species particle counts and mass totals, padded to the three
    /// known species (captures/mergers shrink BH and star/DM counts but
    /// never invent a species).
    pub fn census(&self) -> SpeciesCensus {
        let store = self.sim.store();
        let mut counts = store.species_counts();
        let mut masses = store.species_mass_totals();
        counts.resize(N_SPECIES, 0);
        masses.resize(N_SPECIES, 0.0);
        SpeciesCensus { counts, masses }
    }

    /// Projected surface density of the current state.
    pub fn projected(&self, n: usize, axis: usize, label: &str) -> Snapshot {
        projected_density(&self.bodies(), n, axis, label)
    }

    /// Save the full scenario state, then recompute the cached forces
    /// with a fresh walk so that this run continues from exactly the
    /// state a resume reconstructs (see [`crate::checkpoint`]).
    pub fn save_checkpoint<P: AsRef<std::path::Path>>(&mut self, path: P) -> std::io::Result<()> {
        crate::checkpoint::save(path, self)?;
        self.sim.reset_forces();
        Ok(())
    }

    /// One step of size `dt` followed by the BH event pass. Returns the
    /// step's cost breakdown.
    pub fn step(&mut self) -> StepBreakdown {
        let bd = self.sim.step(self.cfg.dt);
        self.steps_taken += 1;
        self.apply_bh_events();
        self.virial_history.push(self.virial_ratio());
        greem_obs::trace::instant(
            "astro",
            "astro.step",
            &[
                ("step", self.steps_taken as f64),
                ("virial_ratio", *self.virial_history.last().unwrap()),
                ("energy_drift", self.energy_drift()),
            ],
        );
        bd
    }

    /// Run the configured number of steps (on resume: the remainder).
    pub fn run(&mut self) -> StepBreakdown {
        let mut total = StepBreakdown::default();
        while self.steps_taken < self.cfg.steps as u64 {
            total.accumulate(&self.step());
        }
        total
    }

    /// Detect and apply captures and mergers; rebuilds the simulation
    /// when events fired and books the energy change.
    fn apply_bh_events(&mut self) {
        let bodies = self.sim.bodies();
        let bh_idx: Vec<usize> = bodies
            .iter()
            .enumerate()
            .filter(|(_, b)| species_of_id(b.id) == SPECIES_BH)
            .map(|(i, _)| i)
            .collect();
        if bh_idx.is_empty() {
            return;
        }

        // Captures: nearest BH within capture_radius wins. Plain
        // Euclidean distances — the system is isolated, no images.
        let cap2 = self.cfg.capture_radius * self.cfg.capture_radius;
        let mut absorbed_into: Vec<Option<usize>> = vec![None; bodies.len()];
        let mut n_captures = 0u64;
        for (i, b) in bodies.iter().enumerate() {
            if species_of_id(b.id) == SPECIES_BH {
                continue;
            }
            let mut best: Option<(f64, usize)> = None;
            for &j in &bh_idx {
                let d2 = (b.pos - bodies[j].pos).norm2();
                if d2 <= cap2 && best.is_none_or(|(bd2, _)| d2 < bd2) {
                    best = Some((d2, j));
                }
            }
            if let Some((_, j)) = best {
                absorbed_into[i] = Some(j);
                n_captures += 1;
            }
        }

        // Fold captured mass/momentum into the BHs.
        let mut merged = bodies.clone();
        for (i, target) in absorbed_into.iter().enumerate() {
            if let Some(j) = *target {
                let (m_bh, m_p) = (merged[j].mass, merged[i].mass);
                let m = m_bh + m_p;
                merged[j].pos = (merged[j].pos * m_bh + merged[i].pos * m_p) / m;
                merged[j].vel = (merged[j].vel * m_bh + merged[i].vel * m_p) / m;
                merged[j].mass = m;
                self.events.push(BhEvent::Capture {
                    step: self.steps_taken,
                    bh: merged[j].id,
                    victim: merged[i].id,
                });
                greem_obs::trace::instant(
                    "astro",
                    "astro.bh_capture",
                    &[
                        ("step", self.steps_taken as f64),
                        ("bh_mass", merged[j].mass),
                    ],
                );
            }
        }

        // Mergers: friends-of-friends over the (updated) BH positions
        // with the merge radius as linking length; every group of ≥ 2
        // coalesces into its lowest-id member.
        let bh_pos: Vec<Vec3> = bh_idx.iter().map(|&j| merged[j].pos).collect();
        let groups = greem::friends_of_friends(&bh_pos, self.cfg.merge_radius, 2);
        let mut n_mergers = 0u64;
        let mut dead: Vec<usize> = absorbed_into
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|_| i))
            .collect();
        for group in &groups {
            let members: Vec<usize> = group.iter().map(|&g| bh_idx[g as usize]).collect();
            let survivor = *members
                .iter()
                .min_by_key(|&&j| merged[j].id)
                .expect("FoF groups are non-empty");
            let m: f64 = members.iter().map(|&j| merged[j].mass).sum();
            let pos: Vec3 = members
                .iter()
                .map(|&j| merged[j].pos * merged[j].mass)
                .sum::<Vec3>()
                / m;
            let vel: Vec3 = members
                .iter()
                .map(|&j| merged[j].vel * merged[j].mass)
                .sum::<Vec3>()
                / m;
            for &j in &members {
                if j == survivor {
                    continue;
                }
                self.events.push(BhEvent::Merger {
                    step: self.steps_taken,
                    survivor: merged[survivor].id,
                    absorbed: merged[j].id,
                });
                greem_obs::trace::instant(
                    "astro",
                    "astro.bh_merger",
                    &[("step", self.steps_taken as f64), ("mass", m)],
                );
                dead.push(j);
                n_mergers += 1;
            }
            merged[survivor].pos = pos;
            merged[survivor].vel = vel;
            merged[survivor].mass = m;
        }

        if n_captures == 0 && n_mergers == 0 {
            return;
        }
        dead.sort_unstable();
        dead.dedup();
        let split = self.cfg.treepm().split();
        let e_before = kinetic_energy(&bodies) + direct_potential(&bodies, split);
        let survivors: Vec<Body> = merged
            .into_iter()
            .enumerate()
            .filter(|(i, _)| dead.binary_search(i).is_err())
            .map(|(_, b)| b)
            .collect();
        let e_after = kinetic_energy(&survivors) + direct_potential(&survivors, split);
        let mut sim = Simulation::new(self.cfg.treepm(), survivors, SimulationMode::Static);
        sim.set_integrator(self.cfg.integrator);
        self.sim = sim;
        // Discrete events change E discontinuously (captures/mergers
        // dissipate the relative orbit); book the jump so the drift
        // metric stays an integrator diagnostic.
        self.energy_offset += e_after - e_before;
        self.captures += n_captures;
        self.mergers += n_mergers;
    }
}

impl greem_obs::Observe for GalaxyCollapse {
    fn observe(&self, reg: &mut greem_obs::Registry) {
        reg.counter_add("astro.bh_mergers", self.mergers as f64);
        reg.counter_add("astro.bh_captures", self.captures as f64);
        reg.gauge_set("astro.energy_drift", self.energy_drift());
        reg.gauge_set(
            "astro.virial_ratio",
            *self.virial_history.last().unwrap_or(&0.0),
        );
        reg.gauge_set("astro.n_bodies", self.sim.store().len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plummer::{GalaxyParams, SPECIES_DM, SPECIES_STAR};

    /// A tiny configuration for unit tests (not physically interesting,
    /// just fast).
    fn tiny() -> GalaxyConfig {
        GalaxyConfig {
            galaxy: GalaxyParams {
                n_stars: 24,
                n_dm: 24,
                n_bh: 2,
                ..GalaxyParams::small()
            },
            n_mesh: 16,
            steps: 4,
            ..GalaxyConfig::default()
        }
    }

    #[test]
    fn census_tracks_species() {
        let sc = GalaxyCollapse::new(tiny());
        let c = sc.census();
        assert_eq!(c.counts, vec![24, 24, 2]);
        assert!((c.masses.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn collapse_starts_sub_virial_and_heats_up() {
        let mut sc = GalaxyCollapse::new(GalaxyConfig { steps: 6, ..tiny() });
        let v0 = sc.virial_history()[0];
        assert!(v0 < 0.6, "cold start should be sub-virial, got {v0}");
        sc.run();
        let v1 = *sc.virial_history().last().unwrap();
        assert!(v1 > v0, "collapse should raise 2T/|W|: {v0} -> {v1}");
    }

    #[test]
    fn momentum_is_conserved_through_events() {
        // Force captures: huge capture radius absorbs everything near
        // the centre in the first event pass.
        let mut sc = GalaxyCollapse::new(GalaxyConfig {
            capture_radius: 0.05,
            merge_radius: 0.05,
            steps: 2,
            ..tiny()
        });
        let p0: Vec3 = sc.bodies().iter().map(|b| b.vel * b.mass).sum();
        let m0: f64 = sc.bodies().iter().map(|b| b.mass).sum();
        sc.run();
        assert!(
            sc.captures() > 0 || sc.mergers() > 0,
            "event pass should have fired with these radii"
        );
        let p1: Vec3 = sc.bodies().iter().map(|b| b.vel * b.mass).sum();
        let m1: f64 = sc.bodies().iter().map(|b| b.mass).sum();
        assert!((m1 - m0).abs() < 1e-12, "mass not conserved: {m0} vs {m1}");
        assert!(
            (p1 - p0).norm() < 1e-9,
            "momentum jumped across events: {:?}",
            p1 - p0
        );
    }

    #[test]
    fn merger_keeps_lowest_id_and_counts_match_events() {
        let mut sc = GalaxyCollapse::new(GalaxyConfig {
            merge_radius: 0.2,
            steps: 1,
            ..tiny()
        });
        sc.run();
        assert!(sc.mergers() >= 1, "0.2 linking length must merge the seeds");
        let bhs: Vec<Body> = sc
            .bodies()
            .into_iter()
            .filter(|b| species_of_id(b.id) == SPECIES_BH)
            .collect();
        assert_eq!(bhs.len(), 2 - sc.mergers() as usize);
        let merger_events = sc
            .events()
            .iter()
            .filter(|e| matches!(e, BhEvent::Merger { .. }))
            .count() as u64;
        assert_eq!(merger_events, sc.mergers());
        // The surviving BH is the lowest id of the species.
        assert!(bhs.iter().any(|b| b.id == greem::species_id(SPECIES_BH, 0)));
    }

    #[test]
    fn energy_offset_books_event_jumps() {
        let mut sc = GalaxyCollapse::new(GalaxyConfig {
            capture_radius: 0.03,
            steps: 3,
            ..tiny()
        });
        sc.run();
        assert!(sc.captures() > 0);
        assert_ne!(sc.energy_offset(), 0.0);
        // With the jump booked, drift stays an integrator-scale number
        // rather than the O(1) event jump.
        assert!(
            sc.energy_drift() < 0.3,
            "offset-corrected drift too large: {}",
            sc.energy_drift()
        );
    }

    #[test]
    fn star_and_dm_species_survive_short_runs() {
        let mut sc = GalaxyCollapse::new(tiny());
        sc.run();
        let c = sc.census();
        assert!(c.counts[SPECIES_STAR as usize] > 0);
        assert!(c.counts[SPECIES_DM as usize] > 0);
        assert!(c.counts[SPECIES_BH as usize] >= 1);
    }

    #[test]
    fn particles_stay_inside_the_unit_box() {
        let mut sc = GalaxyCollapse::new(GalaxyConfig { steps: 8, ..tiny() });
        sc.run();
        for b in sc.bodies() {
            for c in [b.pos.x, b.pos.y, b.pos.z] {
                assert!(
                    (0.0..1.0).contains(&c),
                    "particle escaped the unit box: {:?}",
                    b.pos
                );
            }
        }
    }
}
