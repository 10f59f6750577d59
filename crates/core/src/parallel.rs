//! The rank driver, the only one: the full per-step pipeline on one
//! rank of an `mpisim` world — or, with one rank, over the whole box.
//!
//! A step is the paper's cycle, run by one loop (its schedule is
//! [`crate::integrator`]'s) on this rank's hooks:
//!
//! 1. PM half kick (long-range force from the previous cycle),
//! 2. two PP sub-cycles: short-range kick → drift → **domain
//!    decomposition** (sampling-method rebalance + particle exchange)
//!    → boundary-particle import → local tree + group walk + kernel →
//!    closing short-range kick,
//! 3. PM solve at the new positions, closing PM half kick.
//!
//! The rank count decides the path. **One rank owns the whole box**
//! ([`crate::Simulation`], or a world of one rank): it has no domain
//! decomposition and no ghosts, solves PM on [`TreePm`]'s serial mesh
//! under either boundary, runs its PP groups as rayon tasks, and
//! replays recorded interaction lists on any PP sub-cycle, of the step
//! that recorded them or a later one, for as long as the drift since
//! the recording stays inside their skin. **Above one rank** each rank
//! owns the particles inside its rectangular domain (3-D multisection,
//! `greem-domain`) of the periodic box, solves PM collectively on the
//! slab mesh, walks its groups one after another on its rank thread,
//! and walks both sub-cycles afresh (the ghost set changes every
//! cycle). Every phase charges the Table-I row it corresponds to;
//! communication rows use the simulated network clock.

use greem_domain::{
    exchange, exchange_rows, BalancerParams, BalancerState, DomainGrid, SamplingBalancer,
};
use greem_math::{wrap01, Aabb, Vec3};
use greem_obs::trace::timed_phase;
use greem_perfmodel::tableone::{
    PARTICLE_EXCHANGE, POSITION_UPDATE, PP_COMMUNICATION, SAMPLING_METHOD,
};
use greem_pm::{ParallelPm, ParallelPmConfig};
use mpisim::{Comm, Ctx};

use crate::config::{Boundary, TreePmConfig};
use crate::forces::TreePm;
use crate::integrator::{schedule, Cycle};
use crate::particle::Body;
use crate::resident::ResidentPp;
use crate::simulation::SimulationMode;
use crate::stats::StepBreakdown;
use crate::store::ParticleStore;

/// Per-rank result of one parallel step.
#[derive(Debug, Clone)]
pub struct ParallelStepStats {
    /// This rank's cost breakdown.
    pub breakdown: StepBreakdown,
    /// Particles owned after the step.
    pub n_owned: usize,
    /// Ghost particles imported in the last PP cycle.
    pub n_ghosts: usize,
}

/// The network a rank's hooks run their collective phases on: its
/// context and communicator, or `None` when one rank owns the box.
pub(crate) type Net<'a> = Option<(&'a mut Ctx, &'a Comm)>;

/// A rank's long-range solver.
pub(crate) enum Mesh {
    /// One rank owns the whole box: [`TreePm`]'s serial mesh, either
    /// boundary.
    WholeBox(Box<TreePm>),
    /// This rank's share of the periodic slab-decomposed mesh.
    Slabs(Box<ParallelPm>),
}

/// The TreePM simulation state of one rank.
pub struct ParallelTreePm {
    pub(crate) cfg: TreePmConfig,
    pub(crate) mesh: Mesh,
    balancer: SamplingBalancer,
    grid: DomainGrid,
    mode: SimulationMode,
    /// Owned particles, Morton-resident: the PP engine re-permutes the
    /// store's rows into tree order at every walk.
    pub(crate) store: ParticleStore,
    /// Short-range accelerations, aligned with the store's rows.
    pp_accel: Vec<Vec3>,
    /// Long-range accelerations, rewritten by every PM cycle before its
    /// next kick, so the PP cycles' store permutations need not carry
    /// them.
    pm_accel: Vec<Vec3>,
    /// Largest per-particle displacement of the last drift — the margin
    /// budget of the lists the whole box's next walk records.
    last_drift: f64,
    engine: ResidentPp,
    /// Measured force cost of the last cycle — the feedback signal of
    /// the sampling method.
    last_cost: f64,
    n_ghosts: usize,
    /// Completed steps (checkpointed; indexes fault schedules).
    steps: u64,
}

/// Everything one rank must persist to resume a parallel run exactly:
/// step counter, integration mode, balancer feedback state, and the
/// owned bodies *in their in-memory order* — the Morton sort breaks key
/// ties by input slot, so bit-identical resume needs the original
/// ordering, not just the same set.
#[derive(Debug, Clone, PartialEq)]
pub struct RankState {
    /// Steps completed when the state was captured.
    pub step: u64,
    /// Integration mode (scale factor included for cosmological runs).
    pub mode: SimulationMode,
    /// The sampling balancer's history window and step counter.
    pub balancer: BalancerState,
    /// This rank's owned bodies, in order.
    pub bodies: Vec<Body>,
}

impl ParallelTreePm {
    /// Collectively create the simulation. `bodies_on_root` is the full
    /// initial snapshot on world rank 0 (`None` elsewhere). `div` must
    /// multiply to the world size. One rank owns the whole box under
    /// either boundary; above one rank the snapshot is scattered to the
    /// initial uniform decomposition, the boundary must be periodic,
    /// and `nf` FFT ranks and `relay_groups` configure the slab mesh as
    /// in [`ParallelPmConfig`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ctx: &mut Ctx,
        world: &Comm,
        cfg: TreePmConfig,
        div: [usize; 3],
        nf: usize,
        relay_groups: Option<usize>,
        bodies_on_root: Option<Vec<Body>>,
        mode: SimulationMode,
    ) -> Self {
        let p = world.size();
        assert_eq!(
            div.iter().product::<usize>(),
            p,
            "div must match world size"
        );
        assert_eq!(
            bodies_on_root.is_some(),
            world.rank() == 0,
            "exactly the root supplies bodies"
        );
        if p == 1 {
            assert_eq!(nf, 1, "one rank is the one FFT rank");
            let bodies = bodies_on_root.expect("the one rank is the root");
            return Self::whole_box(cfg, &bodies, mode);
        }
        assert_eq!(
            cfg.boundary,
            Boundary::Periodic,
            "above one rank, the parallel driver's domains, drift and PM are periodic"
        );
        let pm_cfg = ParallelPmConfig {
            n_mesh: cfg.n_mesh,
            r_cut: cfg.r_cut,
            deconvolve: cfg.deconvolve,
            nf,
            relay_groups,
        };
        let mesh = Mesh::Slabs(Box::new(ParallelPm::new(ctx, world, pm_cfg)));
        // Scatter the snapshot from the root to the uniform grid.
        let all = bodies_on_root.unwrap_or_default();
        let grid = DomainGrid::uniform(div);
        let mine = exchange(ctx, world, all, move |b: &Body| {
            grid.rank_of_point(wrap01(b.pos))
        });
        Self::with(cfg, mesh, div, &mine, mode, Some((ctx, world)))
    }

    /// The one rank that owns the whole box.
    pub(crate) fn whole_box(cfg: TreePmConfig, bodies: &[Body], mode: SimulationMode) -> Self {
        let mesh = Mesh::WholeBox(Box::new(TreePm::new(cfg)));
        Self::with(cfg, mesh, [1, 1, 1], bodies, mode, None)
    }

    /// A rank owning `bodies`, with its initial forces so the first
    /// kick is consistent.
    fn with(
        cfg: TreePmConfig,
        mesh: Mesh,
        div: [usize; 3],
        bodies: &[Body],
        mode: SimulationMode,
        net: Net<'_>,
    ) -> Self {
        let p: usize = div.iter().product();
        let balancer = SamplingBalancer::new(BalancerParams::new(div, (64 * p).max(512)));
        let mut sim = ParallelTreePm {
            cfg,
            mesh,
            grid: balancer.current(),
            balancer,
            mode,
            store: ParticleStore::from_bodies(bodies),
            pp_accel: Vec::new(),
            pm_accel: Vec::new(),
            last_drift: 0.0,
            engine: ResidentPp::new(),
            last_cost: 1.0,
            n_ghosts: 0,
            steps: 0,
        };
        sim.refresh(net);
        sim
    }

    /// The hooks' network for a collective call: none at one rank.
    fn net<'a>(ctx: &'a mut Ctx, world: &'a Comm) -> Net<'a> {
        (world.size() > 1).then_some((ctx, world))
    }

    /// This rank's owned bodies, materialised from the resident store
    /// in its current (Morton) row order.
    pub fn bodies(&self) -> Vec<Body> {
        self.store.to_bodies()
    }

    /// The current domain of this rank.
    pub fn my_domain(&self, world: &Comm) -> Aabb {
        self.grid.domain(world.rank())
    }

    /// Current integration mode (scale factor for cosmological runs).
    pub fn mode(&self) -> SimulationMode {
        self.mode
    }

    /// Completed steps.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// This rank's most recent PP walk cost — the exact feedback signal
    /// the domain balancer consumes (virtual seconds when
    /// [`TreePmConfig::modeled_pp_cost`] is set above one rank, wall
    /// seconds otherwise). Online imbalance detectors allgather this to
    /// see the load skew the way the balancer sees it.
    pub fn last_pp_cost(&self) -> f64 {
        self.last_cost
    }

    /// Capture this rank's resumable state (see [`RankState`]). At one
    /// rank, capture is a synchronisation point: the forces of the step
    /// that just ended may come from replayed lists, whereas a restore
    /// rebuilds them with a fresh walk, so this recomputes both forces
    /// the way [`ParallelTreePm::restore_rank_state`] will, and the run
    /// then continues exactly as one resumed from the state would. Above
    /// one rank nothing is replayed and nothing is recomputed.
    pub fn rank_state(&mut self) -> RankState {
        let st = RankState {
            step: self.steps,
            mode: self.mode,
            balancer: self.balancer.state(),
            // The store's current row order IS the semantic order (the
            // Morton sort tie-breaks on slot), so a round trip through
            // this AoS view resumes bit-identically.
            bodies: self.store.to_bodies(),
        };
        if matches!(self.mesh, Mesh::WholeBox(_)) {
            self.refresh(None);
        }
        st
    }

    /// Collectively restore a state captured by
    /// [`ParallelTreePm::rank_state`]: every rank supplies its own
    /// shard. Above one rank the domain exchange re-enforces ownership
    /// (after a crash the in-memory bodies are garbage; the
    /// checkpointed ones already sit in their owner's shard, so the
    /// exchange is a cheap identity re-route). Both force fields are
    /// recomputed so the next kick sees exactly what the original run
    /// saw.
    pub fn restore_rank_state(&mut self, ctx: &mut Ctx, world: &Comm, st: RankState) {
        let _span = greem_obs::trace::span("resil", "treepm.restore");
        self.steps = st.step;
        self.mode = st.mode;
        self.balancer.restore(st.balancer);
        self.grid = self.balancer.current();
        let mine = if world.size() > 1 {
            let grid = self.grid.clone();
            exchange(ctx, world, st.bodies, move |b: &Body| {
                grid.rank_of_point(wrap01(b.pos))
            })
        } else {
            st.bodies
        };
        self.store = ParticleStore::from_bodies(&mine);
        self.refresh(Self::net(ctx, world));
    }

    /// Gather the full snapshot on world rank 0 (diagnostics).
    pub fn gather_bodies(&self, ctx: &mut Ctx, world: &Comm) -> Option<Vec<Body>> {
        world
            .gather(ctx, 0, self.store.to_bodies())
            .map(|per_rank| {
                let mut all: Vec<Body> = per_rank.into_iter().flatten().collect();
                all.sort_unstable_by_key(|b| b.id);
                all
            })
    }

    /// One collective TreePM step (see the module docs). For static
    /// mode `dt_or_a_next` is the timestep; for cosmological mode it is
    /// the target scale factor.
    pub fn step(&mut self, ctx: &mut Ctx, world: &Comm, dt_or_a_next: f64) -> ParallelStepStats {
        let mut span = greem_obs::trace::span("step", "treepm.step");
        let bd = self.advance(Self::net(ctx, world), dt_or_a_next);
        span.arg("interactions", bd.walk.interactions as f64);
        span.arg("n_owned", self.store.len() as f64);
        ParallelStepStats {
            breakdown: bd,
            n_owned: self.store.len(),
            n_ghosts: self.n_ghosts,
        }
    }

    /// One step on the network `net`: the schedule's cycle, then the
    /// mode and step count after it.
    pub(crate) fn advance(&mut self, net: Net<'_>, dt_or_a_next: f64) -> StepBreakdown {
        let (cycle, mode) = schedule(self.mode, dt_or_a_next);
        let mut bd = StepBreakdown::default();
        OnRank { sim: self, net }.run(&cycle, &mut bd);
        self.mode = mode;
        self.steps += 1;
        bd
    }

    /// Both forces afresh on the network `net`, after the particles
    /// changed outside a step.
    pub(crate) fn refresh(&mut self, net: Net<'_>) {
        OnRank { sim: self, net }.refresh();
    }

    /// Import boundary particles: everything of mine within `r_cut` of
    /// another rank's domain goes there as a ghost.
    fn exchange_ghosts(&self, ctx: &mut Ctx, world: &Comm) -> Vec<(Vec3, f64)> {
        let p = world.size();
        let rc2 = self.cfg.r_cut * self.cfg.r_cut;
        let domains: Vec<Aabb> = (0..p).map(|r| self.grid.domain(r)).collect();
        let mut send: Vec<Vec<(Vec3, f64)>> = (0..p).map(|_| Vec::new()).collect();
        let me = world.rank();
        for i in 0..self.store.len() {
            let pos = self.store.pos(i);
            let mass = self.store.mass_column()[i];
            for (d, dom) in domains.iter().enumerate() {
                if d == me {
                    continue;
                }
                if dom.periodic_dist2_to_point(pos) <= rc2 {
                    send[d].push((pos, mass));
                }
            }
        }
        world.alltoallv(ctx, send).into_iter().flatten().collect()
    }
}

/// One rank's hooks for the step loop: the driver with its network.
struct OnRank<'a> {
    sim: &'a mut ParallelTreePm,
    net: Net<'a>,
}

impl OnRank<'_> {
    /// Both forces afresh: a PP walk with no drift behind it (the
    /// recorded lists are dropped), then PM.
    fn refresh(&mut self) {
        let mut scratch = StepBreakdown::default();
        self.sim.engine.drop_lists();
        self.sim.last_drift = 0.0;
        self.pp_cycle(&mut scratch);
        self.pm_cycle(&mut scratch);
    }

    /// Run the cycle of a [`schedule`].
    fn run(&mut self, c: &Cycle, bd: &mut StepBreakdown) {
        self.sim.store.kick(&self.sim.pm_accel, c.pm);
        for sub in &c.pp {
            self.sim.store.kick(&self.sim.pp_accel, sub.kick);
            self.drift(sub.drift, bd);
            self.decompose(bd);
            self.pp_cycle(bd);
            self.sim.store.kick(&self.sim.pp_accel, sub.kick);
        }
        self.pm_cycle(bd);
        self.sim.store.kick(&self.sim.pm_accel, c.pm);
    }

    /// Drift positions by `w`: wrapped into the torus under periodic
    /// boundaries, plain open-space translation under isolated ones.
    fn drift(&mut self, w: f64, bd: &mut StepBreakdown) {
        let sim = &mut *self.sim;
        let row = &mut bd.dd_position_update;
        sim.last_drift = timed_phase("step", POSITION_UPDATE.key, row, || {
            match sim.cfg.boundary {
                Boundary::Periodic => sim.store.drift_wrap(w),
                Boundary::Isolated => sim.store.drift_free(w),
            }
        });
    }

    /// Sampling-method rebalance + particle exchange, above one rank.
    fn decompose(&mut self, bd: &mut StepBreakdown) {
        let OnRank {
            sim,
            net: Some((ctx, world)),
        } = self
        else {
            return;
        };
        // Rebalance with the measured force cost as the sampling weight.
        let v0 = ctx.vtime();
        let row = &mut bd.dd_sampling_method;
        sim.grid = timed_phase("step", SAMPLING_METHOD.key, row, || {
            let pos = sim.store.positions();
            sim.balancer.rebalance(ctx, world, &pos, sim.last_cost)
        });
        bd.dd_sampling_method += ctx.vtime() - v0;

        // Route every particle to its (possibly new) owner. The store's
        // columns travel as packed 64-byte rows (pos, vel, mass, id) —
        // the same wire size as the AoS `Body` they replace.
        let v0 = ctx.vtime();
        let row = &mut bd.dd_particle_exchange;
        sim.store = timed_phase("step", PARTICLE_EXCHANGE.key, row, || {
            let grid = sim.grid.clone();
            let rows = exchange_rows(ctx, world, sim.store.to_packed(), move |r| {
                grid.rank_of_point(Vec3::new(r[0], r[1], r[2]))
            });
            ParticleStore::from_packed(&rows)
        });
        bd.dd_particle_exchange += ctx.vtime() - v0;
    }

    /// Above one rank, ghost import; then the resident engine's pass
    /// over the owned rows plus any ghosts. The whole box passes none,
    /// so the pass replays the recorded lists while they are valid.
    fn pp_cycle(&mut self, bd: &mut StepBreakdown) {
        let OnRank { sim, net } = self;
        let ghosts = net.as_mut().map(|(ctx, world)| {
            let v0 = ctx.vtime();
            let row = &mut bd.pp_communication;
            let ghosts = timed_phase("step", PP_COMMUNICATION.key, row, || {
                sim.exchange_ghosts(ctx, world)
            });
            bd.pp_communication += ctx.vtime() - v0;
            ghosts
        });
        sim.n_ghosts = ghosts.as_ref().map_or(0, Vec::len);

        let mut span = greem_obs::trace::span("step", "pp.walk_force");
        let (accel, pass) =
            sim.engine
                .pass(&sim.cfg, &mut sim.store, ghosts.as_deref(), sim.last_drift);
        span.arg("interactions", pass.walk.interactions as f64);
        bd.accumulate(&pass);
        sim.last_cost = match (sim.cfg.modeled_pp_cost, net) {
            (Some(per_interaction), Some((ctx, _))) => {
                // Charge the walk to the virtual clock and feed the
                // balancer the charged (straggler-scaled, deterministic)
                // time instead of a wall-clock measurement.
                let v0 = ctx.vtime();
                ctx.compute(pass.walk.interactions as f64 * per_interaction);
                (ctx.vtime() - v0).max(1e-30)
            }
            _ => (pass.pp_tree_traversal + pass.pp_force_calculation).max(1e-9),
        };
        sim.pp_accel = accel;
    }

    /// PM at the current positions: the whole box's serial mesh, or the
    /// collective slab mesh above one rank.
    fn pm_cycle(&mut self, bd: &mut StepBreakdown) {
        let OnRank { sim, net } = self;
        let store = &sim.store;
        let (accel, times) = match (&sim.mesh, net) {
            (Mesh::WholeBox(solver), None) => {
                let (res, times) = solver.compute_pm(&store.positions(), &store.masses());
                (res.accel, times)
            }
            (Mesh::Slabs(pm), Some((ctx, world))) => {
                let _span = greem_obs::trace::span("step", "pm.solve");
                let dom = sim.grid.domain(world.rank());
                let (lo, hi) = (dom.lo.to_array(), dom.hi.to_array());
                pm.solve(ctx, world, lo, hi, &store.positions(), &store.masses())
            }
            _ => unreachable!("one rank owns the whole box exactly when it has no network"),
        };
        bd.pm.accumulate(&times);
        sim.pm_accel = accel;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::Simulation;
    use mpisim::{NetModel, World};

    fn rand_bodies(n: usize, seed: u64) -> Vec<Body> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| Body {
                pos: Vec3::new(next(), next(), next()),
                vel: Vec3::new(next() - 0.5, next() - 0.5, next() - 0.5) * 1e-3,
                mass: 1.0 / n as f64,
                id: i as u64,
            })
            .collect()
    }

    /// A parallel step and a serial step from the same snapshot must
    /// produce near-identical particle states (θ = 0 makes the PP walk
    /// exact, so the only differences are summation order and the few
    /// approximations shared by both paths).
    #[test]
    fn parallel_step_matches_serial_step() {
        let n = 96;
        let bodies = rand_bodies(n, 11);
        let cfg = TreePmConfig {
            theta: 0.0,
            group_size: 16,
            ..TreePmConfig::standard(16)
        };
        // Serial reference.
        let mut serial = Simulation::new(cfg, bodies.clone(), SimulationMode::Static);
        serial.step(2e-3);
        let mut want: Vec<Body> = serial.bodies().to_vec();
        want.sort_unstable_by_key(|b| b.id);

        // Parallel run on 4 ranks.
        let got = World::new(4).with_net(NetModel::free()).run(|ctx, world| {
            let root_bodies = (world.rank() == 0).then(|| bodies.clone());
            let mut sim = ParallelTreePm::new(
                ctx,
                world,
                cfg,
                [2, 2, 1],
                2,
                None,
                root_bodies,
                SimulationMode::Static,
            );
            sim.step(ctx, world, 2e-3);
            sim.gather_bodies(ctx, world)
        });
        let got = got[0].clone().expect("root gathers");
        assert_eq!(got.len(), n);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.id, w.id);
            let dp = greem_math::min_image_vec(g.pos, w.pos).norm();
            let dv = (g.vel - w.vel).norm();
            assert!(
                dp < 1e-7 && dv < 1e-4 * w.vel.norm().max(1e-6),
                "id {}: dp={dp:e} dv={dv:e}",
                g.id
            );
        }
    }

    /// Above one rank the ranks' domains, drift and PM solve are
    /// periodic; an isolated config would mix two boundaries in one run,
    /// so it is refused. (One rank owns the whole box under either.)
    #[test]
    #[should_panic(expected = "the parallel driver's domains, drift and PM are periodic")]
    fn isolated_boundary_is_refused() {
        World::new(2).with_net(NetModel::free()).run(|ctx, world| {
            let cfg = TreePmConfig::isolated(16);
            let bodies = (world.rank() == 0).then(|| rand_bodies(8, 3));
            let mode = SimulationMode::Static;
            ParallelTreePm::new(ctx, world, cfg, [2, 1, 1], 1, None, bodies, mode);
        });
    }

    /// Bit patterns of a body's id, position and velocity.
    fn bits(b: &Body) -> [u64; 7] {
        let (p, v) = (b.pos, b.vel);
        let [x, y, z, vx, vy, vz] = [p.x, p.y, p.z, v.x, v.y, v.z].map(f64::to_bits);
        [b.id, x, y, z, vx, vy, vz]
    }

    /// A world of one rank is the `Simulation`: it owns the whole box,
    /// so both take the same path — the serial mesh under either
    /// boundary and list replay while the lists are valid — and agree bit
    /// for bit in every body and in each step's interactions and
    /// replays, on static periodic, isolated and cosmological runs.
    #[test]
    fn one_rank_world_is_the_simulation_bit_for_bit() {
        let a0 = 1.0 / 401.0;
        let cosmological = SimulationMode::Cosmological {
            cosmology: greem_cosmo::Cosmology::wmap7(),
            a: a0,
        };
        let cases = [
            (TreePmConfig::standard(16), SimulationMode::Static),
            (TreePmConfig::isolated(16), SimulationMode::Static),
            (TreePmConfig::standard(16), cosmological),
        ];
        for (cfg, mode) in cases {
            let step_arg = |k: usize| match mode {
                SimulationMode::Static => 2e-3,
                SimulationMode::Cosmological { .. } => a0 * 1.05f64.powi(k as i32 + 1),
            };
            let bodies = rand_bodies(300, 31);
            let per_step = |bd: &StepBreakdown| (bd.walk.interactions, bd.pp_list_replays);
            let mut serial = Simulation::new(cfg, bodies.clone(), mode);
            let want: Vec<_> = (0..3)
                .map(|k| per_step(&serial.step(step_arg(k))))
                .collect();
            let want_bodies: Vec<_> = serial.bodies().iter().map(bits).collect();

            let (got, got_bodies) = World::new(1)
                .with_net(NetModel::free())
                .run(|ctx, world| {
                    let root = Some(bodies.clone());
                    let mut sim =
                        ParallelTreePm::new(ctx, world, cfg, [1, 1, 1], 1, None, root, mode);
                    let steps: Vec<_> = (0..3)
                        .map(|k| per_step(&sim.step(ctx, world, step_arg(k)).breakdown))
                        .collect();
                    (steps, sim.gather_bodies(ctx, world).expect("one root"))
                })
                .remove(0);
            assert!(
                want.iter().any(|&(_, replays)| replays > 0),
                "{mode:?}: {want:?}"
            );
            if (cfg.boundary, mode) == (Boundary::Periodic, SimulationMode::Static) {
                // The lists the constructor's walk recorded outlive it:
                // both sub-cycles of the first step replay them.
                assert_eq!(want[0].1, 2, "{want:?}");
            }
            assert_eq!(got, want, "{mode:?}, {:?}: per-step counters", cfg.boundary);
            let got_bodies: Vec<_> = got_bodies.iter().map(bits).collect();
            assert!(
                got_bodies == want_bodies,
                "{mode:?}, {:?}: bodies",
                cfg.boundary
            );
        }
    }

    /// A force refresh always walks: after steps that replayed, it
    /// leaves PP forces bitwise those of an unrecorded walk at the same
    /// positions (`TreePm::compute_pp`), which the replayed ones are
    /// not.
    #[test]
    fn a_refresh_always_walks() {
        let cfg = TreePmConfig::standard(16);
        let mut bodies = rand_bodies(2000, 3);
        for b in &mut bodies {
            b.vel *= 30.0;
        }
        let mut sim = ParallelTreePm::whole_box(cfg, &bodies, SimulationMode::Static);
        let replays: u64 = (0..2)
            .map(|_| sim.advance(None, 2e-3).pp_list_replays)
            .sum();
        assert_eq!(replays, 4);
        let walked = |sim: &ParallelTreePm| {
            let (want, _) =
                TreePm::new(cfg).compute_pp(&sim.store.positions(), &sim.store.masses());
            want == sim.pp_accel
        };
        assert!(!walked(&sim), "a replay must differ from a walk in bits");
        sim.refresh(None);
        assert!(walked(&sim));
    }

    #[test]
    fn particles_stay_owned_by_their_domains() {
        let n = 200;
        let bodies = rand_bodies(n, 5);
        let counts = World::new(4).with_net(NetModel::free()).run(|ctx, world| {
            let root_bodies = (world.rank() == 0).then(|| bodies.clone());
            let mut sim = ParallelTreePm::new(
                ctx,
                world,
                TreePmConfig::standard(16),
                [4, 1, 1],
                2,
                None,
                root_bodies,
                SimulationMode::Static,
            );
            let stats = sim.step(ctx, world, 1e-3);
            let dom = sim.my_domain(world);
            for b in sim.bodies() {
                assert!(dom.contains(b.pos), "{:?} outside {:?}", b.pos, dom);
            }
            (stats.n_owned, stats.breakdown.walk.interactions)
        });
        let total: usize = counts.iter().map(|(n, _)| n).sum();
        assert_eq!(total, n, "particles conserved");
        assert!(counts.iter().all(|&(_, i)| i > 0), "all ranks did PP work");
    }

    #[test]
    fn relay_and_direct_give_same_physics() {
        let n = 64;
        let bodies = rand_bodies(n, 17);
        let cfg = TreePmConfig {
            theta: 0.0,
            ..TreePmConfig::standard(16)
        };
        let run = |relay: Option<usize>| -> Vec<Body> {
            let bodies = bodies.clone();
            let out = World::new(4)
                .with_net(NetModel::free())
                .run(move |ctx, world| {
                    let root_bodies = (world.rank() == 0).then(|| bodies.clone());
                    let mut sim = ParallelTreePm::new(
                        ctx,
                        world,
                        cfg,
                        [2, 2, 1],
                        2,
                        relay,
                        root_bodies,
                        SimulationMode::Static,
                    );
                    sim.step(ctx, world, 1e-3);
                    sim.gather_bodies(ctx, world)
                });
            out[0].clone().unwrap()
        };
        let direct = run(None);
        let relayed = run(Some(2));
        for (a, b) in direct.iter().zip(&relayed) {
            assert_eq!(a.id, b.id);
            assert!((a.pos - b.pos).norm() < 1e-12);
            assert!((a.vel - b.vel).norm() < 1e-12);
        }
    }

    /// With a modelled PP cost the balancer feedback is virtual-clock
    /// driven, so a state captured mid-run and restored after further
    /// divergence must replay the remaining steps bit-for-bit.
    #[test]
    fn rank_state_restore_replays_bitwise() {
        let n = 160;
        let bodies = rand_bodies(n, 29);
        let cfg = TreePmConfig {
            modeled_pp_cost: Some(5e-9),
            ..TreePmConfig::standard(16)
        };
        let out = World::new(4).with_net(NetModel::free()).run(|ctx, world| {
            let root_bodies = (world.rank() == 0).then(|| bodies.clone());
            let mut sim = ParallelTreePm::new(
                ctx,
                world,
                cfg,
                [2, 2, 1],
                2,
                None,
                root_bodies,
                SimulationMode::Static,
            );
            sim.step(ctx, world, 1e-3);
            sim.step(ctx, world, 1e-3);
            let saved = sim.rank_state();
            // Diverge: two more steps, record the reference finish...
            sim.step(ctx, world, 1e-3);
            sim.step(ctx, world, 1e-3);
            let reference = sim.gather_bodies(ctx, world);
            // ...then rewind onto the same world and replay.
            sim.restore_rank_state(ctx, world, saved);
            assert_eq!(sim.steps_taken(), 2);
            sim.step(ctx, world, 1e-3);
            sim.step(ctx, world, 1e-3);
            let replayed = sim.gather_bodies(ctx, world);
            (reference, replayed)
        });
        let (reference, replayed) = out[0].clone();
        let (reference, replayed) = (reference.unwrap(), replayed.unwrap());
        assert_eq!(reference.len(), n);
        assert_eq!(
            reference, replayed,
            "restored run must be bitwise identical"
        );
    }

    /// Sanity check of the serial-vs-parallel *force* agreement through
    /// the public force API (tests the ghost import in isolation).
    #[test]
    fn parallel_pp_forces_match_serial() {
        let n = 120;
        let bodies = rand_bodies(n, 23);
        let cfg = TreePmConfig {
            theta: 0.0,
            group_size: 8,
            ..TreePmConfig::standard(16)
        };
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let serial = TreePm::new(cfg);
        let (want, _) = serial.compute_pp(&pos, &mass);

        let got = World::new(2).with_net(NetModel::free()).run(|ctx, world| {
            let root_bodies = (world.rank() == 0).then(|| bodies.clone());
            let mut sim = ParallelTreePm::new(
                ctx,
                world,
                cfg,
                [2, 1, 1],
                2,
                None,
                root_bodies,
                SimulationMode::Static,
            );
            let mut bd = StepBreakdown::default();
            let net = Some((ctx, world));
            OnRank { sim: &mut sim, net }.pp_cycle(&mut bd);
            sim.store
                .to_bodies()
                .iter()
                .zip(&sim.pp_accel)
                .map(|(b, a)| (b.id, *a))
                .collect::<Vec<_>>()
        });
        let mut count = 0;
        for rank in got {
            for (id, acc) in rank {
                let w = want[id as usize];
                assert!(
                    (acc - w).norm() < 1e-6 * w.norm().max(1e-9),
                    "id {id}: {acc:?} vs {w:?}"
                );
                count += 1;
            }
        }
        assert_eq!(count, n);
    }
}
