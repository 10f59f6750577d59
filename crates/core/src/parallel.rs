//! The distributed TreePM driver: domains, ghosts, and the full
//! per-step pipeline over `mpisim`.
//!
//! Each rank owns the particles inside its rectangular domain (3-D
//! multisection, `greem-domain`) of the periodic box. A step is the
//! paper's cycle, run by the one loop of [`crate::integrator`] on this
//! rank's hooks:
//!
//! 1. PM half kick (long-range force from the previous cycle),
//! 2. two PP sub-cycles: short-range kick → drift → **domain
//!    decomposition** (sampling-method rebalance + particle exchange)
//!    → boundary-particle import → local tree + group walk + kernel →
//!    closing short-range kick,
//! 3. collective PM solve at the new positions, closing PM half kick.
//!
//! Both sub-cycles walk afresh (the ghost set changes every cycle), and
//! the integrator is always leapfrog. Every phase charges the Table-I
//! row it corresponds to; communication rows use the simulated network
//! clock.

use greem_domain::{
    exchange, exchange_rows, BalancerParams, BalancerState, DomainGrid, SamplingBalancer,
};
use greem_math::{wrap01, Aabb, Vec3};
use greem_obs::trace::timed_phase;
use greem_perfmodel::tableone::{PARTICLE_EXCHANGE, PP_COMMUNICATION, SAMPLING_METHOD};
use greem_pm::{ParallelPm, ParallelPmConfig};
use mpisim::{Comm, Ctx};

use crate::config::{Boundary, TreePmConfig};
use crate::integrator::{schedule, Driver, IntegratorKind, KdkState};
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

/// The distributed TreePM simulation state of one rank.
pub struct ParallelTreePm {
    cfg: TreePmConfig,
    pm: ParallelPm,
    balancer: SamplingBalancer,
    grid: DomainGrid,
    mode: SimulationMode,
    /// Owned particles, Morton-resident: the PP engine re-permutes the
    /// store's rows into tree order at every cycle.
    kdk: KdkState,
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
    /// initial snapshot on world rank 0 (`None` elsewhere); it is
    /// scattered to the initial uniform decomposition. `div` must
    /// multiply to the world size; the boundary must be periodic. `nf`
    /// FFT ranks; `relay_groups` as in [`ParallelPmConfig`].
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
            cfg.boundary,
            Boundary::Periodic,
            "the parallel driver's domains, drift and PM are periodic"
        );
        assert_eq!(
            bodies_on_root.is_some(),
            world.rank() == 0,
            "exactly the root supplies bodies"
        );
        let pm_cfg = ParallelPmConfig {
            n_mesh: cfg.n_mesh,
            r_cut: cfg.r_cut,
            deconvolve: cfg.deconvolve,
            nf,
            relay_groups,
        };
        let pm = ParallelPm::new(ctx, world, pm_cfg);
        let balancer = SamplingBalancer::new(BalancerParams::new(div, (64 * p).max(512)));
        let grid = balancer.current();
        // Scatter the snapshot from the root to the uniform grid.
        let mine = {
            let all = bodies_on_root.unwrap_or_default();
            let grid = grid.clone();
            exchange(ctx, world, all, move |b: &Body| {
                grid.rank_of_point(wrap01(b.pos))
            })
        };
        let mut sim = ParallelTreePm {
            cfg,
            pm,
            balancer,
            grid,
            mode,
            kdk: KdkState::new(ParticleStore::from_bodies(&mine), cfg.boundary),
            engine: ResidentPp::new(),
            last_cost: 1.0,
            n_ghosts: 0,
            steps: 0,
        };
        // Initial forces so the first kick is consistent.
        sim.on(ctx, world).refresh();
        sim
    }

    /// This rank's owned bodies, materialised from the resident store
    /// in its current (Morton) row order.
    pub fn bodies(&self) -> Vec<Body> {
        self.kdk.store.to_bodies()
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
    /// [`TreePmConfig::modeled_pp_cost`] is set, wall seconds
    /// otherwise). Online imbalance detectors allgather this to see the
    /// load skew the way the balancer sees it.
    pub fn last_pp_cost(&self) -> f64 {
        self.last_cost
    }

    /// Capture this rank's resumable state (see [`RankState`]).
    pub fn rank_state(&self) -> RankState {
        RankState {
            step: self.steps,
            mode: self.mode,
            balancer: self.balancer.state(),
            // The store's current row order IS the semantic order (the
            // Morton sort tie-breaks on slot), so a round trip through
            // this AoS view resumes bit-identically.
            bodies: self.kdk.store.to_bodies(),
        }
    }

    /// Collectively restore a state captured by
    /// [`ParallelTreePm::rank_state`]: every rank supplies its own
    /// shard. The domain exchange re-enforces ownership (after a crash
    /// the in-memory bodies are garbage; the checkpointed ones already
    /// sit in their owner's shard, so the exchange is a cheap identity
    /// re-route) and both force fields are recomputed so the next kick
    /// sees exactly what the original run saw.
    pub fn restore_rank_state(&mut self, ctx: &mut Ctx, world: &Comm, st: RankState) {
        let _span = greem_obs::trace::span("resil", "treepm.restore");
        self.steps = st.step;
        self.mode = st.mode;
        self.balancer.restore(st.balancer);
        self.grid = self.balancer.current();
        let grid = self.grid.clone();
        let mine = exchange(ctx, world, st.bodies, move |b: &Body| {
            grid.rank_of_point(wrap01(b.pos))
        });
        self.kdk.store = ParticleStore::from_bodies(&mine);
        self.on(ctx, world).refresh();
    }

    /// Gather the full snapshot on world rank 0 (diagnostics).
    pub fn gather_bodies(&self, ctx: &mut Ctx, world: &Comm) -> Option<Vec<Body>> {
        world
            .gather(ctx, 0, self.kdk.store.to_bodies())
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
        let (cycles, mode) = schedule(self.mode, IntegratorKind::Leapfrog, dt_or_a_next);
        let mut bd = StepBreakdown::default();
        self.on(ctx, world).run(&cycles, &mut bd);
        self.mode = mode;
        self.steps += 1;
        span.arg("interactions", bd.walk.interactions as f64);
        span.arg("n_owned", self.kdk.store.len() as f64);
        ParallelStepStats {
            breakdown: bd,
            n_owned: self.kdk.store.len(),
            n_ghosts: self.n_ghosts,
        }
    }

    /// This rank's hooks for the step loop.
    fn on<'a>(&'a mut self, ctx: &'a mut Ctx, world: &'a Comm) -> OnRank<'a> {
        OnRank {
            sim: self,
            ctx,
            world,
        }
    }

    /// Import boundary particles: everything of mine within `r_cut` of
    /// another rank's domain goes there as a ghost.
    fn exchange_ghosts(&self, ctx: &mut Ctx, world: &Comm) -> Vec<(Vec3, f64)> {
        let p = world.size();
        let rc2 = self.cfg.r_cut * self.cfg.r_cut;
        let domains: Vec<Aabb> = (0..p).map(|r| self.grid.domain(r)).collect();
        let mut send: Vec<Vec<(Vec3, f64)>> = (0..p).map(|_| Vec::new()).collect();
        let me = world.rank();
        for i in 0..self.kdk.store.len() {
            let pos = self.kdk.store.pos(i);
            let mass = self.kdk.store.mass_column()[i];
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

/// One rank's hooks for the step loop: the driver with this rank's
/// context and communicator.
struct OnRank<'a> {
    sim: &'a mut ParallelTreePm,
    ctx: &'a mut Ctx,
    world: &'a Comm,
}

impl Driver for OnRank<'_> {
    fn kdk(&mut self) -> &mut KdkState {
        &mut self.sim.kdk
    }

    /// Sampling-method rebalance + particle exchange.
    fn decompose(&mut self, bd: &mut StepBreakdown) {
        let OnRank { sim, ctx, world } = self;
        // Rebalance with the measured force cost as the sampling weight.
        let v0 = ctx.vtime();
        let row = &mut bd.dd_sampling_method;
        sim.grid = timed_phase("step", SAMPLING_METHOD.key, row, || {
            let pos = sim.kdk.store.positions();
            sim.balancer.rebalance(ctx, world, &pos, sim.last_cost)
        });
        bd.dd_sampling_method += ctx.vtime() - v0;

        // Route every particle to its (possibly new) owner. The store's
        // columns travel as packed 64-byte rows (pos, vel, mass, id) —
        // the same wire size as the AoS `Body` they replace.
        let v0 = ctx.vtime();
        let row = &mut bd.dd_particle_exchange;
        sim.kdk.store = timed_phase("step", PARTICLE_EXCHANGE.key, row, || {
            let grid = sim.grid.clone();
            let rows = exchange_rows(ctx, world, sim.kdk.store.to_packed(), move |r| {
                grid.rank_of_point(Vec3::new(r[0], r[1], r[2]))
            });
            ParticleStore::from_packed(&rows)
        });
        bd.dd_particle_exchange += ctx.vtime() - v0;
    }

    /// Ghost import, then the resident engine's walking pass over owned
    /// rows plus ghosts (Morton sort over both, owned-row permutation of
    /// the store, persistent-arena build, group walk + kernel, one group
    /// after another on this rank's thread). Both sub-cycles walk afresh:
    /// no lists are recorded.
    fn pp_cycle(&mut self, _second: bool, bd: &mut StepBreakdown) {
        let OnRank { sim, ctx, world } = self;
        // Boundary communication.
        let v0 = ctx.vtime();
        let ghosts = timed_phase(
            "step",
            PP_COMMUNICATION.key,
            &mut bd.pp_communication,
            || sim.exchange_ghosts(ctx, world),
        );
        sim.n_ghosts = ghosts.len();
        bd.pp_communication += ctx.vtime() - v0;

        let mut span = greem_obs::trace::span("step", "pp.walk_force");
        let (accel, pass) =
            sim.engine
                .walk(&sim.cfg, &mut sim.kdk.store, &ghosts, &mut [], None, true);
        span.arg("interactions", pass.walk.interactions as f64);
        bd.accumulate(&pass);
        sim.last_cost = match sim.cfg.modeled_pp_cost {
            Some(per_interaction) => {
                // Charge the walk to the virtual clock and feed the
                // balancer the charged (straggler-scaled, deterministic)
                // time instead of a wall-clock measurement.
                let v0 = ctx.vtime();
                ctx.compute(pass.walk.interactions as f64 * per_interaction);
                (ctx.vtime() - v0).max(1e-30)
            }
            None => (pass.pp_tree_traversal + pass.pp_force_calculation).max(1e-9),
        };
        sim.kdk.pp_accel = accel;
    }

    /// Collective PM cycle at the current positions.
    fn pm_cycle(&mut self, bd: &mut StepBreakdown) {
        let _span = greem_obs::trace::span("step", "pm.solve");
        let OnRank { sim, ctx, world } = self;
        let dom = sim.grid.domain(world.rank());
        let store = &sim.kdk.store;
        let (lo, hi) = (dom.lo.to_array(), dom.hi.to_array());
        let (accel, times) = sim
            .pm
            .solve(ctx, world, lo, hi, &store.positions(), &store.masses());
        bd.pm.accumulate(&times);
        sim.kdk.pm_accel = accel;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::TreePm;
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
        let mut serial =
            crate::simulation::Simulation::new(cfg, bodies.clone(), SimulationMode::Static);
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

    /// The ranks' domains, drift and PM solve are periodic; an isolated
    /// config would mix two boundaries in one run, so it is refused.
    #[test]
    #[should_panic(expected = "the parallel driver's domains, drift and PM are periodic")]
    fn isolated_boundary_is_refused() {
        World::new(1).with_net(NetModel::free()).run(|ctx, world| {
            let cfg = TreePmConfig::isolated(16);
            let bodies = Some(rand_bodies(8, 3));
            let mode = SimulationMode::Static;
            ParallelTreePm::new(ctx, world, cfg, [1, 1, 1], 1, None, bodies, mode);
        });
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
            sim.on(ctx, world).pp_cycle(false, &mut bd);
            sim.kdk
                .store
                .to_bodies()
                .iter()
                .zip(&sim.kdk.pp_accel)
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
