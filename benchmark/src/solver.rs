//! One pass of a solver trajectory through either driver, timed from
//! outside: set-up (inputs, driver construction with its initial forces,
//! warm-up steps), then exactly `ops` timed steps.
//!
//! A pass always replays the same steps of the same trajectory, so a
//! run that needs more measuring time repeats whole passes instead of
//! walking further along the trajectory, where steps cost differently.

use std::sync::Barrier;
use std::time::Instant;

use greem::{Body, ParallelTreePm, Simulation, SimulationMode, StepBreakdown, TreePmConfig};
use greem_math::Vec3;
use mpisim::World;

use crate::hostspeed::tick;
use crate::measure::{process_cpu_s, Recorder};

/// Step size of every timed and warm-up step.
pub const DT: f64 = 1e-3;

/// Step size of the force probe: small enough that positions (and so
/// forces) do not change over the step, so `Δv / DT_PROBE` is the
/// acceleration the integrator applied.
const DT_PROBE: f64 = 1e-7;

/// Virtual seconds the parallel driver charges per interaction. The
/// value every gated baseline of the repo uses; with it the balancer,
/// the decomposition, byte counts and virtual time repeat bit for bit.
const MODELED_PP_COST: f64 = 5e-9;

/// Rank grid and FFT ranks of the two-rank runs.
pub const DIV: [usize; 3] = [2, 1, 1];
const NF: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct PassPlan {
    pub warmup: usize,
    pub ops: usize,
    /// Probe the applied forces after the timed ops.
    pub probe_forces: bool,
}

/// Bodies before and after one `DT_PROBE` step, both sorted by id.
pub struct ForceProbe {
    pub before: Vec<Body>,
    pub after: Vec<Body>,
}

impl ForceProbe {
    /// The accelerations the driver applied to `probes`.
    pub fn applied(&self, probes: &[usize]) -> Vec<Vec3> {
        probes
            .iter()
            .map(|&i| (self.after[i].vel - self.before[i].vel) / DT_PROBE)
            .collect()
    }
}

/// What the timed section of a pass measured.
#[derive(Default)]
pub struct Timed {
    /// Wall seconds of each timed op.
    pub walls: Vec<f64>,
    /// Process CPU seconds (all threads) over each timed op.
    pub cpus: Vec<f64>,
    /// Host-speed ticks: one just before each op and one after the last
    /// (`hostspeed::slowdown_per_op`). They run between the ops, outside
    /// `walls` and `cpus`.
    pub ticks: Vec<f64>,
    /// Sum of the breakdowns the timed steps returned (rank 0's in a
    /// parallel run).
    pub bd: StepBreakdown,
}

impl Timed {
    /// Record `op`, which returns its own wall seconds, as the next
    /// timed op.
    fn op<T>(&mut self, op: impl FnOnce() -> (T, f64)) -> T {
        let cpu0 = process_cpu_s();
        let (out, wall) = op();
        self.cpus.push(process_cpu_s() - cpu0);
        self.walls.push(wall);
        out
    }

    /// Wall seconds of the timed ops together.
    pub fn wall_s(&self) -> f64 {
        self.walls.iter().sum()
    }

    pub fn cpu_s_per_op(&self) -> f64 {
        self.cpus.iter().sum::<f64>() / self.cpus.len() as f64
    }
}

/// Serial CPU seconds per step over two-rank CPU seconds per step (all
/// threads) on the same bodies: the share of the two-rank run's work
/// that is useful, which is the strong-scaling efficiency two free
/// cores could reach at best. CPU seconds, because the solver workloads
/// share one CPU between the ranks.
pub fn strong_scaling_eff_2(serial_cpu_s_per_op: f64, ranks2_cpu_s_per_op: f64) -> f64 {
    serial_cpu_s_per_op / ranks2_cpu_s_per_op
}

pub struct SerialPass {
    pub setup_s: f64,
    /// Host-speed ticks of the set-up: one before each warm-up op and
    /// one after the last.
    pub setup_ticks: Vec<f64>,
    /// `Simulation::new` wall seconds.
    pub new_s: f64,
    pub timed: Timed,
    pub probe: Option<ForceProbe>,
    /// Bodies after the warm-up steps, sorted by id.
    pub after_warmup: Vec<Body>,
}

/// One pass through `greem::Simulation`.
pub fn serial_pass(
    rec: &mut Recorder,
    make_bodies: &dyn Fn() -> Vec<Body>,
    cfg: TreePmConfig,
    plan: PassPlan,
) -> SerialPass {
    let mut setup_ticks = Vec::new();
    let t0 = Instant::now();
    let ((mut sim, new_s), _) = rec.span("setup", |rec| {
        let (bodies, _) = rec.span("inputs.generate", |_| make_bodies());
        let (mut sim, new_s) = rec.span("core.Simulation::new", |_| {
            Simulation::new(cfg, bodies, SimulationMode::Static)
        });
        rec.span("warmup", |_| {
            for _ in 0..plan.warmup {
                setup_ticks.push(tick());
                sim.step(DT);
            }
        });
        (sim, new_s)
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let after_warmup = sim.bodies();

    // The tick between the set-up and the first timed op counts for both.
    let mut timed = Timed::default();
    timed.ticks.push(tick());
    setup_ticks.push(timed.ticks[0]);
    for _ in 0..plan.ops {
        let bd = timed.op(|| rec.span("core.Simulation::step", |_| sim.step(DT)));
        timed.bd.accumulate(&bd);
        timed.ticks.push(tick());
    }

    let probe = plan.probe_forces.then(|| {
        let before = sim.bodies();
        sim.step(DT_PROBE);
        ForceProbe {
            before,
            after: sim.bodies(),
        }
    });
    SerialPass {
        setup_s,
        setup_ticks,
        new_s,
        timed,
        probe,
        after_warmup,
    }
}

/// Per-rank figures of one timed parallel step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankStep {
    /// Advance of this rank's virtual clock over the step.
    pub vtime: f64,
    /// The part of it that is the modelled PP charge.
    pub pp_charge: f64,
    pub bytes_sent: u64,
    pub messages_sent: u64,
    pub ghosts: usize,
    pub interactions: u64,
}

pub struct Ranks2Pass {
    pub setup_s: f64,
    /// Host-speed ticks of the set-up, as in [`SerialPass`].
    pub setup_ticks: Vec<f64>,
    /// Rank 0's view of the timed section.
    pub timed: Timed,
    /// `steps[op][rank]`.
    pub steps: Vec<Vec<RankStep>>,
    /// `ParallelTreePm::new` wall seconds (rank 0).
    pub new_s: f64,
    pub probe: Option<ForceProbe>,
    /// Bodies gathered after the warm-up steps, sorted by id.
    pub after_warmup: Vec<Body>,
}

struct RankOut {
    rec: Recorder,
    timed: Timed,
    steps: Vec<RankStep>,
    setup_s: f64,
    setup_ticks: Vec<f64>,
    new_s: f64,
    after_warmup: Option<Vec<Body>>,
    probe: Option<ForceProbe>,
}

/// One pass through `greem::ParallelTreePm` on a fresh two-rank world,
/// with `cfg` plus the modelled PP cost.
pub fn ranks2_pass(
    rec: &mut Recorder,
    make_bodies: &dyn Fn() -> Vec<Body>,
    cfg: TreePmConfig,
    plan: PassPlan,
) -> Ranks2Pass {
    let cfg = TreePmConfig {
        modeled_pp_cost: Some(MODELED_PP_COST),
        ..cfg
    };
    let t0 = Instant::now();
    let (bodies, _) = rec.span("inputs.generate", |_| make_bodies());
    let (on, epoch) = (rec.is_on(), rec.epoch());
    // Rank 0 takes the host-speed ticks. The other rank waits for it
    // here, off the CPU the two share, so that a tick never competes
    // with a rank that has run ahead into its next step.
    let quiet = Barrier::new(2);
    let (outs, _) = rec.span("mpisim.World::run", |_| {
        World::new(2).run(|ctx, world| {
            let alone = |f: &mut dyn FnMut()| {
                quiet.wait();
                if world.rank() == 0 {
                    f();
                }
                quiet.wait();
            };
            let mut rec = Recorder::new(on, epoch, 1 + world.rank());
            let root = (world.rank() == 0).then(|| bodies.clone());
            let (mut sim, new_s) = rec.span("core.ParallelTreePm::new", |_| {
                ParallelTreePm::new(ctx, world, cfg, DIV, NF, None, root, SimulationMode::Static)
            });
            let mut setup_ticks = Vec::new();
            rec.span("warmup", |_| {
                for _ in 0..plan.warmup {
                    alone(&mut || setup_ticks.push(tick()));
                    sim.step(ctx, world, DT);
                }
            });
            let after_warmup = sim.gather_bodies(ctx, world);
            let setup_s = t0.elapsed().as_secs_f64();

            let mut timed = Timed::default();
            alone(&mut || timed.ticks.push(tick()));
            setup_ticks.extend(&timed.ticks);
            let mut steps = Vec::with_capacity(plan.ops);
            for _ in 0..plan.ops {
                let (v0, c0) = (ctx.vtime(), ctx.comm_stats());
                let st = timed
                    .op(|| rec.span("core.ParallelTreePm::step", |_| sim.step(ctx, world, DT)));
                let c1 = ctx.comm_stats();
                timed.bd.accumulate(&st.breakdown);
                steps.push(RankStep {
                    vtime: ctx.vtime() - v0,
                    pp_charge: st.breakdown.interactions() as f64 * MODELED_PP_COST,
                    bytes_sent: c1.bytes_sent - c0.bytes_sent,
                    messages_sent: c1.messages_sent - c0.messages_sent,
                    ghosts: st.n_ghosts,
                    interactions: st.breakdown.interactions(),
                });
                alone(&mut || timed.ticks.push(tick()));
            }

            let probe = if plan.probe_forces {
                let before = sim.gather_bodies(ctx, world);
                sim.step(ctx, world, DT_PROBE);
                let after = sim.gather_bodies(ctx, world);
                before
                    .zip(after)
                    .map(|(before, after)| ForceProbe { before, after })
            } else {
                None
            };
            RankOut {
                rec,
                timed,
                steps,
                setup_s,
                setup_ticks,
                new_s,
                after_warmup,
                probe,
            }
        })
    });

    let mut outs = outs.into_iter();
    let r0 = outs.next().expect("rank 0 output");
    let mut steps: Vec<Vec<RankStep>> = r0.steps.iter().map(|s| vec![*s]).collect();
    rec.absorb(r0.rec);
    for r in outs {
        for (per_op, s) in steps.iter_mut().zip(&r.steps) {
            per_op.push(*s);
        }
        rec.absorb(r.rec);
    }
    Ranks2Pass {
        setup_s: r0.setup_s,
        setup_ticks: r0.setup_ticks,
        timed: r0.timed,
        steps,
        new_s: r0.new_s,
        probe: r0.probe,
        after_warmup: r0.after_warmup.expect("rank 0 gathers the bodies"),
    }
}

/// The deterministic virtual-machine figures of a pass, per op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualCosts {
    /// Mean over ops of the slowest rank's virtual-clock advance: the
    /// Table-I step time on the simulated machine.
    pub vtime_s_per_op: f64,
    /// The same minus that rank's modelled PP charge: network + waiting.
    pub vcomm_s_per_op: f64,
    /// Bytes all ranks sent, per op.
    pub comm_bytes_per_op: f64,
    pub messages_per_op: f64,
    pub interactions_per_op: f64,
    pub ghosts_per_rank: f64,
    /// Mean over ops of (max over ranks of interactions) / (mean).
    pub imbalance: f64,
}

pub fn virtual_costs(steps: &[Vec<RankStep>]) -> VirtualCosts {
    let k = steps.len() as f64;
    let mut v = VirtualCosts {
        vtime_s_per_op: 0.0,
        vcomm_s_per_op: 0.0,
        comm_bytes_per_op: 0.0,
        messages_per_op: 0.0,
        interactions_per_op: 0.0,
        ghosts_per_rank: 0.0,
        imbalance: 0.0,
    };
    for op in steps {
        let slowest = op
            .iter()
            .max_by(|a, b| a.vtime.total_cmp(&b.vtime))
            .expect("at least one rank");
        v.vtime_s_per_op += slowest.vtime / k;
        v.vcomm_s_per_op += (slowest.vtime - slowest.pp_charge) / k;
        let ranks = op.len() as f64;
        let total: u64 = op.iter().map(|s| s.interactions).sum();
        let most = op.iter().map(|s| s.interactions).max().unwrap_or(0);
        v.comm_bytes_per_op += op.iter().map(|s| s.bytes_sent).sum::<u64>() as f64 / k;
        v.messages_per_op += op.iter().map(|s| s.messages_sent).sum::<u64>() as f64 / k;
        v.interactions_per_op += total as f64 / k;
        v.ghosts_per_rank += op.iter().map(|s| s.ghosts).sum::<usize>() as f64 / ranks / k;
        v.imbalance += most as f64 / (total as f64 / ranks) / k;
    }
    v
}

/// Largest minimum-image position difference between two id-sorted body
/// sets, or `None` when the id sets differ.
pub fn max_position_gap(a: &[Body], b: &[Body]) -> Option<f64> {
    if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.id != y.id) {
        return None;
    }
    Some(
        a.iter()
            .zip(b)
            .map(|(x, y)| greem_math::min_image_vec(x.pos, y.pos).norm())
            .fold(0.0, f64::max),
    )
}
