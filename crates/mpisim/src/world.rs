//! Launching an SPMD world of simulated ranks.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use crossbeam::channel::unbounded;

use crate::clock::{RankWire, Wire};
use crate::comm::Comm;
use crate::ctx::{Ctx, Message};
use crate::engine::Engine;
use crate::fault::{FaultCtx, FaultPlan};
use crate::netmodel::NetModel;
use crate::script::{self, Script, ScriptOutcome};
use crate::topology::Torus3d;

/// Builder for a simulated world: rank count, topology, network model.
///
/// ```
/// use mpisim::{World, NetModel};
///
/// let sums = World::new(4).run(|ctx, world| {
///     let me = vec![ctx.world_rank() as u64];
///     let all = world.allreduce(ctx, me, |a, b| *a += *b);
///     all[0]
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
pub struct World {
    n: usize,
    topo: Torus3d,
    net: NetModel,
    /// Phantom mode: `Some(representatives)` switches
    /// [`World::run_script`] to the single-threaded event engine.
    phantoms: Option<Vec<usize>>,
    faults: Option<Arc<FaultPlan>>,
}

impl World {
    /// A world of `n` ranks on a roughly cubic torus with the
    /// K-computer-like default network model.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "world needs at least one rank");
        World {
            n,
            topo: Torus3d::roughly_cubic(n),
            net: NetModel::default(),
            phantoms: None,
            faults: None,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Use an explicit torus shape (must hold exactly `n` ranks).
    pub fn with_topology(mut self, topo: Torus3d) -> Self {
        assert_eq!(topo.len(), self.n, "topology size must equal rank count");
        self.topo = topo;
        self
    }

    /// Use an explicit network cost model.
    pub fn with_net(mut self, net: NetModel) -> Self {
        self.net = net;
        self
    }

    /// Attach a seeded [`FaultPlan`]: every rank draws its faults from
    /// this shared, replayable schedule.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Switch to phantom-rank thinning: [`World::run_script`] runs on
    /// the single-threaded event engine, with only the listed
    /// `representatives` executing the script's real-work hooks and
    /// every other rank a lightweight phantom that replays the cost
    /// schedule with size-only messages (bytes/hops/vtime preserved,
    /// payload contents elided — DESIGN.md §16). An empty list is a
    /// fully phantom world. [`World::run`] is incompatible with this
    /// mode (closures need real payloads) and will panic.
    pub fn with_phantoms(mut self, representatives: impl IntoIterator<Item = usize>) -> Self {
        let mut reps: Vec<usize> = representatives.into_iter().collect();
        reps.sort_unstable();
        reps.dedup();
        assert!(
            reps.iter().all(|&r| r < self.n),
            "representative rank out of range"
        );
        self.phantoms = Some(reps);
        self
    }

    /// Execute a [`Script`] on every rank and collect per-rank
    /// timelines. On a plain world this spawns one thread per rank
    /// (real payloads — the reference semantics); on a
    /// [`World::with_phantoms`] world it runs the event-driven phantom
    /// engine, which produces bitwise-identical timelines at a tiny
    /// fraction of the host cost, making 10⁴–10⁵-rank worlds cheap.
    pub fn run_script(mut self, script: &Script) -> ScriptOutcome {
        if let Some(reps) = self.phantoms.take() {
            let wire = Wire {
                net: self.net,
                topo: self.topo,
                trace: false,
            };
            let engine = Engine::new(self.n, wire, self.faults.clone());
            return engine.run(script, &reps);
        }
        let phases = script.phases().to_vec();
        let timelines = self.run(|ctx, world| script::interpret_threaded(script, ctx, world));
        ScriptOutcome {
            phases,
            timelines,
            engine: None,
        }
    }

    /// Run `f` on every rank (one host thread per rank) and collect the
    /// per-rank return values in rank order. `f` receives the rank's
    /// [`Ctx`] and the world communicator.
    ///
    /// Panics in any rank propagate (the world aborts), so test failures
    /// inside ranks surface normally.
    pub fn run<T, F>(self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Ctx, &Comm) -> T + Send + Sync,
    {
        assert!(
            self.phantoms.is_none(),
            "phantom worlds execute scripts: use World::run_script"
        );
        let n = self.n;
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded::<Message>()).unzip();
        let senders = Arc::new(senders);
        let comm_counter = Arc::new(AtomicU64::new(1)); // id 0 = world
        let f = &f;
        let wire = Wire {
            net: self.net,
            topo: self.topo,
            trace: true,
        };

        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (rank, inbox) in receivers.into_iter().enumerate() {
                let senders = Arc::clone(&senders);
                let comm_counter = Arc::clone(&comm_counter);
                let plan = self.faults.clone();
                handles.push(scope.spawn(move || {
                    let mut ctx = Ctx {
                        rank,
                        size: n,
                        inbox,
                        pending: Vec::new(),
                        outboxes: senders.as_ref().clone(),
                        wire,
                        charge: RankWire {
                            faults: plan.map(|p| Box::new(FaultCtx::new(p))),
                            ..Default::default()
                        },
                        comm_counter,
                    };
                    // Tag this host thread as rank `rank` for the tracer
                    // and seed its virtual clock, so spans recorded inside
                    // `f` land on the right per-rank timeline.
                    greem_obs::trace::set_rank(rank);
                    greem_obs::trace::set_vtime(0.0);
                    let world = Comm::world(n, rank);
                    let out = f(&mut ctx, &world);
                    greem_obs::trace::clear_vtime();
                    out
                }));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(v) => out[rank] = Some(v),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
        out.into_iter()
            .map(|v| v.expect("rank produced no value"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world() {
        let out = World::new(1).run(|ctx, world| {
            assert_eq!(ctx.world_rank(), 0);
            assert_eq!(world.size(), 1);
            42
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn ranks_see_their_ids() {
        let out = World::new(6).run(|ctx, _| ctx.world_rank());
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn compute_advances_vtime() {
        let times = World::new(2).with_net(NetModel::free()).run(|ctx, _| {
            ctx.compute(1.5);
            ctx.vtime()
        });
        assert_eq!(times, vec![1.5, 1.5]);
    }

    #[test]
    #[should_panic]
    fn rank_panics_propagate() {
        World::new(2).run(|ctx, _| {
            if ctx.world_rank() == 1 {
                panic!("boom");
            }
        });
    }

    mod faults {
        use super::super::*;
        use crate::fault::FaultPlan;

        #[test]
        fn straggler_scales_compute() {
            let times = World::new(3)
                .with_net(NetModel::free())
                .with_faults(FaultPlan::new(0).straggler(1, 4.0))
                .run(|ctx, _| {
                    ctx.compute(1.0);
                    ctx.vtime()
                });
            assert_eq!(times, vec![1.0, 4.0, 1.0]);
        }

        #[test]
        fn straggler_window_respects_fault_step() {
            let times = World::new(2)
                .with_net(NetModel::free())
                .with_faults(FaultPlan::new(0).straggler_window(0, 3.0, 2, 4))
                .run(|ctx, _| {
                    for step in 0..6 {
                        ctx.set_fault_step(step);
                        ctx.compute(1.0);
                    }
                    ctx.vtime()
                });
            // Rank 0 pays 3x on steps 2 and 3 only: 4·1 + 2·3 = 10.
            assert_eq!(times, vec![10.0, 6.0]);
        }

        #[test]
        fn drops_charge_receiver_and_keep_payloads() {
            let plan = FaultPlan::new(11)
                .drop_messages(0.5)
                .delay_messages(0.5, 1e-3);
            let outs = World::new(4).with_faults(plan).run(|ctx, world| {
                // Heavy traffic: allreduce must still be correct.
                let v = vec![ctx.world_rank() as u64];
                let sum = world.allreduce(ctx, v, |a, b| *a += *b)[0];
                (sum, ctx.fault_stats(), ctx.vtime())
            });
            let total: u64 = (0..4).sum();
            let agg = outs.iter().fold(crate::FaultStats::default(), |mut a, o| {
                a.merge(&o.1);
                a
            });
            for (sum, _, _) in &outs {
                assert_eq!(*sum, total, "faults must never corrupt payloads");
            }
            assert!(
                agg.messages_dropped > 0 && agg.messages_delayed > 0,
                "p=0.5 on an allreduce should hit something: {agg:?}"
            );
            assert!(agg.retry_vtime > 0.0 && agg.delay_vtime > 0.0);
            assert!(agg.retries >= agg.messages_dropped);
        }

        #[test]
        fn empty_plan_matches_no_plan_exactly() {
            let body = |ctx: &mut Ctx, world: &Comm| {
                let v = vec![ctx.world_rank() as f64; 100];
                world.allreduce(ctx, v, |a, b| *a += *b);
                ctx.compute(0.5);
                world.barrier(ctx);
                ctx.vtime()
            };
            let clean = World::new(4).run(body);
            let empty = World::new(4).with_faults(FaultPlan::new(123)).run(body);
            assert_eq!(clean, empty, "an empty plan must not perturb timing");
        }

        #[test]
        fn crash_fires_once_via_ctx() {
            let fired = World::new(3)
                .with_faults(FaultPlan::new(0).crash(2, 1))
                .run(|ctx, _| {
                    let mut fired = 0;
                    for step in 0..4 {
                        ctx.set_fault_step(step);
                        if ctx.take_crash() {
                            fired += 1;
                        }
                    }
                    fired
                });
            assert_eq!(fired, vec![0, 0, 1]);
        }
    }
}
