//! Failure detection and the rollback-restart loop.
//!
//! [`ResilientSim`] wraps the distributed [`ParallelTreePm`] driver
//! with the discipline every at-scale N-body campaign runs on:
//!
//! 1. **Health check** before each step: every rank polls its injected
//!    crash flag ([`Ctx::take_crash`]) and the world allreduces them.
//!    A positive count means a rank just died; all survivors charge the
//!    plan's detection timeout to their virtual clocks (the cost of
//!    noticing a peer has gone silent) and enter recovery.
//! 2. **Rollback**: the last good sharded generation is reloaded
//!    (falling back across corrupt generations — see [`crate::ckpt`]),
//!    the domain exchange redistributes the shards to their owners,
//!    the balancer's feedback history and the step counter rewind, and
//!    both force fields are recomputed. The crashed rank's in-memory
//!    state is never consulted: a restore after `take_crash` fires is
//!    indistinguishable from a replacement process joining.
//! 3. **Checkpoint** every `every` steps: sharded, checksummed,
//!    atomically renamed, manifest last.
//!
//! Because the solver's balancer feedback runs on *modelled* cost
//! (`TreePmConfig::modeled_pp_cost`), the recovered trajectory is
//! bitwise identical to an uninterrupted run — `crates/resil/tests/`
//! proves it. Faults cost only virtual time, never physics.

use std::path::PathBuf;

use greem::ParallelTreePm;
use mpisim::{Comm, Ctx};

use crate::ckpt::{load_sharded, remove_generation, write_sharded, CkptError};

/// Knobs of the recovery loop.
#[derive(Debug, Clone)]
pub struct ResilConfig {
    /// Directory holding the sharded checkpoint generations.
    pub dir: PathBuf,
    /// Checkpoint every this many completed steps.
    pub every: u64,
    /// Abort after this many rollbacks (guards against a fault plan
    /// that kills every re-execution).
    pub max_rollbacks: u32,
    /// Modelled checkpoint I/O bandwidth in bytes per virtual second;
    /// shard reads/writes charge `bytes / bandwidth` to the clock.
    pub io_bandwidth: f64,
    /// Keep this many most-recent generations on disk (older ones are
    /// garbage-collected after a successful checkpoint).
    pub keep_generations: u64,
    /// When set (and the `obs` feature is on), each rank keeps a
    /// bounded flight recorder of recent spans/metrics and dumps a
    /// post-mortem bundle into this directory the moment the health
    /// check detects a crash (`<dir>/crash-step<k>-r<rank>-<n>.json`).
    pub flight_dir: Option<PathBuf>,
    /// Flight-recorder ring capacity (spans and metric lines each).
    pub flight_capacity: usize,
}

impl ResilConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResilConfig {
            dir: dir.into(),
            every: 3,
            max_rollbacks: 8,
            io_bandwidth: 1e9,
            keep_generations: 2,
            flight_dir: None,
            flight_capacity: 256,
        }
    }

    /// Enable the flight recorder, dumping bundles into `dir`.
    pub fn with_flight(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flight_dir = Some(dir.into());
        self
    }
}

/// Per-rank recovery counters. The collective fields (crashes,
/// rollbacks, checkpoints, byte totals) are identical on every rank;
/// `lost_vtime` and the transport-fault counters are per-rank — use
/// [`aggregate`] to fold a whole world into one report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Crash events the health check surfaced (collective).
    pub crashes_detected: u64,
    /// Rollback-restarts performed (collective).
    pub rollbacks: u64,
    /// Checkpoints written (collective).
    pub checkpoints_written: u64,
    /// Total bytes written across all ranks' shards (collective).
    pub checkpoint_bytes: u64,
    /// Total bytes re-read across all ranks during rollbacks (collective).
    pub recovered_bytes: u64,
    /// Virtual seconds of completed work discarded by rollbacks (this
    /// rank's clock).
    pub lost_vtime: f64,
    /// Messages that suffered injected drops (this rank, receiver side).
    pub dropped_messages: u64,
    /// Retransmissions waited for (this rank).
    pub retried_messages: u64,
    /// Messages that arrived with injected delay (this rank).
    pub delayed_messages: u64,
}

#[cfg(feature = "obs")]
impl greem_obs::Observe for RecoveryStats {
    fn observe(&self, reg: &mut greem_obs::Registry) {
        reg.counter_add("resil_crashes_detected", self.crashes_detected as f64);
        reg.counter_add("resil_rollbacks", self.rollbacks as f64);
        reg.counter_add("resil_checkpoints_written", self.checkpoints_written as f64);
        reg.counter_add("resil_checkpoint_bytes", self.checkpoint_bytes as f64);
        reg.counter_add("resil_recovered_bytes", self.recovered_bytes as f64);
        reg.counter_add("resil_lost_vtime_seconds", self.lost_vtime);
        reg.counter_add("resil_messages_dropped", self.dropped_messages as f64);
        reg.counter_add("resil_messages_retried", self.retried_messages as f64);
        reg.counter_add("resil_messages_delayed", self.delayed_messages as f64);
    }
}

/// Fold a whole world's per-rank stats into one report: collective
/// fields from rank 0, worst-case `lost_vtime`, summed transport
/// counters.
pub fn aggregate(per_rank: &[RecoveryStats]) -> RecoveryStats {
    let mut out = per_rank.first().copied().unwrap_or_default();
    out.lost_vtime = 0.0;
    out.dropped_messages = 0;
    out.retried_messages = 0;
    out.delayed_messages = 0;
    for s in per_rank {
        out.lost_vtime = out.lost_vtime.max(s.lost_vtime);
        out.dropped_messages += s.dropped_messages;
        out.retried_messages += s.retried_messages;
        out.delayed_messages += s.delayed_messages;
    }
    out
}

/// Why a resilient run gave up.
#[derive(Debug)]
pub enum ResilError {
    /// Checkpoint machinery failed (and no older generation saved us).
    Ckpt(CkptError),
    /// More rollbacks than [`ResilConfig::max_rollbacks`].
    TooManyRollbacks { limit: u32 },
}

impl std::fmt::Display for ResilError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilError::Ckpt(e) => write!(f, "recovery failed: {e}"),
            ResilError::TooManyRollbacks { limit } => {
                write!(f, "gave up after {limit} rollbacks")
            }
        }
    }
}

impl std::error::Error for ResilError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResilError::Ckpt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CkptError> for ResilError {
    fn from(e: CkptError) -> Self {
        ResilError::Ckpt(e)
    }
}

/// The fault-tolerant step driver (see the module docs).
pub struct ResilientSim {
    sim: ParallelTreePm,
    cfg: ResilConfig,
    stats: RecoveryStats,
    /// Next generation number to write.
    generation: u64,
    /// This rank's clock when the last checkpoint completed (measures
    /// the virtual time a rollback throws away).
    vtime_at_ckpt: f64,
    /// Per-rank flight recorder (see [`ResilConfig::flight_dir`]).
    #[cfg(feature = "obs")]
    flight: Option<greem_obs::FlightRecorder>,
}

impl ResilientSim {
    /// Wrap `sim` and immediately write generation 0 (so a crash on the
    /// very first step has something to roll back to).
    pub fn new(
        ctx: &mut Ctx,
        world: &Comm,
        sim: ParallelTreePm,
        cfg: ResilConfig,
    ) -> Result<Self, ResilError> {
        std::fs::create_dir_all(&cfg.dir).map_err(CkptError::Io)?;
        world.barrier(ctx); // no rank writes before the dir exists
        #[cfg(feature = "obs")]
        let flight = cfg
            .flight_dir
            .is_some()
            .then(|| greem_obs::FlightRecorder::new(world.rank(), cfg.flight_capacity));
        let mut s = ResilientSim {
            sim,
            cfg,
            stats: RecoveryStats::default(),
            generation: 0,
            vtime_at_ckpt: ctx.vtime(),
            #[cfg(feature = "obs")]
            flight,
        };
        s.checkpoint(ctx, world)?;
        Ok(s)
    }

    /// The wrapped simulation.
    pub fn sim(&self) -> &ParallelTreePm {
        &self.sim
    }

    /// Unwrap.
    pub fn into_inner(self) -> ParallelTreePm {
        self.sim
    }

    /// Recovery counters so far (transport counters are folded in at
    /// the end of [`ResilientSim::run`]).
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Drive the simulation through `dts` (one entry per step; for
    /// cosmological mode these are target scale factors), detecting
    /// crashes, rolling back and re-executing as needed. On success the
    /// final state is exactly `dts.len()` completed steps.
    pub fn run(
        &mut self,
        ctx: &mut Ctx,
        world: &Comm,
        dts: &[f64],
    ) -> Result<RecoveryStats, ResilError> {
        self.run_with(ctx, world, dts, |_, _, _, _| ())
    }

    /// Like [`ResilientSim::run`], but invokes `on_step` after every
    /// *successfully completed* step (never for steps that are later
    /// rolled back — re-executions after a rollback do call it again).
    /// This is the hook online monitors (`greem-analysis`) attach to;
    /// any collectives the hook performs must be collective across the
    /// whole world, like the step itself.
    pub fn run_with(
        &mut self,
        ctx: &mut Ctx,
        world: &Comm,
        dts: &[f64],
        mut on_step: impl FnMut(&mut Ctx, &Comm, &ParallelTreePm, &greem::ParallelStepStats),
    ) -> Result<RecoveryStats, ResilError> {
        self.run_with_stats(ctx, world, dts, |ctx, world, sim, st, _| {
            on_step(ctx, world, sim, st)
        })
    }

    /// Like [`ResilientSim::run_with`], but the hook also receives the
    /// driver's [`RecoveryStats`] *as of the just-completed step*. This
    /// is how an online consumer (the `greem-serve` snapshot publisher)
    /// tags each step with the rollback/crash counters without waiting
    /// for the run to finish — a subscriber watching the stream sees
    /// the rollback counter jump when a mid-job fault was recovered.
    /// Transport counters (drops/retries/delays) are only folded in at
    /// the end of the run, exactly as in [`ResilientSim::run`].
    pub fn run_with_stats(
        &mut self,
        ctx: &mut Ctx,
        world: &Comm,
        dts: &[f64],
        mut on_step: impl FnMut(
            &mut Ctx,
            &Comm,
            &ParallelTreePm,
            &greem::ParallelStepStats,
            &RecoveryStats,
        ),
    ) -> Result<RecoveryStats, ResilError> {
        while (self.sim.steps_taken() as usize) < dts.len() {
            let k = self.sim.steps_taken();
            ctx.set_fault_step(k);
            if self.health_check(ctx, world) {
                self.rollback(ctx, world)?;
                continue;
            }
            let st = self.sim.step(ctx, world, dts[k as usize]);
            on_step(ctx, world, &self.sim, &st, &self.stats);
            #[cfg(feature = "obs")]
            if let Some(fr) = self.flight.as_mut() {
                fr.record_step(
                    self.sim.steps_taken(),
                    ctx.vtime(),
                    &[
                        ("pp_cost", self.sim.last_pp_cost()),
                        ("rollbacks", self.stats.rollbacks as f64),
                        ("interactions", st.breakdown.interactions() as f64),
                    ],
                );
                fr.absorb_recent();
            }
            if self.sim.steps_taken().is_multiple_of(self.cfg.every) {
                self.checkpoint(ctx, world)?;
            }
        }
        let fs = ctx.fault_stats();
        self.stats.dropped_messages = fs.messages_dropped;
        self.stats.retried_messages = fs.retries;
        self.stats.delayed_messages = fs.messages_delayed;
        Ok(self.stats)
    }

    /// Collective crash probe. True when any rank died this step; all
    /// survivors pay the detection timeout.
    fn health_check(&mut self, ctx: &mut Ctx, world: &Comm) -> bool {
        #[cfg(feature = "obs")]
        let _span = greem_obs::trace::span("resil", "resil.health_check");
        let mine = ctx.take_crash() as u64;
        let crashed = world.allreduce(ctx, vec![mine], |a, b| *a += *b)[0];
        if crashed == 0 {
            return false;
        }
        self.stats.crashes_detected += crashed;
        let timeout = ctx.fault_plan().map_or(0.0, |p| p.detect_timeout());
        ctx.compute(timeout);
        #[cfg(feature = "obs")]
        greem_obs::trace::instant(
            "resil",
            "resil.crash_detected",
            &[("ranks", crashed as f64)],
        );
        #[cfg(feature = "obs")]
        self.flight_dump(world, crashed);
        true
    }

    /// Post-mortem: write this rank's flight-recorder bundle (recent
    /// spans + metric lines + recovery-counter snapshot + the crash
    /// verdict). Best-effort — a failed dump must never abort recovery.
    #[cfg(feature = "obs")]
    fn flight_dump(&mut self, world: &Comm, crashed: u64) {
        let (Some(fr), Some(dir)) = (self.flight.as_mut(), self.cfg.flight_dir.as_ref()) else {
            return;
        };
        let step = self.sim.steps_taken();
        let mut reg = greem_obs::Registry::new();
        greem_obs::Observe::observe(&self.stats, &mut reg);
        let verdict = greem_obs::FlightVerdict {
            detector: "fault.crash".into(),
            step,
            rank: -1, // collective detection; the dead rank is silent
            value: crashed as f64,
            threshold: 0.0,
        };
        let tag = format!("crash-step{step}-r{}-{}", world.rank(), fr.dumps());
        fr.dump(
            dir,
            &tag,
            "crash detected by health check",
            Some(&reg),
            &[verdict],
        )
        .ok();
    }

    /// Flight-recorder bundles written by this rank so far.
    pub fn flight_dumps(&self) -> u64 {
        #[cfg(feature = "obs")]
        {
            self.flight.as_ref().map_or(0, |f| f.dumps())
        }
        #[cfg(not(feature = "obs"))]
        {
            0
        }
    }

    fn checkpoint(&mut self, ctx: &mut Ctx, world: &Comm) -> Result<(), ResilError> {
        #[cfg(feature = "obs")]
        let mut _span = greem_obs::trace::span("resil", "resil.checkpoint");
        let gen = self.generation;
        let st = self.sim.rank_state();
        let bytes = write_sharded(ctx, world, &self.cfg.dir, gen, &st)?;
        ctx.compute(bytes as f64 / self.cfg.io_bandwidth);
        let total = world.allreduce(ctx, vec![bytes], |a, b| *a += *b)[0];
        self.stats.checkpoints_written += 1;
        self.stats.checkpoint_bytes += total;
        self.generation += 1;
        self.vtime_at_ckpt = ctx.vtime();
        if gen >= self.cfg.keep_generations && world.rank() == 0 {
            remove_generation(&self.cfg.dir, gen - self.cfg.keep_generations, world.size());
        }
        #[cfg(feature = "obs")]
        {
            _span.arg("generation", gen as f64);
            _span.arg("bytes", bytes as f64);
        }
        Ok(())
    }

    fn rollback(&mut self, ctx: &mut Ctx, world: &Comm) -> Result<(), ResilError> {
        #[cfg(feature = "obs")]
        let mut _span = greem_obs::trace::span("resil", "resil.rollback");
        self.stats.rollbacks += 1;
        if self.stats.rollbacks > self.cfg.max_rollbacks as u64 {
            return Err(ResilError::TooManyRollbacks {
                limit: self.cfg.max_rollbacks,
            });
        }
        self.stats.lost_vtime += (ctx.vtime() - self.vtime_at_ckpt).max(0.0);
        let (gen, st, bytes) = load_sharded(ctx, world, &self.cfg.dir)?;
        ctx.compute(bytes as f64 / self.cfg.io_bandwidth);
        let total = world.allreduce(ctx, vec![bytes], |a, b| *a += *b)[0];
        self.stats.recovered_bytes += total;
        self.generation = gen + 1;
        #[cfg(feature = "obs")]
        {
            _span.arg("generation", gen as f64);
            _span.arg("resumed_step", st.step as f64);
        }
        self.sim.restore_rank_state(ctx, world, st);
        self.vtime_at_ckpt = ctx.vtime();
        Ok(())
    }
}
