//! Job configuration, validation and execution.
//!
//! A job is one bounded TreePM run on the simulated machine: the
//! submitted JSON picks the particle count, step count, rank count and
//! an optional fault scenario, and the daemon executes it on a worker
//! thread with `ResilientSim` underneath — so a `crash` scenario job
//! rolls back to the last sharded checkpoint and *finishes*, with
//! its snapshot stream continuing across the fault.
//!
//! Every completed step, the world gathers bodies to rank 0, which
//! publishes a [`SnapshotMsg`] into the job's broadcast ring: step
//! index, recovery counters *as of that step* (subscribers watch the
//! rollback counter jump when a fault is recovered), halo count and a
//! coarse projected-density thumbnail. Validation caps every knob so a
//! hostile or fat-fingered submission cannot wedge a worker.

use std::path::Path;
use std::sync::Arc;

use greem::config::is_valid_mesh;
use greem::{find_halos, projected_density, Body, ParallelTreePm, SimulationMode, TreePmConfig};
use greem_math::testutil::rand_positions;
use greem_obs::json::{self, JsonWriter, Value};
use greem_obs::Clock;
use greem_resil::{FaultPlan, ResilConfig, ResilientSim};
use mpisim::{NetModel, World};

use crate::ring::Broadcast;

/// Fault scenario injected under a job (mirrors the `chaos` experiment
/// suite in `greem-bench`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    Clean,
    /// One rank crashes mid-run; recovery is rollback-restart.
    Crash,
    /// One rank computes 4x slower.
    Straggler,
    /// 5% message drop + 10% message delay.
    FlakyNet,
}

impl Scenario {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "clean" => Ok(Scenario::Clean),
            "crash" => Ok(Scenario::Crash),
            "straggler" => Ok(Scenario::Straggler),
            "flaky-net" => Ok(Scenario::FlakyNet),
            other => Err(format!(
                "unknown scenario {other:?} (expected clean|crash|straggler|flaky-net)"
            )),
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::Crash => "crash",
            Scenario::Straggler => "straggler",
            Scenario::FlakyNet => "flaky-net",
        }
    }
}

/// Validated job parameters.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Particle count.
    pub n: usize,
    /// Steps to integrate.
    pub steps: usize,
    /// Seed for the initial conditions (and the fault plan).
    pub seed: u64,
    /// Simulated ranks (1, 2, 4 or 8).
    pub ranks: usize,
    /// PM mesh per side (a power of two in [8, 32]).
    pub mesh: usize,
    /// Publish a snapshot every this many steps (the final step always
    /// publishes).
    pub snapshot_every: usize,
    /// Projected-density thumbnail resolution (per side).
    pub density_n: usize,
    /// Wall-clock pause between published snapshots, so a human (or the
    /// bench harness) can watch the stream; 0 runs flat out.
    pub pace_s: f64,
    pub scenario: Scenario,
    /// Capture a Perfetto trace of this job (served at `/trace/:id`).
    /// Traced jobs run exclusively — trace recording is process-global.
    pub trace: bool,
    /// Checkpoint cadence for the resilient driver.
    pub ckpt_every: u64,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            n: 512,
            steps: 8,
            seed: 1,
            ranks: 4,
            mesh: 16,
            snapshot_every: 1,
            density_n: 8,
            pace_s: 0.0,
            scenario: Scenario::Clean,
            trace: false,
            ckpt_every: 3,
        }
    }
}

fn field_u64(v: &Value, key: &str, min: u64, max: u64) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => {
            let x = f
                .as_f64()
                .ok_or_else(|| format!("field {key:?} must be a number"))?;
            if x.fract() != 0.0 || x < 0.0 {
                return Err(format!("field {key:?} must be a non-negative integer"));
            }
            // Past 2⁵³ an f64 no longer holds every integer: the value
            // parsed may not be the one submitted.
            let max = max.min((1 << 53) - 1);
            if x < min as f64 || x > max as f64 {
                return Err(format!("field {key:?} = {x} out of range [{min}, {max}]"));
            }
            Ok(Some(x as u64))
        }
    }
}

const KNOWN_FIELDS: &[&str] = &[
    "n",
    "steps",
    "seed",
    "ranks",
    "mesh",
    "snapshot_every",
    "density_n",
    "pace_ms",
    "scenario",
    "trace",
    "ckpt_every",
];

impl JobConfig {
    /// Parse and validate a submission body. Unknown fields are errors
    /// (a typoed knob silently falling back to a default is worse than
    /// a 400).
    pub fn from_json(body: &str) -> Result<Self, String> {
        let v = json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
        let fields = match &v {
            Value::Obj(fields) => fields,
            _ => return Err("job submission must be a JSON object".into()),
        };
        for (k, _) in fields {
            if !KNOWN_FIELDS.contains(&k.as_str()) {
                return Err(format!("unknown field {k:?}"));
            }
        }
        let mut cfg = JobConfig::default();
        if let Some(s) = v.get("scenario") {
            let s = s
                .as_str()
                .ok_or_else(|| "field \"scenario\" must be a string".to_string())?;
            cfg.scenario = Scenario::parse(s)?;
        }
        if let Some(x) = field_u64(&v, "n", 16, 16_384)? {
            cfg.n = x as usize;
        }
        if let Some(x) = field_u64(&v, "steps", 1, 128)? {
            cfg.steps = x as usize;
        }
        if let Some(x) = field_u64(&v, "seed", 0, u64::MAX)? {
            cfg.seed = x;
        }
        if let Some(x) = field_u64(&v, "ranks", 1, 8)? {
            if ![1, 2, 4, 8].contains(&x) {
                return Err(format!("field \"ranks\" = {x} must be one of 1, 2, 4, 8"));
            }
            cfg.ranks = x as usize;
        }
        if let Some(x) = field_u64(&v, "mesh", 8, 32)? {
            if !is_valid_mesh(x as usize) {
                return Err(format!("field \"mesh\" = {x} must be a power of two"));
            }
            cfg.mesh = x as usize;
        }
        if let Some(x) = field_u64(&v, "snapshot_every", 1, 64)? {
            cfg.snapshot_every = x as usize;
        }
        if let Some(x) = field_u64(&v, "density_n", 4, 16)? {
            cfg.density_n = x as usize;
        }
        if let Some(x) = field_u64(&v, "pace_ms", 0, 500)? {
            cfg.pace_s = x as f64 / 1e3;
        }
        if let Some(t) = v.get("trace") {
            cfg.trace = match t {
                Value::Bool(b) => *b,
                _ => return Err("field \"trace\" must be a boolean".into()),
            };
        }
        if let Some(x) = field_u64(&v, "ckpt_every", 1, 64)? {
            cfg.ckpt_every = x;
        }
        if cfg.n < cfg.ranks * 8 {
            return Err(format!(
                "n = {} too small for {} ranks (need at least {})",
                cfg.n,
                cfg.ranks,
                cfg.ranks * 8
            ));
        }
        Ok(cfg)
    }

    /// Echo the validated config as JSON (into a status object).
    pub fn write_json(&self, w: &mut JsonWriter, key: Option<&str>) {
        w.begin_obj(key);
        w.u64(Some("n"), self.n as u64);
        w.u64(Some("steps"), self.steps as u64);
        w.u64(Some("seed"), self.seed);
        w.u64(Some("ranks"), self.ranks as u64);
        w.u64(Some("mesh"), self.mesh as u64);
        w.u64(Some("snapshot_every"), self.snapshot_every as u64);
        w.u64(Some("density_n"), self.density_n as u64);
        w.f64(Some("pace_ms"), self.pace_s * 1e3);
        w.str_(Some("scenario"), self.scenario.as_str());
        w.bool_(Some("trace"), self.trace);
        w.u64(Some("ckpt_every"), self.ckpt_every);
        w.end_obj();
    }

    /// Near-cubic rank decomposition (factors multiply to `ranks`).
    pub fn div(&self) -> [usize; 3] {
        match self.ranks {
            1 => [1, 1, 1],
            2 => [2, 1, 1],
            4 => [2, 2, 1],
            _ => [2, 2, 2],
        }
    }

    /// FFT rank count.
    pub fn nf(&self) -> usize {
        self.ranks.min(2)
    }

    /// The seeded fault plan for this job's scenario.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        let victim = 1 % self.ranks; // rank 1, or 0 on single-rank jobs
        let mid = (self.steps as u64 / 2).max(1);
        match self.scenario {
            Scenario::Clean => None,
            Scenario::Crash => Some(FaultPlan::new(self.seed).crash(victim, mid)),
            Scenario::Straggler => Some(FaultPlan::new(self.seed).straggler(victim, 4.0)),
            Scenario::FlakyNet => Some(
                FaultPlan::new(self.seed)
                    .drop_messages(0.05)
                    .delay_messages(0.1, 2e-5),
            ),
        }
    }

    /// Snapshots a full clean run publishes (the final step always
    /// publishes; faults add re-published steps on top).
    pub fn snapshots_expected(&self) -> usize {
        let mut count = self.steps / self.snapshot_every;
        if !self.steps.is_multiple_of(self.snapshot_every) {
            count += 1; // final step
        }
        count
    }
}

/// One published snapshot — the unit of fan-out.
#[derive(Debug, Clone)]
pub struct SnapshotMsg {
    pub job: String,
    /// 1-based completed-step index. After a rollback, earlier indices
    /// repeat with a higher `rollbacks` counter: subscribers observe
    /// the recovery, not a gap.
    pub step: u64,
    pub steps_total: u64,
    pub rollbacks: u64,
    pub crashes_detected: u64,
    pub n: u64,
    /// FoF halos (b = 0.2 mean separation, >= 8 members).
    pub halos: u64,
    pub peak_contrast: f64,
    /// Max rank virtual time so far (seconds).
    pub vtime: f64,
    /// [`Clock::now`] at publish — delivery latency is measured against
    /// this on the consumer side.
    pub published_at: f64,
    pub density_n: u64,
    /// Row-major `density_n x density_n` projected density.
    pub density: Vec<f64>,
}

impl SnapshotMsg {
    /// One NDJSON line (newline-terminated).
    pub fn to_json_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.str_(Some("job"), &self.job);
        w.u64(Some("step"), self.step);
        w.u64(Some("steps_total"), self.steps_total);
        w.u64(Some("rollbacks"), self.rollbacks);
        w.u64(Some("crashes_detected"), self.crashes_detected);
        w.u64(Some("n"), self.n);
        w.u64(Some("halos"), self.halos);
        w.f64(Some("peak_contrast"), self.peak_contrast);
        w.f64(Some("vtime_s"), self.vtime);
        w.f64(Some("published_at"), self.published_at);
        w.u64(Some("density_n"), self.density_n);
        w.begin_arr(Some("density"));
        for &d in &self.density {
            w.f64(None, d);
        }
        w.end_arr();
        w.end_obj();
        let mut s = w.finish();
        s.push('\n');
        s
    }
}

/// Final outcome of a completed job.
#[derive(Debug, Clone, Default)]
pub struct JobSummary {
    pub steps_done: u64,
    pub rollbacks: u64,
    pub crashes_detected: u64,
    pub checkpoints_written: u64,
    pub snapshots_published: u64,
    pub halos_final: u64,
    pub peak_contrast_final: f64,
    pub vtime: f64,
}

impl JobSummary {
    pub fn write_json(&self, w: &mut JsonWriter, key: Option<&str>) {
        w.begin_obj(key);
        w.u64(Some("steps_done"), self.steps_done);
        w.u64(Some("rollbacks"), self.rollbacks);
        w.u64(Some("crashes_detected"), self.crashes_detected);
        w.u64(Some("checkpoints_written"), self.checkpoints_written);
        w.u64(Some("snapshots_published"), self.snapshots_published);
        w.u64(Some("halos_final"), self.halos_final);
        w.f64(Some("peak_contrast_final"), self.peak_contrast_final);
        w.f64(Some("vtime_s"), self.vtime);
        w.end_obj();
    }
}

fn treepm_cfg(mesh: usize) -> TreePmConfig {
    TreePmConfig {
        // Balancer feedback on modelled cost => recovery after a crash
        // is bitwise identical to an uninterrupted run (see greem-resil
        // tests), so a job's physics is reproducible from (n, seed).
        modeled_pp_cost: Some(5e-9),
        ..TreePmConfig::standard(mesh)
    }
}

/// Execute one job, publishing snapshots into `ring`. Blocks until the
/// job finishes; the caller (a worker thread) closes the ring.
pub fn run_job(
    id: &str,
    cfg: &JobConfig,
    ring: &Arc<Broadcast<SnapshotMsg>>,
    clock: &Arc<dyn Clock>,
    ckpt_dir: &Path,
) -> Result<JobSummary, String> {
    std::fs::create_dir_all(ckpt_dir).map_err(|e| format!("checkpoint dir: {e}"))?;
    let bodies: Vec<Body> = {
        let m = 1.0 / cfg.n as f64;
        rand_positions(cfg.n, cfg.seed)
            .into_iter()
            .enumerate()
            .map(|(i, p)| Body::at_rest(p, m, i as u64))
            .collect()
    };
    let dts = vec![1e-3; cfg.steps];
    let tcfg = treepm_cfg(cfg.mesh);
    let div = cfg.div();
    let nf = cfg.nf();
    let (job, cfgc, ring, clock, dir) = (
        id.to_string(),
        cfg.clone(),
        Arc::clone(ring),
        Arc::clone(clock),
        ckpt_dir.to_path_buf(),
    );

    let mut world = World::new(cfg.ranks).with_net(NetModel::free());
    if let Some(plan) = cfg.fault_plan() {
        world = world.with_faults(plan);
    }
    // Per-rank result: (error, vtime, rank-0 extras).
    type RankOut = (
        Option<String>,
        f64,
        Option<(greem_resil::RecoveryStats, u64, u64, f64)>,
    );
    let out: Vec<RankOut> = world.run(move |ctx, world| {
        let root = (world.rank() == 0).then(|| bodies.clone());
        let sim = ParallelTreePm::new(
            ctx,
            world,
            tcfg,
            div,
            nf,
            None,
            root,
            SimulationMode::Static,
        );
        let mut rc = ResilConfig::new(&dir);
        rc.every = cfgc.ckpt_every;
        let mut resil = match ResilientSim::new(ctx, world, sim, rc) {
            Ok(r) => r,
            Err(e) => return (Some(format!("checkpoint init: {e:?}")), ctx.vtime(), None),
        };
        let mut published = 0u64;
        let res = resil.run_with_stats(ctx, world, &dts, |ctx, world, sim, _st, rstats| {
            let step = sim.steps_taken();
            let due =
                (step as usize).is_multiple_of(cfgc.snapshot_every) || step as usize == cfgc.steps;
            if !due {
                return;
            }
            // Collective gather; rank 0 turns it into a snapshot.
            let gathered = sim.gather_bodies(ctx, world);
            if let Some(bodies) = gathered {
                let snap = projected_density(&bodies, cfgc.density_n, 2, "serve");
                let halos = find_halos(&bodies, 0.2, 8);
                let msg = SnapshotMsg {
                    job: job.clone(),
                    step,
                    steps_total: cfgc.steps as u64,
                    rollbacks: rstats.rollbacks,
                    crashes_detected: rstats.crashes_detected,
                    n: bodies.len() as u64,
                    halos: halos.len() as u64,
                    peak_contrast: snap.peak_contrast(),
                    vtime: ctx.vtime(),
                    published_at: clock.now(),
                    density_n: cfgc.density_n as u64,
                    density: snap.density,
                };
                ring.publish(msg);
                published += 1;
                if cfgc.pace_s > 0.0 {
                    clock.sleep(cfgc.pace_s);
                }
            }
        });
        let stats = match res {
            Ok(s) => s,
            Err(e) => return (Some(format!("recovery failed: {e:?}")), ctx.vtime(), None),
        };
        let extras = resil.sim().gather_bodies(ctx, world).map(|bodies| {
            let snap = projected_density(&bodies, cfgc.density_n, 2, "final");
            let halos = find_halos(&bodies, 0.2, 8);
            (stats, published, halos.len() as u64, snap.peak_contrast())
        });
        (None, ctx.vtime(), extras)
    });
    std::fs::remove_dir_all(ckpt_dir).ok();

    let vtime = out.iter().map(|(_, v, _)| *v).fold(0.0, f64::max);
    if let Some((err, _, _)) = out.iter().find(|(e, _, _)| e.is_some()) {
        return Err(err.clone().unwrap_or_default());
    }
    let (stats, published, halos_final, contrast) = out
        .into_iter()
        .find_map(|(_, _, extras)| extras)
        .ok_or("rank 0 produced no summary")?;
    Ok(JobSummary {
        steps_done: cfg.steps as u64,
        rollbacks: stats.rollbacks,
        crashes_detected: stats.crashes_detected,
        checkpoints_written: stats.checkpoints_written,
        snapshots_published: published,
        halos_final,
        peak_contrast_final: contrast,
        vtime,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_and_overrides() {
        let cfg = JobConfig::from_json("{}").unwrap();
        assert_eq!((cfg.n, cfg.steps, cfg.ranks), (512, 8, 4));
        assert_eq!(cfg.scenario, Scenario::Clean);
        let cfg = JobConfig::from_json(
            r#"{"n": 128, "steps": 4, "ranks": 2, "scenario": "crash", "pace_ms": 10, "trace": true}"#,
        )
        .unwrap();
        assert_eq!((cfg.n, cfg.steps, cfg.ranks), (128, 4, 2));
        assert_eq!(cfg.scenario, Scenario::Crash);
        assert!((cfg.pace_s - 0.01).abs() < 1e-12);
        assert!(cfg.trace);
        assert_eq!(cfg.div(), [2, 1, 1]);
    }

    #[test]
    fn config_rejects_bad_submissions() {
        assert!(JobConfig::from_json("not json").is_err());
        assert!(JobConfig::from_json("[1, 2]").is_err());
        assert!(JobConfig::from_json(r#"{"banana": 1}"#).is_err());
        assert!(JobConfig::from_json(r#"{"n": 1e9}"#).is_err());
        assert!(JobConfig::from_json(r#"{"ranks": 3}"#).is_err());
        assert!(JobConfig::from_json(r#"{"scenario": "meteor"}"#).is_err());
        assert!(JobConfig::from_json(r#"{"n": 16, "ranks": 4}"#).is_err());
        assert!(JobConfig::from_json(r#"{"steps": -1}"#).is_err());
        assert!(JobConfig::from_json(r#"{"mesh": 4}"#).is_err());
        // A mesh side inside the range but off the FFT's powers of two
        // is a 400 naming the field, not a job that panics later.
        for mesh in [12, 24] {
            let err = JobConfig::from_json(&format!(r#"{{"mesh": {mesh}}}"#)).unwrap_err();
            assert!(err.contains("\"mesh\""), "{mesh}: {err}");
        }
        // Numbers outside JSON's grammar, and integers an f64 cannot
        // hold exactly, are refused rather than run as another value.
        assert!(JobConfig::from_json(r#"{"n": +64}"#).is_err());
        assert!(JobConfig::from_json(r#"{"n": 064}"#).is_err());
        assert!(JobConfig::from_json(r#"{"seed": 1e999}"#).is_err());
        for seed in ["1e300", "18446744073709551616", "9007199254740993"] {
            let err = JobConfig::from_json(&format!(r#"{{"seed": {seed}}}"#)).unwrap_err();
            assert!(err.contains("out of range"), "{seed}: {err}");
        }
        let cfg = JobConfig::from_json(r#"{"seed": 9007199254740991}"#).unwrap();
        assert_eq!(cfg.seed, 9_007_199_254_740_991);
    }

    #[test]
    fn snapshot_counts() {
        let mut cfg = JobConfig {
            steps: 8,
            snapshot_every: 1,
            ..JobConfig::default()
        };
        assert_eq!(cfg.snapshots_expected(), 8);
        cfg.snapshot_every = 3;
        // Steps 3, 6 publish on cadence; step 8 is the forced final.
        assert_eq!(cfg.snapshots_expected(), 3);
    }
}
