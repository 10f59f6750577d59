//! The `serve-mix` traffic: a closed loop with one client against an
//! in-process `greem_serve` daemon. One op is a job from submission to
//! the last line of its snapshot stream.

use std::path::Path;
use std::time::{Duration, Instant};

use greem::Body;
use greem_obs::json::{self, Value};
use greem_serve::{http, ServerConfig, ServerHandle};

use crate::hostspeed::tick;
use crate::inputs::Rng;
use crate::measure::{process_cpu_s, Recorder};

/// Shape of every submitted job. `ranks: 2` is `nproc` here; the
/// daemon runs one worker, so one job is in flight at a time.
pub const JOB_N: usize = 512;
pub const JOB_STEPS: usize = 8;
pub const JOB_MESH: usize = 16;
const JOB_RANKS: usize = 2;

/// Every `CRASH_EVERY`-th op injects a mid-job rank crash, which the
/// daemon recovers by rollback-restart through `greem_resil`.
const CRASH_EVERY: usize = 8;
/// Every `READ_EVERY`-th op is followed by a metrics scrape and a job
/// listing: reads beside the writes, timed on their own.
const READ_EVERY: usize = 10;
/// The client thinks for a seeded time in [0, `THINK_MAX_S`) before each
/// op: one period of the daemon's accept poll. Without it a closed loop
/// phase-locks to the poll and `op_s_p50` becomes a staircase in the
/// job's run time — 30 ms or 40 ms, nothing between — so that a 3 %
/// slowdown reads as 0 % or as 33 % (ten runs of one binary spread 18 %).
const THINK_MAX_S: f64 = 0.010;

/// The bodies the daemon builds for a job with `seed` (its
/// `rand_positions` recipe), for the force-accuracy figure and the
/// solver twin of this workload.
pub fn job_bodies(seed: u64) -> Vec<Body> {
    let m = 1.0 / JOB_N as f64;
    greem_math::testutil::rand_positions(JOB_N, seed)
        .into_iter()
        .enumerate()
        .map(|(i, p)| Body::at_rest(p, m, i as u64))
        .collect()
}

/// Seed of the `k`-th job of a run.
pub fn job_seed(seed: u64, k: usize) -> u64 {
    // JSON numbers are f64: keep job seeds exactly representable.
    Rng::new(seed.wrapping_add(k as u64)).next_u64() >> 12
}

fn job_body(seed: u64, crash: bool) -> String {
    format!(
        "{{\"n\":{JOB_N},\"steps\":{JOB_STEPS},\"ranks\":{JOB_RANKS},\"mesh\":{JOB_MESH},\
         \"snapshot_every\":1,\"seed\":{seed}{}}}",
        if crash { ",\"scenario\":\"crash\"" } else { "" }
    )
}

fn start_server(data_dir: &Path) -> Result<ServerHandle, String> {
    greem_serve::start(ServerConfig {
        workers: 1,
        data_dir: data_dir.to_path_buf(),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("start daemon: {e}"))
}

/// One completed (or failed) op.
#[derive(Debug, Clone, Default)]
pub struct OpRecord {
    pub crash: bool,
    /// Submission to last stream line.
    pub op_s: f64,
    /// Process CPU seconds (client and daemon threads) over the op.
    pub cpu_s: f64,
    /// The POST round trip.
    pub submit_s: f64,
    /// Stream request to last line.
    pub stream_s: f64,
    /// POST accepted to first snapshot line.
    pub first_snapshot_s: f64,
    pub snapshots: usize,
    pub rollbacks: u64,
    pub dropped: u64,
    /// The submission was refused with 429.
    pub throttled: bool,
    /// Why the op counts as failed, if it does.
    pub failure: Option<String>,
}

fn run_op(rec: &mut Recorder, addr: &str, seed: u64, crash: bool) -> OpRecord {
    let mut op = OpRecord {
        crash,
        ..OpRecord::default()
    };
    let t0 = Instant::now();
    let body = job_body(seed, crash);
    let (resp, submit_s) = rec.span("serve.POST /jobs", |_| {
        http::request(addr, "POST", "/jobs", Some(&body))
    });
    op.submit_s = submit_s;
    let id = match resp {
        Ok(r) if r.status == 202 => json::parse(&r.body_str())
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string)),
        Ok(r) => {
            op.throttled = r.status == 429;
            op.failure = Some(format!("submit answered {}", r.status));
            None
        }
        Err(e) => {
            op.failure = Some(format!("submit: {e}"));
            None
        }
    };
    let Some(id) = id else {
        op.failure.get_or_insert_with(|| "submit: no job id".into());
        op.op_s = t0.elapsed().as_secs_f64();
        return op;
    };
    let accepted = Instant::now();
    let (res, stream_s) = rec.span("serve.GET /jobs/:id/stream", |_| -> Result<(), String> {
        let mut stream = http::open_stream(addr, &format!("/jobs/{id}/stream?from=0"))?;
        let mut last = Value::Null;
        while let Some(chunk) = stream.next_chunk()? {
            for line in String::from_utf8_lossy(&chunk).lines() {
                let v = json::parse(line).map_err(|e| format!("stream line: {e}"))?;
                if v.get("step").is_some() {
                    if op.snapshots == 0 {
                        op.first_snapshot_s = accepted.elapsed().as_secs_f64();
                    }
                    op.snapshots += 1;
                }
                last = v;
            }
        }
        if last.get("state").and_then(Value::as_str) != Some("done") {
            return Err(format!("job {id} did not finish: {last:?}"));
        }
        op.dropped = last
            .get("dropped_total")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64;
        op.rollbacks = last
            .get("summary")
            .and_then(|s| s.get("rollbacks"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64;
        Ok(())
    });
    op.stream_s = stream_s;
    op.op_s = t0.elapsed().as_secs_f64();
    op.failure = res.err().or_else(|| {
        // A crash job replays the steps after its checkpoint, so its
        // stream carries at least the clean count.
        let enough = if crash {
            op.snapshots >= JOB_STEPS
        } else {
            op.snapshots == JOB_STEPS
        };
        if !enough {
            Some(format!("{} snapshots, expected {JOB_STEPS}", op.snapshots))
        } else if crash && op.rollbacks == 0 {
            Some("crash job reported no rollback".into())
        } else if op.dropped > 0 {
            Some(format!("{} snapshots dropped", op.dropped))
        } else {
            None
        }
    });
    op
}

fn timed_get(rec: &mut Recorder, name: &'static str, addr: &str, path: &str) -> Option<f64> {
    let (resp, s) = rec.span(name, |_| http::request(addr, "GET", path, None));
    matches!(resp, Ok(r) if r.status == 200).then_some(s)
}

#[derive(Default)]
pub struct ServePass {
    pub setup_s: f64,
    /// Host-speed ticks of the set-up: one before each warm-up op and
    /// one after the last.
    pub setup_ticks: Vec<f64>,
    pub ops: Vec<OpRecord>,
    /// Host-speed ticks: one just before each op, one after the last.
    pub ticks: Vec<f64>,
    /// Wall seconds of the reads that ride beside the ops.
    pub metrics_s: Vec<f64>,
    pub jobs_list_s: Vec<f64>,
    pub healthz_s: Vec<f64>,
}

/// One pass: start a daemon, `warmup` untimed ops, `ops` timed ops,
/// drain. Op `k` of every pass submits the same job, so passes repeat
/// the same traffic.
pub fn serve_pass(
    rec: &mut Recorder,
    data_dir: &Path,
    seed: u64,
    warmup: usize,
    ops: usize,
) -> Result<ServePass, String> {
    let mut setup_ticks = Vec::new();
    let t0 = Instant::now();
    let (server, _) = rec.span("serve.start", |_| start_server(data_dir));
    let server = server?;
    let addr = server.addr_str();
    // The `k`-th op of the pass: the client's think time, a host-speed
    // tick, the op. Thinking, the tick and the reads are beside the ops,
    // not part of them.
    let next_op = |rec: &mut Recorder, k: usize| {
        let think = THINK_MAX_S * Rng::new(!job_seed(seed, k)).unit();
        std::thread::sleep(Duration::from_secs_f64(think));
        let ticked = tick();
        let crash = (k + 1).is_multiple_of(CRASH_EVERY);
        let cpu0 = process_cpu_s();
        let mut op = run_op(rec, &addr, job_seed(seed, k), crash);
        op.cpu_s = process_cpu_s() - cpu0;
        (op, ticked)
    };
    rec.span("warmup", |rec| {
        for k in 0..warmup {
            setup_ticks.push(next_op(rec, k).1);
        }
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let mut pass = ServePass {
        setup_s,
        setup_ticks,
        ..ServePass::default()
    };
    for k in 0..ops {
        let (op, ticked) = next_op(rec, warmup + k);
        pass.ops.push(op);
        pass.ticks.push(ticked);
        if (k + 1) % READ_EVERY == 0 || k + 1 == ops {
            pass.metrics_s
                .extend(timed_get(rec, "serve.GET /metrics", &addr, "/metrics"));
            pass.jobs_list_s
                .extend(timed_get(rec, "serve.GET /jobs", &addr, "/jobs"));
        }
    }
    pass.ticks.push(tick());
    pass.setup_ticks.push(pass.ticks[0]);

    for _ in 0..10 {
        pass.healthz_s
            .extend(timed_get(rec, "serve.GET /healthz", &addr, "/healthz"));
    }
    rec.span("serve.shutdown", |_| server.shutdown());
    Ok(pass)
}
