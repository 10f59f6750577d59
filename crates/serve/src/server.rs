//! The daemon: accept loop, routing, worker pool, admission control.
//!
//! Threading model — boring on purpose:
//!
//! * One accept thread blocks in `accept`; shutdown wakes it by
//!   connecting to the daemon's own address.
//! * One OS thread per connection. Connections are short (status/
//!   metrics) or deliberately long (snapshot streams); the expensive
//!   resource is the *worker pool*, which is bounded, not the sockets.
//! * `workers` job-runner threads pull from a bounded queue. Admission
//!   control happens at submit time: a full queue answers **429 with
//!   `Retry-After`** instead of buffering unboundedly — backpressure is
//!   the client's problem, stated honestly.
//!
//! Each job owns a [`Broadcast`] ring; any number of `/stream`
//! connections subscribe to it. A slow or dead subscriber never blocks
//! the producer (see [`crate::ring`]); its stream just reports dropped
//! snapshots. Worker crashes inside a job (rank panics, recovery
//! failure) mark the job `failed` and close its ring — the daemon
//! itself keeps serving. Mid-job *injected* faults (the `crash`
//! scenario) are recovered by `ResilientSim` rollback-restart below the
//! snapshot hook, so subscribers simply see the rollback counter jump.

use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::Duration;

use greem_obs::json::JsonWriter;
use greem_obs::sketch::DdSketch;
use greem_obs::{Clock, Registry, WallClock};

use crate::http;
use crate::job::{JobConfig, JobSummary, SnapshotMsg};
use crate::ring::{Broadcast, Recv, RecvTimeoutError, Subscriber};

/// Daemon knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (reported by
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Job-runner threads.
    pub workers: usize,
    /// Max jobs waiting beyond the ones running; submissions past this
    /// get 429.
    pub max_queue: usize,
    /// Snapshot ring capacity per job. `?from=0` replays are complete
    /// only while the job's total published count fits in here.
    pub ring_capacity: usize,
    /// `Retry-After` seconds advertised on 429.
    pub retry_after_s: u64,
    /// Scratch directory for per-job checkpoint shards.
    pub data_dir: PathBuf,
    /// Time source for pacing, timestamps and delivery latency. Tests
    /// inject a `ManualClock`.
    pub clock: Arc<dyn Clock>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            max_queue: 8,
            ring_capacity: 256,
            retry_after_s: 1,
            data_dir: std::env::temp_dir().join(format!("greem_serve_{}", std::process::id())),
            clock: Arc::new(WallClock),
        }
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobState {
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

struct JobEntry {
    id: String,
    cfg: JobConfig,
    state: JobState,
    ring: Arc<Broadcast<SnapshotMsg>>,
    summary: Option<JobSummary>,
    error: Option<String>,
    submitted_at: f64,
    finished_at: Option<f64>,
    /// Perfetto JSON, present once a traced job finishes.
    trace_json: Option<String>,
}

#[derive(Default)]
struct JobsState {
    map: BTreeMap<String, JobEntry>,
    queue: VecDeque<String>,
    next_id: u64,
    running: usize,
}

/// One event on the daemon-wide telemetry feed (`GET /telemetry`): a
/// pre-rendered NDJSON line, published on every job lifecycle
/// transition. Rendered once at publish time so N subscribers cost no
/// extra serialization.
struct TelemetryEvent {
    line: String,
}

struct Shared {
    cfg: ServerConfig,
    jobs: Mutex<JobsState>,
    /// Wakes workers on submit and shutdown.
    work_cond: Condvar,
    registry: Mutex<Registry>,
    /// Drain requested: submissions bounce with 503, workers exit once
    /// the queue is empty. Status, metrics and open streams keep
    /// working until the accept loop stops (see `accept_stop`).
    shutdown: AtomicBool,
    /// Second phase of the drain: stop accepting connections entirely.
    /// Set by [`ServerHandle::shutdown`] only after the workers have
    /// finished every queued job, so clients can watch the drain.
    accept_stop: AtomicBool,
    /// Trace recording is process-global, so traced jobs run under the
    /// write half of this lock and every other job under the read half:
    /// a `/trace/:id` capture window is guaranteed to contain exactly
    /// one job's spans.
    trace_gate: RwLock<()>,
    open_connections: AtomicUsize,
    /// Daemon-wide telemetry feed: job lifecycle events over a
    /// never-blocking broadcast ring (`GET /telemetry` streams it as
    /// chunked NDJSON). Closed during shutdown after the workers have
    /// drained, so live listeners see a terminal line.
    telemetry: Arc<Broadcast<TelemetryEvent>>,
    /// Mergeable sketch of job wall durations, summarized into every
    /// `finished` telemetry event (p50/p95/p99 over all jobs so far).
    job_durations: Mutex<DdSketch>,
}

/// Render and publish one telemetry event; `fill` appends
/// event-specific fields to the line object.
fn publish_telemetry(shared: &Shared, event: &str, job: &str, fill: impl FnOnce(&mut JsonWriter)) {
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.str_(Some("event"), event);
    w.str_(Some("job"), job);
    w.f64(Some("t"), shared.cfg.clock.now());
    fill(&mut w);
    w.end_obj();
    shared
        .telemetry
        .publish(TelemetryEvent { line: w.finish() });
    lock(&shared.registry).counter_add("serve_telemetry_events", 1.0);
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`ServerHandle::shutdown`] for the graceful drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    acceptor: std::thread::JoinHandle<()>,
}

/// Bind, spawn the accept loop and the worker pool, return immediately.
pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    std::fs::create_dir_all(&cfg.data_dir)?;
    let telemetry_capacity = cfg.ring_capacity;
    let shared = Arc::new(Shared {
        cfg,
        jobs: Mutex::new(JobsState::default()),
        work_cond: Condvar::new(),
        registry: Mutex::new(Registry::new()),
        shutdown: AtomicBool::new(false),
        accept_stop: AtomicBool::new(false),
        trace_gate: RwLock::new(()),
        open_connections: AtomicUsize::new(0),
        telemetry: Broadcast::new(telemetry_capacity),
        job_durations: Mutex::new(DdSketch::default()),
    });
    let mut workers = Vec::new();
    for w in 0..shared.cfg.workers.max(1) {
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{w}"))
                .spawn(move || worker_loop(&shared))?,
        );
    }
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(&listener, &shared))?
    };
    Ok(ServerHandle {
        addr,
        shared,
        workers,
        acceptor,
    })
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `host:port` string for the client helpers.
    pub fn addr_str(&self) -> String {
        self.addr.to_string()
    }

    /// True once a drain has been requested.
    pub fn draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Graceful drain, phase by phase: (1) submissions bounce with 503
    /// while status and streams keep answering, (2) workers finish every
    /// queued job and close its ring, (3) the accept loop stops, (4)
    /// open connections get a bounded grace period to run their streams
    /// to the terminal line.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_cond.notify_all();
        for t in self.workers {
            t.join().ok();
        }
        // Workers are done: close the telemetry feed so live
        // `/telemetry` streams reach their terminal line.
        self.shared.telemetry.close();
        self.shared.accept_stop.store(true, Ordering::SeqCst);
        wake_acceptor(self.addr);
        self.acceptor.join().ok();
        // Streams end once their rings close (the workers closed every
        // ring before exiting); give stragglers a bounded grace period.
        for _ in 0..600 {
            if self.shared.open_connections.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        std::fs::remove_dir_all(&self.shared.cfg.data_dir).ok();
    }
}

/// Blocks in `accept`, so a connection is picked up when it arrives and
/// not at the next tick of a poll. [`ServerHandle::shutdown`] sets
/// `accept_stop` and then [`wake_acceptor`] connects once: whatever
/// `accept` returns after the flag is set — that connection or a late
/// client's — is dropped unanswered, as a closed listener would have it.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.accept_stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                stream.set_nodelay(true).ok();
                let shared = Arc::clone(shared);
                shared.open_connections.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || {
                        handle_connection(stream, &shared);
                        shared.open_connections.fetch_sub(1, Ordering::SeqCst);
                    })
                    .ok();
            }
            // Out of descriptors, say: back off, do not spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Unblock the acceptor by connecting to its own listener. A listener
/// bound to the unspecified address is reached over loopback. If the
/// connect fails because the backlog is full, the connections filling it
/// wake the acceptor just as well.
fn wake_acceptor(bound: SocketAddr) {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    TcpStream::connect_timeout(&SocketAddr::new(ip, bound.port()), Duration::from_secs(1)).ok();
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut jobs = lock(&shared.jobs);
            loop {
                if let Some(id) = jobs.queue.pop_front() {
                    jobs.running += 1;
                    if let Some(e) = jobs.map.get_mut(&id) {
                        e.state = JobState::Running;
                    }
                    break id;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return; // queue drained
                }
                let (g, _) = shared
                    .work_cond
                    .wait_timeout(jobs, Duration::from_millis(200))
                    .unwrap_or_else(PoisonError::into_inner);
                jobs = g;
            }
        };
        run_one(shared, &id);
        let mut jobs = lock(&shared.jobs);
        jobs.running -= 1;
        drop(jobs);
        shared.work_cond.notify_all();
    }
}

fn run_one(shared: &Arc<Shared>, id: &str) {
    let (cfg, ring) = {
        let jobs = lock(&shared.jobs);
        let e = match jobs.map.get(id) {
            Some(e) => e,
            None => return,
        };
        (e.cfg.clone(), Arc::clone(&e.ring))
    };
    publish_telemetry(shared, "running", id, |_| {});
    let started = shared.cfg.clock.now();
    let ckpt_dir = shared.cfg.data_dir.join(format!("ckpt-{id}"));
    let clock = Arc::clone(&shared.cfg.clock);

    // A panicking job (a bug, not an injected fault — those are handled
    // *inside* by rollback-restart) must not take the daemon down.
    let run = std::panic::AssertUnwindSafe(|| {
        if cfg.trace {
            // Exclusive: trace recording is process-global.
            let _g = shared
                .trace_gate
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let (res, events) = greem_obs::trace::capture(|| {
                crate::job::run_job(id, &cfg, &ring, &clock, &ckpt_dir)
            });
            let trace = greem_obs::export::chrome_trace(&events, greem_obs::export::Clock::Virtual);
            (res, Some(trace))
        } else {
            let _g = shared
                .trace_gate
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            (
                crate::job::run_job(id, &cfg, &ring, &clock, &ckpt_dir),
                None,
            )
        }
    });
    let outcome =
        std::panic::catch_unwind(run).unwrap_or_else(|_| (Err("job worker panicked".into()), None));
    let (result, trace_json) = outcome;
    let finished = shared.cfg.clock.now();

    // Publish outcome metrics before closing the ring so a scrape racing
    // the finish sees consistent counters.
    {
        let mut reg = lock(&shared.registry);
        reg.hist_observe("serve_job_duration_seconds", finished - started);
        match &result {
            Ok(s) => {
                reg.with_label("outcome", "done", |r| {
                    r.counter_add("serve_jobs_finished", 1.0);
                });
                reg.counter_add("serve_snapshots_published", s.snapshots_published as f64);
                reg.counter_add("serve_job_rollbacks", s.rollbacks as f64);
                reg.counter_add("serve_job_vtime_seconds", s.vtime);
            }
            Err(_) => {
                reg.with_label("outcome", "failed", |r| {
                    r.counter_add("serve_jobs_finished", 1.0);
                });
            }
        }
    }
    // The finished event carries the outcome plus the cross-job
    // duration sketch (p50/p95/p99 over every job so far).
    {
        let mut sk = lock(&shared.job_durations);
        sk.observe((finished - started).max(0.0));
        let state = if result.is_ok() { "done" } else { "failed" };
        let summary = result.as_ref().ok().cloned();
        let sk = sk.clone();
        publish_telemetry(shared, "finished", id, move |w| {
            w.str_(Some("state"), state);
            w.f64(Some("duration_s"), finished - started);
            if let Some(s) = &summary {
                w.u64(Some("snapshots_published"), s.snapshots_published);
                w.u64(Some("rollbacks"), s.rollbacks);
                w.f64(Some("vtime_s"), s.vtime);
            }
            sk.write_summary(w, Some("job_duration_seconds"));
        });
    }
    let mut jobs = lock(&shared.jobs);
    if let Some(e) = jobs.map.get_mut(id) {
        e.finished_at = Some(finished);
        e.trace_json = trace_json;
        match result {
            Ok(summary) => {
                e.state = JobState::Done;
                e.summary = Some(summary);
            }
            Err(err) => {
                e.state = JobState::Failed;
                e.error = Some(err);
            }
        }
    }
    drop(jobs);
    ring.close();
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut stream = stream;
    let req = match http::read_request(&mut reader) {
        Ok(Some(r)) => r,
        Ok(None) => return,
        Err(e) => {
            http::respond_error(&mut stream, 400, &e).ok();
            return;
        }
    };
    let segs = req.segments();
    let res = match (req.method.as_str(), segs.as_slice()) {
        ("POST", ["jobs"]) => submit(&mut stream, shared, &req),
        ("GET", ["jobs"]) => list_jobs(&mut stream, shared),
        ("GET", ["jobs", id]) => job_status(&mut stream, shared, id),
        ("GET", ["jobs", id, "stream"]) => stream_job(&mut stream, shared, id, &req),
        ("GET", ["metrics"]) => metrics(&mut stream, shared),
        ("GET", ["telemetry"]) => stream_telemetry(&mut stream, shared, &req),
        ("GET", ["trace", id]) => trace_job(&mut stream, shared, id),
        ("GET", ["healthz"]) => http::respond_json(&mut stream, 200, "{\"ok\": true}"),
        ("POST", ["shutdown"]) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.work_cond.notify_all();
            http::respond_json(&mut stream, 200, "{\"draining\": true}")
        }
        (m, _) if m != "GET" && m != "POST" => {
            http::respond_error(&mut stream, 405, "method not allowed")
        }
        _ => http::respond_error(&mut stream, 404, "no such route"),
    };
    res.ok();
}

fn write_status_obj(w: &mut JsonWriter, e: &JobEntry, queue_position: Option<usize>) {
    w.begin_obj(None);
    w.str_(Some("id"), &e.id);
    w.str_(Some("state"), e.state.as_str());
    e.cfg.write_json(w, Some("config"));
    w.u64(Some("snapshots_published"), e.ring.published());
    w.u64(Some("subscribers"), e.ring.subscriber_count() as u64);
    w.f64(Some("submitted_at"), e.submitted_at);
    if let Some(t) = e.finished_at {
        w.f64(Some("finished_at"), t);
    }
    if let Some(p) = queue_position {
        w.u64(Some("queue_position"), p as u64);
    }
    if let Some(s) = &e.summary {
        s.write_json(w, Some("summary"));
    }
    if let Some(err) = &e.error {
        w.str_(Some("error"), err);
    }
    w.bool_(Some("trace_available"), e.trace_json.is_some());
    w.end_obj();
}

fn submit(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    req: &http::Request,
) -> std::io::Result<()> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return http::respond_error(stream, 503, "server is draining");
    }
    let body = String::from_utf8_lossy(&req.body);
    let body = if body.trim().is_empty() { "{}" } else { &body };
    let cfg = match JobConfig::from_json(body) {
        Ok(c) => c,
        Err(e) => {
            lock(&shared.registry).counter_add("serve_jobs_rejected", 1.0);
            return http::respond_error(stream, 400, &e);
        }
    };
    let mut jobs = lock(&shared.jobs);
    if jobs.queue.len() >= shared.cfg.max_queue {
        drop(jobs);
        let mut reg = lock(&shared.registry);
        reg.counter_add("serve_jobs_throttled", 1.0);
        drop(reg);
        let retry = format!("Retry-After: {}", shared.cfg.retry_after_s);
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.str_(Some("error"), "queue full");
        w.u64(Some("retry_after_s"), shared.cfg.retry_after_s);
        w.end_obj();
        return http::respond(
            stream,
            429,
            "application/json",
            &[retry],
            w.finish().as_bytes(),
        );
    }
    let id = format!("j-{}", jobs.next_id);
    jobs.next_id += 1;
    let entry = JobEntry {
        id: id.clone(),
        cfg,
        state: JobState::Queued,
        ring: Broadcast::new(shared.cfg.ring_capacity),
        summary: None,
        error: None,
        submitted_at: shared.cfg.clock.now(),
        finished_at: None,
        trace_json: None,
    };
    let position = jobs.queue.len();
    jobs.queue.push_back(id.clone());
    jobs.map.insert(id.clone(), entry);
    drop(jobs);
    shared.work_cond.notify_all();
    lock(&shared.registry).counter_add("serve_jobs_submitted", 1.0);
    publish_telemetry(shared, "submitted", &id, |w| {
        w.u64(Some("queue_position"), position as u64);
    });

    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.str_(Some("id"), &id);
    w.str_(Some("state"), "queued");
    w.u64(Some("queue_position"), position as u64);
    w.end_obj();
    http::respond_json(stream, 202, &w.finish())
}

fn list_jobs(stream: &mut TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let jobs = lock(&shared.jobs);
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.u64(Some("queue_depth"), jobs.queue.len() as u64);
    w.u64(Some("running"), jobs.running as u64);
    w.bool_(Some("draining"), shared.shutdown.load(Ordering::SeqCst));
    w.begin_arr(Some("jobs"));
    for e in jobs.map.values() {
        let pos = jobs.queue.iter().position(|q| q == &e.id);
        write_status_obj(&mut w, e, pos);
    }
    w.end_arr();
    w.end_obj();
    let body = w.finish();
    drop(jobs);
    http::respond_json(stream, 200, &body)
}

fn job_status(stream: &mut TcpStream, shared: &Arc<Shared>, id: &str) -> std::io::Result<()> {
    let jobs = lock(&shared.jobs);
    match jobs.map.get(id) {
        None => {
            drop(jobs);
            http::respond_error(stream, 404, "no such job")
        }
        Some(e) => {
            let pos = jobs.queue.iter().position(|q| q == id);
            let mut w = JsonWriter::new();
            write_status_obj(&mut w, e, pos);
            let body = w.finish();
            drop(jobs);
            http::respond_json(stream, 200, &body)
        }
    }
}

fn stream_job(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    id: &str,
    req: &http::Request,
) -> std::io::Result<()> {
    let ring = {
        let jobs = lock(&shared.jobs);
        match jobs.map.get(id) {
            None => {
                drop(jobs);
                return http::respond_error(stream, 404, "no such job");
            }
            Some(e) => Arc::clone(&e.ring),
        }
    };
    // `?from=N` replays from the retained history (deterministic full
    // replay with from=0 while the ring hasn't wrapped); default is
    // latest-snapshot-first, then live.
    let sub = match req.query_param("from").and_then(|v| v.parse::<u64>().ok()) {
        Some(from) => ring.subscribe_from(from),
        None => ring.subscribe(),
    };
    lock(&shared.registry).counter_add("serve_stream_connects", 1.0);
    stream_ndjson(
        stream,
        sub,
        ("job", id),
        |recv| {
            let latency = (shared.cfg.clock.now() - recv.item.published_at).max(0.0);
            {
                let mut reg = lock(&shared.registry);
                reg.hist_observe("serve_snapshot_delivery_seconds", latency);
                if recv.dropped > 0 {
                    reg.counter_add("serve_snapshots_dropped", recv.dropped as f64);
                }
            }
            recv.item.to_json_line()
        },
        // Terminal line: final state + summary, so a stream consumer
        // needs no second request to learn the outcome.
        |w| {
            w.str_(Some("job"), id);
            w.bool_(Some("done"), true);
            let jobs = lock(&shared.jobs);
            if let Some(e) = jobs.map.get(id) {
                w.str_(Some("state"), e.state.as_str());
                if let Some(s) = &e.summary {
                    s.write_json(w, Some("summary"));
                }
                if let Some(err) = &e.error {
                    w.str_(Some("error"), err);
                }
            }
        },
    )
}

/// `GET /telemetry`: live chunked-NDJSON stream of the daemon-wide
/// telemetry feed — one line per job lifecycle event, with the
/// cross-job duration sketch folded into every `finished` event.
/// `?from=N` replays the retained ring history first. The stream runs
/// until the client disconnects or the daemon drains; the terminal
/// line carries totals so a consumer can account for ring evictions.
fn stream_telemetry(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    req: &http::Request,
) -> std::io::Result<()> {
    let sub = match req.query_param("from").and_then(|v| v.parse::<u64>().ok()) {
        Some(from) => shared.telemetry.subscribe_from(from),
        None => shared.telemetry.subscribe_from(0),
    };
    lock(&shared.registry).counter_add("serve_telemetry_connects", 1.0);
    stream_ndjson(
        stream,
        sub,
        ("event", "gap"),
        |recv| format!("{}\n", recv.item.line),
        |w| {
            w.str_(Some("event"), "closed");
            w.bool_(Some("done"), true);
            w.u64(Some("events_total"), shared.telemetry.published());
        },
    )
}

/// Serve `sub` as a chunked NDJSON response until its ring closes and
/// drains: one `line` per entry (newline included), preceded by a
/// `{"<gap.0>": "<gap.1>", "dropped": n}` line when the subscriber
/// skipped `n` evicted entries to reach it, so consumers that count
/// entries can account for evictions; then one terminal object of
/// `last`'s fields and `dropped_total`. The ring is long-polled, so a
/// dead client is noticed within a bounded interval even on an idle
/// stream, and a failed write ends the response quietly: the client went
/// away, and the producer is unaffected.
fn stream_ndjson<T>(
    stream: &mut TcpStream,
    mut sub: Subscriber<T>,
    gap: (&str, &str),
    mut line: impl FnMut(&Recv<T>) -> String,
    last: impl FnOnce(&mut JsonWriter),
) -> std::io::Result<()> {
    http::start_chunked(stream, "application/x-ndjson")?;
    loop {
        let recv = match sub.recv_timeout(Duration::from_millis(250)) {
            Ok(r) => r,
            Err(RecvTimeoutError::Closed) => break,
            Err(RecvTimeoutError::Timeout) => continue,
        };
        let mut out = String::new();
        if recv.dropped > 0 {
            let mut w = JsonWriter::new();
            w.begin_obj(None);
            w.str_(Some(gap.0), gap.1);
            w.u64(Some("dropped"), recv.dropped);
            w.end_obj();
            out = w.finish();
            out.push('\n');
        }
        out.push_str(&line(&recv));
        if http::write_chunk(stream, out.as_bytes()).is_err() {
            return Ok(());
        }
    }
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    last(&mut w);
    w.u64(Some("dropped_total"), sub.dropped_total());
    w.end_obj();
    let mut end = w.finish();
    end.push('\n');
    http::write_chunk(stream, end.as_bytes()).ok();
    http::finish_chunked(stream)
}

fn metrics(stream: &mut TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let (queued, running, done, failed, subscribers) = {
        let jobs = lock(&shared.jobs);
        let mut c = (0u64, 0u64, 0u64, 0u64, 0u64);
        for e in jobs.map.values() {
            match e.state {
                JobState::Queued => c.0 += 1,
                JobState::Running => c.1 += 1,
                JobState::Done => c.2 += 1,
                JobState::Failed => c.3 += 1,
            }
            c.4 += e.ring.subscriber_count() as u64;
        }
        c
    };
    let mut reg = lock(&shared.registry);
    // Scrape-time gauges.
    reg.gauge_set("serve_queue_depth", queued as f64);
    reg.gauge_set("serve_subscribers", subscribers as f64);
    reg.gauge_set(
        "serve_open_connections",
        shared.open_connections.load(Ordering::SeqCst) as f64,
    );
    for (state, v) in [
        ("queued", queued),
        ("running", running),
        ("done", done),
        ("failed", failed),
    ] {
        reg.with_label("state", state, |r| r.gauge_set("serve_jobs", v as f64));
    }
    let body = reg.to_text();
    drop(reg);
    http::respond(
        stream,
        200,
        "text/plain; version=0.0.4",
        &[],
        body.as_bytes(),
    )
}

fn trace_job(stream: &mut TcpStream, shared: &Arc<Shared>, id: &str) -> std::io::Result<()> {
    let jobs = lock(&shared.jobs);
    match jobs.map.get(id) {
        None => {
            drop(jobs);
            http::respond_error(stream, 404, "no such job")
        }
        Some(e) if !e.cfg.trace => {
            drop(jobs);
            http::respond_error(stream, 404, "job was not submitted with \"trace\": true")
        }
        Some(e) => match &e.trace_json {
            Some(json) => {
                let body = json.clone();
                drop(jobs);
                http::respond_json(stream, 200, &body)
            }
            None => {
                drop(jobs);
                http::respond_error(stream, 409, "trace not ready: job still queued or running")
            }
        },
    }
}
