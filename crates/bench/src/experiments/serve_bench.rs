//! **Service layer** — load-test the `greem-serve` daemon in-process:
//! job throughput through the bounded worker pool, admission control
//! under a deliberate overload burst, and snapshot fan-out from one
//! producing job to a panel of streaming subscribers, with delivery
//! latency measured end to end over the real HTTP wire.
//!
//! Everything runs against a daemon started on a loopback port inside
//! this process, driven by the crate's own minimal HTTP client — the
//! same bytes a remote client would see. Deterministic counts (jobs
//! completed, 429s under a saturated queue, snapshots per subscriber,
//! drops) are **gated** against `baselines/serve_bench_*.json`;
//! wall-clock rates and latency quantiles (from a `DdSketch`, within
//! 1 %) are recorded ungated, same policy as `harness regress`
//! (DESIGN.md §13).

use std::time::{Duration, Instant};

use greem_obs::json::{self, Value};
use greem_obs::metrics::parse_exposition;
use greem_obs::{Clock, DdSketch, WallClock};
use greem_serve::{http, start, ServerConfig};

use greem_analysis::{Direction, MetricSpec};

/// Everything one serve-bench run measured.
#[derive(Debug, Clone)]
pub struct ServeBenchOutcome {
    /// Throughput phase: `jobs` tiny jobs pushed through the pool.
    pub jobs: u64,
    pub jobs_wall_s: f64,
    pub jobs_per_sec: f64,
    /// Overload phase: submissions deliberately past the queue bound.
    pub burst_submitted: u64,
    pub throttled_429: u64,
    /// Fan-out phase.
    pub subscribers: u64,
    pub snapshots_per_subscriber: u64,
    pub fanout_snapshots_total: u64,
    pub fanout_wall_s: f64,
    pub fanout_snapshots_per_sec: f64,
    pub dropped_total: u64,
    /// End-to-end snapshot delivery latency (publish → client read),
    /// seconds.
    pub delivery_p50_s: f64,
    pub delivery_p99_s: f64,
    /// Server-side count of delivery-latency observations scraped from
    /// `/metrics` (proves the daemon's own histogram agrees).
    pub server_delivery_count: u64,
    pub wall_s: f64,
}

fn data_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("greem_serve_bench_{tag}_{}", std::process::id()))
}

fn submit(addr: &str, body: &str) -> (u16, Value) {
    let resp = http::request(addr, "POST", "/jobs", Some(body)).expect("submit");
    let v = json::parse(&resp.body_str()).unwrap_or(Value::Null);
    (resp.status, v)
}

fn job_id(v: &Value) -> String {
    v.get("id")
        .and_then(Value::as_str)
        .expect("job id")
        .to_string()
}

fn wait_done(addr: &str, id: &str) {
    let t0 = Instant::now();
    loop {
        let resp = http::request(addr, "GET", &format!("/jobs/{id}"), None).expect("status");
        let v = json::parse(&resp.body_str()).unwrap();
        match v.get("state").and_then(Value::as_str) {
            Some("done") => return,
            Some("failed") => panic!("bench job {id} failed: {v:?}"),
            _ => {}
        }
        assert!(t0.elapsed() < Duration::from_secs(120), "job {id} stuck");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Run the three phases and assemble the outcome.
pub fn measure(small: bool) -> ServeBenchOutcome {
    let t_all = Instant::now();

    // Phase 1: job throughput. Tiny clean jobs through a 2-worker pool;
    // the queue bound is raised so admission control isn't the variable
    // under test here.
    let jobs: u64 = if small { 4 } else { 12 };
    let (n, steps, ranks) = if small { (64, 2, 1) } else { (128, 3, 2) };
    let job_body = format!(r#"{{"n": {n}, "steps": {steps}, "ranks": {ranks}, "mesh": 8}}"#);
    let jobs_wall_s = {
        let handle = start(ServerConfig {
            workers: 2,
            max_queue: jobs as usize,
            data_dir: data_dir("jobs"),
            ..ServerConfig::default()
        })
        .expect("start daemon");
        let addr = handle.addr_str();
        let t0 = Instant::now();
        let ids: Vec<String> = (0..jobs)
            .map(|_| {
                let (status, v) = submit(&addr, &job_body);
                assert_eq!(status, 202, "submission admitted: {v:?}");
                job_id(&v)
            })
            .collect();
        for id in &ids {
            wait_done(&addr, id);
        }
        let wall = t0.elapsed().as_secs_f64();
        handle.shutdown();
        wall
    };

    // Phase 2: admission control. One worker pinned down by a paced
    // job, a full queue, then a burst — every excess submission must
    // get 429 + Retry-After, deterministically.
    let burst_submitted: u64 = 3;
    let throttled_429 = {
        let handle = start(ServerConfig {
            workers: 1,
            max_queue: 2,
            data_dir: data_dir("burst"),
            ..ServerConfig::default()
        })
        .expect("start daemon");
        let addr = handle.addr_str();
        let (status, v) = submit(
            &addr,
            r#"{"n": 64, "steps": 8, "ranks": 1, "mesh": 8, "pace_ms": 50}"#,
        );
        assert_eq!(status, 202);
        let pinned = job_id(&v);
        // Wait until the paced job occupies the worker, so queue depth
        // is exactly what we fill next.
        let t0 = Instant::now();
        loop {
            let resp = http::request(&addr, "GET", &format!("/jobs/{pinned}"), None).unwrap();
            let v = json::parse(&resp.body_str()).unwrap();
            if v.get("state").and_then(Value::as_str) == Some("running") {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(30));
            std::thread::sleep(Duration::from_millis(2));
        }
        for _ in 0..2 {
            let (status, _) = submit(&addr, r#"{"n": 64, "steps": 1, "ranks": 1, "mesh": 8}"#);
            assert_eq!(status, 202, "queue slots admit");
        }
        let mut throttled = 0u64;
        for _ in 0..burst_submitted {
            let resp = http::request(&addr, "POST", "/jobs", Some(r#"{"n": 64, "ranks": 1}"#))
                .expect("burst submit");
            if resp.status == 429 {
                assert!(
                    resp.header("retry-after").is_some(),
                    "429 carries Retry-After"
                );
                throttled += 1;
            }
        }
        handle.shutdown();
        throttled
    };

    // Phase 3: fan-out. One paced producing job, a panel of streaming
    // subscribers each replaying from sequence 0 — every subscriber
    // must account for every snapshot, and each delivery's latency is
    // measured client-side against the publish timestamp (same process,
    // same clock epoch).
    let subscribers: u64 = 8;
    let fan_steps: u64 = if small { 6 } else { 10 };
    let (fan_total, fan_wall_s, dropped_total, latencies, server_delivery_count) = {
        let handle = start(ServerConfig {
            workers: 1,
            data_dir: data_dir("fanout"),
            ..ServerConfig::default()
        })
        .expect("start daemon");
        let addr = handle.addr_str();
        let (status, v) = submit(
            &addr,
            &format!(
                r#"{{"n": {n}, "steps": {fan_steps}, "ranks": {ranks}, "mesh": 8, "pace_ms": 5}}"#
            ),
        );
        assert_eq!(status, 202);
        let id = job_id(&v);
        let t0 = Instant::now();
        let panel: Vec<_> = (0..subscribers)
            .map(|_| {
                let addr = addr.clone();
                let path = format!("/jobs/{id}/stream?from=0");
                std::thread::spawn(move || {
                    let clock = WallClock;
                    let mut stream = http::open_stream(&addr, &path).expect("open stream");
                    assert_eq!(stream.status, 200);
                    let mut lats = Vec::new();
                    let mut dropped = 0u64;
                    while let Some(chunk) = stream.next_chunk().expect("read chunk") {
                        // Latency is measured at chunk arrival, before
                        // the (cheap) line parse.
                        let now = clock.now();
                        let chunk = String::from_utf8(chunk).unwrap();
                        for line in chunk.lines().filter(|l| !l.trim().is_empty()) {
                            let v = json::parse(line).unwrap();
                            if let Some(ts) = v.get("published_at").and_then(Value::as_f64) {
                                lats.push((now - ts).max(0.0));
                            } else if v.get("done").is_some() {
                                dropped +=
                                    v.get("dropped_total")
                                        .and_then(Value::as_f64)
                                        .unwrap_or(0.0) as u64;
                            }
                        }
                    }
                    (lats, dropped)
                })
            })
            .collect();
        let mut snapshots = 0u64;
        let mut dropped = 0u64;
        let mut lats: Vec<f64> = Vec::new();
        for p in panel {
            let (sub_lats, sub_dropped) = p.join().expect("subscriber thread");
            snapshots += sub_lats.len() as u64;
            dropped += sub_dropped;
            lats.extend(sub_lats);
        }
        let wall = t0.elapsed().as_secs_f64();
        // The daemon's own delivery histogram must have seen the same
        // number of deliveries.
        let resp = http::request(&addr, "GET", "/metrics", None).expect("scrape");
        let samples = parse_exposition(&resp.body_str()).expect("prometheus-parseable");
        let count = samples
            .iter()
            .find(|s| s.name == "serve_snapshot_delivery_seconds_count")
            .map(|s| s.value as u64)
            .unwrap_or(0);
        handle.shutdown();
        (snapshots, wall, dropped, lats, count)
    };

    let mut lats = DdSketch::default();
    latencies.into_iter().for_each(|l| lats.observe(l));
    let delivery = |q| lats.quantile(q).unwrap_or(0.0);
    ServeBenchOutcome {
        jobs,
        jobs_wall_s,
        jobs_per_sec: jobs as f64 / jobs_wall_s.max(1e-9),
        burst_submitted,
        throttled_429,
        subscribers,
        snapshots_per_subscriber: fan_steps,
        fanout_snapshots_total: fan_total,
        fanout_wall_s: fan_wall_s,
        fanout_snapshots_per_sec: fan_total as f64 / fan_wall_s.max(1e-9),
        dropped_total,
        delivery_p50_s: delivery(0.50),
        delivery_p99_s: delivery(0.99),
        server_delivery_count,
        wall_s: t_all.elapsed().as_secs_f64(),
    }
}

/// The gated metric vector (deterministic counts gated, wall rates
/// recorded ungated — see module docs).
pub fn metric_specs(o: &ServeBenchOutcome) -> Vec<MetricSpec> {
    vec![
        MetricSpec::new("jobs_completed", o.jobs as f64, 0.0, true, Direction::Exact),
        MetricSpec::new(
            "throttled_429",
            o.throttled_429 as f64,
            0.0,
            true,
            Direction::Exact,
        ),
        MetricSpec::new(
            "fanout_subscribers",
            o.subscribers as f64,
            0.0,
            true,
            Direction::Exact,
        ),
        MetricSpec::new(
            "fanout_snapshots_total",
            o.fanout_snapshots_total as f64,
            0.0,
            true,
            Direction::Exact,
        ),
        MetricSpec::new(
            "stream_dropped_total",
            o.dropped_total as f64,
            0.0,
            true,
            Direction::Exact,
        ),
        MetricSpec::new(
            "server_delivery_count",
            o.server_delivery_count as f64,
            0.0,
            true,
            Direction::Exact,
        ),
        MetricSpec::new(
            "jobs_per_sec",
            o.jobs_per_sec,
            0.5,
            false,
            Direction::HigherIsBetter,
        ),
        MetricSpec::new(
            "fanout_snapshots_per_sec",
            o.fanout_snapshots_per_sec,
            0.5,
            false,
            Direction::HigherIsBetter,
        ),
        MetricSpec::new(
            "delivery_p50_s",
            o.delivery_p50_s,
            0.5,
            false,
            Direction::LowerIsBetter,
        ),
        MetricSpec::new(
            "delivery_p99_s",
            o.delivery_p99_s,
            0.5,
            false,
            Direction::LowerIsBetter,
        ),
        MetricSpec::new("wall_s", o.wall_s, 0.5, false, Direction::LowerIsBetter),
    ]
}

/// `harness serve-bench`: measure, render, and hand the deterministic
/// counts to the gate (`baselines/serve_bench_{small,full}.json`; a
/// baseline is required).
pub fn run(small: bool) -> super::Outcome {
    eprintln!("serve-bench: measuring…");
    let o = measure(small);
    let mut w = super::summary_writer("serve_bench", small);
    w.u64(Some("jobs"), o.jobs);
    w.f64(Some("jobs_wall_s"), o.jobs_wall_s);
    w.f64(Some("jobs_per_sec"), o.jobs_per_sec);
    w.u64(Some("burst_submitted"), o.burst_submitted);
    w.u64(Some("throttled_429"), o.throttled_429);
    w.u64(Some("subscribers"), o.subscribers);
    w.u64(Some("snapshots_per_subscriber"), o.snapshots_per_subscriber);
    w.u64(Some("fanout_snapshots_total"), o.fanout_snapshots_total);
    w.f64(Some("fanout_wall_s"), o.fanout_wall_s);
    w.f64(Some("fanout_snapshots_per_sec"), o.fanout_snapshots_per_sec);
    w.u64(Some("dropped_total"), o.dropped_total);
    w.f64(Some("delivery_p50_s"), o.delivery_p50_s);
    w.f64(Some("delivery_p99_s"), o.delivery_p99_s);
    w.u64(Some("server_delivery_count"), o.server_delivery_count);
    w.f64(Some("wall_s"), o.wall_s);
    let spec = super::GateSpec::new("serve_bench", small, metric_specs(&o), true);
    super::Outcome::new(report_text(&o), w).gated(spec)
}

/// The text report.
fn report_text(o: &ServeBenchOutcome) -> String {
    let mut s = String::from(
        "=== serve-bench: the simulation service under load ==============\n\n\
         In-process daemon on a loopback port; real HTTP/1.1 wire.\n\n",
    );
    s.push_str(&format!(
        "  job throughput : {} jobs through 2 workers in {:.2} s = {:.1} jobs/s\n",
        o.jobs, o.jobs_wall_s, o.jobs_per_sec
    ));
    s.push_str(&format!(
        "  admission ctrl : {}/{} burst submissions throttled with 429 + Retry-After\n",
        o.throttled_429, o.burst_submitted
    ));
    s.push_str(&format!(
        "  fan-out        : {} subscribers x {} snapshots = {} deliveries in {:.2} s ({:.0}/s), {} dropped\n",
        o.subscribers,
        o.snapshots_per_subscriber,
        o.fanout_snapshots_total,
        o.fanout_wall_s,
        o.fanout_snapshots_per_sec,
        o.dropped_total
    ));
    s.push_str(&format!(
        "  delivery latency: p50 {:.2} ms  p99 {:.2} ms (publish -> client read)\n",
        o.delivery_p50_s * 1e3,
        o.delivery_p99_s * 1e3
    ));
    s.push_str(&format!(
        "  server histogram agrees: {} delivery observations scraped from /metrics\n",
        o.server_delivery_count
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_bench_small_is_deterministic_on_gated_counts() {
        let o = measure(true);
        assert_eq!(o.jobs, 4);
        assert_eq!(o.throttled_429, o.burst_submitted);
        assert_eq!(
            o.fanout_snapshots_total,
            o.subscribers * o.snapshots_per_subscriber
        );
        assert_eq!(o.dropped_total, 0);
        assert_eq!(o.server_delivery_count, o.fanout_snapshots_total);
        assert!(o.delivery_p99_s >= o.delivery_p50_s);
    }
}
