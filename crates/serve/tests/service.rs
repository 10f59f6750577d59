//! End-to-end tests of the daemon over real sockets: lifecycle,
//! backpressure, fault recovery visible in a live stream, tracing,
//! clock injection and graceful drain.

use std::sync::Arc;
use std::time::{Duration, Instant};

use greem_obs::json::{self, Value};
use greem_obs::metrics::parse_exposition;
use greem_obs::ManualClock;
use greem_serve::http;
use greem_serve::{start, ServerConfig};

fn test_config(tag: &str) -> ServerConfig {
    ServerConfig {
        data_dir: std::env::temp_dir()
            .join(format!("greem_serve_test_{tag}_{}", std::process::id())),
        ..ServerConfig::default()
    }
}

/// Poll `/jobs/:id` until it reaches a terminal state.
fn wait_done(addr: &str, id: &str, timeout: Duration) -> Value {
    let t0 = Instant::now();
    loop {
        let resp = http::request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!(resp.status, 200);
        let v = json::parse(&resp.body_str()).unwrap();
        let state = v.get("state").and_then(Value::as_str).unwrap().to_string();
        if state == "done" || state == "failed" {
            return v;
        }
        assert!(
            t0.elapsed() < timeout,
            "job {id} still {state} after {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn submit(addr: &str, body: &str) -> (u16, Value) {
    let resp = http::request(addr, "POST", "/jobs", Some(body)).unwrap();
    let v = json::parse(&resp.body_str()).unwrap();
    (resp.status, v)
}

/// NDJSON lines of a whole stream (splits multi-line chunks too).
fn read_stream(addr: &str, path: &str) -> Vec<Value> {
    let mut s = http::open_stream(addr, path).unwrap();
    assert_eq!(s.status, 200);
    let mut text = String::new();
    while let Some(chunk) = s.next_chunk().unwrap() {
        text.push_str(&String::from_utf8(chunk).unwrap());
    }
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).unwrap())
        .collect()
}

#[test]
fn job_lifecycle_status_metrics_and_replay_stream() {
    let handle = start(test_config("lifecycle")).unwrap();
    let addr = handle.addr_str();

    // Bad submissions are 400 with a reason; unknown jobs are 404.
    let (status, err) = submit(&addr, r#"{"banana": 1}"#);
    assert_eq!(status, 400);
    assert!(err.get("error").is_some());
    let (status, err) = submit(&addr, r#"{"mesh": 12, "ranks": 2}"#);
    assert_eq!(status, 400);
    let reason = err.get("error").and_then(Value::as_str).unwrap();
    assert!(reason.contains("\"mesh\""), "{reason}");
    assert_eq!(
        http::request(&addr, "GET", "/jobs/j-99", None)
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        http::request(&addr, "GET", "/healthz", None)
            .unwrap()
            .status,
        200
    );

    // A clean job runs to completion.
    let (status, sub) = submit(&addr, r#"{"n": 96, "steps": 4, "ranks": 2, "mesh": 8}"#);
    assert_eq!(status, 202);
    let id = sub.get("id").and_then(Value::as_str).unwrap().to_string();
    let done = wait_done(&addr, &id, Duration::from_secs(60));
    assert_eq!(done.get("state").and_then(Value::as_str), Some("done"));
    let summary = done.get("summary").expect("summary present");
    assert_eq!(summary.get("steps_done").and_then(Value::as_f64), Some(4.0));
    assert_eq!(
        summary.get("snapshots_published").and_then(Value::as_f64),
        Some(4.0)
    );

    // `?from=0` replays the full retained history deterministically:
    // one line per step, then the terminal summary line.
    let lines = read_stream(&addr, &format!("/jobs/{id}/stream?from=0"));
    assert_eq!(lines.len(), 5, "4 snapshots + terminal line");
    for (i, line) in lines[..4].iter().enumerate() {
        assert_eq!(
            line.get("step").and_then(Value::as_f64),
            Some(i as f64 + 1.0)
        );
        assert_eq!(line.get("n").and_then(Value::as_f64), Some(96.0));
        let density = line.get("density").and_then(Value::as_arr).unwrap();
        assert_eq!(density.len(), 8 * 8);
    }
    let terminal = &lines[4];
    assert_eq!(terminal.get("done"), Some(&Value::Bool(true)));
    assert_eq!(terminal.get("state").and_then(Value::as_str), Some("done"));

    // /metrics is Prometheus-parseable and carries the serve_* series.
    let resp = http::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(resp.status, 200);
    let samples = parse_exposition(&resp.body_str()).unwrap();
    let names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
    for want in [
        "serve_jobs_submitted",
        "serve_jobs_rejected",
        "serve_queue_depth",
        "serve_snapshots_published",
        "serve_snapshot_delivery_seconds_count",
        "serve_job_duration_seconds_count",
    ] {
        assert!(names.contains(&want), "missing metric {want}: {names:?}");
    }
    let jobs_by_state: f64 = samples
        .iter()
        .filter(|s| s.name == "serve_jobs")
        .map(|s| s.value)
        .sum();
    assert!(jobs_by_state >= 1.0, "state gauges cover the finished job");

    handle.shutdown();
}

/// The acceptance criterion: a fault-injected crash mid-job triggers
/// rollback-restart underneath a subscriber that connected *before*
/// the fault — its stream shows the rollback counter jump and still
/// reaches the final step.
#[test]
fn crash_mid_job_resumes_subscriber_stream_to_final_step() {
    let handle = start(test_config("crash")).unwrap();
    let addr = handle.addr_str();

    // Paced so the subscriber is provably attached long before the
    // mid-run crash step fires.
    let (status, sub) = submit(
        &addr,
        r#"{"n": 128, "steps": 6, "ranks": 2, "mesh": 8, "scenario": "crash", "ckpt_every": 2, "pace_ms": 20}"#,
    );
    assert_eq!(status, 202);
    let id = sub.get("id").and_then(Value::as_str).unwrap().to_string();

    // Connect immediately (job is queued or just started) and consume
    // the live stream to its end.
    let lines = read_stream(&addr, &format!("/jobs/{id}/stream?from=0"));
    let steps: Vec<f64> = lines
        .iter()
        .filter_map(|l| l.get("step").and_then(Value::as_f64))
        .collect();
    assert!(!steps.is_empty(), "subscriber received snapshots");
    let max_rollbacks = lines
        .iter()
        .filter_map(|l| l.get("rollbacks").and_then(Value::as_f64))
        .fold(0.0, f64::max);
    assert!(
        max_rollbacks >= 1.0,
        "stream shows the rollback counter jump: {lines:?}"
    );
    assert_eq!(
        *steps.last().unwrap(),
        6.0,
        "stream resumed after the fault and reached the final step"
    );
    // After a rollback, re-executed step indices repeat — the stream
    // shows recovery, not a gap.
    let terminal = lines.last().unwrap();
    assert_eq!(terminal.get("done"), Some(&Value::Bool(true)));
    assert_eq!(terminal.get("state").and_then(Value::as_str), Some("done"));
    let summary = terminal.get("summary").expect("terminal carries summary");
    assert!(summary.get("rollbacks").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(summary.get("steps_done").and_then(Value::as_f64), Some(6.0));

    handle.shutdown();
}

#[test]
fn full_queue_gets_429_with_retry_after() {
    let cfg = ServerConfig {
        workers: 1,
        max_queue: 1,
        ..test_config("backpressure")
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr_str();

    // Job A occupies the single worker (paced to stay running).
    let (_, a) = submit(
        &addr,
        r#"{"n": 64, "steps": 8, "ranks": 1, "mesh": 8, "pace_ms": 100}"#,
    );
    let a_id = a.get("id").and_then(Value::as_str).unwrap().to_string();
    let t0 = Instant::now();
    loop {
        let v = json::parse(
            &http::request(&addr, "GET", &format!("/jobs/{a_id}"), None)
                .unwrap()
                .body_str(),
        )
        .unwrap();
        if v.get("state").and_then(Value::as_str) == Some("running") {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(30));
        std::thread::sleep(Duration::from_millis(5));
    }
    // Job B fills the queue; job C is throttled with Retry-After.
    let (sb, _) = submit(&addr, r#"{"n": 64, "steps": 1, "ranks": 1, "mesh": 8}"#);
    assert_eq!(sb, 202);
    let resp = http::request(&addr, "POST", "/jobs", Some(r#"{"n": 64, "ranks": 1}"#)).unwrap();
    assert_eq!(resp.status, 429);
    assert_eq!(resp.header("retry-after"), Some("1"));
    let v = json::parse(&resp.body_str()).unwrap();
    assert_eq!(v.get("error").and_then(Value::as_str), Some("queue full"));

    handle.shutdown();
}

#[test]
fn traced_job_serves_valid_chrome_trace() {
    let handle = start(test_config("trace")).unwrap();
    let addr = handle.addr_str();

    let (_, sub) = submit(
        &addr,
        r#"{"n": 96, "steps": 2, "ranks": 2, "mesh": 8, "trace": true}"#,
    );
    let id = sub.get("id").and_then(Value::as_str).unwrap().to_string();
    wait_done(&addr, &id, Duration::from_secs(60));

    let resp = http::request(&addr, "GET", &format!("/trace/{id}"), None).unwrap();
    assert_eq!(resp.status, 200);
    let trace = json::parse(&resp.body_str()).unwrap();
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("chrome trace has traceEvents");
    assert!(!events.is_empty(), "traced job captured spans");

    // Untraced jobs 404 on /trace.
    let (_, sub) = submit(&addr, r#"{"n": 96, "steps": 1, "ranks": 2, "mesh": 8}"#);
    let id2 = sub.get("id").and_then(Value::as_str).unwrap().to_string();
    wait_done(&addr, &id2, Duration::from_secs(60));
    assert_eq!(
        http::request(&addr, "GET", &format!("/trace/{id2}"), None)
            .unwrap()
            .status,
        404
    );

    handle.shutdown();
}

/// The `Clock` seam: with a `ManualClock` injected, a heavily paced job
/// finishes without wall-clock sleeps (pacing advances virtual time).
#[test]
fn manual_clock_makes_paced_jobs_run_without_sleeping() {
    let clock = Arc::new(ManualClock::new());
    let cfg = ServerConfig {
        clock,
        ..test_config("manualclock")
    };
    let handle = start(cfg).unwrap();
    let addr = handle.addr_str();

    // 8 snapshots x 500 ms pace = 4 s of nominal pacing.
    let t0 = Instant::now();
    let (_, sub) = submit(
        &addr,
        r#"{"n": 64, "steps": 8, "ranks": 1, "mesh": 8, "pace_ms": 500}"#,
    );
    let id = sub.get("id").and_then(Value::as_str).unwrap().to_string();
    let done = wait_done(&addr, &id, Duration::from_secs(60));
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "paced job must not wall-sleep under ManualClock (took {:?})",
        t0.elapsed()
    );
    assert_eq!(done.get("state").and_then(Value::as_str), Some("done"));

    handle.shutdown();
}

#[test]
fn graceful_drain_rejects_new_work_and_finishes_queued() {
    let handle = start(test_config("drain")).unwrap();
    let addr = handle.addr_str();

    let (_, sub) = submit(
        &addr,
        r#"{"n": 64, "steps": 3, "ranks": 1, "mesh": 8, "pace_ms": 10}"#,
    );
    let id = sub.get("id").and_then(Value::as_str).unwrap().to_string();
    // Attach a stream before requesting the drain.
    let mut s = http::open_stream(&addr, &format!("/jobs/{id}/stream?from=0")).unwrap();
    assert_eq!(s.status, 200);

    let resp = http::request(&addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    // New submissions bounce while draining; status still answers.
    let resp = http::request(&addr, "POST", "/jobs", Some("{}")).unwrap();
    assert_eq!(resp.status, 503);
    assert_eq!(
        http::request(&addr, "GET", &format!("/jobs/{id}"), None)
            .unwrap()
            .status,
        200
    );

    // The in-flight job runs to completion and the already-connected
    // stream reaches its terminal line during the drain.
    let mut text = String::new();
    while let Some(chunk) = s.next_chunk().unwrap() {
        text.push_str(&String::from_utf8(chunk).unwrap());
    }
    let last = json::parse(text.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("done"), Some(&Value::Bool(true)));
    assert_eq!(last.get("state").and_then(Value::as_str), Some("done"));

    handle.shutdown();
    // After the drain completes the socket is gone.
    assert!(http::request(&addr, "GET", "/healthz", None).is_err());
}

/// Accept is event-driven: a request pays no accept-poll wait. (The
/// polling loop this replaced slept 10 ms between looks, so `/healthz`
/// read 10.1 ms at the median.)
#[test]
fn healthz_is_answered_without_a_poll_wait() {
    let handle = start(test_config("latency")).unwrap();
    let addr = handle.addr_str();
    let mut walls: Vec<Duration> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            let resp = http::request(&addr, "GET", "/healthz", None).unwrap();
            assert_eq!(resp.status, 200);
            t0.elapsed()
        })
        .collect();
    walls.sort();
    let p50 = walls[walls.len() / 2];
    assert!(p50 < Duration::from_millis(2), "/healthz p50 {p50:?}");
    handle.shutdown();
}

/// A body of nothing but `[` at the size cap is a 400, not a parser
/// recursing off the end of the connection thread's stack, and the
/// daemon keeps answering.
#[test]
fn deeply_nested_body_is_a_400_and_the_daemon_lives() {
    let handle = start(test_config("nested")).unwrap();
    let addr = handle.addr_str();
    let body = "[".repeat(http::MAX_BODY);
    let resp = http::request(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    let resp = http::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
    handle.shutdown();
}

/// `shutdown()` must wake an acceptor nobody ever connected to.
#[test]
fn shutdown_of_an_untouched_daemon_returns_promptly() {
    let handle = start(test_config("untouched")).unwrap();
    let addr = handle.addr_str();
    let t0 = Instant::now();
    handle.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    assert!(http::request(&addr, "GET", "/healthz", None).is_err());
}

/// The `/telemetry` feed: lifecycle events for every job, the
/// cross-job duration sketch on each `finished` line, `?from=0`
/// replay, and a clean terminal line when the daemon drains.
#[test]
fn telemetry_feed_streams_lifecycle_events_with_duration_sketch() {
    let handle = start(test_config("telemetry")).unwrap();
    let addr = handle.addr_str();

    // Attach a live listener before any job exists.
    let mut live = http::open_stream(&addr, "/telemetry").unwrap();
    assert_eq!(live.status, 200);

    let mut ids = Vec::new();
    for _ in 0..2 {
        let (status, sub) = submit(&addr, r#"{"n": 64, "steps": 2, "ranks": 1, "mesh": 8}"#);
        assert_eq!(status, 202);
        ids.push(sub.get("id").and_then(Value::as_str).unwrap().to_string());
    }
    for id in &ids {
        wait_done(&addr, id, Duration::from_secs(60));
    }

    // A late subscriber replays the retained history: submitted →
    // running → finished for both jobs.
    let mut late = http::open_stream(&addr, "/telemetry?from=0").unwrap();
    assert_eq!(late.status, 200);

    // The telemetry counter rides the shared registry.
    let resp = http::request(&addr, "GET", "/metrics", None).unwrap();
    let samples = parse_exposition(&resp.body_str()).unwrap();
    let events = samples
        .iter()
        .find(|s| s.name == "serve_telemetry_events")
        .expect("serve_telemetry_events counter");
    assert!(events.value >= 6.0, "2 jobs × 3 lifecycle events");

    handle.shutdown();

    // Both streams (live-from-start and replay) end with the terminal
    // line once the drain closes the feed.
    for s in [&mut live, &mut late] {
        let mut text = String::new();
        while let Some(chunk) = s.next_chunk().unwrap() {
            text.push_str(&String::from_utf8(chunk).unwrap());
        }
        let lines: Vec<Value> = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| json::parse(l).unwrap())
            .collect();
        let last = lines.last().expect("terminal line");
        assert_eq!(last.get("event").and_then(Value::as_str), Some("closed"));
        assert_eq!(last.get("done"), Some(&Value::Bool(true)));
        assert!(last.get("events_total").and_then(Value::as_f64).unwrap() >= 6.0);

        for id in &ids {
            for event in ["submitted", "running", "finished"] {
                assert!(
                    lines
                        .iter()
                        .any(|l| l.get("event").and_then(Value::as_str) == Some(event)
                            && l.get("job").and_then(Value::as_str) == Some(id)),
                    "missing {event} event for {id}"
                );
            }
        }
        // Every finished line carries the mergeable duration sketch;
        // by the second job it has seen two observations.
        let finished: Vec<&Value> = lines
            .iter()
            .filter(|l| l.get("event").and_then(Value::as_str) == Some("finished"))
            .collect();
        assert_eq!(finished.len(), 2);
        let sk = finished
            .last()
            .unwrap()
            .get("job_duration_seconds")
            .expect("duration sketch summary");
        assert_eq!(sk.get("count").and_then(Value::as_f64), Some(2.0));
        for k in ["p50", "p95", "p99", "min", "max"] {
            assert!(sk.get(k).is_some(), "sketch summary missing {k}");
        }
    }
}
