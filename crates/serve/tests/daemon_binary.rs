//! The real `greem-serve` binary over TCP: it announces its address,
//! serves a traced two-rank job to a streaming subscriber, exposes
//! parseable metrics and the job's trace, and on SIGTERM drains and
//! exits 0.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};

use greem_obs::json::{self, Value};
use greem_obs::metrics::parse_exposition;
use greem_serve::http;

/// Kills the daemon if the test fails before it drains.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn next_line(out: &mut BufReader<ChildStdout>) -> Value {
    let mut line = String::new();
    out.read_line(&mut line).expect("read daemon stdout");
    json::parse(&line).unwrap_or_else(|e| panic!("stdout line {line:?}: {e}"))
}

#[test]
fn binary_serves_a_traced_job_and_drains_on_sigterm() {
    let data_dir = std::env::temp_dir().join(format!("greem_serve_binary_{}", std::process::id()));
    let child = Command::new(env!("CARGO_BIN_EXE_greem-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2", "--data-dir"])
        .arg(&data_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("start greem-serve");
    let mut daemon = Daemon(child);
    let mut out = BufReader::new(daemon.0.stdout.take().unwrap());
    let listening = next_line(&mut out);
    let addr = listening.get("listening").and_then(Value::as_str).unwrap();

    assert_eq!(
        http::request(addr, "GET", "/healthz", None).unwrap().status,
        200
    );

    // A traced job, streamed from its first snapshot until it is done.
    let body =
        r#"{"n": 96, "steps": 4, "ranks": 2, "mesh": 8, "snapshot_every": 1, "trace": true}"#;
    let resp = http::request(addr, "POST", "/jobs", Some(body)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body_str());
    let sub = json::parse(&resp.body_str()).unwrap();
    let id = sub.get("id").and_then(Value::as_str).unwrap();
    let mut stream = http::open_stream(addr, &format!("/jobs/{id}/stream?from=0")).unwrap();
    assert_eq!(stream.status, 200);
    let (mut snapshots, mut done) = (0, None);
    while done.is_none() {
        let Some(chunk) = stream.next_chunk().unwrap() else {
            break;
        };
        for line in String::from_utf8(chunk)
            .unwrap()
            .lines()
            .filter(|l| !l.trim().is_empty())
        {
            let v = json::parse(line).unwrap();
            if v.get("done") == Some(&Value::Bool(true)) {
                done = Some(v);
            } else if v.get("step").is_some() {
                let density = v.get("density").and_then(Value::as_arr);
                assert!(
                    density.is_some_and(|d| !d.is_empty()),
                    "snapshot without density"
                );
                snapshots += 1;
            }
        }
    }
    assert!(snapshots >= 2, "subscriber saw {snapshots} snapshots");
    let state = |v: &Value| v.get("state").and_then(Value::as_str).map(str::to_string);
    assert_eq!(
        state(&done.expect("terminal line")).as_deref(),
        Some("done")
    );
    let status = http::request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(status.status, 200);
    assert_eq!(
        state(&json::parse(&status.body_str()).unwrap()).as_deref(),
        Some("done")
    );

    // /metrics parses and carries the serve_* series.
    let resp = http::request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(resp.status, 200);
    let samples = parse_exposition(&resp.body_str()).unwrap();
    for want in [
        "serve_jobs_submitted",
        "serve_snapshots_published",
        "serve_stream_connects",
        "serve_job_duration_seconds",
    ] {
        assert!(
            samples.iter().any(|s| s.name.starts_with(want)),
            "missing {want}"
        );
    }

    // The traced job serves Chrome-trace JSON with events.
    let resp = http::request(addr, "GET", &format!("/trace/{id}"), None).unwrap();
    assert_eq!(resp.status, 200);
    let trace = json::parse(&resp.body_str()).unwrap();
    let events = trace.get("traceEvents").and_then(Value::as_arr);
    assert!(events.is_some_and(|e| !e.is_empty()), "empty trace");

    // SIGTERM drains: exit code 0 and the `drained` line.
    let pid = daemon.0.id().to_string();
    let kill = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(kill.success());
    let rest: Vec<String> = out.lines().map(Result::unwrap).collect();
    assert!(
        rest.iter().any(|l| l.contains(r#""drained": true"#)),
        "{rest:?}"
    );
    assert_eq!(daemon.0.wait().unwrap().code(), Some(0));
    let _ = std::fs::remove_dir_all(&data_dir);
}
