//! The benchmark's own contract, exercised through the binary at
//! `--smoke` sizes: what it prints, what it refuses, and what repeats.

use std::path::PathBuf;
use std::process::{Command, Output};

use greem_benchmark::compare::parse_sample;
use greem_benchmark::spec::Spec;
use greem_benchmark::workloads::Workload;
use greem_obs::json::{self, Value};

const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

fn bench() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_greem-benchmark"));
    // The runner pins these itself; a developer's shell must not leak in.
    c.env_remove("RAYON_NUM_THREADS")
        .env_remove("GREEM_PP_AUTOTUNE");
    c
}

fn smoke_run(workload: &str, seed: u64, trace: u8, tag: &str) -> Output {
    bench()
        .args(["run", "--workload", workload, "--smoke", "--spec", SPEC])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .arg("--out")
        .arg(out_dir(tag))
        .output()
        .expect("spawn the benchmark")
}

fn last_line_json(out: &Output) -> Value {
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().expect("a last line")).expect("last line is JSON")
}

fn name_ok(s: &str, max: usize) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let spec = Spec::load(SPEC.as_ref()).expect("BENCHMARK.json parses");
    let listed: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, listed, "BENCHMARK.json lists the workloads");
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(name_ok(&m.name, 64), "metric name {:?}", m.name);
        assert!(
            m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit {:?}",
            m.unit
        );
        assert!(
            m.bound.is_none_or(|b| b > 0.0 && b <= 0.25),
            "bound of {}",
            m.name
        );
    }
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));

    for w in Workload::ALL {
        for (trace, wanted) in [(0, &spec.end_to_end), (1, &spec.per_layer)] {
            let v = last_line_json(&smoke_run(w.name(), 1, trace, "emit"));
            let Value::Obj(top) = &v else {
                panic!("not an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                v.get("correct"),
                Some(&Value::Bool(true)),
                "{} correct",
                w.name()
            );
            assert!(v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
            let Some(Value::Obj(metrics)) = v.get("metrics") else {
                panic!("no metrics")
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = wanted.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(got, want, "{} trace {trace}", w.name());
            for (m, (_, val)) in wanted.iter().zip(metrics) {
                assert_eq!(
                    val.get("unit").and_then(Value::as_str),
                    Some(m.unit.as_str())
                );
                let x = val.get("value").and_then(Value::as_f64).expect("a number");
                assert!(x.is_finite(), "{} = {x}", m.name);
                if trace == 0 {
                    assert!(x > 0.0, "end-to-end {} = {x} on {}", m.name, w.name());
                }
            }
        }
    }
}

#[test]
fn exact_figures_repeat_across_two_runs() {
    for w in Workload::ALL {
        let read = |tag: &str| {
            let out = smoke_run(w.name(), 3, 0, tag);
            assert!(out.status.success());
            let file = out_dir(tag).join(format!("{}-seed3-trace0.json", w.name()));
            parse_sample(&std::fs::read_to_string(file).unwrap()).unwrap()
        };
        let (a, b) = (read("exact-a"), read("exact-b"));
        assert!(!a.exact.is_empty());
        for ((na, va), (nb, vb)) in a.exact.iter().zip(&b.exact) {
            assert_eq!(na, nb);
            assert_eq!(va.to_bits(), vb.to_bits(), "{} {na}", w.name());
        }
    }
}

#[test]
fn time_metrics_are_the_measured_ones_over_the_host_slowdown() {
    for w in ["serial-pp", "serve-mix"] {
        assert!(smoke_run(w, 5, 0, "slowdown").status.success());
        let file = out_dir("slowdown").join(format!("{w}-seed5-trace0.json"));
        let v = json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
        let measured = |name: &str| {
            let m = v.get("as_measured").and_then(|m| m.get(name));
            m.and_then(Value::as_f64).expect(name)
        };
        let reported = |name: &str| {
            let m = v.get("metrics").and_then(|m| m.get(name));
            m.and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .expect(name)
        };
        let slowdown = measured("host_slowdown_p50");
        assert!(
            slowdown > 0.2 && slowdown < 20.0,
            "{w}: slowdown {slowdown}"
        );
        // Each op is scaled by the ticks around it, so the medians agree
        // with the run's median slowdown only roughly.
        for name in ["setup_s", "op_s_p50", "cpu_s_per_op"] {
            let ratio = measured(name) / reported(name) / slowdown;
            assert!(ratio > 0.5 && ratio < 2.0, "{w} {name}: ratio {ratio}");
        }
        let ratio = reported("ops_per_s") / measured("ops_per_s") / slowdown;
        assert!(ratio > 0.5 && ratio < 2.0, "{w} ops_per_s: ratio {ratio}");
    }
}

#[test]
fn refuses_a_conflicting_thread_or_tuner_setting() {
    for (key, value) in [("RAYON_NUM_THREADS", "2"), ("GREEM_PP_AUTOTUNE", "on")] {
        let out = bench()
            .env(key, value)
            .args(["run", "--workload", "serial-pp", "--smoke", "--spec", SPEC])
            .arg("--out")
            .arg(out_dir("refuse"))
            .output()
            .unwrap();
        assert!(!out.status.success(), "{key}={value} must be refused");
        assert!(out.stdout.is_empty(), "no result may be printed");
        assert!(String::from_utf8_lossy(&out.stderr).contains(key));
    }
    // The pinned values themselves are accepted.
    let out = bench()
        .env("RAYON_NUM_THREADS", "1")
        .env("GREEM_PP_AUTOTUNE", "off")
        .args(["run", "--workload", "serial-pp", "--smoke", "--spec", SPEC])
        .arg("--out")
        .arg(out_dir("refuse"))
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        vec!["run", "--workload", "no-such", "--spec", SPEC],
        vec![
            "run",
            "--workload",
            "serial-pp",
            "--spec",
            "/nonexistent/BENCHMARK.json",
        ],
        vec![
            "run",
            "--workload",
            "serial-pp",
            "--trace",
            "2",
            "--spec",
            SPEC,
        ],
        vec!["frobnicate"],
    ] {
        let out = bench().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
