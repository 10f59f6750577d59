//! The one baseline gate behind `harness regress`, `serve-bench` and
//! `weakscale`.
//!
//! A gated experiment measures, renders its [`Outcome`] and attaches a
//! [`GateSpec`](crate::experiments::GateSpec) — baseline name, metric
//! vector, absolute "hard" failures, missing-baseline policy. Everything
//! a gate *does* with that lives here, once: resolve the baseline
//! directory, record (`--update-baselines`) or read and parse
//! `<dir>/<bench>.json`, [`compare`], apply the missing-baseline policy,
//! append the verdict to the experiment's own JSON or text rendering,
//! and pick the exit code — 0 pass (or baseline recorded, or ungated),
//! 1 regression or hard failure, 2 setup error (no baseline where one
//! is required, unreadable/corrupt/unwritable baseline). See DESIGN.md
//! §13 for the tolerance and baseline-update policy.

use std::path::{Path, PathBuf};

use greem_analysis::{compare, Baseline, Comparison, Verdict};

use crate::experiments::Outcome;

/// Where the committed baselines live: `baselines/` under the current
/// directory when present (running from the repo root, as CI does),
/// else resolved relative to this crate's manifest.
fn default_baseline_dir() -> PathBuf {
    let cwd = Path::new("baselines");
    if cwd.is_dir() {
        cwd.to_path_buf()
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines")
    }
}

/// Judge `outcome` (which must carry a gate spec) and return the
/// process exit code plus the stdout payload — the experiment's JSON
/// (`json`) or text rendering with the verdict appended; `None` on a
/// setup error. Notes and failures go to stderr.
pub fn run(
    mut outcome: Outcome,
    json: bool,
    update_baselines: bool,
    baseline_dir: Option<&str>,
) -> (i32, Option<String>) {
    let spec = outcome.gate.take().expect("a gated experiment");
    let bench = &spec.bench;
    let dir = baseline_dir.map_or_else(default_baseline_dir, PathBuf::from);
    let path = dir.join(format!("{bench}.json"));

    let cmp = if update_baselines {
        let base = Baseline::from_metrics(bench.as_str(), &spec.metrics);
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, base.to_json()));
        if let Err(e) = written {
            eprintln!("{bench}: cannot write {}: {e}", path.display());
            return (2, None);
        }
        eprintln!("{bench}: baseline updated at {}", path.display());
        None
    } else {
        match std::fs::read_to_string(&path) {
            Ok(src) => match Baseline::parse(&src) {
                Ok(base) => Some(compare(&spec.metrics, &base)),
                Err(e) => {
                    eprintln!("{bench}: corrupt baseline {}: {e}", path.display());
                    return (2, None);
                }
            },
            Err(e) if spec.baseline_required => {
                eprintln!(
                    "{bench}: no baseline at {} ({e}); run with --update-baselines first",
                    path.display()
                );
                return (2, None);
            }
            Err(_) => {
                eprintln!(
                    "{bench}: no baseline at {} — ran ungated (record one with --update-baselines)",
                    path.display()
                );
                None
            }
        }
    };

    let pass = cmp.as_ref().is_none_or(|c| c.pass) && spec.hard_failures.is_empty();
    let payload = if json {
        write_verdict(&mut outcome, pass, cmp.as_ref());
        outcome.json()
    } else {
        let mut text = outcome.text;
        if let Some(cmp) = &cmp {
            text.push_str(&findings_text(cmp));
        }
        text
    };
    for h in &spec.hard_failures {
        eprintln!("{bench}: ABSOLUTE GATE FAILED: {h}");
    }
    if !pass {
        eprintln!("{bench}: GATE FAILED — see findings above");
    }
    (if pass { 0 } else { 1 }, Some(payload))
}

/// Append `pass` and — when a baseline was compared — `findings` and
/// `new_metrics` to the outcome's open JSON object.
fn write_verdict(outcome: &mut Outcome, pass: bool, cmp: Option<&Comparison>) {
    let w = &mut outcome.json;
    w.bool_(Some("pass"), pass);
    let Some(cmp) = cmp else { return };
    w.begin_arr(Some("findings"));
    for f in &cmp.findings {
        w.begin_obj(None);
        w.str_(Some("name"), &f.name);
        w.f64(Some("baseline"), f.baseline);
        match f.current {
            Some(c) => w.f64(Some("current"), c),
            None => w.str_(Some("current"), "missing"),
        }
        w.f64(Some("rel_delta"), f.rel_delta);
        w.f64(Some("tol_rel"), f.tol_rel);
        w.bool_(Some("gate"), f.gate);
        w.str_(Some("dir"), f.dir.as_str());
        w.str_(Some("verdict"), f.verdict.as_str());
        w.end_obj();
    }
    w.end_arr();
    w.begin_arr(Some("new_metrics"));
    for n in &cmp.new_metrics {
        w.begin_obj(None);
        w.str_(Some("name"), n);
        w.end_obj();
    }
    w.end_arr();
}

/// The findings table of the text report.
fn findings_text(cmp: &Comparison) -> String {
    let mut out = format!(
        "  gate vs baseline: {}\n",
        if cmp.pass { "PASS" } else { "REGRESSION" }
    );
    for f in &cmp.findings {
        let mark = match f.verdict {
            Verdict::Pass => "ok  ",
            Verdict::Regression => "FAIL",
            Verdict::Improvement => "BEAT",
            Verdict::Missing => "GONE",
        };
        out.push_str(&format!(
            "    [{mark}] {:<32} base {:>14.6}  cur {:>14.6}  Δ {:>+7.2} % (tol ±{:.0} %{}, {})\n",
            f.name,
            f.baseline,
            f.current.unwrap_or(f64::NAN),
            f.rel_delta * 100.0,
            f.tol_rel * 100.0,
            if f.gate { "" } else { ", ungated" },
            f.dir.as_str(),
        ));
    }
    for n in &cmp.new_metrics {
        out.push_str(&format!(
            "    [new ] {n} — not in baseline; rerun with --update-baselines to record it\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{summary_writer, GateSpec};
    use greem_analysis::{Direction, MetricSpec};
    use greem_obs::json::{parse, Value};

    /// A cheap gated outcome: one gated timing, one exact count, one
    /// ungated wall time.
    fn synthetic(step_s: f64, baseline_required: bool, hard_failures: &[&str]) -> Outcome {
        let mut w = summary_writer("synthetic", true);
        w.f64(Some("step_s"), step_s);
        let metrics = vec![
            MetricSpec::new("step_s", step_s, 0.10, true, Direction::LowerIsBetter),
            MetricSpec::new("count", 7.0, 0.0, true, Direction::Exact),
            MetricSpec::new("wall_s", 0.5, 0.5, false, Direction::LowerIsBetter),
        ];
        let mut spec = GateSpec::new("synthetic", true, metrics, baseline_required);
        spec.hard_failures = hard_failures.iter().map(|h| h.to_string()).collect();
        Outcome::new("synthetic body\n".into(), w).gated(spec)
    }

    /// A fresh scratch baseline directory (as `--baseline-dir`).
    fn scratch(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("greem_gate_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir.display().to_string()
    }

    /// [`run`] on a scratch directory: a payload unless setup failed.
    fn gate(outcome: Outcome, json: bool, update: bool, dir: &str) -> (i32, String) {
        let (code, payload) = run(outcome, json, update, Some(dir));
        assert_eq!(payload.is_none(), code == 2);
        (code, payload.unwrap_or_default())
    }

    fn verdicts(json: &str) -> (bool, Vec<(String, String)>) {
        let doc = parse(json).expect("gate JSON parses");
        assert_eq!(json.lines().count(), 1);
        let pass = matches!(doc.get("pass"), Some(Value::Bool(true)));
        let findings = doc.get("findings").and_then(Value::as_arr).unwrap_or(&[]);
        let verdicts = findings
            .iter()
            .map(|f| {
                let s = |k: &str| f.get(k).and_then(Value::as_str).unwrap().to_string();
                for k in ["baseline", "rel_delta", "tol_rel", "gate", "dir"] {
                    assert!(f.get(k).is_some(), "finding without '{k}'");
                }
                (s("name"), s("verdict"))
            })
            .collect();
        (pass, verdicts)
    }

    #[test]
    fn missing_baseline_follows_the_specs_policy() {
        let dir = scratch("missing");
        let (code, payload) = gate(synthetic(1.0, true, &[]), true, false, &dir);
        assert_eq!((code, payload.as_str()), (2, ""), "required baseline");
        let (code, payload) = gate(synthetic(1.0, false, &[]), true, false, &dir);
        assert_eq!(code, 0, "optional baseline runs ungated");
        assert_eq!(verdicts(&payload), (true, vec![]));
        // Ungated is not unchecked: a hard failure still fails the run.
        let (code, payload) = gate(synthetic(1.0, false, &["drifted"]), true, false, &dir);
        assert_eq!(code, 1);
        assert!(!verdicts(&payload).0);
    }

    #[test]
    fn recorded_baseline_round_trips_and_gates_itself() {
        let dir = scratch("self");
        let (code, payload) = gate(synthetic(1.0, true, &[]), true, true, &dir);
        assert_eq!(code, 0, "--update-baselines");
        assert_eq!(verdicts(&payload), (true, vec![]));
        let file = Path::new(&dir).join("synthetic_small.json");
        let base = Baseline::parse(&std::fs::read_to_string(&file).unwrap()).expect("round trip");
        assert_eq!(base.bench, "synthetic_small");
        let names: Vec<&str> = base.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["step_s", "count", "wall_s"]);
        assert_eq!(base.metrics[0].value, 1.0);
        assert_eq!(base.metrics[0].dir, Direction::LowerIsBetter);
        assert!(!base.metrics[2].gate);

        let (code, payload) = gate(synthetic(1.0, true, &[]), true, false, &dir);
        assert_eq!(code, 0, "self-baseline");
        let (pass, found) = verdicts(&payload);
        assert!(pass && found.len() == 3 && found.iter().all(|(_, v)| v == "pass"));
        let doc = parse(&payload).unwrap();
        assert_eq!(
            doc.get("new_metrics").and_then(Value::as_arr),
            Some(&[][..])
        );
        // The experiment's own body comes through, verdict appended.
        assert_eq!(doc.get("step_s").and_then(Value::as_f64), Some(1.0));

        let (code, text) = gate(synthetic(1.0, true, &[]), false, false, &dir);
        assert_eq!(code, 0);
        assert!(text.starts_with("synthetic body\n  gate vs baseline: PASS\n"));
        assert_eq!(text.matches("[ok  ]").count(), 3);

        // A hard failure fails the run even when every finding passes.
        let (code, payload) = gate(synthetic(1.0, true, &["diverged"]), true, false, &dir);
        assert_eq!(code, 1);
        let (pass, found) = verdicts(&payload);
        assert!(!pass && found.iter().all(|(_, v)| v == "pass"));
    }

    #[test]
    fn twofold_slowdown_on_a_gated_metric_is_a_regression() {
        let dir = scratch("slow");
        assert_eq!(gate(synthetic(1.0, true, &[]), true, true, &dir).0, 0);
        // Today's run is 2x the recorded step time.
        let (code, payload) = gate(synthetic(2.0, true, &[]), true, false, &dir);
        assert_eq!(code, 1);
        let (pass, found) = verdicts(&payload);
        assert!(!pass);
        let of = |n: &str| found.iter().find(|(name, _)| name == n).unwrap().1.as_str();
        assert_eq!(of("step_s"), "regression");
        assert_eq!((of("count"), of("wall_s")), ("pass", "pass"));
        let (code, text) = gate(synthetic(2.0, true, &[]), false, false, &dir);
        assert_eq!(code, 1);
        assert!(text.contains("gate vs baseline: REGRESSION") && text.contains("[FAIL] step_s"));
        // 2x faster is an improvement, never a failure.
        let (code, text) = gate(synthetic(0.5, true, &[]), false, false, &dir);
        assert_eq!(code, 0);
        assert!(text.contains("[BEAT] step_s"));
    }

    #[test]
    fn damaged_or_unwritable_baselines_are_setup_errors_not_panics() {
        let dir = scratch("damaged");
        assert_eq!(gate(synthetic(1.0, true, &[]), true, true, &dir).0, 0);
        let file = Path::new(&dir).join("synthetic_small.json");
        let whole = std::fs::read_to_string(&file).unwrap();
        for damaged in [&whole[..whole.len() / 2], "not json", "{\"bench\": 3}", ""] {
            std::fs::write(&file, damaged).unwrap();
            for required in [true, false] {
                let (code, payload) = gate(synthetic(1.0, required, &[]), true, false, &dir);
                assert_eq!((code, payload.as_str()), (2, ""), "{damaged:?}");
            }
        }
        // The baseline "directory" is a file: nothing can be recorded.
        let blocked = file.display().to_string();
        assert_eq!(gate(synthetic(1.0, true, &[]), true, true, &blocked).0, 2);
    }
}
