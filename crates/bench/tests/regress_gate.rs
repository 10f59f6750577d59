//! The regression-gate fixture proof: one real measurement of the
//! `--small` shape taken through the real gate (a) against its own
//! recorded baseline — must pass with zero drift on every
//! virtual-clock metric — and (b) against a deliberately-perturbed
//! baseline simulating a 2× slowdown — must fail. Mirrors what the CI
//! `analysis-smoke` job does from the shell; the gate's other exit
//! paths are covered on a synthetic spec in `gate.rs`.
#![cfg(feature = "obs")]

use greem_analysis::{Baseline, Direction};
use greem_bench::gate;
use greem_bench::regress::{measure, outcome, RegressShape};
use greem_obs::json::{parse, Value};

#[test]
fn measured_small_shape_gates_itself_and_fails_on_2x_slowdown() {
    let m = measure(&RegressShape::small());

    // Measurement invariants the gate relies on.
    assert_eq!(m.alerts_total, 0, "clean regress run must raise no alerts");
    assert!(m.cp.share > 0.0 && m.cp.share <= 1.0 + 1e-12);
    assert!(m.eff.pct_of_peak > 0.0);
    for p in &m.imbalance {
        assert!(p.factor >= 1.0 - 1e-12, "{}: {}", p.phase, p.factor);
    }

    let dir = std::env::temp_dir().join(format!("greem_regress_gate_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_arg = dir.display().to_string();
    let gate = |update: bool| {
        let (code, json) = gate::run(outcome(&m), true, update, Some(&dir_arg));
        (code, json.expect("a verdict, not a setup error"))
    };
    let findings = |doc: &Value, verdict: &str| -> Vec<String> {
        let all = doc.get("findings").and_then(Value::as_arr).unwrap();
        all.iter()
            .filter(|f| matches!(f.get("gate"), Some(Value::Bool(true))))
            .filter(|f| f.get("verdict").and_then(Value::as_str) == Some(verdict))
            .map(|f| f.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    };

    // (a) Self-comparison through the committed-baseline JSON format:
    // every gated virtual-clock metric must come back bit-identical.
    assert_eq!(gate(true).0, 0, "--update-baselines");
    let (code, json) = gate(false);
    let doc = parse(&json).expect("report is valid JSON");
    assert_eq!(code, 0, "self-comparison failed: {json}");
    let gated = m.metrics.iter().filter(|s| s.gate).count();
    assert_eq!(findings(&doc, "pass").len(), gated);
    assert_eq!(
        doc.get("new_metrics").and_then(Value::as_arr),
        Some(&[][..])
    );

    // (b) Perturbed fixture: rewrite the baseline as if the recorded
    // run had been 2× faster / more efficient than today's — i.e. the
    // current measurement is a synthetic 2× regression.
    let file = dir.join("regress_small.json");
    let mut perturbed = Baseline::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
    for b in perturbed.metrics.iter_mut().filter(|b| b.gate) {
        match b.dir {
            Direction::LowerIsBetter => b.value *= 0.5,
            Direction::HigherIsBetter => b.value *= 2.0,
            Direction::Exact => {}
        }
    }
    std::fs::write(&file, perturbed.to_json()).unwrap();
    let (code, json) = gate(false);
    assert_eq!(code, 1, "2x slowdown must fail the gate");
    let doc = parse(&json).expect("report is valid JSON");
    let regressed = findings(&doc, "regression");
    for name in ["step_vtime_s", "pct_of_peak", "phase_vtime_s.pp.walk_force"] {
        assert!(regressed.iter().any(|r| r == name), "{regressed:?}");
    }

    // The JSON report carries the acceptance-criteria fields.
    assert_eq!(
        doc.get("bench").and_then(Value::as_str),
        Some("regress_small")
    );
    assert!(doc
        .get("critical_path")
        .and_then(|c| c.get("share"))
        .is_some());
    assert!(doc.get("imbalance").is_some());
    assert!(doc
        .get("efficiency")
        .and_then(|e| e.get("pct_of_peak"))
        .is_some());
    assert!(
        matches!(doc.get("pass"), Some(Value::Bool(false))),
        "report must carry the failing verdict"
    );
    std::fs::remove_dir_all(&dir).ok();
}
