//! `compare A B` and `selfcheck`: judging two sets of runs with the
//! committed bounds and directions.

use std::path::{Path, PathBuf};
use std::process::Command;

use greem_obs::json::{self, Value};

use crate::measure::{median, quartiles};
use crate::spec::{MetricSpec, Spec};
use crate::workloads::Workload;

/// One untraced run, as read back from its result file.
#[derive(Debug, Clone)]
pub struct Sample {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
    pub exact: Vec<(String, f64)>,
}

fn pairs(v: Option<&Value>, value_of: impl Fn(&Value) -> Option<f64>) -> Vec<(String, f64)> {
    match v {
        Some(Value::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| value_of(v).map(|x| (k.clone(), x)))
            .collect(),
        _ => Vec::new(),
    }
}

pub fn parse_sample(text: &str) -> Result<Sample, String> {
    let v = json::parse(text)?;
    Ok(Sample {
        workload: v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("result file without a workload")?
            .to_string(),
        seed: v.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        correct: matches!(v.get("correct"), Some(Value::Bool(true))),
        metrics: pairs(v.get("metrics"), |m| m.get("value").and_then(Value::as_f64)),
        exact: pairs(v.get("exact"), Value::as_f64),
    })
}

/// Every untraced result file in `dir`, in file-name order.
pub fn load_dir(dir: &Path) -> Result<Vec<Sample>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with("-trace0.json"))
        })
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_sample(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Run-to-run spread of a side is wider than the bound: the runs
    /// cannot tell whether the metric moved.
    Unresolved,
}

/// One workload × metric row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    /// (Q3 − Q1) / median of each side; `None` with fewer than two runs.
    pub spread_a: Option<f64>,
    pub spread_b: Option<f64>,
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn values(samples: &[&Sample], metric: &str) -> Vec<f64> {
    samples
        .iter()
        .filter_map(|s| s.metrics.iter().find(|(n, _)| n == metric).map(|m| m.1))
        .collect()
}

fn of_workload<'a>(set: &'a [Sample], workload: &str) -> Vec<&'a Sample> {
    set.iter().filter(|s| s.workload == workload).collect()
}

fn spread(v: &[f64]) -> Option<f64> {
    (v.len() >= 2).then(|| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v)
    })
}

fn judge(m: &MetricSpec, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let bound = m.bound.expect("end-to-end metrics carry a bound");
    let (ma, mb) = (median(a), median(b));
    let worse_by = if m.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let (sa, sb) = (spread(a), spread(b));
    let verdict = if sa.is_some_and(|s| s > bound) || sb.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > sa.unwrap_or(0.0).max(f64::EPSILON) {
        // Better only past A's own run-to-run spread.
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

pub fn compare(spec: &Spec, a: &[Sample], b: &[Sample]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        let (sa, sb) = (of_workload(a, workload), of_workload(b, workload));
        for m in &spec.end_to_end {
            let (va, vb) = (values(&sa, &m.name), values(&sb, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, verdict) = judge(m, &va, &vb);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                median_a: median(&va),
                median_b: median(&vb),
                spread_a: spread(&va),
                spread_b: spread(&vb),
                worse_by,
                bound: m.bound.unwrap_or(0.0),
                verdict,
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let pct = |v: Option<f64>| v.map_or("    n/a".into(), |s| format!("{:>6.2}%", 100.0 * s));
    let mut s = format!(
        "{:<12} {:<15} {:>14} {:>14} {:>7} {:>7} {:>8} {:>6}  verdict\n",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "B worse", "bound"
    );
    for r in rows {
        s += &format!(
            "{:<12} {:<15} {:>14.6e} {:>14.6e} {} {} {:>+7.2}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            pct(r.spread_a),
            pct(r.spread_b),
            100.0 * r.worse_by,
            100.0 * r.bound,
            match r.verdict {
                Verdict::Better => "better",
                Verdict::Same => "same",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    s
}

/// Exact figures of runs with the same workload and seed, compared bit
/// for bit across the two sets. Returns one line per mismatch.
pub fn exact_mismatches(a: &[Sample], b: &[Sample]) -> Vec<String> {
    let mut out = Vec::new();
    for sa in a {
        for sb in b
            .iter()
            .filter(|s| s.workload == sa.workload && s.seed == sa.seed)
        {
            for (name, va) in &sa.exact {
                match sb.exact.iter().find(|(n, _)| n == name) {
                    Some((_, vb)) if va.to_bits() == vb.to_bits() => {}
                    other => out.push(format!(
                        "{} seed {} {name}: {va:e} vs {:?}",
                        sa.workload,
                        sa.seed,
                        other.map(|o| o.1)
                    )),
                }
            }
        }
    }
    out
}

pub struct SelfcheckArgs {
    pub runs: usize,
    pub smoke: bool,
    pub seconds: f64,
    pub out: PathBuf,
    pub spec_path: PathBuf,
}

/// A/A: two interleaved sets of runs of this same binary. Returns
/// whether the benchmark agrees with itself within its own bounds.
pub fn selfcheck(spec: &Spec, args: &SelfcheckArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dirs = [args.out.join("selfcheck-A"), args.out.join("selfcheck-B")];
    for d in &dirs {
        std::fs::remove_dir_all(d).ok();
    }
    for w in Workload::ALL {
        for run in 0..args.runs {
            for dir in &dirs {
                let seed = (run + 1).to_string();
                let mut cmd = Command::new(&exe);
                cmd.args([
                    "run",
                    "--workload",
                    w.name(),
                    "--seed",
                    &seed,
                    "--trace",
                    "0",
                ])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(dir)
                .arg("--spec")
                .arg(&args.spec_path);
                if args.smoke {
                    cmd.arg("--smoke");
                }
                let out = cmd.output().map_err(|e| format!("spawn run: {e}"))?;
                if !out.status.success() {
                    return Err(format!(
                        "{} seed {seed} exited with {}: {}",
                        w.name(),
                        out.status,
                        String::from_utf8_lossy(&out.stderr)
                    ));
                }
                eprintln!("selfcheck: {} seed {seed} -> {}", w.name(), dir.display());
            }
        }
    }
    let (a, b) = (load_dir(&dirs[0])?, load_dir(&dirs[1])?);
    let rows = compare(spec, &a, &b);
    print!("{}", render(&rows));
    let mut ok = true;
    for r in &rows {
        if r.worse_by.abs() > r.bound {
            println!(
                "FAIL {} {}: A/A difference {:+.2}% exceeds the bound",
                r.workload,
                r.metric,
                100.0 * r.worse_by
            );
            ok = false;
        } else if r.worse_by.abs() > 0.5 * r.bound {
            println!(
                "warn {} {}: A/A difference {:+.2}% is over half the bound",
                r.workload,
                r.metric,
                100.0 * r.worse_by
            );
        }
    }
    for line in exact_mismatches(&a, &b) {
        println!("FAIL exact figure differs: {line}");
        ok = false;
    }
    for s in a.iter().chain(&b).filter(|s| !s.correct) {
        println!("FAIL incorrect run: {} seed {}", s.workload, s.seed);
        ok = false;
    }
    println!("selfcheck: {}", if ok { "pass" } else { "FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better: higher,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            judge(&metric(false), &a, &[1.2, 1.21, 1.19, 1.2]).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&metric(false), &a, &[0.8, 0.81, 0.79, 0.8]).1,
            Verdict::Better
        );
        assert_eq!(
            judge(&metric(true), &a, &[0.8, 0.81, 0.79, 0.8]).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&metric(false), &a, &[1.05, 1.04, 1.06, 1.05]).1,
            Verdict::Same
        );
        // A side whose quartiles are further apart than the bound.
        assert_eq!(
            judge(&metric(false), &a, &[0.9, 1.3, 1.0, 1.5]).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_figures_compare_by_bits() {
        let s = |v: f64| Sample {
            workload: "w".into(),
            seed: 1,
            correct: true,
            metrics: vec![],
            exact: vec![("x".into(), v)],
        };
        assert!(exact_mismatches(&[s(0.1 + 0.2)], &[s(0.1 + 0.2)]).is_empty());
        assert_eq!(exact_mismatches(&[s(0.1 + 0.2)], &[s(0.3)]).len(), 1);
    }
}
