//! The `greem-run` binary end to end on a tiny cosmological run
//! (8³ bodies, mesh 8, one step), and its refusal of options it
//! cannot run.

use std::path::PathBuf;
use std::process::{Command, Output};

use greem_obs::json::{parse, Value};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("greem_run_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn greem_run(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_greem-run"))
        .args(["--n-side", "8", "--mesh", "8", "--steps", "1", "--quiet"])
        .args(extra)
        .output()
        .expect("greem-run starts")
}

#[test]
fn resuming_at_the_end_epoch_is_refused_not_a_panic() {
    let dir = scratch("resume_end");
    let ckpt = dir.join("c.bin");
    let ckpt = ckpt.to_str().unwrap();
    let first = greem_run(&["--z-end", "40", "--checkpoint-out", ckpt]);
    assert!(first.status.success(), "{first:?}");

    for z_end in ["40", "60"] {
        let again = greem_run(&["--z-end", z_end, "--resume", ckpt]);
        assert_eq!(again.status.code(), Some(1), "z_end {z_end}: {again:?}");
        let stderr = String::from_utf8_lossy(&again.stderr);
        assert!(
            stderr.contains("at or past --z-end"),
            "z_end {z_end}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_writes_one_parseable_report_line_per_step() {
    let dir = scratch("metrics");
    let path = dir.join("m.jsonl");
    let out = greem_run(&["--steps", "2", "--metrics", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<Value> = text.lines().map(|l| parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 2, "one line per step");
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(
            line.get("step").and_then(Value::as_f64),
            Some(i as f64 + 1.0)
        );
        let metrics = line.get("metrics").and_then(Value::as_arr).unwrap();
        let named = |name: &str| {
            metrics
                .iter()
                .any(|m| m.get("name").and_then(Value::as_str) == Some(name))
        };
        for name in ["tableone_seconds", "scale_factor", "flops_rate"] {
            assert!(named(name), "step {}: no {name}", i + 1);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_options_exit_2_without_a_panic() {
    let cases: &[(&str, &str)] = &[
        ("--mesh", "0"),
        ("--mesh", "1"),
        ("--mesh", "2"),
        ("--mesh", "4"),
        ("--mesh", "12"),
        ("--n-side", "0"),
        ("--n-side", "1"),
        ("--n-side", "6"),
        ("--group", "0"),
        ("--theta", "-1"),
        ("--theta", "nan"),
        ("--steps", "0"),
        ("--z-start", "-2"),
        ("--z-start", "nan"),
        ("--z-end", "-1"),
        ("--z-end", "nan"),
        ("--delta0", "inf"),
        ("--cutoff-modes", "nan"),
    ];
    for &(flag, value) in cases {
        let out = greem_run(&[flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert!(
            stderr.starts_with("greem-run: ") && stderr.contains(flag),
            "{flag} {value}: {stderr}"
        );
    }
}
