//! The table/figure regeneration harness.
//!
//! ```text
//! cargo run --release -p greem-bench --bin harness -- <command> [--small] [--json] [--out PATH]
//! ```
//!
//! `harness --help` prints the commands — it, dispatch, `all` and the
//! unknown-command message are all driven by the one [`TABLE`] below.
//! Every experiment is one `run(small) -> Outcome` in
//! `greem_bench::experiments`: the module fixes what `--small` means,
//! and `--json` picks the other rendering of the same run.

use greem_bench::experiments::*;
use greem_bench::trace::{relay_folded_stacks, relay_trace_validated, TraceRun};

/// What a command runs.
enum Run {
    /// A table or figure of the paper; `all` runs every one of these.
    Paper(fn(bool) -> Outcome),
    /// `(small, agg)`: an experiment judged against `baselines/*.json`
    /// by `greem_bench::gate` (DESIGN.md §13). Exit 0 pass, 1
    /// regression, 2 setup error; `--update-baselines` records the
    /// baseline instead, `--baseline-dir` overrides where it lives.
    Gated(fn(bool, bool) -> Outcome),
    /// Not an experiment: the relay schedule's Chrome trace.
    Trace,
}

struct Entry {
    name: &'static str,
    about: &'static str,
    run: Run,
}

const fn paper(name: &'static str, about: &'static str, run: fn(bool) -> Outcome) -> Entry {
    Entry {
        name,
        about,
        run: Run::Paper(run),
    }
}

const fn gated(name: &'static str, about: &'static str, run: fn(bool, bool) -> Outcome) -> Entry {
    Entry {
        name,
        about,
        run: Run::Gated(run),
    }
}

const TABLE: &[Entry] = &[
    paper(
        "table1",
        "Table I: published, modelled and measured cost per step",
        table1::run,
    ),
    paper(
        "fig1",
        "tree interaction census over the opening angle",
        fig1::run,
    ),
    paper("fig2", "the PP/PM force split against Ewald", fig2::run),
    paper("fig3", "adaptive 8x8 domain decomposition", fig3::run),
    paper(
        "fig4",
        "local meshes vs FFT slabs: conversion traffic",
        fig4::run,
    ),
    paper("fig5", "relay mesh method vs direct conversion", fig5::run),
    paper("fig6", "microhalo run snapshots, z = 400 to 31", fig6::run),
    paper(
        "kernel",
        "Sec. II-A O(N^2) kernel benchmark per variant, tracing overhead",
        kernel::run,
    ),
    paper(
        "ni_sweep",
        "Sec. II group size <Ni> trade-off",
        ni_sweep::run,
    ),
    paper(
        "accuracy",
        "Sec. III-A force error vs mesh size and cutoff",
        accuracy::run,
    ),
    paper(
        "tree_vs_treepm",
        "Sec. I operations at equal error, pure tree vs TreePM",
        tree_vs_treepm::run,
    ),
    paper(
        "multipole",
        "monopole vs pseudo-particle quadrupole ablation",
        multipole_ablation::run,
    ),
    paper(
        "scaling",
        "Sec. III-B strong scaling, measured and modelled",
        scaling::run,
    ),
    paper(
        "chaos",
        "fault injection + rollback recovery scenarios",
        chaos::run,
    ),
    #[cfg(feature = "obs")]
    gated(
        "regress",
        "perf-regression gate on the fixed virtual-time workload",
        |small, _| greem_bench::regress::run(small),
    ),
    gated(
        "serve-bench",
        "load-test the greem-serve daemon in-process; counts gated",
        |small, _| serve_bench::run(small),
    ),
    gated(
        "weakscale",
        "Sec. IV virtual weak scaling to 82944 ranks (--agg: telemetry roll-up)",
        weakscale::run,
    ),
    gated(
        "galaxy",
        "isolated Plummer collapse: energy drift, BH events, recovery",
        |small, _| galaxy::run(small),
    ),
    Entry {
        name: "trace",
        about: "fig. 5 relay schedule as per-rank virtual-time Chrome trace (--agg: folded stacks)",
        run: Run::Trace,
    },
];

fn help() -> String {
    let mut s = String::from(
        "usage: harness [<command>] [--small] [--json] [--out PATH] [--agg]\n\
         \x20              [--update-baselines] [--baseline-dir DIR]\n\n\
         commands (default: all):\n",
    );
    for e in TABLE {
        let mark = match e.run {
            Run::Paper(_) => ' ',
            Run::Gated(_) => '*',
            Run::Trace => '+',
        };
        s.push_str(&format!(" {mark}{:<15} {}\n", e.name, e.about));
    }
    s.push_str(
        "  all             every unmarked command in turn\n\n\
         * judged against baselines/*_{small,full}.json: exit 0 pass, 1 regression,\n\
         \x20 2 setup error; --update-baselines records the baseline instead,\n\
         \x20 --baseline-dir overrides the directory.\n\
         + writes its payload through --out and validates it (exit 1 on a bad trace).\n\n\
         --small   each command's smoke sizes (seconds, not minutes)\n\
         --json    the machine-readable rendering of the same run: one object a line\n\
         --out     write the payload to PATH instead of stdout (not for `all`)\n",
    );
    s
}

/// Parsed command line, shared by every command.
struct HarnessArgs {
    command: String,
    small: bool,
    json: bool,
    out: Option<String>,
    update_baselines: bool,
    baseline_dir: Option<String>,
    /// `--agg`: aggregate telemetry views — `weakscale` embeds the
    /// cross-rank sketch roll-up, `trace` emits folded stacks
    /// (flamegraph input) instead of Chrome-trace JSON.
    agg: bool,
}

impl HarnessArgs {
    fn parse() -> Result<Self, String> {
        let mut small = false;
        let mut json = false;
        let mut out = None;
        let mut update_baselines = false;
        let mut baseline_dir = None;
        let mut agg = false;
        let mut command = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--small" => small = true,
                "--json" => json = true,
                "--out" => out = Some(args.next().ok_or("--out needs a path")?),
                "--update-baselines" => update_baselines = true,
                "--agg" => agg = true,
                "--baseline-dir" => {
                    baseline_dir = Some(args.next().ok_or("--baseline-dir needs a path")?);
                }
                "--help" | "-h" => {
                    print!("{}", help());
                    std::process::exit(0);
                }
                other if other.starts_with("--") => {
                    return Err(format!("unknown option '{other}' (try --help)"));
                }
                other => {
                    if let Some(first) = &command {
                        return Err(format!("two commands given: '{first}' and '{other}'"));
                    }
                    command = Some(other.to_string());
                }
            }
        }
        Ok(HarnessArgs {
            command: command.unwrap_or_else(|| "all".to_string()),
            small,
            json,
            out,
            update_baselines,
            baseline_dir,
            agg,
        })
    }

    /// The rendering `--json` selects.
    fn render(&self, outcome: Outcome) -> String {
        if self.json {
            outcome.json()
        } else {
            outcome.text
        }
    }

    /// Print to stdout or write to `--out`.
    fn deliver(&self, payload: &str) {
        match &self.out {
            None => println!("{payload}"),
            Some(path) => {
                if let Err(e) = std::fs::write(path, payload) {
                    eprintln!("harness: cannot write {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("harness: wrote {path}");
            }
        }
    }
}

/// `harness trace`: capture the relay schedule, validate the export,
/// and deliver the Chrome-trace JSON. `--agg` delivers folded stacks
/// (flamegraph.pl input, virtual-clock self-time) instead.
fn run_trace(args: &HarnessArgs, run: TraceRun) {
    let payload = if args.agg {
        relay_folded_stacks(run).map(|(folded, lines)| {
            eprintln!(
                "harness trace --agg: {} ranks, {lines} folded stacks",
                run.p
            );
            folded
        })
    } else {
        relay_trace_validated(run)
            .map(|(json, summary)| {
                eprintln!(
                    "harness trace: {} ranks, {} spans ({} comm) — schema OK",
                    summary.processes, summary.spans, summary.comm_spans
                );
                json
            })
            .map_err(|e| format!("invalid trace: {e}"))
    };
    match payload {
        Ok(p) => args.deliver(&p),
        Err(e) => {
            eprintln!("harness trace: {e}");
            eprintln!("(the 'trace' command needs the default 'obs' feature)");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = match HarnessArgs::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("harness: {e}");
            std::process::exit(2);
        }
    };
    let &HarnessArgs {
        small, json, agg, ..
    } = &args;

    if args.command == "all" {
        for e in TABLE {
            if let Run::Paper(run) = e.run {
                if !json {
                    println!("\n################ {} ################\n", e.name);
                }
                println!("{}", args.render(run(small)));
            }
        }
        return;
    }
    let Some(entry) = TABLE.iter().find(|e| e.name == args.command) else {
        let names: Vec<&str> = TABLE.iter().map(|e| e.name).collect();
        eprintln!(
            "unknown command '{}'. Available: {}, all (see --help)",
            args.command,
            names.join(", ")
        );
        std::process::exit(2);
    };
    match entry.run {
        Run::Paper(run) => args.deliver(&args.render(run(small))),
        Run::Gated(run) => {
            let outcome = run(small, agg);
            #[cfg(feature = "obs")]
            {
                let (code, payload) = greem_bench::gate::run(
                    outcome,
                    json,
                    args.update_baselines,
                    args.baseline_dir.as_deref(),
                );
                if let Some(payload) = payload {
                    args.deliver(&payload);
                }
                std::process::exit(code);
            }
            // Without the obs cascade the gate is compiled out: report
            // the run ungated.
            #[cfg(not(feature = "obs"))]
            {
                let _ = (args.update_baselines, &args.baseline_dir);
                args.deliver(&args.render(outcome));
            }
        }
        Run::Trace => run_trace(&args, TraceRun::of(small)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greem_obs::json::{parse, Value};

    /// `regress` and `kernel` capture the process-wide trace: the two
    /// tests that run experiments must not overlap.
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn num(v: &Value, key: &str) -> f64 {
        v.get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("no numeric '{key}'"))
    }

    /// The numbers in the first line of `text` that contains `marker`.
    fn numbers_on_line(text: &str, marker: &str) -> Vec<f64> {
        let line = text
            .lines()
            .find(|l| l.contains(marker))
            .unwrap_or_else(|| panic!("no '{marker}' in:\n{text}"));
        line.split(|c: char| !c.is_ascii_digit())
            .filter_map(|digits| digits.parse().ok())
            .collect()
    }

    /// Every row of the table at `small`: the text is there, the JSON
    /// is one line tagged with the row's name, and where the text names
    /// the run's sizes they are the JSON's — both render one run.
    #[test]
    fn every_paper_row_renders_one_small_run_both_ways() {
        let _alone = ONE_AT_A_TIME.lock().unwrap();
        let mut rows = 0;
        for e in TABLE {
            let Run::Paper(run) = e.run else { continue };
            rows += 1;
            let outcome = run(true);
            let text = outcome.text.clone();
            let json = outcome.json();
            assert!(!text.trim().is_empty(), "{}: empty text", e.name);
            assert_eq!(json.lines().count(), 1, "{}: JSON is not one line", e.name);
            let doc = parse(&json).unwrap_or_else(|err| panic!("{}: {err}", e.name));
            assert_eq!(
                doc.get("experiment").and_then(Value::as_str),
                Some(e.name),
                "experiment tag"
            );
            assert!(
                matches!(doc.get("small"), Some(Value::Bool(true))),
                "{}",
                e.name
            );
            match e.name {
                "fig4" => assert_eq!(
                    numbers_on_line(&text, "processes, nf = ")[..3],
                    [num(&doc, "p"), num(&doc, "nf"), num(&doc, "n_mesh")]
                ),
                "chaos" => {
                    assert_eq!(
                        numbers_on_line(&text, " bodies, "),
                        [num(&doc, "n"), num(&doc, "ranks"), num(&doc, "steps")]
                    );
                    let scenarios = doc.get("scenarios").and_then(Value::as_arr).unwrap();
                    let names: Vec<_> = scenarios
                        .iter()
                        .map(|s| s.get("scenario").and_then(Value::as_str).unwrap())
                        .collect();
                    assert_eq!(names, ["crash", "straggler", "flaky-net", "chaos"]);
                    let (crash, flaky) = (&scenarios[0], &scenarios[2]);
                    assert!(num(crash, "crashes_detected") >= 1.0);
                    assert!(num(crash, "rollbacks") >= 1.0);
                    assert!(
                        matches!(crash.get("bitwise_match"), Some(Value::Bool(true))),
                        "recovered state diverged"
                    );
                    assert!(num(crash, "recovered_bytes") > 0.0);
                    assert!(num(flaky, "messages_dropped") + num(flaky, "messages_delayed") > 0.0);
                    for s in scenarios {
                        assert!(num(s, "checkpoints_written") >= 1.0, "{s:?}");
                    }
                    #[cfg(feature = "obs")]
                    {
                        let metrics = doc.get("metrics").and_then(Value::as_arr).unwrap();
                        for name in ["resil_rollbacks", "resil_checkpoint_bytes"] {
                            assert!(
                                metrics
                                    .iter()
                                    .any(|m| m.get("name").and_then(Value::as_str) == Some(name)),
                                "no {name} metric"
                            );
                        }
                    }
                }
                "kernel" => {
                    // One text line per (N, variant), in the JSON's order.
                    let text_ns: Vec<f64> = text
                        .lines()
                        .filter(|l| {
                            l.contains("x ") && l.trim_start().starts_with(char::is_numeric)
                        })
                        .map(|l| l.split_whitespace().next().unwrap().parse().unwrap())
                        .collect();
                    let json_ns: Vec<f64> = doc
                        .get("rows")
                        .and_then(Value::as_arr)
                        .unwrap()
                        .iter()
                        .flat_map(|r| {
                            let n = num(r, "n");
                            let variants = r.get("variants").and_then(Value::as_arr).unwrap();
                            std::iter::repeat_n(n, variants.len())
                        })
                        .collect();
                    assert!(!json_ns.is_empty());
                    assert_eq!(text_ns, json_ns, "kernel N column");
                    assert_eq!(
                        numbers_on_line(&text, "tracing overhead (")[0],
                        num(doc.get("tracing_overhead").unwrap(), "spans_per_mode")
                    );
                }
                _ => {}
            }
        }
        assert_eq!(rows, 14, "the paper's tables and figures");
    }

    /// Every committed `baselines/*_small.json` is judged against a
    /// fresh `--small` run of the command that records it, through the
    /// real gate — so a baseline that goes stale fails tier-1, not a
    /// CI leg nobody can run.
    #[cfg(feature = "obs")]
    #[test]
    fn every_committed_small_baseline_gates_a_fresh_small_run() {
        let _alone = ONE_AT_A_TIME.lock().unwrap();
        let mut judged = Vec::new();
        for e in TABLE {
            let Run::Gated(run) = e.run else { continue };
            let outcome = run(true, false);
            judged.push(format!("{}.json", outcome.gate.as_ref().unwrap().bench));
            let (code, payload) = greem_bench::gate::run(outcome, true, false, None);
            assert_eq!(code, 0, "{}: {payload:?}", e.name);
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines");
        let mut committed: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|f| f.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.ends_with("_small.json"))
            .collect();
        committed.sort();
        judged.sort();
        assert_eq!(judged, committed, "a baseline without a gated command");
    }

    #[test]
    fn help_and_table_name_every_command_once() {
        let help = help();
        for e in TABLE {
            assert_eq!(
                TABLE.iter().filter(|o| o.name == e.name).count(),
                1,
                "{} listed twice",
                e.name
            );
            assert!(help.contains(&format!("{:<15} {}", e.name, e.about)));
        }
    }
}
