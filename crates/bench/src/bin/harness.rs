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
        "fft",
        "Table I PM FFT: ns per butterfly per vector width, convolve by pass",
        fft::run,
    ),
    paper(
        "ni_sweep",
        "Sec. II group size <Ni> trade-off, tree build, list builder",
        ni_sweep::run,
    ),
    paper(
        "accuracy",
        "Sec. III-A force error vs mesh size and cutoff",
        accuracy::run,
    ),
    paper(
        "tree_vs_treepm",
        "Sec. I operations at equal error, pure tree vs TreePM; P3M vs tree",
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
         --out     write the payload to PATH instead of stdout (not for `all`)\n\
         --agg     the aggregate view; weakscale and trace only\n",
    );
    s
}

/// Parsed command line, shared by every command.
struct HarnessArgs {
    /// The command's row; `None` for `all`.
    entry: Option<&'static Entry>,
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
    /// Parse the arguments after the program name. A flag the command
    /// cannot honour is an error, not silently dropped.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut small = false;
        let mut json = false;
        let mut out = None;
        let mut update_baselines = false;
        let mut baseline_dir = None;
        let mut agg = false;
        let mut command = None;
        let mut args = args.into_iter();
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
        let command = command.unwrap_or_else(|| "all".to_string());
        let entry = TABLE.iter().find(|e| e.name == command);
        if entry.is_none() && command != "all" {
            let names: Vec<&str> = TABLE.iter().map(|e| e.name).collect();
            return Err(format!(
                "unknown command '{command}'. Available: {}, all (see --help)",
                names.join(", ")
            ));
        }
        let gated = matches!(entry.map(|e| &e.run), Some(Run::Gated(_)));
        for (refused, flag) in [
            (entry.is_none() && out.is_some(), "--out"),
            (update_baselines && !gated, "--update-baselines"),
            (baseline_dir.is_some() && !gated, "--baseline-dir"),
            (
                agg && !["weakscale", "trace"].contains(&command.as_str()),
                "--agg",
            ),
        ] {
            if refused {
                return Err(format!("{flag} does not apply to '{command}' (see --help)"));
            }
        }
        Ok(HarnessArgs {
            entry,
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
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = match HarnessArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("harness: {e}");
            std::process::exit(2);
        }
    };
    let &HarnessArgs {
        small, json, agg, ..
    } = &args;

    let Some(entry) = args.entry else {
        for e in TABLE {
            if let Run::Paper(run) = e.run {
                if !json {
                    println!("\n################ {} ################\n", e.name);
                }
                println!("{}", args.render(run(small)));
            }
        }
        return;
    };
    match entry.run {
        Run::Paper(run) => args.deliver(&args.render(run(small))),
        Run::Gated(run) => {
            let (code, payload) = greem_bench::gate::run(
                run(small, agg),
                json,
                args.update_baselines,
                args.baseline_dir.as_deref(),
            );
            if let Some(payload) = payload {
                args.deliver(&payload);
            }
            std::process::exit(code);
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
    /// the run's sizes they are the JSON's — both render one run. These
    /// are the lines `harness all --json` prints, one per row: JSONL of
    /// exactly 15 objects.
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
                        let bundles = s.get("flight_bundles").and_then(Value::as_arr).unwrap();
                        assert_eq!(num(s, "flight_dumps"), bundles.len() as f64, "{s:?}");
                    }
                    // Crashes dump post-mortem bundles; fault-free runs never do.
                    assert!(num(crash, "flight_dumps") >= 1.0);
                    assert!(num(&scenarios[3], "flight_dumps") >= 1.0);
                    assert_eq!(num(&scenarios[1], "flight_dumps"), 0.0);
                    for path in crash.get("flight_bundles").and_then(Value::as_arr).unwrap() {
                        let path = path.as_str().unwrap();
                        let b = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
                        assert_eq!(
                            b.get("bundle").and_then(Value::as_str),
                            Some("flight-recorder")
                        );
                        let verdicts = b.get("verdicts").and_then(Value::as_arr).unwrap();
                        assert!(
                            verdicts.iter().any(|v| {
                                v.get("detector").and_then(Value::as_str) == Some("fault.crash")
                            }),
                            "{path}: no fault.crash verdict"
                        );
                        let recent = b.get("metrics_recent").and_then(Value::as_arr).unwrap();
                        assert!(!recent.is_empty(), "{path}: no recent metric lines");
                        let trace = b.get("trace").and_then(|t| t.get("traceEvents"));
                        assert!(trace.and_then(Value::as_arr).is_some(), "{path}: no trace");
                    }
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
                    for r in doc.get("rows").and_then(Value::as_arr).unwrap() {
                        for v in r.get("variants").and_then(Value::as_arr).unwrap() {
                            assert!(num(v, "bytes_per_interaction") > 0.0, "{v:?}");
                            assert!(num(v, "gb_per_sec") > 0.0, "{v:?}");
                        }
                    }
                    let t = doc.get("tracing_overhead").unwrap();
                    assert_eq!(
                        numbers_on_line(&text, "tracing overhead (")[0],
                        num(t, "spans_per_mode")
                    );
                    assert!(num(t, "ns_per_disabled_span") >= 0.0);
                    assert!(num(t, "ns_per_recorded_span") > 0.0);
                }
                "tree_vs_treepm" => {
                    // Sec. I: clustering multiplies P3M's short-range
                    // pairs more than the tree's interactions. Both are
                    // exact counts, so this is deterministic.
                    let short = doc.get("short_range").unwrap();
                    let ratio = |key| {
                        num(short.get("clustered").unwrap(), key)
                            / num(short.get("uniform").unwrap(), key)
                    };
                    let (p3m, tree) = (ratio("p3m_pairs"), ratio("tree_interactions"));
                    assert!(p3m > tree, "P3M x{p3m} !> tree x{tree}");
                }
                "ni_sweep" => {
                    // A replay walks no nodes and lists at least what the
                    // fresh pass did: the recording margin only adds.
                    let list = doc.get("list_builder").unwrap();
                    let (fresh, replay) = (list.get("fresh").unwrap(), list.get("replay").unwrap());
                    assert!(num(fresh, "visited_nodes") > 0.0);
                    assert_eq!(num(replay, "visited_nodes"), 0.0);
                    assert!(num(replay, "entries") >= num(fresh, "entries"));
                    let rows = doc.get("rows").and_then(Value::as_arr).unwrap();
                    for lanes in rows.iter().chain([fresh]).map(|r| num(r, "lanes_used")) {
                        assert!(lanes > 0.0 && lanes <= 1.0, "lanes used {lanes}");
                    }
                    for kept in rows.iter().map(|r| num(r, "pairs_kept")) {
                        assert!(kept > 0.0 && kept <= 1.0, "pairs kept {kept}");
                    }
                }
                "fft" => assert_eq!(
                    numbers_on_line(&text, "RealFft3::convolve, n = ")[1], // [0] is its 3
                    num(&doc, "convolve_n")
                ),
                _ => {}
            }
        }
        assert_eq!(
            rows, 15,
            "the paper's tables and figures: `all --json` lines"
        );
    }

    /// The small weak-scaling sweep's physics: the three gated points,
    /// efficiency non-increasing in p, each point within a band of the
    /// Table-I model at the same p, with real traffic, a real kernel run
    /// and a critical-path attribution.
    fn weak_scaling_holds(doc: &Value) {
        assert_eq!(
            doc.get("experiment").and_then(Value::as_str),
            Some("weakscale")
        );
        assert!(matches!(doc.get("small"), Some(Value::Bool(true))));
        let pts = doc.get("points").and_then(Value::as_arr).unwrap();
        let ps: Vec<f64> = pts.iter().map(|p| num(p, "p")).collect();
        assert_eq!(ps, [16.0, 128.0, 1024.0]);
        let effs: Vec<f64> = pts.iter().map(|p| num(p, "pct_of_peak")).collect();
        assert!(effs.windows(2).all(|w| w[0] >= w[1]), "{effs:?}");
        for (p, pt) in ps.iter().zip(pts) {
            let ratio = num(pt, "pct_of_peak") / num(pt, "model_pct_of_peak");
            assert!(
                (0.85..=1.05).contains(&ratio),
                "p = {p}: model ratio {ratio}"
            );
            for key in ["messages", "bytes_sent", "rep_interactions"] {
                assert!(num(pt, key) > 0.0, "p = {p}: no {key}");
            }
            let losses = pt.get("losses").and_then(Value::as_arr).unwrap();
            assert!(!losses.is_empty(), "p = {p}: no critical-path attribution");
        }
    }

    /// The small serve bench's contract: the gate passed, admission
    /// control throttled at least once, every one of the 8 subscribers'
    /// snapshots was delivered and counted by the server, the delivery
    /// quantiles are ordered and nothing was dropped.
    fn serve_bench_holds(doc: &Value) {
        assert_eq!(
            doc.get("experiment").and_then(Value::as_str),
            Some("serve_bench")
        );
        assert!(matches!(doc.get("small"), Some(Value::Bool(true))));
        assert!(
            matches!(doc.get("pass"), Some(Value::Bool(true))),
            "{doc:?}"
        );
        assert!(num(doc, "jobs") >= 1.0 && num(doc, "throttled_429") >= 1.0);
        let fanout = num(doc, "fanout_snapshots_total");
        assert!(num(doc, "subscribers") == 8.0 && fanout > 0.0);
        assert_eq!(num(doc, "server_delivery_count"), fanout);
        assert!(num(doc, "delivery_p99_s") >= num(doc, "delivery_p50_s"));
        assert!(num(doc, "delivery_p50_s") >= 0.0);
        assert_eq!(num(doc, "dropped_total"), 0.0);
    }

    /// Every committed `baselines/*_small.json` is judged against a
    /// fresh `--small` run of the command that records it, through the
    /// real gate — so a baseline that goes stale fails tier-1, not a
    /// CI leg nobody can run.
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
            match e.name {
                "weakscale" => weak_scaling_holds(&parse(&payload.unwrap()).unwrap()),
                "serve-bench" => serve_bench_holds(&parse(&payload.unwrap()).unwrap()),
                _ => {}
            }
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
    fn flags_a_command_cannot_honour_are_refused() {
        let parse = |line: &str| HarnessArgs::parse(line.split_whitespace().map(String::from));
        for bad in [
            "all --out f",
            "fig4 --small --update-baselines --baseline-dir d",
            "table1 --baseline-dir d",
            "all --update-baselines",
            "kernel --agg",
            "regress --agg",
            "nope",
        ] {
            assert!(parse(bad).is_err(), "accepted '{bad}'");
        }
        for good in [
            "fig4 --out f",
            "regress --update-baselines --baseline-dir d",
            "weakscale --agg",
            "trace --agg --out f",
        ] {
            assert!(parse(good).is_ok(), "refused '{good}'");
        }
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
