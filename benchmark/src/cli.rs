//! The command line: `run`, `selfcheck`, `compare`.

use std::path::PathBuf;
use std::time::Instant;

use crate::compare::{self, SelfcheckArgs};
use crate::measure::Recorder;
use crate::spec::Spec;
use crate::workloads::{self, RunArgs, Workload};
use crate::{host, report};

const USAGE: &str = "usage:
  run --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke] [--out DIR] [--spec FILE]
  selfcheck [--runs N] [--seconds S] [--smoke] [--out DIR] [--spec FILE]
  compare DIR_A DIR_B [--spec FILE]
workloads: serial-pp serial-pm ranks2-step serve-mix";

/// Flags of a subcommand: `--name value` pairs, bare `--smoke`, and
/// positional arguments.
struct Flags {
    named: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Flags {
            named: Vec::new(),
            smoke: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("smoke") => f.smoke = true,
                Some(name) => {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    f.named.push((name.to_string(), v.clone()));
                }
                None => f.positional.push(a.clone()),
            }
        }
        Ok(f)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn known(&self, names: &[&str]) -> Result<(), String> {
        match self
            .named
            .iter()
            .find(|(n, _)| !names.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }

    fn out(&self) -> PathBuf {
        PathBuf::from(self.get("out").unwrap_or("benchmark/out"))
    }

    fn spec(&self) -> Result<(PathBuf, Spec), String> {
        let path = PathBuf::from(self.get("spec").unwrap_or("BENCHMARK.json"));
        Spec::load(&path).map(|s| (path, s))
    }
}

fn run(flags: &Flags) -> Result<i32, String> {
    flags.known(&["workload", "seed", "seconds", "trace", "out", "spec"])?;
    host::pin_environment()?;
    let (_, spec) = flags.spec()?;
    let name = flags.get("workload").ok_or("run needs --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let args = RunArgs {
        workload,
        seed: flags.parsed("seed", 1)?,
        // A smoke run makes its minimum number of passes and stops.
        seconds: flags.parsed("seconds", if flags.smoke { 0.0 } else { spec.run_seconds })?,
        trace: match flags.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        smoke: flags.smoke,
        out: flags.out(),
        host: host::HostAtStart::capture(workload.runs_on_one_cpu()),
    };
    let mut rec = Recorder::new(args.trace, Instant::now(), 0);
    let out = workloads::run(&args, &mut rec)?;
    let metrics = report::emitted(&spec, &args, &out)?;
    report::write_file(
        &report::result_path(&args),
        &report::result_file(&args, &out, &metrics, &rec),
    )?;
    if args.trace {
        report::write_file(
            &args
                .out
                .join(format!("{}.trace.json", args.workload.name())),
            &rec.chrome_trace(args.workload.name()),
        )?;
    }
    print!("{}", report::render(&args, &out, &metrics));
    println!("{}", report::driver_line(&out, &metrics));
    Ok(0)
}

fn selfcheck(flags: &Flags) -> Result<i32, String> {
    flags.known(&["runs", "seconds", "out", "spec"])?;
    let (spec_path, spec) = flags.spec()?;
    let args = SelfcheckArgs {
        runs: flags.parsed("runs", 3)?,
        smoke: flags.smoke,
        seconds: flags.parsed("seconds", if flags.smoke { 0.0 } else { spec.run_seconds })?,
        out: flags.out(),
        spec_path,
    };
    if args.runs < 3 {
        return Err("selfcheck needs --runs of at least 3".into());
    }
    Ok(if compare::selfcheck(&spec, &args)? {
        0
    } else {
        1
    })
}

fn compare_dirs(flags: &Flags) -> Result<i32, String> {
    flags.known(&["spec"])?;
    let [a, b] = flags.positional.as_slice() else {
        return Err("compare takes two directories of result files".into());
    };
    let (_, spec) = flags.spec()?;
    let (a, b) = (
        compare::load_dir(a.as_ref())?,
        compare::load_dir(b.as_ref())?,
    );
    let rows = compare::compare(&spec, &a, &b);
    print!("{}", compare::render(&rows));
    let worse = rows.iter().any(|r| r.verdict == compare::Verdict::Worse);
    Ok(if worse { 1 } else { 0 })
}

/// Runs the command line; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let result = Flags::parse(rest).and_then(|flags| match cmd.as_str() {
        "run" => run(&flags),
        "selfcheck" => selfcheck(&flags),
        "compare" => compare_dirs(&flags),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("greem-benchmark: {e}");
            2
        }
    }
}
