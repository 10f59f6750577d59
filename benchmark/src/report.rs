//! Turning a run's output into the three things it leaves behind: the
//! human-readable report, the result file, and the one-line JSON the
//! driver reads.

use std::path::{Path, PathBuf};

use greem_obs::json::JsonWriter;

use crate::host::write_host_record;
use crate::measure::Recorder;
use crate::spec::{MetricSpec, Spec};
use crate::workloads::{RunArgs, RunOutput};

/// The metrics this run must emit, with the values it measured. Fails
/// when the run did not produce a metric `BENCHMARK.json` names.
pub fn emitted<'a>(
    spec: &'a Spec,
    args: &RunArgs,
    out: &RunOutput,
) -> Result<Vec<(&'a MetricSpec, f64)>, String> {
    let (wanted, have) = if args.trace {
        (&spec.per_layer, &out.layers)
    } else {
        (&spec.end_to_end, &out.end_to_end)
    };
    wanted
        .iter()
        .map(|m| {
            have.iter()
                .find(|(name, _)| *name == m.name)
                .map(|&(_, v)| (m, v))
                .ok_or_else(|| format!("workload produced no value for metric {:?}", m.name))
        })
        .collect()
}

fn write_metrics(w: &mut JsonWriter, metrics: &[(&MetricSpec, f64)]) {
    w.begin_obj(Some("metrics"));
    for (m, v) in metrics {
        w.begin_obj(Some(&m.name));
        w.f64(Some("value"), *v);
        w.str_(Some("unit"), &m.unit);
        w.end_obj();
    }
    w.end_obj();
}

/// The last line of standard output: exactly the four keys the driver
/// reads.
pub fn driver_line(out: &RunOutput, metrics: &[(&MetricSpec, f64)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.bool_(Some("correct"), out.correct());
    w.u64(Some("attempted"), out.attempted);
    w.u64(Some("failed"), out.failed);
    write_metrics(&mut w, metrics);
    w.end_obj();
    w.finish()
}

pub fn result_path(args: &RunArgs) -> PathBuf {
    args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ))
}

/// Everything the run knows, for `compare`, `selfcheck` and people.
pub fn result_file(
    args: &RunArgs,
    out: &RunOutput,
    metrics: &[(&MetricSpec, f64)],
    rec: &Recorder,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.str_(Some("workload"), args.workload.name());
    w.u64(Some("seed"), args.seed);
    w.bool_(Some("trace"), args.trace);
    w.bool_(Some("smoke"), args.smoke);
    w.bool_(Some("correct"), out.correct());
    w.u64(Some("attempted"), out.attempted);
    w.u64(Some("failed"), out.failed);
    w.u64(Some("passes"), out.passes as u64);
    w.str_(
        Some("input_fingerprint"),
        &format!("{:016x}", out.fingerprint),
    );
    write_metrics(&mut w, metrics);
    w.begin_arr(Some("op_s"));
    for v in &out.op_s {
        w.f64(None, *v);
    }
    w.end_arr();
    w.begin_obj(Some("as_measured"));
    for (name, v) in &out.as_measured {
        w.f64(Some(name), *v);
    }
    w.end_obj();
    w.begin_obj(Some("exact"));
    for (name, v) in &out.exact {
        w.f64(Some(name), *v);
    }
    w.end_obj();
    w.begin_obj(Some("unlisted_layers"));
    for (name, v) in &out.layers {
        if !metrics.iter().any(|(m, _)| m.name == *name) {
            w.f64(Some(name), *v);
        }
    }
    w.end_obj();
    w.begin_arr(Some("checks"));
    for c in &out.checks {
        w.begin_obj(None);
        w.str_(Some("name"), c.name);
        w.bool_(Some("ok"), c.ok);
        w.str_(Some("detail"), &c.detail);
        w.end_obj();
    }
    w.end_arr();
    if let Some(l) = &out.ledger {
        w.begin_obj(Some("ledger"));
        w.begin_obj(Some("rows_s_per_op"));
        for (name, v) in &l.rows {
            w.f64(Some(name), *v);
        }
        w.end_obj();
        w.f64(Some("sum_s_per_op"), l.sum());
        w.f64(Some("op_wall_s"), l.op_wall_s);
        w.f64(Some("unattributed_share"), l.unattributed_share());
        w.end_obj();
    }
    if rec.is_on() {
        w.begin_obj(Some("self_time_s"));
        for (name, self_s, count) in rec.self_times() {
            w.begin_obj(Some(name));
            w.f64(Some("self_s"), self_s);
            w.u64(Some("spans"), count as u64);
            w.end_obj();
        }
        w.end_obj();
    }
    write_host_record(&mut w, "host", &args.host, out.roofline.as_ref());
    w.end_obj();
    w.finish()
}

/// The report printed above the driver line.
pub fn render(args: &RunArgs, out: &RunOutput, metrics: &[(&MetricSpec, f64)]) -> String {
    let mut s = format!(
        "{} seed {} trace {}{}: {} passes, {} ops attempted, {} failed\n",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        if args.smoke { " (smoke)" } else { "" },
        out.passes,
        out.attempted,
        out.failed,
    );
    for (m, v) in metrics {
        s += &format!("  {:<36} {v:>16.9} {}\n", m.name, m.unit);
    }
    for (name, v) in &out.as_measured {
        s += &format!("  as measured {name:<24} {v:>16.9}\n");
    }
    for (name, v) in &out.exact {
        s += &format!("  exact {name:<30} {v:>24.17e}\n");
    }
    if let (true, Some(l)) = (args.trace, &out.ledger) {
        let title = if args.workload == crate::workloads::Workload::ServeMix {
            "serve-mix (solver twin of one job step)"
        } else {
            args.workload.name()
        };
        s += &l.render(title);
    }
    for c in &out.checks {
        s += &format!(
            "  check {}: {} ({})\n",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    s
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
