//! One module per reproduced table/figure. Every experiment exposes one
//! `run(small) -> Outcome`: it fixes its sizes once, measures once, and
//! renders that one measurement twice — the text report and the
//! `--json` summary (one top-level object tagged `"experiment"`). The
//! harness's table (`harness --help`) maps command names to these.

pub mod accuracy;
pub mod chaos;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod galaxy;
pub mod kernel;
pub mod multipole_ablation;
pub mod ni_sweep;
pub mod scaling;
pub mod serve_bench;
pub mod table1;
pub mod tree_vs_treepm;
pub mod weakscale;

use greem_analysis::MetricSpec;
use greem_obs::json::JsonWriter;

/// One run of an experiment, rendered both ways.
pub struct Outcome {
    /// The human-readable report.
    pub text: String,
    /// The `--json` summary with its top-level object still open, so
    /// the gate can append its verdict; [`Outcome::json`] closes it.
    pub(crate) json: JsonWriter,
    /// What `crate::gate` judges this run by; `None` for the paper's
    /// tables and figures, which are reports, not gates.
    pub gate: Option<GateSpec>,
}

/// What a gated experiment hands the gate besides its two renderings.
pub struct GateSpec {
    /// Baseline file stem: `<baseline dir>/<bench>.json`.
    pub bench: String,
    pub metrics: Vec<MetricSpec>,
    /// Absolute failures: they fail the run whatever a baseline says.
    pub hard_failures: Vec<String>,
    /// Missing-baseline policy: a setup error (exit 2) when `true`, an
    /// ungated run (exit 0) when `false`.
    pub baseline_required: bool,
}

impl GateSpec {
    /// A spec for `baselines/<stem>_{small,full}.json` with no hard
    /// failures.
    pub(crate) fn new(
        stem: &str,
        small: bool,
        metrics: Vec<MetricSpec>,
        baseline_required: bool,
    ) -> Self {
        GateSpec {
            bench: format!("{stem}_{}", if small { "small" } else { "full" }),
            metrics,
            hard_failures: Vec::new(),
            baseline_required,
        }
    }
}

impl Outcome {
    pub(crate) fn new(text: String, json: JsonWriter) -> Self {
        Outcome {
            text,
            json,
            gate: None,
        }
    }

    pub(crate) fn gated(mut self, spec: GateSpec) -> Self {
        self.gate = Some(spec);
        self
    }

    /// The finished single-line JSON summary.
    pub fn json(mut self) -> String {
        self.json.end_obj();
        self.json.finish()
    }
}

/// Open the common `{"experiment": name, "small": …` envelope every
/// summary shares; the experiment adds its payload and leaves the
/// object open for [`Outcome`].
pub(crate) fn summary_writer(name: &str, small: bool) -> JsonWriter {
    let mut w = JsonWriter::new();
    w.begin_obj(None);
    w.str_(Some("experiment"), name);
    w.bool_(Some("small"), small);
    w
}
