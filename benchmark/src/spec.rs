//! `BENCHMARK.json`: the committed list of workloads, metrics, units,
//! directions and regression bounds. The runner emits exactly the
//! metrics this file names, and `compare`/`selfcheck` judge with its
//! bounds, so the file is the single statement of the contract.

use greem_obs::json::{self, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: missing string field {key:?}"))
}

fn metrics(root: &Value, key: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    root.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))?
        .iter()
        .map(|m| {
            let better = str_field(m, "better")?;
            if better != "higher" && better != "lower" {
                return Err(format!("BENCHMARK.json: better = {better:?}"));
            }
            let bound = m.get("bound").and_then(Value::as_f64);
            if bounded != bound.is_some() {
                return Err(format!(
                    "BENCHMARK.json: {key} entry with wrong bound field"
                ));
            }
            Ok(MetricSpec {
                name: str_field(m, "name")?.to_string(),
                unit: str_field(m, "unit")?.to_string(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = root
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("BENCHMARK.json: missing array \"workloads\"")?
            .iter()
            .map(|w| str_field(w, "name").map(str::to_string))
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing number \"run_seconds\"")?,
            end_to_end: metrics(&root, "end_to_end", true)?,
            per_layer: metrics(&root, "per_layer", false)?,
        })
    }

    pub fn load(path: &std::path::Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text)
    }
}
