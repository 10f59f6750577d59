//! Metrics registry: counters, gauges and histograms with fixed label
//! sets, plus the [`Observe`] trait through which the existing stats
//! structs (`CommStats`, `WalkStats`, `StepBreakdown`,
//! Table I rows, …) feed one unified schema.

use std::collections::BTreeMap;

use crate::json::JsonWriter;

/// Anything that can dump itself into a [`Registry`].
///
/// Implementations live next to the stats structs they describe, so the
/// schema stays in one place per struct.
pub trait Observe {
    fn observe(&self, reg: &mut Registry);
}

/// Metric kind and current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically accumulating sum (merge: add).
    Counter(f64),
    /// Point-in-time value (merge: last write wins).
    Gauge(f64),
    /// Bucketed distribution (merge: add).
    Histogram(Histogram),
}

/// Fixed-bound histogram; `counts[i]` counts samples `<= bounds[i]`, with
/// one implicit overflow bucket at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub bounds: Vec<f64>,
    /// `bounds.len() + 1` entries; last is the overflow bucket.
    pub counts: Vec<u64>,
    pub sum: f64,
    pub count: u64,
}

impl Histogram {
    pub fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    pub fn observe(&mut self, v: f64) {
        self.observe_n(v, 1);
    }

    /// Record `v` with multiplicity `n` in one call — how pre-bucketed
    /// counts (e.g. the walk's per-group-size tallies) fold in without
    /// `n` separate observations.
    pub fn observe_n(&mut self, v: f64, n: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += n;
        self.sum += v * n as f64;
        self.count += n;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0 <= q <= 1`) by linear interpolation
    /// inside the bucket holding the target rank — the same estimator
    /// Prometheus' `histogram_quantile` uses. The first bucket
    /// interpolates from `min(0, bound)` (durations are non-negative, so
    /// 0 is the natural lower edge unless the bound itself is negative);
    /// ranks landing in the overflow bucket clamp to the largest bound.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c;
            if (next as f64) >= target && c > 0 {
                if i >= self.bounds.len() {
                    // Overflow bucket: no finite upper edge to interpolate
                    // toward; clamp like Prometheus does for +Inf.
                    return self.bounds[self.bounds.len() - 1];
                }
                let hi = self.bounds[i];
                let lo = if i == 0 {
                    hi.min(0.0)
                } else {
                    self.bounds[i - 1]
                };
                let frac = (target - cum as f64) / c as f64;
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
            cum = next;
        }
        self.bounds[self.bounds.len() - 1]
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Default histogram bounds: decades from 1 µs to 100 s (suits both wall
/// seconds and virtual-clock seconds).
pub const DEFAULT_BOUNDS: [f64; 9] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    pub value: MetricValue,
}

/// A set of named metrics, each identified by `name` plus a fixed label
/// set. Labels are applied through lexical [`Registry::with_label`] scopes
/// so observers compose (e.g. a per-rank scope around per-phase scopes).
#[derive(Debug, Default)]
pub struct Registry {
    scope: Vec<(String, String)>,
    entries: BTreeMap<String, Entry>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&self, name: &str) -> (String, Vec<(String, String)>) {
        let mut labels = self.scope.clone();
        labels.sort();
        let mut key = String::from(name);
        if !labels.is_empty() {
            key.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    key.push(',');
                }
                key.push_str(k);
                key.push('=');
                key.push_str(v);
            }
            key.push('}');
        }
        (key, labels)
    }

    /// Run `f` with `(key, value)` appended to the active label scope.
    pub fn with_label<R>(&mut self, key: &str, value: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.scope.push((key.to_string(), value.to_string()));
        let out = f(self);
        self.scope.pop();
        out
    }

    /// Add `v` to the counter `name` under the active label scope.
    pub fn counter_add(&mut self, name: &str, v: f64) {
        let (key, labels) = self.key(name);
        let entry = self.entries.entry(key).or_insert_with(|| Entry {
            name: name.to_string(),
            labels,
            value: MetricValue::Counter(0.0),
        });
        if let MetricValue::Counter(c) = &mut entry.value {
            *c += v;
        }
    }

    /// Set the gauge `name` under the active label scope.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        let (key, labels) = self.key(name);
        let entry = self.entries.entry(key).or_insert_with(|| Entry {
            name: name.to_string(),
            labels,
            value: MetricValue::Gauge(0.0),
        });
        if let MetricValue::Gauge(g) = &mut entry.value {
            *g = v;
        }
    }

    /// Record `v` into the histogram `name` (created with
    /// [`DEFAULT_BOUNDS`]) under the active label scope.
    pub fn hist_observe(&mut self, name: &str, v: f64) {
        self.hist_observe_with(name, &DEFAULT_BOUNDS, v);
    }

    /// Record `v` into the histogram `name`, creating it with `bounds` on
    /// first use (later calls keep the original bounds).
    pub fn hist_observe_with(&mut self, name: &str, bounds: &[f64], v: f64) {
        self.hist_observe_n(name, bounds, v, 1);
    }

    /// Record `v` with multiplicity `n` into the histogram `name`,
    /// creating it with `bounds` on first use.
    pub fn hist_observe_n(&mut self, name: &str, bounds: &[f64], v: f64, n: u64) {
        let (key, labels) = self.key(name);
        let entry = self.entries.entry(key).or_insert_with(|| Entry {
            name: name.to_string(),
            labels,
            value: MetricValue::Histogram(Histogram::new(bounds)),
        });
        if let MetricValue::Histogram(h) = &mut entry.value {
            h.observe_n(v, n);
        }
    }

    /// Fold another registry in: counters and histograms add, gauges take
    /// the other side's value. Used to aggregate per-rank registries.
    pub fn merge(&mut self, other: &Registry) {
        for (key, e) in &other.entries {
            match self.entries.get_mut(key) {
                None => {
                    self.entries.insert(key.clone(), e.clone());
                }
                Some(mine) => match (&mut mine.value, &e.value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = *b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b))
                        if a.bounds == b.bounds =>
                    {
                        for (ca, cb) in a.counts.iter_mut().zip(&b.counts) {
                            *ca += cb;
                        }
                        a.sum += b.sum;
                        a.count += b.count;
                    }
                    _ => {} // kind/bounds mismatch: keep ours
                },
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in key (name, then label) order.
    pub fn entries(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.entries.values()
    }

    /// Look up one metric's scalar value (counter or gauge) by full key,
    /// e.g. `tableone_seconds{phase=fft,section=pm}`.
    pub fn value(&self, key: &str) -> Option<f64> {
        match &self.entries.get(key)?.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            MetricValue::Histogram(h) => Some(h.mean()),
        }
    }

    /// Compact single-line JSON array of metric objects — one registry dump
    /// per line makes a valid JSONL stream.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w, None);
        w.finish()
    }

    /// Write the metric array into an enclosing [`JsonWriter`].
    pub fn write_json(&self, w: &mut JsonWriter, key: Option<&str>) {
        w.begin_arr(key);
        for e in self.entries.values() {
            w.begin_obj(None);
            w.str_(Some("name"), &e.name);
            if !e.labels.is_empty() {
                w.begin_obj(Some("labels"));
                for (k, v) in &e.labels {
                    w.str_(Some(k), v);
                }
                w.end_obj();
            }
            match &e.value {
                MetricValue::Counter(v) => {
                    w.str_(Some("type"), "counter");
                    w.f64(Some("value"), *v);
                }
                MetricValue::Gauge(v) => {
                    w.str_(Some("type"), "gauge");
                    w.f64(Some("value"), *v);
                }
                MetricValue::Histogram(h) => {
                    w.str_(Some("type"), "histogram");
                    w.f64(Some("sum"), h.sum);
                    w.u64(Some("count"), h.count);
                    w.f64(Some("p50"), h.p50());
                    w.f64(Some("p95"), h.p95());
                    w.f64(Some("p99"), h.p99());
                    w.begin_arr(Some("bounds"));
                    for &b in &h.bounds {
                        w.f64(None, b);
                    }
                    w.end_arr();
                    w.begin_arr(Some("counts"));
                    for &c in &h.counts {
                        w.u64(None, c);
                    }
                    w.end_arr();
                }
            }
            w.end_obj();
        }
        w.end_arr();
    }

    /// Prometheus text exposition format: one `# HELP` + `# TYPE` pair
    /// per metric family, label values quoted and escaped, histograms
    /// expanded to cumulative `_bucket{le=...}` series plus `_sum` and
    /// `_count`. Quantile estimates ride along as non-HELP/TYPE comment
    /// lines (ignored by Prometheus parsers). Round-trips through
    /// [`parse_exposition`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        // BTreeMap keys start with the metric name, so entries of one
        // family are adjacent: emit HELP/TYPE on each name change.
        for e in self.entries.values() {
            let name = sanitize_name(&e.name);
            if name != last_family {
                let kind = match &e.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {name} greem {kind} {}\n", e.name));
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_family = &e.name;
            }
            match &e.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(&name);
                    write_labels(&mut out, &e.labels, None);
                    out.push_str(&format!(" {}\n", fmt_value(*v)));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &c) in h.counts.iter().enumerate() {
                        cum += c;
                        let le = if i < h.bounds.len() {
                            fmt_value(h.bounds[i])
                        } else {
                            "+Inf".to_string()
                        };
                        out.push_str(&format!("{name}_bucket"));
                        write_labels(&mut out, &e.labels, Some(&le));
                        out.push_str(&format!(" {cum}\n"));
                    }
                    out.push_str(&format!("{name}_sum"));
                    write_labels(&mut out, &e.labels, None);
                    out.push_str(&format!(" {}\n", fmt_value(h.sum)));
                    out.push_str(&format!("{name}_count"));
                    write_labels(&mut out, &e.labels, None);
                    out.push_str(&format!(" {cum}\n"));
                    out.push_str(&format!(
                        "# {name} p50={} p95={} p99={}\n",
                        fmt_value(h.p50()),
                        fmt_value(h.p95()),
                        fmt_value(h.p99()),
                    ));
                }
            }
        }
        out
    }
}

/// Replace characters outside `[a-zA-Z0-9_:]` with `_` (and guard a
/// leading digit) so emitted metric/label names are valid Prometheus
/// identifiers.
fn sanitize_name(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

/// Escape a label value per the exposition format: backslash, double
/// quote and newline.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn write_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&sanitize_name(k));
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

/// Render a sample value: integral values print without an exponent or
/// trailing zeros; everything else uses shortest-roundtrip formatting.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// One sample line parsed back out of the exposition text.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    /// Sorted `(key, value)` pairs, including any `le` bucket label.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// Parse Prometheus text exposition format back into samples (comment
/// lines are skipped; histogram series come back as their `_bucket` /
/// `_sum` / `_count` samples). Used by the round-trip test and by
/// external scrapers of `--metrics` dumps.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: &str| format!("line {}: {m}: {line}", ln + 1);
        // The sample value (number / +Inf / NaN) never contains '}', so
        // the last '}' on the line closes the label set even when label
        // values contain spaces.
        let (name_and_labels, value_str) = match line.rfind('}') {
            Some(i) => {
                let rest = line[i + 1..].trim();
                if rest.is_empty() {
                    return Err(err("missing value after labels"));
                }
                (&line[..=i], rest)
            }
            None => {
                let mut it = line.splitn(2, ' ');
                let n = it.next().unwrap();
                let v = it.next().ok_or_else(|| err("missing value"))?;
                (n, v.trim())
            }
        };
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            s => s.parse().map_err(|_| err("bad sample value"))?,
        };
        let (name, labels) = match name_and_labels.find('{') {
            None => (name_and_labels.to_string(), Vec::new()),
            Some(b) => {
                if !name_and_labels.ends_with('}') {
                    return Err(err("unterminated label set"));
                }
                let name = name_and_labels[..b].to_string();
                let body = &name_and_labels[b + 1..name_and_labels.len() - 1];
                (name, parse_labels(body).map_err(|m| err(&m))?)
            }
        };
        if name.is_empty() {
            return Err(err("empty metric name"));
        }
        out.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(out)
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while chars.peek() == Some(&',') || chars.peek() == Some(&' ') {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key}: expected opening quote"));
        }
        let mut val = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('\\') => val.push('\\'),
                    Some('"') => val.push('"'),
                    Some('n') => val.push('\n'),
                    other => return Err(format!("label {key}: bad escape {other:?}")),
                },
                '"' => {
                    closed = true;
                    break;
                }
                c => val.push(c),
            }
        }
        if !closed {
            return Err(format!("label {key}: unterminated value"));
        }
        labels.push((key, val));
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_labels_build_distinct_series() {
        let mut reg = Registry::new();
        reg.with_label("section", "pm", |r| {
            r.with_label("phase", "fft", |r| r.counter_add("seconds", 1.5));
            r.with_label("phase", "assign", |r| r.counter_add("seconds", 0.5));
        });
        reg.with_label("section", "pm", |r| {
            r.with_label("phase", "fft", |r| r.counter_add("seconds", 1.0));
        });
        assert_eq!(reg.value("seconds{phase=fft,section=pm}"), Some(2.5));
        assert_eq!(reg.value("seconds{phase=assign,section=pm}"), Some(0.5));
        assert_eq!(reg.entries().count(), 2);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = Registry::new();
        a.counter_add("c", 1.0);
        a.gauge_set("g", 1.0);
        a.hist_observe("h", 0.5);
        let mut b = Registry::new();
        b.counter_add("c", 2.0);
        b.gauge_set("g", 9.0);
        b.hist_observe("h", 5.0);
        a.merge(&b);
        assert_eq!(a.value("c"), Some(3.0));
        assert_eq!(a.value("g"), Some(9.0));
        match &a.entries.get("h").unwrap().value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 5.5);
            }
            _ => panic!("expected histogram"),
        }
    }

    #[test]
    fn json_dump_parses_back() {
        let mut reg = Registry::new();
        reg.with_label("rank", "0", |r| r.counter_add("bytes_sent", 4096.0));
        reg.hist_observe("lat", 2e-4);
        let s = reg.to_json();
        assert!(!s.contains('\n'), "JSONL lines must be single-line");
        let v = crate::json::parse(&s).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        let bytes = &arr[0];
        assert_eq!(bytes.get("name").unwrap().as_str().unwrap(), "bytes_sent");
        assert_eq!(
            bytes
                .get("labels")
                .unwrap()
                .get("rank")
                .unwrap()
                .as_str()
                .unwrap(),
            "0"
        );
        assert_eq!(bytes.get("value").unwrap().as_f64().unwrap(), 4096.0);
        assert_eq!(arr[1].get("type").unwrap().as_str().unwrap(), "histogram");
        assert!(arr[1].get("p50").unwrap().as_f64().is_some());
        let text = reg.to_text();
        assert!(text.contains("bytes_sent{rank=\"0\"} 4096"));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        // 2 samples in (1,2], 2 samples in (2,4].
        h.observe(1.5);
        h.observe(1.5);
        h.observe(3.0);
        h.observe(3.0);
        // p50 rank = 2.0 -> exactly fills bucket (1,2]: upper edge.
        assert!((h.quantile(0.5) - 2.0).abs() < 1e-12);
        // p75 rank = 3.0 -> halfway through bucket (2,4] -> 3.0.
        assert!((h.quantile(0.75) - 3.0).abs() < 1e-12);
        // p100 -> top of last finite bucket.
        assert!((h.quantile(1.0) - 4.0).abs() < 1e-12);
        // Empty histogram.
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), 0.0);
        // Overflow bucket clamps to the largest bound.
        let mut o = Histogram::new(&[1.0, 2.0]);
        o.observe(100.0);
        assert_eq!(o.quantile(0.5), 2.0);
        // Default-bound sanity: p50/p95/p99 are monotone.
        let mut d = Histogram::new(&DEFAULT_BOUNDS);
        for i in 0..100 {
            d.observe(1e-5 * (i as f64 + 1.0));
        }
        assert!(d.p50() <= d.p95() && d.p95() <= d.p99());
        assert!(d.p50() > 0.0);
    }

    #[test]
    fn exposition_round_trips() {
        let mut reg = Registry::new();
        reg.with_label("phase", "walk force", |r| {
            r.counter_add("pp_seconds", 1.25);
        });
        reg.with_label("scenario", "a\"b\\c\nd", |r| r.gauge_set("weird", 7.0));
        reg.hist_observe_with("lat", &[1e-3, 1e-2], 5e-3);
        reg.hist_observe_with("lat", &[1e-3, 1e-2], 5.0);
        let text = reg.to_text();
        // TYPE/HELP present once per family.
        assert_eq!(text.matches("# TYPE lat histogram").count(), 1);
        assert_eq!(text.matches("# HELP pp_seconds").count(), 1);
        let samples = parse_exposition(&text).expect("valid exposition");
        let find = |name: &str| samples.iter().find(|s| s.name == name).unwrap();
        let c = find("pp_seconds");
        assert_eq!(c.value, 1.25);
        assert_eq!(c.labels, vec![("phase".into(), "walk force".into())]);
        // Escaped label value survives the round trip.
        assert_eq!(find("weird").labels[0].1, "a\"b\\c\nd");
        // Histogram expands to cumulative buckets + sum + count.
        let buckets: Vec<&Sample> = samples.iter().filter(|s| s.name == "lat_bucket").collect();
        assert_eq!(buckets.len(), 3);
        assert_eq!(
            buckets.last().unwrap().labels,
            vec![("le".to_string(), "+Inf".to_string())]
        );
        assert_eq!(buckets.last().unwrap().value, 2.0);
        assert_eq!(find("lat_sum").value, 5.005);
        assert_eq!(find("lat_count").value, 2.0);
    }

    #[test]
    fn exposition_parser_rejects_malformed_lines() {
        assert!(parse_exposition("name_only\n").is_err());
        assert!(parse_exposition("m{a=\"unterminated} 1\n").is_err());
        assert!(parse_exposition("m{a=\"v\"}\n").is_err());
        assert!(parse_exposition("m 12x4\n").is_err());
        assert!(parse_exposition("m{a=\"bad\\q\"} 1\n").is_err());
    }
}
