//! Clocks, process accounting, order statistics and the span recorder.

use std::time::Instant;

/// CPU seconds the whole process (every thread) has consumed.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target, the only platform the
    // benchmark supports); the call writes it and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Quantile `q` of `v` (linear interpolation between order statistics).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The 90th percentile, reported only when at least ten samples lie
/// beyond it; a tail of fewer samples is an anecdote.
pub fn p90(v: &[f64]) -> Option<f64> {
    (v.len() >= 100).then(|| quantile(v, 0.9))
}

/// First and third quartile by the exclusive method, which is what
/// Python's `statistics.quantiles(v, n=4)` computes and the driver uses.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need two samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let pos = k as f64 * (s.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, s.len() - 1);
        s[j - 1] + (s[j] - s[j - 1]) * (pos - j as f64)
    };
    (at(1), at(3))
}

/// One recorded span. `parent` indexes the recorder's span list.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub tid: usize,
}

/// The benchmark's own span recorder: spans are opened around calls
/// into the crates' public functions, kept in memory, and written as a
/// Chrome trace when the run ends. One recorder per thread that records
/// (rank threads merge theirs into the main one).
pub struct Recorder {
    epoch: Instant,
    on: bool,
    tid: usize,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant, tid: usize) -> Self {
        Recorder {
            epoch,
            on,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Time `f` under a span named `name`; returns `f`'s value and the
    /// span's duration. With the recorder off only the clock is read.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let t0 = Instant::now();
        if !self.on {
            let out = f(self);
            return (out, t0.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start_s: (t0 - self.epoch).as_secs_f64(),
            end_s: 0.0,
            parent: self.open.last().copied(),
            tid: self.tid,
        });
        self.open.push(id);
        let out = f(self);
        let dur = t0.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[id].end_s = self.spans[id].start_s + dur;
        (out, dur)
    }

    /// Append another thread's finished spans.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover, summed by name.
    pub fn self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_s - s.start_s;
            }
        }
        let mut by_name: Vec<(&'static str, f64, usize)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let own = (s.end_s - s.start_s - c).max(0.0);
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut w = greem_obs::json::JsonWriter::new();
        w.begin_obj(None);
        w.begin_arr(Some("traceEvents"));
        for (id, s) in self.spans.iter().enumerate() {
            w.begin_obj(None);
            w.str_(Some("name"), s.name);
            w.str_(Some("cat"), workload);
            w.str_(Some("ph"), "X");
            w.u64(Some("pid"), 1);
            w.u64(Some("tid"), s.tid as u64);
            w.f64(Some("ts"), s.start_s * 1e6);
            w.f64(Some("dur"), (s.end_s - s.start_s) * 1e6);
            w.begin_obj(Some("args"));
            w.u64(Some("id"), id as u64);
            w.f64(Some("parent"), s.parent.map_or(-1.0, |p| p as f64));
            w.str_(Some("workload"), workload);
            w.end_obj();
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new(true, Instant::now(), 0);
        r.span("outer", |r| {
            r.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let st = r.self_times();
        let outer = st.iter().find(|s| s.0 == "outer").unwrap().1;
        let inner = st.iter().find(|s| s.0 == "inner").unwrap().1;
        let total = r.spans()[0].end_s - r.spans()[0].start_s;
        assert!((outer + inner - total).abs() < 1e-9);
        assert!(inner >= 0.005 && outer >= 0.005);
        assert_eq!(r.spans()[1].parent, Some(0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert!(p90(&vec![1.0; 99]).is_none());
        assert!(p90(&vec![1.0; 100]).is_some());
    }
}
