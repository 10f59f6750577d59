//! The host record written into every result, and the roofline probe
//! (one-thread FMA peak, STREAM triad) the kernel layer is compared to.

use std::time::Instant;

use greem_obs::json::JsonWriter;

/// Values the runner pins before anything reads them. A run started
/// with one of them already set to something else is refused: it would
/// measure a different configuration under the same metric names.
pub const PINNED_ENV: [(&str, &str); 2] =
    [("RAYON_NUM_THREADS", "1"), ("GREEM_PP_AUTOTUNE", "off")];

/// Pin the compute configuration: one compute thread (the vendored
/// rayon then runs every `par_*` inline, so wall ≈ CPU and a neighbour
/// on the second core does not change the result) and no ⟨Ni⟩ tuner.
pub fn pin_environment() -> Result<(), String> {
    for (key, want) in PINNED_ENV {
        match std::env::var(key) {
            Ok(v) if v != want => {
                return Err(format!(
                    "{key}={v} is set, but the benchmark runs with {key}={want}; unset it"
                ))
            }
            _ => std::env::set_var(key, want),
        }
    }
    Ok(())
}

/// Words of the affinity mask handed to the kernel (1024 CPUs).
const CPU_MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the process, and so every thread it starts later, to one CPU:
/// the highest-numbered one it may run on (interrupts tend to land on
/// the lowest). Rank threads and daemon threads then take turns on that
/// CPU, every wall figure is the total work of the op, and whether a
/// neighbour holds the *other* core no longer matters. Unpinned, the
/// two-rank workload's `op_s_p50` moved by 21 % between runs of the same
/// code on this 2-core host. Returns the CPU, or `None` when the kernel
/// refuses (the run then proceeds unpinned and says so in its record).
fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..CPU_MASK_WORDS * 64)
        .rev()
        .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; CPU_MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed;
    // the call reads it and changes only this thread's affinity.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

fn first_line(cmd: &str, arg: &str) -> Option<String> {
    let out = std::process::Command::new(cmd).arg(arg).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

/// The commit of the tree the benchmark runs in, read from `.git`
/// without spawning git; the driver's checkouts are not repositories.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the largest cache level sysfs reports for cpu0, in bytes.
fn llc_bytes() -> Option<u64> {
    (0..8)
        .filter_map(|i| {
            let s = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let s = s.trim();
            let (num, mul) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1 << 10),
                b'M' => (&s[..s.len() - 1], 1 << 20),
                _ => (s, 1),
            };
            Some(num.parse::<u64>().ok()? * mul)
        })
        .max()
}

fn simd_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            f.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            f.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            f.push("avx512f");
        }
    }
    f
}

/// The roofline of one core of this host, measured in this run.
#[derive(Debug, Clone)]
pub struct Roofline {
    /// f64 flops/s of independent FMA chains on one thread, in Gflops.
    pub fma_gflops_1t: f64,
    /// STREAM triad bandwidth on one thread, GB/s (3 × 8 B per element).
    pub triad_gb_s: f64,
    /// Bytes of each triad array.
    pub triad_array_bytes: u64,
    /// `"4x-llc"` when each array is at least four times the last-level
    /// cache, `"capped"` when that would not fit the memory budget.
    pub triad_label: &'static str,
}

/// Largest triad array: 4 × LLC is the rule, but this host reports a
/// 260 MB shared L3, and three 1 GB arrays do not belong in a
/// benchmark run.
const TRIAD_ARRAY_CAP: u64 = 64 << 20;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let mul = _mm256_set1_pd(1.000_000_1);
    let add = _mm256_set1_pd(1e-9);
    let mut acc = [_mm256_set1_pd(1.0); 10];
    for _ in 0..iters {
        for a in &mut acc {
            *a = _mm256_fmadd_pd(*a, mul, add);
        }
    }
    let mut lanes = [0.0f64; 4];
    let mut sum = 0.0;
    for a in acc {
        // SAFETY: `lanes` holds four f64, the width of one __m256d.
        _mm256_storeu_pd(lanes.as_mut_ptr(), a);
        sum += lanes.iter().sum::<f64>();
    }
    sum
}

/// Scalar multiply-add chains, for a CPU without AVX2 + FMA.
fn fma_chains_scalar(iters: u64) -> f64 {
    let mut acc = [1.0f64; 8];
    for _ in 0..iters {
        for a in &mut acc {
            *a = *a * 1.000_000_1 + 1e-9;
        }
    }
    acc.iter().sum()
}

fn has_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// `iters` rounds of independent multiply-add chains on the widest unit
/// this CPU has; returns their sum so the work cannot be optimised away.
pub fn fma_chains(iters: u64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        // SAFETY: avx2 and fma were detected on this CPU just above.
        return unsafe { fma_chains_avx2(iters) };
    }
    fma_chains_scalar(iters)
}

/// One-thread FMA peak: ten independent 4-lane chains hide the FMA
/// latency on two ports (eight scalar chains where there is no FMA
/// unit, so the metric is still a measured peak of what the portable
/// kernel uses). Best of a few repeats, as for any peak.
fn fma_peak_gflops() -> f64 {
    let (iters, flops_per_iter, repeats) = if has_avx2_fma() {
        (4_000_000u64, 10.0 * 4.0 * 2.0, 5)
    } else {
        (20_000_000u64, 8.0 * 2.0, 1)
    };
    (0..repeats)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(fma_chains(std::hint::black_box(iters)));
            iters as f64 * flops_per_iter / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

pub fn roofline() -> Roofline {
    let want = llc_bytes().map_or(TRIAD_ARRAY_CAP, |l| 4 * l);
    let bytes = want.min(TRIAD_ARRAY_CAP);
    let n = (bytes / 8) as usize;
    let (b, c) = (vec![1.5f64; n], vec![2.5f64; n]);
    let mut a = vec![0.0f64; n];
    let triad_gb_s = (0..3)
        .map(|_| {
            let t = Instant::now();
            for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                *a = *b + 3.0 * *c;
            }
            std::hint::black_box(&mut a);
            24.0 * n as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max);
    Roofline {
        fma_gflops_1t: fma_peak_gflops(),
        triad_gb_s,
        triad_array_bytes: bytes,
        triad_label: if bytes >= want { "4x-llc" } else { "capped" },
    }
}

/// Hypervisor steal of `cpu` (all CPUs when `None`) since boot, in
/// seconds, from `/proc/stat` (USER_HZ = 100 on Linux).
fn steal_s(cpu: Option<usize>) -> f64 {
    let label = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.split(' ').next() == Some(&label))?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .unwrap_or(0.0)
        / 100.0
}

/// What the process learned about its host when it started.
pub struct HostAtStart {
    /// CPUs the process could run on before it pinned itself.
    nproc: usize,
    pub pinned_cpu: Option<usize>,
    started: Instant,
    steal_s: f64,
}

impl HostAtStart {
    /// Record the host's state and, when `pin` is set, pin the process
    /// to one CPU (see [`pin_to_one_cpu`]).
    pub fn capture(pin: bool) -> HostAtStart {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pinned_cpu = pin.then(pin_to_one_cpu).flatten();
        HostAtStart {
            nproc,
            pinned_cpu,
            started: Instant::now(),
            steal_s: steal_s(pinned_cpu),
        }
    }

    /// Share of the run's CPU time the hypervisor gave to someone else.
    /// Past a few percent the time metrics of this run measured the
    /// neighbours: on this host it read 0.21 while `serial-pp` ran at
    /// 0.63 s/op instead of its usual 0.40.
    fn steal_share(&self) -> f64 {
        let cpus = if self.pinned_cpu.is_some() {
            1
        } else {
            self.nproc
        };
        (steal_s(self.pinned_cpu) - self.steal_s)
            / (self.started.elapsed().as_secs_f64() * cpus as f64)
    }
}

/// Write the host record as the object `key`.
pub fn write_host_record(
    w: &mut JsonWriter,
    key: &str,
    host: &HostAtStart,
    roofline: Option<&Roofline>,
) {
    w.begin_obj(Some(key));
    w.f64(
        Some("pinned_cpu"),
        host.pinned_cpu.map_or(-1.0, |c| c as f64),
    );
    w.f64(Some("steal_share"), host.steal_share());
    w.str_(Some("git_rev"), &git_rev());
    w.str_(
        Some("rustc"),
        &first_line("rustc", "-V").unwrap_or_else(|| "unknown".into()),
    );
    w.str_(Some("cpu_model"), &cpu_model());
    w.u64(Some("nproc"), host.nproc as u64);
    w.str_(Some("simd"), &simd_features().join(","));
    w.str_(
        Some("pp_kernel_env"),
        &std::env::var("GREEM_PP_KERNEL").unwrap_or_else(|_| "unset".into()),
    );
    w.str_(
        Some("pp_kernel_selected"),
        greem_kernels::selected_variant().name(),
    );
    for (key, _) in PINNED_ENV {
        w.str_(Some(key), &std::env::var(key).unwrap_or_default());
    }
    w.u64(Some("llc_bytes"), llc_bytes().unwrap_or(0));
    if let Some(r) = roofline {
        w.begin_obj(Some("roofline"));
        w.f64(Some("fma_gflops_1t"), r.fma_gflops_1t);
        w.f64(Some("triad_gb_s"), r.triad_gb_s);
        w.u64(Some("triad_array_bytes"), r.triad_array_bytes);
        w.str_(Some("triad_label"), r.triad_label);
        w.end_obj();
    }
    w.end_obj();
}
