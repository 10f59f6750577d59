//! **§II-A** — the optimised particle-particle force loop.
//!
//! The paper's claims: 51 flops per interaction; a 12 Gflops/core
//! theoretical bound (75 % of peak, set by the 17-FMA/17-non-FMA mix);
//! 11.65 Gflops measured (97 % of the bound) on an O(N²) kernel
//! benchmark. Per kernel variant (explicit AVX-512 and AVX2, portable
//! blocked, scalar reference) the report gives the interaction rate,
//! the paper-accounting flop rate (51 × rate) and the speedup over the
//! scalar reference; for the explicit-SIMD variants it also applies the
//! paper's own framing to this host — the bound their counted
//! FMA/non-FMA mix sets against an FMA-peak probe of the variant's own
//! vector width, and the measured percentage of it. The report names
//! the variant the runtime dispatcher selects — the kernel the tree
//! walk actually runs.

use greem::{Simulation, SimulationMode, TreePmConfig};
use greem_kernels::{kernel_benchmark, selected_variant, KernelBenchReport, OpMix};
use greem_perfmodel::KMachine;

use crate::workloads;

/// Run the O(N²) benchmark at a few sizes.
pub fn sweep(sizes: &[usize], iters: usize) -> Vec<KernelBenchReport> {
    sizes.iter().map(|&n| kernel_benchmark(n, iters)).collect()
}

/// Cost of the span guards the hot paths carry (DESIGN.md §18's ≤ 2 %
/// tracing budget, measured rather than asserted).
pub struct TracingOverhead {
    /// Guards measured per mode.
    pub spans: u64,
    /// ns per guard with recording disabled — the always-paid cost.
    pub ns_per_disabled_span: f64,
    /// ns per guard with recording on (ring-buffered Begin/End pair).
    pub ns_per_recorded_span: f64,
    /// End-to-end overhead of running a real small TreePM step loop
    /// inside a capture window vs outside, in percent.
    pub step_loop_overhead_pct: f64,
}

/// Measure the tracing overhead: tight guard loops in both modes, then
/// a traced-vs-untraced real step loop (interleaved repetitions, the
/// minimum of each). Numbers are host-dependent and reported ungated;
/// the point is that the instrumented loop stays within the documented
/// budget on any sane host.
pub fn tracing_overhead(small: bool) -> TracingOverhead {
    use greem_obs::trace;
    use std::time::Instant;
    let spans: u64 = if small { 50_000 } else { 400_000 };

    let guard_loop = |n: u64| {
        let t0 = Instant::now();
        for _ in 0..n {
            let _s = trace::span("bench", "overhead.guard");
        }
        t0.elapsed().as_secs_f64() / n as f64 * 1e9
    };
    // Recording is off outside capture windows, so this prices the
    // disabled guard (an atomic load and an inert struct).
    let ns_per_disabled_span = guard_loop(spans);
    let (ns_per_recorded_span, _, _) = trace::capture_counted(|| guard_loop(spans));

    // The real thing: the same small simulation stepped untraced and
    // traced (one warm-up step each, outside the timed region).
    let make = || {
        let n = if small { 160 } else { 320 };
        let pos = workloads::clustered(n, 3, 0.35, 7);
        let bodies = workloads::bodies_at_rest(&pos);
        Simulation::new(TreePmConfig::standard(16), bodies, SimulationMode::Static)
    };
    let steps = if small { 4 } else { 8 };
    let step_loop = |sim: &mut Simulation| {
        sim.step(1e-3);
        let t0 = Instant::now();
        for _ in 0..steps {
            sim.step(1e-3);
        }
        t0.elapsed().as_secs_f64()
    };
    // Five interleaved pairs, the fastest loop of each kind: a single
    // ratio of two ≈ 30 ms loops reads the host's scheduler (one in
    // four runs beside a parallel test suite was off by > 50 %), the
    // minima read the guard.
    let (mut untraced_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        untraced_s = untraced_s.min(step_loop(&mut make()));
        let (s, _, _) = trace::capture_counted(|| step_loop(&mut make()));
        traced_s = traced_s.min(s);
    }
    let step_loop_overhead_pct = if untraced_s > 0.0 {
        (traced_s / untraced_s - 1.0) * 100.0
    } else {
        0.0
    };
    TracingOverhead {
        spans,
        ns_per_disabled_span,
        ns_per_recorded_span,
        step_loop_overhead_pct,
    }
}

/// The O(N²) benchmark at N = 128, 256 × 2 iterations (`small`) or
/// 256, 512, 1024 × 8, plus the tracing-overhead probe, as text and
/// JSON.
pub fn run(small: bool) -> super::Outcome {
    let (sizes, iters): (&[usize], usize) = if small {
        (&[128, 256], 2)
    } else {
        (&[256, 512, 1024], 8)
    };
    let k = KMachine::new();
    let mut s = String::from("=== Sec. II-A: O(N^2) kernel benchmark =========================\n");
    s.push_str(&format!(
        "paper: 51 flops/interaction; bound {:.1} Gflops/core (75% of peak);\n\
         measured 11.65 Gflops/core = {:.0}% of bound = {:.2e} interactions/s/core\n\n",
        k.kernel_bound_per_core() / 1e9,
        100.0 * k.kernel_flops_per_core / k.kernel_bound_per_core(),
        k.kernel_flops_per_core / 51.0
    ));
    s.push_str(&format!(
        "this host (single thread; dispatch selects '{}'):\n",
        selected_variant().name()
    ));
    s.push_str(
        "     N   variant          int/s   51-flop Gflops   vs scalar   bytes/int   GB/s   \
         FMA+other   mix bound   % of bound\n",
    );
    let mut w = super::summary_writer("kernel", small);
    w.str_(Some("dispatch"), selected_variant().name());
    w.begin_arr(Some("rows"));
    for r in sweep(sizes, iters) {
        w.begin_obj(None);
        w.u64(Some("n"), r.n as u64);
        w.begin_arr(Some("variants"));
        for v in &r.variants {
            s.push_str(&format!(
                "{:>6}   {:<8} {:>12.3e} {:>16.2} {:>10.2}x {:>11.2} {:>6.1}",
                r.n,
                v.variant.name(),
                v.interactions_per_sec,
                v.flops / 1e9,
                v.speedup_vs_scalar,
                v.bytes_per_interaction,
                v.gb_per_sec
            ));
            w.begin_obj(None);
            w.str_(Some("variant"), v.variant.name());
            w.f64(Some("interactions_per_sec"), v.interactions_per_sec);
            w.f64(Some("flops"), v.flops);
            w.f64(Some("speedup_vs_scalar"), v.speedup_vs_scalar);
            w.f64(Some("bytes_per_interaction"), v.bytes_per_interaction);
            w.f64(Some("gb_per_sec"), v.gb_per_sec);
            match (
                OpMix::of(v.variant),
                v.fma_peak_flops,
                v.mix_bound_flops(),
                v.pct_of_mix_bound(),
            ) {
                (Some(mix), Some(peak), Some(bound), Some(pct)) => {
                    s.push_str(&format!(
                        "   {:>6}+{:<2} {:>11.2} {:>11.1}%\n",
                        mix.fma,
                        mix.other,
                        bound / 1e9,
                        pct
                    ));
                    w.u64(Some("fma_ops"), mix.fma as u64);
                    w.u64(Some("other_ops"), mix.other as u64);
                    w.f64(Some("fma_peak_flops"), peak);
                    w.f64(Some("mix_bound_flops"), bound);
                    w.f64(Some("pct_of_mix_bound"), pct);
                }
                _ => s.push_str("           -           -            -\n"),
            }
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    s.push_str(
        "\n(each optimised kernel must clearly outrun the scalar exact-sqrt\n\
         reference, and the explicit-SIMD variant the portable one; the\n\
         51-flop accounting matches the paper's. bytes/interaction uses the\n\
         register-blocking model of greem_kernels::bytes_per_interaction —\n\
         wider blocks re-read the j-stream fewer times, so the achieved\n\
         GB/s column shows how far each variant sits from memory-bound.\n\
         mix bound is the paper's 12-of-16-Gflops argument on this host:\n\
         51 flops per lane in FMA+other vector instructions of at most 2\n\
         flops each, against a one-thread FMA probe at the variant's own\n\
         vector width; the compiler-scheduled variants have no counted mix.)\n",
    );
    let o = tracing_overhead(small);
    s.push_str(&format!(
        "\ntracing overhead ({} guards/mode): {:.1} ns/span disabled, \
         {:.1} ns/span recorded;\ntraced step loop {:+.2}% vs untraced \
         (budget: ≤ 2%, DESIGN.md §18)\n",
        o.spans, o.ns_per_disabled_span, o.ns_per_recorded_span, o.step_loop_overhead_pct
    ));
    w.begin_obj(Some("tracing_overhead"));
    w.u64(Some("spans_per_mode"), o.spans);
    w.f64(Some("ns_per_disabled_span"), o.ns_per_disabled_span);
    w.f64(Some("ns_per_recorded_span"), o.ns_per_recorded_span);
    w.f64(Some("step_loop_overhead_pct"), o.step_loop_overhead_pct);
    w.end_obj();
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greem_kernels::KernelVariant;

    #[test]
    fn sweep_reports_positive_rates_for_every_variant() {
        let r = sweep(&[64], 2);
        assert_eq!(r.len(), 1);
        assert!(!r[0].variants.is_empty());
        for v in &r[0].variants {
            assert!(v.interactions_per_sec > 0.0, "{:?}", v.variant);
            assert!(v.flops > v.interactions_per_sec);
        }
        assert!(r[0].rate_of(KernelVariant::Portable).is_some());
        assert!(r[0].rate_of(KernelVariant::Scalar).is_some());
    }

    #[test]
    fn json_names_the_dispatched_variant() {
        let s = run(true).json();
        assert!(s.contains("\"dispatch\""));
        assert!(s.contains(&format!("\"{}\"", selected_variant().name())));
        assert!(s.contains("\"variants\""));
        assert!(s.contains("\"bytes_per_interaction\""));
        assert!(s.contains("\"gb_per_sec\""));
        // The §II-A bound rides along exactly when an explicit-SIMD
        // variant (the ones with a counted mix) ran.
        let counted = greem_kernels::available_variants()
            .iter()
            .any(|&v| OpMix::of(v).is_some());
        assert_eq!(s.contains("\"pct_of_mix_bound\""), counted);
        assert!(s.contains("\"tracing_overhead\""));
        assert!(s.contains("\"step_loop_overhead_pct\""));
    }

    #[test]
    fn tracing_overhead_reports_sane_numbers() {
        let o = tracing_overhead(true);
        assert!(o.ns_per_disabled_span.is_finite() && o.ns_per_disabled_span >= 0.0);
        assert!(o.ns_per_recorded_span.is_finite() && o.ns_per_recorded_span > 0.0);
        assert!(o.step_loop_overhead_pct.is_finite());
        // Host timing is noisy in CI, so no hard 2 % gate here — just a
        // wide sanity band that catches a broken guard path (an
        // accidental allocation or lock per span would blow this).
        assert!(
            o.step_loop_overhead_pct < 50.0,
            "traced step loop {:.1}% over untraced",
            o.step_loop_overhead_pct
        );
    }
}
