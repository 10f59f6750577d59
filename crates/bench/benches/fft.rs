//! Criterion bench for the FFT substrate: the "FFT" row of Table I at
//! laptop scale — serial 3-D transforms and the slab-parallel transform
//! over mpisim — and two printed tables: ns per butterfly at every
//! vector width this CPU runs, and `RealFft3::convolve`'s time split by
//! pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use greem_fft::{fft3d, fft3d_inverse, Cpx, Fft1d, Mesh3, RealFft3, SlabFft};
use mpisim::{NetModel, World};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_serial(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft3d_serial");
    group.sample_size(10);
    for &n in &[32usize, 64] {
        let plan = Fft1d::new(n);
        let vals: Vec<f64> = (0..n * n * n).map(|i| (i as f64 * 0.37).sin()).collect();
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("roundtrip", n), &n, |b, _| {
            b.iter(|| {
                let mut m = Mesh3::from_real(n, &vals);
                fft3d(&mut m, &plan);
                fft3d_inverse(&mut m, &plan);
                black_box(m.get(0, 0, 0))
            });
        });
    }
    group.finish();
}

/// The PM transform pair at the benchmark's mesh sizes: the real ↔
/// half-complex round trip on the padded buffer against the complex
/// round trip it replaced in the periodic solver.
fn bench_real(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft3d_real_vs_complex");
    group.sample_size(10);
    for &n in &[64usize, 128] {
        let vals: Vec<f64> = (0..n * n * n).map(|i| (i as f64 * 0.37).sin()).collect();
        group.throughput(Throughput::Elements((n * n * n) as u64));
        let real = RealFft3::new(n);
        let mut buf = vec![0.0; real.buf_len()];
        group.bench_with_input(BenchmarkId::new("r2c_c2r_roundtrip", n), &n, |b, _| {
            b.iter(|| {
                for (row, src) in buf.chunks_exact_mut(n + 2).zip(vals.chunks_exact(n)) {
                    row[..n].copy_from_slice(src);
                }
                real.forward(&mut buf);
                real.inverse(&mut buf);
                black_box(buf[0])
            });
        });
        let plan = Fft1d::new(n);
        let mut mesh = Mesh3::from_real(n, &vals);
        group.bench_with_input(BenchmarkId::new("complex_roundtrip", n), &n, |b, _| {
            b.iter(|| {
                fft3d(&mut mesh, &plan);
                fft3d_inverse(&mut mesh, &plan);
                black_box(mesh.get(0, 0, 0))
            });
        });
    }
    group.finish();
}

/// One strided axis of the complex mesh two ways: lines gathered one at
/// a time through `Fft1d::forward` (the textbook loop), and the batched
/// panels `fft3d` runs. Same bits, different memory traffic.
fn bench_batched_vs_gathered(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft3d_x_axis");
    group.sample_size(10);
    for &n in &[64usize, 128] {
        let plan = Fft1d::new(n);
        let vals: Vec<f64> = (0..n * n * n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut mesh = Mesh3::from_real(n, &vals);
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("gathered_lines", n), &n, |b, _| {
            let mut line = vec![Cpx::ZERO; n];
            b.iter(|| {
                let data = mesh.data_mut();
                for yz in 0..n * n {
                    for (x, l) in line.iter_mut().enumerate() {
                        *l = data[x * n * n + yz];
                    }
                    plan.forward(&mut line);
                    for (x, l) in line.iter().enumerate() {
                        data[x * n * n + yz] = *l;
                    }
                }
                black_box(data[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("batched_all_three_axes", n), &n, |b, _| {
            b.iter(|| {
                fft3d(&mut mesh, &plan);
                black_box(mesh.get(0, 0, 0))
            });
        });
    }
    group.finish();
}

fn bench_slab(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft3d_slab_parallel");
    group.sample_size(10);
    let n = 32;
    for &p in &[1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("forward", p), &p, |b, &p| {
            b.iter(|| {
                let out = World::new(p).with_net(NetModel::free()).run(|ctx, world| {
                    let fft = SlabFft::new(n, world.clone());
                    let (_, nxl) = fft.my_planes();
                    let slab: Vec<Cpx> = (0..nxl * n * n)
                        .map(|i| Cpx::real((i % 17) as f64))
                        .collect();
                    let k = fft.forward(ctx, slab);
                    k[0]
                });
                black_box(out)
            });
        });
    }
    group.finish();
}

/// Same command line as the criterion cases: `--bench` times, a free
/// argument filters by name.
fn selected(name: &str) -> Option<bool> {
    let timing = std::env::args().any(|a| a == "--bench");
    match std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        Some(filter) if !name.contains(&filter) => None,
        _ => Some(timing),
    }
}

/// Fastest of `reps` timings of `f`.
fn best(reps: usize, mut f: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .unwrap_or_default()
}

/// ns per radix-2 butterfly at n = 128: one line through
/// `Fft1d::forward` (the textbook loop), and split panels of 16 columns
/// (as every transform runs them) and of 13 (how 65 columns split into
/// equal panels) at each width the CPU has. Each call starts from a
/// fresh copy of its input; the copy alone is timed the same way and
/// subtracted.
fn bench_butterflies(_c: &mut Criterion) {
    let Some(timing) = selected("butterflies") else {
        return;
    };
    let (n, calls) = (128usize, if timing { 2000 } else { 1 });
    let per_call = (n / 2 * n.trailing_zeros() as usize) as f64;
    let ns = |t: Duration, copy: Duration, lines: usize| {
        t.saturating_sub(copy).as_secs_f64() * 1e9 / (calls * lines) as f64 / per_call
    };
    let plan = Fft1d::new(n);
    let line: Vec<Cpx> = (0..n)
        .map(|i| Cpx::new((i as f64).sin(), (i as f64).cos()))
        .collect();
    let mut x = line.clone();
    let copy = best(5, || {
        (0..calls).for_each(|_| x.copy_from_slice(black_box(&line)))
    });
    let t = best(5, || {
        (0..calls).for_each(|_| {
            x.copy_from_slice(black_box(&line));
            plan.forward(&mut x);
        })
    });
    println!(
        "butterflies n={n}  single line         {:6.3} ns",
        ns(t, copy, 1)
    );
    for w in [16, 13] {
        let panel: Vec<f64> = (0..2 * n * w).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut p = panel.clone();
        let copy = best(5, || {
            (0..calls).for_each(|_| p.copy_from_slice(black_box(&panel)))
        });
        for (name, plan) in plan.at_each_width() {
            let t = best(5, || {
                (0..calls).for_each(|_| {
                    p.copy_from_slice(black_box(&panel));
                    let (re, im) = p.split_at_mut(n * w);
                    plan.butterflies_columns(re, im, w);
                })
            });
            println!(
                "butterflies n={n}  panel w={w} {name:>6}  {:6.3} ns",
                ns(t, copy, w)
            );
        }
    }
}

/// `RealFft3::convolve` at n = 128 (the serial PM mesh), its time split
/// into the z-row, y-panel and x-panel passes (both directions each),
/// best of 12; the fused `convolve` beside it.
fn bench_convolve_phases(_c: &mut Criterion) {
    let Some(timing) = selected("convolve_phases") else {
        return;
    };
    let (n, reps) = if timing { (128usize, 12) } else { (16, 1) };
    let plan = RealFft3::new(n);
    let h = n / 2 + 1;
    let table: Vec<f64> = (0..h * h * h).map(|i| 1.0 / (1.0 + i as f64)).collect();
    let kernel = |x: usize, y: usize| &table[(x.min(n - x) * h + y.min(n - y)) * h..][..h];
    let mut buf: Vec<f64> = (0..plan.buf_len())
        .map(|i| (i as f64 * 0.37).sin())
        .collect();
    let mut phases = [Duration::MAX; 3];
    for _ in 0..reps {
        let t = plan.convolve_phases(&mut buf, kernel);
        phases.iter_mut().zip(t).for_each(|(p, t)| *p = (*p).min(t));
    }
    let fused = best(reps, || plan.convolve(&mut buf, kernel));
    let ms = |t: Duration| t.as_secs_f64() * 1e3;
    println!(
        "convolve_phases n={n}  z rows {:.2} ms  y panels {:.2} ms  x panels {:.2} ms  \
         (sum {:.2}; fused convolve {:.2} ms)",
        ms(phases[0]),
        ms(phases[1]),
        ms(phases[2]),
        ms(phases.iter().sum()),
        ms(fused)
    );
}

criterion_group!(
    benches,
    bench_serial,
    bench_real,
    bench_batched_vs_gathered,
    bench_slab,
    bench_butterflies,
    bench_convolve_phases
);
criterion_main!(benches);
