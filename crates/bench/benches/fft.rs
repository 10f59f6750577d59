//! Criterion bench for the FFT substrate: the "FFT" row of Table I at
//! laptop scale — serial 3-D transforms and the slab-parallel transform
//! over mpisim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use greem_fft::{fft3d, fft3d_inverse, Cpx, Fft1d, Mesh3, RealFft3, SlabFft};
use mpisim::{NetModel, World};
use std::hint::black_box;

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

criterion_group!(
    benches,
    bench_serial,
    bench_real,
    bench_batched_vs_gathered,
    bench_slab
);
criterion_main!(benches);
