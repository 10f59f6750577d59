//! Criterion bench for the fig. 5 conversion schedules: the direct
//! global Alltoallv vs the relay mesh method, wall-clock (real packing,
//! routing and reduction work — the simulated-network *times* are the
//! harness's job; this measures the honest CPU cost of both schedules).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use greem_pm::convert::local_density_to_slabs;
use greem_pm::relay::{relay_density_to_slabs, RelayComms, RelayConfig};
use greem_pm::{CellBox, LocalMesh};
use mpisim::{NetModel, World};
use std::hint::black_box;

/// Rank `me`'s x-stripe, filled with a recognisable pattern.
fn stripe(me: usize, p: usize, n: usize) -> LocalMesh {
    let bx = CellBox::x_stripe(me, p, n);
    let data = (0..bx.len()).map(|i| (i % 31) as f64).collect();
    LocalMesh { bx, data }
}

fn bench_conversions(c: &mut Criterion) {
    let mut group = c.benchmark_group("mesh_conversion");
    group.sample_size(10);
    let p = 8;
    let nf = 2;
    let n = 32;
    group.bench_function(BenchmarkId::new("direct", p), |b| {
        b.iter(|| {
            let out = World::new(p).with_net(NetModel::free()).run(|ctx, world| {
                let local = stripe(world.rank(), p, n);
                local_density_to_slabs(ctx, world, &local, n, nf).map(|s| s.len())
            });
            black_box(out)
        });
    });
    for &g in &[2usize, 4] {
        group.bench_function(BenchmarkId::new("relay", g), |b| {
            b.iter(|| {
                let out = World::new(p)
                    .with_net(NetModel::free())
                    .run(move |ctx, world| {
                        let comms = RelayComms::build(ctx, world, RelayConfig { nf, n_groups: g });
                        let local = stripe(world.rank(), p, n);
                        relay_density_to_slabs(ctx, &comms, &local, n).map(|s| s.len())
                    });
                black_box(out)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conversions);
criterion_main!(benches);
