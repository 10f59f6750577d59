//! Criterion bench for the tree pipeline: construction, group
//! traversal, and the ⟨Ni⟩ trade-off (§II) — the "local tree", "tree
//! construction" and "tree traversal" rows of Table I.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use greem::{TreePm, TreePmConfig};
use greem_bench::workloads;
use greem_math::{wrap01, Aabb, Vec3};
use greem_tree::{GroupWalk, ListEntry, SnapshotTree, SourceColumns, TraverseParams, TreeParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_build");
    group.sample_size(20);
    for &n in &[2_000usize, 10_000] {
        let pos = workloads::clustered(n, 4, 0.4, 7);
        let mass = workloads::unit_masses(n);
        // `sort` + gather + `build`, on fresh buffers.
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let tree = SnapshotTree::build(&pos, &mass, Aabb::UNIT, TreeParams::default());
                black_box(tree.nodes().len())
            });
        });
    }
    group.finish();
}

fn bench_traversal_group_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("group_walk_ni_tradeoff");
    group.sample_size(10);
    let n = 8_000;
    let pos = workloads::clustered(n, 4, 0.4, 11);
    let mass = workloads::unit_masses(n);
    let tree = SnapshotTree::build(&pos, &mass, Aabb::UNIT, TreeParams::default());
    let view = tree.view();
    for &gs in &[16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("walk_only", gs), &gs, |b, &gs| {
            let walk = GroupWalk::new(
                &view,
                TraverseParams {
                    theta: 0.5,
                    group_size: gs,
                    r_cut: Some(3.0 / 32.0),
                    periodic: true,
                    multipole: Default::default(),
                },
            );
            b.iter(|| black_box(walk.for_each_group(|_, _| {}).interactions));
        });
    }
    group.finish();
}

fn bench_full_pp(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_pp_force");
    group.sample_size(10);
    let n = 8_000;
    let pos = workloads::clustered(n, 4, 0.4, 13);
    let mass = workloads::unit_masses(n);
    for &gs in &[32usize, 128] {
        group.bench_with_input(BenchmarkId::new("walk_plus_kernel", gs), &gs, |b, &gs| {
            let solver = TreePm::new(TreePmConfig {
                group_size: gs,
                ..TreePmConfig::standard(32)
            });
            b.iter(|| black_box(solver.compute_pp(&pos, &mass).1.interactions));
        });
    }
    group.finish();
}

/// The list builder on the repo benchmark's shape — 32768 bodies, 60 %
/// in eight Gaussian clumps (`benchmark/src/inputs.rs`'s centres and
/// widths), `TreePmConfig::standard(16)`, periodic, the arena the drivers
/// walk — through the three things a driver asks of it: a fresh list, a
/// fresh list with its structure recorded under the 0.1·r_cut margin,
/// and the replay of that record. Each onto the kernel's columns, as the
/// drivers do. Prints the walk's own figures, ns per visited node and ns
/// per list entry, next to `harness kernel`'s ns per interaction.
fn bench_benchmark_shape(_c: &mut Criterion) {
    const CLUMPS: [([f64; 3], f64); 8] = [
        ([0.21, 0.33, 0.27], 0.030),
        ([0.72, 0.18, 0.64], 0.022),
        ([0.55, 0.61, 0.12], 0.036),
        ([0.13, 0.82, 0.71], 0.026),
        ([0.86, 0.77, 0.35], 0.032),
        ([0.40, 0.09, 0.88], 0.020),
        ([0.64, 0.44, 0.52], 0.040),
        ([0.30, 0.58, 0.45], 0.024),
    ];
    // Same command line as the criterion cases: `--bench` times, a free
    // argument filters by name.
    let timing = std::env::args().any(|a| a == "--bench");
    if let Some(filter) = std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        if !"benchmark_shape".contains(&filter) {
            return;
        }
    }
    let (n, reps) = if timing { (32_768, 21) } else { (2_048, 1) };
    let mut rng = StdRng::seed_from_u64(1);
    let mut normal = move || {
        let (u, v): (f64, f64) = (1.0 - rng.random::<f64>(), rng.random());
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    };
    let mut uniform = StdRng::seed_from_u64(2);
    let pos: Vec<Vec3> = (0..n)
        .map(|i| {
            if i < n * 6 / 10 {
                let (c, sigma) = CLUMPS[i % CLUMPS.len()];
                wrap01(Vec3::new(
                    c[0] + sigma * normal(),
                    c[1] + sigma * normal(),
                    c[2] + sigma * normal(),
                ))
            } else {
                Vec3::new(uniform.random(), uniform.random(), uniform.random())
            }
        })
        .collect();
    let cfg = TreePmConfig::standard(16);
    let m = workloads::unit_masses(n);
    let tree = SnapshotTree::build(&pos, &m, Aabb::UNIT, cfg.tree_params());
    let view = tree.view();
    let walk = GroupWalk::new(&view, cfg.traverse_params());
    let groups = walk.groups();
    let margin = 0.1 * cfg.r_cut;

    let (mut sx, mut sy, mut sz, mut sm) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut stack = Vec::new();
    let mut recorded: Vec<Vec<ListEntry>> = vec![Vec::new(); groups.len()];
    // Fastest and median wall seconds of `reps` passes over every group
    // (on a host whose speed drifts, compare minima), and the (visited
    // nodes, list entries) of one pass.
    let mut pass = |mode: &str, recorded: &mut [Vec<ListEntry>]| {
        let mut counts = (0u64, 0u64);
        let mut walls: Vec<f64> = (0..reps)
            .map(|_| {
                counts = (0, 0);
                let t = Instant::now();
                for (gi, &g) in groups.iter().enumerate() {
                    for c in [&mut sx, &mut sy, &mut sz, &mut sm] {
                        c.clear();
                    }
                    let out = SourceColumns {
                        x: &mut sx,
                        y: &mut sy,
                        z: &mut sz,
                        m: &mut sm,
                    };
                    let s = match mode {
                        "fresh" => walk.list_columns(g, &mut stack, 0.0, None, out),
                        "recording" => {
                            walk.list_columns(g, &mut stack, margin, Some(&mut recorded[gi]), out)
                        }
                        _ => walk.replay_columns(g, &recorded[gi], out),
                    };
                    counts.0 += s.visited_nodes;
                    counts.1 += s.sum_nj;
                    black_box(sx.len());
                }
                t.elapsed().as_secs_f64()
            })
            .collect();
        walls.sort_by(|a, b| a.total_cmp(b));
        (walls[0], walls[walls.len() / 2], counts)
    };
    for mode in ["fresh", "recording", "replay"] {
        let (wall, median, (visited, entries)) = pass(mode, &mut recorded);
        if !timing {
            println!("benchmark_shape/{mode}: ok (smoke)");
        } else {
            println!(
                "benchmark_shape/{mode}  {:.2} ms a pass (median {:.2}) over {} groups; \
                 {:.1} ns per list entry ({entries}){}",
                wall * 1e3,
                median * 1e3,
                groups.len(),
                wall * 1e9 / entries as f64,
                if visited > 0 {
                    format!(
                        ", {:.1} ns per visited node ({visited})",
                        wall * 1e9 / visited as f64
                    )
                } else {
                    String::new()
                },
            );
        }
    }
}

criterion_group!(
    benches,
    bench_build,
    bench_traversal_group_size,
    bench_full_pp,
    bench_benchmark_shape
);
criterion_main!(benches);
