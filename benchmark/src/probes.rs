//! Layer probes of the traced run: each times one crate's public
//! functions on the workload's own inputs, under spans recorded here.
//! Nothing in this file reaches inside a crate.

use std::hint::black_box;
use std::path::Path;

use greem::{Body, RankState, SimulationMode, SnapshotHeader, TreePmConfig};
use greem_domain::{multisection, BalancerParams, DomainGrid, SamplingBalancer};
use greem_fft::{fft3d, fft3d_inverse, Fft1d, Mesh3};
use greem_kernels::{
    bytes_per_interaction, pp_accel_variant, selected_variant, KernelVariant, SourceList, Targets,
};
use greem_math::{Aabb, Vec3, FLOPS_PER_INTERACTION};
use greem_pm::{IsolatedPmSolver, ParallelPm, ParallelPmConfig, PmParams, PmSolver};
use greem_tree::{GroupWalk, ListEntry, TreeArena};
use mpisim::World;

use crate::host::Roofline;
use crate::measure::{median, Recorder};
use crate::solver::DIV;
use crate::workloads::Check;

pub struct ProbeCtx<'a> {
    pub bodies: &'a [Body],
    pub cfg: TreePmConfig,
    pub smoke: bool,
    /// Directory for the files the I/O probes write.
    pub scratch: &'a Path,
}

type Layers = Vec<(&'static str, f64)>;

/// Median wall seconds of `reps` calls of `f`, each under span `name`.
fn timed<T>(rec: &mut Recorder, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, wall) = rec.span(name, |_| f());
            black_box(out);
            wall
        })
        .collect();
    median(&walls)
}

/// Interactions a kernel variant is timed over; the recorded lists are
/// subsampled (every k-th group) down to about this many.
const KERNEL_PROBE_INTERACTIONS: u64 = 12_000_000;

/// Tree and kernel layers: sort, build, walk and replay through the
/// arena API the drivers use, then every kernel variant over the
/// interaction lists that walk recorded.
pub fn tree_and_kernels(rec: &mut Recorder, ctx: &ProbeCtx, roof: &Roofline, layers: &mut Layers) {
    let n = ctx.bodies.len();
    let col = |f: fn(&Body) -> f64| ctx.bodies.iter().map(f).collect::<Vec<f64>>();
    let (x, y, z, m) = (
        col(|b| b.pos.x),
        col(|b| b.pos.y),
        col(|b| b.pos.z),
        col(|b| b.mass),
    );
    let mut arena = TreeArena::new();
    let sort_s = timed(rec, "tree.TreeArena::sort", 3, || {
        arena.sort(&x, &y, &z, Aabb::UNIT).len()
    });
    let by_order = |v: &[f64]| {
        arena
            .order()
            .iter()
            .map(|&o| v[o as usize])
            .collect::<Vec<f64>>()
    };
    let (x, y, z, m) = (by_order(&x), by_order(&y), by_order(&z), by_order(&m));
    let build_s = timed(rec, "tree.TreeArena::build", 3, || {
        arena.build(&x, &y, &z, &m, ctx.cfg.tree_params())
    });
    let refresh_s = timed(rec, "tree.TreeArena::refresh_monopoles", 3, || {
        arena.refresh_monopoles(&x, &y, &z, &m)
    });

    let view = arena.view(&x, &y, &z, &m);
    let walk = GroupWalk::new(&view, ctx.cfg.traverse_params());
    let mut stats = Default::default();
    let walk_s = timed(rec, "tree.GroupWalk::for_each_group", 3, || {
        stats = walk.for_each_group(|_, list| {
            black_box(list.len());
        });
    });

    // Record every group's list structure once, then time the replay.
    let groups = walk.groups();
    let margin = 0.1 * ctx.cfg.r_cut;
    let (mut stack, mut list) = (Vec::new(), Vec::new());
    let recorded: Vec<Vec<ListEntry>> = groups
        .iter()
        .map(|&g| {
            let mut entries = Vec::new();
            list.clear();
            walk.list_for_group_recording(g, &mut stack, &mut list, margin, &mut entries);
            entries
        })
        .collect();
    let mut src = SourceList::default();
    let replay_s = timed(rec, "tree.GroupWalk::replay_list_columns", 3, || {
        let mut pushed = 0usize;
        for (&g, entries) in groups.iter().zip(&recorded) {
            src.clear();
            walk.replay_list_columns(
                (&x, &y, &z, &m),
                g,
                entries,
                &mut src.x,
                &mut src.y,
                &mut src.z,
                &mut src.m,
            );
            pushed += src.len();
        }
        pushed
    });

    layers.extend([
        ("tree.sort_build_s", sort_s + build_s),
        ("tree.refresh_monopoles_s", refresh_s),
        ("tree.walk_s", walk_s),
        (
            "tree.walk_ns_per_interaction",
            walk_s * 1e9 / stats.interactions.max(1) as f64,
        ),
        (
            "tree.visited_nodes_per_particle",
            stats.visited_nodes as f64 / n as f64,
        ),
        ("tree.mean_ni", stats.mean_ni()),
        ("tree.mean_nj", stats.mean_nj()),
        ("tree.replay_s", replay_s),
    ]);

    // The kernel over the lists of that walk, every k-th group.
    let stride = (stats.interactions / KERNEL_PROBE_INTERACTIONS).max(1) as usize;
    let mut pairs: Vec<(Targets, SourceList)> = Vec::new();
    let mut gi = 0usize;
    walk.for_each_group(|g, list| {
        if gi.is_multiple_of(stride) {
            let (lo, hi) = (g.first as usize, (g.first + g.count) as usize);
            let mut t = Targets::default();
            t.load_from_slices(&x[lo..hi], &y[lo..hi], &z[lo..hi]);
            pairs.push((t, list.iter().map(|s| (s.pos, s.mass)).collect()));
        }
        gi += 1;
    });
    let split = ctx.cfg.split();
    let mut ns_per_interaction = |rec: &mut Recorder, name: &'static str, v: KernelVariant| {
        let mut count = 0u64;
        let wall = timed(rec, name, 3, || {
            count = 0;
            for (t, s) in pairs.iter_mut() {
                t.reset_accel();
                count += pp_accel_variant(v, t, s, &split);
            }
            count
        });
        wall * 1e9 / count.max(1) as f64
    };
    let selected = selected_variant();
    let ns = ns_per_interaction(rec, "kernels.pp_accel_variant(selected)", selected);
    let ns_portable = ns_per_interaction(
        rec,
        "kernels.pp_accel_variant(portable)",
        KernelVariant::Portable,
    );
    let ns_scalar = ns_per_interaction(
        rec,
        "kernels.pp_accel_variant(scalar)",
        KernelVariant::Scalar,
    );
    let gflops = FLOPS_PER_INTERACTION / ns;
    let bytes = bytes_per_interaction(
        selected,
        stats.mean_ni().round().max(1.0) as usize,
        stats.mean_nj().round().max(1.0) as usize,
    );
    layers.extend([
        ("kernels.ns_per_interaction", ns),
        ("kernels.gflops51", gflops),
        (
            "kernels.pct_of_host_fma_peak",
            100.0 * gflops / roof.fma_gflops_1t,
        ),
        (
            "kernels.flops_per_byte_computed",
            FLOPS_PER_INTERACTION / bytes,
        ),
        ("kernels.portable_ns_per_interaction", ns_portable),
        ("kernels.scalar_ns_per_interaction", ns_scalar),
    ]);
}

/// Largest mesh the isolated and relay probes run at: the isolated
/// solver convolves on a padded (2n)³ mesh, which at n = 128 needs more
/// than half a gigabyte.
const SIDE_PROBE_MESH_CAP: usize = 32;

/// PM and FFT layers: the four phases of the periodic solver and the 3-D
/// transforms on the workload's mesh; the open-boundary solver and the
/// relay schedule on a capped mesh.
pub fn pm_and_fft(rec: &mut Recorder, ctx: &ProbeCtx, layers: &mut Layers) {
    let n = ctx.cfg.n_mesh;
    let reps = if n >= 64 { 3 } else { 15 };
    let pos: Vec<Vec3> = ctx.bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f64> = ctx.bodies.iter().map(|b| b.mass).collect();
    let pm = PmSolver::new(ctx.cfg.pm_params());

    let mut rho = Vec::new();
    let assign_s = timed(rec, "pm.PmSolver::assign_density", reps, || {
        rho = pm.assign_density(&pos, &mass);
    });
    let mut phi = Vec::new();
    let potential_s = timed(rec, "pm.PmSolver::potential_mesh", reps, || {
        phi = pm.potential_mesh(&rho);
    });
    let mut acc = [Vec::new(), Vec::new(), Vec::new()];
    let accel_mesh_s = timed(rec, "pm.PmSolver::accel_meshes", reps, || {
        acc = pm.accel_meshes(&phi);
    });
    let interpolate_s = timed(rec, "pm.PmSolver::interpolate_forces", reps, || {
        pm.interpolate_forces(&acc, &phi, &pos)
    });
    let solve_s = assign_s + potential_s + accel_mesh_s + interpolate_s;

    let plan = Fft1d::new(n);
    let mut mesh = Mesh3::from_real(n, &rho);
    let fwd_s = timed(rec, "fft.fft3d", reps, || fft3d(&mut mesh, &plan));
    let inv_s = timed(rec, "fft.fft3d_inverse", reps, || {
        fft3d_inverse(&mut mesh, &plan)
    });
    let cells = (n * n * n) as f64;
    // 5·N·log2(N) flops per complex transform of N points.
    let fft_flops = 5.0 * cells * cells.log2();

    let side = PmParams {
        n_mesh: n.min(SIDE_PROBE_MESH_CAP),
        ..ctx.cfg.pm_params()
    };
    let iso = IsolatedPmSolver::new(side);
    let isolated_s = timed(rec, "pm.IsolatedPmSolver::solve", 3, || {
        iso.solve(&pos, &mass).accel.len()
    });
    let (direct_v, relay_v) = relay_vtimes(ctx, side.n_mesh);

    layers.extend([
        ("pm.assign_s", assign_s),
        ("pm.potential_s", potential_s),
        ("pm.accel_mesh_s", accel_mesh_s),
        ("pm.interpolate_s", interpolate_s),
        ("pm.solve_s", solve_s),
        ("pm.ns_per_cell", solve_s * 1e9 / cells),
        ("pm.isolated_solve_s", isolated_s),
        ("pm.relay_vtime_s", relay_v),
        ("pm.relay_speedup", direct_v / relay_v),
        ("fft.fwd3d_s", fwd_s),
        ("fft.inv3d_s", inv_s),
        ("fft.gflops", 2.0 * fft_flops / (fwd_s + inv_s) / 1e9),
        ("fft.mesh_mb_computed", cells * 16.0 / 1e6),
    ]);
}

/// Virtual seconds of the two mesh conversions of one parallel PM cycle
/// on eight ranks, with the direct and with the relay schedule: the
/// slowest rank's `communication_sim`. Virtual time only, so running
/// eight rank threads on two cores does not distort it.
fn relay_vtimes(ctx: &ProbeCtx, n_mesh: usize) -> (f64, f64) {
    const P: usize = 8;
    let grid = DomainGrid::uniform([2, 2, 2]);
    let run = |relay_groups: Option<usize>| {
        let cfg = ParallelPmConfig {
            nf: 2,
            relay_groups,
            ..ParallelPmConfig::standard(n_mesh, P)
        };
        World::new(P)
            .run(|c, world| {
                let dom = grid.domain(world.rank());
                let (pos, mass): (Vec<Vec3>, Vec<f64>) = ctx
                    .bodies
                    .iter()
                    .filter(|b| grid.rank_of_point(b.pos) == world.rank())
                    .map(|b| (b.pos, b.mass))
                    .unzip();
                let pm = ParallelPm::new(c, world, cfg);
                let (_, times) =
                    pm.solve(c, world, dom.lo.to_array(), dom.hi.to_array(), &pos, &mass);
                times.communication_sim
            })
            .into_iter()
            .fold(0.0, f64::max)
    };
    (run(None), run(Some(2)))
}

/// Message size of the alltoallv probe: about one rank's ghost export
/// of the 32768-body workloads (11k bodies × 32 B).
const ALLTOALLV_ELEMS: usize = 45_000;

/// Domain and mpisim layers: the root's multisection, collective
/// round trips on a two-rank world, and the full-machine phantom run.
pub fn domain_and_mpisim(
    rec: &mut Recorder,
    ctx: &ProbeCtx,
    layers: &mut Layers,
    checks: &mut Vec<Check>,
) {
    // The balancer gathers (64·p).max(512) samples at the root.
    let samples: Vec<Vec3> = ctx.bodies.iter().take(512).map(|b| b.pos).collect();
    let multisection_s = timed(rec, "domain.multisection", 25, || {
        multisection(&mut samples.clone(), DIV).len()
    });

    let elems = if ctx.smoke { 1_000 } else { ALLTOALLV_ELEMS };
    let ((alltoallv_us, allreduce_us), _) = rec.span("mpisim.collectives", |_| {
        World::new(2).run(|c, world| {
            let time_us = |reps: usize, f: &mut dyn FnMut()| {
                let t = std::time::Instant::now();
                for _ in 0..reps {
                    f();
                }
                t.elapsed().as_secs_f64() * 1e6 / reps as f64
            };
            let a2a = time_us(40, &mut || {
                black_box(world.alltoallv(c, vec![vec![1.0f64; elems]; 2]));
            });
            let allreduce = time_us(400, &mut || {
                black_box(world.allreduce(c, vec![1.0f64], |a, b| *a += *b));
            });
            (a2a, allreduce)
        })[0]
    });

    // Empty two-rank worlds: what a daemon job pays before its first step.
    let spawn_s = timed(rec, "mpisim.World::run(empty)", 25, || {
        World::new(2).run(|_, _| ())
    });

    let p = if ctx.smoke { 1024 } else { 82944 };
    let (point, _) = rec.span("mpisim.phantom_world", |_| {
        greem_bench::experiments::weakscale::run_point(p, 2, ctx.smoke)
    });
    if !ctx.smoke {
        checks.push(Check {
            name: "phantom 82944-rank efficiency in the paper's band",
            ok: (0.40..=0.47).contains(&point.pct_of_peak),
            detail: format!("{:.4} of peak, band [0.40, 0.47]", point.pct_of_peak),
        });
    }
    layers.extend([
        ("domain.multisection_s", multisection_s),
        ("mpisim.alltoallv_us", alltoallv_us),
        ("mpisim.allreduce_us", allreduce_us),
        ("mpisim.world_spawn_us", spawn_s * 1e6),
        ("mpisim.phantom_82944_wall_s", point.wall_s),
        (
            "mpisim.phantom_ns_per_message",
            point.wall_s * 1e9 / point.messages.max(1) as f64,
        ),
        ("mpisim.phantom_pct_of_peak", point.pct_of_peak),
    ]);
}

/// Resilience and I/O layers: a sharded checkpoint of the two-rank
/// state, and a whole-run snapshot, written to and read back from disk.
pub fn resil_and_io(
    rec: &mut Recorder,
    ctx: &ProbeCtx,
    layers: &mut Layers,
    checks: &mut Vec<Check>,
) {
    let dir = ctx.scratch.join(format!("probe-io-{}", std::process::id()));
    let ckpt_dir = dir.join("ckpt");
    let made = std::fs::create_dir_all(&ckpt_dir);
    let grid = DomainGrid::uniform(DIV);
    let balancer = SamplingBalancer::new(BalancerParams::new(DIV, 512)).state();
    let ((write_s, read_s, bytes, restored), _) = rec.span("resil.sharded_checkpoint", |_| {
        let per_rank = World::new(2).run(|c, world| {
            let st = RankState {
                step: 1,
                mode: SimulationMode::Static,
                balancer: balancer.clone(),
                bodies: ctx
                    .bodies
                    .iter()
                    .filter(|b| grid.rank_of_point(b.pos) == world.rank())
                    .copied()
                    .collect(),
            };
            let t = std::time::Instant::now();
            let written = greem_resil::write_sharded(c, world, &ckpt_dir, 1, &st);
            let write_s = t.elapsed().as_secs_f64();
            let t = std::time::Instant::now();
            let loaded = greem_resil::load_sharded(c, world, &ckpt_dir);
            let read_s = t.elapsed().as_secs_f64();
            let same = matches!(&loaded, Ok((1, back, _)) if *back == st);
            (write_s, read_s, written.unwrap_or(0), same)
        });
        (
            per_rank.iter().map(|r| r.0).fold(0.0, f64::max),
            per_rank.iter().map(|r| r.1).fold(0.0, f64::max),
            per_rank.iter().map(|r| r.2).sum::<u64>(),
            per_rank.iter().all(|r| r.3),
        )
    });

    let snap = dir.join("snapshot.greemsn1");
    let header = SnapshotHeader {
        step: 1,
        mode: SimulationMode::Static,
    };
    let (wrote, snap_write_s) = rec.span("core.write_snapshot", |_| {
        std::fs::File::create(&snap).and_then(|f| greem::write_snapshot(f, &header, ctx.bodies))
    });
    let snap_bytes = std::fs::metadata(&snap).map_or(0, |m| m.len()) as f64;
    let (read_back, snap_read_s) = rec.span("core.read_snapshot", |_| {
        std::fs::File::open(&snap)
            .ok()
            .and_then(|f| greem::read_snapshot(f).ok())
    });
    let round_trip = read_back.is_some_and(|(h, b)| h == header && b == ctx.bodies);
    std::fs::remove_dir_all(&dir).ok();

    checks.push(Check {
        name: "checkpoint and snapshot round-trip bit for bit",
        ok: made.is_ok() && restored && wrote.is_ok() && round_trip,
        detail: format!("{bytes} checkpoint bytes, {snap_bytes} snapshot bytes"),
    });
    layers.extend([
        ("resil.ckpt_write_s", write_s),
        ("resil.ckpt_read_s", read_s),
        ("resil.ckpt_bytes", bytes as f64),
        ("core.snapshot_write_mb_s", snap_bytes / 1e6 / snap_write_s),
        ("core.snapshot_read_mb_s", snap_bytes / 1e6 / snap_read_s),
    ]);
}

/// Observability layer: what one recorded `greem_obs` span and one
/// sketch insert cost.
pub fn obs(rec: &mut Recorder, layers: &mut Layers) {
    const SPANS: usize = 20_000;
    let ((), span_s) = rec.span("obs.trace::span x20000", |_| {
        let ((), events) = greem_obs::trace::capture(|| {
            for _ in 0..SPANS {
                let _s = greem_obs::trace::span("bench", "probe");
            }
        });
        black_box(events.len());
    });
    const INSERTS: usize = 1_000_000;
    let (_, sketch_s) = rec.span("obs.DdSketch::observe x1e6", |_| {
        let mut sk = greem_obs::DdSketch::new(0.01);
        for i in 0..INSERTS {
            sk.observe(1e-6 * (1 + i % 1000) as f64);
        }
        black_box(sk.count())
    });
    layers.extend([
        ("obs.span_recorded_ns", span_s * 1e9 / SPANS as f64),
        ("obs.sketch_insert_ns", sketch_s * 1e9 / INSERTS as f64),
    ]);
}
