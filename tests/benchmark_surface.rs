//! The public API the repo benchmark (`benchmark/`, a package of its own
//! that the workspace build does not compile) builds against, used here
//! in the form the benchmark uses it, on tiny inputs: removing or
//! re-typing any of it fails this test before it breaks the benchmark.
//!
//! `every_benchmark_path_is_mirrored` keeps the mirror whole: it collects
//! every `greem*::` and `mpisim::` path in `benchmark/src/*.rs` and in this
//! file, and fails on a benchmark path this file does not name.

use std::collections::BTreeSet;
use std::path::Path;

use greem::{
    Body, ParallelTreePm, RankState, Simulation, SimulationMode, SnapshotHeader, StepBreakdown,
    TreePmConfig,
};
use greem_baselines::EwaldTable;
use greem_domain::{multisection, BalancerParams, DomainGrid, SamplingBalancer};
use greem_fft::{fft3d, fft3d_inverse, Fft1d, Mesh3};
use greem_kernels::{
    bytes_per_interaction, pp_accel_variant, selected_variant, KernelVariant, SourceList, Targets,
};
use greem_math::{min_image_vec, wrap01, Aabb, Vec3, FLOPS_PER_INTERACTION};
use greem_obs::json::{self, JsonWriter, Value};
use greem_pm::{IsolatedPmSolver, ParallelPm, ParallelPmConfig, PmParams, PmSolver};
use greem_serve::{http, ServerConfig, ServerHandle};
use greem_tree::{GroupWalk, ListEntry, TreeArena};
use mpisim::World;

const DIV: [usize; 3] = [2, 1, 1];

fn bodies(n: usize) -> Vec<Body> {
    greem_math::testutil::rand_positions(n, 7)
        .into_iter()
        .enumerate()
        .map(|(i, p)| Body::at_rest(wrap01(p), 1.0 / n as f64, i as u64))
        .collect()
}

/// The ledger's rows: every `StepBreakdown` field it reads, by the names
/// it prints (`benchmark/src/workloads.rs`, `Ledger::from_breakdown`).
fn ledger_rows(bd: &StepBreakdown) -> [(&'static str, f64); 13] {
    [
        ("pm.density_assignment", bd.pm.density_assignment),
        ("pm.communication", bd.pm.communication_wall),
        ("pm.fft", bd.pm.fft),
        ("pm.accel_on_mesh", bd.pm.acceleration_on_mesh),
        ("pm.force_interpolation", bd.pm.force_interpolation),
        ("pp.local_tree", bd.pp_local_tree),
        ("pp.communication", bd.pp_communication),
        ("pp.tree_construction", bd.pp_tree_construction),
        ("pp.tree_traversal", bd.pp_tree_traversal),
        ("pp.force_calculation", bd.pp_force_calculation),
        ("dd.position_update", bd.dd_position_update),
        ("dd.sampling_method", bd.dd_sampling_method),
        ("dd.particle_exchange", bd.dd_particle_exchange),
    ]
}

#[test]
fn the_serial_simulation_and_its_breakdown() {
    let cfg = TreePmConfig::standard(8);
    let (eps, _r_cut) = (cfg.eps, cfg.r_cut);
    let mut sim = Simulation::new(cfg, bodies(200), SimulationMode::Static);
    let bd: StepBreakdown = sim.step(1e-3);
    let after: Vec<Body> = sim.bodies();
    assert!(eps > 0.0 && after.iter().all(|b| b.vel.norm2().is_finite()));
    let mut total = StepBreakdown {
        pp_force_calculation: 0.0,
        ..StepBreakdown::default()
    };
    total.accumulate(&bd);
    let (_, _): (u64, u64) = (total.interactions(), total.pp_list_replays);
    let pm_rows: f64 = ledger_rows(&total)[..5].iter().map(|r| r.1).sum();
    assert!(pm_rows > 0.0, "the serial PM rows are timed");
}

#[test]
fn two_ranks_exchange_and_never_replay() {
    let all = bodies(300);
    let cfg = TreePmConfig {
        modeled_pp_cost: Some(5e-9),
        ..TreePmConfig::standard(8)
    };
    let per_rank = World::new(2).run(|ctx, world| {
        let root = (world.rank() == 0).then(|| all.clone());
        let mut sim =
            ParallelTreePm::new(ctx, world, cfg, DIV, 2, None, root, SimulationMode::Static);
        let st = sim.step(ctx, world, 1e-3);
        let gathered: Option<Vec<Body>> = sim.gather_bodies(ctx, world);
        (st.breakdown, gathered.map_or(0, |b| b.len()))
    });
    let (bd, n) = &per_rank[0];
    assert_eq!(*n, all.len());
    assert_eq!(bd.pp_list_replays, 0, "two ranks never replay lists");
    assert!(bd.interactions() > 0);
}

#[test]
fn the_layer_probes_calls() {
    let bodies = bodies(400);
    let cfg = TreePmConfig::standard(8);
    let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();

    // PM and FFT.
    let pm = PmSolver::new(cfg.pm_params());
    let rho: Vec<f64> = pm.assign_density(&pos, &mass);
    let phi: Vec<f64> = pm.potential_mesh(&rho);
    let acc: [Vec<f64>; 3] = pm.accel_meshes(&phi);
    let (accel, pot): (Vec<Vec3>, Vec<f64>) = pm.interpolate_forces(&acc, &phi, &pos);
    assert_eq!((accel.len(), pot.len()), (pos.len(), pos.len()));
    let n = cfg.n_mesh;
    let plan = Fft1d::new(n);
    let mut mesh = Mesh3::from_real(n, &rho);
    fft3d(&mut mesh, &plan);
    fft3d_inverse(&mut mesh, &plan);
    let side = PmParams {
        n_mesh: 8,
        ..cfg.pm_params()
    };
    let iso: Vec<Vec3> = IsolatedPmSolver::new(side).solve(&pos, &mass).accel;
    assert_eq!(iso.len(), pos.len());
    let grid = DomainGrid::uniform([2, 2, 2]);
    let comm: Vec<f64> = World::new(8).run(|c, world| {
        let pm_cfg = ParallelPmConfig {
            nf: 2,
            relay_groups: Some(2),
            ..ParallelPmConfig::standard(8, 8)
        };
        let dom = grid.domain(world.rank());
        let mine: Vec<&Body> = bodies
            .iter()
            .filter(|b| grid.rank_of_point(b.pos) == world.rank())
            .collect();
        let (p, m): (Vec<Vec3>, Vec<f64>) = mine.iter().map(|b| (b.pos, b.mass)).unzip();
        let pm = ParallelPm::new(c, world, pm_cfg);
        let (_, times) = pm.solve(c, world, dom.lo.to_array(), dom.hi.to_array(), &p, &m);
        times.communication_sim
    });
    assert!(comm.iter().all(|&v| v > 0.0));

    // Tree and kernels.
    let col = |f: fn(&Body) -> f64| bodies.iter().map(f).collect::<Vec<f64>>();
    let (x, y, z, m) = (
        col(|b| b.pos.x),
        col(|b| b.pos.y),
        col(|b| b.pos.z),
        col(|b| b.mass),
    );
    let mut arena = TreeArena::new();
    assert_eq!(arena.sort(&x, &y, &z, Aabb::UNIT).len(), bodies.len());
    let by_order = |v: &[f64]| {
        arena
            .order()
            .iter()
            .map(|&o| v[o as usize])
            .collect::<Vec<f64>>()
    };
    let (x, y, z, m) = (by_order(&x), by_order(&y), by_order(&z), by_order(&m));
    arena.build(&x, &y, &z, &m, cfg.tree_params());
    arena.refresh_monopoles(&x, &y, &z, &m);
    let view = arena.view(&x, &y, &z, &m);
    let walk = GroupWalk::new(&view, cfg.traverse_params());
    let stats = walk.for_each_group(|_, list| assert!(list.iter().all(|s| s.mass > 0.0)));
    let (_, _, _, _) = (
        stats.interactions,
        stats.visited_nodes,
        stats.mean_ni(),
        stats.mean_nj(),
    );
    let (mut stack, mut list) = (Vec::new(), Vec::new());
    let mut src = SourceList::default();
    for g in walk.groups() {
        let mut entries: Vec<ListEntry> = Vec::new();
        list.clear();
        walk.list_for_group_recording(g, &mut stack, &mut list, 0.1 * cfg.r_cut, &mut entries);
        src.clear();
        walk.replay_list_columns(
            (&x, &y, &z, &m),
            g,
            &entries,
            &mut src.x,
            &mut src.y,
            &mut src.z,
            &mut src.m,
        );
        let (lo, hi) = (g.first as usize, (g.first + g.count) as usize);
        let mut t = Targets::default();
        t.load_from_slices(&x[lo..hi], &y[lo..hi], &z[lo..hi]);
        t.reset_accel();
        let split = cfg.split();
        for v in [
            selected_variant(),
            KernelVariant::Portable,
            KernelVariant::Scalar,
        ] {
            let _: u64 = pp_accel_variant(v, &mut t, &src, &split);
        }
    }
    let from_pairs: SourceList = [(Vec3::ZERO, 1.0)].into_iter().collect();
    assert_eq!(from_pairs.len(), 1);
    let bytes: f64 = bytes_per_interaction(selected_variant(), 8, 64);
    assert!(bytes > 0.0 && FLOPS_PER_INTERACTION > 0.0 && !selected_variant().name().is_empty());

    // Domain and mpisim.
    let mut samples: Vec<Vec3> = pos.iter().take(64).copied().collect();
    assert!(!multisection(&mut samples, DIV).is_empty());
    let sums = World::new(2).run(|c, world| {
        let moved = world.alltoallv(c, vec![vec![1.0f64; 4]; 2]);
        let total = world.allreduce(c, vec![1.0f64], |a, b| *a += *b);
        (moved.len(), total[0])
    });
    assert_eq!(sums[0], (2, 2.0));
    let point = greem_bench::experiments::weakscale::run_point;
    let _: fn(usize, u64, bool) -> _ = point;

    // Oracles.
    let table = EwaldTable::new(8);
    let dr = min_image_vec(pos[0], pos[1]);
    assert!(table.correction(dr).x.is_finite());
    let _: fn(&[Vec3], &[f64]) -> Vec<Vec3> = greem_baselines::direct_periodic;
}

#[test]
fn checkpoints_snapshots_and_the_obs_layer() {
    let dir = std::env::temp_dir().join(format!("benchmark-surface-{}", std::process::id()));
    let ckpt_dir = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).expect("scratch dir");
    let all = bodies(64);
    let grid = DomainGrid::uniform(DIV);
    let balancer = SamplingBalancer::new(BalancerParams::new(DIV, 512)).state();
    let restored = World::new(2).run(|c, world| {
        let st = RankState {
            step: 1,
            mode: SimulationMode::Static,
            balancer: balancer.clone(),
            bodies: all
                .iter()
                .filter(|b| grid.rank_of_point(b.pos) == world.rank())
                .copied()
                .collect(),
        };
        let written = greem_resil::write_sharded(c, world, &ckpt_dir, 1, &st);
        let loaded = greem_resil::load_sharded(c, world, &ckpt_dir);
        written.is_ok() && matches!(&loaded, Ok((1, back, _)) if *back == st)
    });
    assert!(restored.iter().all(|&ok| ok));

    let snap = dir.join("snapshot.greemsn1");
    let header = SnapshotHeader {
        step: 1,
        mode: SimulationMode::Static,
    };
    let file = std::fs::File::create(&snap).expect("create");
    greem::write_snapshot(file, &header, &all).expect("write");
    let file = std::fs::File::open(&snap).expect("open");
    let (h, back) = greem::read_snapshot(file).expect("read");
    assert!(h == header && back == all && back.iter().all(|b| b.id < 64));
    std::fs::remove_dir_all(&dir).ok();

    let ((), events) = greem_obs::trace::capture(|| {
        let _s = greem_obs::trace::span("bench", "probe");
    });
    assert_eq!(events.len(), 2);
    let mut sk = greem_obs::DdSketch::new(0.01);
    sk.observe(1e-6);
    assert_eq!(sk.count(), 1);
    let mut w: JsonWriter = greem_obs::json::JsonWriter::new();
    w.begin_obj(None);
    w.str_(Some("unit"), "s");
    w.bool_(Some("correct"), true);
    w.begin_arr(Some("op_s"));
    w.end_arr();
    w.end_obj();
    let v = json::parse(&w.finish()).expect("valid JSON");
    assert!(matches!(v.get("correct"), Some(Value::Bool(true))));
    assert_eq!(v.get("unit").and_then(Value::as_str), Some("s"));
    assert!(matches!(v, Value::Obj(_)) && v.get("op_s").and_then(Value::as_f64).is_none());
}

#[test]
fn the_daemon_starts_answers_and_stops() {
    let dir = std::env::temp_dir().join(format!("benchmark-surface-serve-{}", std::process::id()));
    let server: ServerHandle = greem_serve::start(ServerConfig {
        workers: 1,
        data_dir: dir.clone(),
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = server.addr_str();
    assert!(http::request(&addr, "GET", "/healthz", None).is_ok());
    let _ = http::open_stream;
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

fn skip_ws(code: &str, i: usize) -> usize {
    i + code[i..].len() - code[i..].trim_start().len()
}

/// The identifier at `i` and where it ends.
fn ident(code: &str, i: usize) -> (&str, usize) {
    let len = code[i..]
        .bytes()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == b'_')
        .count();
    (&code[i..i + len], i + len)
}

/// Insert the path that continues `prefix` at `i` — a name, `name::…`,
/// or a `{..}` group — and return where it ends.
fn walk(code: &str, i: usize, prefix: &str, out: &mut BTreeSet<String>) -> usize {
    let i = skip_ws(code, i);
    if code[i..].starts_with('{') {
        let mut i = i + 1;
        loop {
            i = skip_ws(code, i);
            match code[i..].chars().next() {
                Some('}') => return i + 1,
                Some(',') => i += 1,
                Some(_) => i = walk(code, i, prefix, out),
                None => return i,
            }
        }
    }
    let (name, end) = ident(code, i);
    if name.is_empty() {
        return i + 1;
    }
    let path = if name == "self" {
        prefix.to_string()
    } else {
        format!("{prefix}::{name}")
    };
    if code[end..].starts_with("::") {
        return walk(code, end + 2, &path, out);
    }
    out.insert(path);
    end
}

/// Every `greem*::` / `mpisim::` path in `src`, comments left out: a
/// path's segments up to its last name, with `{..}` groups (nested, over
/// several lines) expanded and `self` folded into its parent.
fn paths(src: &str) -> BTreeSet<String> {
    let code: Vec<&str> = src
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect();
    let code = code.join("\n");
    let mut out = BTreeSet::new();
    for (i, _) in code.match_indices("::") {
        let start = code[..i]
            .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map_or(0, |s| s + 1);
        let root = &code[start..i];
        let inner = code[..start].ends_with("::");
        if (root.starts_with("greem") || root == "mpisim") && !inner {
            walk(&code, i + 2, root, &mut out);
        }
    }
    out
}

#[test]
fn every_benchmark_path_is_mirrored() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut benchmark = BTreeSet::new();
    let dir = std::fs::read_dir(root.join("benchmark/src")).expect("benchmark/src");
    for entry in dir {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            benchmark.extend(paths(&std::fs::read_to_string(&path).expect("source")));
        }
    }
    // The benchmark's own crate is not part of the surface.
    benchmark.retain(|p| !p.starts_with("greem_benchmark::"));
    // A one-line group, a group over several lines, `self`, a call site.
    for known in [
        "greem_pm::PmSolver",
        "greem_kernels::bytes_per_interaction",
        "greem_obs::json",
        "greem_resil::write_sharded",
    ] {
        assert!(benchmark.contains(known), "{known} not among {benchmark:?}");
    }
    let mirror = paths(include_str!("benchmark_surface.rs"));
    let missing: Vec<_> = benchmark.difference(&mirror).collect();
    assert!(
        missing.is_empty(),
        "benchmark paths this file does not use: {missing:?}"
    );
}
