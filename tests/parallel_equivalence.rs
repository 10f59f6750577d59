//! Integration: parallel execution is physically equivalent to serial —
//! the distributed driver against the single-process one, and the
//! rayon-parallel FFT / density assignment / tree build against their
//! serial references — all through the public API.
//!
//! Equivalence levels (documented per phase in the crates themselves):
//! FFT passes, mesh differencing, interpolation and tree build are
//! bitwise-identical to serial (same per-element arithmetic, placement
//! by index), and so is density assignment: each task owns whole mesh
//! planes and deposits to them in particle order, the order of the
//! serial scatter. Repeated runs in one process must be
//! bitwise-identical everywhere.

use greem_repro::fft::{fft3d, fft3d_inverse, Cpx, Fft1d, Mesh3};
use greem_repro::greem::{Body, ParallelTreePm, Simulation, SimulationMode, TreePmConfig};
use greem_repro::math::{min_image_vec, wrap01, Aabb, Vec3};
use greem_repro::mpisim::{NetModel, World};
use greem_repro::pm::{PmParams, PmSolver};
use greem_repro::tree::{SnapshotTree, TreeArena, TreeParams};

fn snapshot(n: usize, seed: u64) -> Vec<Body> {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| Body {
            pos: wrap01(Vec3::new(next(), next(), next())),
            vel: Vec3::new(next() - 0.5, next() - 0.5, next() - 0.5) * 1e-3,
            mass: 1.0 / n as f64,
            id: i as u64,
        })
        .collect()
}

#[test]
fn two_steps_parallel_with_relay_match_serial() {
    let n = 80;
    let bodies = snapshot(n, 5);
    let cfg = TreePmConfig {
        theta: 0.0, // exact walk isolates the parallelisation
        group_size: 16,
        ..TreePmConfig::standard(16)
    };
    let mut serial = Simulation::new(cfg, bodies.clone(), SimulationMode::Static);
    serial.step(1e-3);
    serial.step(1e-3);
    let mut want: Vec<Body> = serial.bodies().to_vec();
    want.sort_unstable_by_key(|b| b.id);

    let got = World::new(4).with_net(NetModel::free()).run(|ctx, world| {
        let root = (world.rank() == 0).then(|| bodies.clone());
        let mut sim = ParallelTreePm::new(
            ctx,
            world,
            cfg,
            [2, 2, 1],
            2,
            Some(2), // relay mesh on
            root,
            SimulationMode::Static,
        );
        sim.step(ctx, world, 1e-3);
        sim.step(ctx, world, 1e-3);
        sim.gather_bodies(ctx, world)
    });
    let got = got[0].clone().unwrap();
    assert_eq!(got.len(), n);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.id, w.id);
        let dp = min_image_vec(g.pos, w.pos).norm();
        assert!(dp < 1e-6, "id {}: position diverged by {dp:e}", g.id);
    }
}

/// The textbook serial 3-D transform the parallel `fft3d` replaced:
/// three axis passes of 1-D line transforms through gather/scatter
/// buffers, in the same per-line arithmetic order.
fn serial_fft3d_reference(mesh: &mut Mesh3, plan: &Fft1d, inverse: bool) {
    let n = mesh.n();
    let run = |plan: &Fft1d, buf: &mut [Cpx]| {
        if inverse {
            plan.inverse(buf)
        } else {
            plan.forward(buf)
        }
    };
    for row in mesh.data_mut().chunks_mut(n) {
        run(plan, row);
    }
    let mut line = vec![Cpx::ZERO; n];
    for x in 0..n {
        for z in 0..n {
            for (y, l) in line.iter_mut().enumerate() {
                *l = mesh.get(x, y, z);
            }
            run(plan, &mut line);
            for (y, l) in line.iter().enumerate() {
                let i = mesh.idx(x, y, z);
                mesh.data_mut()[i] = *l;
            }
        }
    }
    for y in 0..n {
        for z in 0..n {
            for (x, l) in line.iter_mut().enumerate() {
                *l = mesh.get(x, y, z);
            }
            run(plan, &mut line);
            for (x, l) in line.iter().enumerate() {
                let i = mesh.idx(x, y, z);
                mesh.data_mut()[i] = *l;
            }
        }
    }
    if inverse {
        let s = 1.0 / (n as f64).powi(3);
        for v in mesh.data_mut() {
            *v = v.scale(s);
        }
    }
}

fn assert_meshes_bitwise_equal(a: &Mesh3, b: &Mesh3, what: &str) {
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: mode {i} differs: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn parallel_fft_matches_serial_reference_bitwise() {
    let n = 16;
    let plan = Fft1d::new(n);
    let mut s = 21u64;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let vals: Vec<f64> = (0..n * n * n).map(|_| next()).collect();
    let orig = Mesh3::from_real(n, &vals);

    let mut par = orig.clone();
    let mut par2 = orig.clone();
    let mut ser = orig.clone();
    fft3d(&mut par, &plan);
    fft3d(&mut par2, &plan);
    serial_fft3d_reference(&mut ser, &plan, false);
    assert_meshes_bitwise_equal(&par, &ser, "forward vs serial");
    assert_meshes_bitwise_equal(&par, &par2, "forward run-to-run");

    fft3d_inverse(&mut par, &plan);
    serial_fft3d_reference(&mut ser, &plan, true);
    assert_meshes_bitwise_equal(&par, &ser, "inverse vs serial");
}

#[test]
fn parallel_density_assignment_matches_serial_bitwise() {
    let n = 20_000;
    let mut s = 31u64;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let pos: Vec<Vec3> = (0..n).map(|_| Vec3::new(next(), next(), next())).collect();
    let mass: Vec<f64> = (0..n).map(|i| (1.0 + (i % 5) as f64) / n as f64).collect();
    let solver = PmSolver::new(PmParams::standard(16));

    let par = solver.assign_density(&pos, &mass);
    let ser = solver.assign_density_serial(&pos, &mass);
    let again = solver.assign_density(&pos, &mass);
    for (i, ((p, q), r)) in par.iter().zip(&ser).zip(&again).enumerate() {
        assert!(
            p.to_bits() == q.to_bits(),
            "cell {i}: parallel {p} vs serial {q}"
        );
        assert!(p.to_bits() == r.to_bits(), "cell {i} not reproducible");
    }
}

#[test]
fn parallel_tree_build_matches_serial_bitwise() {
    // Above the tree's parallel-build cutoff (2048 particles).
    let n = 6000;
    let mut s = 41u64;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let pos: Vec<Vec3> = (0..n).map(|_| Vec3::new(next(), next(), next())).collect();
    let mass: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();

    let build =
        |arena| SnapshotTree::build_in(arena, &pos, &mass, Aabb::UNIT, TreeParams::default());
    let par = build(TreeArena::new());
    let par2 = build(TreeArena::new());
    let ser = build(TreeArena::serial());

    for (tag, other) in [("serial", &ser), ("run-to-run", &par2)] {
        assert_eq!(par.order(), other.order(), "{tag}: permutation");
        assert_eq!(par.nodes().len(), other.nodes().len(), "{tag}: node count");
        for (i, (a, b)) in par.nodes().iter().zip(other.nodes()).enumerate() {
            assert_eq!(a.first, b.first, "{tag}: node {i} first");
            assert_eq!(a.count, b.count, "{tag}: node {i} count");
            assert_eq!(a.child, b.child, "{tag}: node {i} children");
            assert_eq!(a.com, b.com, "{tag}: node {i} com");
            assert_eq!(a.mass, b.mass, "{tag}: node {i} mass");
            assert_eq!(a.s_moment, b.s_moment, "{tag}: node {i} second moment");
            assert_eq!(a.center, b.center, "{tag}: node {i} center");
            assert_eq!(a.half, b.half, "{tag}: node {i} half");
            assert_eq!(a.is_leaf, b.is_leaf, "{tag}: node {i} is_leaf");
        }
    }
}

#[test]
fn fused_force_interpolation_matches_separate_calls_bitwise() {
    let n = 3000;
    let mut s = 51u64;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let pos: Vec<Vec3> = (0..n).map(|_| Vec3::new(next(), next(), next())).collect();
    let mass = vec![1.0 / n as f64; n];
    let solver = PmSolver::new(PmParams::standard(16));
    let rho = solver.assign_density(&pos, &mass);
    let phi = solver.potential_mesh(&rho);
    let acc = solver.accel_meshes(&phi);

    let (accel, pot) = solver.interpolate_forces(&acc, &phi, &pos);
    let ax = solver.interpolate(&acc[0], &pos);
    let ay = solver.interpolate(&acc[1], &pos);
    let az = solver.interpolate(&acc[2], &pos);
    let p = solver.interpolate(&phi, &pos);
    for i in 0..n {
        assert_eq!(accel[i].x, ax[i], "particle {i} ax");
        assert_eq!(accel[i].y, ay[i], "particle {i} ay");
        assert_eq!(accel[i].z, az[i], "particle {i} az");
        assert_eq!(pot[i], p[i], "particle {i} potential");
    }
}

#[test]
fn cosmological_parallel_step_runs_and_conserves_particles() {
    let n = 120;
    let bodies = snapshot(n, 9);
    let cosmo = greem_repro::cosmo::Cosmology::wmap7();
    let a0 = 0.01;
    let counts = World::new(4).with_net(NetModel::free()).run(|ctx, world| {
        let root = (world.rank() == 0).then(|| bodies.clone());
        let mut sim = ParallelTreePm::new(
            ctx,
            world,
            TreePmConfig::standard(16),
            [4, 1, 1],
            2,
            None,
            root,
            SimulationMode::Cosmological {
                cosmology: cosmo,
                a: a0,
            },
        );
        sim.step(ctx, world, a0 * 1.05);
        match sim.mode() {
            SimulationMode::Cosmological { a, .. } => assert!((a - a0 * 1.05).abs() < 1e-15),
            _ => panic!("mode lost"),
        }
        sim.bodies().len()
    });
    assert_eq!(counts.iter().sum::<usize>(), n);
}
