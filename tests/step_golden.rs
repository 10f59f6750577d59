//! Golden hashes of whole TreePM steps: FNV-1a over the position and
//! velocity bits of every body (sorted by id) after a few steps, folded
//! with each step's exact `WalkStats` counters and `pp_list_replays`,
//! and on the parallel driver with every rank's counters and simulated
//! clock. The cases cover both drivers, both time variables and both
//! boundaries. A change meant to keep the trajectories' bits passes
//! this untouched, in debug and optimised builds and at any
//! `RAYON_NUM_THREADS`.
//!
//! Every digest follows the PP kernel's accelerations, so each case is
//! pinned per [`KernelVariant`] (`GREEM_PP_KERNEL` selects one); the
//! x86 digests are those of Intel's `rsqrt` tables.

use greem::{Body, ParallelTreePm, Simulation, SimulationMode, StepBreakdown, TreePmConfig};
use greem_cosmo::Cosmology;
use greem_kernels::testutil::hardware_seed_is_the_recorded_one;
use greem_kernels::{selected_variant, KernelVariant};
use greem_math::testutil::{Fnv1a, TestLcg};
use greem_math::Vec3;
use mpisim::{NetModel, World};

/// Bodies clumped around three centres inside `[0.2, 0.8]³`, with small
/// random velocities and two mass classes.
fn bodies(n: usize, seed: u64, speed: f64) -> Vec<Body> {
    let mut rng = TestLcg::new(seed);
    let centres = [
        Vec3::new(0.35, 0.4, 0.6),
        Vec3::new(0.62, 0.55, 0.38),
        Vec3::new(0.5, 0.66, 0.52),
    ];
    (0..n)
        .map(|i| {
            let jitter = (rng.next_vec3() - Vec3::splat(0.5)) * 0.3;
            let pos = centres[i % centres.len()] + jitter * rng.next_f64();
            let vel = (rng.next_vec3() - Vec3::splat(0.5)) * speed;
            let mass = (1.0 + (i % 2) as f64) / (1.5 * n as f64);
            Body {
                pos,
                vel,
                mass,
                id: i as u64,
            }
        })
        .collect()
}

fn hash_walk(h: &mut Fnv1a, bd: &StepBreakdown) {
    let w = &bd.walk;
    for v in [
        w.n_groups,
        w.sum_ni,
        w.sum_nj,
        w.interactions,
        w.particle_entries,
        w.node_entries,
        w.visited_nodes,
        bd.pp_list_replays,
    ] {
        h.u64(v);
    }
    for b in w.group_size_buckets {
        h.u64(b);
    }
}

fn hash_bodies(h: &mut Fnv1a, bodies: &[Body]) {
    h.u64(bodies.len() as u64);
    for b in bodies {
        h.u64(b.id);
        h.f64s(&[b.pos.x, b.pos.y, b.pos.z, b.vel.x, b.vel.y, b.vel.z]);
    }
}

/// `steps` serial steps; `step_arg(k)` is step k's `dt` or target `a`.
fn serial(
    cfg: TreePmConfig,
    mode: SimulationMode,
    steps: usize,
    step_arg: impl Fn(usize) -> f64,
) -> u64 {
    let mut sim = Simulation::new(cfg, bodies(600, 41, 0.02), mode);
    let mut h = Fnv1a::default();
    for k in 0..steps {
        hash_walk(&mut h, &sim.step(step_arg(k)));
    }
    hash_bodies(&mut h, &sim.bodies());
    h.0
}

/// `steps` parallel steps on `div` ranks under the modelled PP cost, so
/// the balancer feedback and every rank's clock are deterministic.
fn parallel(
    div: [usize; 3],
    relay_groups: Option<usize>,
    mode: SimulationMode,
    steps: usize,
    step_arg: impl Fn(usize) -> f64 + Sync,
) -> u64 {
    let p: usize = div.iter().product();
    let cfg = TreePmConfig {
        modeled_pp_cost: Some(5e-9),
        ..TreePmConfig::standard(16)
    };
    let nf = if relay_groups.is_some() { p / 2 } else { p };
    let all = bodies(600, 43, 0.02);
    let per_rank = World::new(p)
        .with_net(NetModel::k_computer())
        .run(|ctx, world| {
            let root = (world.rank() == 0).then(|| all.clone());
            let mut sim = ParallelTreePm::new(ctx, world, cfg, div, nf, relay_groups, root, mode);
            let mut h = Fnv1a::default();
            for k in 0..steps {
                let st = sim.step(ctx, world, step_arg(k));
                hash_walk(&mut h, &st.breakdown);
                h.u64(st.n_owned as u64);
                h.u64(st.n_ghosts as u64);
            }
            h.f64s(&[ctx.vtime()]);
            (h.0, sim.gather_bodies(ctx, world))
        });
    let mut h = Fnv1a::default();
    for (rank_hash, gathered) in per_rank {
        h.u64(rank_hash);
        if let Some(all) = gathered {
            hash_bodies(&mut h, &all);
        }
    }
    h.0
}

fn cosmological() -> SimulationMode {
    SimulationMode::Cosmological {
        cosmology: Cosmology::wmap7(),
        a: 1.0 / 401.0,
    }
}

/// The scale factor after `k + 1` steps of 5 % from a = 1/401.
fn a_after(k: usize) -> f64 {
    (1.0 / 401.0) * 1.05f64.powi(k as i32 + 1)
}

const CASES: [&str; 6] = [
    "serial periodic leapfrog",
    "serial isolated leapfrog",
    "serial cosmological",
    "parallel static p=2 direct",
    "parallel static p=4 relay",
    "parallel cosmological p=2",
];

fn case_hashes() -> [u64; 6] {
    let stat = SimulationMode::Static;
    [
        serial(TreePmConfig::standard(16), stat, 3, |_| 2e-3),
        serial(TreePmConfig::isolated(16), stat, 2, |_| 2e-3),
        serial(TreePmConfig::standard(16), cosmological(), 2, a_after),
        parallel([2, 1, 1], None, stat, 2, |_| 2e-3),
        parallel([2, 2, 1], Some(2), stat, 2, |_| 2e-3),
        parallel([2, 1, 1], None, cosmological(), 2, a_after),
    ]
}

/// One row per case, one column per variant: avx512, avx2, portable,
/// scalar. The isolated row was re-recorded once when the open-boundary
/// PM solve moved from the complex transform to the real ↔
/// half-complex one (its accelerations moved by ≤ 4e-14 relative), and
/// the three parallel rows once when the slab transform did the same.
/// The serial periodic and isolated rows were re-recorded once when
/// recorded lists began to outlive their step (replayed on every
/// sub-cycle while their skin holds, instead of on second sub-cycles
/// only); the cosmological and parallel rows did not move. The
/// isolated row was re-recorded once more when its case changed from a
/// 4th-order composition of three leapfrog cycles a step to the one
/// leapfrog cycle, the integrator that remained.
const GOLDEN: [[u64; 4]; 6] = [
    [
        0x5587_e50c_f665_4ad2,
        0x2bda_2d92_f4d8_f7e8,
        0x0a8f_704d_0c82_cb69,
        0x2f69_27bb_f070_cb75,
    ],
    [
        0xbc46_b2e8_5651_109d,
        0x97c9_d9f0_bee4_3ac7,
        0x4de1_5114_4cab_3d86,
        0x3af7_adb1_d148_b3b2,
    ],
    [
        0xcfdd_40fb_e81e_df12,
        0x16aa_7429_8064_64f9,
        0x4cdd_2b87_8cdf_1622,
        0xcd22_33f1_660a_3f0b,
    ],
    [
        0x57f7_fe60_8f40_d2ff,
        0xc737_9ac4_5de1_bcef,
        0xaa7e_ccc3_de7f_10a8,
        0x71e7_b8c4_9936_2497,
    ],
    [
        0x6ad5_4b78_4017_1d95,
        0xff69_b431_84e2_8a78,
        0x9b3a_5086_eba3_5523,
        0x8788_a525_3253_3c27,
    ],
    [
        0xb0f3_1704_c7ee_72f9,
        0x6825_a28c_767b_34d9,
        0xabf0_61fe_21ad_e4f5,
        0xacdc_6112_8768_92b1,
    ],
];

#[test]
fn steps_keep_their_bits() {
    let variant = selected_variant();
    let column = match variant {
        KernelVariant::Avx512 => 0,
        KernelVariant::Avx2 => 1,
        KernelVariant::Portable => 2,
        KernelVariant::Scalar => 3,
    };
    let x86 = matches!(variant, KernelVariant::Avx512 | KernelVariant::Avx2);
    if x86 && !hardware_seed_is_the_recorded_one() {
        eprintln!(
            "skipping the {} pins: not the recording vendor's rsqrt table",
            variant.name()
        );
        return;
    }
    let moved: Vec<String> = CASES
        .iter()
        .zip(case_hashes().iter().zip(&GOLDEN))
        .filter(|(_, (h, want))| **h != want[column])
        .map(|(case, (h, _))| format!("{case}: {h:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} trajectory bits moved in {moved:#?}",
        variant.name()
    );
}
