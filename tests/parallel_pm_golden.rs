//! Golden hashes of the distributed PM cycle: FNV-1a over the bits of
//! every rank's `ParallelPm::solve` accelerations and simulated
//! conversion seconds, across rank counts, conversion schedules, mesh
//! sides and body sets. Re-recorded once when the slab transform moved
//! from complex to real ↔ half-complex lines (accelerations moved by
//! ≤ 7e-16 of their largest, conversion seconds by clock rounding); a
//! change meant to keep its bits passes this untouched, in debug and
//! optimised builds and at any `RAYON_NUM_THREADS`.

use greem_domain::DomainGrid;
use greem_math::testutil::{rand_positions, Fnv1a, TestLcg};
use greem_math::Vec3;
use greem_pm::{ParallelPm, ParallelPmConfig};
use mpisim::{NetModel, World};

/// `(p, divisions, relay groups)`: p = 1 and the undivided axes give
/// ghost boxes that wrap onto their own cells.
const DECOMPOSITIONS: [(usize, [usize; 3], Option<usize>); 6] = [
    (1, [1, 1, 1], None),
    (2, [2, 1, 1], None),
    (4, [2, 2, 1], None),
    (4, [2, 2, 1], Some(2)),
    (8, [2, 2, 2], None),
    (8, [2, 2, 2], Some(2)),
];

const SIDES: [usize; 3] = [8, 16, 32];

/// One hash per side × body set × decomposition, in that nesting.
const GOLDEN: [u64; 36] = [
    0x6219687f39b8adaa,
    0xd982266acdf44a7e,
    0x9697abe181ee23ff,
    0xfa3e3a4f1af07de1,
    0x72e4829775eae671,
    0x878c6fdfced741ed,
    0x439f76e73dfb0f13,
    0x873d48a2bd781758,
    0x1ca94836aa0f7bd9,
    0xf4d1515489c8ad23,
    0x7f07d4b911ae4f59,
    0x7dbb415d91b44b7e,
    0xb90a6a609cd23eef,
    0xbb657260fbbd5124,
    0x00faea5bc2c0abf2,
    0x1de22cb7f36285af,
    0x793bd1a216579ea9,
    0x358160d9fce23475,
    0xb8d361b940b4640b,
    0x5227e634bfe7bc64,
    0x37501451edaefa1b,
    0xe7180f03e8bc1e4d,
    0xcfdbeb9ffba00423,
    0xa730e72731b27dcb,
    0x051e13b7a8f6fcbc,
    0xc81b75c461ec3a3d,
    0x62cea440f3176284,
    0x5baf798e996feaf2,
    0x3f138bb58ede693a,
    0xe3f1a91482529945,
    0xe8dbd8f436894365,
    0x4701532a0ff370a7,
    0xe6c68bc6eb453aa6,
    0xc7ea3fbeb65e9249,
    0xb3659b4eb9d57668,
    0x9c50d74afcbd9ef6,
];

/// Bodies clumped around four centres, well inside the unit box.
fn clustered(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = TestLcg::new(seed);
    let centres = [
        Vec3::new(0.3, 0.3, 0.7),
        Vec3::new(0.7, 0.4, 0.3),
        Vec3::new(0.45, 0.75, 0.5),
        Vec3::new(0.52, 0.49, 0.51),
    ];
    (0..n)
        .map(|i| {
            let jitter = (rng.next_vec3() - Vec3::splat(0.5)) * 0.12;
            centres[i % centres.len()] + jitter * rng.next_f64()
        })
        .collect()
}

/// The last double below `v`.
fn below(v: f64) -> f64 {
    f64::from_bits(v.to_bits() - 1)
}

fn solve_hash(n_mesh: usize, base: &[Vec3], dec: (usize, [usize; 3], Option<usize>)) -> u64 {
    let (p, div, relay_groups) = dec;
    let grid = DomainGrid::uniform(div);
    // Bodies exactly on each domain's lower faces and one ulp inside its
    // upper faces.
    let mut pos = base.to_vec();
    for r in 0..p {
        let dom = grid.domain(r);
        let (lo, hi) = (dom.lo, dom.hi);
        let edges = [
            lo,
            Vec3::new(below(hi.x), below(hi.y), below(hi.z)),
            Vec3::new(lo.x, below(hi.y), lo.z),
            Vec3::new(below(hi.x), lo.y, 0.5 * (lo.z + hi.z)),
        ];
        for e in edges {
            assert_eq!(grid.rank_of_point(e), r, "edge body {e:?} leaves rank {r}");
            pos.push(e);
        }
    }
    let mass: Vec<f64> = (0..pos.len())
        .map(|i| 0.5 + (i % 7) as f64 * 0.25)
        .collect();
    let cfg = ParallelPmConfig {
        relay_groups,
        nf: if relay_groups.is_some() { p / 2 } else { p },
        ..ParallelPmConfig::standard(n_mesh, p)
    };
    let per_rank = World::new(p)
        .with_net(NetModel::k_computer())
        .run(|ctx, world| {
            let me = world.rank();
            let dom = grid.domain(me);
            let (mine, m): (Vec<Vec3>, Vec<f64>) = pos
                .iter()
                .zip(&mass)
                .filter(|(x, _)| grid.rank_of_point(**x) == me)
                .unzip();
            let pm = ParallelPm::new(ctx, world, cfg);
            let (acc, t) = pm.solve(ctx, world, dom.lo.to_array(), dom.hi.to_array(), &mine, &m);
            (acc, t.communication_sim)
        });
    let mut h = Fnv1a::default();
    for (acc, comm_sim) in per_rank {
        h.u64(acc.len() as u64);
        for a in acc {
            h.f64s(&[a.x, a.y, a.z]);
        }
        h.f64s(&[comm_sim]);
    }
    h.0
}

#[test]
fn parallel_pm_keeps_its_bits() {
    let mut got = Vec::new();
    for n_mesh in SIDES {
        for base in [rand_positions(400, 61), clustered(400, 67)] {
            for dec in DECOMPOSITIONS {
                got.push(solve_hash(n_mesh, &base, dec));
            }
        }
    }
    assert!(
        got == GOLDEN,
        "ParallelPm::solve: got {got:#018x?}, pinned {GOLDEN:#018x?}"
    );
}
