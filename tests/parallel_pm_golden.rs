//! Golden hashes of the distributed PM cycle: FNV-1a over the bits of
//! every rank's `ParallelPm::solve` accelerations and simulated
//! conversion seconds, across rank counts, conversion schedules, mesh
//! sides and body sets. Recorded before the parallel solver moved onto
//! the shared mesh passes; a change meant to keep its bits passes this
//! untouched, in debug and optimised builds and at any
//! `RAYON_NUM_THREADS`.

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
    0x4615fe0ef4abd0c6,
    0x5acf02aa9d735605,
    0x5fbc5c3e7ae7b51a,
    0x6003924dc70b3cbc,
    0xd224c9aa737f8dba,
    0xd4b00309fed97a85,
    0xe1f0ae3ba93eb172,
    0x9d4d581ed547735b,
    0x77e22198ac5d77b4,
    0x345e485e6761dbda,
    0xaec0ad28590c91f5,
    0xbf541918b8ce5d62,
    0xd5713379320af2dd,
    0x9e9186fcf98a2426,
    0x8c8ee30aeac83913,
    0x402732b4e10014c5,
    0x3db3c6c42d1efc39,
    0xaabefff73184fec0,
    0x8684e13d75b2eb23,
    0x3206e7cd2e2bca9b,
    0x5575285055ae8c83,
    0xb2dcada699dbbd23,
    0x3fea25789420bd1d,
    0x26c7c6f06ab56ca1,
    0x6a9c0d3a2f662980,
    0x6d63f9f46b567969,
    0xa41af1dadbb3e26c,
    0xceac813862932317,
    0xf7f06bbee6a869f4,
    0xfa49931c5ff6e1c7,
    0xfa5d8a54e36200bb,
    0x14a91cadaa1e5d5c,
    0x028795c824306461,
    0x6ee3342f31525eaf,
    0xf6de27bea8a1f5d3,
    0x5e3dc58c392fa8c4,
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
