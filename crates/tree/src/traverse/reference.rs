//! The list builder as it stood before the compare-select geometry and
//! the straight-to-column emission — libm `floor` in the box distance,
//! `.round()` in the image shift, one `SourceEntry` push per source —
//! kept verbatim as the reference, and the differential tests holding
//! the new builder to it bit for bit: source values, recorded structure
//! and every `WalkStats` field.

use greem_math::testutil::{rand_positions, TestLcg};
use greem_math::{Aabb, Vec3};

use super::*;
use crate::build::TreeParams;
use crate::SnapshotTree;

fn min_image_libm(a: f64, b: f64) -> f64 {
    let d = a - b;
    d - (d + 0.5).floor()
}

fn periodic_dist2_to_aabb_libm(a: &Aabb, o: &Aabb) -> f64 {
    let mut d2 = 0.0;
    for i in 0..3 {
        let ca = 0.5 * (a.lo[i] + a.hi[i]);
        let cb = 0.5 * (o.lo[i] + o.hi[i]);
        let half = 0.5 * ((a.hi[i] - a.lo[i]) + (o.hi[i] - o.lo[i]));
        let d = (min_image_libm(ca, cb).abs() - half).max(0.0);
        d2 += d * d;
    }
    d2
}

fn shift_to(gcenter: Vec3, periodic: bool, p: Vec3) -> Vec3 {
    if periodic {
        Vec3::new(
            p.x - (p.x - gcenter.x).round(),
            p.y - (p.y - gcenter.y).round(),
            p.z - (p.z - gcenter.z).round(),
        )
    } else {
        p
    }
}

/// The old `GroupWalk::list_impl`.
fn list_impl(
    tree: &ArenaView<'_>,
    params: &TraverseParams,
    group: Group,
    stack: &mut Vec<usize>,
    list: &mut Vec<SourceEntry>,
    rc_extra: f64,
    mut rec: Option<&mut Vec<ListEntry>>,
) -> WalkStats {
    let mut stats = WalkStats::default();
    let nodes = tree.nodes;
    let gbox = Aabb::from_points(
        (group.first..group.first + group.count).map(|i| tree.pos.pos_at(i as usize)),
    );
    let gcenter = gbox.center();
    let periodic = params.periodic;
    let theta2 = params.theta * params.theta;
    let rc2 = params.r_cut.map(|r| (r + rc_extra) * (r + rc_extra));
    let shift = |p: Vec3| -> Vec3 { shift_to(gcenter, periodic, p) };

    stack.clear();
    stack.push(0);
    while let Some(ni) = stack.pop() {
        stats.visited_nodes += 1;
        let node = &nodes[ni];
        let cell = node.cell();
        let d2 = if params.periodic {
            periodic_dist2_to_aabb_libm(&gbox, &cell)
        } else {
            gbox.dist2_to_aabb(&cell)
        };
        if let Some(rc2) = rc2 {
            if d2 > rc2 {
                continue;
            }
        }
        let side = node.side();
        if d2 > 0.0 && side * side < theta2 * d2 {
            match params.multipole {
                Multipole::Monopole => {
                    list.push(SourceEntry {
                        pos: shift(node.com),
                        mass: node.mass,
                    });
                }
                Multipole::PseudoParticleQuad => {
                    if node.mass > 0.0 {
                        for (p, m) in
                            crate::multipole::pseudo_particles(node.com, node.mass, node.s_moment)
                        {
                            list.push(SourceEntry {
                                pos: shift(p),
                                mass: m,
                            });
                        }
                    }
                }
            }
            if let Some(r) = rec.as_mut() {
                r.push(ListEntry::Node(ni as u32));
            }
            stats.node_entries += 1;
        } else if node.is_leaf {
            for i in node.first..node.first + node.count {
                list.push(SourceEntry {
                    pos: shift(tree.pos.pos_at(i as usize)),
                    mass: tree.m[i as usize],
                });
            }
            if let Some(r) = rec.as_mut() {
                r.push(ListEntry::Particles {
                    first: node.first,
                    count: node.count,
                });
            }
            stats.particle_entries += node.count as u64;
        } else {
            for &c in &node.child {
                if c >= 0 {
                    stack.push(c as usize);
                }
            }
        }
    }
    stats.n_groups = 1;
    stats.sum_ni = group.count as u64;
    stats.sum_nj = list.len() as u64;
    stats.interactions = group.count as u64 * list.len() as u64;
    stats.group_size_buckets[group_size_bucket(group.count)] += 1;
    stats
}

/// The old `GroupWalk::replay_list_into`, pushing entries.
fn replay_impl(
    tree: &ArenaView<'_>,
    params: &TraverseParams,
    group: Group,
    entries: &[ListEntry],
    list: &mut Vec<SourceEntry>,
) -> WalkStats {
    let nodes = tree.nodes;
    let mut stats = WalkStats::default();
    let gbox = Aabb::from_points(
        (group.first..group.first + group.count).map(|i| tree.pos.pos_at(i as usize)),
    );
    let gcenter = gbox.center();
    let periodic = params.periodic;
    let mut pushed = 0u64;
    for e in entries {
        match *e {
            ListEntry::Node(i) => {
                let node = &nodes[i as usize];
                list.push(SourceEntry {
                    pos: shift_to(gcenter, periodic, node.com),
                    mass: node.mass,
                });
                stats.node_entries += 1;
                pushed += 1;
            }
            ListEntry::Particles { first, count } => {
                for i in first..first + count {
                    list.push(SourceEntry {
                        pos: shift_to(gcenter, periodic, tree.pos.pos_at(i as usize)),
                        mass: tree.m[i as usize],
                    });
                }
                stats.particle_entries += count as u64;
                pushed += count as u64;
            }
        }
    }
    stats.n_groups = 1;
    stats.sum_ni = group.count as u64;
    stats.sum_nj = pushed;
    stats.interactions = group.count as u64 * pushed;
    stats.group_size_buckets[group_size_bucket(group.count)] += 1;
    stats
}

#[derive(Default)]
struct Cols {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    m: Vec<f64>,
}

impl Cols {
    fn borrow(&mut self) -> SourceColumns<'_> {
        SourceColumns {
            x: &mut self.x,
            y: &mut self.y,
            z: &mut self.z,
            m: &mut self.m,
        }
    }
}

fn assert_entries_bitwise(got: &[SourceEntry], want: &[SourceEntry], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: list length");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        let bits = |e: &SourceEntry| [e.pos.x, e.pos.y, e.pos.z, e.mass].map(f64::to_bits);
        assert_eq!(bits(g), bits(w), "{what}: entry {k}: {g:?} vs {w:?}");
    }
}

fn assert_columns_bitwise(got: &Cols, want: &[SourceEntry], what: &str) {
    let entries: Vec<SourceEntry> = (0..got.x.len())
        .map(|k| SourceEntry {
            pos: Vec3::new(got.x[k], got.y[k], got.z[k]),
            mass: got.m[k],
        })
        .collect();
    assert_eq!(got.m.len(), got.x.len(), "{what}: ragged columns");
    assert_entries_bitwise(&entries, want, what);
}

/// Every entry point of the new builder against the reference, for every
/// group of `tree` under `params`: fresh, recording with `margin`, and
/// the replay of what was recorded. Returns the summed fresh statistics.
fn assert_walk_matches_reference(
    tree: &ArenaView<'_>,
    params: TraverseParams,
    margin: f64,
    what: &str,
) -> WalkStats {
    let walk = GroupWalk::new(tree, params);
    let groups = walk.groups();
    assert!(!groups.is_empty(), "{what}: no groups");
    let (mut stack, mut ref_stack) = (Vec::new(), Vec::new());
    let mut total = WalkStats::default();
    for (gi, &g) in groups.iter().enumerate() {
        let what = format!("{what}, group {gi}");
        // Fresh.
        let mut want = Vec::new();
        let want_stats = list_impl(tree, &params, g, &mut ref_stack, &mut want, 0.0, None);
        let mut got = Vec::new();
        let plan = Plan::Walk {
            stack: &mut stack,
            margin: 0.0,
            rec: None,
        };
        assert_eq!(
            walk.build(g, plan, &mut got),
            want_stats,
            "{what}: fresh stats"
        );
        assert_entries_bitwise(&got, &want, &format!("{what}: fresh entries"));
        let mut cols = Cols::default();
        assert_eq!(
            walk.list_columns(g, &mut stack, 0.0, None, cols.borrow()),
            want_stats,
            "{what}: fresh column stats"
        );
        assert_columns_bitwise(&cols, &want, &format!("{what}: fresh columns"));
        total.merge(&want_stats);

        // Recording, cutoff prune inflated by `margin`.
        let (mut want, mut want_rec) = (Vec::new(), Vec::new());
        let want_stats = list_impl(
            tree,
            &params,
            g,
            &mut ref_stack,
            &mut want,
            margin,
            Some(&mut want_rec),
        );
        let (mut got, mut got_rec) = (Vec::new(), vec![ListEntry::Node(u32::MAX)]);
        assert_eq!(
            walk.list_for_group_recording(g, &mut stack, &mut got, margin, &mut got_rec),
            want_stats,
            "{what}: recording stats"
        );
        assert_entries_bitwise(&got, &want, &format!("{what}: recording entries"));
        assert_eq!(got_rec, want_rec, "{what}: recorded structure");
        let (mut cols, mut col_rec) = (Cols::default(), vec![ListEntry::Node(u32::MAX)]);
        assert_eq!(
            walk.list_columns(g, &mut stack, margin, Some(&mut col_rec), cols.borrow()),
            want_stats,
            "{what}: recording column stats"
        );
        assert_columns_bitwise(&cols, &want, &format!("{what}: recording columns"));
        assert_eq!(col_rec, want_rec, "{what}: recorded structure (columns)");

        // Replay of the recorded structure (monopole-only).
        if matches!(params.multipole, Multipole::Monopole) {
            let mut want = Vec::new();
            let want_stats = replay_impl(tree, &params, g, &want_rec, &mut want);
            assert_eq!(want_stats.visited_nodes, 0);
            let mut got = Vec::new();
            assert_eq!(
                walk.build(g, Plan::Replay(&want_rec), &mut got),
                want_stats,
                "{what}: replay stats"
            );
            assert_entries_bitwise(&got, &want, &format!("{what}: replay entries"));
            let mut cols = Cols::default();
            assert_eq!(
                walk.replay_columns(g, &want_rec, cols.borrow()),
                want_stats,
                "{what}: replay column stats"
            );
            assert_columns_bitwise(&cols, &want, &format!("{what}: replay columns"));
            // The explicit-column adapter, handed the tree's own columns.
            // (copies, so that it cannot be reading the walk's).
            let (x, y, z, m) = (
                tree.pos.x.to_vec(),
                tree.pos.y.to_vec(),
                tree.pos.z.to_vec(),
                tree.m.to_vec(),
            );
            let mut cols = Cols::default();
            let stats = walk.replay_list_columns(
                (&x, &y, &z, &m),
                g,
                &want_rec,
                &mut cols.x,
                &mut cols.y,
                &mut cols.z,
                &mut cols.m,
            );
            assert_eq!(stats, want_stats, "{what}: explicit-column replay stats");
            assert_columns_bitwise(&cols, &want, &format!("{what}: explicit-column replay"));
        }
    }
    total
}

/// The tree of a snapshot, held to the reference; returns the summed
/// fresh statistics.
fn against_reference(
    pos: &[Vec3],
    mass: &[f64],
    root: Aabb,
    params: TraverseParams,
    margin: f64,
    what: &str,
) -> WalkStats {
    let tree = SnapshotTree::build(pos, mass, root, TreeParams::default());
    assert_walk_matches_reference(&tree.view(), params, margin, what)
}

/// Eight Gaussian-ish clumps holding 60 % of the bodies over a uniform
/// background — the benchmark's shape.
fn clustered(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = TestLcg::new(seed);
    let centres: Vec<Vec3> = (0..8).map(|_| rng.next_vec3()).collect();
    (0..n)
        .map(|i| {
            if i % 5 < 3 {
                // Sum of three uniforms: bell-shaped, bounded.
                let mut bell = || (rng.next_f64() + rng.next_f64() + rng.next_f64() - 1.5) * 0.04;
                let d = Vec3::new(bell(), bell(), bell());
                greem_math::wrap01(centres[i % 8] + d)
            } else {
                rng.next_vec3()
            }
        })
        .collect()
}

fn masses(n: usize) -> Vec<f64> {
    (0..n).map(|i| (1.0 + (i % 5) as f64) / n as f64).collect()
}

fn periodic(theta: f64, group_size: usize, r_cut: f64) -> TraverseParams {
    TraverseParams {
        theta,
        group_size,
        r_cut: Some(r_cut),
        periodic: true,
        multipole: Multipole::Monopole,
    }
}

#[test]
fn uniform_matches_reference() {
    let pos = rand_positions(1500, 5);
    let s = against_reference(
        &pos,
        &masses(1500),
        Aabb::UNIT,
        periodic(0.5, 24, 3.0 / 16.0),
        0.0,
        "uniform",
    );
    assert!(s.node_entries > 0 && s.particle_entries > 0);
}

#[test]
fn clustered_with_margin_matches_reference() {
    let pos = clustered(3000, 9);
    let s = against_reference(
        &pos,
        &masses(3000),
        Aabb::UNIT,
        periodic(0.5, 32, 3.0 / 16.0),
        0.1 * 3.0 / 16.0,
        "clustered, margin > 0",
    );
    assert!(s.node_entries > 0 && s.particle_entries > 0);
}

/// Particles within 1e-12 of both faces, on the faces, and on `−0.0`:
/// every list holds wrapped images, and the zero's sign must survive.
#[test]
fn face_hugging_matches_reference() {
    let mut rng = TestLcg::new(31);
    let face = |rng: &mut TestLcg| match (rng.next_f64() * 6.0) as u32 {
        0 => 0.0,
        1 => -0.0,
        2 => rng.next_f64() * 1e-12,
        3 => 1.0 - rng.next_f64() * 1e-12 - f64::EPSILON,
        4 => 0.5,
        _ => rng.next_f64(),
    };
    let pos: Vec<Vec3> = (0..1200)
        .map(|_| Vec3::new(face(&mut rng), face(&mut rng), face(&mut rng)))
        .collect();
    assert!(pos.iter().all(|p| p.x < 1.0 && p.y < 1.0 && p.z < 1.0));
    let m = masses(pos.len());
    for group_size in [1, 16] {
        against_reference(
            &pos,
            &m,
            Aabb::UNIT,
            periodic(0.6, group_size, 0.2),
            0.02,
            "face-hugging",
        );
    }
}

#[test]
fn theta_zero_matches_reference() {
    let pos = rand_positions(400, 17);
    let s = against_reference(
        &pos,
        &masses(400),
        Aabb::UNIT,
        periodic(0.0, 16, 0.25),
        0.01,
        "theta = 0",
    );
    assert_eq!(s.node_entries, 0);
}

#[test]
fn isolated_boundary_matches_reference() {
    let pos = clustered(1200, 23);
    let open = TraverseParams {
        periodic: false,
        ..periodic(0.5, 24, 3.0 / 16.0)
    };
    against_reference(&pos, &masses(1200), Aabb::UNIT, open, 0.01, "isolated");
    let no_cutoff = TraverseParams {
        r_cut: None,
        ..open
    };
    against_reference(
        &pos,
        &masses(1200),
        Aabb::UNIT,
        no_cutoff,
        0.0,
        "isolated, no cutoff",
    );
}

#[test]
fn pseudo_particle_quadrupole_matches_reference() {
    let pos = clustered(1000, 29);
    let quad = TraverseParams {
        multipole: Multipole::PseudoParticleQuad,
        ..periodic(0.8, 24, 0.25)
    };
    let s = against_reference(&pos, &masses(1000), Aabb::UNIT, quad, 0.0, "quadrupole");
    assert!(
        s.sum_nj > s.node_entries + s.particle_entries,
        "4 sources a node"
    );
}

/// `group_size = 1` (groups are the leaves), and a sparse tree whose oversized leaves degenerate
/// to per-particle groups.
#[test]
fn single_particle_groups_match_reference() {
    let pos = rand_positions(300, 37);
    let s = against_reference(
        &pos,
        &masses(300),
        Aabb::UNIT,
        periodic(0.5, 1, 0.2),
        0.0,
        "group_size = 1",
    );
    assert!(s.group_size_buckets[0] > 0, "some leaves hold one particle");
    let sparse = rand_positions(6, 41);
    let s = against_reference(
        &sparse,
        &masses(6),
        Aabb::UNIT,
        periodic(0.5, 64, 0.3),
        0.05,
        "sparse",
    );
    assert_eq!(s.n_groups, 6, "one oversized leaf, a group per particle");
}

/// A root box that is not the unit cube has cells that are *not* exact
/// as stored; the builder must recompute them the reference's way.
#[test]
fn non_unit_root_box_matches_reference() {
    let root = Aabb::new(Vec3::splat(0.1), Vec3::splat(0.7));
    let pos: Vec<Vec3> = rand_positions(800, 43)
        .into_iter()
        .map(|p| Vec3::splat(0.1) + p * 0.6)
        .collect();
    against_reference(
        &pos,
        &masses(800),
        root,
        periodic(0.5, 16, 0.15),
        0.01,
        "non-unit root, periodic",
    );
}

/// The fact the periodic descent relies on: in a tree rooted on the unit
/// cube, down to the deepest level the Morton keys resolve, a node's
/// stored centre and `2·half` are bit for bit the centre and extent of
/// the box `Node::cell()` rebuilds from them.
#[test]
fn dyadic_cells_are_exact_as_stored() {
    // Coincident pairs force the build to its depth limit.
    let mut pos = clustered(4000, 47);
    let deep: Vec<Vec3> = pos
        .iter()
        .take(64)
        .map(|&p| p + Vec3::splat(1e-9))
        .collect();
    pos.extend(deep.iter().map(|&p| greem_math::wrap01(p)));
    let params = TreeParams { leaf_capacity: 1 };
    let tree = SnapshotTree::build(&pos, &masses(pos.len()), Aabb::UNIT, params);
    let mut deepest = 1.0f64;
    for node in tree.nodes() {
        let cell = node.cell();
        assert_eq!(cell.center(), node.center, "centre of {cell:?}");
        assert_eq!(
            cell.extent(),
            Vec3::splat(node.side()),
            "extent of {cell:?}"
        );
        deepest = deepest.min(node.half);
    }
    assert!(
        deepest <= 2f64.powi(-20),
        "depth reached: half = {deepest:e}"
    );
}
