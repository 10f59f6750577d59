//! The one tree: a persistent arena octree over borrowed, Morton-sorted
//! SoA particle columns. This module alone decides the particle order
//! and drives the node build.
//!
//! [`TreeArena`] splits construction in two and keeps every buffer alive
//! across steps (grow-only, `clear()` + rebuild), because at one build
//! per PP subcycle gathered copies and fresh `Vec`s would dominate the
//! tree cost:
//!
//! 1. [`sort`](TreeArena::sort) computes the `(MortonKey, slot)` order
//!    for the caller's position columns and returns the permutation;
//! 2. the caller physically permutes its own columns into that order
//!    (the `ParticleStore` becomes Morton-resident — *that* is the sort
//!    the tree would otherwise redo);
//! 3. [`build`](TreeArena::build) constructs the node arena directly
//!    over the now-sorted columns, borrowing instead of gathering.
//!
//! Key computation, the sort and the eight top-level subtrees run as
//! rayon tasks above [`PAR_BUILD_CUTOFF`] particles. The sort key is the
//! total order `(MortonKey, slot)` and the eight sub-arenas are
//! concatenated in octant order, which reproduces the serial DFS node
//! layout exactly: [`TreeArena::serial`] gives bitwise the same tree at
//! any thread count.
//!
//! [`SnapshotTree`] is the protocol run once over a caller's `Vec3`
//! snapshot, for callers with no resident store of their own.

use greem_math::{Aabb, MortonKey, Vec3};
use rayon::prelude::*;

use crate::build::{build_arena, make_node, Node, SoaPos, Sorted, TreeParams, PAR_BUILD_CUTOFF};

/// A persistent flat-arena octree; see the module docs for the
/// two-phase protocol.
#[derive(Debug)]
pub struct TreeArena {
    root_box: Aabb,
    nodes: Vec<Node>,
    keys: Vec<MortonKey>,
    sorted_keys: Vec<MortonKey>,
    order: Vec<u32>,
    /// Never take the rayon paths (the equivalence tests' reference).
    serial: bool,
}

impl Default for TreeArena {
    fn default() -> Self {
        TreeArena {
            root_box: Aabb::UNIT,
            nodes: Vec::new(),
            keys: Vec::new(),
            sorted_keys: Vec::new(),
            order: Vec::new(),
            serial: false,
        }
    }
}

/// Borrowed view pairing the arena's nodes with the caller's sorted SoA
/// columns — what a `GroupWalk` traverses, without any copies.
#[derive(Clone, Copy)]
pub struct ArenaView<'a> {
    pub(crate) nodes: &'a [Node],
    pub(crate) pos: SoaPos<'a>,
    pub(crate) m: &'a [f64],
}

impl TreeArena {
    /// An empty arena; buffers grow on first use and persist.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena that sorts and builds on the calling thread whatever the
    /// particle count: the reference the parallel paths are held to, bit
    /// for bit.
    pub fn serial() -> Self {
        TreeArena {
            serial: true,
            ..Self::default()
        }
    }

    /// Phase 1: compute the Morton `(key, slot)` sort of the given
    /// position columns inside `root_box` — the unit cube for periodic
    /// runs, any bounding box for open-boundary ones; it is expanded to
    /// a cube, because recursive bisection must produce the cubic cells
    /// the opening criterion's `ℓ/d` assumes. Returns the permutation:
    /// sorted slot `k` is input row `order[k]`; equal keys keep input
    /// order, so the permutation is unique. The caller must permute its
    /// columns by this order before calling [`build`](Self::build).
    ///
    /// # Panics
    /// If a position lies outside `root_box` (beyond a 1e-9 rounding
    /// tolerance): its clamped key would file it in a boundary cell that
    /// does not contain it, and the walk's cell-distance prune could
    /// then drop partners that are within the cutoff.
    pub fn sort(&mut self, x: &[f64], y: &[f64], z: &[f64], root_box: Aabb) -> &[u32] {
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), z.len());
        let n = x.len();
        let parallel = !self.serial && n >= PAR_BUILD_CUTOFF;
        let side = root_box.max_extent().max(f64::MIN_POSITIVE);
        let root_box = Aabb::new(
            root_box.center() - Vec3::splat(0.5 * side),
            root_box.center() + Vec3::splat(0.5 * side),
        );
        self.root_box = root_box;
        let scale = Vec3::splat(1.0 / side);
        let key_of = |i: usize| {
            let p = Vec3::new(x[i], y[i], z[i]);
            let q = (p - root_box.lo).hadamard(scale);
            let inside = |v: f64| (-1e-9..1.0 + 1e-9).contains(&v);
            assert!(
                inside(q.x) && inside(q.y) && inside(q.z),
                "particle outside root box: {p:?} not in {root_box:?}"
            );
            MortonKey::from_unit_pos(q.x, q.y, q.z)
        };
        self.keys.clear();
        self.order.clear();
        self.order.extend(0..n as u32);
        if parallel {
            // The vendored rayon shim has no collect-into-buffer, so the
            // parallel path pays two fresh Vecs; the serial path (the
            // common per-rank size) is fully allocation-free once warm.
            self.keys = (0..n).into_par_iter().map(key_of).collect();
            let keys = &self.keys;
            self.order
                .par_sort_unstable_by_key(|&i| (keys[i as usize], i));
            self.sorted_keys = self.order.par_iter().map(|&i| keys[i as usize]).collect();
        } else {
            self.keys.extend((0..n).map(key_of));
            let keys = &self.keys;
            self.order.sort_unstable_by_key(|&i| (keys[i as usize], i));
            self.sorted_keys.clear();
            self.sorted_keys
                .extend(self.order.iter().map(|&i| keys[i as usize]));
        }
        &self.order
    }

    /// Phase 2: build the node arena over columns the caller has already
    /// permuted into the order returned by [`sort`](Self::sort).
    pub fn build(&mut self, x: &[f64], y: &[f64], z: &[f64], m: &[f64], params: TreeParams) {
        let n = x.len();
        assert_eq!(n, self.sorted_keys.len(), "build before sort?");
        assert_eq!(n, m.len());
        self.nodes.clear();
        if n == 0 {
            return;
        }
        let src = Sorted {
            keys: &self.sorted_keys,
            pos: SoaPos { x, y, z },
            mass: m,
            params,
        };
        let center = self.root_box.center();
        let half = self.root_box.max_extent() * 0.5;
        let parallel = !self.serial && n >= PAR_BUILD_CUTOFF;
        let splitting_root = n > params.leaf_capacity && params.max_depth > 0;
        if parallel && splitting_root {
            Self::build_parallel_root(&mut self.nodes, &src, center, half);
        } else {
            build_arena(&mut self.nodes, &src, 0, n, 0, center, half);
        }
    }

    /// Build the root node, then the eight top-level subtrees as
    /// parallel tasks. Sub-arenas are concatenated in octant order with
    /// child indices rebased, reproducing the serial DFS layout exactly
    /// (a serial DFS emits each octant's whole subtree contiguously, in
    /// octant order, right after the root).
    fn build_parallel_root(nodes: &mut Vec<Node>, src: &Sorted<'_>, center: Vec3, half: f64) {
        let n = src.mass.len();
        let mut root = make_node(&src.pos, src.mass, 0, n, center, half);
        root.is_leaf = false;
        nodes.push(root);
        let octants: Vec<_> = src.children(0, n, 0, center, half).collect();
        let subs: Vec<(u8, Vec<Node>)> = octants
            .into_par_iter()
            .map(|(oct, first, last, c)| {
                let mut sub = Vec::new();
                build_arena(&mut sub, src, first, last, 1, c, half * 0.5);
                (oct, sub)
            })
            .collect();
        for (oct, sub) in subs {
            let offset = nodes.len() as i32;
            nodes[0].child[oct as usize] = offset;
            nodes.extend(sub.into_iter().map(|mut node| {
                for c in node.child.iter_mut() {
                    if *c >= 0 {
                        *c += offset;
                    }
                }
                node
            }));
        }
    }

    /// Refresh every node's monopole (mass + centre of mass) from the
    /// current column values without re-sorting or re-building — what a
    /// list *replay* needs after particles drifted in place. Bottom-up
    /// child aggregation (the DFS arena puts parents before children, so
    /// reverse index order visits children first): leaves direct-sum,
    /// internal nodes combine children — O(n + nodes) instead of the
    /// full build's O(n·depth). Second moments are left stale; replay is
    /// monopole-only.
    pub fn refresh_monopoles(&mut self, x: &[f64], y: &[f64], z: &[f64], m: &[f64]) {
        let pos = SoaPos { x, y, z };
        for idx in (0..self.nodes.len()).rev() {
            let node = &self.nodes[idx];
            let (first, last) = (node.first as usize, (node.first + node.count) as usize);
            let (mass, com) = if node.is_leaf {
                let mut mm = 0.0;
                let mut com = Vec3::ZERO;
                for (i, &mi) in m.iter().enumerate().take(last).skip(first) {
                    mm += mi;
                    com += pos.pos_at(i) * mi;
                }
                (mm, com)
            } else {
                let mut mm = 0.0;
                let mut com = Vec3::ZERO;
                for &c in &node.child {
                    if c >= 0 {
                        let ch = &self.nodes[c as usize];
                        mm += ch.mass;
                        com += ch.com * ch.mass;
                    }
                }
                (mm, com)
            };
            let node = &mut self.nodes[idx];
            node.mass = mass;
            node.com = if mass > 0.0 {
                com / mass
            } else {
                // Massless clump: centroid fallback, like `make_node`.
                (first..last).map(|i| pos.pos_at(i)).sum::<Vec3>() / node.count as f64
            };
        }
    }

    /// The node arena (index 0 is the root when non-empty).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The permutation computed by the last [`sort`](Self::sort).
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Pair the arena with the caller's sorted columns for traversal.
    pub fn view<'a>(
        &'a self,
        x: &'a [f64],
        y: &'a [f64],
        z: &'a [f64],
        m: &'a [f64],
    ) -> ArenaView<'a> {
        let (nodes, pos) = (&self.nodes[..], SoaPos { x, y, z });
        ArenaView { nodes, pos, m }
    }
}

/// The tree of one snapshot: Morton-sorted copies of the caller's
/// particles and the arena built over them (`sort` → gather → `build`),
/// for callers that keep no resident store — baselines, figures,
/// diagnostics, tests. Sorted slot `k` is input particle `order()[k]`:
/// the caller reads positions and masses from its own arrays.
///
/// ```
/// use greem_math::{Aabb, Vec3};
/// use greem_tree::{GroupWalk, SnapshotTree, TraverseParams, TreeParams};
///
/// let pos = vec![Vec3::new(0.2, 0.2, 0.2), Vec3::new(0.8, 0.8, 0.8)];
/// let tree = SnapshotTree::build(&pos, &[1.0, 3.0], Aabb::UNIT, TreeParams::default());
/// assert_eq!(tree.nodes()[0].mass, 4.0);
///
/// let view = tree.view();
/// let walk = GroupWalk::new(&view, TraverseParams {
///     r_cut: Some(0.4),
///     ..Default::default()
/// });
/// let stats = walk.for_each_group(|_group, _interaction_list| {});
/// assert_eq!(stats.sum_ni, 2);
/// ```
#[derive(Debug)]
pub struct SnapshotTree {
    arena: TreeArena,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    m: Vec<f64>,
}

impl SnapshotTree {
    /// Sort and build over `pos`/`mass` inside `root_box`.
    pub fn build(pos: &[Vec3], mass: &[f64], root_box: Aabb, params: TreeParams) -> Self {
        Self::build_in(TreeArena::new(), pos, mass, root_box, params)
    }

    /// [`build`](Self::build) with the caller's arena (a
    /// [`TreeArena::serial`] one, in the equivalence tests).
    pub fn build_in(
        mut arena: TreeArena,
        pos: &[Vec3],
        mass: &[f64],
        root_box: Aabb,
        params: TreeParams,
    ) -> Self {
        assert_eq!(pos.len(), mass.len());
        let col = |f: fn(&Vec3) -> f64| pos.iter().map(f).collect::<Vec<f64>>();
        let (x, y, z) = (col(|p| p.x), col(|p| p.y), col(|p| p.z));
        let order = arena.sort(&x, &y, &z, root_box);
        let gather = |c: &[f64]| order.iter().map(|&i| c[i as usize]).collect::<Vec<f64>>();
        let (x, y, z, m) = (gather(&x), gather(&y), gather(&z), gather(mass));
        arena.build(&x, &y, &z, &m, params);
        SnapshotTree { arena, x, y, z, m }
    }

    /// The tree as a `GroupWalk` takes it.
    pub fn view(&self) -> ArenaView<'_> {
        self.arena.view(&self.x, &self.y, &self.z, &self.m)
    }

    /// The node arena (index 0 is the root when non-empty).
    pub fn nodes(&self) -> &[Node] {
        self.arena.nodes()
    }

    /// For sorted slot `k`, the caller's particle index.
    pub fn order(&self) -> &[u32] {
        self.arena.order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greem_math::testutil::{rand_positions, Fnv1a};

    fn assert_nodes_bitwise(a: &[Node], b: &[Node]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.first, y.first);
            assert_eq!(x.count, y.count);
            assert_eq!(x.child, y.child);
            assert_eq!(x.com, y.com);
            assert_eq!(x.mass, y.mass);
            assert_eq!(x.s_moment, y.s_moment);
            assert_eq!(x.center, y.center);
            assert_eq!(x.half, y.half);
            assert_eq!(x.is_leaf, y.is_leaf);
        }
    }

    fn build_uniform(n: usize, seed: u64) -> (SnapshotTree, Vec<Vec3>) {
        let pos = rand_positions(n, seed);
        let masses = vec![1.0 / n as f64; n];
        let tree = SnapshotTree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        (tree, pos)
    }

    #[test]
    fn root_has_total_mass_and_com() {
        let (tree, pos) = build_uniform(500, 1);
        let root = &tree.nodes()[0];
        assert_eq!(root.count as usize, 500);
        assert!((root.mass - 1.0).abs() < 1e-12);
        let com: Vec3 = pos.iter().copied().sum::<Vec3>() / 500.0;
        assert!((root.com - com).norm() < 1e-12);
    }

    #[test]
    fn children_partition_parent() {
        let (tree, _) = build_uniform(300, 2);
        for node in tree.nodes() {
            if node.is_leaf {
                continue;
            }
            let mut covered = 0u32;
            let mut next = node.first;
            let mut mass = 0.0;
            let mut com = Vec3::ZERO;
            for &c in &node.child {
                if c < 0 {
                    continue;
                }
                let ch = &tree.nodes()[c as usize];
                assert_eq!(ch.first, next, "children must tile the range in order");
                next += ch.count;
                covered += ch.count;
                mass += ch.mass;
                com += ch.com * ch.mass;
            }
            assert_eq!(covered, node.count);
            assert!((mass - node.mass).abs() < 1e-12);
            assert!((com / mass - node.com).norm() < 1e-10);
        }
    }

    #[test]
    fn leaves_respect_capacity() {
        let params = TreeParams {
            leaf_capacity: 4,
            max_depth: 21,
        };
        let pos = rand_positions(200, 3);
        let tree = SnapshotTree::build(&pos, &[1.0; 200], Aabb::UNIT, params);
        for node in tree.nodes() {
            if node.is_leaf {
                assert!(node.count <= 4, "leaf holds {} > 4", node.count);
            }
        }
    }

    #[test]
    fn particles_stay_in_their_cells() {
        let (tree, _) = build_uniform(300, 4);
        for node in tree.nodes() {
            let cell = node.cell();
            for i in node.first..node.first + node.count {
                let p = tree.view().pos.pos_at(i as usize);
                // Allow boundary fuzz: quantisation puts a particle in a
                // definite cell, geometry may disagree by one ULP-cell.
                let d2 = cell.dist2_to_point(p);
                let tol = (1e-6 * node.half).powi(2).max(1e-24);
                assert!(
                    d2 <= tol,
                    "particle {p:?} outside its cell {cell:?} (d2={d2})"
                );
            }
        }
    }

    #[test]
    fn coincident_particles_stop_at_max_depth() {
        // Many particles at the same point cannot be separated: the tree
        // must terminate via max_depth, not recurse forever.
        let pos = vec![Vec3::splat(0.123456); 50];
        let tree = SnapshotTree::build(&pos, &[1.0; 50], Aabb::UNIT, TreeParams::default());
        let deepest = tree
            .nodes()
            .iter()
            .filter(|n| n.is_leaf)
            .map(|n| n.count)
            .max()
            .unwrap();
        assert_eq!(deepest, 50, "all coincident particles end in one leaf");
    }

    #[test]
    fn order_is_a_permutation_the_columns_follow() {
        let pos = rand_positions(128, 5);
        let masses: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let tree = SnapshotTree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        let mut seen = [false; 128];
        for (slot, &oi) in tree.order().iter().enumerate() {
            assert!(!seen[oi as usize]);
            seen[oi as usize] = true;
            assert_eq!(tree.view().pos.pos_at(slot), pos[oi as usize]);
            assert_eq!(tree.m[slot], masses[oi as usize]);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn parallel_build_matches_serial_bitwise() {
        // Above PAR_BUILD_CUTOFF so the parallel path actually runs.
        const N: usize = 5000;
        const { assert!(N >= PAR_BUILD_CUTOFF) };
        let pos = rand_positions(N, 7);
        let masses: Vec<f64> = (0..N).map(|i| 1.0 + (i % 4) as f64 * 0.25).collect();
        let params = TreeParams::default();
        let par = SnapshotTree::build(&pos, &masses, Aabb::UNIT, params);
        let ser = SnapshotTree::build_in(TreeArena::serial(), &pos, &masses, Aabb::UNIT, params);
        assert_eq!(par.order(), ser.order());
        assert_nodes_bitwise(par.nodes(), ser.nodes());
    }

    #[test]
    fn open_boundary_root_box() {
        // Tree over a non-unit box (the open-boundary baseline path).
        let pos = vec![
            Vec3::new(-3.0, 2.0, 10.0),
            Vec3::new(5.0, -1.0, 12.0),
            Vec3::new(0.0, 0.5, 11.0),
        ];
        let bb = Aabb::from_points(pos.iter().copied());
        let root_box = Aabb::new(bb.lo - Vec3::splat(1e-9), bb.hi + Vec3::splat(1e-9));
        let tree = SnapshotTree::build(&pos, &[1.0, 2.0, 3.0], root_box, TreeParams::default());
        assert_eq!(tree.nodes()[0].count, 3);
        assert!((tree.nodes()[0].mass - 6.0).abs() < 1e-12);
    }

    /// The release-build check the Morton sort makes: a body beyond the
    /// root box fails loudly, with its position, instead of being filed
    /// under a clamped key.
    #[test]
    #[should_panic(expected = "particle outside root box: Vec3 { x: 0.5, y: 1.25, z: 0.5 }")]
    fn sort_rejects_a_body_outside_the_root_box() {
        TreeArena::new().sort(&[0.1, 0.5], &[0.1, 1.25], &[0.1, 0.5], Aabb::UNIT);
    }

    /// Rebuilding in place (the persistent-buffer path) gives the same
    /// nodes as a fresh arena.
    #[test]
    fn rebuild_reuses_buffers_identically() {
        let n = 4000;
        let pos_a = rand_positions(n, 11);
        let pos_b = rand_positions(n, 13);
        let masses = vec![1.0; n];

        let run = |arena: TreeArena, pos: &[Vec3]| {
            SnapshotTree::build_in(arena, pos, &masses, Aabb::UNIT, TreeParams::default())
        };
        let dirty = run(TreeArena::new(), &pos_a);
        let warm = run(dirty.arena, &pos_b);
        let cold = run(TreeArena::new(), &pos_b);
        assert_nodes_bitwise(warm.nodes(), cold.nodes());
    }

    /// After moving particles in place, `refresh_monopoles` matches the
    /// exactly recomputed monopole of every node to tight tolerance
    /// (child aggregation reassociates the sums).
    #[test]
    fn refresh_monopoles_tracks_moved_particles() {
        let n = 600;
        let pos = rand_positions(n, 17);
        let masses: Vec<f64> = (0..n).map(|i| 0.5 + (i % 3) as f64).collect();
        let mut tree = SnapshotTree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());

        // Nudge x-coordinates in place (particles stay inside the box).
        for v in tree.x.iter_mut() {
            *v = (*v * 0.98) + 0.005;
        }
        tree.arena
            .refresh_monopoles(&tree.x, &tree.y, &tree.z, &tree.m);
        let (sx, sy, sz, sm) = (&tree.x, &tree.y, &tree.z, &tree.m);
        for node in tree.nodes() {
            let (first, last) = (node.first as usize, (node.first + node.count) as usize);
            let mut mm = 0.0;
            let mut com = Vec3::ZERO;
            for i in first..last {
                mm += sm[i];
                com += Vec3::new(sx[i], sy[i], sz[i]) * sm[i];
            }
            let com = com / mm;
            assert!((node.mass - mm).abs() <= 1e-12 * mm);
            assert!(
                (node.com - com).norm() <= 1e-12,
                "node com {:?} vs direct {:?}",
                node.com,
                com
            );
        }
    }

    /// FNV-1a over the permutation, the root box and every field of
    /// every node, floats by their bits.
    fn golden_hash(pos: &[Vec3], root: Aabb) -> u64 {
        let masses: Vec<f64> = (0..pos.len())
            .map(|i| 1.0 + (i % 4) as f64 * 0.25)
            .collect();
        let tree = SnapshotTree::build(pos, &masses, root, TreeParams::default());
        let mut h = Fnv1a::default();
        for &o in tree.order() {
            h.u64(o as u64);
        }
        let rb = tree.arena.root_box;
        h.f64s(&[rb.lo.x, rb.lo.y, rb.lo.z, rb.hi.x, rb.hi.y, rb.hi.z]);
        for n in tree.nodes() {
            h.u64(n.first as u64);
            h.u64(n.count as u64);
            for c in n.child {
                h.u64(c as u32 as u64);
            }
            h.f64s(&[n.com.x, n.com.y, n.com.z, n.mass]);
            h.f64s(&n.s_moment);
            h.f64s(&[n.center.x, n.center.y, n.center.z, n.half]);
            h.u64(n.is_leaf as u64);
        }
        h.0
    }

    /// Recorded on the tree that still had `Octree` beside the arena
    /// (PR 17's): a change to the sort or the node build that is meant
    /// to keep every bit passes with these untouched.
    #[test]
    fn golden_hashes_of_permutation_and_nodes() {
        let mut coincident = rand_positions(3000, 9);
        for p in coincident.iter_mut().take(1000) {
            *p = Vec3::splat(0.25);
        }
        let off_unit: Vec<Vec3> = rand_positions(800, 43)
            .into_iter()
            .map(|p| Vec3::splat(0.1) + p * 0.6)
            .collect();
        let unit = Aabb::UNIT;
        let cases: [(&str, Vec<Vec3>, Aabb, u64); 6] = [
            ("n = 0", vec![], unit, 0xa100_3fb3_78f1_9538),
            ("n = 1", rand_positions(1, 3), unit, 0x4523_e1ae_fa84_0de0),
            (
                "n = 300",
                rand_positions(300, 7),
                unit,
                0x0e69_d088_76f1_c4d1,
            ),
            (
                "n = 3000, 1000 coincident",
                coincident,
                unit,
                0xa757_f2d3_47e0_51ae,
            ),
            (
                "n = 5000 (parallel build)",
                rand_positions(5000, 7),
                unit,
                0xdf7e_374f_fadf_9dd8,
            ),
            (
                "n = 800, root box [0.1, 0.7]^3",
                off_unit,
                Aabb::new(Vec3::splat(0.1), Vec3::splat(0.7)),
                0xa48c_e09a_1d69_27bf,
            ),
        ];
        const { assert!(5000 >= PAR_BUILD_CUTOFF) };
        let moved: Vec<String> = cases
            .iter()
            .filter_map(|(what, pos, root, want)| {
                let got = golden_hash(pos, *root);
                (got != *want).then(|| format!("{what}: {got:#018x}"))
            })
            .collect();
        assert!(moved.is_empty(), "tree bits moved: {moved:#?}");
    }

    #[test]
    fn empty_arena() {
        let mut arena = TreeArena::new();
        let order = arena.sort(&[], &[], &[], Aabb::UNIT);
        assert!(order.is_empty());
        arena.build(&[], &[], &[], &[], TreeParams::default());
        assert!(arena.nodes().is_empty());
    }
}
