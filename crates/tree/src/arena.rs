//! Persistent arena octree over borrowed SoA particle columns.
//!
//! [`Octree::build`](crate::Octree::build) copies and Morton-sorts the
//! particle snapshot on every call — at one build per PP subcycle those
//! gathers and fresh `Vec`s dominate the tree cost. [`TreeArena`] splits
//! construction in two and keeps every buffer alive across steps
//! (grow-only, `clear()` + rebuild):
//!
//! 1. [`sort`](TreeArena::sort) computes the `(MortonKey, slot)` order
//!    for the caller's position columns and returns the permutation;
//! 2. the caller physically permutes its own columns into that order
//!    (the `ParticleStore` becomes Morton-resident — *that* is the sort
//!    the tree would otherwise redo);
//! 3. [`build`](TreeArena::build) constructs the node arena directly
//!    over the now-sorted columns, borrowing instead of gathering.
//!
//! The node builders are shared with `Octree` (generic over
//! [`PosRead`](crate::build::PosRead)), so for the same input order the
//! arena's nodes are **bitwise identical** to `Octree::build`'s.

use greem_math::{Aabb, MortonKey, Vec3};
use rayon::prelude::*;

use crate::build::{build_arena, make_node, Node, PosRead, SoaPos, TreeParams, PAR_BUILD_CUTOFF};
use crate::traverse::TreeSource;

/// A persistent flat-arena octree; see the module docs for the
/// two-phase protocol.
#[derive(Debug)]
pub struct TreeArena {
    root_box: Aabb,
    nodes: Vec<Node>,
    keys: Vec<MortonKey>,
    sorted_keys: Vec<MortonKey>,
    order: Vec<u32>,
}

impl Default for TreeArena {
    fn default() -> Self {
        TreeArena {
            root_box: Aabb::UNIT,
            nodes: Vec::new(),
            keys: Vec::new(),
            sorted_keys: Vec::new(),
            order: Vec::new(),
        }
    }
}

/// Borrowed view pairing the arena's nodes with the caller's sorted SoA
/// columns — the [`TreeSource`] a `GroupWalk` traverses without any
/// copies.
#[derive(Clone, Copy)]
pub struct ArenaView<'a> {
    pub(crate) nodes: &'a [Node],
    pub(crate) x: &'a [f64],
    pub(crate) y: &'a [f64],
    pub(crate) z: &'a [f64],
    pub(crate) m: &'a [f64],
}

impl TreeSource for ArenaView<'_> {
    fn nodes(&self) -> &[Node] {
        self.nodes
    }
    fn n_particles(&self) -> usize {
        self.x.len()
    }
    #[inline]
    fn pos_at(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }
    #[inline]
    fn mass_at(&self, i: usize) -> f64 {
        self.m[i]
    }
}

impl TreeArena {
    /// An empty arena; buffers grow on first use and persist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Phase 1: compute the Morton `(key, slot)` sort of the given
    /// position columns inside `root_box` (expanded to a cube, like
    /// `Octree::build`). Returns the permutation: sorted slot `k` is
    /// input row `order[k]`. The caller must permute its columns by this
    /// order before calling [`build`](Self::build).
    pub fn sort(&mut self, x: &[f64], y: &[f64], z: &[f64], root_box: Aabb) -> &[u32] {
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), z.len());
        let n = x.len();
        let parallel = n >= PAR_BUILD_CUTOFF;
        let side = root_box.max_extent().max(f64::MIN_POSITIVE);
        let root_box = Aabb::new(
            root_box.center() - Vec3::splat(0.5 * side),
            root_box.center() + Vec3::splat(0.5 * side),
        );
        self.root_box = root_box;
        let scale = Vec3::splat(1.0 / side);
        let key_of = |p: Vec3| {
            let q = (p - root_box.lo).hadamard(scale);
            debug_assert!(
                (-1e-9..1.0 + 1e-9).contains(&q.x)
                    && (-1e-9..1.0 + 1e-9).contains(&q.y)
                    && (-1e-9..1.0 + 1e-9).contains(&q.z),
                "particle outside root box: {p:?}"
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
            self.keys = (0..n)
                .into_par_iter()
                .map(|i| key_of(Vec3::new(x[i], y[i], z[i])))
                .collect();
            let keys = &self.keys;
            self.order
                .par_sort_unstable_by_key(|&i| (keys[i as usize], i));
            self.sorted_keys = self.order.par_iter().map(|&i| keys[i as usize]).collect();
        } else {
            self.keys
                .extend((0..n).map(|i| key_of(Vec3::new(x[i], y[i], z[i]))));
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
        let center = self.root_box.center();
        let half = self.root_box.max_extent() * 0.5;
        let parallel = n >= PAR_BUILD_CUTOFF;
        let splitting_root = n > params.leaf_capacity && params.max_depth > 0;
        if parallel && splitting_root {
            self.build_parallel_root(x, y, z, m, center, half, &params);
        } else {
            let pos = SoaPos { x, y, z };
            build_arena(
                &mut self.nodes,
                &self.sorted_keys,
                &pos,
                m,
                0,
                n,
                0,
                center,
                half,
                &params,
            );
        }
    }

    /// Root node plus eight parallel per-octant subtrees, concatenated
    /// in octant order with rebased child indices — the same layout as
    /// the serial DFS (see `Octree::build_parallel_root`). Sub-arena
    /// buffers are reused across calls.
    #[allow(clippy::too_many_arguments)]
    fn build_parallel_root(
        &mut self,
        x: &[f64],
        y: &[f64],
        z: &[f64],
        m: &[f64],
        center: Vec3,
        half: f64,
        params: &TreeParams,
    ) {
        let n = x.len();
        let pos = SoaPos { x, y, z };
        let mut root = make_node(&pos, m, 0, n, center, half);
        root.is_leaf = false;
        self.nodes.push(root);
        let keys = &self.sorted_keys;
        let mut ranges: Vec<(u8, usize, usize)> = Vec::with_capacity(8);
        let mut start = 0;
        while start < n {
            let oct = keys[start].octant_at_level(0);
            let mut end = start + 1;
            while end < n && keys[end].octant_at_level(0) == oct {
                end += 1;
            }
            ranges.push((oct, start, end));
            start = end;
        }
        let quarter = half * 0.5;
        let subs: Vec<(u8, Vec<Node>)> = ranges
            .into_par_iter()
            .map(|(oct, first, last)| {
                let off = Vec3::new(
                    if oct & 0b100 != 0 { quarter } else { -quarter },
                    if oct & 0b010 != 0 { quarter } else { -quarter },
                    if oct & 0b001 != 0 { quarter } else { -quarter },
                );
                let mut sub = Vec::new();
                build_arena(
                    &mut sub,
                    keys,
                    &SoaPos { x, y, z },
                    m,
                    first,
                    last,
                    1,
                    center + off,
                    quarter,
                    params,
                );
                (oct, sub)
            })
            .collect();
        for (oct, sub) in subs {
            let offset = self.nodes.len() as i32;
            self.nodes[0].child[oct as usize] = offset;
            self.nodes.extend(sub.into_iter().map(|mut node| {
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

    /// The (cubified) root box of the last sort.
    pub fn root_box(&self) -> Aabb {
        self.root_box
    }

    /// Pair the arena with the caller's sorted columns for traversal.
    pub fn view<'a>(
        &'a self,
        x: &'a [f64],
        y: &'a [f64],
        z: &'a [f64],
        m: &'a [f64],
    ) -> ArenaView<'a> {
        ArenaView {
            nodes: &self.nodes,
            x,
            y,
            z,
            m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Octree;
    use greem_math::testutil::rand_positions;

    fn columns(pos: &[Vec3]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (
            pos.iter().map(|p| p.x).collect(),
            pos.iter().map(|p| p.y).collect(),
            pos.iter().map(|p| p.z).collect(),
        )
    }

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

    /// Sort + permute + build over columns must reproduce `Octree::build`
    /// bitwise — same permutation, same nodes — both below and above the
    /// parallel-build cutoff.
    #[test]
    fn arena_matches_octree_bitwise() {
        for n in [300usize, 5000] {
            let pos = rand_positions(n, 7);
            let masses: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64 * 0.25).collect();
            let reference = Octree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());

            let (x, y, z) = columns(&pos);
            let mut arena = TreeArena::new();
            let order: Vec<u32> = arena.sort(&x, &y, &z, Aabb::UNIT).to_vec();
            assert_eq!(&order[..], reference.orig_index());
            let gather = |c: &[f64]| -> Vec<f64> { order.iter().map(|&i| c[i as usize]).collect() };
            let (sx, sy, sz) = (gather(&x), gather(&y), gather(&z));
            let sm = gather(&masses);
            arena.build(&sx, &sy, &sz, &sm, TreeParams::default());
            assert_nodes_bitwise(arena.nodes(), reference.nodes());
            assert_eq!(arena.root_box().lo, reference.root_box().lo);

            let view = arena.view(&sx, &sy, &sz, &sm);
            for (slot, &oi) in order.iter().enumerate() {
                assert_eq!(view.pos_at(slot), pos[oi as usize]);
                assert_eq!(view.mass_at(slot), masses[oi as usize]);
            }
        }
    }

    /// Rebuilding in place (the persistent-buffer path) gives the same
    /// nodes as a fresh arena.
    #[test]
    fn rebuild_reuses_buffers_identically() {
        let n = 4000;
        let pos_a = rand_positions(n, 11);
        let pos_b = rand_positions(n, 13);
        let masses = vec![1.0; n];

        let run = |arena: &mut TreeArena, pos: &[Vec3]| -> Vec<Node> {
            let (x, y, z) = columns(pos);
            let order: Vec<u32> = arena.sort(&x, &y, &z, Aabb::UNIT).to_vec();
            let gather = |c: &[f64]| -> Vec<f64> { order.iter().map(|&i| c[i as usize]).collect() };
            let (sx, sy, sz) = (gather(&x), gather(&y), gather(&z));
            arena.build(&sx, &sy, &sz, &masses, TreeParams::default());
            arena.nodes().to_vec()
        };

        let mut reused = TreeArena::new();
        run(&mut reused, &pos_a); // dirty the buffers
        let warm = run(&mut reused, &pos_b);
        let mut fresh = TreeArena::new();
        let cold = run(&mut fresh, &pos_b);
        assert_nodes_bitwise(&warm, &cold);
    }

    /// After moving particles in place, `refresh_monopoles` matches the
    /// exactly recomputed monopole of every node to tight tolerance
    /// (child aggregation reassociates the sums).
    #[test]
    fn refresh_monopoles_tracks_moved_particles() {
        let n = 600;
        let pos = rand_positions(n, 17);
        let masses: Vec<f64> = (0..n).map(|i| 0.5 + (i % 3) as f64).collect();
        let (x, y, z) = columns(&pos);
        let mut arena = TreeArena::new();
        let order: Vec<u32> = arena.sort(&x, &y, &z, Aabb::UNIT).to_vec();
        let gather = |c: &[f64]| -> Vec<f64> { order.iter().map(|&i| c[i as usize]).collect() };
        let (mut sx, sy, sz) = (gather(&x), gather(&y), gather(&z));
        let sm = gather(&masses);
        arena.build(&sx, &sy, &sz, &sm, TreeParams::default());

        // Nudge x-coordinates in place (particles stay inside the box).
        for v in sx.iter_mut() {
            *v = (*v * 0.98) + 0.005;
        }
        arena.refresh_monopoles(&sx, &sy, &sz, &sm);
        for node in arena.nodes() {
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

    #[test]
    fn empty_arena() {
        let mut arena = TreeArena::new();
        let order = arena.sort(&[], &[], &[], Aabb::UNIT);
        assert!(order.is_empty());
        arena.build(&[], &[], &[], &[], TreeParams::default());
        assert!(arena.nodes().is_empty());
    }
}
