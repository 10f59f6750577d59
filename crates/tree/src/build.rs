//! The octree's nodes and the recursive builder that lays them out over
//! Morton-sorted particle columns, as a DFS arena: a node's whole
//! subtree follows it, octant by octant. Who sorts the particles and who
//! owns the arena is [`crate::arena`]'s business.

use greem_math::{Aabb, MortonKey, Sym3, Vec3};

/// Below this particle count the whole build runs serially — the
/// broadcast/latch overhead of eight subtree tasks outweighs the work.
pub(crate) const PAR_BUILD_CUTOFF: usize = 2048;

/// Borrowed position columns in Morton order.
#[derive(Clone, Copy)]
pub(crate) struct SoaPos<'a> {
    pub x: &'a [f64],
    pub y: &'a [f64],
    pub z: &'a [f64],
}

impl SoaPos<'_> {
    #[inline]
    pub fn pos_at(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }
}

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum particles in a leaf before it splits (unless max depth).
    pub leaf_capacity: usize,
    /// Maximum tree depth (≤ Morton resolution, 21).
    pub max_depth: u32,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            leaf_capacity: 8,
            max_depth: greem_math::morton::MORTON_BITS,
        }
    }
}

/// One octree node. Nodes reference a contiguous range of the
/// Morton-sorted particle columns: a node's particles are always slots
/// `first..first+count`.
#[derive(Debug, Clone)]
pub struct Node {
    /// First particle (index into the sorted arrays).
    pub first: u32,
    /// Particle count.
    pub count: u32,
    /// Child node indices; -1 = absent. Empty octants have no node.
    pub child: [i32; 8],
    /// Centre of mass.
    pub com: Vec3,
    /// Total mass.
    pub mass: f64,
    /// Second central mass moment `Σ m·(r−com)(r−com)ᵀ`, packed
    /// `[xx, xy, xz, yy, yz, zz]` — the raw material of the quadrupole
    /// (pseudo-particle) extension; GreeM's production walk is
    /// monopole-only.
    pub s_moment: Sym3,
    /// Geometric cell centre (cells are cubes from recursive bisection).
    pub center: Vec3,
    /// Half the cell side length.
    pub half: f64,
    /// True when the node holds particles directly (no children).
    pub is_leaf: bool,
}

impl Node {
    /// The geometric cell as an AABB.
    pub fn cell(&self) -> Aabb {
        Aabb::new(
            self.center - Vec3::splat(self.half),
            self.center + Vec3::splat(self.half),
        )
    }

    /// Cell side length `ℓ` used by the opening criterion.
    pub fn side(&self) -> f64 {
        2.0 * self.half
    }
}

/// Node over sorted slots `[first, last)`: moments and geometry, no
/// children yet.
pub(crate) fn make_node(
    pos: &SoaPos<'_>,
    mass: &[f64],
    first: usize,
    last: usize,
    center: Vec3,
    half: f64,
) -> Node {
    let count = last - first;
    debug_assert!(count > 0);
    let mut m = 0.0;
    let mut com = Vec3::ZERO;
    for (i, &w) in mass.iter().enumerate().take(last).skip(first) {
        m += w;
        com += pos.pos_at(i) * w;
    }
    let com = if m > 0.0 {
        com / m
    } else {
        // Massless clump (possible in tests): fall back to centroid.
        (first..last).map(|i| pos.pos_at(i)).sum::<Vec3>() / count as f64
    };
    let mut s_moment = [0.0; 6];
    for (i, &w) in mass.iter().enumerate().take(last).skip(first) {
        let d = pos.pos_at(i) - com;
        s_moment[0] += w * d.x * d.x;
        s_moment[1] += w * d.x * d.y;
        s_moment[2] += w * d.x * d.z;
        s_moment[3] += w * d.y * d.y;
        s_moment[4] += w * d.y * d.z;
        s_moment[5] += w * d.z * d.z;
    }
    Node {
        first: first as u32,
        count: count as u32,
        child: [-1; 8],
        com,
        mass: m,
        s_moment,
        center,
        half,
        is_leaf: true,
    }
}

/// What the recursive build reads: the sorted keys, the particle columns
/// in that order, and the construction parameters.
pub(crate) struct Sorted<'a> {
    pub keys: &'a [MortonKey],
    pub pos: SoaPos<'a>,
    pub mass: &'a [f64],
    pub params: TreeParams,
}

impl Sorted<'_> {
    /// The children of the level-`level` cell `(center, half)` over
    /// sorted slots `[first, last)`, as `(octant, start, end, centre)`:
    /// particles are key-sorted, so each non-empty octant is a
    /// contiguous run of the level's 3-bit digit.
    pub fn children(
        &self,
        first: usize,
        last: usize,
        level: u32,
        center: Vec3,
        half: f64,
    ) -> impl Iterator<Item = (u8, usize, usize, Vec3)> + '_ {
        let quarter = half * 0.5;
        let mut start = first;
        std::iter::from_fn(move || {
            if start >= last {
                return None;
            }
            let oct = self.keys[start].octant_at_level(level);
            let mut end = start + 1;
            while end < last && self.keys[end].octant_at_level(level) == oct {
                end += 1;
            }
            let off = Vec3::new(
                if oct & 0b100 != 0 { quarter } else { -quarter },
                if oct & 0b010 != 0 { quarter } else { -quarter },
                if oct & 0b001 != 0 { quarter } else { -quarter },
            );
            let run = (oct, start, end, center + off);
            start = end;
            Some(run)
        })
    }
}

/// Recursively build the subtree over sorted slots `[first, last)` at
/// `level` into `nodes` (a DFS arena with indices local to `nodes`);
/// returns the subtree root's index.
pub(crate) fn build_arena(
    nodes: &mut Vec<Node>,
    src: &Sorted<'_>,
    first: usize,
    last: usize,
    level: u32,
    center: Vec3,
    half: f64,
) -> i32 {
    let idx = nodes.len();
    nodes.push(make_node(&src.pos, src.mass, first, last, center, half));
    if last - first <= src.params.leaf_capacity || level >= src.params.max_depth {
        return idx as i32;
    }
    nodes[idx].is_leaf = false;
    for (oct, start, end, c) in src.children(first, last, level, center, half) {
        let child = build_arena(nodes, src, start, end, level + 1, c, half * 0.5);
        nodes[idx].child[oct as usize] = child;
    }
    idx as i32
}
