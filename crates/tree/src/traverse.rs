//! Barnes' modified (group) tree traversal building shared interaction
//! lists, with the TreePM cutoff pruning.

use greem_math::{min_image_in_box, nearest_image, Aabb, Vec3};

use crate::arena::ArenaView;
use crate::build::{Node, SoaPos};

/// The multipole order of accepted nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Multipole {
    /// Centre-of-mass only — GreeM's production choice (§II: small θ
    /// makes the monopole sufficient).
    #[default]
    Monopole,
    /// Monopole + quadrupole via the pseudo-particle method: each
    /// accepted node contributes four point masses reproducing its
    /// second-moment tensor (see [`crate::multipole`]). Costs 4× the
    /// kernel work per accepted node but permits a much larger θ at
    /// equal accuracy — the ablation the design document calls for.
    PseudoParticleQuad,
}

/// Traversal parameters.
#[derive(Debug, Clone, Copy)]
pub struct TraverseParams {
    /// Opening angle θ: a node of side ℓ at distance d is accepted as a
    /// multipole when `ℓ < θ·d`. θ = 0 forces full direct summation.
    pub theta: f64,
    /// Target group size ⟨Ni⟩: groups are the maximal tree nodes holding
    /// at most this many particles (paper: ~100 on K, ~500 on GPUs).
    pub group_size: usize,
    /// Short-range cutoff: nodes entirely farther than `r_cut` from the
    /// group are skipped (their `g_P3M` force is identically zero).
    /// `None` disables pruning (pure-tree mode).
    pub r_cut: Option<f64>,
    /// Minimum-image geometry on the unit torus (periodic boundary).
    /// Requires `r_cut` plus the group extent to stay well under half
    /// the box, which the paper's `r_cut = 3/N_PM^(1/3)` guarantees.
    pub periodic: bool,
    /// Multipole order of accepted nodes.
    pub multipole: Multipole,
}

impl Default for TraverseParams {
    fn default() -> Self {
        TraverseParams {
            theta: 0.5,
            group_size: 100,
            r_cut: None,
            periodic: true,
            multipole: Multipole::Monopole,
        }
    }
}

/// One entry of a group's interaction list: a source position (already
/// shifted to the group's periodic image) and its mass. Either a real
/// particle or an accepted node's centre of mass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceEntry {
    pub pos: Vec3,
    pub mass: f64,
}

/// One recorded interaction-list entry, in tree coordinates rather than
/// evaluated positions: a node index (accepted multipole) or a
/// contiguous slot range (opened leaf). Recording the *structure* of the
/// walk instead of its values lets a later subcycle replay the list
/// against moved particles and refreshed node monopoles — the
/// interaction-list reuse of Kawai, Fukushige & Makino (1999).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListEntry {
    /// An accepted node's multipole (monopole-only on replay).
    Node(u32),
    /// An opened leaf: particles at sorted slots `first..first+count`.
    Particles { first: u32, count: u32 },
}

/// A particle group sharing one interaction list: a contiguous range of
/// the tree's Morton-sorted particle slots. Usually a tree node's range;
/// degenerates to single particles when a periodic group would otherwise
/// be too large for an unambiguous minimum image (sparse trees).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    /// First sorted particle slot.
    pub first: u32,
    /// Number of particles.
    pub count: u32,
}

/// Walk statistics in the units the paper reports: ⟨Ni⟩ = mean group
/// size, ⟨Nj⟩ = mean interaction-list length, and the total pairwise
/// interaction count Σ Ni·Nj whose product with 51 flops gives the flop
/// count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WalkStats {
    pub n_groups: u64,
    pub sum_ni: u64,
    pub sum_nj: u64,
    /// Σ over groups of Ni·Nj.
    pub interactions: u64,
    /// Particle entries across all lists.
    pub particle_entries: u64,
    /// Multipole (node) entries across all lists.
    pub node_entries: u64,
    /// Tree nodes examined during list construction (opened, accepted or
    /// pruned) — the traversal-cost half of the auto-tuner's objective.
    /// Zero for replayed lists, which is the point of replaying.
    pub visited_nodes: u64,
    /// Power-of-two histogram of group sizes: bucket `k < 11` counts
    /// groups with `2^(k-1) < Ni ≤ 2^k`; bucket 11 is overflow
    /// (`Ni > 1024`). Published as the `walk_group_size` registry
    /// histogram.
    pub group_size_buckets: [u64; GROUP_SIZE_BUCKETS],
}

/// Number of buckets in [`WalkStats::group_size_buckets`].
pub const GROUP_SIZE_BUCKETS: usize = 12;

/// Histogram bucket for a group of `count` particles.
fn group_size_bucket(count: u32) -> usize {
    let mut b = 0usize;
    while b + 1 < GROUP_SIZE_BUCKETS && (1u64 << b) < count as u64 {
        b += 1;
    }
    b
}

impl WalkStats {
    /// Mean group size ⟨Ni⟩.
    pub fn mean_ni(&self) -> f64 {
        if self.n_groups == 0 {
            0.0
        } else {
            self.sum_ni as f64 / self.n_groups as f64
        }
    }

    /// Mean interaction list length ⟨Nj⟩.
    pub fn mean_nj(&self) -> f64 {
        if self.n_groups == 0 {
            0.0
        } else {
            self.sum_nj as f64 / self.n_groups as f64
        }
    }

    /// Merge statistics from another walk (e.g. another rank).
    pub fn merge(&mut self, o: &WalkStats) {
        self.n_groups += o.n_groups;
        self.sum_ni += o.sum_ni;
        self.sum_nj += o.sum_nj;
        self.interactions += o.interactions;
        self.particle_entries += o.particle_entries;
        self.node_entries += o.node_entries;
        self.visited_nodes += o.visited_nodes;
        for (a, b) in self
            .group_size_buckets
            .iter_mut()
            .zip(&o.group_size_buckets)
        {
            *a += b;
        }
    }
}

#[cfg(feature = "obs")]
impl greem_obs::Observe for WalkStats {
    /// Feeds `walk_*` counters (raw sums, mergeable across ranks) plus the
    /// derived ⟨Ni⟩/⟨Nj⟩ gauges the paper reports.
    fn observe(&self, reg: &mut greem_obs::Registry) {
        reg.counter_add("walk_groups", self.n_groups as f64);
        reg.counter_add("walk_sum_ni", self.sum_ni as f64);
        reg.counter_add("walk_sum_nj", self.sum_nj as f64);
        reg.counter_add("walk_interactions", self.interactions as f64);
        reg.counter_add("walk_particle_entries", self.particle_entries as f64);
        reg.counter_add("walk_node_entries", self.node_entries as f64);
        reg.counter_add("walk_visited_nodes", self.visited_nodes as f64);
        reg.gauge_set("walk_mean_ni", self.mean_ni());
        reg.gauge_set("walk_mean_nj", self.mean_nj());
        // Full ⟨Ni⟩ distribution, not just the mean: bucket k's
        // representative value is its upper bound 2^k (2048 for the
        // overflow bucket), so the histogram `sum` is an upper estimate.
        const BOUNDS: [f64; 11] = [
            1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
        ];
        for (k, &n) in self.group_size_buckets.iter().enumerate() {
            if n > 0 {
                let rep = if k < BOUNDS.len() { BOUNDS[k] } else { 2048.0 };
                reg.hist_observe_n("walk_group_size", &BOUNDS, rep, n);
            }
        }
    }
}

/// The kernel's four source columns (`greem_kernels::SourceList`'s
/// fields), borrowed: the list builder appends each source straight onto
/// them.
pub struct SourceColumns<'a> {
    pub x: &'a mut Vec<f64>,
    pub y: &'a mut Vec<f64>,
    pub z: &'a mut Vec<f64>,
    pub m: &'a mut Vec<f64>,
}

/// Where a list builder writes: the kernel's columns (the drivers) or an
/// array of [`SourceEntry`] (the adapters tests and probes read).
trait Sink {
    fn len(&self) -> usize;
    fn push(&mut self, pos: Vec3, mass: f64);
}

/// Sources a [`Columns`] sink holds back before appending them.
const CHUNK: usize = 64;

/// [`SourceColumns`] behind a small stack buffer: a source costs four
/// stores and a counter, and the columns grow a chunk at a time, where
/// four `Vec::push`es reload and check four headers per source.
struct Columns<'a> {
    out: SourceColumns<'a>,
    held: usize,
    buf: [[f64; CHUNK]; 4],
}

impl<'a> Columns<'a> {
    fn new(out: SourceColumns<'a>) -> Self {
        Columns {
            out,
            held: 0,
            buf: [[0.0; CHUNK]; 4],
        }
    }

    fn flush(&mut self) {
        let Columns { out, held, buf } = self;
        out.x.extend_from_slice(&buf[0][..*held]);
        out.y.extend_from_slice(&buf[1][..*held]);
        out.z.extend_from_slice(&buf[2][..*held]);
        out.m.extend_from_slice(&buf[3][..*held]);
        *held = 0;
    }
}

impl Sink for Columns<'_> {
    fn len(&self) -> usize {
        self.out.x.len() + self.held
    }
    #[inline(always)]
    fn push(&mut self, pos: Vec3, mass: f64) {
        if self.held >= CHUNK {
            self.flush();
        }
        let k = self.held;
        self.buf[0][k] = pos.x;
        self.buf[1][k] = pos.y;
        self.buf[2][k] = pos.z;
        self.buf[3][k] = mass;
        self.held = k + 1;
    }
}

impl Sink for Vec<SourceEntry> {
    fn len(&self) -> usize {
        Vec::len(self)
    }
    #[inline(always)]
    fn push(&mut self, pos: Vec3, mass: f64) {
        Vec::push(self, SourceEntry { pos, mass });
    }
}

/// What drives one list build: a tree descent or a recorded structure.
enum Plan<'a> {
    /// Walk the tree from the root with the cutoff prune inflated by
    /// `margin`, recording the list's structure into `rec` if given.
    Walk {
        stack: &'a mut Vec<usize>,
        margin: f64,
        rec: Option<&'a mut Vec<ListEntry>>,
    },
    /// Re-emit a recorded structure; opening decisions stay frozen.
    Replay(&'a [ListEntry]),
}

/// The emitting half of a list build: sources shifted to the periodic
/// image nearest the group centre by whole box lengths only, so
/// unwrapped coordinates stay bit-exact and wrapped ones are exactly
/// `p ± 1` (exact in f64 for p ∈ [0,1]) — a group's own particle stays
/// identical to its target copy and the kernel's self-pair mask fires.
struct Emitter<'a, S> {
    tree: &'a ArenaView<'a>,
    sink: &'a mut S,
    gcenter: Vec3,
    periodic: bool,
    multipole: Multipole,
    node_entries: u64,
    particle_entries: u64,
}

/// `p` at its periodic image nearest `gcenter`. Most sources lie within
/// half a box of the centre on every axis, where `round` is zero and
/// `p − round` is `p`: one test, no arithmetic. A zero coordinate goes
/// the long way — `round` signs its zero, and subtracting `−0.0` turns a
/// `−0.0` coordinate into `+0.0`.
#[inline(always)]
fn image(gcenter: Vec3, periodic: bool, p: Vec3) -> Vec3 {
    if !periodic {
        return p;
    }
    let t = p - gcenter;
    let near = |t: f64, p: f64| t.abs() < 0.5 && p != 0.0;
    if near(t.x, p.x) && near(t.y, p.y) && near(t.z, p.z) {
        return p;
    }
    Vec3::new(
        nearest_image(p.x, gcenter.x),
        nearest_image(p.y, gcenter.y),
        nearest_image(p.z, gcenter.z),
    )
}

impl<S: Sink> Emitter<'_, S> {
    /// An accepted node's multipole.
    #[inline(always)]
    fn node(&mut self, node: &Node) {
        match self.multipole {
            Multipole::Monopole => {
                let p = image(self.gcenter, self.periodic, node.com);
                self.sink.push(p, node.mass);
            }
            Multipole::PseudoParticleQuad => self.pseudo_particles(node),
        }
        self.node_entries += 1;
    }

    /// The ablation's expansion, kept out of the monopole walk's loop.
    #[inline(never)]
    fn pseudo_particles(&mut self, node: &Node) {
        if node.mass > 0.0 {
            for (p, m) in crate::multipole::pseudo_particles(node.com, node.mass, node.s_moment) {
                self.sink.push(image(self.gcenter, self.periodic, p), m);
            }
        }
    }

    /// An opened leaf: every particle of sorted slots
    /// `first..first+count` (including the group's own when the leaf is
    /// the group or an ancestor — intra-group forces are computed
    /// directly, and the kernel's self-pair mask discards i == j).
    #[inline(always)]
    fn particles(&mut self, first: u32, count: u32) {
        for i in first as usize..(first + count) as usize {
            let p = image(self.gcenter, self.periodic, self.tree.pos.pos_at(i));
            self.sink.push(p, self.tree.m[i]);
        }
        self.particle_entries += count as u64;
    }
}

/// A group walk over the arena tree: finds the particle groups and
/// builds each group's shared interaction list.
pub struct GroupWalk<'t> {
    tree: &'t ArenaView<'t>,
    params: TraverseParams,
}

impl<'t> GroupWalk<'t> {
    /// Bind a walk configuration to a tree.
    pub fn new(tree: &'t ArenaView<'t>, params: TraverseParams) -> Self {
        assert!(params.theta >= 0.0, "theta must be non-negative");
        assert!(params.group_size >= 1);
        GroupWalk { tree, params }
    }

    /// The largest periodic group cell side for which the group-centre
    /// minimum image is provably the per-target minimum image for every
    /// in-cutoff source: `(half-diagonal of the group box) + r_cut` must
    /// stay below half the box, i.e. `side < (0.5 − r_cut)·2/√3`.
    fn max_group_side(&self) -> f64 {
        if !self.params.periodic {
            return f64::INFINITY;
        }
        match self.params.r_cut {
            Some(rc) => {
                assert!(
                    rc < 0.5,
                    "periodic traversal needs r_cut < box/2 (got {rc})"
                );
                (0.5 - rc) * 2.0 / 3f64.sqrt()
            }
            // Without a cutoff the distant periodic images are handled
            // approximately anyway (a pure periodic tree needs Ewald
            // sums); keep groups to a quarter box.
            None => 0.25,
        }
    }

    /// The particle groups: maximal tree-node ranges with
    /// `count ≤ group_size` whose cells are small enough for an
    /// unambiguous periodic image; oversized sparse leaves degenerate to
    /// per-particle groups. Together they tile the slots `0..n` exactly,
    /// in no particular order.
    pub fn groups(&self) -> Vec<Group> {
        let mut out = Vec::new();
        if self.tree.nodes.is_empty() {
            return out;
        }
        let max_side = self.max_group_side();
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            let node = &self.tree.nodes[i];
            let small = node.side() <= max_side;
            if small && (node.count as usize <= self.params.group_size || node.is_leaf) {
                out.push(Group {
                    first: node.first,
                    count: node.count,
                });
            } else if !node.is_leaf {
                for &c in &node.child {
                    if c >= 0 {
                        stack.push(c as usize);
                    }
                }
            } else {
                // Oversized leaf (sparse region): one group per particle
                // so each gets its own exact minimum image.
                for p in node.first..node.first + node.count {
                    out.push(Group { first: p, count: 1 });
                }
            }
        }
        out
    }

    /// Visit every group with its interaction list. The visitor receives
    /// the group (a sorted-slot range) and the list; the list buffer is
    /// reused between groups. Returns the aggregate walk statistics.
    pub fn for_each_group(&self, mut visit: impl FnMut(Group, &[SourceEntry])) -> WalkStats {
        let mut stats = WalkStats::default();
        let mut list: Vec<SourceEntry> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for group in self.groups() {
            list.clear();
            let (stack, margin, rec) = (&mut stack, 0.0, None);
            let s = self.build(group, Plan::Walk { stack, margin, rec }, &mut list);
            stats.merge(&s);
            visit(group, &list);
        }
        stats
    }

    /// Build one group's interaction list onto the kernel's source
    /// columns (appended; callers clear between groups). `stack` is a
    /// reusable scratch buffer. With `rec`, the list's *structure* is
    /// recorded too (cleared first) so a later subcycle can
    /// [`replay_columns`](Self::replay_columns) it without re-walking
    /// the tree, and the cutoff prune is inflated by `margin` so sources
    /// that drift into range before the replay are already on the list
    /// — they contribute exactly zero force while beyond `r_cut`
    /// (`g_P3M ≡ 0` there), so the inflation is accuracy-neutral on the
    /// fresh pass. Returns the statistics of this single group — this is
    /// the re-entrant building block for data-parallel walks (`greem`
    /// runs one group per rayon task, mirroring the paper's per-process
    /// OpenMP threading of the traversal).
    pub fn list_columns(
        &self,
        group: Group,
        stack: &mut Vec<usize>,
        margin: f64,
        rec: Option<&mut Vec<ListEntry>>,
        out: SourceColumns<'_>,
    ) -> WalkStats {
        self.build_columns(group, Plan::Walk { stack, margin, rec }, out)
    }

    /// Re-evaluate a recorded list against the tree's *current*
    /// positions and (refreshed) node monopoles, onto the kernel's
    /// source columns. The walk's opening decisions are frozen at record
    /// time; only positions move. Replay is monopole-only — the
    /// pseudo-particle expansion would need refreshed second moments.
    pub fn replay_columns(
        &self,
        group: Group,
        entries: &[ListEntry],
        out: SourceColumns<'_>,
    ) -> WalkStats {
        self.build_columns(group, Plan::Replay(entries), out)
    }

    /// Recording [`list_columns`](Self::list_columns) into an array of
    /// [`SourceEntry`].
    pub fn list_for_group_recording(
        &self,
        group: Group,
        stack: &mut Vec<usize>,
        list: &mut Vec<SourceEntry>,
        margin: f64,
        rec: &mut Vec<ListEntry>,
    ) -> WalkStats {
        let rec = Some(rec);
        self.build(group, Plan::Walk { stack, margin, rec }, list)
    }

    /// [`replay_columns`](Self::replay_columns) reading particles from
    /// explicit position and mass columns instead of the walk's own
    /// (whose nodes it keeps).
    #[allow(clippy::too_many_arguments)]
    pub fn replay_list_columns(
        &self,
        (x, y, z, m): (&[f64], &[f64], &[f64], &[f64]),
        group: Group,
        entries: &[ListEntry],
        ox: &mut Vec<f64>,
        oy: &mut Vec<f64>,
        oz: &mut Vec<f64>,
        om: &mut Vec<f64>,
    ) -> WalkStats {
        let (nodes, pos) = (self.tree.nodes, SoaPos { x, y, z });
        let view = ArenaView { nodes, pos, m };
        let out = SourceColumns {
            x: ox,
            y: oy,
            z: oz,
            m: om,
        };
        GroupWalk::new(&view, self.params).replay_columns(group, entries, out)
    }

    fn build_columns(&self, group: Group, plan: Plan<'_>, out: SourceColumns<'_>) -> WalkStats {
        let mut out = Columns::new(out);
        let stats = self.build(group, plan, &mut out);
        out.flush();
        stats
    }

    /// The one list builder behind every entry point above: group
    /// geometry once, then `plan` decides which nodes and leaves the
    /// [`Emitter`] appends to `sink`.
    fn build<S: Sink>(&self, group: Group, plan: Plan<'_>, sink: &mut S) -> WalkStats {
        let nodes = self.tree.nodes;
        let params = &self.params;
        // Tight bounding box of the group's particles.
        let gbox = Aabb::from_points(
            (group.first..group.first + group.count).map(|i| self.tree.pos.pos_at(i as usize)),
        );
        let gcenter = gbox.center();
        let before = sink.len();
        let mut emit = Emitter {
            tree: self.tree,
            sink,
            gcenter,
            periodic: params.periodic,
            multipole: params.multipole,
            node_entries: 0,
            particle_entries: 0,
        };
        let mut stats = WalkStats::default();
        match plan {
            Plan::Replay(entries) => {
                debug_assert!(
                    matches!(params.multipole, Multipole::Monopole),
                    "list replay is monopole-only"
                );
                for e in entries {
                    match *e {
                        ListEntry::Node(i) => emit.node(&nodes[i as usize]),
                        ListEntry::Particles { first, count } => emit.particles(first, count),
                    }
                }
            }
            Plan::Walk {
                stack,
                margin,
                mut rec,
            } => {
                if let Some(r) = rec.as_mut() {
                    r.clear();
                }
                let theta2 = params.theta * params.theta;
                let rc2 = params.r_cut.map(|r| (r + margin) * (r + margin));
                let gext = gbox.extent();
                // Recursive bisection of the unit cube gives cells whose
                // centre and half side are dyadic rationals with few
                // bits, so `center ∓ half`, their mean and their
                // difference are all exact: the cell's centre and side
                // *as stored* are what `Node::cell()` would give back
                // (`dyadic_cells_are_exact_as_stored` proves it per
                // node), and with the group's centre in the box too the
                // minimum image needs no range test. Any other root box,
                // or a stray particle, takes the general forms.
                let in_box = |v: f64| (0.0..=1.0).contains(&v);
                let unit = nodes[0].center == Vec3::splat(0.5)
                    && nodes[0].half == 0.5
                    && in_box(gcenter.x)
                    && in_box(gcenter.y)
                    && in_box(gcenter.z);
                stack.clear();
                stack.push(0);
                while let Some(ni) = stack.pop() {
                    stats.visited_nodes += 1;
                    let node = &nodes[ni];
                    let side = node.side();
                    let d2 = if !params.periodic {
                        gbox.dist2_to_aabb(&node.cell())
                    } else if unit {
                        // `Aabb::periodic_dist2_to_aabb`'s per-axis term.
                        // The compare-select clamp squares to the same
                        // bits as `.max(0.0)` for every input.
                        let gap = |g: f64, c: f64, gext: f64| {
                            let d = min_image_in_box(g, c).abs() - 0.5 * (gext + side);
                            if d > 0.0 {
                                d
                            } else {
                                0.0
                            }
                        };
                        let dx = gap(gcenter.x, node.center.x, gext.x);
                        let dy = gap(gcenter.y, node.center.y, gext.y);
                        let dz = gap(gcenter.z, node.center.z, gext.z);
                        dx * dx + dy * dy + dz * dz
                    } else {
                        gbox.periodic_dist2_to_aabb(&node.cell())
                    };
                    // Cutoff pruning: the whole cell is beyond the
                    // short-range force's support.
                    if rc2.is_some_and(|rc2| d2 > rc2) {
                        continue;
                    }
                    if d2 > 0.0 && side * side < theta2 * d2 {
                        // Well separated: accept the multipole.
                        emit.node(node);
                        if let Some(r) = rec.as_mut() {
                            r.push(ListEntry::Node(ni as u32));
                        }
                    } else if node.is_leaf {
                        emit.particles(node.first, node.count);
                        if let Some(r) = rec.as_mut() {
                            r.push(ListEntry::Particles {
                                first: node.first,
                                count: node.count,
                            });
                        }
                    } else {
                        for &c in &node.child {
                            if c >= 0 {
                                stack.push(c as usize);
                            }
                        }
                    }
                }
            }
        }
        stats.node_entries = emit.node_entries;
        stats.particle_entries = emit.particle_entries;
        let pushed = (emit.sink.len() - before) as u64;
        stats.n_groups = 1;
        stats.sum_ni = group.count as u64;
        stats.sum_nj = pushed;
        stats.interactions = group.count as u64 * pushed;
        stats.group_size_buckets[group_size_bucket(group.count)] += 1;
        stats
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::TreeParams;
    use crate::SnapshotTree;
    use greem_math::{min_image_vec, ForceSplit};

    use greem_math::testutil::rand_positions;

    /// Brute-force periodic short-range accelerations (minimum image).
    fn direct_pp(pos: &[Vec3], masses: &[f64], split: &ForceSplit) -> Vec<Vec3> {
        let n = pos.len();
        let mut acc = vec![Vec3::ZERO; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let dr = min_image_vec(pos[j], pos[i]);
                acc[i] += split.pp_accel(dr, masses[j]);
            }
        }
        acc
    }

    /// Group-walk accelerations via the reference pair force.
    fn walk_pp(
        tree: &SnapshotTree,
        n: usize,
        params: TraverseParams,
        split: &ForceSplit,
    ) -> (Vec<Vec3>, WalkStats) {
        let view = tree.view();
        let walk = GroupWalk::new(&view, params);
        let mut acc = vec![Vec3::ZERO; n];
        let stats = walk.for_each_group(|group, list| {
            for slot in group.first..group.first + group.count {
                let p = view.pos.pos_at(slot as usize);
                let mut a = Vec3::ZERO;
                for s in list {
                    a += split.pp_accel(s.pos - p, s.mass);
                }
                acc[tree.order()[slot as usize] as usize] = a;
            }
        });
        (acc, stats)
    }

    #[test]
    fn theta_zero_is_exact() {
        let n = 150;
        let pos = rand_positions(n, 7);
        let masses = vec![1.0 / n as f64; n];
        let split = ForceSplit::new(0.3, 0.0);
        let tree = SnapshotTree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        let params = TraverseParams {
            theta: 0.0,
            group_size: 16,
            r_cut: Some(0.3),
            periodic: true,
            multipole: Default::default(),
        };
        let (acc, stats) = walk_pp(&tree, n, params, &split);
        let want = direct_pp(&pos, &masses, &split);
        for i in 0..n {
            assert!(
                (acc[i] - want[i]).norm() <= 1e-12 * want[i].norm().max(1e-12),
                "i={i}: {:?} vs {:?}",
                acc[i],
                want[i]
            );
        }
        assert_eq!(stats.node_entries, 0, "theta=0 must accept no multipoles");
        assert_eq!(stats.sum_ni, n as u64);
    }

    #[test]
    fn moderate_theta_is_accurate() {
        let n = 300;
        let pos = rand_positions(n, 11);
        let masses = vec![1.0 / n as f64; n];
        let split = ForceSplit::new(0.4, 0.0);
        let tree = SnapshotTree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        let params = TraverseParams {
            theta: 0.4,
            group_size: 32,
            r_cut: Some(0.4),
            periodic: true,
            multipole: Default::default(),
        };
        let (acc, stats) = walk_pp(&tree, n, params, &split);
        let want = direct_pp(&pos, &masses, &split);
        let mut rel = Vec::new();
        for i in 0..n {
            let w = want[i].norm();
            if w > 1e-10 {
                rel.push((acc[i] - want[i]).norm() / w);
            }
        }
        let mean: f64 = rel.iter().sum::<f64>() / rel.len() as f64;
        let max = rel.iter().cloned().fold(0.0, f64::max);
        assert!(mean < 5e-3, "mean rel force error {mean}");
        assert!(max < 0.1, "max rel force error {max}");
        assert!(
            stats.node_entries > 0,
            "θ=0.4 should accept some multipoles"
        );
    }

    #[test]
    fn groups_partition_particles() {
        let n = 500;
        let pos = rand_positions(n, 13);
        let masses = vec![1.0; n];
        let tree = SnapshotTree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        let view = tree.view();
        let walk = GroupWalk::new(
            &view,
            TraverseParams {
                group_size: 40,
                ..Default::default()
            },
        );
        let groups = walk.groups();
        let mut covered = vec![false; n];
        for g in &groups {
            for i in g.first..g.first + g.count {
                assert!(!covered[i as usize], "slot {i} in two groups");
                covered[i as usize] = true;
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "groups must cover all particles"
        );
    }

    #[test]
    fn cutoff_pruning_shrinks_lists() {
        let n = 400;
        let pos = rand_positions(n, 17);
        let masses = vec![1.0 / n as f64; n];
        let tree = SnapshotTree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        let base = TraverseParams {
            theta: 0.5,
            group_size: 32,
            r_cut: None,
            periodic: true,
            multipole: Default::default(),
        };
        let with_cut = TraverseParams {
            r_cut: Some(0.15),
            ..base
        };
        let s_all = GroupWalk::new(&tree.view(), base).for_each_group(|_, _| {});
        let s_cut = GroupWalk::new(&tree.view(), with_cut).for_each_group(|_, _| {});
        assert!(
            s_cut.mean_nj() < 0.7 * s_all.mean_nj(),
            "pruned ⟨Nj⟩ {} !< unpruned {}",
            s_cut.mean_nj(),
            s_all.mean_nj()
        );
    }

    #[test]
    fn periodic_wrap_forces() {
        // Two particles hugging opposite faces interact through the
        // boundary when periodic, and are pruned by the cutoff when not.
        let pos = vec![Vec3::new(0.01, 0.5, 0.5), Vec3::new(0.99, 0.5, 0.5)];
        let masses = vec![1.0, 1.0];
        let split = ForceSplit::new(0.2, 0.0);
        let tree = SnapshotTree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        let params = TraverseParams {
            theta: 0.5,
            group_size: 1,
            r_cut: Some(0.2),
            periodic: true,
            multipole: Default::default(),
        };
        let (acc, _) = walk_pp(&tree, 2, params, &split);
        // Attraction through the x boundary: particle 0 pulled to -x.
        assert!(acc[0].x < -1.0, "wrap force missing: {:?}", acc[0]);
        assert!((acc[0] + acc[1]).norm() < 1e-10 * acc[0].norm(), "momentum");
        let open = TraverseParams {
            periodic: false,
            multipole: Default::default(),
            ..params
        };
        let (acc_open, _) = walk_pp(&tree, 2, open, &split);
        assert_eq!(acc_open[0], Vec3::ZERO, "open boundary must not wrap");
    }

    #[test]
    fn group_size_tradeoff_matches_paper_shape() {
        // Larger ⟨Ni⟩ → fewer groups and longer lists ⟨Nj⟩ (§II).
        let n = 1000;
        let pos = rand_positions(n, 23);
        let masses = vec![1.0 / n as f64; n];
        let tree = SnapshotTree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        let view = tree.view();
        let mut last_nj = 0.0;
        let mut last_groups = u64::MAX;
        for gs in [8usize, 32, 128] {
            let stats = GroupWalk::new(
                &view,
                TraverseParams {
                    theta: 0.5,
                    group_size: gs,
                    r_cut: Some(0.2),
                    periodic: true,
                    multipole: Default::default(),
                },
            )
            .for_each_group(|_, _| {});
            assert!(stats.mean_nj() >= last_nj, "⟨Nj⟩ should grow with ⟨Ni⟩");
            assert!(stats.n_groups <= last_groups, "groups should shrink");
            last_nj = stats.mean_nj();
            last_groups = stats.n_groups;
        }
    }

    #[test]
    fn quadrupole_beats_monopole_at_fixed_theta() {
        // The pseudo-particle expansion must cut the force error at the
        // same opening angle (it adds the quadrupole term the monopole
        // walk drops).
        let n = 400;
        let pos = rand_positions(n, 29);
        let masses = vec![1.0 / n as f64; n];
        let split = ForceSplit::new(0.4, 0.0);
        let tree = SnapshotTree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        let want = direct_pp(&pos, &masses, &split);
        let rms = |multipole: Multipole| -> f64 {
            let params = TraverseParams {
                theta: 0.9,
                group_size: 32,
                r_cut: Some(0.4),
                periodic: true,
                multipole,
            };
            let (acc, stats) = walk_pp(&tree, n, params, &split);
            assert!(stats.node_entries > 0, "θ=0.9 must accept nodes");
            let mut e = 0.0;
            let mut c = 0;
            for i in 0..n {
                let w = want[i].norm();
                if w > 1e-10 {
                    e += ((acc[i] - want[i]).norm() / w).powi(2);
                    c += 1;
                }
            }
            (e / c as f64).sqrt()
        };
        let mono = rms(Multipole::Monopole);
        let quad = rms(Multipole::PseudoParticleQuad);
        assert!(
            quad < 0.5 * mono,
            "quadrupole rms error {quad} should clearly beat monopole {mono}"
        );
    }

    #[test]
    fn quadrupole_lists_are_longer_but_same_node_count() {
        let n = 300;
        let pos = rand_positions(n, 31);
        let masses = vec![1.0; n];
        let tree = SnapshotTree::build(&pos, &masses, Aabb::UNIT, TreeParams::default());
        let view = tree.view();
        let stats_of = |multipole: Multipole| {
            GroupWalk::new(
                &view,
                TraverseParams {
                    theta: 0.7,
                    group_size: 32,
                    r_cut: Some(0.3),
                    periodic: true,
                    multipole,
                },
            )
            .for_each_group(|_, _| {})
        };
        let mono = stats_of(Multipole::Monopole);
        let quad = stats_of(Multipole::PseudoParticleQuad);
        assert_eq!(mono.node_entries, quad.node_entries, "same accepted nodes");
        // Each accepted node contributes 4 list entries instead of 1.
        assert_eq!(
            quad.sum_nj,
            mono.sum_nj + 3 * mono.node_entries,
            "pseudo-particle expansion factor"
        );
    }

    #[test]
    fn empty_and_single_particle() {
        let tree = SnapshotTree::build(&[], &[], Aabb::UNIT, TreeParams::default());
        let stats =
            GroupWalk::new(&tree.view(), TraverseParams::default()).for_each_group(|_, _| {});
        assert_eq!(stats.n_groups, 0);

        let tree = SnapshotTree::build(
            &[Vec3::splat(0.5)],
            &[1.0],
            Aabb::UNIT,
            TreeParams::default(),
        );
        let split = ForceSplit::new(0.2, 0.0);
        let (acc, stats) = walk_pp(&tree, 1, TraverseParams::default(), &split);
        assert_eq!(stats.n_groups, 1);
        assert_eq!(acc[0], Vec3::ZERO);
    }
}
