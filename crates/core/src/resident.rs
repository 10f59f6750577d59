//! The memory-resident PP engine: persistent arena tree over the
//! Morton-permuted [`ParticleStore`] and interaction-list caching across
//! the two PP subcycles.
//!
//! One [`ResidentPp`] lives as long as its driver ([`crate::Simulation`]
//! or [`crate::ParallelTreePm`]) and owns every buffer the PP hot path
//! needs, so a steady-state force evaluation allocates (almost) nothing:
//!
//! * **walking pass** ([`ResidentPp::walk`], the one every caller runs)
//!   — stage the store's columns plus any imported ghosts, Morton-sort
//!   them ([`greem_tree::TreeArena::sort`]), physically permute the
//!   store (and any companion acceleration arrays) by the owned rows of
//!   that order, rebuild the node arena in place over the sorted
//!   columns, then walk groups at `cfg.group_size` with the kernel
//!   reading straight from the column slices. Output accelerations land
//!   at their slot index — the store *is* in tree order, so no scatter
//!   through an `orig_index` indirection;
//! * **recorded pass** — a walking pass that additionally records each
//!   group's interaction-list *structure* ([`greem_tree::ListEntry`])
//!   with the cutoff prune inflated by a drift margin. Beyond-cutoff
//!   sources contribute exactly ±0.0 (the kernels mask `ξ ≥ 2` to
//!   signed zero), so the inflation leaves the forces of the recording
//!   pass bitwise identical to an unrecorded walk;
//! * **replay pass** — when every particle moved less than half the
//!   recorded margin since the recording (checked exactly, per
//!   particle, against a position snapshot), skip the sort, permute and
//!   walk entirely: refresh the node monopoles bottom-up and re-run the
//!   kernel over the recorded lists at the current positions. This is
//!   the interaction-list reuse of Kawai, Fukushige & Makino (1999)
//!   applied to the two PP subcycles of the paper's multiple-stepsize
//!   integrator — the second subcycle's walk cost collapses to a
//!   monopole refresh.

use std::cmp::Reverse;
use std::time::{Duration, Instant};

use greem_kernels::{pp_accel_dispatch, SourceList, Targets};
use greem_math::{min_image_vec, Aabb, Vec3};
use greem_tree::{Group, GroupWalk, ListEntry, Multipole, SourceColumns, TreeArena, WalkStats};
use rayon::prelude::*;

use crate::config::TreePmConfig;
use crate::forces::PpTimes;
use crate::store::{permute_vec3, ParticleStore, PermScratch};

/// Per-thread scratch cycled across groups: the walk's stack plus the
/// kernel's SoA target/source buffers, which the walk fills directly.
/// One allocation set per rayon worker instead of several `Vec`s per
/// group keeps the allocator out of the PP hot path (thousands of
/// groups per step).
#[derive(Default)]
struct PpScratch {
    stack: Vec<usize>,
    targets: Targets,
    sources: SourceList,
}

/// One group's share of a pass: its slot range, the output rows it
/// alone writes, and the list it alone records into or replays.
struct GroupTask<'a> {
    group: Group,
    out: &'a mut [Vec3],
    list: Option<&'a mut Vec<ListEntry>>,
}

/// Pair each group with its `&mut` chunk of the slot-indexed `accel`
/// and, when the pass has lists, its `&mut` slot of them. Chunks are
/// split off back to front, so `groups` must tile `0..accel.len()` in
/// descending slot order: `GroupWalk::groups` (which tiles) sorted by
/// `first`, highest first — the order the walk emits whole cells in,
/// and the one `ranks2-step` runs fastest in.
fn group_tasks<'a>(
    groups: &[Group],
    mut accel: &'a mut [Vec3],
    lists: Option<&'a mut [Vec<ListEntry>]>,
) -> Vec<GroupTask<'a>> {
    let mut lists = lists.map(|l| {
        assert_eq!(l.len(), groups.len(), "one list per group");
        l.iter_mut()
    });
    let tasks = groups
        .iter()
        .map(|&group| {
            let (lo, n) = (group.first as usize, group.count as usize);
            assert_eq!(lo + n, accel.len(), "groups must tile the slots");
            let (rest, out) = std::mem::take(&mut accel).split_at_mut(lo);
            accel = rest;
            let list = lists.as_mut().and_then(Iterator::next);
            GroupTask { group, out, list }
        })
        .collect();
    assert!(accel.is_empty(), "groups must tile the slots");
    tasks
}

/// The group loop, once: for every task build (or replay) the group's
/// list onto the kernel's source columns, load its targets from the
/// tree's position columns `(x, y, z)`, run the kernel, write the
/// accelerations to the rows the task owns. `walk_margin` is the cutoff
/// inflation of a walking pass; `None` replays each task's recorded
/// list instead. One rayon task per group, each worker with a scratch
/// of its own — or, given `serial`, every group in turn on the calling
/// thread with that scratch. Adds the per-group traversal and kernel
/// time to `times` and returns the summed statistics.
fn run_groups(
    walk: &GroupWalk<'_>,
    (x, y, z): (&[f64], &[f64], &[f64]),
    cfg: &TreePmConfig,
    walk_margin: Option<f64>,
    tasks: Vec<GroupTask<'_>>,
    serial: Option<&mut PpScratch>,
    times: &mut PpTimes,
) -> WalkStats {
    let split = cfg.split();
    let body = |scr: &mut PpScratch, task: GroupTask<'_>| {
        let t = Instant::now();
        scr.sources.clear();
        let cols = SourceColumns {
            x: &mut scr.sources.x,
            y: &mut scr.sources.y,
            z: &mut scr.sources.z,
            m: &mut scr.sources.m,
        };
        let stats = match (walk_margin, task.list) {
            (Some(margin), rec) => walk.list_columns(task.group, &mut scr.stack, margin, rec, cols),
            (None, Some(list)) => walk.replay_columns(task.group, list, cols),
            (None, None) => unreachable!("a replay pass has a list per group"),
        };
        let traversal = t.elapsed();

        let t = Instant::now();
        let lo = task.group.first as usize;
        let hi = lo + task.group.count as usize;
        scr.targets
            .load_from_slices(&x[lo..hi], &y[lo..hi], &z[lo..hi]);
        pp_accel_dispatch(&mut scr.targets, &scr.sources, &split);
        let force = t.elapsed();
        for (k, a) in task.out.iter_mut().enumerate() {
            *a = scr.targets.accel(k);
        }
        (stats, traversal, force)
    };
    let mut total = WalkStats::default();
    let mut add = |(stats, traversal, force): (WalkStats, Duration, Duration)| {
        total.merge(&stats);
        times.traversal += traversal.as_secs_f64();
        times.force += force.as_secs_f64();
    };
    match serial {
        Some(scr) => tasks.into_iter().for_each(|task| add(body(scr, task))),
        None => {
            let per_group: Vec<_> = tasks
                .into_par_iter()
                .map_init(PpScratch::default, body)
                .collect();
            per_group.into_iter().for_each(add);
        }
    }
    total
}

/// The recorded interaction lists of one PP pass, plus everything the
/// replay-validity check needs.
#[derive(Default)]
struct ListCache {
    valid: bool,
    /// Cutoff inflation the recording walked with; replay is sound while
    /// every particle stays within `margin/2` of its snapshot.
    margin: f64,
    /// The recorded groups (slot ranges into the Morton order frozen at
    /// record time), in descending slot order.
    groups: Vec<Group>,
    /// One recorded list per group; the inner vectors persist across
    /// steps so steady-state recording allocates nothing.
    lists: Vec<Vec<ListEntry>>,
    /// Position snapshot at record time (x, y, z columns, slot-indexed).
    snap: [Vec<f64>; 3],
}

/// The result of one resident PP evaluation.
pub struct PpOutcome {
    /// Short-range acceleration per particle, aligned with the store's
    /// (possibly freshly permuted) row order.
    pub accel: Vec<Vec3>,
    /// Walk statistics of this pass (`visited_nodes == 0` on replay).
    pub walk: WalkStats,
    /// Phase timings (`tree_build` covers sort + permute + arena build,
    /// or the monopole refresh on replay).
    pub times: PpTimes,
    /// Whether this pass replayed cached lists instead of walking.
    pub replayed: bool,
}

/// The persistent PP engine (see the module docs).
#[derive(Default)]
pub struct ResidentPp {
    arena: TreeArena,
    perm: PermScratch,
    cache: ListCache,
    /// Walk and kernel scratch of a serial pass (the parallel driver's).
    scratch: PpScratch,
    // Buffers of the walking pass: the owned + ghost columns (x, y, z,
    // m) as they arrive and Morton-sorted, and which sorted slots are
    // owned rows.
    comb: [Vec<f64>; 4],
    sorted: [Vec<f64>; 4],
    owned: Vec<bool>,
    own_order: Vec<u32>,
}

impl ResidentPp {
    /// A fresh engine with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serial-driver PP evaluation over the whole store. A fresh pass
    /// permutes `store` (and each non-empty companion array) into the
    /// new Morton order; `try_replay` asks for a cached-list replay,
    /// taken only when the cache is valid for the current positions.
    /// `drift_bound` is the largest per-particle displacement of the
    /// drift that preceded this call — the margin budget for the lists
    /// recorded now.
    pub fn compute(
        &mut self,
        cfg: &TreePmConfig,
        store: &mut ParticleStore,
        companions: &mut [&mut Vec<Vec3>],
        try_replay: bool,
        drift_bound: f64,
    ) -> PpOutcome {
        if try_replay && self.replay_valid(cfg, store) {
            return self.replay(cfg, store);
        }
        // Margin: 3× the last drift leaves 1.5× headroom per particle for
        // the next subcycle's (similar-sized) drift; the 0.1·r_cut clamp
        // keeps the inflated prune radius well under the periodic
        // unambiguity bound.
        let record = cfg.list_reuse && matches!(cfg.multipole, Multipole::Monopole);
        let margin = record.then(|| (3.0 * drift_bound).min(0.1 * cfg.r_cut));
        self.walk(cfg, store, &[], companions, margin, false)
    }

    /// Is the cached list set sound for the store's current positions?
    /// Exact check: every particle must sit within `margin/2` (minimum
    /// image) of its recorded snapshot, so that no pair can have crossed
    /// from beyond `r_cut + margin` at record time to inside `r_cut`
    /// now.
    fn replay_valid(&self, cfg: &TreePmConfig, store: &ParticleStore) -> bool {
        let c = &self.cache;
        if !c.valid
            || !cfg.list_reuse
            || !matches!(cfg.multipole, Multipole::Monopole)
            || c.snap[0].len() != store.len()
        {
            return false;
        }
        let lim2 = 0.25 * c.margin * c.margin;
        let (x, y, z) = store.pos_columns();
        let [sx, sy, sz] = &c.snap;
        for i in 0..x.len() {
            let now = Vec3::new(x[i], y[i], z[i]);
            let then = Vec3::new(sx[i], sy[i], sz[i]);
            if min_image_vec(then, now).norm2() > lim2 {
                return false;
            }
        }
        true
    }

    /// Replay the cached lists: refresh node monopoles in place, then
    /// run the kernel over each recorded list at the current positions.
    /// No sort, no permute, no tree walk.
    fn replay(&mut self, cfg: &TreePmConfig, store: &ParticleStore) -> PpOutcome {
        let mut times = PpTimes::default();
        let (x, y, z) = store.pos_columns();
        let m = store.mass_column();
        let t0 = Instant::now();
        self.arena.refresh_monopoles(x, y, z, m);
        times.tree_build = t0.elapsed().as_secs_f64();

        let view = self.arena.view(x, y, z, m);
        let walk = GroupWalk::new(&view, cfg.traverse_params());
        let mut accel = vec![Vec3::ZERO; store.len()];
        let lists = Some(&mut self.cache.lists[..]);
        let tasks = group_tasks(&self.cache.groups, &mut accel, lists);
        let walk = run_groups(&walk, (x, y, z), cfg, None, tasks, None, &mut times);
        PpOutcome {
            accel,
            walk,
            times,
            replayed: true,
        }
    }

    /// The walking pass, once, over the store's rows plus `ghosts`
    /// (the parallel driver's imported boundary bodies; none on the
    /// serial paths). Stages the owned ++ ghost columns, Morton-sorts
    /// them and permutes `store` (and each non-empty companion) by the
    /// owned rows of that order, so the resident layout tracks the
    /// tree; builds the arena over the sorted columns and walks, at
    /// `cfg.group_size`, every group that holds an owned row. With no
    /// ghosts the sorted columns hold exactly the permuted store's
    /// values, so tree, lists and kernel inputs are those of a walk over
    /// the store itself. With `record_margin` the walk's cutoff is
    /// inflated by it and every group's list structure is cached for
    /// replay (replay needs a ghost-free recording: its snapshot must
    /// match the store row for row); without, the cache is dropped.
    /// `serial` runs the groups in turn on the calling thread with the
    /// engine's one scratch (the parallel driver's rank threads already
    /// own the cores) instead of as rayon tasks. Returns accelerations
    /// for the store's rows only, aligned with the permuted store.
    pub fn walk(
        &mut self,
        cfg: &TreePmConfig,
        store: &mut ParticleStore,
        ghosts: &[(Vec3, f64)],
        companions: &mut [&mut Vec<Vec3>],
        record_margin: Option<f64>,
        serial: bool,
    ) -> PpOutcome {
        let mut times = PpTimes::default();
        let n_own = store.len();
        let t0 = Instant::now();
        let (x, y, z) = store.pos_columns();
        for (comb, own) in self.comb.iter_mut().zip([x, y, z, store.mass_column()]) {
            comb.clear();
            comb.extend_from_slice(own);
        }
        for &(p, m) in ghosts {
            for (comb, v) in self.comb.iter_mut().zip([p.x, p.y, p.z, m]) {
                comb.push(v);
            }
        }
        let [x, y, z, _] = &self.comb;
        self.arena.sort(x, y, z, Aabb::UNIT);
        // Owned sub-permutation (order entries < n_own, in slot order)
        // and which slots they are: owned rows keep their slot order, so
        // the owned slots' results, in order, are the store's rows'.
        let order = self.arena.order();
        self.own_order.clear();
        self.own_order
            .extend(order.iter().filter(|&&o| (o as usize) < n_own));
        self.owned.clear();
        self.owned
            .extend(order.iter().map(|&o| (o as usize) < n_own));
        store.permute(&self.own_order, &mut self.perm);
        for c in companions.iter_mut() {
            if !c.is_empty() {
                permute_vec3(c, &self.own_order);
            }
        }
        // Gather the sorted combined columns the arena builds over.
        for (sorted, comb) in self.sorted.iter_mut().zip(&self.comb) {
            sorted.clear();
            sorted.extend(order.iter().map(|&o| comb[o as usize]));
        }
        let [x, y, z, m] = &self.sorted;
        self.arena.build(x, y, z, m, cfg.tree_params());
        times.tree_build = t0.elapsed().as_secs_f64();

        let view = self.arena.view(x, y, z, m);
        let walk = GroupWalk::new(&view, cfg.traverse_params());
        let mut groups = walk.groups();
        groups.sort_unstable_by_key(|g| Reverse(g.first));
        let mut accel = vec![Vec3::ZERO; x.len()];
        let lists = record_margin.map(|_| {
            self.cache.lists.resize_with(groups.len(), Vec::new);
            &mut self.cache.lists[..]
        });
        let mut tasks = group_tasks(&groups, &mut accel, lists);
        // Skip all-ghost groups outright.
        let owned = &self.owned;
        tasks.retain(|t| {
            let lo = t.group.first as usize;
            owned[lo..lo + t.group.count as usize].contains(&true)
        });
        let scr = serial.then_some(&mut self.scratch);
        let margin = Some(record_margin.unwrap_or(0.0));
        let walk = run_groups(&walk, (x, y, z), cfg, margin, tasks, scr, &mut times);

        self.cache.valid = record_margin.is_some();
        if let Some(margin) = record_margin {
            for (snap, now) in self.cache.snap.iter_mut().zip([x, y, z]) {
                snap.clear();
                snap.extend_from_slice(now);
            }
            self.cache.groups = groups;
            self.cache.margin = margin;
        }
        // Owned rows keep their slot order: without the ghost slots the
        // slot-indexed result is the store's, row for row.
        let mut owned = self.owned.iter();
        accel.retain(|_| *owned.next().expect("one flag per slot"));
        PpOutcome {
            accel,
            walk,
            times,
            replayed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::TreePm;
    use crate::particle::Body;

    fn rand_bodies(n: usize, seed: u64) -> Vec<Body> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| Body {
                pos: Vec3::new(next(), next(), next()),
                vel: Vec3::new(next() - 0.5, next() - 0.5, next() - 0.5) * 1e-2,
                mass: (1.0 + (i % 5) as f64) / n as f64,
                id: i as u64,
            })
            .collect()
    }

    /// Recording must not change a single bit: the driver's pass, with
    /// the cutoff inflated by the margin and every list recorded, read
    /// back through the row ids, equals the unrecorded pass of
    /// `TreePm::compute_pp` (whose bits the golden hashes pin) —
    /// beyond-cutoff sources are masked to exact ±0.0 by every kernel.
    #[test]
    fn recording_pass_is_bitwise_identical_to_unrecorded_pass() {
        for list_reuse in [false, true] {
            let cfg = TreePmConfig {
                group_size: 24,
                list_reuse,
                ..TreePmConfig::standard(16)
            };
            let bodies = rand_bodies(230, 7);
            let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
            let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
            let (want, want_walk, _) = TreePm::new(cfg).compute_pp(&pos, &mass);

            let mut store = ParticleStore::from_bodies(&bodies);
            let mut engine = ResidentPp::new();
            let out = engine.compute(&cfg, &mut store, &mut [], false, 1e-3);
            assert!(!out.replayed);
            assert_eq!(engine.cache.valid, list_reuse);
            assert_eq!(out.walk.n_groups, want_walk.n_groups);
            for row in 0..store.len() {
                let orig = store.id_column()[row] as usize;
                assert_eq!(
                    out.accel[row], want[orig],
                    "row {row} (orig {orig}) differs (list_reuse={list_reuse})"
                );
            }
        }
    }

    /// Replay after a small drift must agree with a fresh walk at the
    /// same positions to the frozen-opening-decision tolerance, and must
    /// actually replay (no node visits).
    #[test]
    fn replay_matches_fresh_walk_within_tolerance() {
        let cfg = TreePmConfig {
            group_size: 24,
            ..TreePmConfig::standard(16)
        };
        let bodies = rand_bodies(200, 13);
        let mut store = ParticleStore::from_bodies(&bodies);
        let mut engine = ResidentPp::new();
        // Record at the initial positions.
        let drift = 1e-4 * cfg.r_cut;
        engine.compute(&cfg, &mut store, &mut [], false, drift);
        // Drift: move every particle by less than margin/2.
        let n = store.len();
        let mut moved = store.to_bodies();
        for (i, b) in moved.iter_mut().enumerate() {
            let d = Vec3::new(
                ((i * 37 % 11) as f64 - 5.0) / 10.0,
                ((i * 61 % 13) as f64 - 6.0) / 12.0,
                ((i * 13 % 7) as f64 - 3.0) / 6.0,
            ) * drift;
            b.pos = greem_math::wrap01(b.pos + d);
        }
        let mut store = ParticleStore::from_bodies(&moved);
        let out = engine.compute(&cfg, &mut store, &mut [], true, drift);
        assert!(out.replayed, "cache must be valid after a sub-margin drift");
        assert_eq!(out.walk.visited_nodes, 0, "replay must not walk the tree");

        // Reference: fresh walk at the same (moved) positions.
        let pos: Vec<Vec3> = (0..n).map(|i| store.pos(i)).collect();
        let mass = store.masses();
        let (want, _, _) = TreePm::new(cfg).compute_pp(&pos, &mass);
        let mut max_rel = 0.0f64;
        // `store` was permuted at record time and replay keeps that
        // order, so row ↔ the same row of `pos` above; compare via the
        // fresh solver's original ordering.
        for (&w, &got) in want.iter().zip(&out.accel) {
            let rel = (got - w).norm() / w.norm().max(1e-12);
            max_rel = max_rel.max(rel);
        }
        // Frozen opening decisions + O(drift/r) monopole motion: the
        // documented replay tolerance.
        assert!(
            max_rel < 1e-4,
            "replay deviates from fresh walk: max rel {max_rel:e}"
        );
    }

    /// A drift beyond the margin must fall back to a fresh walk.
    #[test]
    fn oversized_drift_falls_back_to_fresh_walk() {
        let cfg = TreePmConfig {
            group_size: 16,
            ..TreePmConfig::standard(16)
        };
        let bodies = rand_bodies(120, 19);
        let mut store = ParticleStore::from_bodies(&bodies);
        let mut engine = ResidentPp::new();
        let drift = 1e-3 * cfg.r_cut;
        engine.compute(&cfg, &mut store, &mut [], false, drift);
        // Move one particle far beyond margin/2.
        let mut moved = store.to_bodies();
        moved[7].pos = greem_math::wrap01(moved[7].pos + Vec3::splat(0.3 * cfg.r_cut));
        let mut store = ParticleStore::from_bodies(&moved);
        let out = engine.compute(&cfg, &mut store, &mut [], true, drift);
        assert!(!out.replayed, "oversized drift must invalidate the cache");
        assert!(out.walk.visited_nodes > 0);
    }

    /// `list_reuse: false` must never replay.
    #[test]
    fn disabled_list_reuse_never_replays() {
        let cfg = TreePmConfig {
            group_size: 16,
            list_reuse: false,
            ..TreePmConfig::standard(16)
        };
        let bodies = rand_bodies(80, 23);
        let mut store = ParticleStore::from_bodies(&bodies);
        let mut engine = ResidentPp::new();
        engine.compute(&cfg, &mut store, &mut [], false, 0.0);
        let out = engine.compute(&cfg, &mut store, &mut [], true, 0.0);
        assert!(!out.replayed);
    }

    /// Companion arrays follow the store's permutation row for row.
    #[test]
    fn companions_track_the_permutation() {
        let cfg = TreePmConfig {
            group_size: 16,
            ..TreePmConfig::standard(16)
        };
        let bodies = rand_bodies(90, 29);
        let mut store = ParticleStore::from_bodies(&bodies);
        // Tag each companion row with its original body id.
        let mut companion: Vec<Vec3> = bodies.iter().map(|b| Vec3::splat(b.id as f64)).collect();
        let mut engine = ResidentPp::new();
        engine.compute(&cfg, &mut store, &mut [&mut companion], false, 0.0);
        for (c, &id) in companion.iter().zip(store.id_column()) {
            assert_eq!(c.x as u64, id);
        }
    }
}
