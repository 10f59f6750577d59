//! The memory-resident PP engine: persistent arena tree over the
//! Morton-permuted [`ParticleStore`], interaction-list caching across
//! the two PP subcycles, and the online ⟨Ni⟩ auto-tuner.
//!
//! One [`ResidentPp`] lives as long as its driver ([`crate::Simulation`]
//! or [`crate::ParallelTreePm`]) and owns every buffer the PP hot path
//! needs, so a steady-state force evaluation allocates (almost) nothing:
//!
//! * **fresh pass** — Morton-sort the store's position columns
//!   ([`greem_tree::TreeArena::sort`]), physically permute the store
//!   (and any companion acceleration arrays) into that order, rebuild
//!   the node arena in place, then walk groups in parallel with the
//!   kernel reading straight from the column slices. Output
//!   accelerations land at their slot index — the store *is* in tree
//!   order, so no scatter through an `orig_index` indirection;
//! * **recorded pass** — a fresh pass that additionally records each
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use greem_kernels::pp_accel_dispatch;
use greem_math::{min_image_vec, Aabb, Vec3};
use greem_tree::{Group, GroupWalk, ListEntry, Multipole, TreeArena, WalkStats};
use rayon::prelude::*;

use crate::autotune::{autotune_enabled, NiTuner, MODELED_NODE_WEIGHT};
use crate::config::TreePmConfig;
use crate::forces::{columns, PpScratch, PpTimes, SendPtr};
use crate::store::{permute_vec3, ParticleStore, PermScratch};

/// The recorded interaction lists of one PP pass, plus everything the
/// replay-validity check needs.
#[derive(Default)]
struct ListCache {
    valid: bool,
    /// Cutoff inflation the recording walked with; replay is sound while
    /// every particle stays within `margin/2` of its snapshot.
    margin: f64,
    /// Group size the recording ran at (diagnostics; the groups
    /// themselves are frozen below).
    group_size: usize,
    /// Particle count at record time.
    n: usize,
    /// The recorded groups (slot ranges into the Morton order frozen at
    /// record time).
    groups: Vec<Group>,
    /// One recorded list per group; the inner vectors persist across
    /// steps so steady-state recording allocates nothing.
    lists: Vec<Vec<ListEntry>>,
    /// Position snapshot at record time (columns, slot-indexed).
    snap_x: Vec<f64>,
    snap_y: Vec<f64>,
    snap_z: Vec<f64>,
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
    /// The group size this pass ran at (tuner probe or configured).
    pub group_size: usize,
}

/// The persistent PP engine (see the module docs).
#[derive(Default)]
pub struct ResidentPp {
    arena: TreeArena,
    perm: PermScratch,
    cache: ListCache,
    tuner: Option<NiTuner>,
    /// Serial-walk scratch for the combined (owned + ghost) path.
    scratch: PpScratch,
    // Combined-column buffers of the parallel driver's path: unsorted
    // owned+ghost columns, their Morton-sorted gathers, and the
    // slot → owned-row map.
    comb_x: Vec<f64>,
    comb_y: Vec<f64>,
    comb_z: Vec<f64>,
    comb_m: Vec<f64>,
    sort_x: Vec<f64>,
    sort_y: Vec<f64>,
    sort_z: Vec<f64>,
    sort_m: Vec<f64>,
    slot_row: Vec<u32>,
    own_order: Vec<u32>,
}

impl ResidentPp {
    /// A fresh engine with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tuner's current state, if auto-tuning has run:
    /// `(group_size, converged)`.
    pub fn tuner_state(&self) -> Option<(usize, bool)> {
        self.tuner.as_ref().map(|t| (t.current(), t.converged()))
    }

    /// Drop the cached lists (callers that mutate particles outside the
    /// integrator must invalidate before the next evaluation).
    pub fn invalidate_cache(&mut self) {
        self.cache.valid = false;
    }

    /// The group size the next fresh walk will run at.
    fn next_group_size(&mut self, cfg: &TreePmConfig) -> usize {
        if autotune_enabled(cfg.autotune) {
            self.tuner.get_or_insert_with(NiTuner::new).current()
        } else {
            cfg.group_size
        }
    }

    /// Feed the tuner the cost of a fresh pass: deterministic modelled
    /// work when the config asks for modelled PP cost (the determinism
    /// gate), wall time otherwise.
    fn feed_tuner(&mut self, cfg: &TreePmConfig, walk: &WalkStats, times: &PpTimes, n: usize) {
        let Some(t) = self.tuner.as_mut() else {
            return;
        };
        if n == 0 {
            return;
        }
        let cost = match cfg.modeled_pp_cost {
            Some(_) => {
                (walk.visited_nodes as f64 * MODELED_NODE_WEIGHT + walk.interactions as f64)
                    / n as f64
            }
            None => (times.traversal + times.force) / n as f64,
        };
        t.observe(cost);
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
        self.fresh(cfg, store, companions, drift_bound)
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
            || c.n != store.len()
        {
            return false;
        }
        let lim2 = 0.25 * c.margin * c.margin;
        let (x, y, z) = store.pos_columns();
        for i in 0..c.n {
            let now = Vec3::new(x[i], y[i], z[i]);
            let then = Vec3::new(c.snap_x[i], c.snap_y[i], c.snap_z[i]);
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
        let n = store.len();
        let (x, y, z) = store.pos_columns();
        let m = store.mass_column();
        let t0 = Instant::now();
        self.arena.refresh_monopoles(x, y, z, m);
        times.tree_build = t0.elapsed().as_secs_f64();

        let params = greem_tree::TraverseParams {
            group_size: self.cache.group_size,
            ..cfg.traverse_params()
        };
        let view = self.arena.view(x, y, z, m);
        let walk = GroupWalk::new(&view, params);
        let split = cfg.split();
        let traversal_ns = AtomicU64::new(0);
        let force_ns = AtomicU64::new(0);
        let mut accel = vec![Vec3::ZERO; n];
        let out = SendPtr(accel.as_mut_ptr());
        let lists = &self.cache.lists;
        let per_group: Vec<WalkStats> = self
            .cache
            .groups
            .par_iter()
            .enumerate()
            .map_init(PpScratch::default, |scr, (gi, &group)| {
                let t = Instant::now();
                scr.sources.clear();
                let stats = walk.replay_columns(group, &lists[gi], columns(&mut scr.sources));
                traversal_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);

                let t = Instant::now();
                let lo = group.first as usize;
                let hi = lo + group.count as usize;
                scr.targets
                    .load_from_slices(&x[lo..hi], &y[lo..hi], &z[lo..hi]);
                pp_accel_dispatch(&mut scr.targets, &scr.sources, &split);
                force_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                for i in 0..(hi - lo) {
                    // SAFETY: group slot ranges partition 0..n, so
                    // tasks write disjoint output slots.
                    unsafe { *out.get().add(lo + i) = scr.targets.accel(i) };
                }
                stats
            })
            .collect();
        let mut walk_stats = WalkStats::default();
        for s in &per_group {
            walk_stats.merge(s);
        }
        times.traversal = traversal_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        times.force = force_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        PpOutcome {
            accel,
            walk: walk_stats,
            times,
            replayed: true,
            group_size: self.cache.group_size,
        }
    }

    /// Fresh pass: sort, permute, build, walk (optionally recording).
    fn fresh(
        &mut self,
        cfg: &TreePmConfig,
        store: &mut ParticleStore,
        companions: &mut [&mut Vec<Vec3>],
        drift_bound: f64,
    ) -> PpOutcome {
        let mut times = PpTimes::default();
        let n = store.len();
        let t0 = Instant::now();
        {
            let (x, y, z) = store.pos_columns();
            self.arena.sort(x, y, z, Aabb::UNIT);
        }
        store.permute(self.arena.order(), &mut self.perm);
        for c in companions.iter_mut() {
            if !c.is_empty() {
                permute_vec3(c, self.arena.order());
            }
        }
        {
            let (x, y, z) = store.pos_columns();
            self.arena
                .build(x, y, z, store.mass_column(), cfg.tree_params());
        }
        times.tree_build = t0.elapsed().as_secs_f64();

        let group_size = self.next_group_size(cfg);
        let record = cfg.list_reuse && matches!(cfg.multipole, Multipole::Monopole);
        // Margin: 3× the last drift leaves 1.5× headroom per particle for
        // the next subcycle's (similar-sized) drift; the 0.1·r_cut clamp
        // keeps the inflated prune radius well under the periodic
        // unambiguity bound.
        let margin = if record {
            (3.0 * drift_bound).min(0.1 * cfg.r_cut)
        } else {
            0.0
        };
        let params = greem_tree::TraverseParams {
            group_size,
            ..cfg.traverse_params()
        };
        let split = cfg.split();
        let traversal_ns = AtomicU64::new(0);
        let force_ns = AtomicU64::new(0);
        let mut accel = vec![Vec3::ZERO; n];
        let (groups, walk_stats) = {
            let (x, y, z) = store.pos_columns();
            let m = store.mass_column();
            let view = self.arena.view(x, y, z, m);
            let walk = GroupWalk::new(&view, params);
            let groups = walk.groups();
            if record {
                self.cache.lists.resize_with(groups.len(), Vec::new);
            }
            let out = SendPtr(accel.as_mut_ptr());
            let rec_ptr = SendPtr(self.cache.lists.as_mut_ptr());
            let per_group: Vec<WalkStats> = groups
                .par_iter()
                .enumerate()
                .map_init(PpScratch::default, |scr, (gi, &group)| {
                    let t = Instant::now();
                    // SAFETY: each group index occurs exactly once, so
                    // tasks write disjoint list slots.
                    let rec = record.then(|| unsafe { &mut *rec_ptr.get().add(gi) });
                    scr.sources.clear();
                    let cols = columns(&mut scr.sources);
                    let stats = walk.list_columns(group, &mut scr.stack, margin, rec, cols);
                    traversal_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);

                    let t = Instant::now();
                    let lo = group.first as usize;
                    let hi = lo + group.count as usize;
                    scr.targets
                        .load_from_slices(&x[lo..hi], &y[lo..hi], &z[lo..hi]);
                    pp_accel_dispatch(&mut scr.targets, &scr.sources, &split);
                    force_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    for i in 0..(hi - lo) {
                        // SAFETY: group slot ranges partition 0..n, so
                        // tasks write disjoint output slots.
                        unsafe { *out.get().add(lo + i) = scr.targets.accel(i) };
                    }
                    stats
                })
                .collect();
            let mut ws = WalkStats::default();
            for s in &per_group {
                ws.merge(s);
            }
            (groups, ws)
        };
        times.traversal = traversal_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        times.force = force_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        self.feed_tuner(cfg, &walk_stats, &times, n);

        if record {
            let (x, y, z) = store.pos_columns();
            self.cache.snap_x.clear();
            self.cache.snap_x.extend_from_slice(x);
            self.cache.snap_y.clear();
            self.cache.snap_y.extend_from_slice(y);
            self.cache.snap_z.clear();
            self.cache.snap_z.extend_from_slice(z);
            self.cache.groups = groups;
            self.cache.margin = margin;
            self.cache.group_size = group_size;
            self.cache.n = n;
            self.cache.valid = true;
        } else {
            self.cache.valid = false;
        }
        PpOutcome {
            accel,
            walk: walk_stats,
            times,
            replayed: false,
            group_size,
        }
    }

    /// Parallel-driver PP evaluation over the owned store plus imported
    /// ghosts. The combined particle set is Morton-sorted and the arena
    /// built over it; the *owned* rows of that order permute `store`
    /// (and companions) so the rank's resident layout still tracks the
    /// tree. Lists are never cached here — the ghost set changes every
    /// cycle. Returns accelerations for owned rows only, aligned with
    /// the permuted store.
    pub fn compute_combined(
        &mut self,
        cfg: &TreePmConfig,
        store: &mut ParticleStore,
        ghosts: &[(Vec3, f64)],
        companions: &mut [&mut Vec<Vec3>],
    ) -> PpOutcome {
        self.cache.valid = false;
        let mut times = PpTimes::default();
        let n_own = store.len();
        let t0 = Instant::now();
        {
            let (x, y, z) = store.pos_columns();
            self.comb_x.clear();
            self.comb_x.extend_from_slice(x);
            self.comb_y.clear();
            self.comb_y.extend_from_slice(y);
            self.comb_z.clear();
            self.comb_z.extend_from_slice(z);
            self.comb_m.clear();
            self.comb_m.extend_from_slice(store.mass_column());
        }
        for g in ghosts {
            self.comb_x.push(g.0.x);
            self.comb_y.push(g.0.y);
            self.comb_z.push(g.0.z);
            self.comb_m.push(g.1);
        }
        self.arena
            .sort(&self.comb_x, &self.comb_y, &self.comb_z, Aabb::UNIT);
        // Owned sub-permutation (order entries < n_own, in slot order)
        // and the slot → owned-row map for the result scatter.
        self.own_order.clear();
        self.slot_row.clear();
        let mut row = 0u32;
        for &o in self.arena.order() {
            if (o as usize) < n_own {
                self.own_order.push(o);
                self.slot_row.push(row);
                row += 1;
            } else {
                self.slot_row.push(u32::MAX);
            }
        }
        store.permute(&self.own_order, &mut self.perm);
        for c in companions.iter_mut() {
            if !c.is_empty() {
                permute_vec3(c, &self.own_order);
            }
        }
        // Gather the sorted combined columns the arena builds over.
        self.sort_x.clear();
        self.sort_x
            .extend(self.arena.order().iter().map(|&o| self.comb_x[o as usize]));
        self.sort_y.clear();
        self.sort_y
            .extend(self.arena.order().iter().map(|&o| self.comb_y[o as usize]));
        self.sort_z.clear();
        self.sort_z
            .extend(self.arena.order().iter().map(|&o| self.comb_z[o as usize]));
        self.sort_m.clear();
        self.sort_m
            .extend(self.arena.order().iter().map(|&o| self.comb_m[o as usize]));
        self.arena
            .build(&self.sort_x, &self.sort_y, &self.sort_z, &self.sort_m, {
                cfg.tree_params()
            });
        times.tree_build = t0.elapsed().as_secs_f64();

        let group_size = self.next_group_size(cfg);
        let params = greem_tree::TraverseParams {
            group_size,
            ..cfg.traverse_params()
        };
        let split = cfg.split();
        let view = self
            .arena
            .view(&self.sort_x, &self.sort_y, &self.sort_z, &self.sort_m);
        let walk = GroupWalk::new(&view, params);
        let mut accel = vec![Vec3::ZERO; n_own];
        let mut walk_stats = WalkStats::default();
        let scr = &mut self.scratch;
        for group in walk.groups() {
            let lo = group.first as usize;
            let hi = lo + group.count as usize;
            // Skip all-ghost groups outright.
            if self.slot_row[lo..hi].iter().all(|&r| r == u32::MAX) {
                continue;
            }
            let t1 = Instant::now();
            scr.sources.clear();
            let cols = columns(&mut scr.sources);
            let stats = walk.list_columns(group, &mut scr.stack, 0.0, None, cols);
            times.traversal += t1.elapsed().as_secs_f64();

            let t1 = Instant::now();
            scr.targets.load_from_slices(
                &self.sort_x[lo..hi],
                &self.sort_y[lo..hi],
                &self.sort_z[lo..hi],
            );
            pp_accel_dispatch(&mut scr.targets, &scr.sources, &split);
            times.force += t1.elapsed().as_secs_f64();
            for (k, &r) in self.slot_row[lo..hi].iter().enumerate() {
                if r != u32::MAX {
                    accel[r as usize] = scr.targets.accel(k);
                }
            }
            walk_stats.merge(&stats);
        }
        self.feed_tuner(cfg, &walk_stats, &times, n_own);
        PpOutcome {
            accel,
            walk: walk_stats,
            times,
            replayed: false,
            group_size,
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

    /// The bulk column replay must produce bitwise-identical source
    /// lists to the per-entry replay — same branchless-image shifts,
    /// same ordering — for every cached group.
    #[test]
    fn column_replay_matches_entry_replay_bitwise() {
        let cfg = TreePmConfig {
            group_size: 32,
            ..TreePmConfig::standard(16)
        };
        let bodies = rand_bodies(300, 21);
        let mut store = ParticleStore::from_bodies(&bodies);
        let mut engine = ResidentPp::new();
        engine.compute(&cfg, &mut store, &mut [], false, 1e-3);
        assert!(engine.cache.valid);

        let (x, y, z) = store.pos_columns();
        let m = store.mass_column();
        let params = greem_tree::TraverseParams {
            group_size: engine.cache.group_size,
            ..cfg.traverse_params()
        };
        let view = engine.arena.view(x, y, z, m);
        let walk = GroupWalk::new(&view, params);
        for (gi, &g) in engine.cache.groups.iter().enumerate() {
            let mut list = Vec::new();
            walk.replay_list(g, &engine.cache.lists[gi], &mut list);
            let (mut ox, mut oy, mut oz, mut om) = (vec![], vec![], vec![], vec![]);
            walk.replay_list_columns(
                (x, y, z, m),
                g,
                &engine.cache.lists[gi],
                &mut ox,
                &mut oy,
                &mut oz,
                &mut om,
            );
            assert_eq!(list.len(), ox.len(), "group {gi}");
            for (k, e) in list.iter().enumerate() {
                assert_eq!(e.pos.x.to_bits(), ox[k].to_bits(), "group {gi} entry {k}");
                assert_eq!(e.pos.y.to_bits(), oy[k].to_bits(), "group {gi} entry {k}");
                assert_eq!(e.pos.z.to_bits(), oz[k].to_bits(), "group {gi} entry {k}");
                assert_eq!(e.mass.to_bits(), om[k].to_bits(), "group {gi} entry {k}");
            }
        }
    }

    /// The Morton-resident fresh pass must be bitwise identical to the
    /// seed AoS path (`TreePm::compute_pp`) at matched group size: same
    /// tree, same groups, same list order, same kernel — the permuted
    /// output read back through the row ids equals the AoS output in
    /// original order, bit for bit. Margin inflation (list_reuse on)
    /// must not change a single bit either: beyond-cutoff sources are
    /// masked to exact ±0.0 by every kernel.
    #[test]
    fn fresh_pass_is_bitwise_identical_to_aos_path() {
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
