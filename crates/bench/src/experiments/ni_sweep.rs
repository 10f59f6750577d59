//! **§II** — the group-size (⟨Ni⟩) trade-off of Barnes' modified
//! traversal.
//!
//! "This modified algorithm can reduce the computational cost of tree
//! traversal by a factor of ⟨Ni⟩ … On the other hand, the computational
//! cost for the PP force calculation increases … The optimal value of
//! ⟨Ni⟩ depends on the performance characteristics of the computer
//! used. It is around 100 for K computer, and 500 for a GPU cluster."
//!
//! We sweep the group size and measure traversal seconds, kernel
//! seconds, their sum, and ⟨Nj⟩: traversal cost falls ∝1/⟨Ni⟩, list
//! length (and thus kernel work) grows, and the total has an interior
//! minimum — the paper's trade-off.
//!
//! Under the sweep, the walk's own costs: the tree build, and the list
//! builder's ns per node and per entry on the benchmark's shape (§14).

use std::hint::black_box;
use std::time::Instant;

use greem::{TreePm, TreePmConfig};
use greem_kernels::{pp_accel_dispatch, selected_variant, KernelVariant, SourceList, Targets};
use greem_math::Aabb;
use greem_tree::{GroupWalk, ListEntry, SnapshotTree, SourceColumns, TreeParams};

use super::best_of;
use crate::workloads;

/// One group-size sample.
#[derive(Debug, Clone, Copy)]
pub struct NiRow {
    pub group_size: usize,
    pub mean_ni: f64,
    /// Share of the selected kernel's target lanes holding a target.
    pub lanes_used: f64,
    /// Share of the lane-padded pairs the selected kernel evaluates
    /// after its cull.
    pub pairs_kept: f64,
    pub mean_nj: f64,
    pub traversal_s: f64,
    pub force_s: f64,
    pub total_s: f64,
    pub interactions: u64,
}

/// Σ Ni·Nj and Σ ⌈Ni/W⌉·W·Nj over groups, W the selected kernel's
/// `target_block()`: their ratio is the share of the kernel's target
/// lanes that hold a target. Over the groups the kernel ran on, `kept`
/// sums the lane-padded pairs it evaluated after its cull.
struct Lanes {
    w: u64,
    used: u64,
    slots: u64,
    kept: u64,
}

impl Lanes {
    fn new() -> Self {
        let w = selected_variant().target_block() as u64;
        Lanes {
            w,
            used: 0,
            slots: 0,
            kept: 0,
        }
    }

    fn add(&mut self, ni: u64, nj: u64) {
        self.used += ni * nj;
        self.slots += ni.div_ceil(self.w) * self.w * nj;
    }

    /// One group through the selected kernel, as [`add`](Self::add)
    /// counts it, and what its cull kept (every lane-padded pair, for a
    /// kernel without one).
    fn run(&mut self, targets: &mut Targets, sources: &SourceList, cfg: &TreePmConfig) {
        let (ni, nj) = (targets.len() as u64, sources.len() as u64);
        self.add(ni, nj);
        pp_accel_dispatch(targets, sources, &cfg.split());
        self.kept += match selected_variant() {
            KernelVariant::Avx2 | KernelVariant::Avx512 => targets.pairs_kept(),
            KernelVariant::Portable | KernelVariant::Scalar => ni.div_ceil(self.w) * self.w * nj,
        };
    }

    fn share(&self) -> f64 {
        self.used as f64 / self.slots as f64
    }
}

/// Sweep ⟨Ni⟩ on a clustered snapshot.
pub fn sweep(n: usize, n_mesh: usize, group_sizes: &[usize], seed: u64) -> Vec<NiRow> {
    let pos = workloads::clustered(n, 4, 0.4, seed);
    let mass = workloads::unit_masses(n);
    group_sizes
        .iter()
        .map(|&gs| {
            let cfg = TreePmConfig {
                group_size: gs,
                ..TreePmConfig::standard(n_mesh)
            };
            let solver = TreePm::new(cfg);
            let t0 = Instant::now();
            let (_, bd) = solver.compute_pp(&pos, &mass);
            let total = t0.elapsed().as_secs_f64();
            // The same groups and lists again, untimed, for their sizes
            // and through the kernel for what its cull keeps.
            let tree = SnapshotTree::build(&pos, &mass, Aabb::UNIT, cfg.tree_params());
            let mut lanes = Lanes::new();
            GroupWalk::new(&tree.view(), cfg.traverse_params()).for_each_group(|g, list| {
                let slots = g.first as usize..(g.first + g.count) as usize;
                let group: Vec<_> = tree.order()[slots]
                    .iter()
                    .map(|&i| pos[i as usize])
                    .collect();
                let sources: SourceList = list.iter().map(|s| (s.pos, s.mass)).collect();
                lanes.run(&mut Targets::from_positions(&group), &sources, &cfg);
            });
            NiRow {
                group_size: gs,
                mean_ni: bd.walk.mean_ni(),
                lanes_used: lanes.share(),
                pairs_kept: lanes.kept as f64 / lanes.slots as f64,
                mean_nj: bd.walk.mean_nj(),
                traversal_s: bd.pp_tree_traversal,
                force_s: bd.pp_force_calculation,
                total_s: total,
                interactions: bd.interactions(),
            }
        })
        .collect()
}

/// One list-builder pass over every group: its fastest time, the nodes
/// it visited, the entries it wrote, the interactions Σ Ni·Nj they make
/// and the kernel lanes they fill.
pub struct Pass {
    pub mode: &'static str,
    pub secs: f64,
    pub visited: u64,
    pub entries: u64,
    pub interactions: u64,
    pub lanes_used: f64,
}

/// The list builder on `eight_clumps(n)` at `standard(16)` as a step
/// uses it: fresh, recording under the 0.1·r_cut margin, and replaying
/// that record, onto the kernel's columns for every group. Returns the
/// group count and the three passes.
pub fn list_builder(n: usize, reps: usize) -> (usize, [Pass; 3]) {
    let pos = workloads::eight_clumps(n);
    let cfg = TreePmConfig::standard(16);
    let m = workloads::unit_masses(n);
    let tree = SnapshotTree::build(&pos, &m, Aabb::UNIT, cfg.tree_params());
    let view = tree.view();
    let walk = GroupWalk::new(&view, cfg.traverse_params());
    let groups = walk.groups();
    let mut cols: [Vec<f64>; 4] = Default::default();
    let mut stack = Vec::new();
    let mut recorded: Vec<Vec<ListEntry>> = vec![Vec::new(); groups.len()];
    let passes = ["fresh", "recording", "replay"].map(|mode| {
        let (mut visited, mut entries, mut lanes) = (0, 0, Lanes::new());
        let secs = best_of(reps, || {
            (visited, entries, lanes) = (0, 0, Lanes::new());
            for (gi, &g) in groups.iter().enumerate() {
                cols.iter_mut().for_each(Vec::clear);
                let [x, y, z, m] = &mut cols;
                let out = SourceColumns { x, y, z, m };
                let rec = Some(&mut recorded[gi]);
                let s = match mode {
                    "fresh" => walk.list_columns(g, &mut stack, 0.0, None, out),
                    "recording" => walk.list_columns(g, &mut stack, 0.1 * cfg.r_cut, rec, out),
                    _ => walk.replay_columns(g, &recorded[gi], out),
                };
                visited += s.visited_nodes;
                entries += s.sum_nj;
                lanes.add(s.sum_ni, s.sum_nj);
                black_box(cols[0].len());
            }
        });
        Pass {
            mode,
            secs,
            visited,
            entries,
            interactions: lanes.used,
            lanes_used: lanes.share(),
        }
    });
    (groups.len(), passes)
}

/// The group-size sweep on 2000 (`small`) or 20000 bodies, the tree
/// build at 2 k and 10 k, and the list builder on 2048 or 32768 bodies
/// (fastest of 21 each, of one at `small`), as text and JSON.
pub fn run(small: bool) -> super::Outcome {
    let n = if small { 2000 } else { 20000 };
    let (reps, list_n) = if small { (1, 2048) } else { (21, 32_768) };
    let rows = sweep(n, 64, &[4, 8, 16, 32, 64, 128, 256, 512], 11);
    let kernel = selected_variant();
    let mut s = format!(
        "=== Sec. II: group size <Ni> trade-off =========================\n\
         lanes: share of the {} kernel's {} target lanes holding a target\n\
         kept: share of those lanes' pairs it evaluates after its cull\n\
         group  <Ni>  lanes   kept    <Nj>   traverse(s)  force(s)   total(s)  interactions\n",
        kernel.name(),
        kernel.target_block()
    );
    let mut w = super::summary_writer("ni_sweep", small);
    w.u64(Some("n"), n as u64);
    w.begin_arr(Some("rows"));
    let mut best = (0usize, f64::INFINITY);
    for r in &rows {
        if r.total_s < best.1 {
            best = (r.group_size, r.total_s);
        }
        s.push_str(&format!(
            "{:>5} {:>6.1} {:>6.3} {:>6.3} {:>7.1} {:>12.4} {:>9.4} {:>10.4} {:>13}\n",
            r.group_size,
            r.mean_ni,
            r.lanes_used,
            r.pairs_kept,
            r.mean_nj,
            r.traversal_s,
            r.force_s,
            r.total_s,
            r.interactions
        ));
        w.begin_obj(None);
        w.u64(Some("group_size"), r.group_size as u64);
        w.f64(Some("mean_ni"), r.mean_ni);
        w.f64(Some("lanes_used"), r.lanes_used);
        w.f64(Some("pairs_kept"), r.pairs_kept);
        w.f64(Some("mean_nj"), r.mean_nj);
        w.f64(Some("traversal_s"), r.traversal_s);
        w.f64(Some("force_s"), r.force_s);
        w.f64(Some("total_s"), r.total_s);
        w.u64(Some("interactions"), r.interactions);
        w.end_obj();
    }
    w.end_arr();
    s.push_str(&format!(
        "\noptimum on this host: group_size ≈ {} (paper: ~100 on K, ~500 on GPUs)\n\n\
         tree build (sort + gather + build), fastest of {reps}:\n",
        best.0
    ));
    for n in [2_000, 10_000] {
        // Sort, gather and build on fresh buffers.
        let pos = workloads::clustered(n, 4, 0.4, 7);
        let mass = workloads::unit_masses(n);
        let mut nodes = 0;
        let secs = best_of(reps, || {
            let tree = SnapshotTree::build(&pos, &mass, Aabb::UNIT, TreeParams::default());
            nodes = black_box(tree.nodes().len());
        });
        s.push_str(&format!(
            "  n = {n:>6}  {:8.3} ms  {nodes} nodes\n",
            secs * 1e3
        ));
        w.f64(Some(&format!("tree_build_{n}_s")), secs);
    }

    let (groups, passes) = list_builder(list_n, reps);
    s.push_str(&format!(
        "\nlist builder onto the kernel's columns, {list_n} bodies in eight clumps, \
         mesh 16, {groups} groups, fastest of {reps}:\n"
    ));
    w.begin_obj(Some("list_builder"));
    w.u64(Some("n"), list_n as u64);
    w.u64(Some("groups"), groups as u64);
    for Pass {
        mode,
        secs,
        visited,
        entries,
        interactions,
        lanes_used: lanes,
    } in passes
    {
        let per = |count: u64| secs * 1e9 / count as f64;
        s.push_str(&format!(
            "  {mode:<9} {:7.2} ms  {:5.1} M interactions, lanes {lanes:.3}  \
             {:5.1} ns per list entry ({entries})",
            secs * 1e3,
            interactions as f64 * 1e-6,
            per(entries)
        ));
        if visited > 0 {
            s.push_str(&format!(
                ", {:.1} ns per visited node ({visited})",
                per(visited)
            ));
        }
        s.push('\n');
        w.begin_obj(Some(mode));
        w.f64(Some("s"), secs);
        w.u64(Some("visited_nodes"), visited);
        w.u64(Some("entries"), entries);
        w.u64(Some("interactions"), interactions);
        w.f64(Some("lanes_used"), lanes);
        w.end_obj();
    }
    w.end_obj();
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's shape packs its 32768 bodies into fuller groups
    /// than "the largest cell holding ≤ 100 bodies" gives (1320).
    #[test]
    fn benchmark_shape_forms_few_full_groups() {
        let n = 32_768;
        let pos = workloads::eight_clumps(n);
        let cfg = TreePmConfig::standard(16);
        let m = workloads::unit_masses(n);
        let tree = SnapshotTree::build(&pos, &m, Aabb::UNIT, cfg.tree_params());
        let groups = GroupWalk::new(&tree.view(), cfg.traverse_params()).groups();
        assert!(groups.len() <= 520, "{} groups", groups.len());
    }

    #[test]
    fn tradeoff_shape() {
        let rows = sweep(3000, 32, &[4, 64, 512], 3);
        // ⟨Nj⟩ grows with the group size.
        assert!(rows[2].mean_nj > rows[0].mean_nj);
        // Kernel work (interactions) grows with the group size.
        assert!(rows[2].interactions > rows[0].interactions);
        // ⟨Ni⟩ tracks the requested size.
        assert!(rows[0].mean_ni <= 4.0 + 1e-9);
        assert!(rows[2].mean_ni > rows[0].mean_ni);
    }
}
