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

use std::time::Instant;

use greem::{TreePm, TreePmConfig};

use crate::workloads;

/// One group-size sample.
#[derive(Debug, Clone, Copy)]
pub struct NiRow {
    pub group_size: usize,
    pub mean_ni: f64,
    pub mean_nj: f64,
    pub traversal_s: f64,
    pub force_s: f64,
    pub total_s: f64,
    pub interactions: u64,
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
            let (_, walk, times) = solver.compute_pp(&pos, &mass);
            let total = t0.elapsed().as_secs_f64();
            NiRow {
                group_size: gs,
                mean_ni: walk.mean_ni(),
                mean_nj: walk.mean_nj(),
                traversal_s: times.traversal,
                force_s: times.force,
                total_s: total,
                interactions: walk.interactions,
            }
        })
        .collect()
}

/// The group-size sweep on 2000 (`small`) or 20000 bodies, as text and
/// JSON.
pub fn run(small: bool) -> super::Outcome {
    let n = if small { 2000 } else { 20000 };
    let rows = sweep(n, 64, &[4, 8, 16, 32, 64, 128, 256, 512], 11);
    let mut s = String::from(
        "=== Sec. II: group size <Ni> trade-off =========================\n\
         group  <Ni>    <Nj>   traverse(s)  force(s)   total(s)  interactions\n",
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
            "{:>5} {:>6.1} {:>7.1} {:>12.4} {:>9.4} {:>10.4} {:>13}\n",
            r.group_size, r.mean_ni, r.mean_nj, r.traversal_s, r.force_s, r.total_s, r.interactions
        ));
        w.begin_obj(None);
        w.u64(Some("group_size"), r.group_size as u64);
        w.f64(Some("mean_ni"), r.mean_ni);
        w.f64(Some("mean_nj"), r.mean_nj);
        w.f64(Some("traversal_s"), r.traversal_s);
        w.f64(Some("force_s"), r.force_s);
        w.f64(Some("total_s"), r.total_s);
        w.u64(Some("interactions"), r.interactions);
        w.end_obj();
    }
    w.end_arr();
    s.push_str(&format!(
        "\noptimum on this host: group_size ≈ {} (paper: ~100 on K, ~500 on GPUs)\n",
        best.0
    ));
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;

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
