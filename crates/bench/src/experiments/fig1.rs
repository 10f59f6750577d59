//! **Figure 1** — the hierarchical tree algorithm: particle-particle
//! vs particle-multipole interactions.
//!
//! The schematic's quantitative content is the census of the two
//! interaction kinds as the opening angle varies: at θ = 0 everything is
//! particle-particle (direct summation); growing θ converts distant
//! particles into multipole (node) entries, which is where the
//! O(N log N) saving comes from.

use greem_math::Aabb;
use greem_tree::{GroupWalk, SnapshotTree, TraverseParams, TreeParams};

use crate::workloads;

/// One row of the census.
#[derive(Debug, Clone, Copy)]
pub struct CensusRow {
    pub theta: f64,
    pub particle_entries: u64,
    pub node_entries: u64,
    pub mean_nj: f64,
    pub interactions: u64,
}

/// Census over a θ grid for a uniform N-body snapshot.
pub fn census(n: usize, thetas: &[f64], seed: u64) -> Vec<CensusRow> {
    let pos = workloads::uniform(n, seed);
    let mass = workloads::unit_masses(n);
    let tree = SnapshotTree::build(&pos, &mass, Aabb::UNIT, TreeParams::default());
    let view = tree.view();
    thetas
        .iter()
        .map(|&theta| {
            let stats = GroupWalk::new(
                &view,
                TraverseParams {
                    theta,
                    group_size: 32,
                    r_cut: None,
                    periodic: true,
                    multipole: Default::default(),
                },
            )
            .for_each_group(|_, _| {});
            CensusRow {
                theta,
                particle_entries: stats.particle_entries,
                node_entries: stats.node_entries,
                mean_nj: stats.mean_nj(),
                interactions: stats.interactions,
            }
        })
        .collect()
}

/// The θ census at 800 (`small`) or 5000 bodies, as text and JSON.
pub fn run(small: bool) -> super::Outcome {
    let n = if small { 800 } else { 5000 };
    let rows = census(n, &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0], 7);
    let mut s = String::from(
        "=== Fig. 1: tree interaction census (red arrows = particle-particle,\n\
         blue arrows = particle-multipole) ==============================\n\
         theta   P-P entries   P-M entries     <Nj>   pair interactions\n",
    );
    let mut w = super::summary_writer("fig1", small);
    w.u64(Some("n"), n as u64);
    w.begin_arr(Some("rows"));
    for r in &rows {
        s.push_str(&format!(
            "{:>5.2} {:>13} {:>13} {:>8.1} {:>19}\n",
            r.theta, r.particle_entries, r.node_entries, r.mean_nj, r.interactions
        ));
        w.begin_obj(None);
        w.f64(Some("theta"), r.theta);
        w.u64(Some("particle_entries"), r.particle_entries);
        w.u64(Some("node_entries"), r.node_entries);
        w.f64(Some("mean_nj"), r.mean_nj);
        w.u64(Some("interactions"), r.interactions);
        w.end_obj();
    }
    w.end_arr();
    s.push_str("\n(theta=0 reduces to direct summation: every entry is P-P.)\n");
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_shape() {
        let rows = census(500, &[0.0, 0.5, 1.0], 3);
        // θ=0: no multipoles.
        assert_eq!(rows[0].node_entries, 0);
        assert!(rows[0].particle_entries > 0);
        // Growing θ: multipoles appear, work shrinks.
        assert!(rows[1].node_entries > 0);
        assert!(rows[2].interactions < rows[0].interactions);
        assert!(rows[2].particle_entries < rows[0].particle_entries);
    }
}
