//! **§III-A** — the force-accuracy tuning of the TreePM split.
//!
//! "We usually use the number of PM mesh N_PM between N/2³ and N/4³ in
//! order to minimize the force error" and "the cutoff radius … is set
//! to r_cut = 3/N_PM^(1/3)". We measure the rms relative force error of
//! the full TreePM force against the exact Ewald reference while
//! sweeping (a) the mesh size at fixed N and (b) the cutoff radius in
//! mesh units. The r_cut sweep exposes the trade the paper's
//! `r_cut = 3 cells` settles: accuracy keeps improving with r_cut while
//! the short-range work grows ∝ r_cut³ — 3 cells reaches the
//! few-percent error floor at modest cost.
//!
//! One term of that error is the PP kernel's own arithmetic. It is
//! measured apart ([`kernel_term`]): the dispatched kernel against the
//! f64 scalar reference over the walk's real interaction lists.

use greem::{TreePm, TreePmConfig};
use greem_baselines::direct_periodic_fast;
use greem_kernels::testutil::interaction_scale;
use greem_kernels::{pp_accel_dispatch, pp_accel_scalar, selected_variant, SourceList, Targets};
use greem_math::{Aabb, Vec3};
use greem_tree::{GroupWalk, SnapshotTree};

use crate::workloads;

/// One accuracy sample.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyRow {
    pub n_mesh: usize,
    pub rcut_cells: f64,
    /// rms of |f − f_ewald| / |f_ewald| over the particles.
    pub rms_rel_error: f64,
    /// 99th-percentile relative error.
    pub p99_rel_error: f64,
    /// PP pairwise interactions (the cost side of the r_cut trade).
    pub interactions: u64,
}

/// Measure the TreePM force error against Ewald.
pub fn measure(
    pos: &[Vec3],
    mass: &[f64],
    reference: &[Vec3],
    n_mesh: usize,
    rcut_cells: f64,
    theta: f64,
) -> AccuracyRow {
    let cfg = TreePmConfig {
        n_mesh,
        r_cut: rcut_cells / n_mesh as f64,
        theta,
        eps: 0.0,
        ..TreePmConfig::standard(n_mesh)
    };
    let solver = TreePm::new(cfg);
    let res = solver.compute(pos, mass);
    let mut errs: Vec<f64> = res
        .accel
        .iter()
        .zip(reference)
        .filter(|(_, w)| w.norm() > 1e-9)
        .map(|(a, w)| (*a - *w).norm() / w.norm())
        .collect();
    errs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    let rms = (errs.iter().map(|e| e * e).sum::<f64>() / errs.len() as f64).sqrt();
    let p99 = errs[(errs.len() * 99 / 100).min(errs.len() - 1)];
    AccuracyRow {
        n_mesh,
        rcut_cells,
        rms_rel_error: rms,
        p99_rel_error: p99,
        interactions: res.walk.interactions,
    }
}

/// p50 / p99 / max of a sample.
#[derive(Debug, Clone, Copy)]
pub struct Quantiles {
    pub p50: f64,
    pub p99: f64,
    pub max: f64,
}

impl Quantiles {
    fn of(mut v: Vec<f64>) -> Self {
        v.sort_unstable_by(f64::total_cmp);
        let at = |q: usize| v[(v.len() * q / 100).min(v.len() - 1)];
        Quantiles {
            p50: at(50),
            p99: at(99),
            max: at(100),
        }
    }
}

/// The kernel term of the force-error budget: the dispatched PP kernel
/// against [`pp_accel_scalar`] over every group and list of the walk at
/// the sweeps' operating point (mesh `n_mesh`, r_cut = 3 cells, `theta`).
/// Returns the per-target error relative to the target's net PP force
/// and relative to its interaction scale.
pub fn kernel_term(pos: &[Vec3], mass: &[f64], n_mesh: usize, theta: f64) -> [Quantiles; 2] {
    let cfg = TreePmConfig {
        theta,
        eps: 0.0,
        ..TreePmConfig::standard(n_mesh)
    };
    let split = cfg.split();
    let tree = SnapshotTree::build(pos, mass, Aabb::UNIT, cfg.tree_params());
    let view = tree.view();
    let (mut to_net, mut to_scale) = (Vec::new(), Vec::new());
    GroupWalk::new(&view, cfg.traverse_params()).for_each_group(|group, list| {
        let slots = group.first as usize..(group.first + group.count) as usize;
        let targets: Vec<Vec3> = slots.map(|s| pos[tree.order()[s] as usize]).collect();
        let sources: SourceList = list.iter().map(|s| (s.pos, s.mass)).collect();
        let mut got = Targets::from_positions(&targets);
        let mut exact = Targets::from_positions(&targets);
        pp_accel_dispatch(&mut got, &sources, &split);
        pp_accel_scalar(&mut exact, &sources, &split);
        for (i, &p) in targets.iter().enumerate() {
            let err = (got.accel(i) - exact.accel(i)).norm();
            let net = exact.accel(i).norm();
            if net > 0.0 {
                to_net.push(err / net);
                to_scale.push(err / interaction_scale(&split, p, &sources));
            }
        }
    });
    [Quantiles::of(to_net), Quantiles::of(to_scale)]
}

/// Both sweeps on 200 (`small`) or 600 bodies, as text and JSON: the
/// mesh sweep at r_cut = 3 cells, then an r_cut sweep at the
/// paper-preferred mesh.
pub fn run(small: bool) -> super::Outcome {
    let n = if small { 200 } else { 600 };
    let pos = workloads::clustered(n, 3, 0.3, 19);
    let mass = workloads::unit_masses(n);
    let reference = direct_periodic_fast(&pos, &mass);
    let row_into = |w: &mut greem_obs::json::JsonWriter, row: &AccuracyRow| {
        w.begin_obj(None);
        w.u64(Some("n_mesh"), row.n_mesh as u64);
        w.f64(Some("rcut_cells"), row.rcut_cells);
        w.f64(Some("rms_rel_error"), row.rms_rel_error);
        w.f64(Some("p99_rel_error"), row.p99_rel_error);
        w.u64(Some("interactions"), row.interactions);
        w.end_obj();
    };
    let n_side = (n as f64).cbrt().round() as usize;
    let mut s = String::from("=== Sec. III-A: TreePM force error vs Ewald ====================\n");
    s.push_str(&format!(
        "N = {n} particles (N^(1/3) ≈ {n_side}); θ = 0.4; reference: Ewald\n\n\
         -- mesh sweep at r_cut = 3 cells (paper: best mesh N^(1/3)/4 .. N^(1/3)/2) --\n\
         N_mesh   rms rel err   p99 rel err\n"
    ));
    let mut w = super::summary_writer("accuracy", small);
    w.u64(Some("n"), n as u64);
    w.begin_arr(Some("mesh_sweep"));
    // Mesh ≥ 8: r_cut = 3 cells must stay below half the box for the
    // periodic minimum image to be unambiguous (mesh 4 would give 0.75).
    for m in [8usize, 16, 32, 64] {
        let row = measure(&pos, &mass, &reference, m, 3.0, 0.4);
        s.push_str(&format!(
            "{:>6} {:>12.4e} {:>13.4e}\n",
            row.n_mesh, row.rms_rel_error, row.p99_rel_error
        ));
        row_into(&mut w, &row);
    }
    w.end_arr();
    s.push_str("\n-- r_cut sweep (cells) at the mid mesh --\n r_cut   rms rel err   p99 rel err   PP interactions\n");
    w.begin_arr(Some("rcut_sweep"));
    for rc in [1.5, 2.0, 3.0, 4.0, 6.0] {
        let row = measure(&pos, &mass, &reference, 16, rc, 0.4);
        s.push_str(&format!(
            "{:>6.1} {:>12.4e} {:>13.4e} {:>17}\n",
            row.rcut_cells, row.rms_rel_error, row.p99_rel_error, row.interactions
        ));
        row_into(&mut w, &row);
    }
    w.end_arr();
    let variant = selected_variant().name();
    s.push_str(&format!(
        "\n-- kernel term: {variant} vs scalar over the walk's lists (mesh 16, r_cut 3) --\n\
         relative to            p50          p99          max\n"
    ));
    w.begin_obj(Some("kernel_term"));
    w.str_(Some("variant"), variant);
    let labels = ["net_pp_force", "interaction_scale"];
    for (label, q) in labels.into_iter().zip(kernel_term(&pos, &mass, 16, 0.4)) {
        s.push_str(&format!(
            "{label:<18} {:>12.3e} {:>12.3e} {:>12.3e}\n",
            q.p50, q.p99, q.max
        ));
        w.begin_obj(Some(label));
        w.f64(Some("p50"), q.p50);
        w.f64(Some("p99"), q.p99);
        w.f64(Some("max"), q.max);
        w.end_obj();
    }
    w.end_obj();
    s.push_str(
        "\n(accuracy keeps improving with r_cut but the PP cost grows ~r_cut^3;\n         \x20r_cut = 3 cells reaches the few-percent error floor at modest cost —\n         \x20the paper's operating point.)\n",
    );
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn treepm_total_force_is_accurate_vs_ewald() {
        let n = 300;
        let pos = workloads::clustered(n, 2, 0.3, 5);
        let mass = workloads::unit_masses(n);
        let reference = direct_periodic_fast(&pos, &mass);
        let row = measure(&pos, &mass, &reference, 16, 3.0, 0.3);
        // Typical TreePM implementations report ~1–5 % rms force error
        // at these (coarse-mesh) settings; 4.3 % measured here.
        assert!(
            row.rms_rel_error < 0.06,
            "TreePM rms force error {} vs Ewald",
            row.rms_rel_error
        );
    }

    #[test]
    fn kernel_term_is_a_thousandth_of_the_force_error() {
        let n = 300;
        let pos = workloads::clustered(n, 2, 0.3, 5);
        let mass = workloads::unit_masses(n);
        let reference = direct_periodic_fast(&pos, &mass);
        let total = measure(&pos, &mass, &reference, 16, 3.0, 0.4);
        let [to_net, _] = kernel_term(&pos, &mass, 16, 0.4);
        assert!(to_net.p50 <= 1e-5, "{to_net:?}");
        assert!(to_net.p50 <= 1e-3 * total.rms_rel_error, "{to_net:?}");
    }

    #[test]
    fn too_small_rcut_hurts() {
        let n = 300;
        let pos = workloads::uniform(n, 6);
        let mass = workloads::unit_masses(n);
        let reference = direct_periodic_fast(&pos, &mass);
        let tight = measure(&pos, &mass, &reference, 16, 1.5, 0.3);
        let standard = measure(&pos, &mass, &reference, 16, 3.0, 0.3);
        assert!(
            tight.rms_rel_error > standard.rms_rel_error,
            "r_cut=1.5 cells ({}) should be worse than 3 cells ({})",
            tight.rms_rel_error,
            standard.rms_rel_error
        );
    }
}
