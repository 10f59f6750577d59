//! **Figure 2** — the P3M/TreePM force split.
//!
//! The schematic's quantitative content: as a function of pair
//! separation, the short-range (PP) force follows `g_P3M·Newton` and
//! vanishes at `r_cut`, the long-range (PM) force carries the
//! complement, and their sum tracks the exact periodic (Ewald) force at
//! every separation.

use greem::{TreePm, TreePmConfig};
use greem_baselines::Ewald;
use greem_math::Vec3;

/// One sampled radius of the force-split profile.
#[derive(Debug, Clone, Copy)]
pub struct SplitRow {
    pub r: f64,
    pub r_over_rcut: f64,
    pub f_pp: f64,
    pub f_pm: f64,
    pub f_total: f64,
    pub f_newton: f64,
    pub f_ewald: f64,
}

/// Measure the split on an isolated pair at separations `r` (box units).
pub fn profile(n_mesh: usize, radii: &[f64]) -> Vec<SplitRow> {
    let cfg = TreePmConfig {
        eps: 0.0,
        // Fat cutoff so the mesh resolves the matching region well.
        r_cut: 8.0 / n_mesh as f64,
        theta: 0.0,
        ..TreePmConfig::standard(n_mesh)
    };
    let solver = TreePm::new(cfg);
    let ewald = Ewald::new();
    radii
        .iter()
        .map(|&r| {
            let pos = vec![Vec3::new(0.3, 0.5, 0.5), Vec3::new(0.3 + r, 0.5, 0.5)];
            let mass = vec![1.0, 1.0];
            let res = solver.compute(&pos, &mass);
            SplitRow {
                r,
                r_over_rcut: r / cfg.r_cut,
                f_pp: res.pp_accel[0].x,
                f_pm: res.pm_accel[0].x,
                f_total: res.accel[0].x,
                f_newton: 1.0 / (r * r),
                f_ewald: ewald.accel(Vec3::new(r, 0.0, 0.0)).x,
            }
        })
        .collect()
}

/// The force-split profile on a 32³ (`small`) or 64³ mesh, as text and
/// JSON.
pub fn run(small: bool) -> super::Outcome {
    let n_mesh = if small { 32 } else { 64 };
    let rcut = 8.0 / n_mesh as f64;
    let radii: Vec<f64> = (1..=14).map(|i| i as f64 * 0.1 * rcut).collect();
    let rows = profile(n_mesh, &radii);
    let mut s = String::from(
        "=== Fig. 2: the TreePM force split (isolated pair) =============\n\
         r/rcut     f_PP       f_PM       total      Newton     Ewald\n",
    );
    let mut w = super::summary_writer("fig2", small);
    w.u64(Some("n_mesh"), n_mesh as u64);
    w.begin_arr(Some("rows"));
    for r in &rows {
        s.push_str(&format!(
            "{:>6.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}\n",
            r.r_over_rcut, r.f_pp, r.f_pm, r.f_total, r.f_newton, r.f_ewald
        ));
        w.begin_obj(None);
        w.f64(Some("r"), r.r);
        w.f64(Some("r_over_rcut"), r.r_over_rcut);
        w.f64(Some("f_pp"), r.f_pp);
        w.f64(Some("f_pm"), r.f_pm);
        w.f64(Some("f_total"), r.f_total);
        w.f64(Some("f_newton"), r.f_newton);
        w.f64(Some("f_ewald"), r.f_ewald);
        w.end_obj();
    }
    w.end_arr();
    s.push_str("\n(f_PP -> 0 at r = r_cut; the total tracks Ewald throughout.)\n");
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_profile_shape() {
        let n_mesh = 32;
        let rcut = 8.0 / n_mesh as f64;
        let rows = profile(n_mesh, &[0.3 * rcut, 0.9 * rcut, 1.2 * rcut]);
        // Inside: PP dominates; beyond cutoff: PP identically zero.
        assert!(rows[0].f_pp > rows[0].f_pm.abs());
        assert_eq!(rows[2].f_pp, 0.0);
        // Total ≈ Ewald at every radius (5 %).
        for r in &rows {
            assert!(
                (r.f_total - r.f_ewald).abs() < 0.05 * r.f_ewald.abs(),
                "r/rcut={}: {} vs {}",
                r.r_over_rcut,
                r.f_total,
                r.f_ewald
            );
        }
    }
}
