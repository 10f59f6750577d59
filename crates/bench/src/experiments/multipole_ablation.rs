//! **Ablation** — monopole (GreeM's production choice) vs the
//! pseudo-particle quadrupole extension.
//!
//! The design document calls out the multipole order as the one
//! accuracy knob GreeM deliberately keeps low ("monopole-only with
//! small θ"). This experiment quantifies the trade on the accuracy/cost
//! plane: at each θ, the quadrupole walk pays 4 list entries per
//! accepted node and buys a large error reduction — so it reaches a
//! target accuracy at a much larger θ with fewer total interactions,
//! while at the paper's small θ the monopole is already good enough
//! (which is precisely why GreeM ships monopole).

use greem::{TreePm, TreePmConfig};
use greem_baselines::direct_periodic_fast;
use greem_tree::Multipole;

use crate::workloads;

/// One (θ, multipole) sample.
#[derive(Debug, Clone, Copy)]
pub struct AblationRow {
    pub theta: f64,
    pub multipole: Multipole,
    pub rms_rel_error: f64,
    pub interactions: u64,
}

/// Sweep θ for both multipole orders; errors against Ewald.
pub fn sweep(n: usize, n_mesh: usize, thetas: &[f64], seed: u64) -> Vec<AblationRow> {
    let pos = workloads::clustered(n, 3, 0.35, seed);
    let mass = workloads::unit_masses(n);
    let want = direct_periodic_fast(&pos, &mass);
    let mut out = Vec::new();
    for &multipole in &[Multipole::Monopole, Multipole::PseudoParticleQuad] {
        for &theta in thetas {
            let cfg = TreePmConfig {
                theta,
                eps: 0.0,
                multipole,
                // Fat cutoff (6 cells): the walk reaches far enough to
                // accept multipole nodes, so the orders actually differ
                // (at the paper's 3-cell cutoff nearly every in-range
                // cell is opened to particles and the choice is moot —
                // which is itself why GreeM ships monopole).
                r_cut: 6.0 / n_mesh as f64,
                ..TreePmConfig::standard(n_mesh)
            };
            let res = TreePm::new(cfg).compute(&pos, &mass);
            let mut e = 0.0;
            let mut c = 0;
            for (a, w) in res.accel.iter().zip(&want) {
                if w.norm() > 1e-9 {
                    e += ((*a - *w).norm() / w.norm()).powi(2);
                    c += 1;
                }
            }
            out.push(AblationRow {
                theta,
                multipole,
                rms_rel_error: (e / c as f64).sqrt(),
                interactions: res.walk.interactions,
            });
        }
    }
    out
}

/// The (θ, multipole) sweep on 300 (`small`) or 800 bodies, as text
/// and JSON.
pub fn run(small: bool) -> super::Outcome {
    let n = if small { 300 } else { 800 };
    let rows = sweep(n, 16, &[0.3, 0.5, 0.7, 0.9, 1.2], 55);
    let mut s = String::from(
        "=== Ablation: monopole vs pseudo-particle quadrupole ===========\n\
         multipole   theta   rms rel err   interactions\n",
    );
    let mut w = super::summary_writer("multipole", small);
    w.u64(Some("n"), n as u64);
    w.begin_arr(Some("rows"));
    for r in &rows {
        let order = match r.multipole {
            Multipole::Monopole => "monopole",
            Multipole::PseudoParticleQuad => "quadrupole",
        };
        s.push_str(&format!(
            "{:<11} {:>5.2} {:>12.4e} {:>14}\n",
            order, r.theta, r.rms_rel_error, r.interactions
        ));
        w.begin_obj(None);
        w.str_(Some("multipole"), order);
        w.f64(Some("theta"), r.theta);
        w.f64(Some("rms_rel_error"), r.rms_rel_error);
        w.u64(Some("interactions"), r.interactions);
        w.end_obj();
    }
    w.end_arr();
    s.push_str(
        "\n(at equal θ the quadrupole walk is markedly more accurate at 4\n\
         list entries per accepted node; at GreeM's small θ the monopole\n\
         is already below the PM error floor — the paper's design point.)\n",
    );
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrupole_dominates_at_large_theta() {
        let rows = sweep(300, 16, &[0.9], 5);
        let mono = rows
            .iter()
            .find(|r| r.multipole == Multipole::Monopole)
            .unwrap();
        let quad = rows
            .iter()
            .find(|r| r.multipole == Multipole::PseudoParticleQuad)
            .unwrap();
        assert!(
            quad.rms_rel_error < mono.rms_rel_error,
            "quad {} !< mono {}",
            quad.rms_rel_error,
            mono.rms_rel_error
        );
        assert!(
            quad.interactions > mono.interactions,
            "quad pays more kernel work"
        );
    }
}
