//! TreePM configuration.

use greem_math::ForceSplit;
use greem_pm::PmParams;
use greem_tree::{Multipole, TraverseParams, TreeParams};

/// Boundary condition of the gravity solve.
///
/// * [`Boundary::Periodic`] — the paper's cosmology box: minimum-image
///   tree walk, periodic FFT Poisson solve with the uniform background
///   subtracted (the k = 0 "Jeans swindle").
/// * [`Boundary::Isolated`] — open space: the tree walk uses plain
///   (non-wrapping) distances, the PM half runs James'-method
///   zero-padded convolution on a 2× mesh
///   ([`greem_pm::PmSolver::isolated`]), and drifts do not wrap positions
///   (DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Boundary {
    /// Periodic unit torus (default; the paper's setup).
    #[default]
    Periodic,
    /// Open boundary: no periodic images anywhere in the force path.
    Isolated,
}

/// Whether a run can take `n_mesh` PM cells per side: a power of two
/// (the FFT's and the relay slabs' rule) of at least 8 — below it the
/// cutoff `3/n_mesh` passes half the box and the minimum-image
/// tree walk no longer holds. Every front end checks this rule before
/// it builds a solver, which would panic on a side outside it.
pub fn is_valid_mesh(n_mesh: usize) -> bool {
    n_mesh >= 8 && n_mesh.is_power_of_two()
}

/// Every knob of the TreePM solver, with the paper's choices as
/// defaults.
#[derive(Debug, Clone, Copy)]
pub struct TreePmConfig {
    /// PM mesh cells per side (power of two). The paper keeps
    /// `N ∈ [N_PM·2³, N_PM·4³]` particles per run, i.e. a mesh of
    /// N^(1/3)/2 … N^(1/3)/4 per side, "in order to minimize the force
    /// error".
    pub n_mesh: usize,
    /// Short-range cutoff radius. Default `3/n_mesh` (§III-A).
    pub r_cut: f64,
    /// Opening angle of the tree walk. TreePM tolerates a relatively
    /// large θ because distant contributions go through the FFT (§I).
    pub theta: f64,
    /// Group size ⟨Ni⟩ target of Barnes' modified traversal
    /// (~100 on K computer, ~500 on GPU clusters, §II). Every PP pass
    /// runs at it; `harness ni_sweep` measures the trade-off.
    pub group_size: usize,
    /// Plummer softening of the short-range force, ε ≪ r_cut.
    pub eps: f64,
    /// TSC deconvolution in the PM Green's function.
    pub deconvolve: bool,
    /// Multipole order of accepted tree nodes. GreeM runs
    /// monopole-only; the pseudo-particle quadrupole is this library's
    /// accuracy extension (see `greem_tree::multipole`).
    pub multipole: Multipole,
    /// When set, a rank with neighbours feeds the sampling balancer a
    /// *modelled* PP cost — this many virtual seconds per tree-walk
    /// interaction, charged to the rank's `mpisim` clock — instead of
    /// wall-clock kernel timings. Modelled cost is deterministic (so
    /// multi-step parallel runs become bit-reproducible, a prerequisite
    /// for checkpoint/rollback proofs) and it responds to injected
    /// straggler slowdowns, closing the paper's feedback loop under
    /// fault injection. `None` keeps the measured-time behaviour. A rank
    /// that owns the whole box has no balancer and ignores it.
    pub modeled_pp_cost: Option<f64>,
    /// Reuse each group's recorded interaction list across PP
    /// sub-cycles and steps (the rank that owns the whole box): a walk
    /// records list structure with a cutoff margin, and every later
    /// pass replays it against drifted positions and refreshed node
    /// monopoles while every particle has moved less than half the
    /// margin since (see `crate::resident`). Monopole-only; quadrupole
    /// runs always walk fresh.
    pub list_reuse: bool,
    /// Boundary condition: periodic torus (the paper's box) or isolated
    /// open space. Selects the PM backend, switches
    /// the PP walk's minimum-image logic, and decides whether drifts
    /// wrap positions.
    pub boundary: Boundary,
}

impl TreePmConfig {
    /// Paper-standard configuration for a given PM mesh side.
    pub fn standard(n_mesh: usize) -> Self {
        let r_cut = 3.0 / n_mesh as f64;
        TreePmConfig {
            n_mesh,
            r_cut,
            theta: 0.5,
            group_size: 100,
            eps: r_cut / 30.0,
            deconvolve: true,
            multipole: Multipole::Monopole,
            modeled_pp_cost: None,
            list_reuse: true,
            boundary: Boundary::Periodic,
        }
    }

    /// Paper-standard configuration with isolated (open) boundaries —
    /// the open-space counterpart of [`TreePmConfig::standard`].
    pub fn isolated(n_mesh: usize) -> Self {
        TreePmConfig {
            boundary: Boundary::Isolated,
            ..Self::standard(n_mesh)
        }
    }

    /// The force split (cutoff + softening) both solvers share.
    pub fn split(&self) -> ForceSplit {
        ForceSplit::new(self.r_cut, self.eps)
    }

    /// Tree construction parameters: the tree's defaults (8 bodies a
    /// leaf).
    pub fn tree_params(&self) -> TreeParams {
        TreeParams::default()
    }

    /// Tree traversal parameters (cutoff-pruned; minimum-image geometry
    /// only under periodic boundaries).
    pub fn traverse_params(&self) -> TraverseParams {
        TraverseParams {
            theta: self.theta,
            group_size: self.group_size,
            r_cut: Some(self.r_cut),
            periodic: self.boundary == Boundary::Periodic,
            multipole: self.multipole,
        }
    }

    /// Serial PM solver parameters.
    pub fn pm_params(&self) -> PmParams {
        PmParams {
            n_mesh: self.n_mesh,
            r_cut: self.r_cut,
            deconvolve: self.deconvolve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_matches_paper_rules() {
        let c = TreePmConfig::standard(64);
        assert!((c.r_cut - 3.0 / 64.0).abs() < 1e-15);
        assert_eq!(c.group_size, 100);
        assert!(c.eps < c.r_cut);
        // The paper's production choice: N_PM = 4096 gives
        // r_cut ≈ 7.32e-4.
        let big = TreePmConfig::standard(4096);
        assert!((big.r_cut - 7.324e-4).abs() < 1e-6);
    }

    #[test]
    fn derived_param_structs_consistent() {
        let c = TreePmConfig::standard(32);
        assert_eq!(c.split().r_cut, c.r_cut);
        assert_eq!(c.traverse_params().r_cut, Some(c.r_cut));
        assert_eq!(c.pm_params().n_mesh, 32);
        assert_eq!(c.tree_params().leaf_capacity, 8);
    }

    #[test]
    fn mesh_rule_takes_powers_of_two_from_eight() {
        for n in [8, 16, 32, 4096] {
            assert!(is_valid_mesh(n), "{n}");
        }
        for n in [0, 1, 2, 4, 12, 24, 33] {
            assert!(!is_valid_mesh(n), "{n}");
        }
    }

    #[test]
    fn boundary_threads_into_traverse_params() {
        let p = TreePmConfig::standard(32);
        assert_eq!(p.boundary, Boundary::Periodic);
        assert!(p.traverse_params().periodic);
        let i = TreePmConfig::isolated(32);
        assert_eq!(i.boundary, Boundary::Isolated);
        assert!(!i.traverse_params().periodic);
        // Everything else matches the periodic standard.
        assert_eq!(i.r_cut, p.r_cut);
        assert_eq!(i.group_size, p.group_size);
    }
}
