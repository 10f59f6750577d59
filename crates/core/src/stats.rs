//! Per-step cost breakdown mirroring the paper's Table I rows.

use greem_math::FLOPS_PER_INTERACTION;
use greem_perfmodel::tableone::{table_line, Rows};
use greem_pm::PmPhaseTimes;
use greem_tree::WalkStats;

/// The cost breakdown of one TreePM step, structured exactly like the
/// paper's Table I: a PM (long-range) block, a PP (short-range) block
/// and a domain-decomposition block, plus the walk statistics ⟨Ni⟩,
/// ⟨Nj⟩ and the interaction count from which the paper derives its flop
/// rates (51 flops per interaction).
#[derive(Debug, Clone, Default)]
pub struct StepBreakdown {
    // ----- PM (long-range part) -----
    /// The five PM phases (density assignment, communication, FFT,
    /// acceleration on mesh, force interpolation).
    pub pm: PmPhaseTimes,
    // ----- PP (short-range part) -----
    /// "local tree": Morton sort + building the tree of local particles.
    pub pp_local_tree: f64,
    /// "communication": exporting/importing boundary particles.
    pub pp_communication: f64,
    /// "tree construction": building the combined (local + imported)
    /// tree the walk runs on.
    pub pp_tree_construction: f64,
    /// "tree traversal": the group walks building interaction lists.
    pub pp_tree_traversal: f64,
    /// "force calculation": the PP kernel over the lists.
    pub pp_force_calculation: f64,
    // ----- Domain decomposition -----
    /// "position update": the drift (and kick bookkeeping).
    pub dd_position_update: f64,
    /// "sampling method": the balancer collective.
    pub dd_sampling_method: f64,
    /// "particle exchange": routing particles to their new owners.
    pub dd_particle_exchange: f64,
    // ----- Statistics -----
    /// Aggregated walk statistics of the PP cycles in this step.
    pub walk: WalkStats,
    /// PP evaluations served from the interaction-list cache (replays)
    /// instead of fresh tree walks.
    pub pp_list_replays: u64,
}

impl StepBreakdown {
    /// The 13 measured rows, in Table I order
    /// ([`greem_perfmodel::ROWS`]; PM communication is the simulated
    /// network seconds).
    pub fn rows(&self) -> Rows {
        let pm = &self.pm;
        Rows([
            pm.density_assignment,
            pm.communication_sim,
            pm.fft,
            pm.acceleration_on_mesh,
            pm.force_interpolation,
            self.pp_local_tree,
            self.pp_communication,
            self.pp_tree_construction,
            self.pp_tree_traversal,
            self.pp_force_calculation,
            self.dd_position_update,
            self.dd_sampling_method,
            self.dd_particle_exchange,
        ])
    }

    /// Total step seconds (PM + PP + DD).
    pub fn total(&self) -> f64 {
        self.rows().total()
    }

    /// Pairwise interactions this step (the paper reports
    /// ~5.3×10¹⁵ per step at N = 10240³).
    pub fn interactions(&self) -> u64 {
        self.walk.interactions
    }

    /// Flop count at the paper's 51 flops/interaction accounting.
    pub fn flops(&self) -> f64 {
        self.walk.interactions as f64 * FLOPS_PER_INTERACTION
    }

    /// Sustained flop rate over the whole step (the headline number:
    /// 4.45 Pflops on the full K computer).
    pub fn flops_rate(&self) -> f64 {
        let t = self.total();
        if t > 0.0 {
            self.flops() / t
        } else {
            0.0
        }
    }

    /// Accumulate another step's breakdown (callers divide by the step
    /// count for per-step averages, as the paper does over its last
    /// five steps).
    pub fn accumulate(&mut self, o: &StepBreakdown) {
        self.pm.accumulate(&o.pm);
        self.pp_local_tree += o.pp_local_tree;
        self.pp_communication += o.pp_communication;
        self.pp_tree_construction += o.pp_tree_construction;
        self.pp_tree_traversal += o.pp_tree_traversal;
        self.pp_force_calculation += o.pp_force_calculation;
        self.dd_position_update += o.dd_position_update;
        self.dd_sampling_method += o.dd_sampling_method;
        self.dd_particle_exchange += o.dd_particle_exchange;
        self.walk.merge(&o.walk);
        self.pp_list_replays += o.pp_list_replays;
    }

    /// The 13 measured rows as `(key, seconds/step)` pairs over `steps`
    /// accumulated steps — the keys of the modelled column and of the
    /// spans that time the rows.
    pub fn phase_rows(&self, steps: f64) -> [(&'static str, f64); 13] {
        self.rows().per(steps).pairs()
    }

    /// Feed this breakdown into a metrics registry (see the
    /// [`greem_obs::Observe`] impl): the rows under
    /// `tableone_seconds{section,phase}`, plus the PM conversions' wall
    /// seconds as `phase=communication_wall`. Split out so callers can
    /// also invoke it directly on a `&StepBreakdown`.
    pub fn observe_into(&self, reg: &mut greem_obs::Registry) {
        use greem_obs::Observe as _;
        self.rows().observe(reg);
        reg.with_label("section", "pm", |reg| {
            reg.with_label("phase", "communication_wall", |reg| {
                reg.counter_add("tableone_seconds", self.pm.communication_wall);
            });
        });
        self.walk.observe(reg);
        reg.counter_add("pp_list_replays", self.pp_list_replays as f64);
        reg.gauge_set("flops_rate", self.flops_rate());
    }

    /// Render the Table-I-shaped text block of `steps` accumulated
    /// steps: the rows per step, then the walk statistics.
    pub fn table(&self, steps: f64) -> String {
        let mut s = self.rows().per(steps).render();
        s += &table_line("<Ni>", format!("{:.1}", self.walk.mean_ni()));
        s += &table_line("<Nj>", format!("{:.1}", self.walk.mean_nj()));
        let per_step = self.walk.interactions as f64 / steps;
        s += &table_line("#interactions/step", format!("{per_step:.3e}"));
        let rate = self.flops_rate();
        s + &table_line("measured performance", format!("{rate:.3e} flops"))
    }
}

impl greem_obs::Observe for StepBreakdown {
    fn observe(&self, reg: &mut greem_obs::Registry) {
        self.observe_into(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut b = StepBreakdown {
            pp_local_tree: 1.0,
            pp_force_calculation: 2.0,
            dd_sampling_method: 0.5,
            ..Default::default()
        };
        b.pm.fft = 0.25;
        let rows = b.rows();
        assert_eq!(rows.section("pm"), 0.25);
        assert!((rows.section("pp") - 3.0).abs() < 1e-15);
        assert!((rows.section("dd") - 0.5).abs() < 1e-15);
        assert!((b.total() - 3.75).abs() < 1e-15);
    }

    #[test]
    fn flops_accounting_uses_51() {
        let mut b = StepBreakdown::default();
        b.walk.interactions = 100;
        b.pp_force_calculation = 2.0;
        assert_eq!(b.flops(), 5100.0);
        assert!((b.flops_rate() - 5100.0 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn accumulate_merges_everything() {
        let mut a = StepBreakdown {
            pp_tree_traversal: 1.0,
            ..Default::default()
        };
        a.walk.interactions = 10;
        a.walk.n_groups = 1;
        let mut b = StepBreakdown {
            pp_tree_traversal: 2.0,
            ..Default::default()
        };
        b.walk.interactions = 30;
        b.walk.n_groups = 2;
        a.accumulate(&b);
        assert_eq!(a.pp_tree_traversal, 3.0);
        assert_eq!(a.walk.interactions, 40);
        assert_eq!(a.walk.n_groups, 3);
    }

    #[test]
    fn phase_rows_divide_by_steps_and_sum_to_total() {
        let mut b = StepBreakdown::default();
        b.pm.fft = 3.0;
        b.pp_force_calculation = 6.0;
        b.dd_sampling_method = 1.5;
        let rows = b.phase_rows(3.0);
        let sum: f64 = rows.iter().map(|(_, v)| v).sum();
        assert!((sum - b.total() / 3.0).abs() < 1e-12);
        assert!(rows.contains(&("pm.fft", 1.0)));
        assert!(rows.contains(&("pp.force_calculation", 2.0)));
        assert!(rows.contains(&("dd.sampling_method", 0.5)));
    }

    #[test]
    fn table_renders_all_rows() {
        let b = StepBreakdown::default();
        let t = b.table(1.0);
        for row in [
            "PM(sec/step)",
            "density assignment",
            "FFT",
            "force interpolation",
            "PP(sec/step)",
            "local tree",
            "tree construction",
            "tree traversal",
            "force calculation",
            "Domain Decomp.",
            "position update",
            "sampling method",
            "particle exchange",
            "Total(sec/step)",
            "<Ni>",
            "<Nj>",
            "#interactions/step",
            "measured performance",
        ] {
            assert!(t.contains(row), "missing row {row}");
        }
    }
}
