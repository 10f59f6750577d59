//! Per-step cost breakdown mirroring the paper's Table I rows.

use greem_math::FLOPS_PER_INTERACTION;
use greem_pm::PmPhaseTimes;
use greem_tree::WalkStats;

use crate::resident::PpOutcome;

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
    /// Total PP seconds (the paper's "PP(sec/step)" line).
    pub fn pp_total(&self) -> f64 {
        self.pp_local_tree
            + self.pp_communication
            + self.pp_tree_construction
            + self.pp_tree_traversal
            + self.pp_force_calculation
    }

    /// Total domain-decomposition seconds.
    pub fn dd_total(&self) -> f64 {
        self.dd_position_update + self.dd_sampling_method + self.dd_particle_exchange
    }

    /// Total step seconds (PM + PP + DD).
    pub fn total(&self) -> f64 {
        self.pm.total() + self.pp_total() + self.dd_total()
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

    /// Charge one PP pass: its tree build split evenly between "local
    /// tree" and "tree construction", its walk and kernel seconds, its
    /// walk statistics and replay.
    pub(crate) fn charge_pp(&mut self, out: &PpOutcome) {
        self.pp_local_tree += out.times.tree_build * 0.5;
        self.pp_tree_construction += out.times.tree_build * 0.5;
        self.pp_tree_traversal += out.times.traversal;
        self.pp_force_calculation += out.times.force;
        self.walk.merge(&out.walk);
        self.pp_list_replays += out.replayed as u64;
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

    /// The 13 measured phase rows as `(dotted name, seconds/step)`
    /// pairs, matching `TableOne::phase_rows` from `greem_perfmodel` and
    /// the phase names the weak-scaling scripts charge virtual time
    /// under — the join key between measurement, model and simulation.
    pub fn phase_rows(&self, steps: f64) -> [(&'static str, f64); 13] {
        let s = |v: f64| v / steps;
        [
            ("pm.density_assignment", s(self.pm.density_assignment)),
            ("pm.communication", s(self.pm.communication_sim)),
            ("pm.fft", s(self.pm.fft)),
            ("pm.accel_on_mesh", s(self.pm.acceleration_on_mesh)),
            ("pm.force_interpolation", s(self.pm.force_interpolation)),
            ("pp.local_tree", s(self.pp_local_tree)),
            ("pp.communication", s(self.pp_communication)),
            ("pp.tree_construction", s(self.pp_tree_construction)),
            ("pp.tree_traversal", s(self.pp_tree_traversal)),
            ("pp.force_calculation", s(self.pp_force_calculation)),
            ("dd.position_update", s(self.dd_position_update)),
            ("dd.sampling_method", s(self.dd_sampling_method)),
            ("dd.particle_exchange", s(self.dd_particle_exchange)),
        ]
    }

    /// Feed this breakdown into a metrics registry (see the
    /// [`greem_obs::Observe`] impl). Split out so callers can also invoke
    /// it directly on a `&StepBreakdown`.
    pub fn observe_into(&self, reg: &mut greem_obs::Registry) {
        use greem_obs::Observe as _;
        // PM rows come from the PmPhaseTimes observer
        // (`tableone_seconds{section=pm,…}`).
        self.pm.observe(reg);
        reg.with_label("section", "pp", |reg| {
            let rows = [
                ("local_tree", self.pp_local_tree),
                ("communication", self.pp_communication),
                ("tree_construction", self.pp_tree_construction),
                ("tree_traversal", self.pp_tree_traversal),
                ("force_calculation", self.pp_force_calculation),
            ];
            for (phase, secs) in rows {
                reg.with_label("phase", phase, |reg| {
                    reg.counter_add("tableone_seconds", secs);
                });
            }
        });
        reg.with_label("section", "dd", |reg| {
            let rows = [
                ("position_update", self.dd_position_update),
                ("sampling_method", self.dd_sampling_method),
                ("particle_exchange", self.dd_particle_exchange),
            ];
            for (phase, secs) in rows {
                reg.with_label("phase", phase, |reg| {
                    reg.counter_add("tableone_seconds", secs);
                });
            }
        });
        self.walk.observe(reg);
        reg.counter_add("pp_list_replays", self.pp_list_replays as f64);
        reg.gauge_set("flops_rate", self.flops_rate());
    }

    /// Render the Table-I-shaped text block for this breakdown.
    pub fn table(&self, steps: f64) -> String {
        let s = |v: f64| v / steps;
        let mut out = String::new();
        let mut push = |line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        push(format!(
            "PM(sec/step)            {:>10.4}",
            s(self.pm.total())
        ));
        push(format!(
            "  density assignment    {:>10.4}",
            s(self.pm.density_assignment)
        ));
        push(format!(
            "  communication         {:>10.4}",
            s(self.pm.communication_sim)
        ));
        push(format!("  FFT                   {:>10.4}", s(self.pm.fft)));
        push(format!(
            "  acceleration on mesh  {:>10.4}",
            s(self.pm.acceleration_on_mesh)
        ));
        push(format!(
            "  force interpolation   {:>10.4}",
            s(self.pm.force_interpolation)
        ));
        push(format!(
            "PP(sec/step)            {:>10.4}",
            s(self.pp_total())
        ));
        push(format!(
            "  local tree            {:>10.4}",
            s(self.pp_local_tree)
        ));
        push(format!(
            "  communication         {:>10.4}",
            s(self.pp_communication)
        ));
        push(format!(
            "  tree construction     {:>10.4}",
            s(self.pp_tree_construction)
        ));
        push(format!(
            "  tree traversal        {:>10.4}",
            s(self.pp_tree_traversal)
        ));
        push(format!(
            "  force calculation     {:>10.4}",
            s(self.pp_force_calculation)
        ));
        push(format!(
            "Domain Decomp.(sec/step){:>10.4}",
            s(self.dd_total())
        ));
        push(format!(
            "  position update       {:>10.4}",
            s(self.dd_position_update)
        ));
        push(format!(
            "  sampling method       {:>10.4}",
            s(self.dd_sampling_method)
        ));
        push(format!(
            "  particle exchange     {:>10.4}",
            s(self.dd_particle_exchange)
        ));
        push(format!("Total(sec/step)         {:>10.4}", s(self.total())));
        push(format!(
            "<Ni>                    {:>10.1}",
            self.walk.mean_ni()
        ));
        push(format!(
            "<Nj>                    {:>10.1}",
            self.walk.mean_nj()
        ));
        push(format!(
            "#interactions/step      {:>10.3e}",
            self.walk.interactions as f64 / steps
        ));
        push(format!(
            "measured performance    {:>10.3e} flops",
            self.flops_rate()
        ));
        out
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
        assert!((b.pp_total() - 3.0).abs() < 1e-15);
        assert!((b.dd_total() - 0.5).abs() < 1e-15);
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
