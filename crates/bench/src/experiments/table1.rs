//! **Table I** — calculation cost of each part per step and the
//! performance statistics, at 24576 and 82944 nodes.
//!
//! Three blocks:
//! 1. the published columns,
//! 2. the perfmodel predictions (force row first-principles, local rows
//!    calibrated at 24576 and validated at 82944),
//! 3. a *measured* breakdown of the same row structure from a real
//!    multi-rank run of this implementation (scaled down to the host).

use greem::{ParallelTreePm, SimulationMode, StepBreakdown, TreePmConfig};
use greem_obs::json::JsonWriter;
use greem_perfmodel::{model_table, paper_table, TableOne};
use mpisim::{NetModel, World};

use crate::workloads;

/// Scaled-down measured run parameters.
pub struct MeasuredRun {
    pub n_particles: usize,
    pub n_mesh: usize,
    pub ranks: usize,
    pub div: [usize; 3],
    pub steps: usize,
}

impl Default for MeasuredRun {
    fn default() -> Self {
        MeasuredRun {
            n_particles: 8_000,
            n_mesh: 32,
            ranks: 8,
            div: [2, 2, 2],
            steps: 3,
        }
    }
}

/// Run the measured block: a real `ParallelTreePm` over mpisim,
/// averaging the per-step breakdown over `steps` steps on rank 0.
pub fn measured_breakdown(run: &MeasuredRun) -> StepBreakdown {
    let pos = workloads::clustered(run.n_particles, 4, 0.4, 42);
    let bodies = workloads::bodies_at_rest(&pos);
    let steps = run.steps;
    let n_mesh = run.n_mesh;
    let div = run.div;
    let out = World::new(run.ranks)
        .with_net(NetModel::k_computer())
        .run(move |ctx, world| {
            let cfg = TreePmConfig {
                group_size: 100,
                ..TreePmConfig::standard(n_mesh)
            };
            let root_bodies = (world.rank() == 0).then(|| bodies.clone());
            let mut sim = ParallelTreePm::new(
                ctx,
                world,
                cfg,
                div,
                4.min(world.size()),
                None,
                root_bodies,
                SimulationMode::Static,
            );
            let mut acc = StepBreakdown::default();
            for _ in 0..steps {
                let s = sim.step(ctx, world, 1e-3);
                acc.accumulate(&s.breakdown);
            }
            acc
        });
    out.into_iter().next().unwrap()
}

/// The harness's scaled-down run (`--small`).
pub fn small_run() -> MeasuredRun {
    MeasuredRun {
        n_particles: 1500,
        n_mesh: 16,
        ranks: 4,
        div: [2, 2, 1],
        steps: 1,
    }
}

/// The measured rows as a JSON object: one sub-object per Table-I
/// section (`pm`, `pp`, `dd`) holding its `total` and its
/// [`StepBreakdown::phase_rows`], then the step total and the walk
/// statistics. All timings are seconds per step.
fn write_measured(w: &mut JsonWriter, bd: &StepBreakdown, steps: f64) {
    w.begin_obj(Some("measured"));
    let rows = bd.phase_rows(steps);
    for (section, total) in [
        ("pm", bd.pm.total()),
        ("pp", bd.pp_total()),
        ("dd", bd.dd_total()),
    ] {
        w.begin_obj(Some(section));
        w.f64(Some("total"), total / steps);
        for (name, secs) in rows {
            if let Some(phase) = name.strip_prefix(section).and_then(|r| r.strip_prefix('.')) {
                w.f64(Some(phase), secs);
            }
        }
        w.end_obj();
    }
    w.f64(Some("total"), bd.total() / steps);
    w.f64(Some("mean_ni"), bd.walk.mean_ni());
    w.f64(Some("mean_nj"), bd.walk.mean_nj());
    w.f64(
        Some("interactions_per_step"),
        bd.walk.interactions as f64 / steps,
    );
    w.f64(Some("pp_group_size"), bd.pp_group_size);
    w.f64(Some("pp_list_replays"), bd.pp_list_replays as f64 / steps);
    w.f64(Some("flops_rate"), bd.flops_rate());
    w.end_obj();
}

/// Table I — published columns, perfmodel prediction and one measured
/// run ([`small_run`] or the default) — as text and JSON.
pub fn run(small: bool) -> super::Outcome {
    let run = if small {
        small_run()
    } else {
        MeasuredRun::default()
    };
    let bd = measured_breakdown(&run);
    let steps = run.steps as f64;
    let nodes = [24576usize, 82944];

    let mut s = String::new();
    s.push_str("=== Table I: published columns =================================\n");
    for p in nodes {
        s.push_str(&paper_table(p).render());
        s.push('\n');
    }
    s.push_str("=== Table I: perfmodel prediction ==============================\n");
    s.push_str("(force row first-principles from the Sec. II-A kernel rate;\n");
    s.push_str(" local rows calibrated at p=24576; 82944 is held out)\n\n");
    for p in nodes {
        s.push_str(&model_table(p).render());
        s.push('\n');
    }
    s.push_str("=== Table I: measured on this implementation (scaled down) =====\n");
    s.push_str(&format!(
        "N = {} particles, mesh {}^3, {} mpisim ranks, {} steps (mean/step)\n\n",
        run.n_particles, run.n_mesh, run.ranks, run.steps
    ));
    s.push_str(&bd.table(steps));

    let mut w = super::summary_writer("table1", small);
    w.u64(Some("n_particles"), run.n_particles as u64);
    w.u64(Some("ranks"), run.ranks as u64);
    w.u64(Some("steps"), run.steps as u64);
    write_measured(&mut w, &bd, steps);
    for (key, table) in [
        ("paper", paper_table as fn(usize) -> TableOne),
        ("model", model_table),
    ] {
        w.begin_arr(Some(key));
        for t in nodes.map(table) {
            w.begin_obj(None);
            w.u64(Some("nodes"), t.nodes as u64);
            w.f64(Some("total_s_per_step"), t.total());
            w.f64(Some("pm_s"), t.pm_total());
            w.f64(Some("pp_s"), t.pp_total());
            w.f64(Some("dd_s"), t.dd_total());
            w.f64(Some("pflops"), t.performance() / 1e15);
            w.f64(Some("efficiency"), t.efficiency());
            w.end_obj();
        }
        w.end_arr();
    }
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measured_run_produces_all_rows() {
        let run = MeasuredRun {
            n_particles: 400,
            n_mesh: 8,
            ranks: 2,
            div: [2, 1, 1],
            steps: 1,
        };
        let bd = measured_breakdown(&run);
        assert!(bd.walk.interactions > 0);
        assert!(bd.pp_force_calculation > 0.0);
        assert!(bd.pm.communication_sim > 0.0);
        assert!(bd.dd_particle_exchange > 0.0);
        assert!(bd.total() > 0.0, "the JSON's `measured.total`");
        let table = bd.table(1.0);
        assert!(table.contains("FFT"));
    }

    #[test]
    fn measured_json_keeps_section_totals_and_divides_by_steps() {
        let mut bd = StepBreakdown::default();
        bd.pm.fft = 3.0;
        bd.pp_force_calculation = 6.0;
        bd.dd_sampling_method = 1.5;
        bd.walk.interactions = 300;
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        write_measured(&mut w, &bd, 3.0);
        w.end_obj();
        let doc = greem_obs::json::parse(&w.finish()).expect("one valid JSON object");
        let m = doc.get("measured").unwrap();
        let num = |v: &greem_obs::json::Value, k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap();
        assert_eq!(num(m.get("pm").unwrap(), "fft"), 1.0);
        assert_eq!(num(m.get("pm").unwrap(), "total"), 1.0);
        assert_eq!(num(m.get("pp").unwrap(), "force_calculation"), 2.0);
        assert_eq!(num(m.get("dd").unwrap(), "sampling_method"), 0.5);
        assert_eq!(num(m, "total"), 3.5);
        assert_eq!(num(m, "interactions_per_step"), 100.0);
        // 5 + 5 + 3 phase rows, each under its section.
        for (section, rows) in [("pm", 5), ("pp", 5), ("dd", 3)] {
            let greem_obs::json::Value::Obj(fields) = m.get(section).unwrap() else {
                panic!("{section} is not an object");
            };
            assert_eq!(fields.len(), rows + 1, "{section}");
        }
    }
}
