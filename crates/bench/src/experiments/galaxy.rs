//! The isolated-system scenario: Plummer galaxy collapse on the
//! open-boundary TreePM stack (`crates/astro`), run end-to-end and
//! gated as an experiment.
//!
//! Three things are measured on the seeded (fully deterministic)
//! collapse:
//!
//! 1. **Energy conservation** — |ΔE/E₀| of the direct-sum energy of
//!    the applied pair force law under the 4th-order Yoshida
//!    integrator, with BH capture/merger jumps booked against the
//!    offset ledger. The small configuration must hold the
//!    [`DRIFT_GATE`] (1e-3) *absolutely*, baseline or not; the
//!    leapfrog bound is documented (looser, ~2nd-order) but not run
//!    here.
//! 2. **BH event determinism** — the capture and FoF-merger counts are
//!    `Exact`-gated against `baselines/galaxy_{small,full}.json`: any
//!    drift is a semantic change to the force path, the integrator or
//!    the event pass, not noise.
//! 3. **Crash recovery** — the chaos wiring for the scenario: a
//!    checkpoint is written mid-collapse, the run continues to the
//!    end, and a second run resumed from that checkpoint must land on
//!    a **bitwise identical** final state (positions, velocities,
//!    masses, energy ledger). See `greem_astro::checkpoint`.
//!
//! See DESIGN.md §17 for the physics (James'-method isolated PM,
//! Yoshida coefficients, the BH merger rule, the direct-sum energy
//! measure).

use greem_astro::{GalaxyCollapse, GalaxyConfig, N_SPECIES};

/// Absolute energy-conservation gate for the small configuration under
/// the default (Yoshida) integrator. The measured value sits near
/// 5e-5; the gate leaves headroom for parameter churn while still
/// catching a broken integrator or force path (leapfrog at the same
/// step size lands near 8e-4 — see DESIGN.md §17).
pub const DRIFT_GATE: f64 = 1e-3;

/// Fraction of the way through the run at which the recovery check
/// writes its mid-collapse checkpoint.
const CRASH_FRACTION: f64 = 0.5;

/// One full scenario run plus the recovery rehearsal.
pub struct GalaxyOutcome {
    /// Initial body count (stars + DM + BH seeds).
    pub n_initial: usize,
    pub steps: u64,
    /// |ΔE/E₀| at the final step (event jumps booked out).
    pub energy_drift: f64,
    /// Virial ratio 2T/|W| at the first and last recorded step.
    pub virial_first: f64,
    pub virial_last: f64,
    pub bh_mergers: u64,
    pub bh_captures: u64,
    /// Final per-species particle counts and mass totals.
    pub final_counts: Vec<usize>,
    pub final_masses: Vec<f64>,
    pub heaviest_bh_mass: f64,
    /// Crash-recovery rehearsal: resumed run bitwise-matches the
    /// uninterrupted one.
    pub recovery_bitwise: bool,
    /// Step at which the recovery checkpoint was taken.
    pub crash_step: u64,
    pub wall_s: f64,
}

fn config(small: bool) -> GalaxyConfig {
    if small {
        GalaxyConfig::small()
    } else {
        GalaxyConfig::default()
    }
}

fn heaviest_bh(sc: &GalaxyCollapse) -> f64 {
    sc.bodies()
        .iter()
        .filter(|b| (b.id >> 56) as u8 == greem_astro::SPECIES_BH)
        .map(|b| b.mass)
        .fold(0.0, f64::max)
}

/// Bitwise state comparison: ids, masses, positions and velocities of
/// both runs (id-sorted), plus the energy ledger.
fn states_match(a: &GalaxyCollapse, b: &GalaxyCollapse) -> bool {
    let (mut ba, mut bb) = (a.bodies(), b.bodies());
    ba.sort_by_key(|x| x.id);
    bb.sort_by_key(|x| x.id);
    if ba.len() != bb.len() {
        return false;
    }
    let eq = ba.iter().zip(bb.iter()).all(|(x, y)| {
        x.id == y.id
            && x.mass.to_bits() == y.mass.to_bits()
            && x.pos.x.to_bits() == y.pos.x.to_bits()
            && x.pos.y.to_bits() == y.pos.y.to_bits()
            && x.pos.z.to_bits() == y.pos.z.to_bits()
            && x.vel.x.to_bits() == y.vel.x.to_bits()
            && x.vel.y.to_bits() == y.vel.y.to_bits()
            && x.vel.z.to_bits() == y.vel.z.to_bits()
    });
    eq && a.energy_offset().to_bits() == b.energy_offset().to_bits()
        && a.e0().to_bits() == b.e0().to_bits()
        && a.mergers() == b.mergers()
        && a.captures() == b.captures()
}

/// Run the seeded collapse, rehearsing a crash: checkpoint at the
/// midpoint, keep going, then resume a second scenario from the
/// checkpoint and demand a bitwise-identical final state.
pub fn measure(small: bool) -> GalaxyOutcome {
    let cfg = config(small);
    let t0 = std::time::Instant::now();
    let mut sc = GalaxyCollapse::new(cfg);
    let n_initial = sc.bodies().len();
    let crash_step = ((cfg.steps as f64 * CRASH_FRACTION) as u64).max(1);

    let ckpt = std::env::temp_dir().join(format!(
        "greem_galaxy_{}_{}.ckpt",
        std::process::id(),
        if small { "small" } else { "full" }
    ));
    while sc.steps_taken() < crash_step {
        sc.step();
    }
    sc.save_checkpoint(&ckpt).expect("checkpoint write");
    sc.run();

    // The "recovered" replica: resume from the mid-collapse checkpoint
    // and run to the end.
    let recovery_bitwise = match greem_astro::resume(cfg, &ckpt) {
        Ok(mut replica) => {
            replica.run();
            states_match(&sc, &replica)
        }
        Err(_) => false,
    };
    let _ = std::fs::remove_file(&ckpt);

    let census = sc.census();
    let hist = sc.virial_history();
    GalaxyOutcome {
        n_initial,
        steps: sc.steps_taken(),
        energy_drift: sc.energy_drift(),
        virial_first: hist.first().copied().unwrap_or(0.0),
        virial_last: hist.last().copied().unwrap_or(0.0),
        bh_mergers: sc.mergers(),
        bh_captures: sc.captures(),
        final_counts: census.counts,
        final_masses: census.masses,
        heaviest_bh_mass: heaviest_bh(&sc),
        recovery_bitwise,
        crash_step,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

const SPECIES_NAMES: [&str; N_SPECIES] = ["stars", "dm", "bh"];

fn render(o: &GalaxyOutcome) -> String {
    let mut s = String::from(
        "=== galaxy: isolated Plummer collapse (crates/astro) ============\n\n\
         Multi-species cold collapse under open-boundary TreePM gravity\n\
         (James'-method PM), Yoshida 4th-order integrator, BH capture +\n\
         FoF-merger events with exact mass/momentum bookkeeping.\n\n",
    );
    s.push_str(&format!(
        "  bodies            {} initial, {} steps\n\
         \x20 2T/|W|            {:.3} -> {:.3}\n\
         \x20 |dE/E0|           {:.3e}  (gate {:.0e}, Yoshida; leapfrog bound documented)\n\
         \x20 BH mergers        {}\n\
         \x20 BH captures       {}\n\
         \x20 heaviest BH mass  {:.4}\n",
        o.n_initial,
        o.steps,
        o.virial_first,
        o.virial_last,
        o.energy_drift,
        DRIFT_GATE,
        o.bh_mergers,
        o.bh_captures,
        o.heaviest_bh_mass,
    ));
    s.push_str("  final census      ");
    for (i, name) in SPECIES_NAMES.iter().enumerate() {
        if i > 0 {
            s.push_str(" + ");
        }
        s.push_str(&format!(
            "{} {name} ({:.3} mass)",
            o.final_counts.get(i).copied().unwrap_or(0),
            o.final_masses.get(i).copied().unwrap_or(0.0),
        ));
    }
    s.push_str(&format!(
        "\n  recovery          checkpoint at step {}, resumed replica {}\n\
         \x20 wall              {:.2}s\n",
        o.crash_step,
        if o.recovery_bitwise {
            "bitwise-identical"
        } else {
            "DIVERGED"
        },
        o.wall_s,
    ));
    s
}

/// The `--json` payload.
fn write_outcome(o: &GalaxyOutcome, w: &mut greem_obs::json::JsonWriter) {
    w.u64(Some("n_initial"), o.n_initial as u64);
    w.u64(Some("steps"), o.steps);
    w.f64(Some("energy_drift"), o.energy_drift);
    w.f64(Some("drift_gate"), DRIFT_GATE);
    w.f64(Some("virial_first"), o.virial_first);
    w.f64(Some("virial_last"), o.virial_last);
    w.u64(Some("bh_mergers"), o.bh_mergers);
    w.u64(Some("bh_captures"), o.bh_captures);
    w.f64(Some("heaviest_bh_mass"), o.heaviest_bh_mass);
    w.begin_arr(Some("census"));
    for (i, name) in SPECIES_NAMES.iter().enumerate() {
        w.begin_obj(None);
        w.str_(Some("species"), name);
        w.u64(
            Some("count"),
            o.final_counts.get(i).copied().unwrap_or(0) as u64,
        );
        w.f64(Some("mass"), o.final_masses.get(i).copied().unwrap_or(0.0));
        w.end_obj();
    }
    w.end_arr();
    w.u64(Some("crash_step"), o.crash_step);
    w.bool_(Some("recovery_bitwise"), o.recovery_bitwise);
    w.f64(Some("wall_s"), o.wall_s);
}

/// Gate metrics. The event counts and the recovery flag are `Exact` —
/// the scenario is seeded and bitwise deterministic, so any drift is a
/// semantic change. Energy drift is `LowerIsBetter` with 50 % headroom
/// on top of the committed value (it also has the absolute
/// [`DRIFT_GATE`], a hard failure of [`run`] even without a baseline).
fn metric_specs(o: &GalaxyOutcome) -> Vec<greem_analysis::MetricSpec> {
    use greem_analysis::{Direction, MetricSpec};
    vec![
        MetricSpec::new(
            "energy_drift",
            o.energy_drift,
            0.5,
            true,
            Direction::LowerIsBetter,
        ),
        MetricSpec::new(
            "bh_mergers",
            o.bh_mergers as f64,
            0.0,
            true,
            Direction::Exact,
        ),
        MetricSpec::new(
            "bh_captures",
            o.bh_captures as f64,
            0.0,
            true,
            Direction::Exact,
        ),
        MetricSpec::new(
            "recovery_bitwise",
            if o.recovery_bitwise { 1.0 } else { 0.0 },
            0.0,
            true,
            Direction::Exact,
        ),
        MetricSpec::new(
            "final_bh_count",
            o.final_counts
                .get(greem_astro::SPECIES_BH as usize)
                .copied()
                .unwrap_or(0) as f64,
            0.0,
            true,
            Direction::Exact,
        ),
        MetricSpec::new("wall_s", o.wall_s, 0.5, false, Direction::LowerIsBetter),
    ]
}

/// `harness galaxy`: run the collapse, render it, and hand it to the
/// gate. Two gates stack: the absolute checks (energy drift ≤
/// [`DRIFT_GATE`] on the small config, recovery bitwise, ≥1 merger on
/// the seeded small config) fail the run even without a baseline; the
/// committed baseline (`baselines/galaxy_{small,full}.json`, optional)
/// additionally `Exact`-gates the event counts.
pub fn run(small: bool) -> super::Outcome {
    let o = measure(small);
    let mut spec = super::GateSpec::new("galaxy", small, metric_specs(&o), false);
    // The drift gate applies to the small configuration (the full run
    // accumulates event-jump bookkeeping error over ~10x more
    // captures; its drift is recorded and baseline-gated but not
    // bounded absolutely — see DESIGN.md §17).
    if small && o.energy_drift > DRIFT_GATE {
        spec.hard_failures.push(format!(
            "energy drift {:.3e} exceeds the absolute gate {DRIFT_GATE:.0e}",
            o.energy_drift
        ));
    }
    if small && o.bh_mergers < 1 {
        spec.hard_failures
            .push("seeded small config produced no BH merger".into());
    }
    if !o.recovery_bitwise {
        spec.hard_failures
            .push("mid-collapse checkpoint resume diverged from the clean run".into());
    }
    let mut w = super::summary_writer("galaxy", small);
    write_outcome(&o, &mut w);
    super::Outcome::new(render(&o), w).gated(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greem_obs::json::{parse, Value};

    #[test]
    fn small_collapse_passes_every_absolute_gate() {
        let o = measure(true);
        assert!(o.n_initial > 0 && o.steps > 0);
        // The seeded small config must merge its BH seeds and conserve
        // energy under the absolute gate (ISSUE acceptance).
        assert!(o.bh_mergers >= 1, "no BH merger on the seeded config");
        assert!(
            o.energy_drift <= DRIFT_GATE,
            "drift {:.3e} over the {DRIFT_GATE:.0e} gate",
            o.energy_drift
        );
        // Cold start relaxing toward virialisation.
        assert!(o.virial_first < 0.5, "start not cold: {}", o.virial_first);
        assert!(o.virial_last > o.virial_first);
        // Chaos wiring: the mid-collapse resume is bitwise.
        assert!(o.recovery_bitwise, "checkpoint resume diverged");
        // Census partitions the bodies.
        let total: usize = o.final_counts.iter().sum();
        assert!(total > 0 && total <= o.n_initial);
        assert!(o.heaviest_bh_mass > 0.0);

        // The same run as `--json` renders it.
        let mut w = super::super::summary_writer("galaxy", true);
        write_outcome(&o, &mut w);
        w.end_obj();
        let d = parse(&w.finish()).unwrap();
        let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap();
        assert!(num(&d, "energy_drift") <= num(&d, "drift_gate"));
        assert!(num(&d, "drift_gate") <= 1e-3);
        assert!(num(&d, "virial_first") < 0.5 && 0.5 < 2.0 * num(&d, "virial_last"));
        let census = d.get("census").and_then(Value::as_arr).unwrap();
        let species: Vec<_> = census
            .iter()
            .map(|c| c.get("species").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(species, ["stars", "dm", "bh"]);
        let count: f64 = census.iter().map(|c| num(c, "count")).sum();
        let survivors = num(&d, "n_initial") - num(&d, "bh_captures") - num(&d, "bh_mergers");
        assert_eq!(count, survivors, "census rows partition the survivors");
        let mass: f64 = census.iter().map(|c| num(c, "mass")).sum();
        assert!((mass - 1.0).abs() < 1e-9, "census mass {mass}");
    }

    #[test]
    fn metric_specs_cover_the_contract() {
        use greem_analysis::Direction;
        let o = GalaxyOutcome {
            n_initial: 195,
            steps: 48,
            energy_drift: 5e-5,
            virial_first: 0.17,
            virial_last: 0.59,
            bh_mergers: 2,
            bh_captures: 24,
            final_counts: vec![78, 90, 1],
            final_masses: vec![0.2, 0.65, 0.15],
            heaviest_bh_mass: 0.15,
            recovery_bitwise: true,
            crash_step: 24,
            wall_s: 1.0,
        };
        let m = metric_specs(&o);
        let find = |n: &str| m.iter().find(|s| s.name == n).unwrap();
        assert_eq!(find("bh_mergers").dir, Direction::Exact);
        assert!(find("bh_mergers").gate);
        assert_eq!(find("bh_captures").dir, Direction::Exact);
        assert_eq!(find("recovery_bitwise").value, 1.0);
        assert_eq!(find("energy_drift").dir, Direction::LowerIsBetter);
        assert!(!find("wall_s").gate);
    }
}
