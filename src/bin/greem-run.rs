//! `greem-run` — the command-line front end of the TreePM library: a
//! periodic-box cosmological run from generated initial conditions (or
//! a checkpoint), reporting the Table-I-style per-step costs.
//!
//! ```text
//! greem-run [--n-side 16] [--mesh 32] [--steps 24]
//!           [--z-start 400] [--z-end 31] [--cutoff-modes 4]
//!           [--delta0 0.1] [--seed 1] [--theta 0.5] [--group 100]
//!           [--checkpoint-out PATH] [--resume PATH] [--quiet]
//!           [--trace PATH] [--metrics PATH]
//! ```
//!
//! With `--resume` the particle state and epoch come from the
//! checkpoint and the IC options are ignored.
//!
//! `--trace PATH` writes a Chrome-trace (Perfetto-loadable) JSON of
//! the run's spans; `--metrics PATH` writes one JSON report line per
//! step (Table I rows, walk statistics, flop rate).
//!
//! An option outside the range the solver can run exits 2 with the
//! reason, before any work.

use greem::{config::is_valid_mesh, projected_density, Body, Simulation, SimulationMode};
use greem::{StepBreakdown, TreePmConfig};
use greem_cosmo::{generate_ics, Cosmology, IcParams, PowerSpectrum};

#[derive(Debug)]
struct Opts {
    n_side: usize,
    mesh: usize,
    steps: usize,
    z_start: f64,
    z_end: f64,
    cutoff_modes: f64,
    delta0: f64,
    seed: u64,
    theta: f64,
    group: usize,
    checkpoint_out: Option<String>,
    resume: Option<String>,
    quiet: bool,
    trace: Option<String>,
    metrics: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            n_side: 16,
            mesh: 32,
            steps: 24,
            z_start: 400.0,
            z_end: 31.0,
            cutoff_modes: 4.0,
            delta0: 0.1,
            seed: 1,
            theta: 0.5,
            group: 100,
            checkpoint_out: None,
            resume: None,
            quiet: false,
            trace: None,
            metrics: None,
        }
    }
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--n-side" => o.n_side = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--mesh" => o.mesh = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--steps" => o.steps = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--z-start" => o.z_start = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--z-end" => o.z_end = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--cutoff-modes" => {
                o.cutoff_modes = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?
            }
            "--delta0" => o.delta0 = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--seed" => o.seed = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--theta" => o.theta = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--group" => o.group = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--checkpoint-out" => o.checkpoint_out = Some(val(&a)?),
            "--resume" => o.resume = Some(val(&a)?),
            "--quiet" => o.quiet = true,
            "--trace" => o.trace = Some(val(&a)?),
            "--metrics" => o.metrics = Some(val(&a)?),
            "--help" | "-h" => {
                println!("see the module docs at the top of greem-run.rs / README.md");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    if !is_valid_mesh(o.mesh) {
        return Err(format!(
            "--mesh must be a power of two >= 8 (got {})",
            o.mesh
        ));
    }
    if o.n_side < 2 || !o.n_side.is_power_of_two() {
        return Err(format!(
            "--n-side must be a power of two >= 2 (got {})",
            o.n_side
        ));
    }
    if o.steps == 0 {
        return Err("--steps must be at least 1".into());
    }
    if o.group == 0 {
        return Err("--group must be at least 1".into());
    }
    if o.theta.is_nan() || o.theta < 0.0 {
        return Err(format!("--theta must be >= 0 (got {})", o.theta));
    }
    if !o.z_start.is_finite() || o.z_start < 0.0 {
        return Err(format!(
            "--z-start must be finite and >= 0 (got {})",
            o.z_start
        ));
    }
    if o.z_end.is_nan() || o.z_end <= -1.0 || o.z_end >= o.z_start {
        return Err(format!(
            "--z-end must be above -1 and below --z-start (got {})",
            o.z_end
        ));
    }
    if !o.delta0.is_finite() || !o.cutoff_modes.is_finite() {
        return Err("--delta0 and --cutoff-modes must be finite".into());
    }
    Ok(o)
}

fn main() {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("greem-run: {e}");
            std::process::exit(2);
        }
    };
    if o.trace.is_some() {
        greem_obs::trace::enable();
    }

    run_cosmology(&o);

    if let Some(path) = &o.trace {
        greem_obs::trace::disable();
        let events = greem_obs::trace::drain();
        let json = greem_obs::export::chrome_trace(&events, greem_obs::export::Clock::Wall);
        match std::fs::write(path, json) {
            Ok(()) => println!("trace ({} events) written to {path}", events.len()),
            Err(e) => {
                eprintln!("greem-run: trace write failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

type MetricsOut = Option<std::io::BufWriter<std::fs::File>>;

fn open_metrics(o: &Opts) -> MetricsOut {
    match &o.metrics {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("greem-run: cannot create {path}: {e}");
                std::process::exit(1);
            }
        },
        None => None,
    }
}

fn finish_metrics(o: &Opts, w: MetricsOut) {
    if let Some(mut w) = w {
        use std::io::Write as _;
        if let Err(e) = w.flush() {
            eprintln!("greem-run: metrics flush failed: {e}");
            std::process::exit(1);
        }
        println!("step metrics written to {}", o.metrics.as_deref().unwrap());
    }
}

/// The original periodic-box cosmological driver.
fn run_cosmology(o: &Opts) {
    let steps = o.steps;
    let cfg = TreePmConfig {
        theta: o.theta,
        group_size: o.group,
        ..TreePmConfig::standard(o.mesh)
    };
    let cosmo = Cosmology::wmap7();

    let mut sim = if let Some(path) = &o.resume {
        match Simulation::resume_checkpoint(cfg, path) {
            Ok(s) => {
                println!("resumed {} bodies from {path}", s.bodies().len());
                s
            }
            Err(e) => {
                eprintln!("greem-run: cannot resume from {path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let a0 = 1.0 / (1.0 + o.z_start);
        let ics = generate_ics(&IcParams {
            n_per_side: o.n_side,
            a_start: a0,
            spectrum: PowerSpectrum::microhalo(1.0, 2.0 * std::f64::consts::PI * o.cutoff_modes),
            cosmology: cosmo,
            seed: o.seed,
            normalize_rms_delta: Some(o.delta0),
        });
        println!(
            "ICs: {}^3 particles at z = {} (delta_rms {:.3}, max displacement {:.2} spacings)",
            o.n_side, o.z_start, ics.delta_rms, ics.max_displacement
        );
        let bodies: Vec<Body> = ics
            .pos
            .iter()
            .zip(&ics.vel)
            .enumerate()
            .map(|(i, (p, v))| Body {
                pos: *p,
                vel: *v,
                mass: ics.mass,
                id: i as u64,
            })
            .collect();
        Simulation::new(
            cfg,
            bodies,
            SimulationMode::Cosmological {
                cosmology: cosmo,
                a: a0,
            },
        )
    };

    let a0 = match sim.mode() {
        SimulationMode::Cosmological { a, .. } => a,
        SimulationMode::Static => {
            eprintln!("greem-run: this checkpoint is static-mode; only cosmological runs resume");
            std::process::exit(1);
        }
    };
    let a_end = 1.0 / (1.0 + o.z_end);
    let ratio = (a_end / a0).powf(1.0 / steps as f64);
    if ratio <= 1.0 {
        eprintln!(
            "greem-run: the run is already at z = {:.3}, at or past --z-end {}; nothing to step",
            1.0 / a0 - 1.0,
            o.z_end
        );
        std::process::exit(1);
    }
    let mut metrics_out = open_metrics(o);
    let mut a = a0;
    let mut total = StepBreakdown::default();
    for step in 1..=steps {
        a *= ratio;
        let bd = sim.step(a);
        total.accumulate(&bd);
        if let Some(w) = metrics_out.as_mut() {
            use greem_obs::Observe as _;
            use std::io::Write as _;
            let mut reg = greem_obs::Registry::new();
            bd.observe(&mut reg);
            reg.gauge_set("scale_factor", a);
            let line = greem_obs::export::step_report_line(step as u64, a, &reg);
            if let Err(e) = writeln!(w, "{line}") {
                eprintln!("greem-run: metrics write failed: {e}");
                std::process::exit(1);
            }
        }
        if !o.quiet {
            println!(
                "step {step:>3}/{}: a = {a:.5} (z = {:6.1})  {:7.3}s  {:>11} interactions",
                steps,
                1.0 / a - 1.0,
                bd.total(),
                bd.walk.interactions
            );
        }
    }
    println!("\nmean per-step cost breakdown:");
    println!("{}", total.table(steps as f64));
    let snap = projected_density(&sim.bodies(), 48, 2, "final");
    println!(
        "final projected density (peak contrast {:.1}):",
        snap.peak_contrast()
    );
    println!("{}", snap.ascii());

    if let Some(path) = &o.checkpoint_out {
        match sim.save_checkpoint(path) {
            Ok(()) => println!("checkpoint written to {path}"),
            Err(e) => {
                eprintln!("greem-run: checkpoint failed: {e}");
                std::process::exit(1);
            }
        }
    }
    finish_metrics(o, metrics_out);
}
