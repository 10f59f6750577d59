//! `greem-run` — the command-line front end of the TreePM library.
//!
//! Two scenarios share the binary:
//!
//! * **cosmology** (default) — a periodic-box cosmological run from
//!   generated initial conditions (or a checkpoint), reporting the
//!   Table-I-style per-step costs;
//! * **galaxy-collapse** — an isolated multi-species Plummer collapse
//!   with seed black holes (open-boundary PM, 4th-order Yoshida
//!   integrator, BH captures/mergers), reporting energy drift, the
//!   virial-ratio trajectory and the BH event log.
//!
//! ```text
//! greem-run [--scenario cosmology|galaxy-collapse]
//!           [--n-side 16] [--mesh 32] [--steps 24]
//!           [--z-start 400] [--z-end 31] [--cutoff-modes 4]
//!           [--delta0 0.1] [--seed 1] [--theta 0.5] [--group 100]
//!           [--dt 2.5e-4] [--integrator yoshida4|leapfrog] [--small]
//!           [--checkpoint-out PATH] [--resume PATH] [--quiet]
//!           [--trace PATH] [--metrics PATH]
//! ```
//!
//! With `--resume` the particle state and epoch come from the
//! checkpoint and the IC options are ignored; `galaxy-collapse` resumes
//! from its own scenario checkpoints.
//!
//! `--trace PATH` writes a Chrome-trace (Perfetto-loadable) JSON of
//! the run's spans; `--metrics PATH` writes one JSON report line per
//! step (Table I rows, walk statistics, flop rate). Both need the
//! default `obs` feature; without it the flags warn and are ignored.

use greem::{projected_density, Body, Simulation, SimulationMode, StepBreakdown, TreePmConfig};
use greem_astro::{GalaxyCollapse, GalaxyConfig, GalaxyParams, SPECIES_BH};
use greem_cosmo::{generate_ics, Cosmology, IcParams, PowerSpectrum};

#[derive(Debug)]
struct Opts {
    scenario: String,
    n_side: usize,
    mesh: Option<usize>,
    steps: Option<usize>,
    z_start: f64,
    z_end: f64,
    cutoff_modes: f64,
    delta0: f64,
    seed: Option<u64>,
    theta: Option<f64>,
    group: usize,
    dt: Option<f64>,
    integrator: Option<String>,
    small: bool,
    checkpoint_out: Option<String>,
    resume: Option<String>,
    quiet: bool,
    trace: Option<String>,
    metrics: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scenario: "cosmology".into(),
            n_side: 16,
            mesh: None,
            steps: None,
            z_start: 400.0,
            z_end: 31.0,
            cutoff_modes: 4.0,
            delta0: 0.1,
            seed: None,
            theta: None,
            group: 100,
            dt: None,
            integrator: None,
            small: false,
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
            "--scenario" => o.scenario = val(&a)?,
            "--n-side" => o.n_side = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--mesh" => o.mesh = Some(val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?),
            "--steps" => o.steps = Some(val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?),
            "--z-start" => o.z_start = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--z-end" => o.z_end = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--cutoff-modes" => {
                o.cutoff_modes = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?
            }
            "--delta0" => o.delta0 = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--seed" => o.seed = Some(val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?),
            "--theta" => o.theta = Some(val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?),
            "--group" => o.group = val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--dt" => o.dt = Some(val(&a)?.parse().map_err(|e| format!("{a}: {e}"))?),
            "--integrator" => o.integrator = Some(val(&a)?),
            "--small" => o.small = true,
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
    match o.scenario.as_str() {
        "cosmology" => {
            if o.z_end >= o.z_start {
                return Err("--z-end must be below --z-start".into());
            }
        }
        "galaxy-collapse" => {}
        other => {
            return Err(format!(
                "unknown scenario '{other}' (try cosmology or galaxy-collapse)"
            ))
        }
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
    #[cfg(feature = "obs")]
    if o.trace.is_some() {
        greem_obs::trace::enable();
    }
    #[cfg(not(feature = "obs"))]
    if o.trace.is_some() || o.metrics.is_some() {
        eprintln!("greem-run: built without the `obs` feature; --trace/--metrics are ignored");
    }

    if o.scenario == "galaxy-collapse" {
        run_galaxy(&o);
    } else {
        run_cosmology(&o);
    }

    #[cfg(feature = "obs")]
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

#[cfg(feature = "obs")]
type MetricsOut = Option<std::io::BufWriter<std::fs::File>>;

#[cfg(feature = "obs")]
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

#[cfg(feature = "obs")]
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

/// The isolated galaxy-collapse scenario.
fn run_galaxy(o: &Opts) {
    let galaxy = if o.small {
        GalaxyParams::small()
    } else {
        GalaxyParams::default()
    };
    let base = if o.small {
        GalaxyConfig::small()
    } else {
        GalaxyConfig::default()
    };
    let integrator = match o.integrator.as_deref() {
        None => base.integrator,
        Some(name) => match greem::IntegratorKind::parse(name) {
            Some(k) => k,
            None => {
                eprintln!("greem-run: unknown integrator '{name}' (try yoshida4 or leapfrog)");
                std::process::exit(2);
            }
        },
    };
    let cfg = GalaxyConfig {
        galaxy: GalaxyParams {
            seed: o.seed.unwrap_or(galaxy.seed),
            ..galaxy
        },
        n_mesh: o.mesh.unwrap_or(base.n_mesh),
        steps: o.steps.unwrap_or(base.steps),
        dt: o.dt.unwrap_or(base.dt),
        theta: o.theta.unwrap_or(base.theta),
        integrator,
        ..base
    };

    let mut sc = if let Some(path) = &o.resume {
        match greem_astro::resume(cfg, path) {
            Ok(sc) => {
                println!(
                    "resumed galaxy collapse at step {} ({} bodies) from {path}",
                    sc.steps_taken(),
                    sc.bodies().len()
                );
                sc
            }
            Err(e) => {
                eprintln!("greem-run: cannot resume from {path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let sc = GalaxyCollapse::new(cfg);
        let c = sc.census();
        println!(
            "galaxy ICs: {} stars + {} dm + {} BH seeds, 2T/|W| = {:.3}",
            c.counts[0],
            c.counts[1],
            c.counts[2],
            sc.virial_history()[0]
        );
        sc
    };

    #[cfg(feature = "obs")]
    let mut metrics_out = open_metrics(o);
    let first = sc.steps_taken();
    let mut total = StepBreakdown::default();
    for step in (first + 1)..=(cfg.steps as u64) {
        let bd = sc.step();
        total.accumulate(&bd);
        #[cfg(feature = "obs")]
        if let Some(w) = metrics_out.as_mut() {
            use greem_obs::Observe as _;
            use std::io::Write as _;
            let mut reg = greem_obs::Registry::new();
            bd.observe(&mut reg);
            sc.observe(&mut reg);
            let line = greem_obs::export::step_report_line(step, sc.time(), &reg);
            if let Err(e) = writeln!(w, "{line}") {
                eprintln!("greem-run: metrics write failed: {e}");
                std::process::exit(1);
            }
        }
        if !o.quiet {
            println!(
                "step {step:>3}/{}: t = {:.5}  2T/|W| = {:.3}  |dE/E0| = {:.2e}  mergers {}  captures {}",
                cfg.steps,
                sc.time(),
                sc.virial_history().last().unwrap(),
                sc.energy_drift(),
                sc.mergers(),
                sc.captures()
            );
        }
    }
    let steps_run = (cfg.steps as u64 - first).max(1);
    println!("\nmean per-step cost breakdown:");
    println!("{}", total.table(steps_run as f64));

    let c = sc.census();
    println!(
        "final census: {} stars ({:.3} mass) + {} dm ({:.3}) + {} BH ({:.3})",
        c.counts[0], c.masses[0], c.counts[1], c.masses[1], c.counts[2], c.masses[2]
    );
    println!(
        "energy drift |dE/E0| = {:.3e}, BH mergers {}, captures {}",
        sc.energy_drift(),
        sc.mergers(),
        sc.captures()
    );
    let heaviest = sc
        .bodies()
        .into_iter()
        .filter(|b| greem::species_of_id(b.id) == SPECIES_BH)
        .map(|b| b.mass)
        .fold(0.0, f64::max);
    println!("heaviest BH mass {heaviest:.4}");
    let snap = sc.projected(48, 2, "final");
    println!(
        "final projected density (peak contrast {:.1}):",
        snap.peak_contrast()
    );
    println!("{}", snap.ascii());

    if let Some(path) = &o.checkpoint_out {
        match sc.save_checkpoint(path) {
            Ok(()) => println!("checkpoint written to {path}"),
            Err(e) => {
                eprintln!("greem-run: checkpoint failed: {e}");
                std::process::exit(1);
            }
        }
    }
    #[cfg(feature = "obs")]
    finish_metrics(o, metrics_out);
}

/// The original periodic-box cosmological driver.
fn run_cosmology(o: &Opts) {
    #[cfg(feature = "obs")]
    let mut metrics_out = open_metrics(o);

    let steps = o.steps.unwrap_or(24);
    let cfg = TreePmConfig {
        theta: o.theta.unwrap_or(0.5),
        group_size: o.group,
        ..TreePmConfig::standard(o.mesh.unwrap_or(32))
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
            seed: o.seed.unwrap_or(1),
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
            eprintln!(
                "greem-run: this checkpoint is static-mode; use --scenario galaxy-collapse \
                 for isolated runs"
            );
            std::process::exit(1);
        }
    };
    let a_end = 1.0 / (1.0 + o.z_end);
    let ratio = (a_end / a0).powf(1.0 / steps as f64);
    let mut a = a0;
    let mut total = StepBreakdown::default();
    for step in 1..=steps {
        a *= ratio;
        let bd = sim.step(a);
        total.accumulate(&bd);
        #[cfg(feature = "obs")]
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
    #[cfg(feature = "obs")]
    finish_metrics(o, metrics_out);
}
