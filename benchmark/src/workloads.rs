//! The four workloads: what each one runs, how big, and what it checks.

use std::path::{Path, PathBuf};
use std::time::Instant;

use greem::{Body, StepBreakdown, TreePmConfig};

use crate::host::{HostAtStart, Roofline};
use crate::measure::{median, p90, peak_rss_mb, Recorder};
use crate::solver::{
    max_position_gap, ranks2_pass, serial_pass, strong_scaling_eff_2, virtual_costs, ForceProbe,
    PassPlan, Ranks2Pass, Timed,
};
use crate::{hostspeed, inputs, oracle, probes, serve};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SerialPp,
    SerialPm,
    Ranks2Step,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SerialPp,
        Workload::SerialPm,
        Workload::Ranks2Step,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialPp => "serial-pp",
            Workload::SerialPm => "serial-pm",
            Workload::Ranks2Step => "ranks2-step",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the process pins itself to one CPU for this workload
    /// (`host::pin_to_one_cpu`). The solver workloads are compute-bound:
    /// pinned, their wall time is their total work, whoever holds the
    /// other core. The daemon's threads mostly sleep and wake each
    /// other; in alternating runs its `op_s_p50` was 0.044–0.055 s on
    /// one CPU and 0.037–0.041 s unpinned, so it runs as it is deployed.
    pub fn runs_on_one_cpu(self) -> bool {
        self != Workload::ServeMix
    }

    /// The solver problem of this workload (for `serve-mix`, the shape
    /// of the jobs it submits, which is what its solver twin runs).
    fn problem(self, smoke: bool) -> Problem {
        match (self, smoke) {
            // The paper's N^(1/3)/2 mesh ratio: short-range layers do
            // nearly all the work, and subcycle 2 replays recorded lists.
            (Workload::SerialPp, false) => Problem::new(32768, 16, true, 3, 12),
            // 8× finer than the paper's ratio, so the FFT and the mesh
            // passes dominate and a kernel change can barely move it.
            (Workload::SerialPm, false) => Problem::new(32768, 128, false, 3, 10),
            // The bodies and mesh of serial-pp through the other driver.
            (Workload::Ranks2Step, false) => Problem::new(32768, 16, true, 3, 10),
            (Workload::ServeMix, false) => {
                Problem::new(serve::JOB_N, serve::JOB_MESH, false, 30, 140)
            }
            (Workload::SerialPp, true) => Problem::new(2048, 16, true, 1, 3),
            (Workload::SerialPm, true) => Problem::new(2048, 32, false, 1, 3),
            (Workload::Ranks2Step, true) => Problem::new(2048, 16, true, 1, 3),
            (Workload::ServeMix, true) => Problem::new(serve::JOB_N, serve::JOB_MESH, false, 2, 8),
        }
    }
}

/// Sizes of one workload. `warmup` and `ops` are per pass and fixed:
/// the timed ops of a run are always the same steps of the same
/// trajectory (see `solver`).
#[derive(Debug, Clone, Copy)]
struct Problem {
    n: usize,
    mesh: usize,
    clustered: bool,
    warmup: usize,
    ops: usize,
}

impl Problem {
    fn new(n: usize, mesh: usize, clustered: bool, warmup: usize, ops: usize) -> Self {
        Problem {
            n,
            mesh,
            clustered,
            warmup,
            ops,
        }
    }

    fn cfg(&self) -> TreePmConfig {
        TreePmConfig::standard(self.mesh)
    }
}

/// Passes every run makes at least; the median of three set-ups is the
/// run's `setup_s`.
const MIN_PASSES: usize = 3;
/// Passes of a traced run: one with the recorder off, one with it on.
const TRACED_PASSES: usize = 2;
/// Probe particles of the force-accuracy figure.
const FORCE_PROBES: usize = 1024;
/// Job body sets the serve-mix force figure pools (512 bodies each).
const SERVE_FORCE_JOBS: usize = 4;
/// Ceiling on `force_err_p50`, several times what this commit measures
/// on any workload: past it the forces are wrong, not merely coarser.
const FORCE_ERR_CEILING: f64 = 0.15;
/// Largest position gap between the two drivers after the warm-up
/// steps of the same input.
const DRIVER_GAP_TOL: f64 = 1e-6;
/// Largest reconciliation residual of a traced run's ledger.
const UNATTRIBUTED_TOL: f64 = 0.10;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
    pub host: HostAtStart,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// The Table-I-style ledger of one workload: wall seconds per op by
/// row, against the op's wall time.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub rows: Vec<(&'static str, f64)>,
    pub op_wall_s: f64,
}

impl Ledger {
    /// Rows of a summed breakdown over `ops` steps. PM communication is
    /// the wall figure; the PP and DD communication rows also carry the
    /// modelled network seconds the driver adds in (≤ `vcomm_s_per_op`).
    fn from_breakdown(bd: &StepBreakdown, ops: usize, op_wall_s: f64) -> Ledger {
        let k = ops as f64;
        Ledger {
            rows: vec![
                ("pm.density_assignment", bd.pm.density_assignment / k),
                ("pm.communication", bd.pm.communication_wall / k),
                ("pm.fft", bd.pm.fft / k),
                ("pm.accel_on_mesh", bd.pm.acceleration_on_mesh / k),
                ("pm.force_interpolation", bd.pm.force_interpolation / k),
                ("pp.local_tree", bd.pp_local_tree / k),
                ("pp.communication", bd.pp_communication / k),
                ("pp.tree_construction", bd.pp_tree_construction / k),
                ("pp.tree_traversal", bd.pp_tree_traversal / k),
                ("pp.force_calculation", bd.pp_force_calculation / k),
                ("dd.position_update", bd.dd_position_update / k),
                ("dd.sampling_method", bd.dd_sampling_method / k),
                ("dd.particle_exchange", bd.dd_particle_exchange / k),
            ],
            op_wall_s,
        }
    }

    pub fn row(&self, name: &str) -> f64 {
        self.rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1)
    }

    fn prefix_sum(&self, prefix: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.0.starts_with(prefix))
            .map(|r| r.1)
            .sum()
    }

    pub fn sum(&self) -> f64 {
        self.rows.iter().map(|r| r.1).sum()
    }

    /// (op wall − Σ rows) / op wall: what the rows do not explain.
    pub fn unattributed_share(&self) -> f64 {
        (self.op_wall_s - self.sum()) / self.op_wall_s
    }

    pub fn render(&self, title: &str) -> String {
        let mut s = format!("ledger {title} (wall seconds per op)\n");
        for (name, v) in &self.rows {
            s += &format!(
                "  {name:<26} {v:>11.6}  {:>5.1} %\n",
                100.0 * v / self.op_wall_s
            );
        }
        s += &format!("  {:<26} {:>11.6}\n", "Σ rows", self.sum());
        s += &format!("  {:<26} {:>11.6}\n", "op wall", self.op_wall_s);
        s += &format!(
            "  {:<26} {:>11.6}  {:>5.1} %\n",
            "residual",
            self.op_wall_s - self.sum(),
            100.0 * self.unattributed_share()
        );
        s
    }

    /// The `core.*` per-layer metrics this ledger yields.
    fn core_metrics(&self, replays_per_op: f64, out: &mut Vec<(&'static str, f64)>) {
        out.extend([
            ("core.pm_s_per_op", self.prefix_sum("pm.")),
            (
                "core.pp_tree_s_per_op",
                self.row("pp.local_tree") + self.row("pp.tree_construction"),
            ),
            ("core.pp_traversal_s_per_op", self.row("pp.tree_traversal")),
            ("core.pp_force_s_per_op", self.row("pp.force_calculation")),
            ("core.pp_comm_s_per_op", self.row("pp.communication")),
            ("core.dd_s_per_op", self.prefix_sum("dd.")),
            (
                "core.force_share",
                self.row("pp.force_calculation") / self.op_wall_s,
            ),
            ("core.list_replays_per_op", replays_per_op),
            ("core.unattributed_share", self.unattributed_share()),
        ]);
    }
}

/// Everything one run produced.
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub passes: usize,
    pub fingerprint: u64,
    /// End-to-end metric values by name. The time metrics are at the
    /// quiet reference host's speed (see `hostspeed`).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// The time metrics as the clock read them, and the host's median
    /// slowdown over the timed ops.
    pub as_measured: Vec<(&'static str, f64)>,
    /// Figures that repeat bit for bit on one commit and seed.
    pub exact: Vec<(&'static str, f64)>,
    /// Per-layer metric values by name (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    pub ledger: Option<Ledger>,
    pub roofline: Option<Roofline>,
    /// Wall seconds of every timed op, in order.
    pub op_s: Vec<f64>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// A run whose outputs failed a check produced no trustworthy op:
    /// every op it attempted counts as failed.
    fn fail_ops_of_an_incorrect_run(&mut self) {
        if !self.correct() {
            self.failed = self.attempted;
        }
    }
}

/// Seconds of the run around an op whose host-speed ticks give the op's
/// slowdown: long enough for a handful of ticks, short against a spell.
const TICK_WINDOW_S: f64 = 1.0;

/// Accumulates the timed sections of a run's passes. `quiet_*` are
/// measured seconds divided by the host's slowdown at the time.
#[derive(Default)]
struct Totals {
    setup_s: Vec<f64>,
    quiet_setup_s: Vec<f64>,
    op_s: Vec<f64>,
    quiet_op_s: Vec<f64>,
    quiet_cpu_s: Vec<f64>,
    slowdown: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    bd: StepBreakdown,
    /// Median op time of the untraced and of the traced passes.
    traced_p50: Option<f64>,
    untraced_p50: Option<f64>,
}

impl Totals {
    /// Add a pass: its set-up seconds with the set-up's ticks, and its
    /// timed section.
    fn add(&mut self, setup_s: f64, setup_ticks: &[f64], t: &Timed, traced: bool) {
        self.setup_s.push(setup_s);
        self.quiet_setup_s
            .push(setup_s / hostspeed::slowdown(setup_ticks));
        // Ops on each side of an op that fall inside the window: one on
        // the solver workloads, sixteen on `serve-mix`.
        let half_window = (TICK_WINDOW_S / 2.0 / median(&t.walls)).round().max(1.0) as usize;
        let slowdown = hostspeed::slowdown_per_op(&t.ticks, half_window);
        assert_eq!(slowdown.len(), t.walls.len(), "one tick before each op");
        for ((wall, cpu), slow) in t.walls.iter().zip(&t.cpus).zip(&slowdown) {
            self.quiet_op_s.push(wall / slow);
            self.quiet_cpu_s.push(cpu / slow);
        }
        self.slowdown.extend(slowdown);
        self.op_s.extend(&t.walls);
        self.wall_s += t.wall_s();
        self.cpu_s += t.cpus.iter().sum::<f64>();
        self.bd.accumulate(&t.bd);
        let slot = if traced {
            &mut self.traced_p50
        } else {
            &mut self.untraced_p50
        };
        *slot = Some(median(&t.walls));
    }

    fn end_to_end(&self, peak_rss: f64, force_err_p50: f64) -> Vec<(&'static str, f64)> {
        let ops = self.op_s.len() as f64;
        vec![
            ("setup_s", median(&self.quiet_setup_s)),
            ("op_s_p50", median(&self.quiet_op_s)),
            ("ops_per_s", ops / self.quiet_op_s.iter().sum::<f64>()),
            ("cpu_s_per_op", self.quiet_cpu_s.iter().sum::<f64>() / ops),
            ("peak_rss_mb", peak_rss),
            ("force_err_p50", force_err_p50),
        ]
    }

    fn as_measured(&self) -> Vec<(&'static str, f64)> {
        let ops = self.op_s.len() as f64;
        vec![
            ("setup_s", median(&self.setup_s)),
            ("op_s_p50", median(&self.op_s)),
            ("ops_per_s", ops / self.wall_s),
            ("cpu_s_per_op", self.cpu_s / ops),
            ("host_slowdown_p50", median(&self.slowdown)),
        ]
    }

    fn trace_overhead_pct(&self) -> f64 {
        match (self.traced_p50, self.untraced_p50) {
            (Some(t), Some(u)) => 100.0 * (t - u) / u,
            _ => 0.0,
        }
    }
}

/// Drives the pass loop: in an untraced run, at least `MIN_PASSES` and
/// then until `seconds` of timed ops are in; in a traced run, one pass
/// with the recorder off and one with it on.
struct PassLoop {
    trace: bool,
    seconds: f64,
    done: usize,
}

impl PassLoop {
    fn new(args: &RunArgs) -> PassLoop {
        PassLoop {
            trace: args.trace,
            seconds: args.seconds,
            done: 0,
        }
    }

    fn more(&self, timed_s: f64) -> bool {
        if self.trace {
            self.done < TRACED_PASSES
        } else {
            self.done < MIN_PASSES || timed_s < self.seconds
        }
    }

    /// A recorder for the next pass, sharing `main`'s epoch.
    fn recorder(&self, main: &Recorder) -> Recorder {
        Recorder::new(self.trace && self.done > 0, main.epoch(), 0)
    }
}

/// Relative force errors of `FORCE_PROBES` seeded probe particles (all
/// of them, when there are fewer) against the oracle.
fn force_errors(probe: &ForceProbe, seed: u64, eps: f64) -> Vec<f64> {
    let idx = inputs::probe_indices(probe.before.len(), FORCE_PROBES, seed);
    let want = oracle::reference_accels(&probe.before, &idx, eps);
    oracle::relative_errors(&probe.applied(&idx), &want)
}

fn body_checks(bodies: &[Body], n: usize, checks: &mut Vec<Check>) {
    let in_box = bodies.iter().all(|b| {
        [b.pos.x, b.pos.y, b.pos.z]
            .iter()
            .all(|c| c.is_finite() && (0.0..1.0).contains(c))
            && b.vel.norm2().is_finite()
    });
    checks.push(check(
        "positions finite and inside the box",
        in_box,
        format!("{} bodies", bodies.len()),
    ));
    let ids_ok = bodies.len() == n && bodies.iter().enumerate().all(|(i, b)| b.id == i as u64);
    checks.push(check(
        "ids conserved",
        ids_ok,
        format!("{} of {n} bodies", bodies.len()),
    ));
}

fn force_check(err: f64, checks: &mut Vec<Check>) {
    checks.push(check(
        "force error under the ceiling",
        err.is_finite() && err > 0.0 && err < FORCE_ERR_CEILING,
        format!("force_err_p50 = {err:.3e}, ceiling {FORCE_ERR_CEILING}"),
    ));
}

pub fn run(args: &RunArgs, rec: &mut Recorder) -> Result<RunOutput, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let mut out = match args.workload {
        Workload::SerialPp | Workload::SerialPm => run_serial(args, rec),
        Workload::Ranks2Step => run_ranks2(args, rec),
        Workload::ServeMix => run_serve(args, rec)?,
    };
    if let (true, Some(ledger)) = (args.trace, &out.ledger) {
        let share = ledger.unattributed_share();
        out.checks.push(check(
            "ledger reconciles",
            share.abs() <= UNATTRIBUTED_TOL,
            format!("unattributed share {share:+.4}, tolerance {UNATTRIBUTED_TOL}"),
        ));
    }
    // Every result carries the roofline of the host it ran on; a traced
    // run has measured it already, for the kernel layer.
    out.roofline.get_or_insert_with(crate::host::roofline);
    out.fail_ops_of_an_incorrect_run();
    Ok(out)
}

fn make_bodies(p: Problem, seed: u64) -> Vec<Body> {
    if p.clustered {
        inputs::clustered(p.n, seed)
    } else {
        inputs::uniform(p.n, seed)
    }
}

fn run_serial(args: &RunArgs, rec: &mut Recorder) -> RunOutput {
    let p = args.workload.problem(args.smoke);
    let cfg = p.cfg();
    let make = || make_bodies(p, args.seed);
    let mut totals = Totals::default();
    let mut probe = None;
    let mut new_s = 0.0;
    let mut passes = PassLoop::new(args);
    while passes.more(totals.wall_s) {
        let mut pass_rec = passes.recorder(rec);
        let plan = PassPlan {
            warmup: p.warmup,
            ops: p.ops,
            probe_forces: passes.done == 0,
        };
        let pass = serial_pass(&mut pass_rec, &make, cfg, plan);
        totals.add(
            pass.setup_s,
            &pass.setup_ticks,
            &pass.timed,
            pass_rec.is_on(),
        );
        probe = probe.or(pass.probe);
        new_s = pass.new_s;
        rec.absorb(pass_rec);
        passes.done += 1;
    }
    let peak_rss = peak_rss_mb();

    let probe = probe.expect("the first pass probes the forces");
    let force_err = median(&force_errors(&probe, args.seed, cfg.eps));
    let mut checks = Vec::new();
    body_checks(&probe.after, p.n, &mut checks);
    force_check(force_err, &mut checks);

    let ops = totals.op_s.len();
    let ledger = Ledger::from_breakdown(&totals.bd, ops, totals.wall_s / ops as f64);
    let interactions_per_op = totals.bd.interactions() as f64 / ops as f64;
    let replays_per_op = totals.bd.pp_list_replays as f64 / ops as f64;
    let mut out = RunOutput {
        attempted: ops as u64,
        failed: 0,
        checks,
        passes: passes.done,
        fingerprint: inputs::fingerprint(&make()),
        end_to_end: totals.end_to_end(peak_rss, force_err),
        as_measured: totals.as_measured(),
        exact: vec![
            ("force_err_p50", force_err),
            ("interactions_per_op", interactions_per_op),
        ],
        layers: Vec::new(),
        ledger: Some(ledger),
        roofline: None,
        op_s: totals.op_s.clone(),
    };
    if args.trace {
        // The other driver on the same bodies: the domain and mpisim
        // rows, and the strong-scaling figure.
        let twin = ranks2_pass(rec, &make, cfg, twin_plan(args.smoke));
        let solver = SolverTrace {
            replays_per_op,
            interactions_per_op,
            new_s,
            serial_cpu_s_per_op: totals.cpu_s / ops as f64,
            ranks2: &twin,
            bodies: make(),
            cfg,
        };
        trace_solver(args, rec, &totals, &solver, &mut out);
        serve_probe_layers(args, rec, &mut out);
    }
    out
}

/// The short pass a traced run makes through the *other* driver.
fn twin_plan(smoke: bool) -> PassPlan {
    PassPlan {
        warmup: 1,
        ops: if smoke { 2 } else { 3 },
        probe_forces: false,
    }
}

/// What a traced run knows about its solver, whichever driver was the
/// timed one and whichever the twin.
struct SolverTrace<'a> {
    replays_per_op: f64,
    interactions_per_op: f64,
    /// Wall seconds of the timed driver's constructor.
    new_s: f64,
    serial_cpu_s_per_op: f64,
    /// The two-rank pass: the `domain.*` and `mpisim.*` per-op rows.
    ranks2: &'a Ranks2Pass,
    /// The inputs the layer probes run on.
    bodies: Vec<Body>,
    cfg: TreePmConfig,
}

/// The per-layer metrics every traced run reports about its solver: the
/// `core.*` rows of `out.ledger`, the two drivers compared, the two-rank
/// rows, and every layer probe on the workload's own inputs.
fn trace_solver(
    args: &RunArgs,
    rec: &mut Recorder,
    totals: &Totals,
    t: &SolverTrace,
    out: &mut RunOutput,
) {
    let roofline = crate::host::roofline();
    let (layers, checks) = (&mut out.layers, &mut out.checks);
    let ledger = out.ledger.as_ref().expect("a traced run has a ledger");
    ledger.core_metrics(t.replays_per_op, layers);
    let ranks2_ops = t.ranks2.timed.walls.len() as f64;
    let v = virtual_costs(&t.ranks2.steps);
    layers.extend([
        ("tree.interactions_per_op", t.interactions_per_op),
        ("core.new_s", t.new_s),
        (
            "core.strong_scaling_eff_2",
            strong_scaling_eff_2(t.serial_cpu_s_per_op, t.ranks2.timed.cpu_s_per_op()),
        ),
        (
            "domain.sampling_s_per_op",
            t.ranks2.timed.bd.dd_sampling_method / ranks2_ops,
        ),
        (
            "domain.exchange_s_per_op",
            t.ranks2.timed.bd.dd_particle_exchange / ranks2_ops,
        ),
        ("domain.ghosts_per_rank", v.ghosts_per_rank),
        ("domain.imbalance", v.imbalance),
        ("mpisim.messages_per_op", v.messages_per_op),
        ("mpisim.vtime_s_per_op", v.vtime_s_per_op),
        ("mpisim.vcomm_s_per_op", v.vcomm_s_per_op),
        ("mpisim.comm_bytes_per_op", v.comm_bytes_per_op),
        ("obs.bench_trace_overhead_pct", totals.trace_overhead_pct()),
        ("host.fma_gflops_1t", roofline.fma_gflops_1t),
        ("host.triad_gb_s", roofline.triad_gb_s),
    ]);
    layers.extend(p90(&totals.op_s).map(|v| ("core.op_s_p90", v)));

    let ctx = probes::ProbeCtx {
        bodies: &t.bodies,
        cfg: t.cfg,
        smoke: args.smoke,
        scratch: &args.out,
    };
    probes::tree_and_kernels(rec, &ctx, &roofline, layers);
    probes::pm_and_fft(rec, &ctx, layers);
    probes::domain_and_mpisim(rec, &ctx, layers, checks);
    probes::resil_and_io(rec, &ctx, layers, checks);
    probes::obs(rec, layers);
    out.roofline = Some(roofline);
}

fn run_ranks2(args: &RunArgs, rec: &mut Recorder) -> RunOutput {
    let p = args.workload.problem(args.smoke);
    let cfg = p.cfg();
    let make = || make_bodies(p, args.seed);
    let mut totals = Totals::default();
    let mut first: Option<Ranks2Pass> = None;
    let mut repeats_exactly = true;
    let mut passes = PassLoop::new(args);
    while passes.more(totals.wall_s) {
        let mut pass_rec = passes.recorder(rec);
        let plan = PassPlan {
            warmup: p.warmup,
            ops: p.ops,
            probe_forces: passes.done == 0,
        };
        let pass = ranks2_pass(&mut pass_rec, &make, cfg, plan);
        totals.add(
            pass.setup_s,
            &pass.setup_ticks,
            &pass.timed,
            pass_rec.is_on(),
        );
        rec.absorb(pass_rec);
        match &first {
            Some(f) => repeats_exactly &= f.steps == pass.steps,
            None => first = Some(pass),
        }
        passes.done += 1;
    }
    let peak_rss = peak_rss_mb();
    let first = first.expect("at least one pass");

    let probe = first
        .probe
        .as_ref()
        .expect("the first pass probes the forces");
    let force_err = median(&force_errors(probe, args.seed, cfg.eps));
    let mut checks = Vec::new();
    body_checks(&probe.after, p.n, &mut checks);
    force_check(force_err, &mut checks);
    checks.push(check(
        "every pass repeats the first bit for bit",
        repeats_exactly,
        format!("{} passes of {} steps", passes.done, p.ops),
    ));
    // The serial driver on the same input, through the same warm-up.
    let serial = serial_pass(
        &mut Recorder::new(false, Instant::now(), 0),
        &make,
        cfg,
        PassPlan {
            warmup: p.warmup,
            ops: if args.trace {
                twin_plan(args.smoke).ops
            } else {
                0
            },
            probe_forces: false,
        },
    );
    let gap = max_position_gap(&first.after_warmup, &serial.after_warmup);
    checks.push(check(
        "two-rank positions agree with the serial driver",
        gap.is_some_and(|g| g < DRIVER_GAP_TOL),
        format!("largest gap after {} steps: {gap:?}", p.warmup),
    ));

    let v = virtual_costs(&first.steps);
    checks.push(check(
        "ranks exchange data and never replay lists",
        v.comm_bytes_per_op > 0.0 && totals.bd.pp_list_replays == 0,
        format!(
            "{} B/op, {} replays",
            v.comm_bytes_per_op, totals.bd.pp_list_replays
        ),
    ));
    let ops = totals.op_s.len();
    let ledger = Ledger::from_breakdown(&totals.bd, ops, totals.wall_s / ops as f64);
    let mut out = RunOutput {
        attempted: ops as u64,
        failed: 0,
        checks,
        passes: passes.done,
        fingerprint: inputs::fingerprint(&make()),
        end_to_end: totals.end_to_end(peak_rss, force_err),
        as_measured: totals.as_measured(),
        exact: vec![
            ("force_err_p50", force_err),
            ("interactions_per_op", v.interactions_per_op),
            ("vtime_s_per_op", v.vtime_s_per_op),
            ("vcomm_s_per_op", v.vcomm_s_per_op),
            ("comm_bytes_per_op", v.comm_bytes_per_op),
        ],
        layers: Vec::new(),
        ledger: Some(ledger),
        roofline: None,
        op_s: totals.op_s.clone(),
    };
    if args.trace {
        let solver = SolverTrace {
            replays_per_op: 0.0,
            interactions_per_op: v.interactions_per_op,
            new_s: first.new_s,
            serial_cpu_s_per_op: serial.timed.cpu_s_per_op(),
            ranks2: &first,
            bodies: make(),
            cfg,
        };
        trace_solver(args, rec, &totals, &solver, &mut out);
        serve_probe_layers(args, rec, &mut out);
    }
    out
}

/// `serve.*` metrics of a set of ops and the reads beside them.
fn serve_layers(passes: &[serve::ServePass], layers: &mut Vec<(&'static str, f64)>) {
    let ops: Vec<&serve::OpRecord> = passes.iter().flat_map(|p| &p.ops).collect();
    let col = |f: &dyn Fn(&serve::OpRecord) -> f64| ops.iter().map(|o| f(o)).collect::<Vec<_>>();
    let crash: Vec<f64> = ops.iter().filter(|o| o.crash).map(|o| o.op_s).collect();
    let all = |f: &dyn Fn(&serve::ServePass) -> &Vec<f64>| {
        passes
            .iter()
            .flat_map(|p| f(p).iter().copied())
            .collect::<Vec<f64>>()
    };
    let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    layers.extend([
        ("serve.submit_s_p50", med(col(&|o| o.submit_s))),
        ("serve.stream_s_p50", med(col(&|o| o.stream_s))),
        (
            "serve.first_snapshot_s_p50",
            med(col(&|o| o.first_snapshot_s)),
        ),
        ("serve.crash_op_s_p50", med(crash.clone())),
        (
            "serve.rollbacks_per_crash_op",
            ops.iter()
                .filter(|o| o.crash)
                .map(|o| o.rollbacks)
                .sum::<u64>() as f64
                / crash.len().max(1) as f64,
        ),
        ("serve.healthz_s_p50", med(all(&|p| &p.healthz_s))),
        ("serve.metrics_scrape_s_p50", med(all(&|p| &p.metrics_s))),
        ("serve.jobs_list_s_p50", med(all(&|p| &p.jobs_list_s))),
        (
            "serve.snapshots_per_op",
            ops.iter().map(|o| o.snapshots).sum::<usize>() as f64 / ops.len().max(1) as f64,
        ),
        (
            "serve.dropped_total",
            ops.iter().map(|o| o.dropped).sum::<u64>() as f64,
        ),
        (
            "serve.throttled_429",
            ops.iter().filter(|o| o.throttled).count() as f64,
        ),
    ]);
    layers.extend(p90(&col(&|o| o.op_s)).map(|v| ("serve.op_s_p90", v)));
}

fn serve_data_dir(out: &Path) -> PathBuf {
    out.join(format!("serve-data-{}", std::process::id()))
}

/// A short burst of the serve-mix traffic, so a solver workload's
/// traced run still reports the daemon's layer.
fn serve_probe_layers(args: &RunArgs, rec: &mut Recorder, out: &mut RunOutput) {
    let ops = if args.smoke { 8 } else { 40 };
    match serve::serve_pass(rec, &serve_data_dir(&args.out), args.seed, 2, ops) {
        Ok(pass) => {
            let failed = pass.ops.iter().filter(|o| o.failure.is_some()).count();
            out.checks.push(check(
                "serve probe ops complete",
                failed == 0,
                format!("{failed} of {ops} failed"),
            ));
            serve_layers(&[pass], &mut out.layers);
        }
        Err(e) => out.checks.push(check("serve probe starts", false, e)),
    }
}

fn run_serve(args: &RunArgs, rec: &mut Recorder) -> Result<RunOutput, String> {
    let p = args.workload.problem(args.smoke);
    let cfg = p.cfg();
    let data_dir = serve_data_dir(&args.out);
    let mut totals = Totals::default();
    let mut done_passes = Vec::new();
    let mut passes = PassLoop::new(args);
    while passes.more(totals.wall_s) {
        let mut pass_rec = passes.recorder(rec);
        let pass = serve::serve_pass(&mut pass_rec, &data_dir, args.seed, p.warmup, p.ops)?;
        let timed = Timed {
            walls: pass.ops.iter().map(|o| o.op_s).collect(),
            cpus: pass.ops.iter().map(|o| o.cpu_s).collect(),
            ticks: pass.ticks.clone(),
            bd: StepBreakdown::default(),
        };
        totals.add(pass.setup_s, &pass.setup_ticks, &timed, pass_rec.is_on());
        rec.absorb(pass_rec);
        done_passes.push(pass);
        passes.done += 1;
    }
    let peak_rss = peak_rss_mb();

    // The force accuracy of what the daemon computes for this job
    // shape: the two-rank driver on the first job's bodies.
    let bodies = || serve::job_bodies(serve::job_seed(args.seed, 0));
    let twin_ops = if args.trace {
        twin_plan(args.smoke).ops
    } else {
        0
    };
    let twin = ranks2_pass(
        rec,
        &bodies,
        cfg,
        PassPlan {
            warmup: 1,
            ops: twin_ops,
            probe_forces: true,
        },
    );
    let probe_of =
        |p: &Ranks2Pass| force_errors(p.probe.as_ref().expect("probed"), args.seed, cfg.eps);
    let mut errors = probe_of(&twin);
    for job in 1..SERVE_FORCE_JOBS {
        let other = || serve::job_bodies(serve::job_seed(args.seed, job));
        let plan = PassPlan {
            warmup: 1,
            ops: 0,
            probe_forces: true,
        };
        let quiet = &mut Recorder::new(false, Instant::now(), 0);
        errors.extend(probe_of(&ranks2_pass(quiet, &other, cfg, plan)));
    }
    let force_err = median(&errors);

    let ops: Vec<&serve::OpRecord> = done_passes.iter().flat_map(|p| &p.ops).collect();
    let failures: Vec<&String> = ops.iter().filter_map(|o| o.failure.as_ref()).collect();
    let throttled = ops.iter().filter(|o| o.throttled).count();
    let mut checks = vec![
        check(
            "every op streams its snapshots to the end",
            failures.is_empty(),
            failures.first().map_or_else(
                || format!("{} ops", ops.len()),
                |f| format!("{} failed, first: {f}", failures.len()),
            ),
        ),
        check(
            "no submission throttled",
            throttled == 0,
            format!("{throttled} × 429"),
        ),
    ];
    force_check(force_err, &mut checks);

    let mut out = RunOutput {
        attempted: ops.len() as u64,
        failed: failures.len() as u64,
        checks,
        passes: passes.done,
        fingerprint: inputs::fingerprint(&bodies()),
        end_to_end: totals.end_to_end(peak_rss, force_err),
        as_measured: totals.as_measured(),
        exact: vec![("force_err_p50", force_err)],
        layers: Vec::new(),
        ledger: None,
        roofline: None,
        op_s: totals.op_s.clone(),
    };
    if args.trace {
        // The job body without the daemon around it: how much of an op
        // is solver, through both drivers.
        let serial = serial_pass(rec, &bodies, cfg, twin_plan(args.smoke));
        let twin_wall = twin.timed.wall_s() / twin_ops as f64;
        out.ledger = Some(Ledger::from_breakdown(&twin.timed.bd, twin_ops, twin_wall));
        let solver = SolverTrace {
            replays_per_op: 0.0,
            interactions_per_op: virtual_costs(&twin.steps).interactions_per_op,
            new_s: twin.new_s,
            serial_cpu_s_per_op: serial.timed.cpu_s_per_op(),
            ranks2: &twin,
            bodies: bodies(),
            cfg,
        };
        trace_solver(args, rec, &totals, &solver, &mut out);
        serve_layers(&done_passes, &mut out.layers);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(checks: Vec<Check>) -> RunOutput {
        RunOutput {
            attempted: 36,
            failed: 0,
            checks,
            passes: 3,
            fingerprint: 0,
            end_to_end: Vec::new(),
            as_measured: Vec::new(),
            exact: Vec::new(),
            layers: Vec::new(),
            ledger: None,
            roofline: None,
            op_s: Vec::new(),
        }
    }

    #[test]
    fn a_failed_check_fails_the_run_and_its_ops() {
        let mut ok = output(vec![check("a", true, String::new())]);
        ok.fail_ops_of_an_incorrect_run();
        assert!(ok.correct());
        assert_eq!(ok.failed, 0);

        let mut bad = output(vec![
            check("a", true, String::new()),
            check("b", false, String::new()),
        ]);
        bad.fail_ops_of_an_incorrect_run();
        assert!(!bad.correct());
        assert_eq!(bad.failed, bad.attempted);
    }

    #[test]
    fn ledger_residual_is_wall_minus_rows() {
        let mut bd = StepBreakdown {
            pp_force_calculation: 6.0,
            pp_tree_traversal: 2.0,
            ..StepBreakdown::default()
        };
        bd.pm.fft = 1.0;
        let l = Ledger::from_breakdown(&bd, 10, 1.0);
        assert!((l.sum() - 0.9).abs() < 1e-12);
        assert!((l.unattributed_share() - 0.1).abs() < 1e-12);
        let mut m = Vec::new();
        l.core_metrics(1.0, &mut m);
        let get = |n: &str| m.iter().find(|x| x.0 == n).unwrap().1;
        assert!((get("core.force_share") - 0.6).abs() < 1e-12);
        assert!((get("core.pm_s_per_op") - 0.1).abs() < 1e-12);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("serial"), None);
    }
}
