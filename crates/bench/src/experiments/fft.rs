//! **Table I, PM: FFT** — the transform's own costs (DESIGN.md §19):
//! ns per radix-2 butterfly, a single line through `Fft1d::forward`
//! against split panels at every vector width the CPU runs, and the
//! periodic solver's `RealFft3::convolve` split by pass, each pass's
//! time cut into its butterflies (count × the 16-wide panel rate) and
//! the rest (data movement, split and merge steps, the multiply). Run
//! with one thread and compare minima of alternating runs: the host
//! drifts.

use std::hint::black_box;

use greem_fft::{Cpx, Fft1d, RealFft3};

use super::best_of;

/// Seconds a call of `run` takes on a fresh copy of `input`, fastest of
/// 5 bursts of `calls`, less the copy timed the same way.
fn per_call<T: Copy>(calls: usize, input: &[T], mut run: impl FnMut(&mut [T])) -> f64 {
    let mut x = input.to_vec();
    let copy = best_of(5, || {
        (0..calls).for_each(|_| x.copy_from_slice(black_box(input)))
    });
    let t = best_of(5, || {
        (0..calls).for_each(|_| {
            x.copy_from_slice(black_box(input));
            run(&mut x);
        })
    });
    (t - copy).max(0.0) / calls as f64
}

/// `(columns, width, ns per butterfly)` at n = 128: one line
/// (`columns` 1), then panels of 16 columns (as every transform runs
/// them) and of 13 (65 columns in equal panels) at each width.
pub fn butterflies(calls: usize) -> Vec<(usize, &'static str, f64)> {
    let n = 128usize;
    let per_line = (n / 2 * n.trailing_zeros() as usize) as f64;
    let ns = |secs: f64, lines: usize| secs * 1e9 / per_line / lines as f64;
    let plan = Fft1d::new(n);
    let line: Vec<Cpx> = (0..n)
        .map(|i| Cpx::new((i as f64).sin(), (i as f64).cos()))
        .collect();
    let single = per_call(calls, &line, |x| plan.forward(x));
    let mut rows = vec![(1, "line", ns(single, 1))];
    for w in [16, 13] {
        let panel: Vec<f64> = (0..2 * n * w).map(|i| (i as f64 * 0.37).sin()).collect();
        for (width, plan) in plan.at_each_width() {
            let secs = per_call(calls, &panel, |p| {
                let (re, im) = p.split_at_mut(n * w);
                plan.butterflies_columns(re, im, w);
            });
            rows.push((w, width, ns(secs, w)));
        }
    }
    rows
}

/// `RealFft3::convolve` on an `n³` mesh, fastest of `reps`: seconds in
/// its z-row, y-panel and x-panel passes (both directions each), and
/// the fused `convolve`.
pub fn convolve_phases(n: usize, reps: usize) -> ([f64; 3], f64) {
    let plan = RealFft3::new(n);
    let h = n / 2 + 1;
    let table: Vec<f64> = (0..h * h * h).map(|i| 1.0 / (1.0 + i as f64)).collect();
    let kernel = |x: usize, y: usize| &table[(x.min(n - x) * h + y.min(n - y)) * h..][..h];
    let mut buf: Vec<f64> = (0..plan.buf_len())
        .map(|i| (i as f64 * 0.37).sin())
        .collect();
    let mut phases = [f64::INFINITY; 3];
    for _ in 0..reps {
        let t = plan.convolve_phases(&mut buf, kernel);
        for (p, t) in phases.iter_mut().zip(t) {
            *p = p.min(t.as_secs_f64());
        }
    }
    (phases, best_of(reps, || plan.convolve(&mut buf, kernel)))
}

/// Butterflies of each pass of one `convolve` at side `n`, both
/// directions: z rows (`n²` packed `n/2`-point lines), y panels (`n`
/// planes of `n/2 + 1` lines) and x panels (`n` lines of `n/2 + 1`).
fn pass_butterflies(n: usize) -> [f64; 3] {
    let lines = |len: usize| (len / 2 * len.trailing_zeros() as usize) as f64;
    let cols = (n * (n / 2 + 1)) as f64;
    [
        2.0 * (n * n) as f64 * lines(n / 2),
        2.0 * cols * lines(n),
        2.0 * cols * lines(n),
    ]
}

/// 2000 calls a butterfly timing and the 128³ convolution best of 12;
/// one call and a 16³ mesh at `small`.
pub fn run(small: bool) -> super::Outcome {
    let (calls, n, reps) = if small { (1, 16, 1) } else { (2000, 128, 12) };
    let mut s = String::from("=== Table I, PM: FFT — ns per butterfly, n = 128 ==========\n");
    let mut w = super::summary_writer("fft", small);
    w.begin_arr(Some("butterflies"));
    let table = butterflies(calls);
    for &(columns, width, ns) in &table {
        s.push_str(&format!("  w={columns:<2} {width:>6}  {ns:6.3} ns\n"));
        w.begin_obj(None);
        w.u64(Some("columns"), columns as u64);
        w.str_(Some("width"), width);
        w.f64(Some("ns"), ns);
        w.end_obj();
    }
    w.end_arr();
    // The rate every pass runs at: a 16-wide panel at the widest width,
    // the one `Fft1d::new` picks.
    let rate = table
        .iter()
        .rev()
        .find(|r| r.0 == 16)
        .expect("a 16-wide row")
        .2;
    s.push_str(&format!(
        "\nRealFft3::convolve, n = {n}, fastest of {reps}, ms; butterflies at \
         {rate:.3} ns each, the rest per complex value of the half-complex mesh \
         (both directions):\n"
    ));
    s.push_str("  pass         total  butterflies   rest  rest ns/value\n");
    w.u64(Some("convolve_n"), n as u64);
    let ([z, y, x], fused) = convolve_phases(n, reps);
    let values = 2.0 * (n * n * (n / 2 + 1)) as f64;
    let passes = [("z_rows", z), ("y_panels", y), ("x_panels", x)];
    let mut shares = Vec::new();
    for ((pass, secs), count) in passes.iter().zip(pass_butterflies(n)) {
        let fly = count * rate * 1e-9;
        let rest = secs - fly;
        s.push_str(&format!(
            "  {pass:<9} {:8.2} {:12.2} {:6.2} {:14.3}\n",
            secs * 1e3,
            fly * 1e3,
            rest * 1e3,
            rest * 1e9 / values
        ));
        shares.push((*pass, fly, rest));
    }
    for (pass, secs) in [("sum", z + y + x), ("fused", fused)] {
        s.push_str(&format!("  {pass:<9} {:8.2}\n", secs * 1e3));
    }
    w.begin_obj(Some("convolve_s"));
    for (pass, secs) in passes
        .into_iter()
        .chain([("sum", z + y + x), ("fused", fused)])
    {
        w.f64(Some(pass), secs);
    }
    w.end_obj();
    w.f64(Some("butterfly_ns"), rate);
    w.begin_obj(Some("butterflies_s"));
    for &(pass, fly, _) in &shares {
        w.f64(Some(pass), fly);
    }
    w.end_obj();
    w.begin_obj(Some("rest_s"));
    for &(pass, _, rest) in &shares {
        w.f64(Some(pass), rest);
    }
    w.end_obj();
    w.begin_obj(Some("rest_ns_per_value"));
    for &(pass, _, rest) in &shares {
        w.f64(Some(pass), rest * 1e9 / values);
    }
    w.end_obj();
    super::Outcome::new(s, w)
}
