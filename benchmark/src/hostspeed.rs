//! The host-speed tick: a fixed piece of the benchmark's own work, timed
//! beside every op, by which the gated time metrics are scaled.
//!
//! This host is a few cores of a shared machine. For minutes at a time
//! everything on it runs 1.2 to 1.6 times slower — `serial-pp` steps at
//! 0.60 s instead of 0.39 s, `serve-mix` ops at 40 or 48 ms instead of
//! 31 ms — and no statistic over the ops of one run sees past a spell
//! that outlasts the run. The tick does: it slows down with the ops. Ten
//! runs of `serve-mix` that straddled the end of a spell spread 23 % of
//! their median in `op_s_p50` as the clock read it (the first and third
//! quartile; 27 % from fastest to slowest) and 6.3 % (12 %) once each
//! op's time was divided by the tick time around it.
//!
//! A time metric is therefore reported as measured seconds divided by the
//! host's slowdown while it was measured: seconds on the reference host
//! when it is quiet. The tick is code of the benchmark and calls nothing
//! of the program, so no change to the program moves it.

use std::sync::Mutex;
use std::time::Instant;

use crate::measure::median;

/// Seconds one tick takes on the reference host (Xeon 2.1 GHz, AVX2 +
/// FMA) when nothing else runs on it. Only a scale: it turns the
/// slowdown into 1.0 there.
pub const QUIET_TICK_S: f64 = 1.4e-3;

/// Elements of each array of the tick's triad: three arrays of 2 MB, so
/// that the sweeps stream from the last-level cache, which the host's
/// other tenants share. Arrays that just fit the 2 MB L2 made the tick
/// depend on where their pages fell: twelve processes' triad medians
/// ranged over 19 %, these over 5.5 %, no wider than the other two parts.
/// One sweep is a third of the tick. As a fifth of it (the L2-sized
/// arrays) the tick slowed less in a spell than the ops did (`serve-mix`
/// ops 1.28 times, tick 1.13 times); as half of it (two sweeps) it slowed
/// more (`serve-mix` 1.26 against 1.34, `ranks2-step` 1.05 against 1.10).
const TRIAD_LEN: usize = 256 * 1024;
const FMA_ITERS: u64 = 300_000;
const MIX_ITERS: u64 = 200_000;

static TRIAD: Mutex<Option<[Vec<f64>; 3]>> = Mutex::new(None);

/// A chain of integer mixing rounds with a data-dependent branch.
fn mix_chain(iters: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut odd = 0u64;
    for _ in 0..iters {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        if x & 1 == 1 {
            odd += x >> 60;
        }
    }
    x ^ odd
}

/// Seconds the tick took just now: multiply-add chains on the vector
/// unit, one triad sweep out of the last-level cache, and a branchy
/// integer chain, a little under half a millisecond each. The three
/// together tracked the ops better than any one of them, and the triad is
/// the part a busy host slows most.
pub fn tick() -> f64 {
    let mut triad = TRIAD.lock().unwrap_or_else(|e| e.into_inner());
    let [a, b, c] = triad.get_or_insert_with(|| {
        [
            vec![0.0; TRIAD_LEN],
            vec![1.5; TRIAD_LEN],
            vec![2.5; TRIAD_LEN],
        ]
    });
    let t = Instant::now();
    std::hint::black_box(crate::host::fma_chains(std::hint::black_box(FMA_ITERS)));
    for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
        *a = *b + 3.0 * *c;
    }
    std::hint::black_box(&mut *a);
    std::hint::black_box(mix_chain(std::hint::black_box(MIX_ITERS)));
    t.elapsed().as_secs_f64()
}

/// How many times slower than the quiet reference host this host ran
/// while `ticks` were taken.
pub fn slowdown(ticks: &[f64]) -> f64 {
    median(ticks) / QUIET_TICK_S
}

/// The slowdown around each op, from the ticks of its pass: tick `k` is
/// taken just before op `k`, and one more after the last op. Op `k` gets
/// the median of the ticks from `half_window` ops before it to
/// `half_window` ops after it.
pub fn slowdown_per_op(ticks: &[f64], half_window: usize) -> Vec<f64> {
    let ops = ticks.len().saturating_sub(1);
    (0..ops)
        .map(|k| {
            let lo = k.saturating_sub(half_window);
            let hi = (k + 2 + half_window).min(ticks.len());
            slowdown(&ticks[lo..hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_op_is_scaled_by_the_ticks_around_it() {
        // Three ops: the host is quiet for the first, twice as slow from
        // the second on.
        let q = QUIET_TICK_S;
        let s = slowdown_per_op(&[q, q, 2.0 * q, 2.0 * q], 0);
        assert_eq!(s, vec![1.0, 1.5, 2.0]);
        // A wide window is the median of the whole pass.
        let s = slowdown_per_op(&[q, q, 2.0 * q, 2.0 * q], 10);
        assert_eq!(s, vec![1.5; 3]);
        assert!(slowdown_per_op(&[q], 3).is_empty());
    }

    #[test]
    fn a_tick_takes_about_as_long_each_time() {
        let t: Vec<f64> = (0..9).map(|_| tick()).collect();
        let m = median(&t);
        assert!(m > 1e-5 && m < 1.0, "tick median {m}");
        // The fastest of nine is not far below the median: the tick is
        // fixed work, so only the host can slow it.
        let fastest = t.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(fastest > 0.5 * m, "fastest {fastest}, median {m}");
    }
}
