//! Adaptive trace retention: keep full span streams for the few ranks
//! that matter, fold everyone else into sketches.
//!
//! At p = 82944 a full per-rank trace is ~1.33M comm events per step —
//! unkeepable and mostly redundant. What an operator actually needs is
//! (a) the full story of the *interesting* ranks and (b) the
//! cross-rank distribution of everything else. The retention policy
//! picks the interesting set online:
//!
//! 1. the **critical-path rank** (the rank whose chain of compute and
//!    waits determines the makespan — always retained),
//! 2. every rank **flagged by an anomaly detector** this run, and
//! 3. **K random ranks** (seeded, so reruns retain the same set) as an
//!    unbiased control sample,
//!
//! capped at [`MAX_RETAINED`] (8, the acceptance bound) with the
//! priority order above. Everything outside the set is
//! folded into per-span-name duration sketches by [`fold_events`] as
//! the trace drains, so the discarded ranks still contribute to the
//! p50/p95/p99-over-ranks roll-up. DESIGN.md §18 documents the policy.

use greem_obs::sketch::Rollup;
use greem_obs::trace::Phase;
use greem_obs::Event;

/// Hard cap on retained ranks (critical-path rank first, then flagged
/// ranks, then the random sample).
pub const MAX_RETAINED: usize = 8;
/// Random control ranks drawn on top of critical/flagged.
pub const K_RANDOM: usize = 4;
/// Seed for the random sample (deterministic across reruns).
pub const RETENTION_SEED: u64 = 0x5eed;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Choose the retained rank set for a world of `p` ranks: the
/// critical-path rank, then detector-flagged ranks, then [`K_RANDOM`]
/// random ranks, deduplicated, capped at [`MAX_RETAINED`], sorted.
pub fn select_ranks(p: usize, critical_rank: u32, flagged: &[u32]) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    let push = |r: u32, out: &mut Vec<u32>| {
        if (r as usize) < p && !out.contains(&r) && out.len() < MAX_RETAINED {
            out.push(r);
        }
    };
    push(critical_rank, &mut out);
    for &r in flagged {
        push(r, &mut out);
    }
    let mut st = RETENTION_SEED;
    // Bounded draw loop: p can be smaller than the request.
    let want = (out.len() + K_RANDOM).min(MAX_RETAINED).min(p);
    let mut attempts = 0;
    while out.len() < want && attempts < 64 * MAX_RETAINED {
        push((splitmix64(&mut st) % p as u64) as u32, &mut out);
        attempts += 1;
    }
    out.sort_unstable();
    out
}

/// Split a drained event stream along a retained-rank set: events of
/// retained ranks pass through untouched; complete spans of every
/// other rank fold into per-span-name duration sketches (virtual-clock
/// seconds when available, else wall seconds) in the returned
/// [`Rollup`]. Instants and unmatched events of discarded ranks are
/// dropped — the sketches are about duration distributions.
pub fn fold_events(events: &[Event], retained: &[u32]) -> (Vec<Event>, Rollup) {
    let mut kept = Vec::new();
    let mut rollup = Rollup::default();
    // Per (rank, tid): stack of open Begin events (discarded ranks).
    let mut open: std::collections::BTreeMap<(u32, u32), Vec<&Event>> = Default::default();
    for e in events {
        if retained.contains(&e.rank) {
            kept.push(*e);
            continue;
        }
        match e.phase {
            Phase::Begin => open.entry((e.rank, e.tid)).or_default().push(e),
            Phase::End => {
                if let Some(b) = open.get_mut(&(e.rank, e.tid)).and_then(Vec::pop) {
                    let dur = if b.has_vtime() && e.has_vtime() {
                        e.vtime - b.vtime
                    } else {
                        (e.wall_ns - b.wall_ns) as f64 / 1e9
                    };
                    rollup.observe(b.name, dur.max(0.0));
                }
            }
            Phase::Instant => {}
        }
    }
    (kept, rollup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greem_obs::trace::Args;

    fn ev(seq: u64, phase: Phase, name: &'static str, rank: u32, vtime: f64) -> Event {
        Event {
            seq,
            phase,
            name,
            cat: "step",
            wall_ns: seq * 1000,
            vtime,
            rank,
            tid: rank,
            args: Args::default(),
        }
    }

    #[test]
    fn selection_priority_and_cap() {
        let picked = select_ranks(1024, 17, &[900, 17, 3]);
        assert!(picked.contains(&17), "critical-path rank always retained");
        assert!(picked.contains(&900) && picked.contains(&3));
        assert!(picked.len() <= MAX_RETAINED);
        assert!(picked.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        // Deterministic: same seed, same set.
        assert_eq!(picked, select_ranks(1024, 17, &[900, 17, 3]));

        // Flood of flagged ranks: cap holds, critical rank survives.
        let flagged: Vec<u32> = (100..200).collect();
        let picked = select_ranks(1024, 17, &flagged);
        assert_eq!(picked.len(), MAX_RETAINED);
        assert!(picked.contains(&17));

        // Tiny worlds: never more ranks than exist, out-of-range
        // flagged ranks ignored.
        let picked = select_ranks(2, 1, &[7, 0]);
        assert!(picked.len() <= 2);
        assert!(picked.iter().all(|&r| r < 2));
    }

    #[test]
    fn fold_keeps_retained_sketches_rest() {
        // rank 0 (retained): full stream. ranks 1..4: spans fold.
        let mut events = vec![
            ev(0, Phase::Begin, "pp", 0, 0.0),
            ev(1, Phase::End, "pp", 0, 0.5),
            ev(2, Phase::Instant, "tick", 0, 0.5),
        ];
        let mut seq = 3;
        for rank in 1..4u32 {
            events.push(ev(seq, Phase::Begin, "pp", rank, 0.0));
            events.push(ev(seq + 1, Phase::End, "pp", rank, 0.1 * rank as f64));
            events.push(ev(seq + 2, Phase::Instant, "tick", rank, 1.0));
            seq += 3;
        }
        let (kept, rollup) = fold_events(&events, &[0]);
        assert_eq!(kept.len(), 3, "retained rank passes through whole");
        assert!(kept.iter().all(|e| e.rank == 0));
        let pp = rollup.get("pp").expect("folded sketch");
        assert_eq!(pp.count(), 3);
        assert!((pp.max().unwrap() - 0.3).abs() < 1e-12);
        assert!(rollup.get("tick").is_none(), "instants are not durations");
    }
}
