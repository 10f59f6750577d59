//! Deterministic, seeded fault injection.
//!
//! Production-scale runs (the paper held 10240³ particles on up to
//! 82944 nodes for weeks) treat node failures and straggler ranks as
//! routine events. This module lets a simulated world replay exactly
//! such a failure schedule: a [`FaultPlan`] describes *what* goes wrong
//! (rank crashes at a given step, messages dropped or delayed with some
//! probability, ranks slowed by a constant factor) and a 64-bit seed
//! makes every decision a pure function of `(seed, src, dst, send
//! sequence)` — the same plan replays the same schedule bit-for-bit,
//! regardless of host-thread timing.
//!
//! The injection points live in the per-rank wire charge that the
//! threaded [`Ctx`](crate::Ctx) and the phantom engine share:
//!
//! * **Stragglers** scale [`Ctx::compute`](crate::Ctx::compute) — every
//!   modelled compute charge on a slowed rank takes `factor`× longer on
//!   the virtual clock, which is precisely the signal the paper's
//!   sampling-method balancer feeds on.
//! * **Message faults** ride on each message: the sender draws the
//!   fault deterministically at send time, the *receiver* pays for it.
//!   A delayed message arrives `delay` seconds later; a dropped message
//!   costs the receiver one virtual-clock timeout per drop (with
//!   exponential backoff, bounded by [`MAX_RETRIES`])
//!   before the modelled retransmission lands. Payloads are never lost
//!   — drop faults model the *time* cost of a reliable transport's
//!   timeout/retry loop, so collectives stay correct while their cost
//!   degrades.
//! * **Crashes** are step-indexed and one-shot: the step driver calls
//!   [`Ctx::set_fault_step`](crate::Ctx::set_fault_step) each step and
//!   polls [`Ctx::take_crash`](crate::Ctx::take_crash); a fired crash
//!   is consumed so the rank can "reboot" and the run can make progress
//!   after rollback (see `greem_resil`).
//!
//! A `Ctx` with no plan attached pays one `Option` branch per hook.

use std::sync::Arc;

// Timeout/retry semantics of the modelled reliable transport: how long
// a receiver waits (virtual seconds) before assuming a message was
// lost, how the wait grows on consecutive losses, and how many losses
// the plan may inject per message.

/// Virtual-clock timeout before the first retransmission.
pub const RETRY_TIMEOUT: f64 = 1e-3;
/// Multiplier applied to the timeout on each further retry.
pub const RETRY_BACKOFF: f64 = 2.0;
/// Upper bound on injected drops of one message — guarantees every
/// payload is eventually delivered (bounded retry).
pub const MAX_RETRIES: u32 = 4;
/// Virtual seconds every surviving rank spends detecting a crash: the
/// cost of noticing that a peer has gone silent.
pub const DETECT_TIMEOUT: f64 = 5e-2;

/// One straggler entry: `rank` runs `factor`× slower during steps
/// `from..until`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Straggler {
    rank: usize,
    factor: f64,
    from: u64,
    until: u64,
}

/// The fault drawn for one message: how many times it is "lost" before
/// the retransmission lands, and how much extra wire delay it suffers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MsgFault {
    /// Injected losses; the receiver pays one (backed-off) timeout each.
    pub drops: u32,
    /// Extra arrival delay in virtual seconds (0 when not delayed).
    pub delay: f64,
}

impl MsgFault {
    /// True when this message is unaffected.
    pub fn is_clean(&self) -> bool {
        self.drops == 0 && self.delay == 0.0
    }
}

/// Cumulative per-rank fault counters (receiver side for message
/// faults), mirrored into the metrics registry via [`Observe`].
///
/// [`Observe`]: greem_obs::Observe
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Messages that suffered at least one injected drop.
    pub messages_dropped: u64,
    /// Messages that arrived with an injected delay.
    pub messages_delayed: u64,
    /// Total retransmissions waited for (one per injected drop).
    pub retries: u64,
    /// Virtual time spent in timeout/backoff waits.
    pub retry_vtime: f64,
    /// Virtual time spent waiting on injected delays.
    pub delay_vtime: f64,
    /// Extra virtual compute time charged by straggler slowdowns.
    pub straggler_vtime: f64,
    /// Crashes this rank has fired via `take_crash`.
    pub crashes_fired: u64,
}

impl FaultStats {
    /// Fold another rank's counters in (for whole-world aggregation).
    pub fn merge(&mut self, other: &FaultStats) {
        self.messages_dropped += other.messages_dropped;
        self.messages_delayed += other.messages_delayed;
        self.retries += other.retries;
        self.retry_vtime += other.retry_vtime;
        self.delay_vtime += other.delay_vtime;
        self.straggler_vtime += other.straggler_vtime;
        self.crashes_fired += other.crashes_fired;
    }
}

impl greem_obs::Observe for FaultStats {
    fn observe(&self, reg: &mut greem_obs::Registry) {
        reg.counter_add("fault_messages_dropped", self.messages_dropped as f64);
        reg.counter_add("fault_messages_delayed", self.messages_delayed as f64);
        reg.counter_add("fault_retries", self.retries as f64);
        reg.counter_add("fault_retry_vtime_seconds", self.retry_vtime);
        reg.counter_add("fault_delay_vtime_seconds", self.delay_vtime);
        reg.counter_add("fault_straggler_vtime_seconds", self.straggler_vtime);
        reg.counter_add("fault_crashes_fired", self.crashes_fired as f64);
    }
}

/// A replayable fault schedule for one simulated world.
///
/// ```
/// use mpisim::FaultPlan;
///
/// let plan = FaultPlan::new(0xC0FFEE)
///     .crash(2, 5)           // rank 2 dies at step 5
///     .straggler(1, 4.0)     // rank 1 runs 4x slower, every step
///     .drop_messages(0.02)   // 2% of messages time out and retry
///     .delay_messages(0.05, 1e-4);
/// assert!(plan.crash_at(2, 5) && !plan.crash_at(2, 4));
/// // The per-message draw is a pure function of (seed, src, dst, seq).
/// assert_eq!(plan.draw_msg(0, 3, 17), plan.draw_msg(0, 3, 17));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    crashes: Vec<(usize, u64)>,
    stragglers: Vec<Straggler>,
    drop_prob: f64,
    delay_prob: f64,
    delay_s: f64,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            crashes: Vec::new(),
            stragglers: Vec::new(),
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_s: 0.0,
        }
    }

    /// Schedule `rank` to crash at the start of step `step` (one-shot).
    pub fn crash(mut self, rank: usize, step: u64) -> Self {
        self.crashes.push((rank, step));
        self
    }

    /// Slow `rank` down by `factor` on every step.
    pub fn straggler(self, rank: usize, factor: f64) -> Self {
        self.straggler_window(rank, factor, 0, u64::MAX)
    }

    /// Slow `rank` down by `factor` during steps `from..until`.
    pub fn straggler_window(mut self, rank: usize, factor: f64, from: u64, until: u64) -> Self {
        assert!(factor >= 1.0, "straggler factor must be >= 1");
        self.stragglers.push(Straggler {
            rank,
            factor,
            from,
            until,
        });
        self
    }

    /// Drop (time out and retransmit) each message with probability `p`.
    pub fn drop_messages(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.drop_prob = p;
        self
    }

    /// Delay each message by `delay_s` (±50%, seeded) with probability `p`.
    pub fn delay_messages(mut self, p: f64, delay_s: f64) -> Self {
        assert!((0.0..=1.0).contains(&p) && delay_s >= 0.0);
        self.delay_prob = p;
        self.delay_s = delay_s;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scheduled `(rank, step)` crashes.
    pub fn crashes(&self) -> &[(usize, u64)] {
        &self.crashes
    }

    /// True when `rank` is scheduled to crash at `step`.
    pub fn crash_at(&self, rank: usize, step: u64) -> bool {
        self.crashes.iter().any(|&(r, s)| r == rank && s == step)
    }

    /// True when the plan can inject message faults at all. With
    /// [`FaultPlan::has_stragglers`] it decides whether the phantom
    /// engine allocates per-rank fault state, so a crash-only plan costs
    /// phantom ranks nothing.
    pub fn has_msg_faults(&self) -> bool {
        self.drop_prob > 0.0 || self.delay_prob > 0.0
    }

    /// True when any straggler window exists (on any rank).
    pub fn has_stragglers(&self) -> bool {
        !self.stragglers.is_empty()
    }

    /// True when `rank` has at least one scheduled crash — ranks
    /// without one need no fired-crash state.
    pub fn rank_has_crashes(&self, rank: usize) -> bool {
        self.crashes.iter().any(|&(r, _)| r == rank)
    }

    /// Combined slowdown factor of `rank` at `step` (1.0 = healthy).
    pub fn straggler_factor(&self, rank: usize, step: u64) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.rank == rank && (s.from..s.until).contains(&step))
            .map(|s| s.factor)
            .product()
    }

    /// Deterministically draw the fault of the `seq`-th message rank
    /// `src` sends, destined for `dst`. Pure: the same arguments always
    /// produce the same [`MsgFault`], which is what makes a fault
    /// schedule replayable from the seed alone.
    pub fn draw_msg(&self, src: usize, dst: usize, seq: u64) -> MsgFault {
        if self.drop_prob == 0.0 && self.delay_prob == 0.0 {
            return MsgFault::default();
        }
        let mut h = mix(self.seed ^ 0x9E37_79B9_7F4A_7C15);
        h = mix(h ^ (src as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        h = mix(h ^ (dst as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
        h = mix(h ^ seq);
        let mut drops = 0u32;
        while drops < MAX_RETRIES {
            h = mix(h);
            if unit(h) < self.drop_prob {
                drops += 1;
            } else {
                break;
            }
        }
        h = mix(h);
        let delay = if unit(h) < self.delay_prob {
            self.delay_s * (0.5 + unit(mix(h)))
        } else {
            0.0
        };
        MsgFault { drops, delay }
    }

    /// The receiver-side virtual-time cost of `fault`: injected delay
    /// plus one backed-off timeout per drop.
    pub fn fault_cost(&self, fault: &MsgFault) -> f64 {
        let mut cost = fault.delay;
        let mut t = RETRY_TIMEOUT;
        for _ in 0..fault.drops {
            cost += t;
            t *= RETRY_BACKOFF;
        }
        cost
    }
}

/// splitmix64 finaliser: the bit mixer behind every seeded decision.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to the unit interval.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-rank injection state: the shared plan plus this rank's mutable
/// bookkeeping (current step, fired crashes, send sequence, counters).
pub(crate) struct FaultCtx {
    pub(crate) plan: Arc<FaultPlan>,
    pub(crate) step: u64,
    fired: Vec<bool>,
    send_seq: u64,
    pub(crate) stats: FaultStats,
}

impl FaultCtx {
    pub(crate) fn new(plan: Arc<FaultPlan>) -> Self {
        let fired = vec![false; plan.crashes.len()];
        FaultCtx {
            plan,
            step: 0,
            fired,
            send_seq: 0,
            stats: FaultStats::default(),
        }
    }

    /// Draw the fault of this rank's next outgoing message.
    pub(crate) fn next_msg_fault(&mut self, src: usize, dst: usize) -> MsgFault {
        let seq = self.send_seq;
        self.send_seq += 1;
        self.plan.draw_msg(src, dst, seq)
    }

    /// Account an injected message fault at the receiver: bump the
    /// counters, emit `fault.*` trace instants when `trace` is set, and
    /// return the extra arrival latency (injected delay + one backed-off
    /// timeout per drop).
    pub(crate) fn apply_msg_fault(&mut self, fault: &MsgFault, trace: bool) -> f64 {
        let cost = self.plan.fault_cost(fault);
        if fault.drops > 0 {
            self.stats.messages_dropped += 1;
            self.stats.retries += fault.drops as u64;
            self.stats.retry_vtime += cost - fault.delay;
            if trace {
                greem_obs::trace::instant(
                    "fault",
                    "fault.msg_drop",
                    &[("drops", fault.drops as f64)],
                );
            }
        }
        if fault.delay > 0.0 {
            self.stats.messages_delayed += 1;
            self.stats.delay_vtime += fault.delay;
            if trace {
                greem_obs::trace::instant("fault", "fault.msg_delay", &[("delay_s", fault.delay)]);
            }
        }
        cost
    }

    /// Scale `seconds` of `rank`'s compute by its straggler factor at
    /// the current step, counting the extra time.
    pub(crate) fn straggle(&mut self, rank: usize, seconds: f64) -> f64 {
        let factor = self.plan.straggler_factor(rank, self.step);
        if factor > 1.0 {
            self.stats.straggler_vtime += seconds * (factor - 1.0);
        }
        seconds * factor
    }

    /// Fire the crash scheduled for `rank` at the current step, at most
    /// once per plan entry.
    pub(crate) fn take_crash(&mut self, rank: usize) -> bool {
        for (i, &(r, s)) in self.plan.crashes.iter().enumerate() {
            if r == rank && s == self.step && !self.fired[i] {
                self.fired[i] = true;
                self.stats.crashes_fired += 1;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(7)
            .drop_messages(0.3)
            .delay_messages(0.3, 1e-3);
        let b = FaultPlan::new(7)
            .drop_messages(0.3)
            .delay_messages(0.3, 1e-3);
        let c = FaultPlan::new(8)
            .drop_messages(0.3)
            .delay_messages(0.3, 1e-3);
        let mut differs = false;
        for seq in 0..200 {
            let fa = a.draw_msg(1, 2, seq);
            assert_eq!(fa, b.draw_msg(1, 2, seq), "same seed must replay");
            differs |= fa != c.draw_msg(1, 2, seq);
        }
        assert!(differs, "different seeds should give different schedules");
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let p = 0.2;
        let plan = FaultPlan::new(42).drop_messages(p);
        let n = 5000;
        let dropped = (0..n).filter(|&s| plan.draw_msg(0, 1, s).drops > 0).count();
        let frac = dropped as f64 / n as f64;
        assert!(
            (frac - p).abs() < 0.03,
            "observed drop rate {frac}, wanted ~{p}"
        );
    }

    #[test]
    fn retries_are_bounded() {
        let plan = FaultPlan::new(1).drop_messages(1.0); // always drop
        let f = plan.draw_msg(0, 1, 0);
        assert_eq!(f.drops, MAX_RETRIES);
        // Cost sums the backed-off timeouts: t·(1 + β + β² + β³).
        let want: f64 = (0..MAX_RETRIES)
            .map(|i| RETRY_TIMEOUT * RETRY_BACKOFF.powi(i as i32))
            .sum();
        assert!((plan.fault_cost(&f) - want).abs() < 1e-15);
    }

    #[test]
    fn straggler_windows_compose() {
        let plan = FaultPlan::new(0)
            .straggler(3, 2.0)
            .straggler_window(3, 3.0, 5, 10);
        assert_eq!(plan.straggler_factor(3, 0), 2.0);
        assert_eq!(plan.straggler_factor(3, 5), 6.0);
        assert_eq!(plan.straggler_factor(3, 10), 2.0);
        assert_eq!(plan.straggler_factor(2, 5), 1.0);
    }

    #[test]
    fn crashes_fire_once() {
        let plan = Arc::new(FaultPlan::new(0).crash(1, 4));
        let mut ctx = FaultCtx::new(plan);
        ctx.step = 3;
        assert!(!ctx.take_crash(1));
        ctx.step = 4;
        assert!(!ctx.take_crash(0), "wrong rank must not fire");
        assert!(ctx.take_crash(1));
        assert!(!ctx.take_crash(1), "one-shot: second poll is clean");
        assert_eq!(ctx.stats.crashes_fired, 1);
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new(99);
        assert_eq!(plan.draw_msg(0, 1, 0), MsgFault::default());
        assert_eq!(plan.straggler_factor(0, 0), 1.0);
        assert!(!plan.crash_at(0, 0));
        assert_eq!(plan.fault_cost(&MsgFault::default()), 0.0);
    }
}
