//! The per-rank context: point-to-point messaging and the virtual clock.

use std::any::Any;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};

use crate::clock::RankClock;
#[cfg(feature = "faults")]
use crate::fault::{FaultCtx, FaultPlan, FaultStats, MsgFault};
use crate::netmodel::NetModel;
use crate::topology::Torus3d;

/// A message in flight. Matching is by `(source global rank, communicator
/// id, tag)`, like MPI; payloads are type-erased `Vec<T>`s.
pub(crate) struct Message {
    pub src: usize,
    pub comm_id: u64,
    pub tag: u64,
    pub bytes: usize,
    /// Sender's virtual time at which the message hit the wire.
    pub send_ready: f64,
    pub hops: usize,
    /// Injected fault, drawn deterministically by the sender and paid
    /// for (in virtual time) by the receiver.
    #[cfg(feature = "faults")]
    pub fault: MsgFault,
    pub payload: Box<dyn Any + Send>,
}

/// Cumulative per-rank communication counters, for the instrumentation
/// that feeds the paper-style cost tables.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Number of messages sent (self-sends included).
    pub messages_sent: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// Number of messages received.
    pub messages_received: u64,
    /// Total payload bytes received.
    pub bytes_received: u64,
    /// Total torus hops traversed by sent messages (self-sends count 0).
    pub hops_sent: u64,
}

impl greem_obs::Observe for CommStats {
    fn observe(&self, reg: &mut greem_obs::Registry) {
        reg.counter_add("comm_messages_sent", self.messages_sent as f64);
        reg.counter_add("comm_bytes_sent", self.bytes_sent as f64);
        reg.counter_add("comm_messages_received", self.messages_received as f64);
        reg.counter_add("comm_bytes_received", self.bytes_received as f64);
        reg.counter_add("comm_hops_sent", self.hops_sent as f64);
    }
}

/// The execution context of one simulated rank.
///
/// Owns the rank's mailbox, its virtual clock, and its two network port
/// occupancy times (injection and drain). All timing state is private to
/// the rank, which is what makes the simulated times deterministic.
pub struct Ctx {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    pub(crate) inbox: Receiver<Message>,
    pub(crate) pending: Vec<Message>,
    pub(crate) outboxes: Vec<Sender<Message>>,
    pub(crate) topo: Torus3d,
    pub(crate) net: NetModel,
    /// Virtual clock + port occupancy; the arithmetic lives in
    /// [`RankClock`] so the phantom engine replays it bit-for-bit.
    pub(crate) clock: RankClock,
    /// Shared counter for allocating communicator ids.
    pub(crate) comm_counter: Arc<AtomicU64>,
    pub(crate) stats: CommStats,
    /// Fault-injection state; `None` costs one branch per hook and is
    /// the only overhead a fault-free world pays.
    #[cfg(feature = "faults")]
    pub(crate) faults: Option<Box<FaultCtx>>,
}

impl Ctx {
    /// This rank's global rank in the world.
    pub fn world_rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn world_size(&self) -> usize {
        self.size
    }

    /// The torus topology the world runs on.
    pub fn topology(&self) -> Torus3d {
        self.topo
    }

    /// The network cost model in force.
    pub fn net_model(&self) -> NetModel {
        self.net
    }

    /// This rank's virtual clock in simulated seconds. Advanced by
    /// message transfers (per the [`NetModel`]) and by [`Ctx::compute`].
    pub fn vtime(&self) -> f64 {
        self.clock.vtime
    }

    /// Advance the virtual clock by `seconds` of modelled computation.
    /// On a straggler rank (see [`crate::FaultPlan`]) the charge is
    /// scaled up by the slowdown factor.
    pub fn compute(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        #[cfg(feature = "faults")]
        let seconds = match &mut self.faults {
            Some(f) => {
                let factor = f.plan.straggler_factor(self.rank, f.step);
                if factor > 1.0 {
                    f.stats.straggler_vtime += seconds * (factor - 1.0);
                }
                seconds * factor
            }
            None => seconds,
        };
        self.clock.compute(seconds);
        self.obs_sync();
    }

    /// Force the virtual clock to at least `t` (used by barriers).
    pub(crate) fn advance_to(&mut self, t: f64) {
        if self.clock.advance_to(t) {
            self.obs_sync();
        }
    }

    /// Mirror the virtual clock into the tracer's thread-local copy so
    /// spans recorded on this rank thread carry virtual timestamps.
    #[inline]
    pub(crate) fn obs_sync(&self) {
        greem_obs::trace::set_vtime(self.clock.vtime);
    }

    /// Communication counters so far.
    pub fn comm_stats(&self) -> CommStats {
        self.stats
    }

    /// Send `data` to global rank `dest` with a `(comm_id, tag)` match
    /// key. Non-blocking: the payload is enqueued immediately; the cost
    /// model charges the sender's clock with the per-message overhead and
    /// occupies its injection port for the transfer.
    pub(crate) fn send_raw<T: Send + 'static>(
        &mut self,
        dest: usize,
        comm_id: u64,
        tag: u64,
        data: Vec<T>,
    ) {
        let bytes = std::mem::size_of::<T>() * data.len();
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        if dest == self.rank {
            // Pure memcpy: charge the self-transfer and bypass the NIC.
            let ready = self.clock.charge_self_send(&self.net, bytes);
            self.obs_sync();
            self.pending.push(Message {
                src: self.rank,
                comm_id,
                tag,
                bytes,
                send_ready: ready,
                hops: 0,
                #[cfg(feature = "faults")]
                fault: MsgFault::default(),
                payload: Box::new(data),
            });
            return;
        }
        let send_ready = self.clock.charge_send(&self.net, bytes);
        self.obs_sync();
        let hops = self.topo.hops(self.rank, dest);
        self.stats.hops_sent += hops as u64;
        // Message faults are drawn at send time (so the schedule is a
        // pure function of the seed and each sender's program order)
        // but charged at the receiver.
        #[cfg(feature = "faults")]
        let fault = match &mut self.faults {
            Some(f) => f.next_msg_fault(self.rank, dest),
            None => MsgFault::default(),
        };
        let msg = Message {
            src: self.rank,
            comm_id,
            tag,
            bytes,
            send_ready,
            hops,
            #[cfg(feature = "faults")]
            fault,
            payload: Box::new(data),
        };
        self.outboxes[dest]
            .send(msg)
            .expect("mpisim: peer rank hung up (it panicked or returned early)");
    }

    /// Receive the message matching `(src, comm_id, tag)`, blocking the
    /// host thread until it arrives. Advances the virtual clock past the
    /// modelled arrival + drain time, serialising with other receives at
    /// this rank's port (the congestion term).
    pub(crate) fn recv_raw<T: Send + 'static>(
        &mut self,
        src: usize,
        comm_id: u64,
        tag: u64,
    ) -> Vec<T> {
        let msg = self.take_matching(src, comm_id, tag);
        if msg.src != self.rank {
            #[allow(unused_mut)]
            let mut arrival = msg.send_ready + self.net.latency(msg.hops);
            #[cfg(feature = "faults")]
            if !msg.fault.is_clean() {
                arrival += self.apply_msg_fault(&msg.fault);
            }
            self.clock.charge_recv(&self.net, arrival, msg.bytes);
            self.obs_sync();
        } else {
            self.advance_to(msg.send_ready);
        }
        self.stats.messages_received += 1;
        self.stats.bytes_received += msg.bytes as u64;
        *msg.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
            panic!(
                "mpisim: type mismatch receiving (src={src}, comm={comm_id}, tag={tag}) at rank {}",
                self.rank
            )
        })
    }

    /// Account an injected message fault at the receiver: bump the
    /// counters, emit trace instants, and return the extra arrival
    /// latency (injected delay + one backed-off timeout per drop).
    #[cfg(feature = "faults")]
    fn apply_msg_fault(&mut self, fault: &MsgFault) -> f64 {
        let f = self
            .faults
            .as_mut()
            .expect("mpisim: faulty message received but no plan attached");
        let cost = f.plan.fault_cost(fault);
        if fault.drops > 0 {
            f.stats.messages_dropped += 1;
            f.stats.retries += fault.drops as u64;
            f.stats.retry_vtime += cost - fault.delay;
            greem_obs::trace::instant("fault", "fault.msg_drop", &[("drops", fault.drops as f64)]);
        }
        if fault.delay > 0.0 {
            f.stats.messages_delayed += 1;
            f.stats.delay_vtime += fault.delay;
            greem_obs::trace::instant("fault", "fault.msg_delay", &[("delay_s", fault.delay)]);
        }
        cost
    }

    /// Set the step index used by step-indexed faults (crash schedules,
    /// straggler windows). Step drivers call this once per step; a
    /// plan-less context ignores it.
    #[cfg(feature = "faults")]
    pub fn set_fault_step(&mut self, step: u64) {
        if let Some(f) = &mut self.faults {
            f.step = step;
        }
    }

    /// Fire this rank's crash scheduled for the current fault step, at
    /// most once per plan entry. Always false without a plan.
    #[cfg(feature = "faults")]
    pub fn take_crash(&mut self) -> bool {
        let rank = self.rank;
        match &mut self.faults {
            Some(f) => {
                let fired = f.take_crash(rank);
                if fired {
                    greem_obs::trace::instant("fault", "fault.crash", &[]);
                }
                fired
            }
            None => false,
        }
    }

    /// Fault counters so far (all zero without a plan).
    #[cfg(feature = "faults")]
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// The fault plan this world was built with, if any.
    #[cfg(feature = "faults")]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| f.plan.as_ref())
    }

    /// Pull messages from the mailbox until one matches, stashing the
    /// rest. Out-of-order arrival is therefore harmless, like MPI's
    /// matching rules.
    fn take_matching(&mut self, src: usize, comm_id: u64, tag: u64) -> Message {
        if let Some(i) = self
            .pending
            .iter()
            .position(|m| m.src == src && m.comm_id == comm_id && m.tag == tag)
        {
            return self.pending.swap_remove(i);
        }
        loop {
            let m = self
                .inbox
                .recv()
                .expect("mpisim: world shut down while waiting for a message");
            if m.src == src && m.comm_id == comm_id && m.tag == tag {
                return m;
            }
            self.pending.push(m);
        }
    }
}
