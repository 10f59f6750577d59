//! The per-rank context: point-to-point messaging and the virtual clock.

use std::any::Any;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};

use crate::clock::{Envelope, RankWire, Wire};
use crate::fault::{FaultPlan, FaultStats};
use crate::netmodel::NetModel;
use crate::topology::Torus3d;

/// A message in flight. Matching is by `(source global rank, communicator
/// id, tag)`, like MPI; payloads are type-erased `Vec<T>`s.
pub(crate) struct Message {
    pub src: usize,
    pub comm_id: u64,
    pub tag: u64,
    pub env: Envelope,
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
/// Owns the rank's mailbox and its wire charge: virtual clock, port
/// occupancy, traffic counters and fault state. All timing state is
/// private to the rank, which is what makes the simulated times
/// deterministic.
pub struct Ctx {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    pub(crate) inbox: Receiver<Message>,
    pub(crate) pending: Vec<Message>,
    pub(crate) outboxes: Vec<Sender<Message>>,
    pub(crate) wire: Wire,
    /// The charge the phantom engine replays bit-for-bit.
    pub(crate) charge: RankWire,
    /// Shared counter for allocating communicator ids.
    pub(crate) comm_counter: Arc<AtomicU64>,
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
        self.wire.topo
    }

    /// The network cost model in force.
    pub fn net_model(&self) -> NetModel {
        self.wire.net
    }

    /// This rank's virtual clock in simulated seconds. Advanced by
    /// message transfers (per the [`NetModel`]) and by [`Ctx::compute`].
    pub fn vtime(&self) -> f64 {
        self.charge.clock.vtime
    }

    /// Advance the virtual clock by `seconds` of modelled computation.
    /// On a straggler rank (see [`crate::FaultPlan`]) the charge is
    /// scaled up by the slowdown factor.
    pub fn compute(&mut self, seconds: f64) {
        self.charge.compute(self.rank, seconds);
        self.obs_sync();
    }

    /// Mirror the virtual clock into the tracer's thread-local copy so
    /// spans recorded on this rank thread carry virtual timestamps.
    #[inline]
    pub(crate) fn obs_sync(&self) {
        greem_obs::trace::set_vtime(self.charge.clock.vtime);
    }

    /// Communication counters so far.
    pub fn comm_stats(&self) -> CommStats {
        self.charge.stats
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
        let env = self.charge.send(&self.wire, self.rank, dest, bytes);
        self.obs_sync();
        let msg = Message {
            src: self.rank,
            comm_id,
            tag,
            env,
            payload: Box::new(data),
        };
        if dest == self.rank {
            self.pending.push(msg);
        } else {
            self.outboxes[dest]
                .send(msg)
                .expect("mpisim: peer rank hung up (it panicked or returned early)");
        }
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
        // Fault instants fire inside the charge, before this sync, so
        // they carry the pre-receive virtual time.
        self.charge.recv(&self.wire, msg.src == self.rank, &msg.env);
        self.obs_sync();
        *msg.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
            panic!(
                "mpisim: type mismatch receiving (src={src}, comm={comm_id}, tag={tag}) at rank {}",
                self.rank
            )
        })
    }

    /// Set the step index used by step-indexed faults (crash schedules,
    /// straggler windows). Step drivers call this once per step; a
    /// plan-less context ignores it.
    pub fn set_fault_step(&mut self, step: u64) {
        if let Some(f) = &mut self.charge.faults {
            f.step = step;
        }
    }

    /// Fire this rank's crash scheduled for the current fault step, at
    /// most once per plan entry. Always false without a plan.
    pub fn take_crash(&mut self) -> bool {
        let rank = self.rank;
        match &mut self.charge.faults {
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
    pub fn fault_stats(&self) -> FaultStats {
        self.charge
            .faults
            .as_ref()
            .map(|f| f.stats)
            .unwrap_or_default()
    }

    /// The fault plan this world was built with, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.charge.faults.as_ref().map(|f| f.plan.as_ref())
    }

    /// Pull messages from the mailbox until one matches, stashing the
    /// rest. Out-of-order arrival is therefore harmless, like MPI's
    /// matching rules, and the stash keeps arrival order, so messages
    /// with one `(source, tag)` are received in the order they were sent
    /// (MPI's non-overtaking rule).
    fn take_matching(&mut self, src: usize, comm_id: u64, tag: u64) -> Message {
        if let Some(i) = self
            .pending
            .iter()
            .position(|m| m.src == src && m.comm_id == comm_id && m.tag == tag)
        {
            return self.pending.remove(i);
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
