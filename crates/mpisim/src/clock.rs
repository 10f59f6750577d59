//! The per-rank virtual clock and wire charge, shared by both execution
//! modes.
//!
//! All virtual-time arithmetic — compute charges, injection-port
//! serialisation on send, drain-port serialisation on receive — lives in
//! [`RankClock`], and all per-message bookkeeping around it — traffic
//! counters, hop count, the seeded fault draw and its charge, straggler
//! scaling — in [`RankWire`]. The thread-per-rank runtime
//! ([`crate::World::run`]) holds one [`RankWire`] per rank thread and
//! the single-threaded phantom engine ([`crate::World::run_script`] with
//! phantoms) one per simulated rank, so both execute *the same
//! floating-point operations in the same order*: there is one charge,
//! not two kept in step. `tests/clock_golden.rs` pins its bits; see
//! DESIGN.md §16.

use crate::ctx::CommStats;
use crate::fault::{FaultCtx, MsgFault};
use crate::netmodel::NetModel;
use crate::topology::Torus3d;

/// A rank's virtual clock plus its two network-port occupancy times.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct RankClock {
    /// The rank's virtual clock, in simulated seconds.
    pub vtime: f64,
    /// Virtual time until which the injection (send) port is busy.
    pub inject_free: f64,
    /// Virtual time until which the drain (receive) port is busy.
    pub port_free: f64,
}

impl RankClock {
    /// Advance the clock by `seconds` of modelled computation.
    #[inline]
    pub fn compute(&mut self, seconds: f64) {
        self.vtime += seconds;
    }

    /// Force the clock to at least `t` (used by receives).
    #[inline]
    pub fn advance_to(&mut self, t: f64) {
        if t > self.vtime {
            self.vtime = t;
        }
    }

    /// Charge a self-send (pure memcpy, bypasses the NIC) and return the
    /// payload's ready time.
    #[inline]
    pub fn charge_self_send(&mut self, net: &NetModel, bytes: usize) -> f64 {
        self.vtime += net.self_time(bytes);
        self.vtime
    }

    /// Charge a remote send: serialise on the injection port, pay the
    /// per-message overhead, and return the wire time (`send_ready`).
    #[inline]
    pub fn charge_send(&mut self, net: &NetModel, bytes: usize) -> f64 {
        let send_ready = self.vtime.max(self.inject_free);
        self.inject_free = send_ready + net.inject_time(bytes);
        self.vtime = send_ready + net.send_overhead;
        send_ready
    }

    /// Charge a remote receive whose message arrived at `arrival`
    /// (sender's `send_ready` + hop latency + any injected fault cost):
    /// serialise on the drain port and advance the clock past the drain.
    #[inline]
    pub fn charge_recv(&mut self, net: &NetModel, arrival: f64, bytes: usize) {
        let start = self.port_free.max(arrival);
        let done = start + net.drain_time(bytes);
        self.port_free = done;
        self.advance_to(done);
    }
}

/// What every rank of a world is charged against: the network model,
/// the torus, and whether fault charges emit `fault.*` trace instants
/// (rank threads do; the phantom engine runs on the caller's thread,
/// whose tracer clock is not a rank's, and does not).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wire {
    pub net: NetModel,
    pub topo: Torus3d,
    pub trace: bool,
}

/// A message's size-only record: all the receiver's charge needs, and
/// all the phantom engine keeps of a message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Envelope {
    /// Sender's virtual time at which the message hit the wire.
    pub send_ready: f64,
    pub bytes: usize,
    pub hops: usize,
    /// Injected fault, drawn deterministically by the sender and paid
    /// for (in virtual time) by the receiver.
    pub fault: MsgFault,
}

/// One rank's wire charge: its clock, its traffic counters and, under a
/// fault plan that can fire, its fault bookkeeping. Every message and
/// every compute interval of either execution mode is charged here.
#[derive(Default)]
pub(crate) struct RankWire {
    pub clock: RankClock,
    pub stats: CommStats,
    /// `None` costs one branch per charge and is all a fault-free rank
    /// pays.
    pub faults: Option<Box<FaultCtx>>,
}

impl RankWire {
    /// Charge rank `me`'s send of `bytes` to rank `dst` and return the
    /// message's envelope. A self-send is a memcpy that bypasses the
    /// NIC; a remote send serialises on the injection port and draws
    /// its fault from the plan — at send time, so the schedule is a
    /// pure function of the seed and each sender's program order.
    pub fn send(&mut self, wire: &Wire, me: usize, dst: usize, bytes: usize) -> Envelope {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        if dst == me {
            return Envelope {
                send_ready: self.clock.charge_self_send(&wire.net, bytes),
                bytes,
                hops: 0,
                fault: MsgFault::default(),
            };
        }
        let send_ready = self.clock.charge_send(&wire.net, bytes);
        let hops = wire.topo.hops(me, dst);
        self.stats.hops_sent += hops as u64;
        Envelope {
            send_ready,
            bytes,
            hops,
            fault: match &mut self.faults {
                Some(f) => f.next_msg_fault(me, dst),
                None => MsgFault::default(),
            },
        }
    }

    /// Charge the receipt of `env`. A self-send is ready at its
    /// `send_ready`; a remote message arrives at `send_ready` + hop
    /// latency + its fault cost, then drains through this rank's port.
    pub fn recv(&mut self, wire: &Wire, from_self: bool, env: &Envelope) {
        if from_self {
            self.clock.advance_to(env.send_ready);
        } else {
            let mut arrival = env.send_ready + wire.net.latency(env.hops);
            if !env.fault.is_clean() {
                arrival += self
                    .faults
                    .as_mut()
                    .expect("mpisim: faulty message received but no plan attached")
                    .apply_msg_fault(&env.fault, wire.trace);
            }
            self.clock.charge_recv(&wire.net, arrival, env.bytes);
        }
        self.stats.messages_received += 1;
        self.stats.bytes_received += env.bytes as u64;
    }

    /// Charge `seconds` of rank `me`'s modelled computation, scaled up
    /// on a straggler.
    pub fn compute(&mut self, me: usize, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        let seconds = match &mut self.faults {
            Some(f) => f.straggle(me, seconds),
            None => seconds,
        };
        self.clock.compute(seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_serialises_on_inject_port() {
        let net = NetModel::k_computer();
        let mut c = RankClock::default();
        let r0 = c.charge_send(&net, 1 << 20);
        let r1 = c.charge_send(&net, 1 << 20);
        assert_eq!(r0, 0.0);
        // Second send must wait for the first's injection to finish.
        assert_eq!(r1, net.inject_time(1 << 20));
        assert!(c.inject_free > c.vtime, "inject port outlives the overhead");
    }

    #[test]
    fn recv_serialises_on_drain_port() {
        let net = NetModel::k_computer();
        let mut c = RankClock::default();
        c.charge_recv(&net, 1.0, 1 << 20);
        let after_one = c.vtime;
        // A message that "arrived" long ago still queues behind the port.
        c.charge_recv(&net, 0.0, 1 << 20);
        assert_eq!(c.vtime, after_one + net.drain_time(1 << 20));
    }

    #[test]
    fn advance_never_rewinds() {
        let mut c = RankClock::default();
        c.compute(2.0);
        c.advance_to(1.0);
        assert_eq!(c.vtime, 2.0);
        c.advance_to(3.0);
        assert_eq!(c.vtime, 3.0);
    }
}
