//! The phantom engine: event-driven execution of a [`Script`] over a
//! single host thread.
//!
//! Full-thread mode spends one OS thread, one mailbox and real payload
//! buffers per rank — fine at p ≤ 64, hopeless at the paper's 82944.
//! This engine keeps only a [`RankWire`] per rank and *replays* the
//! script: compute ops are a loop over all ranks; collectives walk the
//! edge schedules of [`crate::comm::sched`] — the ones the threaded
//! collectives walk — through a run-to-blocking-recv event loop, in
//! which a rank executes its actions until it needs a message that has
//! not been sent yet, parks on that edge, and is rescheduled by the
//! send. Host work is O(total edges) — for binomial collectives
//! O(active ranks · log p) — and messages are size-only [`Envelope`]s,
//! payloads elided.
//!
//! Every charge goes through the same [`RankWire`] methods as the
//! threaded runtime, seeded fault draws included, and per-rank program
//! order is preserved (the event loop only ever *delays* a rank, never
//! reorders its own actions), so the resulting timelines are bitwise
//! identical to full-thread mode — see `tests/phantom_equivalence.rs`,
//! `tests/clock_golden.rs` and DESIGN.md §16. Per-rank fault state is
//! allocated only when the plan can actually fire (no per-phantom
//! allocation on a quiet plan).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use crate::clock::{Envelope, RankWire, Wire};
use crate::comm::sched::{self, Act};
use crate::fault::{FaultCtx, FaultPlan};
use crate::script::{
    self, CollKind, EngineReport, RankBytes, RankTimeline, Scope, Script, ScriptOp, ScriptOutcome,
};

/// Directed-edge key (local src, local dst) within one group.
#[inline]
fn edge(src: u32, dst: u32) -> u64 {
    ((src as u64) << 32) | dst as u64
}

pub(crate) struct Engine {
    wire: Wire,
    /// Every rank's charge; fault state only when the plan can fire.
    ranks: Vec<RankWire>,
    // Reusable per-collective scratch.
    acts: Vec<Act>,
    offsets: Vec<u32>,
    pc: Vec<u32>,
    runnable: Vec<u32>,
    mailbox: HashMap<u64, VecDeque<Envelope>>,
    waiting: HashMap<u64, ()>,
    messages: u64,
    suspensions: u64,
}

impl Engine {
    pub(crate) fn new(n: usize, wire: Wire, plan: Option<Arc<FaultPlan>>) -> Self {
        let plan = plan.filter(|p| p.has_msg_faults() || p.has_stragglers());
        Engine {
            wire,
            ranks: (0..n)
                .map(|_| RankWire {
                    faults: plan.clone().map(|p| Box::new(FaultCtx::new(p))),
                    ..Default::default()
                })
                .collect(),
            acts: Vec::new(),
            offsets: Vec::new(),
            pc: Vec::new(),
            runnable: Vec::new(),
            mailbox: HashMap::new(),
            waiting: HashMap::new(),
            messages: 0,
            suspensions: 0,
        }
    }

    pub(crate) fn run(mut self, script: &Script, reps: &[usize]) -> ScriptOutcome {
        let t0 = Instant::now();
        let n = self.ranks.len();
        let np = script.phases.len();
        let mut phase_v = vec![0.0f64; n * np];
        let mut prev = vec![0.0f64; n];
        let world_members: Vec<u32> = (0..n as u32).collect();
        let mut members: Vec<u32> = Vec::new();
        for (i, op) in script.ops.iter().enumerate() {
            let pi = script.op_phase[i];
            if pi != usize::MAX {
                for (p, w) in prev.iter_mut().zip(&self.ranks) {
                    *p = w.clock.vtime;
                }
            }
            match op {
                ScriptOp::SetStep(step) => {
                    for f in self.ranks.iter_mut().filter_map(|w| w.faults.as_mut()) {
                        f.step = *step;
                    }
                }
                ScriptOp::Compute { seconds, work } => {
                    for (r, w) in self.ranks.iter_mut().enumerate() {
                        w.compute(r, seconds(r));
                    }
                    if let Some(w) = work {
                        for &r in reps {
                            w(r);
                        }
                    }
                }
                ScriptOp::Collective { kind, bytes, scope } => match scope {
                    Scope::World => self.run_group(&world_members, *kind, bytes),
                    Scope::Groups(color) => {
                        let groups = script::partition(n, color);
                        for g in groups.chunk_by(|a, b| a.0 == b.0) {
                            members.clear();
                            members.extend(g.iter().map(|&(_, r)| r));
                            self.run_group(&members, *kind, bytes);
                        }
                    }
                },
            }
            if pi != usize::MAX {
                for r in 0..n {
                    phase_v[r * np + pi] += self.ranks[r].clock.vtime - prev[r];
                }
            }
        }
        let engine = EngineReport {
            ranks: n,
            representatives: reps.len(),
            messages: self.messages,
            suspensions: self.suspensions,
            wall_s: t0.elapsed().as_secs_f64(),
        };
        let timelines = (self.ranks.iter().enumerate())
            .map(|(r, w)| RankTimeline {
                vtime: w.clock.vtime,
                stats: w.stats,
                fault_stats: w.faults.as_ref().map(|f| f.stats).unwrap_or_default(),
                phase_vtime: phase_v[r * np..(r + 1) * np].to_vec(),
            })
            .collect();
        ScriptOutcome {
            phases: script.phases.clone(),
            timelines,
            engine: Some(engine),
        }
    }

    /// Execute one collective over one group via the event loop.
    fn run_group(&mut self, members: &[u32], kind: CollKind, bytes: &RankBytes) {
        let g = members.len();
        if g <= 1 {
            // Degenerate collectives move no messages and, like the
            // threaded implementations, leave the clock untouched.
            return;
        }
        // Materialise each member's action schedule.
        self.acts.clear();
        self.offsets.clear();
        let bytes_of = |l: usize| bytes(members[l] as usize) as u64;
        for (local, _) in members.iter().enumerate() {
            self.offsets.push(self.acts.len() as u32);
            match kind {
                CollKind::Barrier => sched::barrier(g, local, &mut self.acts),
                CollKind::Bcast { root } => {
                    sched::bcast(g, local, root, bytes_of(root), &mut self.acts)
                }
                CollKind::Reduce { root } => {
                    sched::reduce(g, local, root, bytes_of(local), &mut self.acts)
                }
                CollKind::Allreduce => {
                    sched::reduce(g, local, 0, bytes_of(local), &mut self.acts);
                    sched::bcast(g, local, 0, bytes_of(0), &mut self.acts);
                }
                CollKind::Gather { root } => {
                    sched::gather(g, local, root, &bytes_of, &mut self.acts)
                }
                CollKind::Allgather => sched::allgather(g, local, &bytes_of, &mut self.acts),
            }
        }
        self.offsets.push(self.acts.len() as u32);

        // Run every rank to its next blocking receive; senders wake
        // parked receivers. Valid schedules always drain.
        self.pc.clear();
        self.pc.extend(self.offsets[..g].iter().copied());
        self.runnable.clear();
        self.runnable.extend((0..g as u32).rev());
        self.mailbox.clear();
        self.waiting.clear();
        while let Some(l) = self.runnable.pop() {
            let me = members[l as usize] as usize;
            let end = self.offsets[l as usize + 1];
            while self.pc[l as usize] < end {
                match self.acts[self.pc[l as usize] as usize] {
                    Act::Send { peer, bytes } => {
                        let dst = members[peer as usize] as usize;
                        let env = self.ranks[me].send(&self.wire, me, dst, bytes as usize);
                        self.messages += 1;
                        self.mailbox
                            .entry(edge(l, peer))
                            .or_default()
                            .push_back(env);
                        self.pc[l as usize] += 1;
                        if self.waiting.remove(&edge(l, peer)).is_some() {
                            self.runnable.push(peer);
                        }
                    }
                    Act::Recv { peer } => {
                        let key = edge(peer, l);
                        match self.mailbox.get_mut(&key).and_then(|q| q.pop_front()) {
                            Some(env) => {
                                self.ranks[me].recv(&self.wire, false, &env);
                                self.pc[l as usize] += 1;
                            }
                            None => {
                                self.waiting.insert(key, ());
                                self.suspensions += 1;
                                break;
                            }
                        }
                    }
                }
            }
        }
        debug_assert!(
            (0..g).all(|l| self.pc[l] == self.offsets[l + 1]),
            "phantom engine: collective deadlocked (schedule bug)"
        );
    }
}
