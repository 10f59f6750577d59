//! Communicators and collective operations.
//!
//! GreeM's PM pipeline is structured entirely around communicators made
//! with `MPI_Comm_split` (§II-B): `COMM_FFT` (the ranks that run the
//! slab FFT), `COMM_SMALLA2A` (each relay group, for the group-local
//! `Alltoallv`) and `COMM_REDUCE` (one rank per group holding the same
//! slab, for the over-groups `Reduce`/`Bcast`). [`Comm::split`]
//! reproduces the same semantics: ranks passing the same `color` end up
//! in one sub-communicator, ordered by `key` (ties broken by parent
//! rank).
//!
//! Collectives use the algorithms real MPI implementations use at these
//! scales — binomial trees for `bcast`/`reduce`/`barrier`, linear
//! fan-in for `gather` (small-message `Gatherv`), Bruck-style
//! dissemination for `allgather`, pairwise exchange for `alltoallv` — so
//! the simulated network sees a realistic message pattern, which is the
//! whole point: the relay-mesh experiment is *about* those patterns.
//!
//! Each pattern is defined once, in `sched`: a per-rank list of
//! send/receive edges. The threaded collectives below walk that list
//! moving real payloads; the phantom engine (see [`crate::script`] and
//! DESIGN.md §16) walks the same list with payloads elided. Both charge
//! every edge through the one per-rank wire charge, so their
//! virtual clocks agree bit for bit by construction;
//! `tests/clock_golden.rs` pins those bits.

use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::ctx::Ctx;
use sched::Act;

/// Reserved tag space for collectives (top bit set).
const COLL_TAG_BASE: u64 = 1 << 63;

/// Operation codes mixed into collective tags so different collectives
/// never match each other's messages even at the same sequence number.
#[derive(Clone, Copy)]
enum CollOp {
    Barrier = 1,
    Bcast = 2,
    Reduce = 3,
    Gather = 4,
    AllToAll = 5,
    Split = 6,
    AllGather = 7,
}

/// A communicator: an ordered subset of world ranks, with this rank's
/// position in it. Cheap to clone.
///
/// All collective methods must be called by **every** member of the
/// communicator, in the same order — the usual SPMD contract. Tags are
/// sequenced per communicator so back-to-back collectives cannot
/// cross-match.
#[derive(Debug, Clone)]
pub struct Comm {
    id: u64,
    /// Global rank of each member, indexed by local rank.
    ranks: Arc<Vec<usize>>,
    /// This rank's local rank within the communicator.
    my_rank: usize,
    /// Per-rank collective sequence counter (program order).
    seq: Cell<u64>,
}

impl Comm {
    /// The world communicator for a world of `n` ranks.
    pub(crate) fn world(n: usize, my_global: usize) -> Comm {
        Comm {
            id: 0,
            ranks: Arc::new((0..n).collect()),
            my_rank: my_global,
            seq: Cell::new(0),
        }
    }

    /// A communicator over an explicit member list with a caller-chosen
    /// id. Used by the script runtime, which derives group membership
    /// and ids deterministically on every rank (no `split` traffic);
    /// the id space must not collide with `split`'s counter.
    pub(crate) fn subset(id: u64, ranks: Arc<Vec<usize>>, my_rank: usize) -> Comm {
        debug_assert!(my_rank < ranks.len());
        Comm {
            id,
            ranks,
            my_rank,
            seq: Cell::new(0),
        }
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// This rank's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Global (world) rank of local rank `r`.
    pub fn global_rank(&self, r: usize) -> usize {
        self.ranks[r]
    }

    /// All members' global ranks, in local-rank order.
    pub fn members(&self) -> &[usize] {
        &self.ranks
    }

    fn next_tag(&self, op: CollOp) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        COLL_TAG_BASE | (s << 8) | op as u64
    }

    /// This rank's edge schedule for one collective, from one of the
    /// [`sched`] functions: the only definition of each pattern.
    fn schedule(&self, emit: impl FnOnce(usize, usize, &mut Vec<Act>)) -> Vec<Act> {
        let mut acts = Vec::new();
        emit(self.size(), self.my_rank, &mut acts);
        acts
    }

    fn send_to<T: Send + 'static>(&self, ctx: &mut Ctx, peer: u32, tag: u64, data: Vec<T>) {
        ctx.send_raw(self.ranks[peer as usize], self.id, tag, data);
    }

    fn recv_from<T: Send + 'static>(&self, ctx: &mut Ctx, peer: u32, tag: u64) -> Vec<T> {
        ctx.recv_raw(self.ranks[peer as usize], self.id, tag)
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send `data` to local rank `dest` with a user `tag` (< 2⁶³).
    pub fn send<T: Send + 'static>(&self, ctx: &mut Ctx, dest: usize, tag: u64, data: Vec<T>) {
        debug_assert!(tag < COLL_TAG_BASE, "user tags must not set the top bit");
        ctx.send_raw(self.ranks[dest], self.id, tag, data);
    }

    /// Blocking receive from local rank `src` with matching `tag`.
    pub fn recv<T: Send + 'static>(&self, ctx: &mut Ctx, src: usize, tag: u64) -> Vec<T> {
        debug_assert!(tag < COLL_TAG_BASE, "user tags must not set the top bit");
        ctx.recv_raw(self.ranks[src], self.id, tag)
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Run collective body `f` inside a `comm` tracing span that records
    /// this rank's traffic delta (bytes/hops/messages) as span args. A
    /// cheap passthrough while recording is disabled.
    fn traced<R>(
        &self,
        ctx: &mut Ctx,
        name: &'static str,
        f: impl FnOnce(&Self, &mut Ctx) -> R,
    ) -> R {
        if greem_obs::trace::is_enabled() {
            let before = ctx.comm_stats();
            let mut span = greem_obs::trace::span("comm", name);
            let out = f(self, ctx);
            let after = ctx.comm_stats();
            span.arg("bytes_sent", (after.bytes_sent - before.bytes_sent) as f64);
            span.arg(
                "bytes_received",
                (after.bytes_received - before.bytes_received) as f64,
            );
            span.arg("hops", (after.hops_sent - before.hops_sent) as f64);
            span.arg(
                "messages",
                (after.messages_sent - before.messages_sent) as f64,
            );
            return out;
        }
        f(self, ctx)
    }

    /// Synchronise all members: binomial fan-in to local rank 0, then a
    /// binomial broadcast back. No member leaves before every member has
    /// arrived.
    pub fn barrier(&self, ctx: &mut Ctx) {
        self.traced(ctx, "barrier", Self::barrier_impl);
    }

    fn barrier_impl(&self, ctx: &mut Ctx) {
        let tag = self.next_tag(CollOp::Barrier);
        for act in self.schedule(sched::barrier) {
            match act {
                Act::Send { peer, .. } => self.send_to::<u8>(ctx, peer, tag, Vec::new()),
                Act::Recv { peer } => drop(self.recv_from::<u8>(ctx, peer, tag)),
            }
        }
    }

    /// Broadcast `data` from local rank `root` to every member. Non-root
    /// ranks pass `None` (their argument is ignored); every rank returns
    /// the broadcast vector. Binomial tree, like `MPI_Bcast`.
    pub fn bcast<T: Clone + Send + 'static>(
        &self,
        ctx: &mut Ctx,
        root: usize,
        data: Option<Vec<T>>,
    ) -> Vec<T> {
        self.traced(ctx, "bcast", move |c, ctx| c.bcast_impl(ctx, root, data))
    }

    fn bcast_impl<T: Clone + Send + 'static>(
        &self,
        ctx: &mut Ctx,
        root: usize,
        data: Option<Vec<T>>,
    ) -> Vec<T> {
        let tag = self.next_tag(CollOp::Bcast);
        // A non-root receives from its parent before it forwards.
        let mut buf = if self.my_rank == root {
            data.expect("bcast root must supply data")
        } else {
            Vec::new()
        };
        for act in self.schedule(|p, r, out| sched::bcast(p, r, root, 0, out)) {
            match act {
                Act::Recv { peer } => buf = self.recv_from(ctx, peer, tag),
                Act::Send { peer, .. } => self.send_to(ctx, peer, tag, buf.clone()),
            }
        }
        buf
    }

    /// Element-wise reduction to local rank `root` over equal-length
    /// vectors; `op(acc, x)` folds a remote element into the local
    /// accumulator. Returns `Some(result)` on the root, `None` elsewhere.
    /// Binomial fan-in, like `MPI_Reduce`.
    pub fn reduce<T, F>(&self, ctx: &mut Ctx, root: usize, local: Vec<T>, op: F) -> Option<Vec<T>>
    where
        T: Clone + Send + 'static,
        F: Fn(&mut T, &T),
    {
        self.traced(ctx, "reduce", move |c, ctx| {
            c.reduce_impl(ctx, root, local, op)
        })
    }

    fn reduce_impl<T, F>(&self, ctx: &mut Ctx, root: usize, local: Vec<T>, op: F) -> Option<Vec<T>>
    where
        T: Clone + Send + 'static,
        F: Fn(&mut T, &T),
    {
        let tag = self.next_tag(CollOp::Reduce);
        let mut acc = local;
        for act in self.schedule(|p, r, out| sched::reduce(p, r, root, 0, out)) {
            match act {
                Act::Recv { peer } => {
                    let other = self.recv_from::<T>(ctx, peer, tag);
                    assert_eq!(acc.len(), other.len(), "reduce: length mismatch");
                    for (a, b) in acc.iter_mut().zip(other.iter()) {
                        op(a, b);
                    }
                }
                Act::Send { peer, .. } => self.send_to(ctx, peer, tag, std::mem::take(&mut acc)),
            }
        }
        (self.my_rank == root).then_some(acc)
    }

    /// Reduce to local rank 0 then broadcast: every member returns the
    /// reduced vector.
    pub fn allreduce<T, F>(&self, ctx: &mut Ctx, local: Vec<T>, op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&mut T, &T),
    {
        self.traced(ctx, "allreduce", move |c, ctx| {
            let reduced = c.reduce(ctx, 0, local, op);
            c.bcast(ctx, 0, reduced)
        })
    }

    /// Gather every member's vector at local rank `root` (linear fan-in,
    /// like small-message `MPI_Gatherv`). Root returns `Some(vec of
    /// per-rank vectors)` in local-rank order.
    pub fn gather<T: Send + 'static>(
        &self,
        ctx: &mut Ctx,
        root: usize,
        local: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        self.traced(ctx, "gather", move |c, ctx| c.gather_impl(ctx, root, local))
    }

    fn gather_impl<T: Send + 'static>(
        &self,
        ctx: &mut Ctx,
        root: usize,
        mut local: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        let tag = self.next_tag(CollOp::Gather);
        let mut out = Vec::new();
        for act in self.schedule(|p, r, out| sched::gather(p, r, root, &|_| 0, out)) {
            match act {
                Act::Send { peer, .. } => self.send_to(ctx, peer, tag, std::mem::take(&mut local)),
                Act::Recv { peer } => out.push(self.recv_from(ctx, peer, tag)),
            }
        }
        // The root received every other rank's vector in rank order.
        (self.my_rank == root).then(|| {
            out.insert(root, local);
            out
        })
    }

    /// Gather every member's vector at every member (local-rank order).
    /// Bruck-style dissemination: ⌈log₂ p⌉ rounds in which each rank
    /// ships its accumulated run of blocks `have` ranks downward and
    /// doubles it, so no rank — in particular not local rank 0 —
    /// serialises O(p) receives the way the rooted [`Comm::gather`]
    /// does. Ragged blocks are handled with a small length header
    /// preceding each round's concatenated payload.
    pub fn allgather<T: Clone + Send + 'static>(
        &self,
        ctx: &mut Ctx,
        local: Vec<T>,
    ) -> Vec<Vec<T>> {
        self.traced(ctx, "allgather", move |c, ctx| c.allgather_impl(ctx, local))
    }

    fn allgather_impl<T: Clone + Send + 'static>(
        &self,
        ctx: &mut Ctx,
        local: Vec<T>,
    ) -> Vec<Vec<T>> {
        let tag = self.next_tag(CollOp::AllGather);
        let (p, r) = (self.size(), self.my_rank);
        // blocks[j] holds the vector of local rank (r + j) % p.
        let mut blocks: Vec<Vec<T>> = Vec::with_capacity(p);
        blocks.push(local);
        let acts = self.schedule(|p, r, out| sched::allgather(p, r, &|_| 0, out));
        // Each round ships our first `cnt` blocks — a length header of
        // 8 bytes per block, then their concatenation — and appends the
        // `cnt` blocks that arrive the same way.
        for round in acts.chunks_exact(4) {
            let [Act::Send { peer: dst, bytes }, _, Act::Recv { peer: src }, _] = *round else {
                unreachable!("allgather: a Bruck round is two sends then two receives")
            };
            let cnt = bytes as usize / 8;
            let lens: Vec<u64> = blocks[..cnt].iter().map(|b| b.len() as u64).collect();
            let data: Vec<T> = blocks[..cnt].iter().flatten().cloned().collect();
            self.send_to(ctx, dst, tag, lens);
            self.send_to(ctx, dst, tag, data);
            let lens = self.recv_from::<u64>(ctx, src, tag);
            let mut data = self.recv_from::<T>(ctx, src, tag).into_iter();
            for len in lens {
                blocks.push(data.by_ref().take(len as usize).collect());
            }
            debug_assert!(data.next().is_none(), "allgather: header/data mismatch");
        }
        debug_assert_eq!(blocks.len(), p);
        // Rotate back into local-rank order: blocks[j] is rank (r+j)%p.
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        for (j, b) in blocks.into_iter().enumerate() {
            out[(r + j) % p] = b;
        }
        out
    }

    /// Personalised all-to-all with per-destination vectors
    /// (`MPI_Alltoallv`): `send[i]` goes to local rank `i`; the return's
    /// `out[i]` is what local rank `i` sent here. Pairwise exchange
    /// schedule (round `k`: send to `me+k`, receive from `me−k`).
    pub fn alltoallv<T: Send + 'static>(&self, ctx: &mut Ctx, send: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.traced(ctx, "alltoallv", move |c, ctx| c.alltoallv_impl(ctx, send))
    }

    fn alltoallv_impl<T: Send + 'static>(&self, ctx: &mut Ctx, send: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(
            send.len(),
            self.size(),
            "alltoallv: need one buffer per rank"
        );
        let tag = self.next_tag(CollOp::AllToAll);
        let p = self.size();
        let r = self.my_rank;
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        let mut send: Vec<Option<Vec<T>>> = send.into_iter().map(Some).collect();
        for k in 0..p {
            let dst = (r + k) % p;
            let buf = send[dst].take().expect("alltoallv buffer used twice");
            ctx.send_raw(self.ranks[dst], self.id, tag, buf);
        }
        for k in 0..p {
            let src = (r + p - k) % p;
            out[src] = ctx.recv_raw::<T>(self.ranks[src], self.id, tag);
        }
        out
    }

    /// Split into sub-communicators by `color`; members with equal color
    /// form one new communicator, ordered by `(key, parent rank)` — the
    /// semantics of `MPI_Comm_split`.
    pub fn split(&self, ctx: &mut Ctx, color: u64, key: u64) -> Comm {
        self.traced(ctx, "split", move |c, ctx| c.split_impl(ctx, color, key))
    }

    fn split_impl(&self, ctx: &mut Ctx, color: u64, key: u64) -> Comm {
        // Gather (color, key, my_rank) at local rank 0, which answers
        // each member with its assignment: (comm_id, my_local_rank,
        // members…).
        let entries = self.gather_impl(ctx, 0, vec![(color, key, self.my_rank)]);
        let tag = self.next_tag(CollOp::Split);
        let Some(entries) = entries.map(|e| e.concat()) else {
            return Self::unpack_split(ctx.recv_raw::<u64>(self.ranks[0], self.id, tag));
        };
        // Group by color.
        let mut colors: Vec<u64> = entries.iter().map(|e| e.0).collect();
        colors.sort_unstable();
        colors.dedup();
        let mut my_pack: Option<Vec<u64>> = None;
        for c in colors {
            let mut members: Vec<(u64, usize)> = entries
                .iter()
                .filter(|e| e.0 == c)
                .map(|e| (e.1, e.2))
                .collect();
            members.sort_unstable();
            let new_id = ctx.comm_counter.fetch_add(1, Ordering::Relaxed);
            let member_globals: Vec<u64> =
                members.iter().map(|&(_, r)| self.ranks[r] as u64).collect();
            for (local, &(_, parent_rank)) in members.iter().enumerate() {
                let mut pack = vec![new_id, local as u64];
                pack.extend(member_globals.iter().copied());
                if parent_rank == 0 {
                    my_pack = Some(pack);
                } else {
                    ctx.send_raw(self.ranks[parent_rank], self.id, tag, pack);
                }
            }
        }
        Self::unpack_split(my_pack.expect("split root not a member of any group"))
    }

    fn unpack_split(data: Vec<u64>) -> Comm {
        let id = data[0];
        let my_rank = data[1] as usize;
        let ranks: Vec<usize> = data[2..].iter().map(|&g| g as usize).collect();
        Comm {
            id,
            ranks: Arc::new(ranks),
            my_rank,
            seq: Cell::new(0),
        }
    }
}

/// Highest set bit of a nonzero integer.
#[inline]
fn highest_bit(x: usize) -> usize {
    debug_assert!(x > 0);
    1 << (usize::BITS - 1 - x.leading_zeros())
}

/// Per-rank edge schedules of the collectives: the one definition of
/// each message pattern.
///
/// Each function emits, for one local rank, its sequence of sends and
/// receives, in program order. The threaded [`Comm`] methods walk it
/// with real payloads (and ignore `bytes`); the phantom engine
/// (`crate::engine`) walks it with size-only messages, so a
/// phantom-only subtree of a binomial collective costs O(edges) host
/// work instead of O(ranks) threads.
pub(crate) mod sched {
    use super::highest_bit;

    /// One edge action, from one rank's point of view. Peers are local
    /// ranks; `bytes` is the modelled payload size of the send (the
    /// receive side takes its size from the matched message).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Act {
        Send { peer: u32, bytes: u64 },
        Recv { peer: u32 },
    }

    fn send(peer: usize, bytes: u64) -> Act {
        Act::Send {
            peer: peer as u32,
            bytes,
        }
    }

    fn recv(peer: usize) -> Act {
        Act::Recv { peer: peer as u32 }
    }

    /// `barrier`: the binomial fan-in of an empty [`reduce`] to local
    /// rank 0, then an empty [`bcast`] from it. A rank receives from its
    /// parent before it forwards, so none leaves before the last has
    /// entered.
    pub(crate) fn barrier(p: usize, r: usize, out: &mut Vec<Act>) {
        reduce(p, r, 0, 0, out);
        bcast(p, r, 0, 0, out);
    }

    /// Binomial broadcast from local rank `root`; every forwarded
    /// message carries the root's payload size.
    pub(crate) fn bcast(p: usize, r: usize, root: usize, root_bytes: u64, out: &mut Vec<Act>) {
        let rel = (r + p - root) % p;
        if rel != 0 {
            out.push(recv((rel - highest_bit(rel) + root) % p));
        }
        let mut k = if rel == 0 { 1 } else { highest_bit(rel) << 1 };
        while rel + k < p {
            out.push(send((rel + k + root) % p, root_bytes));
            k <<= 1;
        }
    }

    /// Binomial reduction to local rank `root`; each rank forwards its
    /// accumulator, whose size never changes (`my_bytes`).
    pub(crate) fn reduce(p: usize, r: usize, root: usize, my_bytes: u64, out: &mut Vec<Act>) {
        let rel = (r + p - root) % p;
        let mut k = 1;
        while k < p {
            if rel & k != 0 {
                out.push(send((rel - k + root) % p, my_bytes));
                return;
            } else if rel + k < p {
                out.push(recv((rel + k + root) % p));
            }
            k <<= 1;
        }
    }

    /// Linear fan-in to local rank `root` (the rooted `gather` stays
    /// root-serialised by design — it models small-message `Gatherv`).
    pub(crate) fn gather(
        p: usize,
        r: usize,
        root: usize,
        bytes_of: &dyn Fn(usize) -> u64,
        out: &mut Vec<Act>,
    ) {
        if r != root {
            out.push(send(root, bytes_of(r)));
            return;
        }
        out.extend((0..p).filter(|&src| src != root).map(recv));
    }

    /// Bruck dissemination `allgather`: each round ships the first
    /// `cnt` blocks `have` ranks downward as a length header (8 bytes
    /// per block) plus the concatenated block payload, and receives the
    /// same pair from `have` ranks upward.
    pub(crate) fn allgather(
        p: usize,
        r: usize,
        bytes_of: &dyn Fn(usize) -> u64,
        out: &mut Vec<Act>,
    ) {
        let mut have = 1;
        while have < p {
            let cnt = have.min(p - have);
            let (dst, src) = ((r + p - have) % p, (r + have) % p);
            let data: u64 = (0..cnt).map(|j| bytes_of((r + j) % p)).sum();
            out.extend([
                send(dst, 8 * cnt as u64),
                send(dst, data),
                recv(src),
                recv(src),
            ]);
            have += cnt;
        }
    }
}
