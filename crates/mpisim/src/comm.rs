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
//! The phantom engine (see [`crate::script`] and DESIGN.md §16) replays
//! the same edge patterns without payloads; its per-rank schedules live
//! in [`sched`] at the bottom of this file and **must** stay in
//! lockstep with the threaded implementations — the
//! `phantom_equivalence` integration tests enforce bitwise-identical
//! virtual clocks between the two.

use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::ctx::Ctx;

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

    /// Synchronise all members: binomial fan-in to local rank 0, fan-out
    /// back. On return every member's virtual clock is at least the
    /// latest pre-barrier clock plus the tree traversal cost.
    pub fn barrier(&self, ctx: &mut Ctx) {
        self.traced(ctx, "barrier", Self::barrier_impl);
    }

    fn barrier_impl(&self, ctx: &mut Ctx) {
        let tag = self.next_tag(CollOp::Barrier);
        let p = self.size();
        if p == 1 {
            return;
        }
        let r = self.my_rank;
        // Fan-in: leaves first.
        let mut k = 1;
        while k < p {
            if r & k != 0 {
                ctx.send_raw::<u8>(self.ranks[r - k], self.id, tag, Vec::new());
                break;
            } else if r + k < p {
                let _ = ctx.recv_raw::<u8>(self.ranks[r + k], self.id, tag);
            }
            k <<= 1;
        }
        // Fan-out, mirrored.
        let mut k = {
            let mut k = 1;
            while k < p {
                k <<= 1;
            }
            k >> 1
        };
        while k >= 1 {
            if r & k != 0 {
                let _ = ctx.recv_raw::<u8>(self.ranks[r - k], self.id, tag + (1 << 7));
                break;
            } else if r + k < p {
                ctx.send_raw::<u8>(self.ranks[r + k], self.id, tag + (1 << 7), Vec::new());
            }
            k >>= 1;
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
        let p = self.size();
        let rel = (self.my_rank + p - root) % p;
        let buf = if rel == 0 {
            data.expect("bcast root must supply data")
        } else {
            // Receive from the parent in the binomial tree: the sender is
            // rel - k for the highest set bit k of rel.
            let k = highest_bit(rel);
            let src = self.ranks[(rel - k + root) % p];
            ctx.recv_raw::<T>(src, self.id, tag)
        };
        // Forward to children: rel + k for k above rel's highest bit.
        let mut k = if rel == 0 { 1 } else { highest_bit(rel) << 1 };
        while rel + k < p {
            let dst = self.ranks[(rel + k + root) % p];
            ctx.send_raw(dst, self.id, tag, buf.clone());
            k <<= 1;
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
        let p = self.size();
        let rel = (self.my_rank + p - root) % p;
        let mut acc = local;
        let mut k = 1;
        while k < p {
            if rel & k != 0 {
                let dst = self.ranks[(rel - k + root) % p];
                ctx.send_raw(dst, self.id, tag, acc);
                return None;
            } else if rel + k < p {
                let src = self.ranks[(rel + k + root) % p];
                let other = ctx.recv_raw::<T>(src, self.id, tag);
                assert_eq!(acc.len(), other.len(), "reduce: length mismatch");
                for (a, b) in acc.iter_mut().zip(other.iter()) {
                    op(a, b);
                }
            }
            k <<= 1;
        }
        Some(acc)
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
        local: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        let tag = self.next_tag(CollOp::Gather);
        if self.my_rank != root {
            ctx.send_raw(self.ranks[root], self.id, tag, local);
            return None;
        }
        let mut out: Vec<Vec<T>> = Vec::with_capacity(self.size());
        let mut local = Some(local);
        for src in 0..self.size() {
            if src == root {
                out.push(local.take().expect("gather: root buffer reused"));
            } else {
                out.push(ctx.recv_raw::<T>(self.ranks[src], self.id, tag));
            }
        }
        Some(out)
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
        let p = self.size();
        let r = self.my_rank;
        // blocks[j] holds the vector of local rank (r + j) % p.
        let mut blocks: Vec<Vec<T>> = Vec::with_capacity(p);
        blocks.push(local);
        let mut have = 1;
        while have < p {
            // Ship our first `cnt` blocks `have` ranks downward; the
            // receiver appends them to its run, which grows to
            // `have + cnt`. Each (src → dst) pair occurs in exactly one
            // round, so one tag pair per round cannot cross-match.
            let cnt = have.min(p - have);
            let dst = self.ranks[(r + p - have) % p];
            let src = self.ranks[(r + have) % p];
            let header: Vec<u64> = blocks[..cnt].iter().map(|b| b.len() as u64).collect();
            ctx.send_raw(dst, self.id, tag, header);
            let data: Vec<T> = blocks[..cnt]
                .iter()
                .flat_map(|b| b.iter().cloned())
                .collect();
            ctx.send_raw(dst, self.id, tag + (1 << 7), data);
            let lens = ctx.recv_raw::<u64>(src, self.id, tag);
            let data = ctx.recv_raw::<T>(src, self.id, tag + (1 << 7));
            let mut it = data.into_iter();
            for len in lens {
                blocks.push(it.by_ref().take(len as usize).collect());
            }
            debug_assert!(it.next().is_none(), "allgather: header/data mismatch");
            have += cnt;
            debug_assert_eq!(blocks.len(), have);
        }
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
        let tag = self.next_tag(CollOp::Split);
        let root_global = self.ranks[0];
        // Gather (color, key, my_rank) at local rank 0.
        if self.my_rank != 0 {
            ctx.send_raw(root_global, self.id, tag, vec![(color, key, self.my_rank)]);
            // Receive assignment: (comm_id, my_local_rank, members…).
            let data = ctx.recv_raw::<u64>(root_global, self.id, tag + (1 << 7));
            return Self::unpack_split(data);
        }
        let mut entries: Vec<(u64, u64, usize)> = vec![(color, key, 0)];
        for src in 1..self.size() {
            entries.extend(ctx.recv_raw::<(u64, u64, usize)>(self.ranks[src], self.id, tag));
        }
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
                    ctx.send_raw(self.ranks[parent_rank], self.id, tag + (1 << 7), pack);
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

/// Analytic per-rank edge schedules of the collectives, for the phantom
/// engine (`crate::engine`).
///
/// Each function emits, for one local rank, the exact sequence of sends
/// and receives the threaded implementation above would perform —
/// payloads elided, byte counts preserved. A phantom-only subtree of a
/// binomial collective therefore costs O(edges) host work instead of
/// O(ranks) threads. **Keep these in lockstep with the threaded
/// implementations**: `tests/phantom_equivalence.rs` proves bitwise
/// clock agreement at p ≤ 64 and will catch any drift.
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

    /// Binomial fan-in to local rank 0, mirrored fan-out (`barrier`).
    pub(crate) fn barrier(p: usize, r: usize, out: &mut Vec<Act>) {
        if p == 1 {
            return;
        }
        let mut k = 1;
        while k < p {
            if r & k != 0 {
                out.push(Act::Send {
                    peer: (r - k) as u32,
                    bytes: 0,
                });
                break;
            } else if r + k < p {
                out.push(Act::Recv {
                    peer: (r + k) as u32,
                });
            }
            k <<= 1;
        }
        let mut k = {
            let mut k = 1;
            while k < p {
                k <<= 1;
            }
            k >> 1
        };
        while k >= 1 {
            if r & k != 0 {
                out.push(Act::Recv {
                    peer: (r - k) as u32,
                });
                break;
            } else if r + k < p {
                out.push(Act::Send {
                    peer: (r + k) as u32,
                    bytes: 0,
                });
            }
            k >>= 1;
        }
    }

    /// Binomial broadcast from local rank `root`; every forwarded
    /// message carries the root's payload size.
    pub(crate) fn bcast(p: usize, r: usize, root: usize, root_bytes: u64, out: &mut Vec<Act>) {
        let rel = (r + p - root) % p;
        if rel != 0 {
            let k = highest_bit(rel);
            out.push(Act::Recv {
                peer: ((rel - k + root) % p) as u32,
            });
        }
        let mut k = if rel == 0 { 1 } else { highest_bit(rel) << 1 };
        while rel + k < p {
            out.push(Act::Send {
                peer: ((rel + k + root) % p) as u32,
                bytes: root_bytes,
            });
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
                out.push(Act::Send {
                    peer: ((rel - k + root) % p) as u32,
                    bytes: my_bytes,
                });
                return;
            } else if rel + k < p {
                out.push(Act::Recv {
                    peer: ((rel + k + root) % p) as u32,
                });
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
            out.push(Act::Send {
                peer: root as u32,
                bytes: bytes_of(r),
            });
            return;
        }
        for src in 0..p {
            if src != root {
                out.push(Act::Recv { peer: src as u32 });
            }
        }
    }

    /// Bruck dissemination `allgather`: per round one length header
    /// (8 bytes per block) plus the concatenated block payload.
    pub(crate) fn allgather(
        p: usize,
        r: usize,
        bytes_of: &dyn Fn(usize) -> u64,
        out: &mut Vec<Act>,
    ) {
        let mut have = 1;
        while have < p {
            let cnt = have.min(p - have);
            let dst = ((r + p - have) % p) as u32;
            let src = ((r + have) % p) as u32;
            out.push(Act::Send {
                peer: dst,
                bytes: 8 * cnt as u64,
            });
            let data: u64 = (0..cnt).map(|j| bytes_of((r + j) % p)).sum();
            out.push(Act::Send {
                peer: dst,
                bytes: data,
            });
            out.push(Act::Recv { peer: src });
            out.push(Act::Recv { peer: src });
            have += cnt;
        }
    }
}
