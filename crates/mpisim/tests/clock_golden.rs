//! Clock golden: one FNV-1a hash per case over every rank's final
//! `vtime.to_bits()`, [`CommStats`] and [`FaultStats`], pinned to the
//! values the runtime produced before the threaded collectives and the
//! phantom engine came to share one edge schedule and one wire charge.
//! The threads-vs-phantoms equivalence test can no longer catch a drift
//! that moves both modes at once; this golden can. A change meant to
//! keep every virtual-clock bit passes it untouched. See DESIGN.md §16.

mod common;

use common::mixed_script;
use mpisim::{Comm, CommStats, Ctx, FaultPlan, FaultStats, NetModel, World};

/// World sizes of every threaded case: the degenerate trees, powers of
/// two and the awkward sizes that give lopsided binomials and ragged
/// Bruck rounds.
const SIZES: [usize; 7] = [1, 2, 3, 5, 8, 13, 16];

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn rank(&mut self, vtime: f64, s: &CommStats, f: &FaultStats) {
        self.word(vtime.to_bits());
        for w in [
            s.messages_sent,
            s.bytes_sent,
            s.messages_received,
            s.bytes_received,
            s.hops_sent,
        ] {
            self.word(w);
        }
        for w in [f.messages_dropped, f.messages_delayed, f.retries] {
            self.word(w);
        }
        for x in [f.retry_vtime, f.delay_vtime, f.straggler_vtime] {
            self.word(x.to_bits());
        }
        self.word(f.crashes_fired);
    }
}

/// Drops, delays and a straggler window that opens on step 1.
fn seeded_plan(p: usize) -> FaultPlan {
    FaultPlan::new(0x5EED_C10C)
        .straggler(0, 1.5)
        .straggler_window(p - 1, 3.0, 1, 2)
        .drop_messages(0.2)
        .delay_messages(0.25, 3e-4)
}

/// Run `body` twice per rank, each time after a rank-skewed compute
/// charge, at every size in [`SIZES`], and hash every rank's outcome.
fn threaded_hash(faulty: bool, body: impl Fn(&mut Ctx, &Comm) + Sync) -> u64 {
    let mut h = Fnv::new();
    for p in SIZES {
        let mut world = World::new(p).with_net(NetModel::k_computer());
        if faulty {
            world = world.with_faults(seeded_plan(p));
        }
        let outs = world.run(|ctx, comm| {
            for step in 0..2 {
                ctx.set_fault_step(step);
                ctx.compute(1e-5 * (1 + (ctx.world_rank() * 7 + step as usize) % 5) as f64);
                body(ctx, comm);
            }
            (ctx.vtime(), ctx.comm_stats(), ctx.fault_stats())
        });
        for (v, s, f) in &outs {
            h.rank(*v, s, f);
        }
    }
    h.0
}

/// A ragged per-rank vector: `len(rank)` copies of the rank.
fn ragged(rank: usize, len: usize) -> Vec<f64> {
    vec![rank as f64; len]
}

type Body = fn(&mut Ctx, &Comm);

/// Every collective the threaded runtime offers, one body each.
const COLLECTIVES: [(&str, Body); 8] = [
    ("barrier", |ctx, c| c.barrier(ctx)),
    ("bcast_every_root", |ctx, c| {
        for root in 0..c.size() {
            let data = (c.rank() == root).then(|| ragged(root, 64 + 8 * root));
            let _ = c.bcast(ctx, root, data);
        }
    }),
    ("reduce", |ctx, c| {
        for root in [0, c.size() - 1] {
            let _ = c.reduce(ctx, root, ragged(c.rank(), 100), |a, b| *a += *b);
        }
    }),
    ("allreduce", |ctx, c| {
        let _ = c.allreduce(ctx, ragged(c.rank(), 40), |a, b| *a += *b);
    }),
    ("gather", |ctx, c| {
        let _ = c.gather(ctx, c.size() / 2, ragged(c.rank(), 3 * (c.rank() % 4)));
    }),
    ("allgather_ragged", |ctx, c| {
        let _ = c.allgather(ctx, ragged(c.rank(), (c.rank() * 5) % 7));
    }),
    ("alltoallv", |ctx, c| {
        let r = c.rank();
        let send = (0..c.size())
            .map(|d| ragged(r, (r * 3 + d * 7) % 11))
            .collect();
        let _ = c.alltoallv(ctx, send);
    }),
    ("split_subcomm", |ctx, c| {
        let r = c.rank();
        let sub = c.split(ctx, (r % 3) as u64, (c.size() - r) as u64);
        let _ = sub.allreduce(ctx, ragged(r, 16), |a, b| *a += *b);
        let _ = sub.allgather(ctx, ragged(r, r % 4));
        sub.barrier(ctx);
    }),
];

/// `(case, plan) → hash`, recorded before the refactor; `barrier` and
/// `split_subcomm` re-recorded once when the barrier's fan-out became
/// the broadcast tree (receive from the parent, then forward).
const THREADED_GOLDEN: [(&str, u64, u64); 8] = [
    ("barrier", 0x8aa19855ace78d6c, 0xc8185035cd1aec79),
    ("bcast_every_root", 0xfa4c6eac1831187b, 0x6d939d9e7d548ef1),
    ("reduce", 0x17abc73b58914fef, 0x957ad3bedf9b6681),
    ("allreduce", 0xa8398dcb7cb8b140, 0xb4895226218e5816),
    ("gather", 0x369dee228c2342ed, 0xeb0d30fa36d5828b),
    ("allgather_ragged", 0x440b7824fe075e40, 0xafc5c775917df085),
    ("alltoallv", 0xf65367b440de243d, 0x4180f0efa90107a2),
    ("split_subcomm", 0x4ddfd845599056da, 0xf72ad2c2afc1afa8),
];

/// `(p, no plan, seeded plan) → hash` of `mixed_script` on the phantom
/// engine, per-phase attribution included (re-recorded with the
/// barrier fix: the script's barriers now wait for the last rank).
const PHANTOM_GOLDEN: [(usize, u64, u64); 3] = [
    (16, 0x91a996689aaf6a73, 0x610d06b26419d733),
    (64, 0x6da9ad7e4687d628, 0x1253de5b1c138019),
    (1024, 0x7fa7e9bef60363db, 0x5364e11f2d1ed8ba),
];

#[test]
fn threaded_collectives_keep_every_clock_bit() {
    let mut bad = Vec::new();
    for ((name, body), &(gname, quiet, faulty)) in COLLECTIVES.iter().zip(&THREADED_GOLDEN) {
        assert_eq!(*name, gname, "case tables out of order");
        let got = (threaded_hash(false, body), threaded_hash(true, body));
        println!("(\"{name}\", {:#018x}, {:#018x}),", got.0, got.1);
        if got != (quiet, faulty) {
            bad.push(*name);
        }
    }
    assert!(bad.is_empty(), "clock golden moved for {bad:?}");
}

#[test]
fn phantom_mixed_script_keeps_every_clock_bit() {
    let mut bad = Vec::new();
    for &(p, quiet, faulty) in &PHANTOM_GOLDEN {
        let script = mixed_script(p, 3);
        let mut got = [0u64; 2];
        for (i, plan) in [None, Some(seeded_plan(p))].into_iter().enumerate() {
            let mut world = World::new(p).with_net(NetModel::k_computer());
            if let Some(plan) = plan {
                world = world.with_faults(plan);
            }
            let out = world.with_phantoms([0]).run_script(&script);
            let mut h = Fnv::new();
            for t in &out.timelines {
                h.rank(t.vtime, &t.stats, &t.fault_stats);
                for x in &t.phase_vtime {
                    h.word(x.to_bits());
                }
            }
            got[i] = h.0;
        }
        println!("({p}, {:#018x}, {:#018x}),", got[0], got[1]);
        if got != [quiet, faulty] {
            bad.push(p);
        }
    }
    assert!(bad.is_empty(), "phantom clock golden moved at p = {bad:?}");
}
