//! The relay mesh method (§II-B) — the paper's novel communication
//! algorithm for the mesh-layout conversion.
//!
//! The direct conversion funnels pieces of every rank's local mesh into
//! `nf ≈ N_PM` FFT ranks: at 82944 processes each FFT process receives
//! from ~4000 senders and the network congests. The relay mesh method
//! splits the global all-to-all into **two local steps**:
//!
//! 1. ranks are partitioned into groups of at least `nf` members; within
//!    each group an `Alltoallv` (communicator `COMM_SMALLA2A`) builds a
//!    *partial* density slab on the group's j-th member, for each slab
//!    j — so each receiver drains only `group_size` messages;
//! 2. the partial slabs are summed across groups with `Reduce`
//!    (communicator `COMM_REDUCE`, one member per group per slab index;
//!    the root is the true FFT rank in the *root group*) — a logarithmic
//!    tree instead of thousands of point-to-point drains.
//!
//! The potential returns by the mirrored path: `Bcast` over
//! `COMM_REDUCE`, then a group-local `Alltoallv`. With three groups on
//! 12288 nodes the paper measured the two conversions dropping from
//! ~10 s and ~3 s to ~3 s and ~0.3 s — more than 4× on communication.

use greem_fft::slab_planes;
use mpisim::{Comm, Ctx};

use crate::convert::{
    pack_density, pack_potential, unpack_density_into_slab, unpack_potential_into_local,
};
use crate::layout::{CellBox, LocalMesh};

/// Relay mesh configuration.
#[derive(Debug, Clone, Copy)]
pub struct RelayConfig {
    /// Number of FFT processes (world ranks `0..nf`).
    pub nf: usize,
    /// Number of relay groups; every group must keep at least `nf`
    /// members, i.e. `⌊p / n_groups⌋ ≥ nf`.
    pub n_groups: usize,
}

/// The communicators of the relay schedule, built once per run with
/// `MPI_Comm_split` semantics exactly as the paper describes.
pub struct RelayComms {
    /// `COMM_SMALLA2A`: this rank's group.
    pub small: Comm,
    /// `COMM_REDUCE`: same in-group rank across all groups (ordered so
    /// the root group's member — the true FFT rank — is local rank 0).
    pub reduce: Comm,
    /// Group index of this rank.
    pub group: usize,
    /// Rank within the group.
    pub in_rank: usize,
    cfg: RelayConfig,
}

/// Balanced contiguous group assignment: rank `r` of `p` joins group
/// `r·n_groups/p`, giving group sizes of `⌊p/g⌋` or `⌈p/g⌉` with the
/// root group starting at world rank 0.
pub fn group_of(rank: usize, p: usize, n_groups: usize) -> usize {
    rank * n_groups / p
}

impl RelayComms {
    /// Collectively build the relay communicators over `world`.
    pub fn build(ctx: &mut Ctx, world: &Comm, cfg: RelayConfig) -> RelayComms {
        let p = world.size();
        assert!(cfg.n_groups >= 1 && cfg.n_groups <= p);
        assert!(
            p / cfg.n_groups >= cfg.nf,
            "relay groups must hold at least nf={} members (p={}, groups={})",
            cfg.nf,
            p,
            cfg.n_groups
        );
        let me = world.rank();
        let group = group_of(me, p, cfg.n_groups);
        let small = world.split(ctx, group as u64, me as u64);
        let in_rank = small.rank();
        let reduce = world.split(ctx, in_rank as u64, group as u64);
        debug_assert!(
            group != 0 || reduce.rank() == 0,
            "root group must lead COMM_REDUCE"
        );
        RelayComms {
            small,
            reduce,
            group,
            in_rank,
            cfg,
        }
    }

    /// The relay configuration.
    pub fn config(&self) -> RelayConfig {
        self.cfg
    }

    /// True when this rank is one of the `nf` FFT processes (root group,
    /// in-group rank < nf).
    pub fn is_fft_rank(&self) -> bool {
        self.group == 0 && self.in_rank < self.cfg.nf
    }

    /// True when this rank holds a partial slab during the relay (every
    /// group's first `nf` members).
    pub fn holds_partial_slab(&self) -> bool {
        self.in_rank < self.cfg.nf
    }
}

/// Relay conversion of local density meshes to complete slabs on the FFT
/// ranks. Collective over the world (all ranks call it); FFT ranks get
/// `Some(slab)`.
pub fn relay_density_to_slabs(
    ctx: &mut Ctx,
    comms: &RelayComms,
    local: &LocalMesh,
    n: usize,
) -> Option<Vec<f64>> {
    let _span = greem_obs::trace::span("pm", "relay.density_to_slabs");
    let nf = comms.cfg.nf;
    // Step 1: group-local Alltoallv; destinations are the group's first
    // nf members, indexed exactly like the slab owners.
    let gs = comms.small.size();
    let mut send: Vec<Vec<f64>> = (0..gs).map(|_| Vec::new()).collect();
    {
        let _span = greem_obs::trace::span("pm", "relay.pack_density");
        pack_density(local, n, nf, &mut send);
    }
    let recv = comms.small.alltoallv(ctx, send);
    if !comms.holds_partial_slab() {
        return None;
    }
    let (x0, count) = slab_planes(n, nf, comms.in_rank);
    let mut partial = vec![0.0; count * n * n];
    {
        let _span = greem_obs::trace::span("pm", "relay.unpack_density");
        for msg in &recv {
            unpack_density_into_slab(msg, &mut partial, n, x0);
        }
    }
    // Step 2: Reduce the partial slabs across groups onto the root
    // group's member (the FFT rank).
    comms
        .reduce
        .reduce(ctx, 0, partial, |a, b| *a += *b)
        .filter(|_| comms.is_fft_rank())
}

/// Relay conversion of slab potentials back to every rank's ghosted
/// local mesh. FFT ranks pass `Some(slab)`.
pub fn relay_slabs_to_local(
    ctx: &mut Ctx,
    comms: &RelayComms,
    slab: Option<Vec<f64>>,
    n: usize,
    want: CellBox,
) -> LocalMesh {
    let _span = greem_obs::trace::span("pm", "relay.slabs_to_local");
    let nf = comms.cfg.nf;
    assert_eq!(slab.is_some(), comms.is_fft_rank());
    // Step 4: Bcast the complete slab from the FFT rank to its
    // counterparts in every group.
    let slab_full = if comms.holds_partial_slab() {
        Some(comms.reduce.bcast(ctx, 0, slab))
    } else {
        None
    };
    // Step 5: group-local Alltoallv of the requested ghost boxes.
    let gs = comms.small.size();
    let wants_flat = comms.small.allgather(ctx, want.pack().to_vec());
    let wants: Vec<CellBox> = wants_flat.iter().map(|v| CellBox::unpack(v)).collect();
    let mut send: Vec<Vec<f64>> = (0..gs).map(|_| Vec::new()).collect();
    if let Some(slab_full) = &slab_full {
        let _span = greem_obs::trace::span("pm", "relay.pack_potential");
        let (x0, count) = slab_planes(n, nf, comms.in_rank);
        pack_potential(slab_full, n, x0, count, &wants, &mut send);
    }
    let recv = comms.small.alltoallv(ctx, send);
    let mut local = LocalMesh::zeros(want);
    {
        let _span = greem_obs::trace::span("pm", "relay.unpack_potential");
        for msg in &recv {
            unpack_potential_into_local(msg, &mut local);
        }
    }
    local
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{local_density_to_slabs, slabs_to_local_potential};
    use mpisim::{NetModel, World};

    fn test_local(rank: usize, p: usize, n: i64) -> LocalMesh {
        // Each rank owns an x-stripe with 1-cell ghosts and writes a
        // rank-tagged value into every cell.
        let own = CellBox::x_stripe(rank, p, n as usize);
        let mut local = LocalMesh::zeros(own);
        for x in own.lo[0]..own.hi[0] {
            for y in own.lo[1]..own.hi[1] {
                for z in own.lo[2]..own.hi[2] {
                    let v = ((x.rem_euclid(n) * n + y.rem_euclid(n)) * n + z.rem_euclid(n)) as f64
                        * 0.001
                        + rank as f64;
                    local.data[own.idx([x, y, z])] = v;
                }
            }
        }
        local
    }

    /// The defining property: the relay method computes *exactly* the
    /// same slabs as the direct global conversion, for several group
    /// counts.
    #[test]
    fn relay_equals_direct_density() {
        let n = 8usize;
        let p = 8usize;
        let nf = 2usize;
        for n_groups in [1usize, 2, 4] {
            let direct = World::new(p).with_net(NetModel::free()).run(|ctx, world| {
                let local = test_local(world.rank(), p, n as i64);
                local_density_to_slabs(ctx, world, &local, n, nf)
            });
            let relayed = World::new(p).with_net(NetModel::free()).run(|ctx, world| {
                let comms = RelayComms::build(ctx, world, RelayConfig { nf, n_groups });
                let local = test_local(world.rank(), p, n as i64);
                relay_density_to_slabs(ctx, &comms, &local, n)
            });
            for r in 0..p {
                match (&direct[r], &relayed[r]) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.len(), b.len());
                        for (i, (x, y)) in a.iter().zip(b).enumerate() {
                            assert!(
                                (x - y).abs() < 1e-9,
                                "groups={n_groups} rank {r} cell {i}: {x} vs {y}"
                            );
                        }
                    }
                    (None, None) => {}
                    other => panic!("slab presence mismatch on rank {r}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn relay_equals_direct_potential() {
        let n = 8usize;
        let p = 6usize;
        let nf = 3usize;
        let make_slab = |r: usize| -> Option<Vec<f64>> {
            if r < nf {
                let (x0, cnt) = slab_planes(n, nf, r);
                Some(
                    (0..cnt * n * n)
                        .map(|i| (x0 * n * n + i) as f64 * 0.5)
                        .collect(),
                )
            } else {
                None
            }
        };
        let want_of = |r: usize| CellBox::new([r as i64 - 1, -2, 0], [r as i64 + 3, 5, 9]);
        let direct = World::new(p).with_net(NetModel::free()).run(|ctx, world| {
            let slab = make_slab(world.rank());
            slabs_to_local_potential(ctx, world, slab.as_deref(), n, nf, want_of(world.rank())).data
        });
        for n_groups in [1usize, 2] {
            let relayed = World::new(p).with_net(NetModel::free()).run(|ctx, world| {
                let comms = RelayComms::build(ctx, world, RelayConfig { nf, n_groups });
                let slab = make_slab(world.rank());
                relay_slabs_to_local(ctx, &comms, slab, n, want_of(world.rank())).data
            });
            for r in 0..p {
                assert_eq!(direct[r], relayed[r], "rank {r}, groups={n_groups}");
            }
        }
    }

    #[test]
    fn group_assignment_is_balanced_and_contiguous() {
        for (p, ng) in [(8, 3), (12, 4), (7, 2), (82944, 18)] {
            let mut sizes = vec![0usize; ng];
            let mut last = 0;
            for r in 0..p {
                let g = group_of(r, p, ng);
                assert!(g >= last, "groups must be contiguous in rank");
                last = g;
                sizes[g] += 1;
            }
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1, "p={p} ng={ng}: sizes {sizes:?}");
        }
    }

    #[test]
    #[should_panic]
    fn too_many_groups_rejected() {
        // 8 ranks, nf=4 → groups of ≥4 → at most 2 groups.
        World::new(8).with_net(NetModel::free()).run(|ctx, world| {
            let _ = RelayComms::build(ctx, world, RelayConfig { nf: 4, n_groups: 3 });
        });
    }

    /// The point of the method: with congested many-to-one traffic, the
    /// relay schedule's FFT ranks finish the conversion sooner than the
    /// direct global Alltoallv at the same problem size.
    #[test]
    fn relay_reduces_simulated_conversion_time() {
        let n = 16usize;
        let p = 16usize;
        let nf = 2usize; // few FFT ranks ⇒ heavy convergence
        let net = NetModel::k_computer();
        let direct_t = World::new(p).with_net(net).run(|ctx, world| {
            let local = test_local(world.rank(), p, n as i64);
            let _ = local_density_to_slabs(ctx, world, &local, n, nf);
            ctx.vtime()
        });
        let relay_t = World::new(p).with_net(net).run(|ctx, world| {
            let comms = RelayComms::build(ctx, world, RelayConfig { nf, n_groups: 4 });
            let t0 = ctx.vtime();
            let local = test_local(world.rank(), p, n as i64);
            let _ = relay_density_to_slabs(ctx, &comms, &local, n);
            ctx.vtime() - t0
        });
        let direct_max = direct_t.iter().cloned().fold(0.0, f64::max);
        let relay_max = relay_t.iter().cloned().fold(0.0, f64::max);
        assert!(
            relay_max < direct_max,
            "relay {relay_max} should beat direct {direct_max}"
        );
    }
}
