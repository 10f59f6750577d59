//! Global traffic-conservation invariants of the simulated runtime:
//! everything any rank sends, some rank receives. Checked across the
//! collectives (`alltoallv`, `reduce`, `bcast`, `allgather`, `barrier`)
//! and the fig. 5 relay schedule, on the K-like network model so the
//! torus hop counter is exercised too.

use greem_pm::relay::{relay_density_to_slabs, relay_slabs_to_local, RelayComms, RelayConfig};
use greem_pm::{CellBox, LocalMesh};
use mpisim::{CommStats, NetModel, World};

/// Assert Σ sent == Σ received (bytes and messages) over all ranks.
fn assert_conserved(label: &str, stats: &[CommStats]) {
    let bytes_sent: u64 = stats.iter().map(|s| s.bytes_sent).sum();
    let bytes_received: u64 = stats.iter().map(|s| s.bytes_received).sum();
    let msg_sent: u64 = stats.iter().map(|s| s.messages_sent).sum();
    let msg_received: u64 = stats.iter().map(|s| s.messages_received).sum();
    assert!(msg_sent > 0, "{label}: no traffic at all");
    assert_eq!(
        bytes_sent, bytes_received,
        "{label}: bytes leaked (sent {bytes_sent}, received {bytes_received})"
    );
    assert_eq!(
        msg_sent, msg_received,
        "{label}: messages leaked (sent {msg_sent}, received {msg_received})"
    );
}

#[test]
fn collectives_conserve_global_traffic() {
    for p in [2usize, 3, 5, 8] {
        let stats = World::new(p)
            .with_net(NetModel::k_computer())
            .run(move |ctx, world| {
                let me = world.rank();
                // Ragged alltoallv: rank r sends r+c+1 elements to rank c.
                let send: Vec<Vec<u32>> = (0..p).map(|c| vec![me as u32; me + c + 1]).collect();
                let recv = world.alltoallv(ctx, send);
                assert_eq!(recv.len(), p);
                for (src, block) in recv.iter().enumerate() {
                    assert_eq!(block.len(), src + me + 1);
                }
                // Reduce to a non-zero root, then bcast the result back out.
                let root = p - 1;
                let summed = world.reduce(ctx, root, vec![me as u64, 1], |a, b| *a += *b);
                let total = world.bcast(ctx, root, summed);
                assert_eq!(total[1], p as u64);
                // Allgather + barrier round out the schedule. Ragged
                // blocks exercise the Bruck dissemination's length
                // headers (empty blocks included).
                let everyone = world.allgather(ctx, vec![me as u16]);
                assert_eq!(everyone.len(), p);
                let ragged = world.allgather(ctx, vec![me as u32; me % 3]);
                for (src, blk) in ragged.iter().enumerate() {
                    assert_eq!(blk, &vec![src as u32; src % 3]);
                }
                world.barrier(ctx);
                ctx.comm_stats()
            });
        assert_conserved(&format!("collectives p={p}"), &stats);
        if p > 1 {
            let hops: u64 = stats.iter().map(|s| s.hops_sent).sum();
            assert!(hops > 0, "p={p}: no torus hops recorded");
        }
    }
}

#[test]
fn phantom_engine_conserves_global_traffic() {
    // The single-threaded event engine must honour the same invariant
    // as the threaded runtime, over every scripted collective shape —
    // including at a rank count no thread-per-rank world could reach.
    use mpisim::Script;
    for p in [5usize, 64, 4096] {
        let mut s = Script::new();
        s.compute("pp.force_calculation", |_| 1e-4);
        s.gather("dd.sampling_method", 0, |r| 24 * (r % 5 + 1));
        s.bcast("dd.sampling_method", 0, |_| 512);
        s.allgather("ctl.monitor", |r| 16 + 8 * (r % 4));
        s.group_reduce("pm.communication", |r| (r % 3) as u64, |_| 4096);
        s.allreduce("ctl.balancer", |_| 40);
        s.barrier("ctl.barrier");
        let out = World::new(p)
            .with_net(NetModel::k_computer())
            .with_phantoms([0])
            .run_script(&s);
        let stats: Vec<CommStats> = out.timelines.iter().map(|t| t.stats).collect();
        assert_conserved(&format!("phantom engine p={p}"), &stats);
        let hops: u64 = stats.iter().map(|s| s.hops_sent).sum();
        assert!(hops > 0, "p={p}: no torus hops recorded");
    }
}

#[test]
fn relay_schedule_conserves_global_traffic() {
    // The fig. 5 shape: p ranks in `groups` relay groups funneling into
    // nf FFT ranks, forward (density) and backward (potential).
    let (p, nf, n_mesh, groups) = (12usize, 2usize, 16usize, 4usize);
    let stats = World::new(p)
        .with_net(NetModel::k_computer())
        .run(move |ctx, world| {
            let me = world.rank();
            let comms = RelayComms::build(
                ctx,
                world,
                RelayConfig {
                    nf,
                    n_groups: groups,
                },
            );
            let bx = CellBox::x_stripe(me, p, n_mesh);
            let data = (0..bx.len()).map(|i| (i % 31) as f64).collect();
            let local = LocalMesh { bx, data };
            let want = local.bx.grow(2);
            let slab = relay_density_to_slabs(ctx, &comms, &local, n_mesh);
            let _ = relay_slabs_to_local(ctx, &comms, slab, n_mesh, want);
            ctx.comm_stats()
        });
    assert_conserved("relay schedule", &stats);
    let hops: u64 = stats.iter().map(|s| s.hops_sent).sum();
    assert!(hops > 0, "relay run recorded no torus hops");
}
