//! The relay mesh method in isolation — the paper's fig. 5 scenario.
//!
//! ```text
//! cargo run --release --example relay_mesh_demo
//! ```
//!
//! Reproduces the structure of the paper's illustration (groups of
//! ranks, partial slabs, reduce to the root group) on a live simulated
//! network, comparing the direct global conversion against the relay
//! schedule at several group counts and printing the modelled times at
//! the paper's 12288-node scale.

use greem_repro::mpisim::{NetModel, World};
use greem_repro::perfmodel::RelayModel;
use greem_repro::pm::convert::local_density_to_slabs;
use greem_repro::pm::relay::{relay_density_to_slabs, RelayComms, RelayConfig};
use greem_repro::pm::{CellBox, LocalMesh};

/// Rank `me`'s x-stripe, filled with a recognisable pattern.
fn stripe(me: usize, p: usize, n: usize) -> LocalMesh {
    let bx = CellBox::x_stripe(me, p, n);
    let data = (0..bx.len()).map(|i| (i % 13) as f64).collect();
    LocalMesh { bx, data }
}

fn main() {
    // The funnel regime — many ranks converging on few FFT ranks with
    // sizeable slabs — is where the relay schedule wins (at small p the
    // extra reduce hop costs as much as it saves, which is also true on
    // real machines: the paper deploys the method at 12288+ nodes).
    let p = 48;
    let nf = 2;
    let n_mesh = 32;
    println!("live measurement: p = {p} ranks, nf = {nf} FFT ranks, mesh {n_mesh}³\n");
    println!("method        max vtime over ranks (s)");

    let direct = World::new(p)
        .with_net(NetModel::k_computer())
        .run(move |ctx, world| {
            let local = stripe(world.rank(), p, n_mesh);
            let t0 = ctx.vtime();
            let _ = local_density_to_slabs(ctx, world, &local, n_mesh, nf);
            ctx.vtime() - t0
        });
    let d = direct.iter().cloned().fold(0.0, f64::max);
    println!("direct        {d:.6}");

    for groups in [2usize, 4, 8] {
        let times = World::new(p)
            .with_net(NetModel::k_computer())
            .run(move |ctx, world| {
                let comms = RelayComms::build(
                    ctx,
                    world,
                    RelayConfig {
                        nf,
                        n_groups: groups,
                    },
                );
                let local = stripe(world.rank(), p, n_mesh);
                let t0 = ctx.vtime();
                let _ = relay_density_to_slabs(ctx, &comms, &local, n_mesh);
                ctx.vtime() - t0
            });
        let t = times.iter().cloned().fold(0.0, f64::max);
        println!("relay g={groups}     {t:.6}   ({:.2}x)", d / t);
    }

    println!("\npaper-scale model (12288 nodes, 4096³ mesh, 3 groups):");
    println!("{}", RelayModel::paper_experiment().evaluate().render());
}
