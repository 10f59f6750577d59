//! **Figure 5 + the §II-B timing experiment** — the relay mesh method.
//!
//! Two parts:
//!
//! 1. a *functional measurement* on the simulated network: the direct
//!    global conversion vs the relay schedule at several group counts,
//!    reporting virtual (modelled-network) seconds — this exercises the
//!    real communicator/packing/reduction code paths of `greem-pm`;
//! 2. the paper-scale *model* (12288 nodes, 4096³ mesh) from
//!    `greem-perfmodel`, reproducing the ~10 s → ~3 s / ~3 s → ~0.3 s
//!    claim.

use greem_perfmodel::RelayModel;
use greem_pm::convert::{local_density_to_slabs, slabs_to_local_potential};
use greem_pm::relay::{relay_density_to_slabs, relay_slabs_to_local, RelayComms, RelayConfig};
use greem_pm::{CellBox, LocalMesh};
use mpisim::{NetModel, World};

/// Measured (simulated-network) conversion times.
#[derive(Debug, Clone, Copy)]
pub struct RelayTiming {
    /// Group count (`None` = direct method).
    pub groups: Option<usize>,
    /// Forward (density) conversion, max virtual seconds over ranks.
    pub forward: f64,
    /// Backward (potential) conversion, max virtual seconds.
    pub backward: f64,
}

/// Rank `me`'s x-stripe, filled with a recognisable pattern.
pub(crate) fn stripe_local(me: usize, p: usize, n: usize) -> LocalMesh {
    let bx = CellBox::x_stripe(me, p, n);
    let data = (0..bx.len()).map(|i| (i % 97) as f64).collect();
    LocalMesh { bx, data }
}

/// Time one conversion round-trip at `p` ranks / `nf` FFT ranks /
/// mesh `n` under the K-like network model.
pub fn measure(p: usize, nf: usize, n_mesh: usize, groups: Option<usize>) -> RelayTiming {
    let times = World::new(p)
        .with_net(NetModel::k_computer())
        .run(move |ctx, world| {
            let me = world.rank();
            let local = stripe_local(me, p, n_mesh);
            let want = local.bx.grow(2);
            match groups {
                None => {
                    let t0 = ctx.vtime();
                    let slab = local_density_to_slabs(ctx, world, &local, n_mesh, nf);
                    let t1 = ctx.vtime();
                    let _ = slabs_to_local_potential(ctx, world, slab.as_deref(), n_mesh, nf, want);
                    let t2 = ctx.vtime();
                    (t1 - t0, t2 - t1)
                }
                Some(g) => {
                    let comms = RelayComms::build(ctx, world, RelayConfig { nf, n_groups: g });
                    let t0 = ctx.vtime();
                    let slab = relay_density_to_slabs(ctx, &comms, &local, n_mesh);
                    let t1 = ctx.vtime();
                    let _ = relay_slabs_to_local(ctx, &comms, slab, n_mesh, want);
                    let t2 = ctx.vtime();
                    (t1 - t0, t2 - t1)
                }
            }
        });
    RelayTiming {
        groups,
        forward: times.iter().map(|t| t.0).fold(0.0, f64::max),
        backward: times.iter().map(|t| t.1).fold(0.0, f64::max),
    }
}

/// Direct vs relay conversion at p = 8, mesh 16³ (`small`) or p = 48,
/// mesh 32³, as text and JSON. The full shape is the funnel regime:
/// many ranks converging on few FFT ranks with sizeable slabs — where
/// the relay schedule visibly wins on the simulated network.
pub fn run(small: bool) -> super::Outcome {
    let (p, nf, n_mesh) = if small { (8, 2, 16) } else { (48, 2, 32) };
    let mut s = String::from(
        "=== Fig. 5 / Sec. II-B: the relay mesh method ==================\n\n\
         -- functional measurement on the simulated K-like network --\n",
    );
    s.push_str(&format!(
        "p = {p} ranks, nf = {nf} FFT ranks, mesh {n_mesh}^3\n"
    ));
    s.push_str("method         forward(s)   backward(s)\n");
    let mut w = super::summary_writer("fig5", small);
    w.u64(Some("p"), p as u64);
    w.u64(Some("nf"), nf as u64);
    w.u64(Some("n_mesh"), n_mesh as u64);
    w.begin_arr(Some("timings"));
    let mut configs: Vec<Option<usize>> = vec![None];
    for g in [2usize, 4, 8, 12] {
        if p / g >= nf && p.is_multiple_of(g) {
            configs.push(Some(g));
        }
    }
    let mut direct_fwd = 0.0;
    for cfg in configs {
        let t = measure(p, nf, n_mesh, cfg);
        w.begin_obj(None);
        match cfg {
            None => {
                direct_fwd = t.forward;
                s.push_str(&format!(
                    "direct        {:>10.4e}  {:>11.4e}\n",
                    t.forward, t.backward
                ));
                w.raw(Some("groups"), "null");
            }
            Some(g) => {
                s.push_str(&format!(
                    "relay g={g:<2}    {:>10.4e}  {:>11.4e}   ({:.2}x forward speedup)\n",
                    t.forward,
                    t.backward,
                    direct_fwd / t.forward
                ));
                w.u64(Some("groups"), g as u64);
            }
        }
        w.f64(Some("forward_s"), t.forward);
        w.f64(Some("backward_s"), t.backward);
        w.end_obj();
    }
    w.end_arr();
    s.push_str("\n-- paper-scale model (12288 nodes, 4096^3 mesh, 3 groups) --\n");
    s.push_str(&RelayModel::paper_experiment().evaluate().render());
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact toy configuration of the paper's figure 5: 6×6 = 36
    /// processes, an 8³ PM mesh, 8 FFT processes, and 4 groups of 9
    /// processes. The relay conversion must complete and match the
    /// direct conversion bit-for-bit at exactly this shape.
    #[test]
    fn paper_figure_five_exact_configuration() {
        let p = 36usize;
        let nf = 8usize;
        let n_mesh = 8usize;
        let groups = 4usize;
        assert!(
            p / groups >= nf,
            "4 groups of 9 ≥ 8 FFT procs, as in the figure"
        );
        let direct = World::new(p)
            .with_net(NetModel::free())
            .run(move |ctx, world| {
                let local = stripe_local(world.rank(), p, n_mesh);
                local_density_to_slabs(ctx, world, &local, n_mesh, nf)
            });
        let relayed = World::new(p)
            .with_net(NetModel::free())
            .run(move |ctx, world| {
                let comms = RelayComms::build(
                    ctx,
                    world,
                    RelayConfig {
                        nf,
                        n_groups: groups,
                    },
                );
                let local = stripe_local(world.rank(), p, n_mesh);
                relay_density_to_slabs(ctx, &comms, &local, n_mesh)
            });
        let mut fft_ranks = 0;
        for r in 0..p {
            match (&direct[r], &relayed[r]) {
                (Some(a), Some(b)) => {
                    fft_ranks += 1;
                    for (i, (x, y)) in a.iter().zip(b).enumerate() {
                        assert!((x - y).abs() < 1e-9, "rank {r} cell {i}: {x} vs {y}");
                    }
                }
                (None, None) => {}
                other => panic!("slab presence mismatch on rank {r}: {other:?}"),
            }
        }
        assert_eq!(fft_ranks, nf, "exactly the 8 FFT processes hold slabs");
    }

    #[test]
    fn relay_beats_direct_on_simulated_network() {
        // Few FFT ranks on a moderate world: the funnel regime.
        let direct = measure(12, 2, 16, None);
        let relayed = measure(12, 2, 16, Some(4));
        assert!(
            relayed.forward < direct.forward,
            "relay fwd {} !< direct {}",
            relayed.forward,
            direct.forward
        );
    }
}
