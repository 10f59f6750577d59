//! **Figure 4** — the two mesh decompositions of the PM method.
//!
//! Upper panel of the paper's figure: the 3-D distributed *local*
//! meshes (one per process, own domain + ghost layers); lower panel:
//! the 1-D *slab* decomposition of the FFT processes. The quantitative
//! content is the data-volume census of converting between them, which
//! we measure on a live mpisim run via the runtime's traffic counters.

use greem_pm::convert::local_density_to_slabs;
use greem_pm::{CellBox, LocalMesh};
use mpisim::{NetModel, World};

/// Census of one conversion.
#[derive(Debug, Clone)]
pub struct Fig4Census {
    pub p: usize,
    pub nf: usize,
    pub n_mesh: usize,
    /// Per-rank local-mesh cell counts (with ghosts).
    pub local_cells: Vec<usize>,
    /// Per-FFT-rank slab cell counts.
    pub slab_cells: Vec<usize>,
    /// Per-rank bytes sent during the density conversion.
    pub bytes_sent: Vec<u64>,
    /// Per-rank bytes received.
    pub bytes_received: Vec<u64>,
}

/// Run the conversion once and collect the census.
pub fn census(p: usize, nf: usize, n_mesh: usize) -> Fig4Census {
    let out = World::new(p)
        .with_net(NetModel::k_computer())
        .run(move |ctx, world| {
            let me = world.rank();
            let own = CellBox::x_stripe(me, p, n_mesh);
            let local = LocalMesh {
                bx: own,
                data: vec![1.0; own.len()],
            };
            let before = ctx.comm_stats();
            let slab = local_density_to_slabs(ctx, world, &local, n_mesh, nf);
            let after = ctx.comm_stats();
            (
                own.len(),
                slab.map(|s| s.len()).unwrap_or(0),
                after.bytes_sent - before.bytes_sent,
                after.bytes_received - before.bytes_received,
            )
        });
    Fig4Census {
        p,
        nf,
        n_mesh,
        local_cells: out.iter().map(|o| o.0).collect(),
        slab_cells: out.iter().map(|o| o.1).filter(|&c| c > 0).collect(),
        bytes_sent: out.iter().map(|o| o.2).collect(),
        bytes_received: out.iter().map(|o| o.3).collect(),
    }
}

/// The conversion census at p = 4, mesh 8³ (`small`) or p = 6, mesh
/// 16³, as text and JSON.
pub fn run(small: bool) -> super::Outcome {
    let c = if small {
        census(4, 2, 8)
    } else {
        census(6, 2, 16)
    };
    let mut s = String::from("=== Fig. 4: local meshes vs FFT slabs ==========================\n");
    s.push_str(&format!(
        "p = {} processes, nf = {} FFT processes, mesh {}^3\n\n",
        c.p, c.nf, c.n_mesh
    ));
    s.push_str("upper panel - local (ghosted) mesh cells per process:\n  ");
    for (r, cells) in c.local_cells.iter().enumerate() {
        s.push_str(&format!("p{r}:{cells} "));
    }
    s.push_str("\nlower panel - slab cells per FFT process:\n  ");
    for (r, cells) in c.slab_cells.iter().enumerate() {
        s.push_str(&format!("fft{r}:{cells} "));
    }
    s.push_str("\n\nconversion traffic (density, local -> slab):\n");
    for r in 0..c.p {
        s.push_str(&format!(
            "  p{r}: sent {:>9} B, received {:>9} B\n",
            c.bytes_sent[r], c.bytes_received[r]
        ));
    }
    s.push_str("\n(every process sends; only the nf slab holders receive in bulk —\n");
    s.push_str(" the funnel the relay mesh method widens.)\n");

    let mut w = super::summary_writer("fig4", small);
    w.u64(Some("p"), c.p as u64);
    w.u64(Some("nf"), c.nf as u64);
    w.u64(Some("n_mesh"), c.n_mesh as u64);
    let cells = |v: &[usize]| v.iter().map(|&x| x as u64).collect::<Vec<u64>>();
    for (key, vals) in [
        ("local_cells", cells(&c.local_cells)),
        ("slab_cells", cells(&c.slab_cells)),
        ("bytes_sent", c.bytes_sent.clone()),
        ("bytes_received", c.bytes_received.clone()),
    ] {
        w.begin_arr(Some(key));
        for v in vals {
            w.u64(None, v);
        }
        w.end_arr();
    }
    super::Outcome::new(s, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_shows_the_funnel() {
        let c = census(4, 2, 8);
        assert_eq!(c.slab_cells.len(), 2);
        // Slabs tile the mesh.
        let total: usize = c.slab_cells.iter().sum();
        assert_eq!(total, 8 * 8 * 8);
        // FFT ranks receive much more than non-FFT ranks.
        let fft_recv = c.bytes_received[0];
        let non_fft_recv = c.bytes_received[3];
        assert!(fft_recv > 4 * non_fft_recv.max(1));
        // Everyone sends something.
        assert!(c.bytes_sent.iter().all(|&b| b > 0));
    }
}
