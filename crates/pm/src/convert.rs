//! Direct (single global all-to-all) conversion between the 3-D
//! distributed local meshes and the 1-D slab decomposition.
//!
//! This is the paper's "straightforward implementation" (§II-B): every
//! process sends the parts of its ghosted local density mesh that
//! overlap each FFT process's slab via one `MPI_Alltoallv` over the
//! world, and receives its local potential back the same way. Its
//! scaling problem — an FFT process receives from O(p^(2/3)) ≈ 4000
//! processes at full scale, congesting its network port — is exactly
//! what the [`crate::relay`] method fixes.
//!
//! ## Message encoding
//!
//! A message is a flat `Vec<f64>` holding zero or more *boxes*:
//! a 6-value [`CellBox`] header followed by the box's cell values,
//! z-fastest. Density boxes use wrapped coordinates (the receiver sums
//! them into its slab); potential boxes use the receiver's unwrapped
//! ghost coordinates (the receiver copies them into its local mesh).

use greem_fft::{slab_owner, slab_planes};
use mpisim::{Comm, Ctx};

use crate::layout::{wrapped_runs, CellBox, LocalMesh};

/// Pack into `out` the density boxes of `local` destined for each of the
/// `nf` slab owners. `out` must hold `comm_size` empty buffers.
pub(crate) fn pack_density(local: &LocalMesh, n: usize, nf: usize, out: &mut [Vec<f64>]) {
    let n_i = n as i64;
    let bx = local.bx;
    for (ux0, wx0, xlen) in wrapped_runs(bx.lo[0], bx.hi[0], n_i) {
        // Split the wrapped x-run at slab-owner boundaries.
        let mut x = 0i64;
        while x < xlen {
            let owner = slab_owner(n, nf, (wx0 + x) as usize);
            let (s0, c) = slab_planes(n, nf, owner);
            let run = ((s0 + c) as i64 - (wx0 + x)).min(xlen - x);
            debug_assert!(run > 0);
            for (uy0, wy0, ylen) in wrapped_runs(bx.lo[1], bx.hi[1], n_i) {
                for (uz0, wz0, zlen) in wrapped_runs(bx.lo[2], bx.hi[2], n_i) {
                    let buf = &mut out[owner];
                    let hdr =
                        CellBox::new([wx0 + x, wy0, wz0], [wx0 + x + run, wy0 + ylen, wz0 + zlen]);
                    buf.extend_from_slice(&hdr.pack());
                    for dx in 0..run {
                        for dy in 0..ylen {
                            let at = bx.idx([ux0 + x + dx, uy0 + dy, uz0]);
                            buf.extend_from_slice(&local.data[at..][..zlen as usize]);
                        }
                    }
                }
            }
            x += run;
        }
    }
}

/// Accumulate received density boxes (wrapped coordinates) into a slab
/// buffer `slab[(x − x0)·n² + y·n + z]`.
pub(crate) fn unpack_density_into_slab(msg: &[f64], slab: &mut [f64], n: usize, x0: usize) {
    let mut i = 0;
    while i < msg.len() {
        let bx = CellBox::unpack(&msg[i..i + 6]);
        i += 6;
        let d = bx.dims();
        for x in bx.lo[0]..bx.hi[0] {
            for y in bx.lo[1]..bx.hi[1] {
                let row = ((x as usize - x0) * n + y as usize) * n;
                for z in bx.lo[2]..bx.hi[2] {
                    slab[row + z as usize] += msg[i];
                    i += 1;
                }
            }
        }
        debug_assert_eq!(d[0] * d[1] * d[2], bx.len());
    }
}

/// Convert 3-D distributed local density meshes into complete slabs on
/// the FFT ranks (world ranks `0..nf`). Every rank calls this; FFT ranks
/// get `Some(slab)` (layout `(x_local, y, z)`, z fastest), others `None`.
pub fn local_density_to_slabs(
    ctx: &mut Ctx,
    comm: &Comm,
    local: &LocalMesh,
    n: usize,
    nf: usize,
) -> Option<Vec<f64>> {
    let p = comm.size();
    assert!(nf >= 1 && nf <= p && nf <= n);
    let mut send: Vec<Vec<f64>> = (0..p).map(|_| Vec::new()).collect();
    pack_density(local, n, nf, &mut send);
    let recv = comm.alltoallv(ctx, send);
    let me = comm.rank();
    if me >= nf {
        return None;
    }
    let (x0, count) = slab_planes(n, nf, me);
    let mut slab = vec![0.0; count * n * n];
    for msg in &recv {
        unpack_density_into_slab(msg, &mut slab, n, x0);
    }
    Some(slab)
}

/// Pack, on an FFT rank holding `slab` (planes `x0..x0+count`), the
/// potential boxes requested by each rank's `want` box. Headers are in
/// the receiver's unwrapped coordinates.
pub(crate) fn pack_potential(
    slab: &[f64],
    n: usize,
    x0: usize,
    count: usize,
    wants: &[CellBox],
    out: &mut [Vec<f64>],
) {
    let n_i = n as i64;
    for (dest, want) in wants.iter().enumerate() {
        for (ux0, wx0, xlen) in wrapped_runs(want.lo[0], want.hi[0], n_i) {
            // Intersect this wrapped run with my plane range.
            let lo = wx0.max(x0 as i64);
            let hi = (wx0 + xlen).min((x0 + count) as i64);
            if lo >= hi {
                continue;
            }
            let buf = &mut out[dest];
            let u_lo = ux0 + (lo - wx0);
            let hdr = CellBox::new(
                [u_lo, want.lo[1], want.lo[2]],
                [u_lo + (hi - lo), want.hi[1], want.hi[2]],
            );
            buf.extend_from_slice(&hdr.pack());
            for wx in lo..hi {
                let plane = &slab[(wx as usize - x0) * n * n..(wx as usize - x0 + 1) * n * n];
                for uy in want.lo[1]..want.hi[1] {
                    let wy = uy.rem_euclid(n_i) as usize;
                    let row = &plane[wy * n..(wy + 1) * n];
                    for uz in want.lo[2]..want.hi[2] {
                        buf.push(row[uz.rem_euclid(n_i) as usize]);
                    }
                }
            }
        }
    }
}

/// Copy received potential boxes (receiver's unwrapped coordinates) into
/// the local mesh.
pub(crate) fn unpack_potential_into_local(msg: &[f64], local: &mut LocalMesh) {
    let mut i = 0;
    while i < msg.len() {
        let bx = CellBox::unpack(&msg[i..i + 6]);
        i += 6;
        let zlen = bx.dims()[2];
        for x in bx.lo[0]..bx.hi[0] {
            for y in bx.lo[1]..bx.hi[1] {
                let at = local.bx.idx([x, y, bx.lo[2]]);
                local.data[at..][..zlen].copy_from_slice(&msg[i..][..zlen]);
                i += zlen;
            }
        }
    }
}

/// Convert slab potentials back to each rank's ghosted local mesh.
/// FFT ranks pass `Some(slab)`; every rank passes its `want` box and
/// receives the filled [`LocalMesh`]. Uses an `Allgather` of the want
/// boxes followed by one global `Alltoallv`.
pub fn slabs_to_local_potential(
    ctx: &mut Ctx,
    comm: &Comm,
    slab: Option<&[f64]>,
    n: usize,
    nf: usize,
    want: CellBox,
) -> LocalMesh {
    let p = comm.size();
    let me = comm.rank();
    assert_eq!(slab.is_some(), me < nf, "exactly the FFT ranks hold slabs");
    // Everyone announces the box it needs.
    let wants_flat = comm.allgather(ctx, want.pack().to_vec());
    let wants: Vec<CellBox> = wants_flat.iter().map(|v| CellBox::unpack(v)).collect();

    let mut send: Vec<Vec<f64>> = (0..p).map(|_| Vec::new()).collect();
    if let Some(slab) = slab {
        let (x0, count) = slab_planes(n, nf, me);
        pack_potential(slab, n, x0, count, &wants, &mut send);
    }
    let recv = comm.alltoallv(ctx, send);
    let mut local = LocalMesh::zeros(want);
    for msg in &recv {
        unpack_potential_into_local(msg, &mut local);
    }
    local
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{NetModel, World};

    /// Fill a local mesh with a recognisable function of the *wrapped*
    /// cell index so sums across ranks are predictable.
    fn cell_value(x: i64, y: i64, z: i64, n: i64) -> f64 {
        let (x, y, z) = (x.rem_euclid(n), y.rem_euclid(n), z.rem_euclid(n));
        (x * n * n + y * n + z) as f64
    }

    #[test]
    fn density_conversion_sums_contributions() {
        // 4 ranks each own a quarter of an n=8 box (split along x) with
        // 1-cell ghosts; each writes value v/4 into every owned+ghost
        // cell, so after conversion each wrapped cell must hold
        // v·(overlapping writers)/4 — interior cells are written by 1
        // rank, ghost-adjacent by 2.
        let n = 8usize;
        let p = 4usize;
        let nf = 2usize;
        let slabs = World::new(p).with_net(NetModel::free()).run(|ctx, world| {
            let r = world.rank() as i64;
            let own = CellBox::x_stripe(r as usize, p, n);
            let mut local = LocalMesh::zeros(own);
            for x in own.lo[0]..own.hi[0] {
                for y in own.lo[1]..own.hi[1] {
                    for z in own.lo[2]..own.hi[2] {
                        local.data[own.idx([x, y, z])] = cell_value(x, y, z, 8) * 0.25;
                    }
                }
            }
            local_density_to_slabs(ctx, world, &local, n, nf)
        });
        // Each x-plane is owned by one rank and ghosted by its two x
        // neighbours; y,z ghosts wrap onto the same rank's own cells.
        // Count writers per wrapped cell: along x, writers = own rank +
        // neighbours whose ghost reaches it. With 2-wide domains and
        // 1-wide ghosts every plane is written by exactly 2 ranks in x.
        // In y and z the ghost wraps onto the writer's own cells, adding
        // 0/1/2 extra writes for interior/edge cells of the same rank.
        for (fr, slab) in slabs.iter().enumerate() {
            let Some(slab) = slab.as_ref() else {
                assert!(fr >= nf);
                continue;
            };
            let (x0, cnt) = greem_fft::slab_planes(n, nf, fr);
            for xl in 0..cnt {
                let x = (x0 + xl) as i64;
                for y in 0..8i64 {
                    for z in 0..8i64 {
                        let mut writers = 0.0;
                        for r in 0..4i64 {
                            // Does rank r's ghosted box contain an
                            // unwrapped copy of (x,y,z)?
                            let bx = CellBox::x_stripe(r as usize, p, n);
                            for ix in [x - 8, x, x + 8] {
                                for iy in [y - 8, y, y + 8] {
                                    for iz in [z - 8, z, z + 8] {
                                        if bx.contains([ix, iy, iz]) {
                                            writers += 1.0;
                                        }
                                    }
                                }
                            }
                        }
                        let got = slab[(xl * 8 + y as usize) * 8 + z as usize];
                        let want = cell_value(x, y, z, 8) * 0.25 * writers;
                        assert!(
                            (got - want).abs() < 1e-9,
                            "slab {fr} cell ({x},{y},{z}): {got} vs {want} (writers {writers})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn potential_roundtrip_delivers_requested_ghosts() {
        // FFT ranks hold φ(x,y,z) = wrapped flat index; every rank asks
        // for a ghosted box and must receive exactly that function.
        let n = 8usize;
        let p = 5usize;
        let nf = 3usize;
        World::new(p).with_net(NetModel::free()).run(|ctx, world| {
            let me = world.rank();
            let slab_data = if me < nf {
                let (x0, cnt) = greem_fft::slab_planes(n, nf, me);
                let mut s = vec![0.0; cnt * n * n];
                for xl in 0..cnt {
                    for y in 0..n {
                        for z in 0..n {
                            s[(xl * n + y) * n + z] =
                                cell_value((x0 + xl) as i64, y as i64, z as i64, 8);
                        }
                    }
                }
                Some(s)
            } else {
                None
            };
            // Irregular want boxes, some spilling over the boundary.
            let want = CellBox::new([me as i64 - 2, -1, 3], [me as i64 + 2, 4, 11]);
            let local = slabs_to_local_potential(ctx, world, slab_data.as_deref(), n, nf, want);
            for x in want.lo[0]..want.hi[0] {
                for y in want.lo[1]..want.hi[1] {
                    for z in want.lo[2]..want.hi[2] {
                        let got = local.data[want.idx([x, y, z])];
                        let exp = cell_value(x, y, z, 8);
                        assert!(
                            (got - exp).abs() < 1e-12,
                            "rank {me} cell ({x},{y},{z}): {got} vs {exp}"
                        );
                    }
                }
            }
        });
    }
}
