//! The mesh passes of one PM cycle — TSC mass assignment, four-point
//! differencing, TSC force interpolation — for every solver.
//!
//! A [`Grid`] is a box of cells in unwrapped global coordinates: the
//! periodic mesh (side `n`) and the isolated one (side `2n`, cell size
//! still `1/n`) wrap modulo their side, and a rank's local box (own
//! domain plus ghost layers, §II-B fig. 4) is addressed by offset. Each
//! pass streams the mesh once, writes into storage the caller owns, and
//! maps indices once per particle or per row — never per cell. The
//! arithmetic per cell and per particle, and its order, is that of the
//! plain loops these replace (kept as test references below and in
//! [`crate::serial::PmSolver::assign_density_serial`]), so results are
//! bit-identical to them at any thread count.

use greem_math::Vec3;
use rayon::prelude::*;

use crate::layout::CellBox;
use crate::tsc::{tsc_axis, tsc_weights};

/// Geometry of a mesh in memory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grid {
    /// The stored cells, rows z-fastest. A wrapping grid's box starts at
    /// the origin, and its z extent may exceed the period: the rows of
    /// the FFT's padded buffer are `n + 2` apart.
    pub bx: CellBox,
    /// `Some(n)`: cell indices wrap modulo `n` on every axis. `None`: a
    /// local box, which every cloud and stencil must lie inside.
    pub period: Option<usize>,
    /// Cells per unit length (`1/h`): `n` for the periodic box and a
    /// local box on it, half the side for the zero-padded isolated mesh.
    pub cells_per_unit: usize,
}

/// The three indices, modulo `n`, of a TSC cloud whose leftmost point is
/// cell `a < n`: no division.
#[inline]
fn wrap3(a: usize, n: usize) -> [usize; 3] {
    let next = |i: usize| if i + 1 == n { 0 } else { i + 1 };
    [a, next(a), next(next(a))]
}

impl Grid {
    /// A plain `n³` periodic mesh.
    pub fn periodic(n: usize) -> Self {
        Grid::padded(n, n)
    }

    /// The periodic `n³` mesh inside a buffer whose z rows are
    /// `row_len ≥ n` apart.
    pub fn padded(n: usize, row_len: usize) -> Self {
        let n_i = n as i64;
        Grid {
            bx: CellBox::new([0; 3], [n_i, n_i, row_len as i64]),
            period: Some(n),
            cells_per_unit: n,
        }
    }

    /// A local box on an `n`-mesh.
    pub fn local(bx: CellBox, n: usize) -> Self {
        Grid {
            bx,
            period: None,
            cells_per_unit: n,
        }
    }

    /// Storage index along `axis` of unwrapped cell `u` (inside the box).
    #[inline]
    fn at(&self, axis: usize, u: i64) -> usize {
        match self.period {
            Some(n) => u.rem_euclid(n as i64) as usize,
            None => (u - self.bx.lo[axis]) as usize,
        }
    }

    /// Storage indices and weights of a particle's 27-point cloud.
    /// Panics, naming the position, when the cloud leaves a local box:
    /// one range test per axis, in release builds too. Always inlined:
    /// left out of line it cost the gather a fifth of its time.
    #[inline(always)]
    fn cloud(&self, p: Vec3) -> ([[usize; 3]; 3], [[f64; 3]; 3]) {
        let (i0, w) = tsc_weights([p.x, p.y, p.z], self.cells_per_unit);
        let cells = match self.period {
            Some(n) => i0.map(|i| wrap3(i.rem_euclid(n as i64) as usize, n)),
            None => {
                let (lo, hi) = (self.bx.lo, self.bx.hi);
                let inside = (0..3).all(|a| lo[a] <= i0[a] && i0[a] + 3 <= hi[a]);
                assert!(
                    inside,
                    "the TSC cloud of a particle at {p:?} leaves the local mesh {:?}",
                    self.bx
                );
                [0, 1, 2].map(|a| {
                    let k = (i0[a] - lo[a]) as usize;
                    [k, k + 1, k + 2]
                })
            }
        };
        (cells, w)
    }
}

/// Per-block particle lists of [`assign`], kept between calls so a step
/// allocates nothing once they have grown to size.
#[derive(Debug, Default)]
pub(crate) struct BlockLists {
    /// Each particle's leftmost x-plane.
    first: Vec<u32>,
    /// `ids[start[b]..start[b + 1]]` are the particles whose clouds
    /// touch block `b`, in particle order.
    start: Vec<usize>,
    ids: Vec<u32>,
}

/// TSC mass assignment `ρ[c] = Σ_p m_p·W(c − x_p)/h³` into `rho`, which
/// is overwritten.
///
/// Block-owned: the x-planes are cut into one block of consecutive
/// planes per thread. A counting sort appends each particle, in particle
/// order, to the lists of the blocks its cloud touches; then one task per
/// block zeroes it and deposits its list's contributions to it. No cell
/// is shared between tasks, so there is no scratch mesh and no
/// reduction, and a cell receives its contributions in particle order —
/// the order of the serial scatter loop, hence its bits, at any thread
/// count.
pub(crate) fn assign(
    grid: Grid,
    lists: &mut BlockLists,
    pos: &[Vec3],
    mass: &[f64],
    rho: &mut [f64],
) {
    let [nx, ny, nz] = grid.bx.dims();
    assert_eq!(pos.len(), mass.len());
    assert_eq!(rho.len(), grid.bx.len());
    assert!(u32::try_from(pos.len()).is_ok(), "particle index overflow");
    let per_block = nx.div_ceil(rayon::current_num_threads().clamp(1, nx.max(1)));
    let blocks = nx.div_ceil(per_block);
    // A local box's whole cloud is evaluated here, on the calling
    // thread: a particle outside the box is refused before the deposit.
    lists.first.clear();
    lists.first.extend(pos.iter().map(|p| match grid.period {
        Some(n) => tsc_axis(p.x, grid.cells_per_unit).0.rem_euclid(n as i64) as u32,
        None => grid.cloud(*p).0[0][0] as u32,
    }));
    // The distinct blocks of a cloud's x-planes: a wrapping grid's x
    // extent is its period, and a local cloud never reaches the end.
    let blocks_of = |a: u32| {
        let bs = wrap3(a as usize, nx).map(|x| x / per_block);
        [0, 1, 2].map(|k| (!bs[..k].contains(&bs[k])).then_some(bs[k]))
    };
    lists.start.clear();
    lists.start.resize(blocks + 1, 0);
    for &a in &lists.first {
        for b in blocks_of(a).into_iter().flatten() {
            lists.start[b + 1] += 1;
        }
    }
    for b in 0..blocks {
        lists.start[b + 1] += lists.start[b];
    }
    lists.ids.clear();
    lists.ids.resize(lists.start[blocks], 0);
    let mut cursor = lists.start.clone();
    for (i, &a) in lists.first.iter().enumerate() {
        for b in blocks_of(a).into_iter().flatten() {
            lists.ids[cursor[b]] = i as u32;
            cursor[b] += 1;
        }
    }

    let vol_inv = (grid.cells_per_unit as f64).powi(3); // 1/h³
    let (start, ids) = (&lists.start, &lists.ids);
    rho.par_chunks_mut(per_block * ny * nz)
        .enumerate()
        .for_each(|(b, block)| {
            block.fill(0.0);
            let planes = b * per_block..(b + 1) * per_block;
            for &i in &ids[start[b]..start[b + 1]] {
                let ([cx, cy, cz], [wx, wy, wz]) = grid.cloud(pos[i as usize]);
                let amp = mass[i as usize] * vol_inv;
                for (&x, &wxa) in cx.iter().zip(&wx).filter(|(x, _)| planes.contains(x)) {
                    let plane = &mut block[(x - planes.start) * ny * nz..][..ny * nz];
                    for (&y, &wyb) in cy.iter().zip(&wy) {
                        let wxy = wxa * wyb * amp;
                        let row = &mut plane[y * nz..][..nz];
                        for (&z, &wzc) in cz.iter().zip(&wz) {
                            row[z] += wxy * wzc;
                        }
                    }
                }
            }
        });
}

/// Four-point finite-difference accelerations `a = −∇φ`,
/// `∂φ/∂x ≈ (−φ₊₂ + 8φ₊₁ − 8φ₋₁ + φ₋₂)/(12h)` (§II-B step 5), for all
/// three components of every cell of `out` in one pass. The potential is
/// read through its own grid `pg`, which holds every cell within two of
/// them: the same wrapping mesh, or the local box grown by 2. Neighbour
/// rows are picked once per row; the cell loops run over plain slices.
pub(crate) fn accel_from_potential(out: Grid, pg: Grid, phi: &[f64], acc: &mut [Vec<f64>; 3]) {
    let [_, ny, nz] = out.bx.dims();
    let pd = pg.bx.dims();
    assert_eq!(phi.len(), pg.bx.len());
    assert!(acc.iter().all(|a| a.len() == out.bx.len()));
    let (reach, inside) = (out.bx.grow(2), |c: [i64; 3]| pg.bx.contains(c));
    assert!(pg.period.is_some() || inside(reach.lo) && inside(reach.hi.map(|h| h - 1)));
    let inv12h = out.cells_per_unit as f64 / 12.0;
    let diff = move |[p2, p1, m1, m2]: [f64; 4]| -(-p2 + 8.0 * p1 - 8.0 * m1 + m2) * inv12h;
    let diff_rows = |out: &mut [f64], [p2, p1, m1, m2]: [&[f64]; 4]| {
        for (o, (((&p2, &p1), &m1), &m2)) in out.iter_mut().zip(p2.iter().zip(p1).zip(m1).zip(m2)) {
            *o = diff([p2, p1, m1, m2]);
        }
    };
    let row = |x: usize, y: usize| &phi[(x * pd[1] + y) * pd[2]..][..pd[2]];
    // Storage indices of the cells at +2, +1, −1, −2 along `axis`.
    let around = |axis: usize, u: i64| [2, 1, -1, -2].map(|d| pg.at(axis, u + d));
    // An output row is the run `z0 .. z0 + nz` of a potential row; its
    // cells `inner` have their four z neighbours in that row unwrapped,
    // the others (the edges of a wrapping mesh) wrap.
    let (z0, z_cells) = (pg.at(2, out.bx.lo[2]), pg.period.unwrap_or(pd[2]));
    let lo = 2usize.saturating_sub(z0).min(nz);
    let inner = lo..z_cells.saturating_sub(z0 + 2).clamp(lo, nz);
    let [ax, ay, az] = acc;
    let planes: Vec<_> = ax
        .chunks_exact_mut(ny * nz)
        .zip(ay.chunks_exact_mut(ny * nz))
        .zip(az.chunks_exact_mut(ny * nz))
        .collect();
    planes
        .into_par_iter()
        .enumerate()
        .for_each(|(i, ((px, py), pz))| {
            let x = out.bx.lo[0] + i as i64;
            let (xc, xs) = (pg.at(0, x), around(0, x));
            for j in 0..ny {
                let y = out.bx.lo[1] + j as i64;
                let (yc, ys) = (pg.at(1, y), around(1, y));
                let o = j * nz..(j + 1) * nz;
                diff_rows(&mut px[o.clone()], xs.map(|x| &row(x, yc)[z0..]));
                diff_rows(&mut py[o.clone()], ys.map(|y| &row(xc, y)[z0..]));
                let (r, oz) = (row(xc, yc), &mut pz[o]);
                let k = z0 + inner.start;
                if !inner.is_empty() {
                    diff_rows(
                        &mut oz[inner.clone()],
                        [k + 2, k + 1, k - 1, k - 2].map(|s| &r[s..]),
                    );
                }
                for l in (0..inner.start).chain(inner.end..nz) {
                    oz[l] = diff(around(2, out.bx.lo[2] + l as i64).map(|i| r[i]));
                }
            }
        });
}

/// TSC interpolation of `K` mesh fields to the particle positions, each
/// field stored on its own grid. The cloud is evaluated once per
/// particle, on the first grid (the others share its origin, wrapping,
/// cell size and x and y extents, and may have longer z rows); each
/// field keeps its own accumulator in the gather order, so every value
/// is bit-identical to a gather of that field alone.
pub(crate) fn gather<const K: usize>(fields: [(Grid, &[f64]); K], pos: &[Vec3]) -> Vec<[f64; K]> {
    let grid = fields[0].0;
    let ny = grid.bx.dims()[1];
    let rows = fields.map(|(g, f)| (f, g.bx.dims()[2]));
    pos.par_iter()
        .map(|&p| {
            let ([cx, cy, cz], [wx, wy, wz]) = grid.cloud(p);
            let mut v = [0.0; K];
            for (&x, &wxa) in cx.iter().zip(&wx) {
                for (&y, &wyb) in cy.iter().zip(&wy) {
                    let at = x * ny + y;
                    let rows = rows.map(|(f, dz)| &f[at * dz..at * dz + dz]);
                    let wxy = wxa * wyb;
                    for (&z, &wzc) in cz.iter().zip(&wz) {
                        let w = wxy * wzc;
                        for (v, row) in v.iter_mut().zip(&rows) {
                            *v += w * row[z];
                        }
                    }
                }
            }
            v
        })
        .collect()
}

/// Fused TSC interpolation of the three acceleration meshes (on `grid`)
/// and the potential (on `pg`): one [`gather`] of four fields.
pub(crate) fn gather_forces(
    grid: Grid,
    acc: &[Vec<f64>; 3],
    pg: Grid,
    phi: &[f64],
    pos: &[Vec3],
) -> (Vec<Vec3>, Vec<f64>) {
    let [ax, ay, az] = acc.each_ref().map(|a| (grid, a.as_slice()));
    gather([ax, ay, az, (pg, phi)], pos)
        .into_iter()
        .map(|[x, y, z, pot]| (Vec3::new(x, y, z), pot))
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use greem_math::testutil::rand_positions;

    fn rand_field(len: usize, seed: u64) -> Vec<f64> {
        rand_positions(len.div_ceil(3), seed)
            .iter()
            .flat_map(|p| [p.x - 0.5, p.y - 0.5, p.z - 0.5])
            .take(len)
            .collect()
    }

    /// The stencil as it was written before the row-sliced pass: four
    /// `rem_euclid` index computations per cell and component.
    fn accel_rem_euclid(n: usize, phi: &[f64]) -> [Vec<f64>; 3] {
        let inv12h = n as f64 / 12.0;
        let idx = |c: [usize; 3]| (c[0] * n + c[1]) * n + c[2];
        let wrap = |i: usize, d: i64| (i as i64 + d).rem_euclid(n as i64) as usize;
        let mut out: [Vec<f64>; 3] = std::array::from_fn(|_| vec![0.0; n * n * n]);
        for (axis, mesh) in out.iter_mut().enumerate() {
            for x in 0..n {
                for y in 0..n {
                    for z in 0..n {
                        let at = |d: i64| {
                            let mut c = [x, y, z];
                            c[axis] = wrap(c[axis], d);
                            phi[idx(c)]
                        };
                        let d = -at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2);
                        mesh[idx([x, y, z])] = -d * inv12h;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn row_sliced_stencil_equals_rem_euclid_formula_bitwise() {
        // n = 4: ±2 wrap onto the same plane; n = 2: ±1 do too.
        for n in [2usize, 4, 16] {
            let phi = rand_field(n * n * n, 7 + n as u64);
            let want = accel_rem_euclid(n, &phi);
            let mut got = std::array::from_fn(|_| vec![0.0; n * n * n]);
            accel_from_potential(Grid::periodic(n), Grid::periodic(n), &phi, &mut got);
            for axis in 0..3 {
                for (i, (g, w)) in got[axis].iter().zip(&want[axis]).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "n={n} axis {axis} cell {i}");
                }
            }
        }
    }

    #[test]
    fn pitch_only_moves_rows() {
        // The same field in a padded buffer gives the same accelerations.
        let n = 8;
        let phi = rand_field(n * n * n, 3);
        let mut padded = vec![f64::NAN; n * n * (n + 2)];
        for (row, src) in padded.chunks_exact_mut(n + 2).zip(phi.chunks_exact(n)) {
            row[..n].copy_from_slice(src);
        }
        let run = |grid: Grid, phi: &[f64]| {
            let mut acc = std::array::from_fn(|_| vec![0.0; n * n * n]);
            accel_from_potential(Grid::periodic(n), grid, phi, &mut acc);
            acc
        };
        let plain = run(Grid::periodic(n), &phi);
        let wide = Grid::padded(n, n + 2);
        assert_eq!(plain, run(wide, &padded));
        let pos = rand_positions(50, 9);
        let cubic = Grid::periodic(n);
        assert_eq!(
            gather_forces(cubic, &plain, cubic, &phi, &pos),
            gather_forces(cubic, &plain, wide, &padded, &pos)
        );
    }

    /// A local box reads the periodic field's values through its
    /// unwrapped coordinates and must give, per cell and per particle,
    /// the periodic passes' bits — also where the box is wider than the
    /// mesh and its ghosts wrap onto its own cells.
    #[test]
    fn local_box_passes_equal_the_wrapping_mesh_bitwise() {
        let n = 8usize;
        let n_i = n as i64;
        let phi = rand_field(n * n * n, 13);
        let mut want = std::array::from_fn(|_| vec![0.0; n * n * n]);
        accel_from_potential(Grid::periodic(n), Grid::periodic(n), &phi, &mut want);
        let wrapped = |c: [i64; 3]| {
            let [x, y, z] = c.map(|u| u.rem_euclid(n_i) as usize);
            (x * n + y) * n + z
        };
        for bx in [
            CellBox::new([2, -1, 5], [5, 4, 11]),
            CellBox::new([-1, -1, -1], [n_i + 2; 3]),
        ] {
            let grown = bx.grow(2);
            let mut local_phi = Vec::with_capacity(grown.len());
            for x in grown.lo[0]..grown.hi[0] {
                for y in grown.lo[1]..grown.hi[1] {
                    local_phi.extend((grown.lo[2]..grown.hi[2]).map(|z| phi[wrapped([x, y, z])]));
                }
            }
            let (grid, pg) = (Grid::local(bx, n), Grid::local(grown, n));
            let mut got = std::array::from_fn(|_| vec![0.0; bx.len()]);
            accel_from_potential(grid, pg, &local_phi, &mut got);
            for x in bx.lo[0]..bx.hi[0] {
                for y in bx.lo[1]..bx.hi[1] {
                    for z in bx.lo[2]..bx.hi[2] {
                        for axis in 0..3 {
                            let (g, w) =
                                (got[axis][bx.idx([x, y, z])], want[axis][wrapped([x, y, z])]);
                            assert_eq!(g.to_bits(), w.to_bits(), "{bx:?} cell {:?}", [x, y, z]);
                        }
                    }
                }
            }
            // Particles whose clouds stay inside the box: the nearest
            // grid point at least one cell from either end.
            let h = 1.0 / n as f64;
            let pos: Vec<Vec3> = rand_positions(40, 17)
                .iter()
                .map(|p| {
                    let at = |a: usize, f: f64| {
                        let (lo, hi) = (bx.lo[a] as f64, bx.hi[a] as f64);
                        (lo + 0.75 + f * (hi - lo - 2.5)) * h
                    };
                    Vec3::new(at(0, p.x), at(1, p.y), at(2, p.z))
                })
                .collect();
            let local = gather(got.each_ref().map(|a| (grid, a.as_slice())), &pos);
            let cubic = Grid::periodic(n);
            let (ref_acc, _) = gather_forces(cubic, &want, cubic, &phi, &pos);
            for (l, r) in local.iter().zip(&ref_acc) {
                assert_eq!(*l, [r.x, r.y, r.z]);
            }
        }
    }
}
