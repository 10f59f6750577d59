//! The mesh passes of one PM cycle on a wrapping cubic mesh: TSC mass
//! assignment, four-point differencing, TSC force interpolation.
//!
//! Shared by the periodic solver (mesh side `n`) and the isolated one
//! (side `2n`, same cell size): both address the mesh modulo its side.
//! Each pass streams the mesh once, writes into storage the caller
//! owns, and wraps indices once per particle or per row — never per
//! cell. The arithmetic per cell and per particle, and its order, is
//! that of the plain loops these replace (kept as test references
//! below and in [`crate::serial::PmSolver::assign_density_serial`]), so
//! results are bit-identical to them at any thread count.

use greem_math::Vec3;
use rayon::prelude::*;

use crate::tsc::{tsc_axis, tsc_weights};

/// Geometry of a wrapping mesh in memory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grid {
    /// Cells per side; indices wrap modulo this.
    pub side: usize,
    /// Distance in `f64` between the starts of consecutive z rows of the
    /// density/potential mesh: `side`, or `side + 2` inside the FFT's
    /// padded buffer. Acceleration meshes are always `side` apart.
    pub pitch: usize,
    /// Cells per unit length (`1/h`): `side` for the periodic box, half
    /// of it for the zero-padded isolated mesh.
    pub cells_per_unit: usize,
}

impl Grid {
    /// A plain `n³` periodic mesh.
    pub fn periodic(n: usize) -> Self {
        Grid {
            side: n,
            pitch: n,
            cells_per_unit: n,
        }
    }

    /// The three wrapped indices of a TSC cloud whose leftmost point is
    /// unwrapped cell `i0`.
    #[inline]
    fn wrap3(&self, i0: i64) -> [usize; 3] {
        let next = |i: usize| if i + 1 == self.side { 0 } else { i + 1 };
        let a = i0.rem_euclid(self.side as i64) as usize;
        [a, next(a), next(next(a))]
    }

    /// Wrapped cell indices and weights of a particle's 27-point cloud.
    #[inline]
    fn cloud(&self, p: Vec3) -> ([[usize; 3]; 3], [[f64; 3]; 3]) {
        let ([ix, iy, iz], w) = tsc_weights([p.x, p.y, p.z], self.cells_per_unit);
        ([self.wrap3(ix), self.wrap3(iy), self.wrap3(iz)], w)
    }
}

/// Per-plane particle lists of [`assign`], kept between calls so a step
/// allocates nothing once they have grown to size.
#[derive(Debug, Default)]
pub(crate) struct PlaneLists {
    /// `ids[start[x]..start[x + 1]]` are the particles whose clouds
    /// touch x-plane `x`, in particle order.
    start: Vec<usize>,
    ids: Vec<u32>,
}

/// TSC mass assignment `ρ[c] = Σ_p m_p·W(c − x_p)/h³` into `rho`, which
/// is overwritten.
///
/// Plane-owned: a counting sort appends each particle, in particle
/// order, to the lists of the three x-planes its cloud touches; then one
/// task per plane zeroes it and deposits its list's contributions to
/// it. No cell is shared between tasks, so there is no scratch mesh and
/// no reduction, and a cell receives its contributions in particle
/// order — the order of the serial scatter loop, hence its bits.
pub(crate) fn assign(
    grid: Grid,
    lists: &mut PlaneLists,
    pos: &[Vec3],
    mass: &[f64],
    rho: &mut [f64],
) {
    let Grid { side, pitch, .. } = grid;
    assert_eq!(pos.len(), mass.len());
    assert_eq!(rho.len(), side * side * pitch);
    assert!(u32::try_from(pos.len()).is_ok(), "particle index overflow");
    // The distinct x-planes of a particle's cloud (on a 2-mesh the
    // third wraps onto the first).
    let planes_of = |p: &Vec3| {
        let [a, b, c] = grid.wrap3(tsc_axis(p.x, grid.cells_per_unit).0);
        [Some(a), Some(b), (c != a).then_some(c)]
    };
    lists.start.clear();
    lists.start.resize(side + 1, 0);
    for p in pos {
        for x in planes_of(p).into_iter().flatten() {
            lists.start[x + 1] += 1;
        }
    }
    for x in 0..side {
        lists.start[x + 1] += lists.start[x];
    }
    lists.ids.clear();
    lists.ids.resize(lists.start[side], 0);
    let mut cursor = lists.start.clone();
    for (i, p) in pos.iter().enumerate() {
        for x in planes_of(p).into_iter().flatten() {
            lists.ids[cursor[x]] = i as u32;
            cursor[x] += 1;
        }
    }

    let vol_inv = (grid.cells_per_unit as f64).powi(3); // 1/h³
    let (start, ids) = (&lists.start, &lists.ids);
    rho.par_chunks_mut(side * pitch)
        .enumerate()
        .for_each(|(x, plane)| {
            plane.fill(0.0);
            for &i in &ids[start[x]..start[x + 1]] {
                let ([cx, cy, cz], [wx, wy, wz]) = grid.cloud(pos[i as usize]);
                let amp = mass[i as usize] * vol_inv;
                for (_, &wxa) in cx.iter().zip(&wx).filter(|(&cx, _)| cx == x) {
                    for (&y, &wyb) in cy.iter().zip(&wy) {
                        let wxy = wxa * wyb * amp;
                        let row = &mut plane[y * pitch..][..side];
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
/// three components in one pass over `phi`. The wrapped neighbour rows
/// are picked once per row; the cell loops run over plain slices.
pub(crate) fn accel_from_potential(grid: Grid, phi: &[f64], acc: &mut [Vec<f64>; 3]) {
    let Grid { side: s, pitch, .. } = grid;
    assert_eq!(phi.len(), s * s * pitch);
    assert!(acc.iter().all(|a| a.len() == s * s * s));
    let inv12h = grid.cells_per_unit as f64 / 12.0;
    let diff = move |p2: f64, p1: f64, m1: f64, m2: f64| {
        let d = -p2 + 8.0 * p1 - 8.0 * m1 + m2;
        -d * inv12h
    };
    let diff_rows = |out: &mut [f64], p2: &[f64], p1: &[f64], m1: &[f64], m2: &[f64]| {
        for (o, (((&p2, &p1), &m1), &m2)) in out.iter_mut().zip(p2.iter().zip(p1).zip(m1).zip(m2)) {
            *o = diff(p2, p1, m1, m2);
        }
    };
    let row = |x: usize, y: usize| &phi[(x * s + y) * pitch..][..s];
    // i + d mod s for d ∈ {+2, +1, −1, −2}.
    let around = |i: usize| [(i + 2) % s, (i + 1) % s, (i + s - 1) % s, (i + s - 2) % s];
    let [ax, ay, az] = acc;
    let planes: Vec<_> = ax
        .chunks_exact_mut(s * s)
        .zip(ay.chunks_exact_mut(s * s))
        .zip(az.chunks_exact_mut(s * s))
        .collect();
    planes
        .into_par_iter()
        .enumerate()
        .for_each(|(x, ((px, py), pz))| {
            let [xp2, xp1, xm1, xm2] = around(x);
            for y in 0..s {
                let [yp2, yp1, ym1, ym2] = around(y);
                let out = y * s..(y + 1) * s;
                diff_rows(
                    &mut px[out.clone()],
                    row(xp2, y),
                    row(xp1, y),
                    row(xm1, y),
                    row(xm2, y),
                );
                diff_rows(
                    &mut py[out.clone()],
                    row(x, yp2),
                    row(x, yp1),
                    row(x, ym1),
                    row(x, ym2),
                );
                let (r, oz) = (row(x, y), &mut pz[out]);
                if s >= 4 {
                    diff_rows(&mut oz[2..s - 2], &r[4..], &r[3..], &r[1..], r);
                }
                for z in (0..s).filter(|&z| z < 2 || z + 2 >= s) {
                    let [zp2, zp1, zm1, zm2] = around(z);
                    oz[z] = diff(r[zp2], r[zp1], r[zm1], r[zm2]);
                }
            }
        });
}

/// TSC interpolation of one mesh field (rows `grid.pitch` apart) to the
/// particle positions.
pub(crate) fn gather_field(grid: Grid, field: &[f64], pos: &[Vec3]) -> Vec<f64> {
    pos.par_iter()
        .map(|&p| {
            let ([cx, cy, cz], [wx, wy, wz]) = grid.cloud(p);
            let mut v = 0.0;
            for (&x, &wxa) in cx.iter().zip(&wx) {
                for (&y, &wyb) in cy.iter().zip(&wy) {
                    let row = &field[(x * grid.side + y) * grid.pitch..][..grid.side];
                    let wxy = wxa * wyb;
                    for (&z, &wzc) in cz.iter().zip(&wz) {
                        v += wxy * wzc * row[z];
                    }
                }
            }
            v
        })
        .collect()
}

/// Fused TSC interpolation of the three acceleration meshes and the
/// potential: the cloud is computed once per particle instead of four
/// times. Each field keeps its own accumulator in the same gather
/// order, so every value is bit-identical to a [`gather_field`] of it.
pub(crate) fn gather_forces(
    grid: Grid,
    acc: &[Vec<f64>; 3],
    phi: &[f64],
    pos: &[Vec3],
) -> (Vec<Vec3>, Vec<f64>) {
    let s = grid.side;
    let rows: Vec<(Vec3, f64)> = pos
        .par_iter()
        .map(|&p| {
            let ([cx, cy, cz], [wx, wy, wz]) = grid.cloud(p);
            let mut a3 = Vec3::ZERO;
            let mut pot = 0.0;
            for (&x, &wxa) in cx.iter().zip(&wx) {
                for (&y, &wyb) in cy.iter().zip(&wy) {
                    let at = (x * s + y) * s;
                    let [ax, ay, az] = acc.each_ref().map(|m| &m[at..at + s]);
                    let ph = &phi[(x * s + y) * grid.pitch..][..s];
                    let wxy = wxa * wyb;
                    for (&z, &wzc) in cz.iter().zip(&wz) {
                        let w = wxy * wzc;
                        a3.x += w * ax[z];
                        a3.y += w * ay[z];
                        a3.z += w * az[z];
                        pot += w * ph[z];
                    }
                }
            }
            (a3, pot)
        })
        .collect();
    rows.into_iter().unzip()
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
            accel_from_potential(Grid::periodic(n), &phi, &mut got);
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
            accel_from_potential(grid, phi, &mut acc);
            acc
        };
        let plain = run(Grid::periodic(n), &phi);
        let wide = Grid {
            pitch: n + 2,
            ..Grid::periodic(n)
        };
        assert_eq!(plain, run(wide, &padded));
        let pos = rand_positions(50, 9);
        assert_eq!(
            gather_forces(Grid::periodic(n), &plain, &phi, &pos),
            gather_forces(wide, &plain, &padded, &pos)
        );
    }
}
