//! Rectangular local meshes with ghost layers.
//!
//! Each process's PM workspace is "the mesh that covers only its own
//! domain … but contains some ghost layer which is needed according to
//! an adopted interpolation scheme" (§II-B, fig. 4). Cells are indexed
//! in *unwrapped* global coordinates — ghost cells simply extend past
//! `[0, n)` and wrap when data moves between ranks, which keeps the
//! assignment and interpolation loops free of modular arithmetic.

/// An integer cell box `[lo, hi)` per axis, in unwrapped global cell
/// coordinates (negative / ≥ n values are periodic ghosts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellBox {
    pub lo: [i64; 3],
    pub hi: [i64; 3],
}

impl CellBox {
    /// A box from corners; `lo ≤ hi` in every axis.
    pub fn new(lo: [i64; 3], hi: [i64; 3]) -> Self {
        assert!(
            (0..3).all(|i| lo[i] <= hi[i]),
            "invalid CellBox {lo:?}..{hi:?}"
        );
        CellBox { lo, hi }
    }

    /// The cells whose TSC clouds can receive mass from particles inside
    /// the floating-point domain `[dlo, dhi)` (box units) on an `n`-mesh:
    /// the domain's cell cover padded by one cell each side.
    pub fn covering_domain(dlo: [f64; 3], dhi: [f64; 3], n: usize) -> Self {
        let mut lo = [0i64; 3];
        let mut hi = [0i64; 3];
        for i in 0..3 {
            // Nearest grid point of the leftmost particle is
            // round(dlo·n) ≥ dlo·n − 1/2; TSC reaches one further.
            lo[i] = (dlo[i] * n as f64).round() as i64 - 1;
            hi[i] = (dhi[i] * n as f64).round() as i64 + 2;
        }
        CellBox::new(lo, hi)
    }

    /// The local mesh of rank `rank` of `p` under a 1-D cut of an
    /// `n`-mesh: an x-stripe of `n/p` planes (at least one), whole in y
    /// and z, with one ghost cell on every side.
    pub fn x_stripe(rank: usize, p: usize, n: usize) -> Self {
        let (r, w, n) = (rank as i64, (n / p).max(1) as i64, n as i64);
        CellBox::new([r * w, 0, 0], [(r + 1) * w, n, n]).grow(1)
    }

    /// Extent per axis.
    pub fn dims(&self) -> [usize; 3] {
        [0, 1, 2].map(|i| (self.hi[i] - self.lo[i]) as usize)
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        let d = self.dims();
        d[0] * d[1] * d[2]
    }

    /// True for a degenerate box.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership in unwrapped coordinates.
    #[inline]
    pub fn contains(&self, c: [i64; 3]) -> bool {
        (0..3).all(|i| c[i] >= self.lo[i] && c[i] < self.hi[i])
    }

    /// Flat index of an unwrapped cell (must be inside).
    #[inline]
    pub fn idx(&self, c: [i64; 3]) -> usize {
        debug_assert!(self.contains(c), "cell {c:?} outside {self:?}");
        let d = self.dims();
        (((c[0] - self.lo[0]) as usize * d[1]) + (c[1] - self.lo[1]) as usize) * d[2]
            + (c[2] - self.lo[2]) as usize
    }

    /// The box expanded by `g` ghost cells on every side.
    pub fn grow(&self, g: i64) -> CellBox {
        CellBox::new(self.lo.map(|l| l - g), self.hi.map(|h| h + g))
    }

    /// Pack as 6 f64 values (message headers).
    pub fn pack(&self) -> [f64; 6] {
        [
            self.lo[0] as f64,
            self.lo[1] as f64,
            self.lo[2] as f64,
            self.hi[0] as f64,
            self.hi[1] as f64,
            self.hi[2] as f64,
        ]
    }

    /// Inverse of [`CellBox::pack`].
    pub fn unpack(v: &[f64]) -> CellBox {
        CellBox::new(
            [0, 1, 2].map(|i| v[i] as i64),
            [3, 4, 5].map(|i| v[i] as i64),
        )
    }
}

/// Split the unwrapped range `[lo, hi)` into maximal segments that map
/// contiguously into `[0, n)` under wrapping. Yields
/// `(unwrapped_start, wrapped_start, len)`.
pub fn wrapped_runs(lo: i64, hi: i64, n: i64) -> Vec<(i64, i64, i64)> {
    assert!(n > 0);
    let mut out = Vec::new();
    let mut u = lo;
    while u < hi {
        let w = u.rem_euclid(n);
        let len = (n - w).min(hi - u);
        out.push((u, w, len));
        u += len;
    }
    out
}

/// A scalar field on a [`CellBox`], row-major with z fastest.
#[derive(Debug, Clone)]
pub struct LocalMesh {
    pub bx: CellBox,
    pub data: Vec<f64>,
}

impl LocalMesh {
    /// A zero-filled mesh over a box.
    pub fn zeros(bx: CellBox) -> Self {
        LocalMesh {
            data: vec![0.0; bx.len()],
            bx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_len_idx_roundtrip() {
        let b = CellBox::new([-1, 2, 0], [3, 5, 4]);
        assert_eq!(b.dims(), [4, 3, 4]);
        assert_eq!(b.len(), 48);
        let mut seen = [false; 48];
        for x in -1..3 {
            for y in 2..5 {
                for z in 0..4 {
                    let i = b.idx([x, y, z]);
                    assert!(!seen[i]);
                    seen[i] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn covering_domain_covers_tsc_reach() {
        let n = 16;
        let b = CellBox::covering_domain([0.25, 0.25, 0.25], [0.5, 0.5, 0.5], n);
        // Particle at 0.25 has nearest point 4, touches 3..=5; at 0.5⁻
        // nearest point 8, touches 7..=9.
        assert!(b.lo.iter().all(|&l| l <= 3));
        assert!(b.hi.iter().all(|&h| h >= 10));
    }

    #[test]
    fn grow_adds_ghosts() {
        let b = CellBox::new([0, 0, 0], [4, 4, 4]).grow(2);
        assert_eq!(b.lo, [-2, -2, -2]);
        assert_eq!(b.hi, [6, 6, 6]);
    }

    #[test]
    fn pack_unpack() {
        let b = CellBox::new([-3, 0, 17], [5, 2, 33]);
        assert_eq!(CellBox::unpack(&b.pack()), b);
    }

    #[test]
    fn wrapped_runs_cover_and_wrap() {
        // [-2, 3) over n=8: [-2,0) -> wrapped 6..8, [0,3) -> 0..3.
        let runs = wrapped_runs(-2, 3, 8);
        assert_eq!(runs, vec![(-2, 6, 2), (0, 0, 3)]);
        // A range longer than the box wraps repeatedly (domain ≈ box +
        // ghosts).
        let runs = wrapped_runs(-1, 10, 8);
        let total: i64 = runs.iter().map(|r| r.2).sum();
        assert_eq!(total, 11);
        for (u, w, len) in runs {
            assert!(w >= 0 && w + len <= 8);
            assert_eq!(u.rem_euclid(8), w);
        }
    }

    #[test]
    fn x_stripe_is_a_one_d_cut_with_one_ghost_cell() {
        // 16 planes over 4 ranks: 4 each, plus a ghost plane either side.
        assert_eq!(
            CellBox::x_stripe(2, 4, 16),
            CellBox::new([7, -1, -1], [13, 17, 17])
        );
        // More ranks than planes: one plane each.
        assert_eq!(CellBox::x_stripe(5, 12, 8).dims(), [3, 10, 10]);
    }
}
