//! Slab-decomposed parallel 3-D FFT over `mpisim`.
//!
//! This reproduces the data layout of FFTW 3.3's MPI transform, which is
//! what GreeM used (§II-B): each participating rank owns a contiguous
//! block of x-planes ("slabs") of the n³ mesh, so **at most `n` ranks can
//! participate** — on the paper's 4096³ mesh only 4096 of 82944 processes
//! run the FFT, which is why the mesh must be *converted* between the
//! particle domain decomposition and the slab decomposition, and why that
//! conversion (not the FFT itself) became the bottleneck the relay mesh
//! method addresses.
//!
//! Algorithm (the standard transpose method):
//!
//! 1. 2-D FFT (y, z) of each locally-owned x-plane,
//! 2. all-to-all transpose within the FFT communicator to a y-slab
//!    ("transposed") layout,
//! 3. 1-D FFT along x.
//!
//! The k-space result stays in the transposed layout `B[y_loc][x][z]`
//! (again FFTW-MPI's convention, `FFTW_MPI_TRANSPOSED_OUT`), which is
//! where the PM solver multiplies by the Green's function; the backward
//! transform undoes the three steps and normalises by `1/n³`.

use mpisim::{Comm, Ctx};

use crate::columns::{columns_pass, conj_if};
use crate::complex::Cpx;
use crate::fft1d::Fft1d;
use crate::fft3d::plane_yz;

/// Block distribution of `n` planes over `p` ranks: returns
/// `(first_plane, count)` for rank `r`. The first `n % p` ranks get one
/// extra plane; ranks beyond `n` get zero.
pub fn slab_planes(n: usize, p: usize, r: usize) -> (usize, usize) {
    assert!(r < p);
    let base = n / p;
    let rem = n % p;
    let count = base + usize::from(r < rem);
    let start = r * base + r.min(rem);
    (start, count)
}

/// The rank owning plane `x` under [`slab_planes`]' block distribution.
pub fn slab_owner(n: usize, p: usize, x: usize) -> usize {
    assert!(x < n);
    let base = n / p;
    let rem = n % p;
    let boundary = (base + 1) * rem;
    if x < boundary {
        x / (base + 1)
    } else {
        rem + (x - boundary) / base.max(1)
    }
}

/// A parallel 3-D FFT plan bound to an FFT communicator.
///
/// Every rank of `comm` must call [`SlabFft::forward`] / `backward`
/// collectively. Slabs are `(x, y, z)` row-major with `z` fastest;
/// k-space buffers are `(y, x, z)` row-major ("transposed" layout).
pub struct SlabFft {
    n: usize,
    pub(crate) plan: Fft1d,
    comm: Comm,
}

impl SlabFft {
    /// Plan a parallel transform of side `n` over the given communicator.
    /// `comm.size()` may not exceed `n` (1-D slab limitation).
    pub fn new(n: usize, comm: Comm) -> Self {
        assert!(
            comm.size() <= n,
            "slab FFT: {} ranks > {} planes (the 1-D decomposition limit the paper works around)",
            comm.size(),
            n
        );
        SlabFft {
            n,
            plan: Fft1d::new(n),
            comm,
        }
    }

    /// Mesh side.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The FFT communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// This rank's x-plane range `(first, count)` in real space.
    pub fn my_planes(&self) -> (usize, usize) {
        slab_planes(self.n, self.comm.size(), self.comm.rank())
    }

    /// This rank's y-plane range `(first, count)` in the transposed
    /// k-space layout.
    pub fn my_kplanes(&self) -> (usize, usize) {
        // Same block distribution applied to y.
        self.my_planes()
    }

    /// Forward transform. `slab` holds this rank's x-planes,
    /// `nx_local × n × n` complex values, and is consumed. Returns the
    /// k-space data in transposed layout, `ny_local × n × n`.
    pub fn forward(&self, ctx: &mut Ctx, mut slab: Vec<Cpx>) -> Vec<Cpx> {
        let n = self.n;
        let (_, nxl) = self.my_planes();
        assert_eq!(slab.len(), nxl * n * n, "slab buffer size mismatch");
        // (1) 2-D FFT in each x-plane: rows along z, then strided along y.
        self.fft_planes_yz(&mut slab, false);
        // (2) transpose x-slabs -> y-slabs.
        let mut t = self.transpose(ctx, &slab);
        // (3) FFT along x (stride n in the transposed layout).
        self.fft_lines_x(&mut t, false);
        t
    }

    /// Backward transform of a transposed-layout k-space buffer; returns
    /// this rank's x-planes, normalised so `backward(forward(x)) == x`.
    pub fn backward(&self, ctx: &mut Ctx, mut kslab: Vec<Cpx>) -> Vec<Cpx> {
        let n = self.n;
        let (_, nyl) = self.my_kplanes();
        assert_eq!(kslab.len(), nyl * n * n, "k-slab buffer size mismatch");
        self.fft_lines_x(&mut kslab, true);
        let mut slab = self.transpose(ctx, &kslab);
        self.fft_planes_yz(&mut slab, true);
        slab
    }

    /// 2-D transforms (y and z) of every local x-plane; the inverse
    /// conjugates into the z rows and, with the `1/n³`, after the y
    /// columns (the conjugations between cancel).
    fn fft_planes_yz(&self, slab: &mut [Cpx], inverse: bool) {
        let (n, mut scratch) = (self.n, Vec::new());
        for plane in slab.chunks_exact_mut(n * n) {
            plane_yz(&self.plan, plane, &mut scratch, inverse);
        }
        if inverse {
            let s = 1.0 / (n as f64).powi(3);
            slab.iter_mut().for_each(|v| *v = v.conj().scale(s));
        }
    }

    /// 1-D transforms along x in the transposed layout `B[yl][x][z]`:
    /// each `[x][z]` plane's columns.
    fn fft_lines_x(&self, t: &mut [Cpx], inverse: bool) {
        let n = self.n;
        let mut scratch = Vec::new();
        for plane in t.chunks_exact_mut(n * n) {
            let mut rows: Vec<&mut [Cpx]> = plane.chunks_exact_mut(n).collect();
            let maps = (conj_if(inverse), conj_if(inverse));
            columns_pass(&self.plan, &mut rows, n, &mut scratch, maps, |p, _| {
                p.fft(&self.plan)
            });
        }
    }

    /// The all-to-all between the two layouts, either way round: this
    /// rank's block of the distributed axis `a` (x in real space, y in
    /// k-space) × all `n` planes of the middle axis `b` becomes all `n`
    /// of `a` × its block of `b` — `[a][b][z]` to `[b][a][z]`. Rank `d`
    /// is sent our rows restricted to its block. Both layouts use the
    /// same block distribution, so this one function is both transposes.
    fn transpose(&self, ctx: &mut Ctx, src: &[Cpx]) -> Vec<Cpx> {
        let (n, p) = (self.n, self.comm.size());
        let (_, mine) = self.my_planes();
        let send = (0..p)
            .map(|d| {
                let (b0, nb) = slab_planes(n, p, d);
                let mut buf = Vec::with_capacity(mine * nb * n);
                for al in 0..mine {
                    buf.extend_from_slice(&src[(al * n + b0) * n..(al * n + b0 + nb) * n]);
                }
                buf
            })
            .collect();
        let recv = self.comm.alltoallv(ctx, send);
        // From rank s: its block of a, ordered (a, our b, z).
        let mut dst = vec![Cpx::ZERO; mine * n * n];
        for (s, buf) in recv.iter().enumerate() {
            let (a0, na) = slab_planes(n, p, s);
            assert_eq!(buf.len(), na * mine * n, "transpose unpack size");
            for (i, row) in buf.chunks_exact(n).enumerate() {
                let (a, bl) = (a0 + i / mine, i % mine);
                dst[(bl * n + a) * n..][..n].copy_from_slice(row);
            }
        }
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft3d::{fft3d, Mesh3};
    use mpisim::{NetModel, World};

    fn rand_mesh(n: usize, seed: u64) -> Mesh3 {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let vals: Vec<f64> = (0..n * n * n).map(|_| next()).collect();
        Mesh3::from_real(n, &vals)
    }

    #[test]
    fn slab_planes_partition_exactly() {
        for n in [8, 16, 13] {
            for p in 1..=n {
                let mut covered = 0;
                let mut next = 0;
                for r in 0..p {
                    let (s, c) = slab_planes(n, p, r);
                    assert_eq!(s, next, "blocks must be contiguous");
                    next += c;
                    covered += c;
                }
                assert_eq!(covered, n, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn slab_owner_matches_planes() {
        for n in [8usize, 16, 13] {
            for p in 1..=n {
                for r in 0..p {
                    let (s, c) = slab_planes(n, p, r);
                    for x in s..s + c {
                        assert_eq!(slab_owner(n, p, x), r, "n={n} p={p} x={x}");
                    }
                }
            }
        }
    }

    /// The parallel forward transform must agree with the serial one for
    /// every rank count that divides or ragged-divides the mesh.
    #[test]
    fn parallel_matches_serial() {
        let n = 8;
        let mesh = rand_mesh(n, 3);
        let mut want = mesh.clone();
        fft3d(&mut want, &Fft1d::new(n));

        for p in [1usize, 2, 3, 4, 8] {
            let mesh = mesh.clone();
            let want = want.clone();
            let results = World::new(p).with_net(NetModel::free()).run(|ctx, world| {
                let fft = SlabFft::new(n, world.clone());
                let (x0, nxl) = fft.my_planes();
                let slab = mesh.data()[x0 * n * n..(x0 + nxl) * n * n].to_vec();
                let k = fft.forward(ctx, slab);
                let (y0, nyl) = fft.my_kplanes();
                // Check k[yl][x][z] against serial want[x][y][z].
                let mut max_err = 0.0f64;
                for yl in 0..nyl {
                    for x in 0..n {
                        for z in 0..n {
                            let got = k[(yl * n + x) * n + z];
                            let exp = want.get(x, y0 + yl, z);
                            max_err = max_err.max((got - exp).abs());
                        }
                    }
                }
                max_err
            });
            for err in results {
                assert!(err < 1e-9, "p={p}: err {err}");
            }
        }
    }

    #[test]
    fn forward_backward_roundtrip() {
        let n = 8;
        let mesh = rand_mesh(n, 17);
        for p in [1usize, 3, 4] {
            let mesh = mesh.clone();
            let errs = World::new(p).with_net(NetModel::free()).run(|ctx, world| {
                let fft = SlabFft::new(n, world.clone());
                let (x0, nxl) = fft.my_planes();
                let slab = mesh.data()[x0 * n * n..(x0 + nxl) * n * n].to_vec();
                let orig = slab.clone();
                let k = fft.forward(ctx, slab);
                let back = fft.backward(ctx, k);
                back.iter()
                    .zip(&orig)
                    .map(|(a, b)| (*a - *b).abs())
                    .fold(0.0, f64::max)
            });
            for err in errs {
                assert!(err < 1e-11, "p={p}: roundtrip err {err}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn too_many_ranks_rejected() {
        World::new(9).with_net(NetModel::free()).run(|_ctx, world| {
            let _ = SlabFft::new(8, world.clone());
        });
    }
}
