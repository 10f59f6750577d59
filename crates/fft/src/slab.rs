//! Slab-decomposed parallel real ↔ half-complex convolution over `mpisim`.
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
//! [`SlabFft::convolve`] is [`RealFft3::convolve`] with its x lines on
//! other ranks: phase A (z rows, then y) on each local x-plane; one
//! all-to-all transpose of the padded half-complex rows (`n + 2` `f64`)
//! to FFTW-MPI's transposed-out layout `[y_loc][x][n + 2]`; phase B
//! (x, the kernel at the global `y`, inverse x) on each local y line;
//! the transpose back; phase C. Every 1-D line sees the serial
//! transform's values in its order, so the result equals
//! `RealFft3::convolve` bit for bit at any rank and thread count.

use mpisim::{Comm, Ctx};

use crate::real3d::RealFft3;

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

/// A distributed [`RealFft3::convolve`] bound to an FFT communicator.
///
/// Every rank of `comm` calls [`SlabFft::convolve`] collectively with
/// its block of x-planes ([`my_planes`](Self::my_planes)), `(x, y, z)`
/// row-major with `z` fastest.
pub struct SlabFft {
    pub(crate) plan: RealFft3,
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
            plan: RealFft3::new(n),
            comm,
        }
    }

    /// This rank's x-plane range `(first, count)` in real space, and its
    /// y-plane range in the transposed layout.
    pub fn my_planes(&self) -> (usize, usize) {
        slab_planes(self.plan.n(), self.comm.size(), self.comm.rank())
    }

    /// [`RealFft3::convolve`] of the distributed mesh: `slab` holds this
    /// rank's x-planes, `nx_local × n × n` reals; returns the same planes
    /// of the convolution.
    pub fn convolve<'k>(
        &self,
        ctx: &mut Ctx,
        slab: &[f64],
        kernel: impl Fn(usize, usize) -> &'k [f64] + Sync,
    ) -> Vec<f64> {
        let (n, ld) = (self.plan.n(), self.plan.row_len());
        let (y0, mine) = self.my_planes();
        assert_eq!(slab.len(), mine * n * n, "slab buffer size mismatch");
        let mut buf = vec![0.0; mine * n * ld];
        for (row, src) in buf.chunks_exact_mut(ld).zip(slab.chunks_exact(n)) {
            row[..n].copy_from_slice(src);
        }
        self.plan.yz_planes(&mut buf, false);
        let mut t = self.transpose(ctx, &buf);
        let mut rows: Vec<&mut [f64]> = t.chunks_exact_mut(ld).collect();
        self.plan.convolve_lines(&mut rows, y0, kernel);
        let mut buf = self.transpose(ctx, &t);
        self.plan.yz_planes(&mut buf, true);
        buf.chunks_exact(ld)
            .flat_map(|row| &row[..n])
            .copied()
            .collect()
    }

    /// The all-to-all between the two layouts, either way round: this
    /// rank's block of the distributed axis `a` (x in real space, y in
    /// k-space) × all `n` planes of the middle axis `b` becomes all `n`
    /// of `a` × its block of `b` — `[a][b][row]` to `[b][a][row]`, rows
    /// of `n + 2`. Rank `d` is sent our rows restricted to its block.
    /// Both layouts use the same block distribution, so this one
    /// function is both transposes.
    fn transpose(&self, ctx: &mut Ctx, src: &[f64]) -> Vec<f64> {
        let (n, ld, p) = (self.plan.n(), self.plan.row_len(), self.comm.size());
        let (_, mine) = self.my_planes();
        let send = (0..p)
            .map(|d| {
                let (b0, nb) = slab_planes(n, p, d);
                let mut buf = Vec::with_capacity(mine * nb * ld);
                for al in 0..mine {
                    buf.extend_from_slice(&src[(al * n + b0) * ld..(al * n + b0 + nb) * ld]);
                }
                buf
            })
            .collect();
        let recv = self.comm.alltoallv(ctx, send);
        // From rank s: its block of a, ordered (a, our b, row).
        let mut dst = vec![0.0; mine * n * ld];
        for (s, buf) in recv.iter().enumerate() {
            let (a0, na) = slab_planes(n, p, s);
            assert_eq!(buf.len(), na * mine * ld, "transpose unpack size");
            for (i, row) in buf.chunks_exact(ld).enumerate() {
                let (a, bl) = (a0 + i / mine, i % mine);
                dst[(bl * n + a) * ld..][..ld].copy_from_slice(row);
            }
        }
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{real_input, EvenKernel};
    use mpisim::{NetModel, World};

    /// Every rank's output of `SlabFft::convolve` on its planes of the
    /// padded mesh `input`, in rank order, and the bytes each one sent.
    fn slab_convolve(
        n: usize,
        p: usize,
        input: &[f64],
        kernel: &EvenKernel,
    ) -> Vec<(Vec<f64>, u64)> {
        World::new(p).with_net(NetModel::free()).run(|ctx, world| {
            let fft = SlabFft::new(n, world.clone());
            let (x0, nxl) = fft.my_planes();
            let rows = input[x0 * n * (n + 2)..(x0 + nxl) * n * (n + 2)].chunks_exact(n + 2);
            let slab: Vec<f64> = rows.flat_map(|r| &r[..n]).copied().collect();
            let before = ctx.comm_stats().bytes_sent;
            let out = fft.convolve(ctx, &slab, |x, y| kernel.row(x, y));
            (out, ctx.comm_stats().bytes_sent - before)
        })
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

    /// The distributed convolution is the serial one, bit for bit, for
    /// every rank count that divides or ragged-divides the mesh.
    #[test]
    fn convolve_equals_serial_bitwise() {
        for n in [8, 16] {
            let (kernel, input) = (EvenKernel::new(n), real_input(n));
            let mut want = input.clone();
            RealFft3::new(n).convolve(&mut want, |x, y| kernel.row(x, y));
            let want: Vec<u64> = want
                .chunks_exact(n + 2)
                .flat_map(|r| &r[..n])
                .map(|v| v.to_bits())
                .collect();
            for p in [1, 2, 3, 5, 6, n] {
                let got: Vec<u64> = slab_convolve(n, p, &input, &kernel)
                    .into_iter()
                    .flat_map(|(out, _)| out)
                    .map(f64::to_bits)
                    .collect();
                assert!(got == want, "n={n} p={p}: slab convolution differs");
            }
        }
    }

    /// The two transposes carry half-complex rows, `n + 2` `f64` each:
    /// `2 · n² · (n + 2) · 8` bytes summed over ranks, self-sends
    /// included — against `32 · n³` for complex ones.
    #[test]
    fn convolve_sends_the_half_complex_transposes_only() {
        let n = 16;
        let (kernel, input) = (EvenKernel::new(n), real_input(n));
        for p in [1, 2, 3] {
            let sent: u64 = slab_convolve(n, p, &input, &kernel)
                .iter()
                .map(|r| r.1)
                .sum();
            assert_eq!(sent, 16 * (n * n * (n + 2)) as u64, "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "slab FFT: 9 ranks > 8 planes")]
    fn too_many_ranks_rejected() {
        World::new(9).with_net(NetModel::free()).run(|_ctx, world| {
            let _ = SlabFft::new(8, world.clone());
        });
    }
}
