//! Golden hashes of every transform's result bits: FNV-1a over
//! `f64::to_bits` of each output, one hash per transform and size.
//! Recorded on the interleaved radix-2 loop before the butterflies
//! moved to split re/im panels; every butterfly width the CPU runs must
//! reproduce them, in debug and optimised builds alike.

use crate::{fft3d, fft3d_inverse, Cpx, Fft1d, Mesh3, RealFft3, SlabFft};
use greem_math::testutil::{Fnv1a, TestLcg};
use mpisim::{NetModel, World};

/// A plan of side `n` at every butterfly width this CPU runs.
fn plans(n: usize) -> Vec<(&'static str, Fft1d)> {
    Fft1d::new(n).at_each_width()
}

fn hash<'a>(vals: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h = Fnv1a::default();
    vals.into_iter().for_each(|v| h.u64(v.to_bits()));
    h.0
}

fn hash_cpx(vals: &[Cpx]) -> u64 {
    hash(vals.iter().flat_map(|c| [&c.re, &c.im]))
}

fn rand_cpx(len: usize, seed: u64) -> Vec<Cpx> {
    let mut rng = TestLcg::new(seed);
    (0..len)
        .map(|_| Cpx::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
        .collect()
}

/// Fails with the whole table, so a deliberate re-recording is one
/// copy from the message.
fn check(what: &str, width: &str, got: &[u64], want: &[u64]) {
    assert!(
        got == want,
        "{what} at width {width}: got {got:#018x?}, pinned {want:#018x?}"
    );
}

const REAL_SIDES: [usize; 6] = [2, 4, 8, 16, 64, 128];

/// `RealFft3::{forward, inverse, convolve}` per side: the forward
/// spectrum (whole padded buffer), the inverse of that spectrum and a
/// convolution with an even kernel (the `n` reals of every row).
const REAL_GOLDEN: [[u64; 6]; 3] = [
    [
        0x762b7c0ea3139143,
        0x16347dbb39aad01f,
        0xa615f60fbfa8aff0,
        0x457ff26edfc43309,
        0x57c5537343e84feb,
        0x7cfced0168f69335,
    ],
    [
        0x64ff798e9d192f79,
        0x28c1e194738bc3e8,
        0x7c51b7dd862b9e01,
        0xfec2a2914e0e3308,
        0x7bb36f10f1813fea,
        0x141cb643048f9c38,
    ],
    [
        0x7821b4c0c1c4f53e,
        0x807c31aa88c84001,
        0x1c8fcd26eb6428d0,
        0xf545e12ca13b5357,
        0x3d484cecfa601ed4,
        0xc3c6a858a5c3efba,
    ],
];

#[test]
fn real_transforms_keep_their_bits() {
    let mut widths = Vec::new();
    for n in REAL_SIDES {
        let (full, half) = (plans(n), plans(n / 2));
        let rows = |buf: &[f64]| hash(buf.chunks_exact(n + 2).flat_map(|r| &r[..n]));
        let h = n / 2 + 1;
        let fold = |i: usize| i.min(n - i);
        let table: Vec<f64> = (0..h * h * h)
            .map(|i| 1.0 / (1.0 + (i / (h * h) + 2 * (i / h % h) + 3 * (i % h)) as f64))
            .collect();
        let kernel = |x: usize, y: usize| &table[(fold(x) * h + fold(y)) * h..][..h];
        let mut rng = TestLcg::new(7 + n as u64);
        let mut input = vec![0.0; n * n * (n + 2)];
        for row in input.chunks_exact_mut(n + 2) {
            row[..n].iter_mut().for_each(|v| *v = rng.next_f64() - 0.5);
        }
        for (i, ((name, full), (_, half))) in full.into_iter().zip(half).enumerate() {
            let plan = RealFft3 { full, half };
            let mut buf = input.clone();
            plan.forward(&mut buf);
            let fwd = hash(&buf);
            plan.inverse(&mut buf);
            let inv = rows(&buf);
            let mut buf = input.clone();
            plan.convolve(&mut buf, kernel);
            if widths.len() <= i {
                widths.push((name, [[0; 6]; 3]));
            }
            let k = REAL_SIDES.iter().position(|&s| s == n).unwrap();
            let got = &mut widths[i].1;
            (got[0][k], got[1][k], got[2][k]) = (fwd, inv, rows(&buf));
        }
    }
    for (name, got) in widths {
        check(
            "RealFft3",
            name,
            got.as_flattened(),
            REAL_GOLDEN.as_flattened(),
        );
    }
}

const COMPLEX_SIDES: [usize; 3] = [2, 8, 32];

/// `fft3d` and then `fft3d_inverse` of its output, per side.
const COMPLEX_GOLDEN: [u64; 6] = [
    0xc2a27aa1232e22df,
    0x151e2a98e5bdc8da,
    0xacf550bf7abd4f74,
    0x80443a113422e5c4,
    0x37acd197f4ed8ace,
    0x28871fe5f89843fb,
];

#[test]
fn complex_transforms_keep_their_bits() {
    let mut widths: Vec<(&str, Vec<u64>)> = Vec::new();
    for n in COMPLEX_SIDES {
        let input = rand_cpx(n * n * n, 11 + n as u64);
        for (i, (name, plan)) in plans(n).into_iter().enumerate() {
            let mut mesh = Mesh3::zeros(n);
            mesh.data_mut().copy_from_slice(&input);
            fft3d(&mut mesh, &plan);
            let fwd = hash_cpx(mesh.data());
            fft3d_inverse(&mut mesh, &plan);
            if widths.len() <= i {
                widths.push((name, Vec::new()));
            }
            widths[i].1.extend([fwd, hash_cpx(mesh.data())]);
        }
    }
    for (name, got) in widths {
        check("fft3d", name, &got, &COMPLEX_GOLDEN);
    }
}

const SLAB_RANKS: [usize; 3] = [1, 2, 3];

/// `SlabFft::forward` (every rank's k-slab in rank order) and then
/// `backward` of that, per rank count, at n = 16.
const SLAB_GOLDEN: [u64; 6] = [
    0x867ccddb53e2a325,
    0xa1fe205724a64535,
    0x867ccddb53e2a325,
    0xa1fe205724a64535,
    0x867ccddb53e2a325,
    0xa1fe205724a64535,
];

#[test]
fn slab_transforms_keep_their_bits() {
    let n = 16;
    let input = rand_cpx(n * n * n, 5);
    for (name, plan) in plans(n) {
        let mut got = Vec::new();
        for p in SLAB_RANKS {
            let out = World::new(p).with_net(NetModel::free()).run(|ctx, world| {
                let mut fft = SlabFft::new(n, world.clone());
                fft.plan = plan.clone();
                let (x0, nxl) = fft.my_planes();
                let k = fft.forward(ctx, input[x0 * n * n..(x0 + nxl) * n * n].to_vec());
                let back = fft.backward(ctx, k.clone());
                (k, back)
            });
            let (k, back): (Vec<_>, Vec<_>) = out.into_iter().unzip();
            got.extend([hash_cpx(&k.concat()), hash_cpx(&back.concat())]);
        }
        check("SlabFft", name, &got, &SLAB_GOLDEN);
    }
}
