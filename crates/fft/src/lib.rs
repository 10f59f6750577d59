//! # greem-fft — from-scratch FFTs for the PM gravity solver
//!
//! The paper's long-range (PM) force is solved by FFT on a 4096³ mesh
//! using "the MPI version of the FFTW 3.3 library", whose parallel
//! transform supports **only a 1-D slab decomposition** (§II-B) — the
//! property that caps FFT parallelism at `N_PM` planes (4096 ranks out of
//! 82944) and motivates the paper's relay mesh method.
//!
//! We rebuild that substrate from scratch:
//!
//! * [`Cpx`] — a minimal complex number,
//! * [`Fft1d`] — an iterative radix-2 Cooley-Tukey plan with precomputed
//!   twiddles (power-of-two sizes, like the paper's meshes), run on
//!   panels of up to 16 lines with split real and imaginary parts, at the
//!   widest vector width the CPU has (every axis of every transform
//!   below goes through these panels),
//! * [`RealFft3`] — real ↔ half-complex 3-D transforms in place on a
//!   padded `n × n × (n+2)` real buffer, and the k-space convolution
//!   built on them: the periodic PM solver's transform (the density is
//!   real, so half the modes and half the bytes),
//! * [`fft3d`] — in-place complex 3-D transforms, bit-identical to
//!   line-by-line `Fft1d` calls: the isolated solver's and the initial
//!   conditions' transform, and the reference in tests,
//! * [`SlabFft`] — the parallel 3-D FFT over `mpisim` with exactly
//!   FFTW-MPI's data layout: contiguous x-plane slabs per rank, one
//!   all-to-all transpose to an intermediate y-distributed layout, and
//!   the same "at most `n` ranks can participate" restriction.

// One `unsafe` block, x86 only: the call into the AVX2 / AVX-512 copy
// of the butterflies that run-time detection selected (`fft1d::wide`).
#![deny(unsafe_code)]

mod columns;
pub mod complex;
pub mod fft1d;
pub mod fft3d;
#[cfg(test)]
mod golden;
pub mod real3d;
pub mod slab;

pub use complex::Cpx;
pub use fft1d::Fft1d;
pub use fft3d::{fft3d, fft3d_inverse, Mesh3};
pub use real3d::RealFft3;
pub use slab::{slab_owner, slab_planes, SlabFft};
