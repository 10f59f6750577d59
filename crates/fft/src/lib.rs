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
//!   twiddles (power-of-two sizes, like the paper's meshes), run two
//!   stages at a time on panels of up to 16 lines with split real and
//!   imaginary parts, each pass compiled at the widest vector width the
//!   CPU has (every axis of every transform below goes through these
//!   panels),
//! * [`RealFft3`] — real ↔ half-complex 3-D transforms in place on a
//!   padded `n × n × (n+2)` real buffer, and the k-space convolution
//!   built on them: every PM solver's transform (serial for both
//!   boundaries, and slab-decomposed below), and the cosmology crate's
//!   (initial conditions, power spectrum) — the density is real, so
//!   half the modes and half the bytes,
//! * [`SlabFft`] — [`RealFft3::convolve`] over `mpisim`, from its own
//!   passes and bit for bit, with FFTW-MPI's r2c data layout: x-plane
//!   slabs per rank, one all-to-all transpose of half-complex rows to a
//!   y-distributed layout and back, and the same "at most `n` ranks can
//!   participate" restriction,
//! * [`fft3d`] — in-place complex 3-D transforms, bit-identical to
//!   line-by-line `Fft1d` calls: no solver runs them; they are the repo
//!   benchmark's FFT probe and the reference in tests.

// One `unsafe` block, x86 only: the call into the AVX2 / AVX-512 copy
// of a pass that run-time detection selected (`fft1d::wide`).
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
