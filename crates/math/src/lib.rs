//! # greem-math
//!
//! Math substrate for the `greem-rs` TreePM reproduction of Ishiyama,
//! Nitadori & Makino, *"4.45 Pflops Astrophysical N-Body Simulation on K
//! computer — The Gravitational Trillion-Body Problem"* (SC12).
//!
//! This crate holds everything that is pure mathematics and shared by the
//! higher layers:
//!
//! * [`Vec3`] — the 3-D vector type used for positions, velocities and
//!   accelerations throughout the workspace.
//! * [`rsqrt`] — the fast approximate inverse square root with the paper's
//!   third-order (Householder) refinement (§II-A: an 8-bit hardware seed
//!   refined to 24-bit accuracy; we provide a software seed of comparable
//!   quality plus the identical refinement polynomial).
//! * [`cutoff`] — the S2 force-shape cutoff `g_P3M` of eq. (3), the S2
//!   density shape of eq. (1), and its Fourier transform used to build the
//!   PM Green's function.
//! * [`morton`] — 63-bit Morton (Z-order) keys used to sort particles for
//!   octree construction.
//! * [`aabb`] / [`periodic`] — axis-aligned boxes and minimum-image
//!   distance helpers for the periodic unit cube.
//! * [`stats`] — small streaming statistics used by the instrumentation
//!   that reproduces the paper's Table I row structure.
//! * [`testutil`] — the deterministic snapshot generator shared by the
//!   workspace's unit tests (one LCG instead of a copy per crate).
//! * [`Fnv1a`] — the workspace's one FNV-1a 64 hash: checkpoint
//!   trailers and golden-hash digests.

#![forbid(unsafe_code)]

pub mod aabb;
pub mod cutoff;
pub mod eigen;
pub mod morton;
pub mod periodic;
pub mod rsqrt;
pub mod stats;
pub mod testutil;
pub mod vec3;

pub use aabb::Aabb;
pub use cutoff::{g_p3m, h_p3m, h_p3m_fast, s2_density, s2_fourier, s2_self_potential, ForceSplit};
pub use eigen::{eigen_sym3, Eigen3, Sym3};
pub use morton::MortonKey;
pub use periodic::{min_image, min_image_in_box, min_image_vec, nearest_image, wrap01, wrap_unit};
pub use rsqrt::{rsqrt, rsqrt_exact, rsqrt_refine, rsqrt_seed};
pub use stats::OnlineStats;
pub use vec3::Vec3;

/// The gravitational constant in simulation units. The box is the unit
/// cube, the total mass is normalised by the caller, and G = 1, matching
/// the internal unit system of GreeM (Ishiyama et al. 2009, section 2).
pub const G_SIM: f64 = 1.0;

/// Floating-point operation count per pairwise particle-particle
/// interaction, following the paper's accounting (§II-A): the kernel
/// executes 17 FMA and 17 non-FMA operations per *two* interactions
/// (51 × 2 flops), i.e. 51 flops per interaction. All reported flop rates
/// in this reproduction use this constant, exactly like the paper.
pub const FLOPS_PER_INTERACTION: f64 = 51.0;

/// FNV-1a 64 over little-endian bytes: the checkpoint container's
/// trailer (`greem::io`) and the golden-hash tests' digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold in the bit pattern of each value.
    pub fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.u64(v.to_bits());
        }
    }
}
