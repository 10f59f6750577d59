//! Test-support helpers shared by the kernel unit tests and the
//! randomized equivalence suite in `tests/simd_equivalence.rs`.
//!
//! An ordinary `pub` module rather than `#[cfg(test)]` for the same
//! reason as `greem_math::testutil`: the integration-test build links
//! this crate compiled without `cfg(test)`.

use greem_math::{ForceSplit, Vec3};

use crate::sources::SourceList;

/// The per-target error scale for kernel equivalence assertions: the
/// sum of the *Newtonian* magnitudes `m/(r² + ε²)` of every in-cutoff
/// interaction (with a hair of margin so a borderline ξ ≈ 2 source the
/// approximate kernel may include is budgeted too).
///
/// This is the natural scale of "≤ 2⁻ᵏ relative per interaction": each
/// factor of the kernel pipeline (rsqrt, polynomial, mask) carries a
/// relative error against this magnitude. A bound relative to the
/// *cutoff-suppressed* net force would be meaningless — g(ξ) → 0 at
/// ξ = 2, where any approximate-rsqrt kernel (the paper's included)
/// amplifies the seed error without bound, and opposing sources can
/// cancel the net force to zero exactly.
pub fn interaction_scale(split: &ForceSplit, target: Vec3, sources: &SourceList) -> f64 {
    let eps2 = split.eps * split.eps;
    let mut scale = 0.0;
    for j in 0..sources.len() {
        let r2 = (sources.pos(j) - target).norm2() + eps2;
        if r2 == 0.0 {
            continue;
        }
        let xi = 2.0 * r2.sqrt() / split.r_cut;
        if xi < 2.0 + 1e-6 {
            scale += sources.m[j].abs() / r2;
        }
    }
    scale
}

/// `vrsqrtps` is implementation-defined within its error bound (AMD's
/// table is not Intel's), and every later bit of an x86 variant follows
/// from the seed. The golden hashes were recorded on Intel hardware; on
/// a host that says it is something else they cannot be expected to
/// hold.
pub fn hardware_seed_is_the_recorded_one() -> bool {
    std::fs::read_to_string("/proc/cpuinfo").map_or(true, |s| s.contains("GenuineIntel"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_in_cutoff_newtonian_magnitudes() {
        let split = ForceSplit::new(0.2, 0.0);
        let sources: SourceList = [
            (Vec3::new(0.1, 0.0, 0.0), 2.0),  // inside: 2 / 0.01 = 200
            (Vec3::new(0.5, 0.0, 0.0), 10.0), // outside the cutoff
            (Vec3::ZERO, 3.0),                // self pair: skipped
        ]
        .into_iter()
        .collect();
        let s = interaction_scale(&split, Vec3::ZERO, &sources);
        assert!((s - 200.0).abs() < 1e-9, "scale {s}");
    }
}
