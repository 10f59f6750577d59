//! Deterministic random-snapshot helpers for tests.
//!
//! Nearly every crate's unit tests need "n reproducible points in the
//! unit cube" and had grown its own copy of the same LCG; this module
//! is the single shared definition. It is an ordinary `pub` module
//! rather than `#[cfg(test)]` because downstream crates' test builds
//! link greem-math compiled *without* cfg(test) — the cost is a few
//! trivially inlinable functions in release builds.
//!
//! The generator is Knuth's MMIX LCG (the constants every copy used),
//! taking the top 53 bits so the stream is identical to the historical
//! in-test helpers: existing seeds keep producing the exact snapshots
//! their assertions were tuned on.

use crate::vec3::Vec3;

/// The MMIX linear congruential generator behind all test snapshots.
#[derive(Debug, Clone)]
pub struct TestLcg {
    state: u64,
}

impl TestLcg {
    /// A generator whose first output matches the historical helpers'
    /// first output for the same `seed`.
    pub fn new(seed: u64) -> Self {
        TestLcg { state: seed }
    }

    /// Next uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Next point uniform in the unit cube.
    pub fn next_vec3(&mut self) -> Vec3 {
        Vec3::new(self.next_f64(), self.next_f64(), self.next_f64())
    }
}

/// `n` reproducible points uniform in the unit cube.
pub fn rand_positions(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = TestLcg::new(seed);
    (0..n).map(|_| rng.next_vec3()).collect()
}

/// `n` reproducible points uniform in `[0, scale)³`.
pub fn rand_positions_scaled(n: usize, seed: u64, scale: f64) -> Vec<Vec3> {
    let mut rng = TestLcg::new(seed);
    (0..n).map(|_| rng.next_vec3() * scale).collect()
}

/// The digest of the golden-hash tests, which pin result *bits*
/// (`f64::to_bits`) across refactors.
pub use crate::Fnv1a;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vector() {
        // FNV-1a 64 of the single byte 'a' is 0xaf63dc4c8601ec8c; the
        // seven zero bytes that follow in `u64`'s encoding are folded
        // the same way.
        let mut h = Fnv1a::default();
        h.u64(b'a' as u64);
        let mut want = 0xaf63_dc4c_8601_ec8cu64;
        for _ in 0..7 {
            want = want.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.0, want);
    }

    #[test]
    fn stream_matches_historical_inline_helper() {
        // The exact loop the per-crate helpers ran, for seed 3.
        let mut s = 3u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let want: Vec<Vec3> = (0..10).map(|_| Vec3::new(next(), next(), next())).collect();
        assert_eq!(rand_positions(10, 3), want);
    }

    #[test]
    fn scaled_positions_stay_in_range() {
        for p in rand_positions_scaled(100, 7, 2.5) {
            assert!(p.x >= 0.0 && p.x < 2.5);
            assert!(p.y >= 0.0 && p.y < 2.5);
            assert!(p.z >= 0.0 && p.z < 2.5);
        }
    }
}
