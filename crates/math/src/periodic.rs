//! Minimum-image helpers for the periodic unit cube.
//!
//! The paper's simulations use the periodic boundary condition (§I): the
//! computational domain is the unit cube, conceptually tiled to fill
//! space. Every pairwise displacement inside the short-range solver must
//! therefore be taken to the nearest periodic image, and positions are
//! kept wrapped into `[0, 1)`.

use crate::vec3::Vec3;

// The default build targets baseline x86-64, which has no `roundsd`, so
// `f64::floor` and `f64::round` are *calls* into libm — three per visited
// node and three per list entry of the tree walk, before the forms below
// replaced them. Near the unit box both functions take one of the values
// −1, 0, 1, which two compares select exactly; everything else (far
// images, NaN) still goes to libm, so every input keeps its old bits.

/// `floor(s)` for `s ∈ [−1, 2)`, bit for bit except that `−0.0` gives
/// `+0.0` where libm gives `−0.0`.
#[inline(always)]
fn floor_select(s: f64) -> f64 {
    (s >= 1.0) as u8 as f64 - (s < 0.0) as u8 as f64
}

/// `floor(s)` for any `s`, with [`floor_select`]'s one exception.
#[inline(always)]
fn floor_near_unit(s: f64) -> f64 {
    if (-1.0..2.0).contains(&s) {
        floor_select(s)
    } else {
        floor_libm(s)
    }
}

/// Out of line and cold: a call clobbers every vector register, and the
/// in-range path should not pay spills for one it never makes.
#[cold]
#[inline(never)]
fn floor_libm(s: f64) -> f64 {
    s.floor()
}

#[cold]
#[inline(never)]
fn round_libm(t: f64) -> f64 {
    t.round()
}

/// Wrap a scalar coordinate into `[0, 1)`.
#[inline]
pub fn wrap_unit(x: f64) -> f64 {
    let w = x - floor_near_unit(x);
    // `x.floor()` of a tiny negative like -1e-17 yields w == 1.0 exactly;
    // fold that back to 0 so the invariant w ∈ [0,1) holds strictly.
    // A zero comes out as `+0.0`, as `x − x.floor()` has it even for
    // `x = −0.0` (where `floor_near_unit` differs from libm).
    if w >= 1.0 || w == 0.0 {
        0.0
    } else {
        w
    }
}

/// Wrap every component of a position into the unit cube `[0, 1)³`.
#[inline]
pub fn wrap01(p: Vec3) -> Vec3 {
    Vec3::new(wrap_unit(p.x), wrap_unit(p.y), wrap_unit(p.z))
}

/// Minimum-image difference of two scalar coordinates in the unit torus:
/// the representative of `a − b` in `[-1/2, 1/2)`.
///
/// The floor is selected on the *rounded* sum `d + 0.5`, the value libm
/// was handed: `d = 0.5 − 2⁻⁵⁴` rounds up to `s = 1`, so a test on `d`
/// itself would pick the other image. `s` is never `−0.0` (`−0.5 + 0.5`
/// is `+0.0`), so `floor_near_unit`'s one exception cannot occur.
#[inline]
pub fn min_image(a: f64, b: f64) -> f64 {
    let d = a - b;
    d - floor_near_unit(d + 0.5)
}

/// [`min_image`] for `a`, `b` both in `[0, 1]`: then `d + 0.5` lies in
/// `[−0.5, 1.5]` and the compare-select floor needs no range test, so a
/// loop that has proven its operands in the box once (the tree descent:
/// group centre against dyadic cell centres) carries neither the test
/// nor a call site.
#[inline(always)]
pub fn min_image_in_box(a: f64, b: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&a) && (0.0..=1.0).contains(&b));
    let d = a - b;
    d - floor_select(d + 0.5)
}

/// Shift coordinate `p` to its periodic image nearest `c` by a whole box
/// length only: `p − round(p − c)` leaves in-range coordinates bit-exact
/// (round = 0) and wrapped ones exactly `p ± 1`.
///
/// For `|p − c| < 1.5` the round (ties away from zero) is −1, 0 or 1 by
/// two compares, and `copysign` gives a zero the sign `round` gives it
/// (`round(−0.3) = −0.0`, which shows when subtracted from a `−0.0`
/// coordinate).
#[inline]
pub fn nearest_image(p: f64, c: f64) -> f64 {
    let t = p - c;
    let round = if t.abs() < 1.5 {
        ((t >= 0.5) as u8 as f64 - (t <= -0.5) as u8 as f64).copysign(t)
    } else {
        round_libm(t)
    };
    p - round
}

/// Minimum-image displacement vector `a − b` on the unit torus.
#[inline]
pub fn min_image_vec(a: Vec3, b: Vec3) -> Vec3 {
    Vec3::new(
        min_image(a.x, b.x),
        min_image(a.y, b.y),
        min_image(a.z, b.z),
    )
}

/// Minimum-image squared distance on the unit torus.
#[inline]
pub fn min_image_dist2(a: Vec3, b: Vec3) -> f64 {
    min_image_vec(a, b).norm2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_unit_basic() {
        assert_eq!(wrap_unit(0.25), 0.25);
        assert!((wrap_unit(1.25) - 0.25).abs() < 1e-15);
        assert!((wrap_unit(-0.25) - 0.75).abs() < 1e-15);
        assert_eq!(wrap_unit(0.0), 0.0);
        assert_eq!(wrap_unit(1.0), 0.0);
        assert!((wrap_unit(-3.7) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn wrap_unit_stays_in_range_near_edges() {
        for &x in &[-1e-17, -1e-300, 1.0 - 1e-17, -(1.0 - 1e-17), 7.0, -7.0] {
            let w = wrap_unit(x);
            assert!((0.0..1.0).contains(&w), "wrap_unit({x:e}) = {w}");
        }
    }

    #[test]
    fn min_image_range_and_antisymmetry() {
        let pairs = [
            (0.1, 0.9),
            (0.9, 0.1),
            (0.5, 0.5),
            (0.0, 0.999),
            (0.25, 0.75),
        ];
        for &(a, b) in &pairs {
            let d = min_image(a, b);
            assert!((-0.5..0.5).contains(&d), "min_image({a},{b})={d}");
            // antisymmetric up to the half-box boundary convention
            if d.abs() < 0.5 - 1e-12 {
                assert!((min_image(b, a) + d).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn min_image_picks_nearest() {
        // 0.05 and 0.95 are 0.1 apart through the boundary.
        assert!((min_image(0.05, 0.95) - 0.1).abs() < 1e-15);
        assert!((min_image(0.95, 0.05) + 0.1).abs() < 1e-15);
    }

    #[test]
    fn min_image_vec_distance() {
        let a = Vec3::new(0.02, 0.5, 0.98);
        let b = Vec3::new(0.98, 0.5, 0.02);
        let d = min_image_vec(a, b);
        assert!((d.x - 0.04).abs() < 1e-15);
        assert_eq!(d.y, 0.0);
        assert!((d.z + 0.04).abs() < 1e-15);
        assert!((min_image_dist2(a, b) - (0.04f64 * 0.04 * 2.0)).abs() < 1e-15);
    }

    #[test]
    fn translation_invariance() {
        // min_image is invariant under integer shifts of either argument.
        // (Keep the separation away from the ill-conditioned ±1/2 point.)
        let (a, b) = (0.3, 0.85);
        let d0 = min_image(a, b);
        assert!((min_image(a + 2.0, b) - d0).abs() < 1e-12);
        assert!((min_image(a, b - 3.0) - d0).abs() < 1e-12);
    }
}
