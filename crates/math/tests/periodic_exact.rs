//! The compare-select periodic geometry must equal the libm formulas it
//! replaced **bit for bit**, on every input: the tree walk's opening
//! decisions, the ghost selection and the list-replay validity check all
//! hang on these values, and the baselines were recorded with libm.

use greem_math::{min_image, min_image_in_box, nearest_image, wrap_unit, Aabb, Vec3};
use proptest::prelude::*;

fn wrap_unit_libm(x: f64) -> f64 {
    let w = x - x.floor();
    if w >= 1.0 {
        0.0
    } else {
        w
    }
}

fn min_image_libm(a: f64, b: f64) -> f64 {
    let d = a - b;
    d - (d + 0.5).floor()
}

fn nearest_image_libm(p: f64, c: f64) -> f64 {
    p - (p - c).round()
}

fn dist2_to_aabb_libm(a: &Aabb, o: &Aabb) -> f64 {
    let mut d2 = 0.0;
    for i in 0..3 {
        let ca = 0.5 * (a.lo[i] + a.hi[i]);
        let cb = 0.5 * (o.lo[i] + o.hi[i]);
        let half = 0.5 * ((a.hi[i] - a.lo[i]) + (o.hi[i] - o.lo[i]));
        let d = (min_image_libm(ca, cb).abs() - half).max(0.0);
        d2 += d * d;
    }
    d2
}

fn dist2_to_point_libm(a: &Aabb, p: Vec3) -> f64 {
    let mut d2 = 0.0;
    for i in 0..3 {
        let c = 0.5 * (a.lo[i] + a.hi[i]);
        let half = 0.5 * (a.hi[i] - a.lo[i]);
        let d = (min_image_libm(c, p[i]).abs() - half).max(0.0);
        d2 += d * d;
    }
    d2
}

/// Bit equality that also accepts NaN against NaN (payloads are the
/// platform's business; a NaN must stay a NaN).
fn same_bits(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

/// `x` moved `k` representable values away from zero (towards it for
/// negative `k`, stopping there).
fn ulps(x: f64, k: i64) -> f64 {
    let magnitude = x.abs().to_bits().saturating_add_signed(k);
    f64::from_bits(magnitude).copysign(x)
}

/// The values where a floor or a round changes, their neighbours, the
/// zeros, subnormals, out-of-range images and the non-finite values.
fn edges() -> Vec<f64> {
    let mut v = vec![0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for base in [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 1e-12, 1.0 - 1e-12] {
        for k in [-2, -1, 0, 1, 2] {
            v.push(ulps(base, k));
            v.push(-ulps(base, k));
        }
    }
    // `d + 0.5` rounds to exactly 1 although d < 0.5.
    v.push(0.5 - 2f64.powi(-54));
    v.push(0.5 - 2f64.powi(-55));
    for sub in [f64::MIN_POSITIVE, 5e-324, 1e-310, 1e-300, 1e-17] {
        v.push(sub);
        v.push(-sub);
    }
    for far in [7.0, 1e15, 4.5e15, 1e300] {
        v.push(far);
        v.push(-far);
    }
    v
}

#[test]
fn edge_values_keep_their_bits() {
    let e = edges();
    for &a in &e {
        assert!(
            same_bits(wrap_unit(a), wrap_unit_libm(a)),
            "wrap_unit({a:e}) = {:e}, libm {:e}",
            wrap_unit(a),
            wrap_unit_libm(a)
        );
        for &b in &e {
            assert!(
                same_bits(min_image(a, b), min_image_libm(a, b)),
                "min_image({a:e}, {b:e}) = {:e}, libm {:e}",
                min_image(a, b),
                min_image_libm(a, b)
            );
            assert!(
                same_bits(nearest_image(a, b), nearest_image_libm(a, b)),
                "nearest_image({a:e}, {b:e}) = {:e}, libm {:e}",
                nearest_image(a, b),
                nearest_image_libm(a, b)
            );
            if (0.0..=1.0).contains(&a) && (0.0..=1.0).contains(&b) {
                assert!(
                    same_bits(min_image_in_box(a, b), min_image_libm(a, b)),
                    "min_image_in_box({a:e}, {b:e})"
                );
            }
        }
    }
}

/// The existing translation-invariance inputs (`a + 2.0`, `b − 3.0`)
/// leave the compare-select range: the guard's libm path must answer.
#[test]
fn range_guard_slow_path_is_libm() {
    let (a, b) = (0.3, 0.85);
    for (p, q) in [(a + 2.0, b), (a, b - 3.0), (a - 2.0, b + 3.0)] {
        assert_eq!(min_image(p, q).to_bits(), min_image_libm(p, q).to_bits());
        assert_eq!(
            nearest_image(p, q).to_bits(),
            nearest_image_libm(p, q).to_bits()
        );
        assert_eq!(wrap_unit(p).to_bits(), wrap_unit_libm(p).to_bits());
        assert_eq!(wrap_unit(-p).to_bits(), wrap_unit_libm(-p).to_bits());
    }
}

fn coord() -> impl Strategy<Value = f64> {
    // Three kinds of coordinate: an edge value nudged by a few ulps, any
    // bit pattern at all, and a plain point of the unit interval.
    (0u64..3, 0u64..u64::MAX, -3i64..4).prop_map(|(kind, bits, nudge)| match kind {
        0 => {
            let e = edges();
            let x = e[(bits % e.len() as u64) as usize];
            if x.is_finite() && x != 0.0 {
                ulps(x, nudge)
            } else {
                x
            }
        }
        1 => f64::from_bits(bits),
        _ => (bits >> 11) as f64 / (1u64 << 53) as f64,
    })
}

/// A box inside the unit cube with its corners on arbitrary doubles.
fn unit_box() -> impl Strategy<Value = Aabb> {
    let corner = || {
        proptest::array::uniform3(
            (0u64..u64::MAX).prop_map(|b| (b >> 11) as f64 / (1u64 << 53) as f64),
        )
        .prop_map(|[x, y, z]| Vec3::new(x, y, z))
    };
    (corner(), corner()).prop_map(|(p, q)| Aabb {
        lo: p.min(q),
        hi: p.max(q),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn wrap_unit_is_libm(x in coord()) {
        prop_assert!(same_bits(wrap_unit(x), wrap_unit_libm(x)), "x = {x:e}");
    }

    #[test]
    fn min_image_is_libm(a in coord(), b in coord()) {
        prop_assert!(same_bits(min_image(a, b), min_image_libm(a, b)), "a = {a:e}, b = {b:e}");
    }

    #[test]
    fn nearest_image_is_libm(p in coord(), c in coord()) {
        prop_assert!(
            same_bits(nearest_image(p, c), nearest_image_libm(p, c)),
            "p = {p:e}, c = {c:e}"
        );
    }

    /// The unguarded form the tree descent uses, on its whole domain.
    #[test]
    fn min_image_in_box_is_libm(a in coord(), b in coord()) {
        if (0.0..=1.0).contains(&a) && (0.0..=1.0).contains(&b) {
            prop_assert!(
                same_bits(min_image_in_box(a, b), min_image_libm(a, b)),
                "a = {a:e}, b = {b:e}"
            );
        }
    }

    #[test]
    fn periodic_box_distances_are_libm(a in unit_box(), b in unit_box(), px in coord(), py in coord(), pz in coord()) {
        prop_assert!(same_bits(a.periodic_dist2_to_aabb(&b), dist2_to_aabb_libm(&a, &b)));
        let p = Vec3::new(px, py, pz);
        prop_assert!(same_bits(a.periodic_dist2_to_point(p), dist2_to_point_libm(&a, p)));
    }
}
