//! The force oracle: exact periodic (Ewald) accelerations with the
//! solver's Plummer softening, on a set of probe particles.
//!
//! `greem_baselines::Ewald` costs ~10⁴ transcendentals per pair, far too
//! slow for N = 32768 sources. `EwaldTable` splits the pair force into
//! the analytic Newtonian part plus a smooth tabulated image correction;
//! the oracle keeps the table's correction and replaces the Newtonian
//! part by the Plummer-softened one, which is the force the TreePM split
//! approximates.

use greem::Body;
use greem_baselines::EwaldTable;
use greem_math::{min_image_vec, Vec3};

/// Octant cells of the correction table (the value
/// `direct_periodic_fast` uses; ~0.25 s to build).
const TABLE_CELLS: usize = 16;

/// Reference accelerations on `bodies[probes[..]]` from all bodies.
pub fn reference_accels(bodies: &[Body], probes: &[usize], eps: f64) -> Vec<Vec3> {
    let table = EwaldTable::new(TABLE_CELLS);
    let eps2 = eps * eps;
    probes
        .iter()
        .map(|&i| {
            let mut a = Vec3::ZERO;
            for (j, src) in bodies.iter().enumerate() {
                if j == i {
                    continue;
                }
                let dr = min_image_vec(src.pos, bodies[i].pos);
                let s2 = dr.norm2() + eps2;
                a += (dr * (1.0 / (s2 * s2.sqrt())) + table.correction(dr)) * src.mass;
            }
            a
        })
        .collect()
}

/// Per-probe relative force error `|a − a_ref| / |a_ref|`.
///
/// The benchmark reports the *median* of these. An rms is dominated by
/// the closest pair among the probes (pair forces go as 1/r², so their
/// square has no finite variance): over ten seeds of the uniform
/// workload the rms figure spread by 150 % of its median.
pub fn relative_errors(got: &[Vec3], want: &[Vec3]) -> Vec<f64> {
    assert_eq!(got.len(), want.len());
    got.iter()
        .zip(want)
        .map(|(g, w)| (*g - *w).norm() / w.norm())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_exact_ewald_on_a_small_set() {
        let bodies = crate::inputs::uniform(40, 7);
        let probes: Vec<usize> = (0..40).collect();
        let got = reference_accels(&bodies, &probes, 0.0);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let want = greem_baselines::direct_periodic(&pos, &mass);
        let worst = relative_errors(&got, &want).into_iter().fold(0.0, f64::max);
        assert!(worst < 5e-3, "worst relative deviation {worst}");
    }
}
