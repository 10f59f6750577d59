//! The particle (body) type shared by the drivers.

use greem_math::Vec3;

/// One simulation particle.
///
/// `vel` is whatever the active integrator conjugates with position:
/// plain velocity for static-box runs, the comoving momentum
/// `p = a²·dx/dt` for cosmological runs (see `greem-cosmo`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    /// Position in the periodic unit box, `[0,1)³`.
    pub pos: Vec3,
    /// Velocity / comoving momentum.
    pub vel: Vec3,
    /// Mass (the drivers normalise total mass to 1 for cosmology).
    pub mass: f64,
    /// Stable identifier (survives domain exchanges and sorting).
    pub id: u64,
}

impl Body {
    /// A body at rest.
    pub fn at_rest(pos: Vec3, mass: f64, id: u64) -> Self {
        Body {
            pos,
            vel: Vec3::ZERO,
            mass,
            id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_rest_constructor() {
        let b = Body::at_rest(Vec3::splat(0.5), 2.0, 7);
        assert_eq!(b.vel, Vec3::ZERO);
        assert_eq!(b.mass, 2.0);
        assert_eq!(b.id, 7);
    }
}
