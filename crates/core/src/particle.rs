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

    /// The species tag of this body (see [`species_of_id`]).
    pub fn species(&self) -> u8 {
        species_of_id(self.id)
    }
}

/// Bit position of the species tag inside a particle id.
///
/// Ids are `(species << 56) | index`: the top byte carries the species,
/// the low 56 bits the per-species index. Cosmology drivers use plain
/// indices (species 0); the `greem-astro` scenario engine tags stars (0),
/// dark matter (1) and seed black holes (2). Packing the tag into the id
/// means species survive every existing wire and snapshot format
/// (64-byte packed rows, checkpoint `bodies` sections) unchanged.
pub const SPECIES_SHIFT: u32 = 56;

/// Extract the species tag from a particle id.
#[inline]
pub fn species_of_id(id: u64) -> u8 {
    (id >> SPECIES_SHIFT) as u8
}

/// Compose a particle id from a species tag and a per-species index
/// (`index` must fit in 56 bits).
#[inline]
pub fn species_id(species: u8, index: u64) -> u64 {
    debug_assert!(index < 1 << SPECIES_SHIFT, "index overflows species id");
    ((species as u64) << SPECIES_SHIFT) | index
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

    #[test]
    fn species_roundtrips_through_id() {
        for s in [0u8, 1, 2, 255] {
            let id = species_id(s, 123_456);
            assert_eq!(species_of_id(id), s);
            assert_eq!(id & ((1 << SPECIES_SHIFT) - 1), 123_456);
        }
        // Plain indices (every pre-existing driver) are species 0.
        assert_eq!(species_of_id(42), 0);
        assert_eq!(Body::at_rest(Vec3::ZERO, 1.0, 42).species(), 0);
    }
}
