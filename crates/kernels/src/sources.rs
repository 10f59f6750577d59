//! Structure-of-arrays particle buffers for the force kernels.
//!
//! The interaction list produced by the tree walk — nearby particles plus
//! the centres of mass of accepted distant nodes — is stored as four
//! parallel arrays so the inner loop streams each component contiguously,
//! the layout Phantom-GRAPE uses. The kernels are purely non-periodic:
//! callers (the tree walk) resolve periodic images *before* filling these
//! buffers by shifting source positions to the minimum image of the
//! target group.

// The f32 staging has no reader in a build without the x86 kernels.
#![cfg_attr(
    not(all(target_arch = "x86_64", not(feature = "portable-only"))),
    allow(dead_code)
)]

use greem_math::Vec3;

/// The "j" side of the interaction: source positions and masses.
#[derive(Debug, Clone, Default)]
pub struct SourceList {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub z: Vec<f64>,
    pub m: Vec<f64>,
}

impl SourceList {
    /// An empty list with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        SourceList {
            x: Vec::with_capacity(cap),
            y: Vec::with_capacity(cap),
            z: Vec::with_capacity(cap),
            m: Vec::with_capacity(cap),
        }
    }

    /// Number of sources.
    #[inline]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when no sources are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Append one source.
    #[inline]
    pub fn push(&mut self, pos: Vec3, m: f64) {
        self.x.push(pos.x);
        self.y.push(pos.y);
        self.z.push(pos.z);
        self.m.push(m);
    }

    /// Remove all sources, keeping capacity (interaction lists are
    /// workhorse buffers reused across groups).
    pub fn clear(&mut self) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.m.clear();
    }

    /// Source position `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }
}

impl FromIterator<(Vec3, f64)> for SourceList {
    fn from_iter<I: IntoIterator<Item = (Vec3, f64)>>(it: I) -> Self {
        let mut s = SourceList::default();
        for (p, m) in it {
            s.push(p, m);
        }
        s
    }
}

/// The "i" side: target positions and their output accelerations.
#[derive(Debug, Clone, Default)]
pub struct Targets {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub z: Vec<f64>,
    pub ax: Vec<f64>,
    pub ay: Vec<f64>,
    pub az: Vec<f64>,
    /// The point the single-precision kernels measure this call's
    /// positions from; the constructors set it to the first target. A
    /// target's result bits depend on it (and on nothing else about the
    /// other targets).
    pub origin: [f64; 3],
    /// Reused by every x86 kernel call, so that none allocates.
    pub(crate) stage: Staging,
}

/// One x86 kernel call in single precision: target columns x, y, z —
/// each block's sums once the block has run — zero-padded to a whole
/// number of vectors, and source columns x, y, z, m.
#[derive(Debug, Clone, Default)]
pub(crate) struct Staging {
    pub(crate) t: [Vec<f32>; 3],
    pub(crate) s: [Vec<f32>; 4],
}

impl Targets {
    /// Targets from positions, accelerations zeroed.
    pub fn from_positions(pos: &[Vec3]) -> Self {
        let n = pos.len();
        Targets {
            x: pos.iter().map(|p| p.x).collect(),
            y: pos.iter().map(|p| p.y).collect(),
            z: pos.iter().map(|p| p.z).collect(),
            ax: vec![0.0; n],
            ay: vec![0.0; n],
            az: vec![0.0; n],
            origin: pos.first().map_or([0.0; 3], |p| [p.x, p.y, p.z]),
            stage: Staging::default(),
        }
    }

    /// Refill straight from SoA column slices (the Morton-resident
    /// `ParticleStore` layout) with accelerations zeroed, reusing the
    /// six buffers — three contiguous memcpys instead of a transposing
    /// gather from `Vec3`s.
    pub fn load_from_slices(&mut self, x: &[f64], y: &[f64], z: &[f64]) {
        debug_assert!(x.len() == y.len() && x.len() == z.len());
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.x.extend_from_slice(x);
        self.y.extend_from_slice(y);
        self.z.extend_from_slice(z);
        self.ax.clear();
        self.ay.clear();
        self.az.clear();
        self.ax.resize(x.len(), 0.0);
        self.ay.resize(x.len(), 0.0);
        self.az.resize(x.len(), 0.0);
        self.origin = match (x, y, z) {
            ([x, ..], [y, ..], [z, ..]) => [*x, *y, *z],
            _ => [0.0; 3],
        };
    }

    /// Number of targets.
    #[inline]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when there are no targets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Target position `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    /// Accumulated acceleration of target `i`.
    #[inline]
    pub fn accel(&self, i: usize) -> Vec3 {
        Vec3::new(self.ax[i], self.ay[i], self.az[i])
    }

    /// Zero the accumulated accelerations.
    pub fn reset_accel(&mut self) {
        self.ax.iter_mut().for_each(|v| *v = 0.0);
        self.ay.iter_mut().for_each(|v| *v = 0.0);
        self.az.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_list_roundtrip() {
        let mut s = SourceList::with_capacity(4);
        s.push(Vec3::new(1.0, 2.0, 3.0), 0.5);
        s.push(Vec3::new(-1.0, 0.0, 4.0), 1.5);
        assert_eq!(s.len(), 2);
        assert_eq!(s.pos(1), Vec3::new(-1.0, 0.0, 4.0));
        assert_eq!(s.m[0], 0.5);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn targets_accumulate() {
        let mut t = Targets::from_positions(&[Vec3::ZERO, Vec3::ONE]);
        assert_eq!(t.len(), 2);
        t.ax[1] = 3.0;
        assert_eq!(t.accel(1), Vec3::new(3.0, 0.0, 0.0));
        t.reset_accel();
        assert_eq!(t.accel(1), Vec3::ZERO);
    }

    #[test]
    fn from_iterator() {
        let s: SourceList = [(Vec3::ONE, 1.0), (Vec3::ZERO, 2.0)].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s.m, vec![1.0, 2.0]);
    }
}
