//! Morton-resident structure-of-arrays particle storage.
//!
//! The paper's sustained 49%-of-peak depends on *feeding* the force
//! pipeline, not just on kernel flops: GreeM keeps particles physically
//! ordered along the tree so the PP walk streams memory linearly. This
//! module replaces the per-rank AoS `Vec<Body>` with a [`ParticleStore`]
//! of parallel `pos_*`/`vel_*`/`mass`/`id` columns that is **physically
//! permuted into Morton order** at every tree (re)build, reusing the
//! `(MortonKey, slot)` sort the tree computes anyway:
//!
//! * the tree borrows the position/mass columns instead of gathering
//!   its own sorted copies;
//! * kick/drift/PM scatter iterate each column cache-linearly;
//! * the PP kernel's [`greem_kernels::Targets`] loads straight from the
//!   column slices of a group's contiguous slot range.
//!
//! Column arithmetic is componentwise and therefore **bitwise
//! identical** to the `Vec3`-at-a-time operations it replaces —
//! `Vec3` ops are themselves componentwise, so `x[i] + vx[i]*w` is the
//! same FP instruction sequence as `(pos + vel*w).x`.

use greem_math::{wrap01, Vec3};

use crate::particle::Body;

/// Parallel-column particle storage (one array per field).
///
/// Invariant: all columns have the same length. The *order* of rows is
/// semantic state — the Morton `(key, slot)` sort tie-breaks on the
/// current slot index, so two stores with the same bodies in different
/// row orders can permute differently (see `RankState` docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParticleStore {
    pos_x: Vec<f64>,
    pos_y: Vec<f64>,
    pos_z: Vec<f64>,
    vel_x: Vec<f64>,
    vel_y: Vec<f64>,
    vel_z: Vec<f64>,
    mass: Vec<f64>,
    id: Vec<u64>,
}

/// Grow-only gather buffers reused across [`ParticleStore::permute`]
/// calls so steady-state permutation allocates nothing.
#[derive(Debug, Default)]
pub struct PermScratch {
    f: Vec<f64>,
    u: Vec<u64>,
}

impl ParticleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with room for `n` particles per column.
    pub fn with_capacity(n: usize) -> Self {
        ParticleStore {
            pos_x: Vec::with_capacity(n),
            pos_y: Vec::with_capacity(n),
            pos_z: Vec::with_capacity(n),
            vel_x: Vec::with_capacity(n),
            vel_y: Vec::with_capacity(n),
            vel_z: Vec::with_capacity(n),
            mass: Vec::with_capacity(n),
            id: Vec::with_capacity(n),
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.pos_x.len()
    }

    /// True when the store holds no particles.
    pub fn is_empty(&self) -> bool {
        self.pos_x.is_empty()
    }

    /// Remove all particles, keeping capacity.
    pub fn clear(&mut self) {
        self.pos_x.clear();
        self.pos_y.clear();
        self.pos_z.clear();
        self.vel_x.clear();
        self.vel_y.clear();
        self.vel_z.clear();
        self.mass.clear();
        self.id.clear();
    }

    /// Append one particle.
    pub fn push(&mut self, b: Body) {
        self.pos_x.push(b.pos.x);
        self.pos_y.push(b.pos.y);
        self.pos_z.push(b.pos.z);
        self.vel_x.push(b.vel.x);
        self.vel_y.push(b.vel.y);
        self.vel_z.push(b.vel.z);
        self.mass.push(b.mass);
        self.id.push(b.id);
    }

    /// Columnise an AoS body slice, preserving order.
    pub fn from_bodies(bodies: &[Body]) -> Self {
        let mut s = Self::with_capacity(bodies.len());
        for &b in bodies {
            s.push(b);
        }
        s
    }

    /// Materialise the AoS view, preserving the current row order.
    pub fn to_bodies(&self) -> Vec<Body> {
        (0..self.len()).map(|i| self.body(i)).collect()
    }

    /// Overwrite row `i` with `b`.
    pub fn set(&mut self, i: usize, b: Body) {
        self.pos_x[i] = b.pos.x;
        self.pos_y[i] = b.pos.y;
        self.pos_z[i] = b.pos.z;
        self.vel_x[i] = b.vel.x;
        self.vel_y[i] = b.vel.y;
        self.vel_z[i] = b.vel.z;
        self.mass[i] = b.mass;
        self.id[i] = b.id;
    }

    /// Row `i` as a [`Body`].
    pub fn body(&self, i: usize) -> Body {
        Body {
            pos: self.pos(i),
            vel: self.vel(i),
            mass: self.mass[i],
            id: self.id[i],
        }
    }

    /// Position of row `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> Vec3 {
        Vec3::new(self.pos_x[i], self.pos_y[i], self.pos_z[i])
    }

    /// Velocity (or comoving momentum) of row `i`.
    #[inline]
    pub fn vel(&self, i: usize) -> Vec3 {
        Vec3::new(self.vel_x[i], self.vel_y[i], self.vel_z[i])
    }

    /// Position columns `(x, y, z)` — what the tree borrows.
    pub fn pos_columns(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.pos_x, &self.pos_y, &self.pos_z)
    }

    /// The mass column.
    pub fn mass_column(&self) -> &[f64] {
        &self.mass
    }

    /// The id column.
    pub fn id_column(&self) -> &[u64] {
        &self.id
    }

    /// Positions gathered into a `Vec3` vector (PM deposit, balancer).
    pub fn positions(&self) -> Vec<Vec3> {
        (0..self.len()).map(|i| self.pos(i)).collect()
    }

    /// Masses cloned into a plain vector.
    pub fn masses(&self) -> Vec<f64> {
        self.mass.clone()
    }

    /// `vel += acc·w` for every row (cache-linear per column).
    pub fn kick(&mut self, acc: &[Vec3], w: f64) {
        assert_eq!(acc.len(), self.len(), "kick: accel length mismatch");
        for (v, a) in self.vel_x.iter_mut().zip(acc) {
            *v += a.x * w;
        }
        for (v, a) in self.vel_y.iter_mut().zip(acc) {
            *v += a.y * w;
        }
        for (v, a) in self.vel_z.iter_mut().zip(acc) {
            *v += a.z * w;
        }
    }

    /// `pos = wrap01(pos + vel·w)` for every row; returns the largest
    /// Euclidean displacement `max ‖v·w‖` moved this drift — the bound
    /// the interaction-list cache uses to budget its opening margin
    /// (see `resident`).
    pub fn drift_wrap(&mut self, w: f64) -> f64 {
        let mut max_d2 = 0.0f64;
        let n = self.len();
        for i in 0..n {
            let p = wrap01(self.pos(i) + self.vel(i) * w);
            self.pos_x[i] = p.x;
            self.pos_y[i] = p.y;
            self.pos_z[i] = p.z;
            let d2 = (self.vel(i) * w).norm2();
            if d2 > max_d2 {
                max_d2 = d2;
            }
        }
        max_d2.sqrt()
    }

    /// `pos += vel·w` for every row **without** wrapping into the unit
    /// torus — the isolated-boundary drift, where positions are plain
    /// open-space coordinates. Returns the same max-displacement metric
    /// as [`ParticleStore::drift_wrap`].
    pub fn drift_free(&mut self, w: f64) -> f64 {
        let mut max_d2 = 0.0f64;
        let n = self.len();
        for i in 0..n {
            let p = self.pos(i) + self.vel(i) * w;
            self.pos_x[i] = p.x;
            self.pos_y[i] = p.y;
            self.pos_z[i] = p.z;
            let d2 = (self.vel(i) * w).norm2();
            if d2 > max_d2 {
                max_d2 = d2;
            }
        }
        max_d2.sqrt()
    }

    /// Row `i` packed for the domain exchange wire: `[px, py, pz, vx,
    /// vy, vz, mass, id]` with the id bit-cast into the f64 slot — 64
    /// bytes, the same wire size as the AoS [`Body`].
    pub fn packed_row(&self, i: usize) -> [f64; 8] {
        [
            self.pos_x[i],
            self.pos_y[i],
            self.pos_z[i],
            self.vel_x[i],
            self.vel_y[i],
            self.vel_z[i],
            self.mass[i],
            f64::from_bits(self.id[i]),
        ]
    }

    /// Append a row packed by [`ParticleStore::packed_row`].
    pub fn push_packed(&mut self, r: [f64; 8]) {
        self.pos_x.push(r[0]);
        self.pos_y.push(r[1]);
        self.pos_z.push(r[2]);
        self.vel_x.push(r[3]);
        self.vel_y.push(r[4]);
        self.vel_z.push(r[5]);
        self.mass.push(r[6]);
        self.id.push(r[7].to_bits());
    }

    /// All rows packed for the wire, in row order.
    pub fn to_packed(&self) -> Vec<[f64; 8]> {
        (0..self.len()).map(|i| self.packed_row(i)).collect()
    }

    /// Rebuild a store from packed rows, preserving their order.
    pub fn from_packed(rows: &[[f64; 8]]) -> Self {
        let mut s = Self::with_capacity(rows.len());
        for &r in rows {
            s.push_packed(r);
        }
        s
    }

    /// Physically reorder every column so new row `k` is old row
    /// `order[k]`. `order` must be a permutation of `0..len`.
    pub fn permute(&mut self, order: &[u32], scratch: &mut PermScratch) {
        assert_eq!(order.len(), self.len(), "permute: order length mismatch");
        permute_f64(&mut self.pos_x, order, &mut scratch.f);
        permute_f64(&mut self.pos_y, order, &mut scratch.f);
        permute_f64(&mut self.pos_z, order, &mut scratch.f);
        permute_f64(&mut self.vel_x, order, &mut scratch.f);
        permute_f64(&mut self.vel_y, order, &mut scratch.f);
        permute_f64(&mut self.vel_z, order, &mut scratch.f);
        permute_f64(&mut self.mass, order, &mut scratch.f);
        scratch.u.clear();
        scratch.u.extend(order.iter().map(|&o| self.id[o as usize]));
        std::mem::swap(&mut self.id, &mut scratch.u);
    }
}

fn permute_f64(col: &mut Vec<f64>, order: &[u32], scratch: &mut Vec<f64>) {
    scratch.clear();
    scratch.extend(order.iter().map(|&o| col[o as usize]));
    std::mem::swap(col, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<Body> {
        (0..n)
            .map(|i| Body {
                pos: Vec3::new(
                    (i as f64 * 0.37) % 1.0,
                    (i as f64 * 0.61) % 1.0,
                    (i as f64 * 0.13) % 1.0,
                ),
                vel: Vec3::new(0.1, -0.2, 0.3) * (i as f64 + 1.0),
                mass: 1.0 + i as f64,
                id: i as u64,
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_bodies() {
        let bodies = sample(17);
        let s = ParticleStore::from_bodies(&bodies);
        assert_eq!(s.len(), 17);
        assert_eq!(s.to_bodies(), bodies);
        assert_eq!(s.body(5), bodies[5]);
    }

    #[test]
    fn kick_drift_match_aos_bitwise() {
        let mut bodies = sample(9);
        let mut s = ParticleStore::from_bodies(&bodies);
        let acc: Vec<Vec3> = (0..9)
            .map(|i| Vec3::new(i as f64, -(i as f64), 0.5))
            .collect();
        let w = 1e-3;
        s.kick(&acc, w);
        s.drift_wrap(w);
        for (b, a) in bodies.iter_mut().zip(&acc) {
            b.vel += *a * w;
            b.pos = wrap01(b.pos + b.vel * w);
        }
        assert_eq!(s.to_bodies(), bodies);
    }

    #[test]
    fn drift_reports_max_displacement_norm() {
        let mut s = ParticleStore::new();
        s.push(Body {
            pos: Vec3::splat(0.5),
            vel: Vec3::new(0.0, -4.0, 3.0),
            mass: 1.0,
            id: 0,
        });
        let d = s.drift_wrap(0.25);
        assert!((d - 1.25).abs() < 1e-15, "max ‖v·w‖ over rows, got {d}");
    }

    #[test]
    fn drift_free_skips_wrapping_and_reports_displacement() {
        let mut wrapped = ParticleStore::new();
        let mut free = ParticleStore::new();
        let b = Body {
            pos: Vec3::new(0.9, 0.5, 0.5),
            vel: Vec3::new(4.0, 0.0, -3.0),
            mass: 1.0,
            id: 0,
        };
        wrapped.push(b);
        free.push(b);
        let dw = wrapped.drift_wrap(0.05);
        let df = free.drift_free(0.05);
        assert_eq!(dw, df, "same displacement metric");
        assert!((df - 0.25).abs() < 1e-15);
        // drift_wrap folds x back into [0,1); drift_free does not.
        assert!(wrapped.pos(0).x < 1.0);
        assert!((free.pos(0).x - 1.1).abs() < 1e-15);
    }

    #[test]
    fn packed_rows_roundtrip_bitwise() {
        let mut bodies = sample(11);
        // Exercise the id bit-cast with a pattern that is NaN as f64.
        bodies[3].id = 0x7ff8_dead_beef_0001;
        let s = ParticleStore::from_bodies(&bodies);
        let rows = s.to_packed();
        assert_eq!(rows.len(), 11);
        let back = ParticleStore::from_packed(&rows);
        assert_eq!(back.to_bodies(), bodies);
    }

    #[test]
    fn permute_applies_to_every_column() {
        let bodies = sample(6);
        let mut s = ParticleStore::from_bodies(&bodies);
        let order = [3u32, 0, 5, 1, 4, 2];
        let mut scratch = PermScratch::default();
        s.permute(&order, &mut scratch);
        for (k, &o) in order.iter().enumerate() {
            assert_eq!(s.body(k), bodies[o as usize]);
        }
    }
}
