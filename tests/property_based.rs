//! Property-based tests (proptest) on the core invariants, spanning
//! crates the way a downstream user composes them.

use greem_repro::fft::{fft3d, fft3d_inverse, slab_owner, slab_planes, Cpx, Fft1d, Mesh3};
use greem_repro::math::{
    eigen_sym3, g_p3m, min_image, min_image_vec, wrap01, Aabb, ForceSplit, MortonKey, Vec3,
};
use greem_repro::pm::layout::{wrapped_runs, CellBox};
use greem_repro::tree::pseudo_particles;
use greem_repro::tree::{GroupWalk, SnapshotTree, TraverseParams, TreeParams};
use proptest::prelude::*;

fn unit_coord() -> impl Strategy<Value = f64> {
    (0u64..1_000_000).prop_map(|i| i as f64 / 1_000_000.0)
}

fn unit_vec3() -> impl Strategy<Value = Vec3> {
    (unit_coord(), unit_coord(), unit_coord()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Morton keys round-trip through cell coordinates.
    #[test]
    fn morton_roundtrip(x in 0u64..(1 << 21), y in 0u64..(1 << 21), z in 0u64..(1 << 21)) {
        let k = MortonKey::from_cell(x, y, z);
        prop_assert_eq!(k.to_cell(), (x, y, z));
    }

    /// Morton ordering preserves octant containment: a key lies inside
    /// its own prefix range at every level.
    #[test]
    fn morton_prefix_contains(x in 0u64..(1 << 21), y in 0u64..(1 << 21), z in 0u64..(1 << 21), level in 0u32..21) {
        let k = MortonKey::from_cell(x, y, z);
        prop_assert!(k.prefix_lower(level) <= k);
        prop_assert!(k < k.prefix_upper(level));
    }

    /// min_image returns the representative closest to zero.
    #[test]
    fn min_image_is_minimal(a in unit_coord(), b in unit_coord()) {
        let d = min_image(a, b);
        prop_assert!((-0.5..0.5).contains(&d));
        // No other image is closer.
        for k in [-2.0f64, -1.0, 0.0, 1.0, 2.0] {
            prop_assert!(d.abs() <= (a - b + k).abs() + 1e-12);
        }
    }

    /// wrap01 is idempotent and lands in [0,1).
    #[test]
    fn wrap_is_idempotent(x in -10.0f64..10.0, y in -10.0f64..10.0, z in -10.0f64..10.0) {
        let p = wrap01(Vec3::new(x, y, z));
        prop_assert!(p.x >= 0.0 && p.x < 1.0);
        prop_assert!(p.y >= 0.0 && p.y < 1.0);
        prop_assert!(p.z >= 0.0 && p.z < 1.0);
        let q = wrap01(p);
        prop_assert!((p - q).norm() < 1e-15);
    }

    /// The cutoff function stays in [0,1] and has support exactly [0,2).
    #[test]
    fn cutoff_bounds(xi in 0.0f64..5.0) {
        let g = g_p3m(xi);
        prop_assert!(g <= 1.0 + 1e-12);
        prop_assert!(g >= -1e-12);
        if xi >= 2.0 {
            prop_assert_eq!(g, 0.0);
        }
    }

    /// Pair forces are antisymmetric for any displacement and masses.
    #[test]
    fn pair_force_antisymmetry(dr in unit_vec3(), m1 in 0.1f64..10.0, m2 in 0.1f64..10.0) {
        let split = ForceSplit::new(0.4, 1e-4);
        let dr = dr - Vec3::splat(0.5); // displacements in [-1/2, 1/2)
        let f12 = split.pp_accel(dr, m2) * m1;
        let f21 = split.pp_accel(-dr, m1) * m2;
        prop_assert!((f12 + f21).norm() <= 1e-12 * f12.norm().max(1e-300));
    }

    /// 1-D FFT: Parseval holds for arbitrary signals.
    #[test]
    fn fft_parseval(values in proptest::collection::vec(-1.0f64..1.0, 64)) {
        let n = 64;
        let plan = Fft1d::new(n);
        let mut x: Vec<Cpx> = values.iter().map(|&v| Cpx::real(v)).collect();
        let e_time: f64 = x.iter().map(|c| c.norm2()).sum();
        plan.forward(&mut x);
        let e_freq: f64 = x.iter().map(|c| c.norm2()).sum::<f64>() / n as f64;
        prop_assert!((e_time - e_freq).abs() < 1e-9 * e_time.max(1e-12));
    }

    /// 3-D FFT round-trips arbitrary real meshes.
    #[test]
    fn fft3d_roundtrip(values in proptest::collection::vec(-1.0f64..1.0, 8 * 8 * 8)) {
        let n = 8;
        let plan = Fft1d::new(n);
        let mut m = Mesh3::from_real(n, &values);
        let orig = m.clone();
        fft3d(&mut m, &plan);
        fft3d_inverse(&mut m, &plan);
        for (a, b) in m.data().iter().zip(orig.data()) {
            prop_assert!((*a - *b).abs() < 1e-10);
        }
    }

    /// The tree: whatever the particle distribution, groups partition
    /// the particles and the root carries the total mass.
    #[test]
    fn tree_invariants(points in proptest::collection::vec(unit_vec3(), 1..200)) {
        let masses = vec![1.0; points.len()];
        let tree = SnapshotTree::build(&points, &masses, Aabb::UNIT, TreeParams::default());
        let root = &tree.nodes()[0];
        prop_assert_eq!(root.count as usize, points.len());
        prop_assert!((root.mass - points.len() as f64).abs() < 1e-9);
        let view = tree.view();
        let walk = GroupWalk::new(&view, TraverseParams {
            theta: 0.5,
            group_size: 16,
            r_cut: Some(0.2),
            periodic: true,
            multipole: Default::default(),
        });
        let mut covered = vec![false; points.len()];
        for g in walk.groups() {
            for i in g.first..g.first + g.count {
                prop_assert!(!covered[i as usize]);
                covered[i as usize] = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    /// `groups()` tiles the sorted slots `0..n` exactly — sorted by
    /// `first` they run end to end with no gap and no overlap — for any
    /// distribution (duplicates included), group size, leaf capacity,
    /// cutoff and boundary. The PP pass hands each group its own `&mut`
    /// chunk of the output on the strength of this.
    #[test]
    fn groups_tile_the_slots(
        points in proptest::collection::vec(unit_vec3(), 0..300),
        copies in 1usize..4,
        group_size in 1usize..64,
        leaf_capacity in 1usize..12,
        r_cut in 0.0f64..0.45,
        boundary in 0u8..4,
    ) {
        // A cutoff three times in four, a periodic box every other time.
        let r_cut = (boundary > 0 && r_cut > 0.0).then_some(r_cut);
        let periodic = boundary % 2 == 0;
        let points: Vec<Vec3> = points.iter().flat_map(|&p| vec![p; copies]).collect();
        let masses = vec![1.0; points.len()];
        let params = TreeParams { leaf_capacity };
        let tree = SnapshotTree::build(&points, &masses, Aabb::UNIT, params);
        let view = tree.view();
        let walk = GroupWalk::new(&view, TraverseParams {
            theta: 0.5,
            group_size,
            r_cut,
            periodic,
            multipole: Default::default(),
        });
        let mut groups = walk.groups();
        groups.sort_unstable_by_key(|g| g.first);
        let mut next = 0u32;
        for g in groups {
            prop_assert_eq!(g.first, next, "gap or overlap at slot {}", next);
            prop_assert!(g.count > 0);
            next += g.count;
        }
        prop_assert_eq!(next as usize, points.len());
    }

    /// wrapped_runs covers [lo, hi) exactly once with valid wrapped
    /// segments, for any range (including multi-wrap ghosted boxes).
    #[test]
    fn wrapped_runs_partition(lo in -40i64..40, len in 0i64..100, n in 1i64..16) {
        let hi = lo + len;
        let runs = wrapped_runs(lo, hi, n);
        let mut expect = lo;
        for (u, w, l) in &runs {
            prop_assert_eq!(*u, expect, "contiguous in unwrapped space");
            prop_assert!(*w >= 0 && *w + *l <= n, "wrapped segment in range");
            prop_assert_eq!(u.rem_euclid(n), *w);
            prop_assert!(*l > 0);
            expect += l;
        }
        prop_assert_eq!(expect, hi, "runs must cover the whole range");
    }

    /// CellBox flat indexing is a bijection onto 0..len.
    #[test]
    fn cellbox_idx_bijection(
        lo in proptest::array::uniform3(-10i64..10),
        dims in proptest::array::uniform3(1i64..6),
    ) {
        let bx = CellBox::new(lo, [lo[0]+dims[0], lo[1]+dims[1], lo[2]+dims[2]]);
        let mut seen = vec![false; bx.len()];
        for x in bx.lo[0]..bx.hi[0] {
            for y in bx.lo[1]..bx.hi[1] {
                for z in bx.lo[2]..bx.hi[2] {
                    let i = bx.idx([x, y, z]);
                    prop_assert!(i < bx.len());
                    prop_assert!(!seen[i]);
                    seen[i] = true;
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Slab ownership is consistent with the block distribution for any
    /// mesh/rank combination.
    #[test]
    fn slab_owner_consistent(n in 1usize..64, p_raw in 1usize..64) {
        let p = p_raw.min(n);
        for x in 0..n {
            let r = slab_owner(n, p, x);
            let (s, c) = slab_planes(n, p, r);
            prop_assert!(x >= s && x < s + c, "x={x} not in rank {r}'s block");
        }
    }

    /// The pseudo-particle expansion preserves mass, centre of mass and
    /// the full second-moment tensor for arbitrary (PSD) moments.
    #[test]
    fn pseudo_particles_preserve_moments(
        com in unit_vec3(),
        mass in 0.01f64..10.0,
        a in proptest::array::uniform3(-0.1f64..0.1),
        d in proptest::array::uniform3(0.0f64..0.05),
    ) {
        // Build a PSD matrix S = Lᵀ·L from a lower-triangular-ish seed.
        let l = [
            [d[0] + 0.01, 0.0, 0.0],
            [a[0], d[1] + 0.01, 0.0],
            [a[1], a[2], d[2] + 0.01],
        ];
        let mut s = [0.0; 6];
        let entry = |i: usize, j: usize| -> f64 {
            (0..3).map(|k| l[i][k] * l[j][k]).sum()
        };
        s[0] = entry(0, 0); s[1] = entry(0, 1); s[2] = entry(0, 2);
        s[3] = entry(1, 1); s[4] = entry(1, 2); s[5] = entry(2, 2);
        // Scale to a mass-weighted moment.
        for v in s.iter_mut() { *v *= mass; }

        let pts = pseudo_particles(com, mass, s);
        let m_tot: f64 = pts.iter().map(|(_, m)| m).sum();
        prop_assert!((m_tot - mass).abs() < 1e-12 * mass);
        let c: Vec3 = pts.iter().map(|(p, m)| *p * *m).sum::<Vec3>() / m_tot;
        prop_assert!((c - com).norm() < 1e-9);
        let mut got = [0.0f64; 6];
        for (p, m) in &pts {
            let r = *p - com;
            got[0] += m * r.x * r.x; got[1] += m * r.x * r.y; got[2] += m * r.x * r.z;
            got[3] += m * r.y * r.y; got[4] += m * r.y * r.z; got[5] += m * r.z * r.z;
        }
        let scale = s.iter().map(|v| v.abs()).fold(1e-12, f64::max);
        for i in 0..6 {
            prop_assert!((got[i] - s[i]).abs() < 1e-8 * scale.max(1e-9), "moment {i}");
        }
        // And the eigensolver the expansion uses stays PSD-consistent.
        let e = eigen_sym3(s);
        prop_assert!(e.values[2] > -1e-12 * scale);
    }

    /// Group-walk forces match brute force (θ=0) for arbitrary
    /// configurations — the traversal has no blind spots.
    #[test]
    fn walk_is_exact_at_theta_zero(points in proptest::collection::vec(unit_vec3(), 2..60)) {
        let n = points.len();
        let masses = vec![1.0 / n as f64; n];
        let split = ForceSplit::new(0.3, 0.0);
        let tree = SnapshotTree::build(&points, &masses, Aabb::UNIT, TreeParams::default());
        let view = tree.view();
        let walk = GroupWalk::new(&view, TraverseParams {
            theta: 0.0,
            group_size: 8,
            r_cut: Some(0.3),
            periodic: true,
            multipole: Default::default(),
        });
        let mut acc = vec![Vec3::ZERO; n];
        walk.for_each_group(|group, list| {
            for slot in group.first..group.first + group.count {
                let i = tree.order()[slot as usize] as usize;
                let p = points[i];
                let mut a = Vec3::ZERO;
                for s in list {
                    a += split.pp_accel(s.pos - p, s.mass);
                }
                acc[i] = a;
            }
        });
        for i in 0..n {
            let mut want = Vec3::ZERO;
            for j in 0..n {
                if i != j {
                    want += split.pp_accel(min_image_vec(points[j], points[i]), masses[j]);
                }
            }
            // Relative tolerance with an absolute floor: near ξ → 2 the
            // cutoff polynomial evaluates by catastrophic cancellation
            // (g ~ 1e-6 from O(1) terms), so forces there carry ~1e-13
            // absolute FP noise that both evaluation paths sample at
            // minutely different ξ. Real traversal bugs are O(want).
            prop_assert!(
                (acc[i] - want).norm() <= 1e-9 * want.norm() + 1e-11,
                "particle {} of {}: {:?} vs {:?}", i, n, acc[i], want
            );
        }
    }
}
