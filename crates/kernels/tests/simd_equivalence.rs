//! Randomized SIMD ↔ scalar equivalence suite for the PP kernel family.
//!
//! Every optimised kernel variant the host can run is checked against
//! the exact-sqrt scalar reference over:
//!
//! * every target count 1..=2·block+1 for the widest block in the
//!   family (AVX-512: one vector of 16 lanes; AVX2: 8; portable: 4) —
//!   every full-block / single-lane remainder — times source counts
//!   leaving every remainder of the four-source trip of the x86 loop;
//! * zero and nonzero softening;
//! * source shells straddling the ξ = 1 (branch term switches on) and
//!   ξ = 2 (cutoff) seams of eq. (3);
//! * self-pairs (targets that are also sources);
//! * the range contract of the single-precision conversion pass.
//!
//! Tolerances are per-interaction — measured against the Newtonian
//! magnitude sum `Σ m/(r²+ε²)` of the in-cutoff sources (see
//! `greem_kernels::testutil::interaction_scale`): ≤ 2⁻¹⁸ for both x86
//! kernels (f32 arithmetic on origin-relative coordinates; what it
//! costs is the cancellation in g(ξ) near ξ → 2, where the polynomial's
//! terms reach ~50), ≤ 2⁻²² for the f64 portable kernel whose software
//! seed is only ~9-bit. Every test prints the worst case it measured.
//!
//! Three *bitwise* properties the drivers rely on are pinned here for
//! every variant: the dispatched path equals its direct call; given
//! `Targets::origin`, a target's result does not depend on its block
//! position or on the other targets (which also covers the zero-padded
//! last block of the x86 kernels); and a source whose force is zero —
//! massless, beyond the cutoff or at zero distance — changes no bit
//! wherever it sits in the list (what interaction-list replay with
//! inflated margins needs; it also moves every later source to another
//! slot of the x86 loop's four-source trip). On top of them a golden
//! hash per variant holds the result bits themselves, and the x86
//! kernels' cull is held to deleting the sources out of each target
//! vector's reach.
//! Every test iterates `available_variants()`, so a CI leg that forces
//! one kernel still checks every width its host has.

use std::collections::HashMap;

use greem_kernels::testutil::{hardware_seed_is_the_recorded_one, interaction_scale};
use greem_kernels::{
    available_variants, pp_accel_dispatch, pp_accel_phantom, pp_accel_scalar, pp_accel_variant,
    selected_variant, KernelVariant, SourceList, Targets,
};
use greem_math::testutil::{Fnv1a, TestLcg};
use greem_math::{ForceSplit, Vec3};

/// The largest target block among the variants this host runs.
fn widest_block() -> usize {
    available_variants()
        .iter()
        .map(|v| v.target_block())
        .max()
        .unwrap()
}

/// The explicit-SIMD variants among those this host runs.
fn x86_variants() -> Vec<KernelVariant> {
    let mut v = available_variants();
    v.retain(|k| matches!(k, KernelVariant::Avx512 | KernelVariant::Avx2));
    v
}

fn tolerance(variant: KernelVariant) -> f64 {
    match variant {
        KernelVariant::Avx2 | KernelVariant::Avx512 => 2.0f64.powi(-18),
        KernelVariant::Portable => 2.0f64.powi(-22),
        KernelVariant::Scalar => 0.0,
    }
}

fn random_sources(rng: &mut TestLcg, n: usize, scale: f64) -> SourceList {
    (0..n)
        .map(|_| (rng.next_vec3() * scale, 0.5 + rng.next_f64()))
        .collect()
}

fn accel_bits(t: &Targets, i: usize) -> [u64; 3] {
    [t.ax[i].to_bits(), t.ay[i].to_bits(), t.az[i].to_bits()]
}

/// `base` with `extra` inserted before its source `at` (after the last
/// one when `at == base.len()`).
fn with_inserted(base: &SourceList, at: usize, extra: &[(Vec3, f64)]) -> SourceList {
    let sources = |range: std::ops::Range<usize>| range.map(|j| (base.pos(j), base.m[j]));
    sources(0..at)
        .chain(extra.iter().copied())
        .chain(sources(at..base.len()))
        .collect()
}

/// The worst per-interaction error a test has seen, per variant.
#[derive(Default)]
struct Worst(HashMap<KernelVariant, f64>);

impl Worst {
    fn see(&mut self, case: Vec<(KernelVariant, f64)>) {
        for (variant, ratio) in case {
            let w = self.0.entry(variant).or_insert(0.0);
            *w = w.max(ratio);
        }
    }

    fn report(&self, test: &str) {
        for (variant, ratio) in available_variants()
            .into_iter()
            .filter_map(|v| Some((v, *self.0.get(&v)?)))
        {
            eprintln!(
                "{test}: {:>8} worst per-interaction error 2^{:.1} (budget 2^{:.0})",
                variant.name(),
                ratio.log2(),
                tolerance(variant).log2()
            );
        }
    }
}

/// Assert every optimised variant matches the scalar reference on one
/// (targets, sources) case, per-interaction-relative. Returns each
/// variant's worst error as a fraction of the interaction scale.
fn check_case(
    label: &str,
    targets_pos: &[Vec3],
    sources: &SourceList,
    split: &ForceSplit,
) -> Vec<(KernelVariant, f64)> {
    let mut t_ref = Targets::from_positions(targets_pos);
    pp_accel_scalar(&mut t_ref, sources, split);
    let mut worst = Vec::new();
    for variant in available_variants() {
        if variant == KernelVariant::Scalar {
            continue;
        }
        let mut t = Targets::from_positions(targets_pos);
        let n = pp_accel_variant(variant, &mut t, sources, split);
        assert_eq!(n, (targets_pos.len() * sources.len()) as u64);
        let tol = tolerance(variant);
        let mut worst_ratio = 0.0f64;
        for (i, &tp) in targets_pos.iter().enumerate() {
            let a = t_ref.accel(i);
            let b = t.accel(i);
            let scale = interaction_scale(split, tp, sources);
            assert!(
                (a - b).norm() <= tol * scale.max(1e-30),
                "{label}: variant {} target {i}: {a:?} vs {b:?} \
                 (err {:e}, budget {:e})",
                variant.name(),
                (a - b).norm(),
                tol * scale.max(1e-30)
            );
            worst_ratio = worst_ratio.max((a - b).norm() / scale.max(1e-30));
        }
        worst.push((variant, worst_ratio));
    }
    worst
}

#[test]
fn random_clouds_across_remainder_sizes_and_softening() {
    let r_cut = 0.3;
    let mut worst = Worst::default();
    for eps in [0.0, 1e-3] {
        let split = ForceSplit::new(r_cut, eps);
        let mut rng = TestLcg::new(2024);
        for nt in 1..=2 * widest_block() + 1 {
            for ns in [1, 2, 7, 8, 33] {
                let tp: Vec<Vec3> = (0..nt).map(|_| rng.next_vec3() * (2.0 * r_cut)).collect();
                let sp: Vec<Vec3> = (0..ns).map(|_| rng.next_vec3() * (2.0 * r_cut)).collect();
                let sources: SourceList = sp.iter().map(|&p| (p, 0.5 + rng.next_f64())).collect();
                let label = format!("cloud nt={nt} ns={ns} eps={eps}");
                worst.see(check_case(&label, &tp, &sources, &split));
            }
        }
    }
    worst.report("clouds");
}

#[test]
fn every_source_tail_meets_every_vector_remainder() {
    // Source counts 0..=9 leave every remainder of a pipeline that
    // carries up to four sources a trip; target counts leave every
    // lane remainder of the widest block, twice over. Each case is
    // held to the scalar reference, and bit for bit to the same list
    // behind one, two and three leading nulls — which move every source
    // through every pipeline slot, the tail's included.
    let r_cut = 0.3;
    let mut worst = Worst::default();
    for eps in [0.0, 1e-2] {
        let split = ForceSplit::new(r_cut, eps);
        let mut rng = TestLcg::new(1201);
        for ns in 0..=9 {
            let sources = random_sources(&mut rng, ns, 1.5 * r_cut);
            for nt in 1..=2 * widest_block() + 1 {
                let tp: Vec<Vec3> = (0..nt).map(|_| rng.next_vec3() * (1.5 * r_cut)).collect();
                let label = format!("tail nt={nt} ns={ns} eps={eps}");
                worst.see(check_case(&label, &tp, &sources, &split));
                for variant in available_variants() {
                    let mut want = Targets::from_positions(&tp);
                    pp_accel_variant(variant, &mut want, &sources, &split);
                    for lead in 1..=3 {
                        let list = with_inserted(&sources, 0, &vec![(tp[0], 0.0); lead]);
                        let mut got = Targets::from_positions(&tp);
                        pp_accel_variant(variant, &mut got, &list, &split);
                        for i in 0..nt {
                            assert_eq!(
                                accel_bits(&got, i),
                                accel_bits(&want, i),
                                "{} eps={eps}: target {i} of {nt}, {ns} sources behind {lead} nulls",
                                variant.name()
                            );
                        }
                    }
                }
            }
        }
    }
    worst.report("tails");
}

#[test]
fn shells_straddling_both_cutoff_seams() {
    // Sources placed on exact shells around each target: ξ = 2r/r_cut
    // crosses 1 where the ζ⁶ branch term switches on and 2 where the
    // force cuts off. Radii sit tight on both seams from both sides.
    let r_cut = 0.25;
    let seam_factors = [
        0.45, 0.495, 0.5, 0.505, 0.55, // around ξ = 1 (r = r_cut/2)
        0.9, 0.99, 0.999, 1.0, 1.001, 1.1, // around ξ = 2 (r = r_cut)
    ];
    let mut worst = Worst::default();
    for eps in [0.0, 5e-4] {
        let split = ForceSplit::new(r_cut, eps);
        let mut rng = TestLcg::new(777);
        for nt in [1, 3, 9, 16, 17, 33] {
            let tp: Vec<Vec3> = (0..nt).map(|_| rng.next_vec3()).collect();
            let mut sources = SourceList::default();
            for &t in &tp {
                for &f in &seam_factors {
                    // A random direction (offset from the cube centre,
                    // normalised by hand; Vec3 has no unit() helper).
                    let off = rng.next_vec3() - Vec3::splat(0.5);
                    let d = off * (1.0 / off.norm().max(1e-9));
                    sources.push(t + d * (f * r_cut), 0.25 + rng.next_f64());
                }
            }
            let label = format!("shells nt={nt} eps={eps}");
            worst.see(check_case(&label, &tp, &sources, &split));
        }
    }
    worst.report("shells");
}

#[test]
fn self_pairs_contribute_nothing_in_any_variant() {
    let split = ForceSplit::new(0.4, 0.0);
    let mut rng = TestLcg::new(99);
    let tp: Vec<Vec3> = (0..widest_block() + 3)
        .map(|_| rng.next_vec3() * 0.5)
        .collect();
    // Every target is also a source (the walk's own-group case), plus a
    // few neighbours so the non-self part is nonzero.
    let mut sources: SourceList = tp.iter().map(|&p| (p, 1.0)).collect();
    for _ in 0..5 {
        sources.push(rng.next_vec3() * 0.5, 2.0);
    }
    let mut worst = Worst::default();
    worst.see(check_case("self-pairs", &tp, &sources, &split));
    worst.report("self-pairs");

    // And the pure self-pair must be exactly zero, not just small.
    for variant in available_variants() {
        let p = Vec3::splat(0.2);
        let mut t = Targets::from_positions(&[p]);
        let s: SourceList = [(p, 3.0)].into_iter().collect();
        pp_accel_variant(variant, &mut t, &s, &split);
        assert_eq!(
            t.accel(0),
            Vec3::ZERO,
            "variant {} self-pair",
            variant.name()
        );
    }

    // Zero distance with nothing to hide behind: the x86 kernels carry
    // no r² > 0 predicate, only the floor under the rsqrt argument, so a
    // coincident pair evaluates a finite force factor and multiplies it
    // by dx = dy = dz = +0. However heavy the source, wherever it sits
    // among ordinary ones and whether it is the target itself or a
    // distinct particle on top of it, it must change no bit. (Targets
    // two cutoff radii apart, so one target's twin is out of reach of
    // the next.)
    let tp: Vec<Vec3> = (0..widest_block() + 3)
        .map(|i| Vec3::new(i as f64, (i % 3) as f64, 0.0) * (2.0 * split.r_cut))
        .collect();
    let near: SourceList = (0..tp.len())
        .map(|k| (tp[k] + rng.next_vec3() * (0.5 * split.r_cut), 1.5))
        .collect();
    for variant in available_variants() {
        let mut want = Targets::from_positions(&tp);
        pp_accel_variant(variant, &mut want, &near, &split);
        for mass in [1.0, -2.5, 1e200, -1e200] {
            // Every target twice: itself and a twin.
            let twins: Vec<(Vec3, f64)> = tp.iter().chain(&tp).map(|&p| (p, mass)).collect();
            for at in 0..=near.len() {
                let list = with_inserted(&near, at, &twins);
                let mut got = Targets::from_positions(&tp);
                pp_accel_variant(variant, &mut got, &list, &split);
                for i in 0..tp.len() {
                    assert!(got.accel(i).norm().is_finite());
                    assert_eq!(
                        accel_bits(&got, i),
                        accel_bits(&want, i),
                        "{}: target {i}, coincident mass {mass:e} before source {at}",
                        variant.name()
                    );
                }
            }
        }
    }
}

#[test]
fn given_the_origin_a_targets_result_is_bitwise_independent_of_its_block_and_neighbours() {
    // Blocking invariance: from one origin, target i gets the same three
    // accelerations computed alone (from zero), at any position inside
    // any target count, and on top of pre-existing non-zero
    // accelerations — the zero-padded last blocks included. (The origin
    // is by default the call's first target; a target's bits do depend
    // on it, which is why it is pinned here.)
    let origin = [0.25; 3];
    for eps in [0.0, 2e-3] {
        let split = ForceSplit::new(0.3, eps);
        let mut rng = TestLcg::new(5150);
        let n = 2 * widest_block() + 6;
        let tp: Vec<Vec3> = (0..n).map(|_| rng.next_vec3() * 0.5).collect();
        let pre: Vec<Vec3> = (0..n)
            .map(|_| (rng.next_vec3() - Vec3::splat(0.5)) * 40.0)
            .collect();
        // A few targets are sources too (the walk's own-group case).
        let mut sources = random_sources(&mut rng, 37, 0.5);
        for &p in tp.iter().step_by(7) {
            sources.push(p, 1.5);
        }
        for variant in available_variants() {
            let alone: Vec<Vec3> = tp
                .iter()
                .map(|&p| {
                    let mut t = Targets::from_positions(&[p]);
                    t.origin = origin;
                    pp_accel_variant(variant, &mut t, &sources, &split);
                    t.accel(0)
                })
                .collect();
            for start in [0, 1, 5] {
                for nt in 1..=n - start {
                    let mut t = Targets::from_positions(&tp[start..start + nt]);
                    t.origin = origin;
                    for (k, a) in pre[start..start + nt].iter().enumerate() {
                        (t.ax[k], t.ay[k], t.az[k]) = (a.x, a.y, a.z);
                    }
                    pp_accel_variant(variant, &mut t, &sources, &split);
                    for k in 0..nt {
                        let want = pre[start + k] + alone[start + k];
                        assert_eq!(
                            accel_bits(&t, k),
                            [want.x.to_bits(), want.y.to_bits(), want.z.to_bits()],
                            "{} eps={eps}: target {} at position {k} of {nt}",
                            variant.name(),
                            start + k
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn sources_with_zero_force_change_no_bit_wherever_they_sit() {
    // Null-source invariance: a massless source, or one beyond the
    // cutoff, leaves every accumulator bit for bit alone. Margin-
    // inflated recorded lists differ from fresh ones by exactly such
    // entries, so list replay is only bitwise-stable if this holds.
    let r_cut = 0.2;
    for eps in [0.0, 1e-3] {
        let split = ForceSplit::new(r_cut, eps);
        let mut rng = TestLcg::new(8086);
        let nt = widest_block() + 3;
        let tp: Vec<Vec3> = (0..nt).map(|_| rng.next_vec3() * 0.3).collect();
        let base = random_sources(&mut rng, 29, 0.3);
        // Every target sits in [0, 0.3)³, so x ≥ 0.3 + r_cut is out of
        // reach of all of them.
        let mut null = |k: usize| match k % 3 {
            0 => (rng.next_vec3() * 0.3, 0.0),
            1 => (tp[k % nt], 0.0),
            _ => (Vec3::new(0.55, 0.0, 0.0) + rng.next_vec3(), 3.0),
        };
        // Nulls at the front, after every `stride`-th source, and at
        // the end.
        let mut inflated = Vec::new();
        for stride in [1, 4, 29] {
            let mut list: SourceList = (0..3).map(&mut null).collect();
            for j in 0..base.len() {
                list.push(base.pos(j), base.m[j]);
                if (j + 1) % stride == 0 {
                    let (p, m) = null(j);
                    list.push(p, m);
                }
            }
            inflated.push(list);
        }
        // One null at every list position: each shifts every later
        // source to another slot of a kernel that keeps several sources
        // in flight.
        for at in 0..=base.len() {
            inflated.push(with_inserted(&base, at, &[null(at)]));
        }
        for variant in available_variants() {
            let mut want = Targets::from_positions(&tp);
            pp_accel_variant(variant, &mut want, &base, &split);
            for list in &inflated {
                let mut got = Targets::from_positions(&tp);
                pp_accel_variant(variant, &mut got, list, &split);
                for i in 0..nt {
                    assert_eq!(
                        accel_bits(&got, i),
                        accel_bits(&want, i),
                        "{} eps={eps}: target {i}, {} nulls among {} sources",
                        variant.name(),
                        list.len() - base.len(),
                        base.len()
                    );
                }
            }
        }
    }
}

#[test]
fn degenerate_separations_keep_the_hardware_seeds_finite() {
    // r² subnormal, below the f32 normal range, exactly zero, above
    // the f32 range and near the f64 ceiling — with no softening to
    // hide behind. Above their 2⁻⁸⁰ floor and under the 2⁴⁰ ξ clamp
    // `vrsqrtps` and `vrsqrt14ps` must both come out finite, and the
    // masked cases exactly zero.
    let split = ForceSplit::new(0.3, 0.0);
    let p = Vec3::splat(0.25);
    let at = |dx: f64| (Vec3::new(p.x + dx, p.y, p.z), 2.0);
    let mut rng = TestLcg::new(64);
    for variant in x86_variants() {
        // (what, its force is masked to exactly zero, target, sources);
        // the subnormal cases sit at the origin so that 1e-160 survives
        // the subtraction.
        let near = |dx: f64| vec![(Vec3::new(dx, 0.0, 0.0), 2.0)];
        for (label, masked, target, list) in [
            ("subnormal r²", false, Vec3::ZERO, near(1e-160)),
            ("f32-subnormal r²", false, Vec3::ZERO, near(1e-25)),
            ("zero r²", true, p, vec![at(0.0)]),
            ("r² past f32", true, p, vec![at(1e25)]),
            ("huge r²", true, p, vec![at(1e150), at(-1e150)]),
        ] {
            // The degenerate target shares its block with ordinary ones.
            let mut tp = vec![target];
            tp.extend((0..variant.target_block()).map(|_| rng.next_vec3() * 0.3));
            let sources: SourceList = list.into_iter().collect();
            let mut t = Targets::from_positions(&tp);
            pp_accel_variant(variant, &mut t, &sources, &split);
            for i in 0..tp.len() {
                let a = t.accel(i);
                assert!(
                    a.x.is_finite() && a.y.is_finite() && a.z.is_finite(),
                    "{} {label}: target {i} got {a:?}",
                    variant.name()
                );
            }
            if masked {
                assert_eq!(t.accel(0), Vec3::ZERO, "{} {label}", variant.name());
            }
        }
    }
}

#[test]
fn the_range_contract_clamps_or_reroutes_and_never_overflows() {
    // What the single-precision conversion pass promises about inputs
    // f32 cannot hold as they stand.
    let mut rng = TestLcg::new(2112);
    let mut worst = Worst::default();

    // The astro scenarios' units: kiloparsecs from a far corner, 10¹⁰
    // solar masses, a cutoff of a few kpc, a tree node a million times
    // a particle — with and without softening, and every target its own
    // source at ε = 0.
    let corner = Vec3::new(4.0e4, -2.5e4, 3.0e4);
    for eps in [0.0, 0.05] {
        let split = ForceSplit::new(6.0, eps);
        let tp: Vec<Vec3> = (0..widest_block() + 5)
            .map(|_| corner + rng.next_vec3() * 8.0)
            .collect();
        let mut sources: SourceList = (0..90)
            .map(|_| {
                let m = 1e10 * (0.5 + rng.next_f64());
                (corner + rng.next_vec3() * 12.0 - Vec3::splat(2.0), m)
            })
            .collect();
        sources.push(corner + Vec3::splat(3.0), 2.5e16);
        for &p in &tp {
            sources.push(p, 1e10);
        }
        let label = format!("kpc units eps={eps}");
        worst.see(check_case(&label, &tp, &sources, &split));
    }
    worst.report("range");

    let split = ForceSplit::new(0.3, 0.0);
    let tp: Vec<Vec3> = (0..widest_block() + 2)
        .map(|_| rng.next_vec3() * 0.4)
        .collect();
    let near = random_sources(&mut rng, 21, 0.4);
    for variant in available_variants() {
        let mut want = Targets::from_positions(&tp);
        pp_accel_variant(variant, &mut want, &near, &split);
        // A source at 10³⁰, or one 2⁷⁰ times too heavy to stage, changes
        // no bit while it is beyond the cutoff.
        let remote = [
            (Vec3::new(1e30, -1e30, 0.0), 1.0),
            (Vec3::new(0.9, 0.9, 0.9), 1e22),
        ];
        for at in [0, 7, near.len()] {
            let mut got = Targets::from_positions(&tp);
            pp_accel_variant(
                variant,
                &mut got,
                &with_inserted(&near, at, &remote),
                &split,
            );
            for i in 0..tp.len() {
                assert_eq!(
                    accel_bits(&got, i),
                    accel_bits(&want, i),
                    "{}: target {i}, remote sources before source {at}",
                    variant.name()
                );
            }
        }
    }
    let mut far_tp = tp.clone();
    far_tp.push(Vec3::new(0.1, 1e30, 0.1));
    let newtonian = ForceSplit::new(f64::INFINITY, 0.0);
    for variant in x86_variants() {
        // Inside the cutoff the source too heavy to stage is evaluated
        // exactly.
        let heavy = with_inserted(&near, 3, &[(Vec3::splat(0.2), 1e22)]);
        let (mut got, mut exact) = (Targets::from_positions(&tp), Targets::from_positions(&tp));
        pp_accel_variant(variant, &mut got, &heavy, &split);
        pp_accel_scalar(&mut exact, &heavy, &split);
        for (i, &p) in tp.iter().enumerate() {
            // The single-precision budget on the ordinary sources, an
            // f64 one on the whole.
            let budget = tolerance(variant) * interaction_scale(&split, p, &near)
                + 2.0f64.powi(-48) * interaction_scale(&split, p, &heavy);
            let err = (got.accel(i) - exact.accel(i)).norm();
            assert!(
                err <= budget,
                "{}: target {i} beside a 1e22 source: err {err:e}, budget {budget:e}",
                variant.name()
            );
        }
        // A target at 10³⁰ from the first, or a cutoff no f32 length can
        // be measured in: that call goes to the scalar kernel whole.
        for (tp, split) in [(&far_tp, &split), (&tp, &newtonian)] {
            let (mut got, mut exact) = (Targets::from_positions(tp), Targets::from_positions(tp));
            pp_accel_variant(variant, &mut got, &near, split);
            pp_accel_scalar(&mut exact, &near, split);
            for i in 0..tp.len() {
                assert_eq!(
                    accel_bits(&got, i),
                    accel_bits(&exact, i),
                    "{}",
                    variant.name()
                );
            }
        }
    }
}

/// `list` without the sources farther than the cutoff from the box of
/// `block` — a source with a NaN coordinate is never farther.
fn within_reach(block: &[Vec3], list: &SourceList, r_cut: f64) -> SourceList {
    let lo = block
        .iter()
        .fold(Vec3::splat(f64::INFINITY), |a, &p| a.min(p));
    let hi = block
        .iter()
        .fold(Vec3::splat(f64::NEG_INFINITY), |a, &p| a.max(p));
    (0..list.len())
        .filter(|&j| {
            let p = list.pos(j);
            let d = (lo - p).max(p - hi).max(Vec3::ZERO);
            d.norm2() <= r_cut * r_cut || p.x.is_nan() || p.y.is_nan() || p.z.is_nan()
        })
        .map(|j| (list.pos(j), list.m[j]))
        .collect()
}

/// Holds `variant` on `tp` × `list`, bit for bit, to the same call with
/// each vector of targets given only the sources within its reach: that
/// vector's own call, from the same origin, on [`within_reach`]'s list.
/// Returns the call.
fn assert_culled_is_deleted(
    label: &str,
    variant: KernelVariant,
    tp: &[Vec3],
    list: &SourceList,
    split: &ForceSplit,
) -> Targets {
    let mut got = Targets::from_positions(tp);
    pp_accel_variant(variant, &mut got, list, split);
    let w = variant.target_block();
    for (b, block) in tp.chunks(w).enumerate() {
        let mut want = Targets::from_positions(block);
        want.origin = got.origin;
        pp_accel_variant(
            variant,
            &mut want,
            &within_reach(block, list, split.r_cut),
            split,
        );
        for i in 0..block.len() {
            assert_eq!(
                accel_bits(&got, b * w + i),
                accel_bits(&want, i),
                "{label}, {}: target {} of {}",
                variant.name(),
                b * w + i,
                tp.len()
            );
        }
    }
    got
}

#[test]
fn the_cull_equals_deleting_the_sources_out_of_reach() {
    // The x86 kernels keep, per vector of targets, the sources within
    // 2·(1 + 2⁻¹⁰) ξ of its live box. Sources 2⁻⁹ of the cutoff either
    // side of that box — along every axis and past a corner — a vector
    // that keeps every source and one that keeps none, a partial last
    // vector whose dead lanes (at the origin) lie outside its box, and
    // NaN, clamped and too-heavy sources: every call must equal, bit for
    // bit, the same targets given only the sources in reach.
    let r_cut = 0.1;
    let (inside, outside) = (r_cut * (1.0 - 2f64.powi(-9)), r_cut * (1.0 + 2f64.powi(-9)));
    let axis = |k: usize, d: f64| {
        let mut v = Vec3::ZERO;
        v[k] = d;
        v
    };
    let ordinary = |at: &[Vec3]| -> Vec<(Vec3, f64)> { at.iter().map(|&p| (p, 1.0)).collect() };
    for eps in [0.0, 1e-3] {
        let split = ForceSplit::new(r_cut, eps);
        for variant in x86_variants() {
            let (w, name) = (variant.target_block(), variant.name());
            let mut rng = TestLcg::new(4711);
            let mut cube = |corner: f64, n: usize| -> Vec<Vec3> {
                (0..n)
                    .map(|_| Vec3::splat(corner) + rng.next_vec3() * 0.05)
                    .collect()
            };
            let (block, far, partial) = (cube(0.3, w), cube(0.8, w), cube(0.8, 3));
            let near = ordinary(&cube(0.3, 23));
            let near_far = ordinary(&cube(0.8, 11));

            // The shells: beside each box face's outermost target, and
            // past the box's two far corners.
            let lo = block.iter().fold(Vec3::splat(1.0), |a, &p| a.min(p));
            let hi = block.iter().fold(Vec3::ZERO, |a, &p| a.max(p));
            let diagonal = Vec3::splat(1.0 / 3f64.sqrt());
            let mut shells = Vec::new();
            for k in 0..3 {
                for sign in [-1.0, 1.0] {
                    let i = (0..w)
                        .max_by(|&a, &b| (sign * block[a][k]).total_cmp(&(sign * block[b][k])))
                        .unwrap();
                    for d in [inside, outside] {
                        shells.push((block[i] + axis(k, sign * d), 1.0));
                    }
                    // In reach of target i alone, it moves i's bits: the
                    // cull keeps it.
                    let one: SourceList = [(block[i] + axis(k, sign * inside), 1.0)]
                        .into_iter()
                        .collect();
                    let got = assert_culled_is_deleted("one shell", variant, &block, &one, &split);
                    assert_ne!(
                        got.accel(i)[k],
                        0.0,
                        "{name}: a source {inside} from target {i}"
                    );
                }
            }
            for d in [inside, outside] {
                shells.push((hi + diagonal * d, 1.0));
                shells.push((lo - diagonal * d, 1.0));
            }
            let list: SourceList = near.iter().chain(&shells).copied().collect();
            assert_culled_is_deleted("shells", variant, &block, &list, &split);

            // Every source in reach of the first vector, none of the
            // second's.
            let two: Vec<Vec3> = block.iter().chain(&far).copied().collect();
            let list: SourceList = near.iter().copied().collect();
            let got = assert_culled_is_deleted("all or none", variant, &two, &list, &split);
            assert_eq!(got.pairs_kept(), (w * list.len()) as u64, "{name}");

            // A partial last vector far from the origin, sources near
            // both vectors.
            let tp: Vec<Vec3> = block.iter().chain(&partial).copied().collect();
            let list: SourceList = near.iter().chain(&near_far).copied().collect();
            assert_culled_is_deleted("partial", variant, &tp, &list, &split);

            // A source clamped to 2⁴⁰ ξ, and sources too heavy to stage:
            // one in reach of each vector, one of neither.
            let odd = [
                (Vec3::new(1e30, -1e30, 0.3), 1.0),
                (Vec3::splat(0.33), 1e22),
                (Vec3::splat(0.82), 1e22),
                (Vec3::splat(0.55), 1e22),
            ];
            let list: SourceList = near.iter().chain(&odd).chain(&near_far).copied().collect();
            assert_culled_is_deleted("clamped and heavy", variant, &tp, &list, &split);

            // A NaN coordinate beside far ones is kept: it makes every
            // target's sum NaN, as it does without a cull.
            let nan = [
                (Vec3::new(f64::NAN, 5.0, 5.0), 1.0),
                (Vec3::new(5.0, f64::NAN, -5.0), 1.0),
                (Vec3::new(-5.0, 5.0, f64::NAN), 1.0),
            ];
            let list: SourceList = near.iter().chain(&nan).copied().collect();
            let got = assert_culled_is_deleted("NaN", variant, &tp, &list, &split);
            for i in 0..tp.len() {
                let a = got.accel(i);
                assert!(
                    a.x.is_nan() && a.y.is_nan() && a.z.is_nan(),
                    "{name}: target {i}: {a:?}"
                );
            }
        }
    }
}

/// FNV-1a over the `to_bits` of every acceleration the golden corpus
/// produces under `variant`: nt ∈ 1..=2·32+1 targets (every vector
/// count and lane remainder of both x86 widths, twice over) against
/// ns ∈ {0, 1, 2, 3, 7, 64, 1201} sources, hard and softened, onto
/// pre-loaded accumulators. Positions fill 2·r_cut so both seams of
/// eq. (3) and the cutoff mask are crossed.
fn golden_hash(variant: KernelVariant) -> u64 {
    let r_cut = 0.3;
    let mut hash = Fnv1a::default();
    let mut rng = TestLcg::new(1729);
    for eps in [0.0, r_cut / 30.0] {
        let split = ForceSplit::new(r_cut, eps);
        for ns in [0, 1, 2, 3, 7, 64, 1201] {
            let sources = random_sources(&mut rng, ns, 2.0 * r_cut);
            for nt in 1..=2 * 32 + 1 {
                let tp: Vec<Vec3> = (0..nt).map(|_| rng.next_vec3() * (2.0 * r_cut)).collect();
                let mut t = Targets::from_positions(&tp);
                for k in 0..nt {
                    let a = (rng.next_vec3() - Vec3::splat(0.5)) * 50.0;
                    (t.ax[k], t.ay[k], t.az[k]) = (a.x, a.y, a.z);
                }
                pp_accel_variant(variant, &mut t, &sources, &split);
                for k in 0..nt {
                    for bits in accel_bits(&t, k) {
                        hash.u64(bits);
                    }
                }
            }
        }
    }
    hash.0
}

#[test]
fn golden_corpus_hashes_are_bit_for_bit_the_recorded_ones() {
    // The x86 pins were recorded when the kernels moved to single
    // precision (PR 21), the portable one at the PR 16 tree. A kernel
    // change that is meant to keep every result bit (a new schedule, a
    // new block shape) must pass with these untouched; one that is meant
    // to move bits re-records them and says so.
    let mut moved = Vec::new();
    for variant in available_variants() {
        let want: u64 = match variant {
            KernelVariant::Avx512 => 0x50f5_bb73_d9b6_09c2,
            KernelVariant::Avx2 => 0x7e97_8698_6ba1_5721,
            KernelVariant::Portable => 0x17c7_14fb_1bab_36d3,
            // The reference the others are measured against, not a
            // kernel anybody reschedules.
            KernelVariant::Scalar => continue,
        };
        if variant != KernelVariant::Portable && !hardware_seed_is_the_recorded_one() {
            eprintln!(
                "skipping the {} pin: not the recording vendor's rsqrt table",
                variant.name()
            );
            continue;
        }
        let got = golden_hash(variant);
        if got != want {
            moved.push(format!("{} {got:#018x}", variant.name()));
        }
    }
    assert!(moved.is_empty(), "result bits moved: {moved:?}");
}

#[test]
fn dispatched_path_is_bitwise_its_direct_call() {
    let split = ForceSplit::new(0.3, 1e-4);
    let mut rng = TestLcg::new(4242);
    let tp: Vec<Vec3> = (0..41).map(|_| rng.next_vec3() * 0.6).collect();
    let sources: SourceList = (0..57)
        .map(|_| (rng.next_vec3() * 0.6, 0.5 + rng.next_f64()))
        .collect();
    let mut dispatched = Targets::from_positions(&tp);
    let mut direct = Targets::from_positions(&tp);
    pp_accel_dispatch(&mut dispatched, &sources, &split);
    pp_accel_variant(selected_variant(), &mut direct, &sources, &split);
    assert_eq!(dispatched.ax, direct.ax);
    assert_eq!(dispatched.ay, direct.ay);
    assert_eq!(dispatched.az, direct.az);
    assert!(selected_variant().is_available());
}

#[test]
fn forced_portable_path_is_bitwise_the_portable_kernel() {
    let split = ForceSplit::new(0.2, 0.0);
    let mut rng = TestLcg::new(31337);
    let tp: Vec<Vec3> = (0..23).map(|_| rng.next_vec3() * 0.4).collect();
    let sources: SourceList = (0..29).map(|_| (rng.next_vec3() * 0.4, 1.0)).collect();
    let mut forced = Targets::from_positions(&tp);
    let mut direct = Targets::from_positions(&tp);
    pp_accel_variant(KernelVariant::Portable, &mut forced, &sources, &split);
    pp_accel_phantom(&mut direct, &sources, &split);
    assert_eq!(forced.ax, direct.ax);
    assert_eq!(forced.ay, direct.ay);
    assert_eq!(forced.az, direct.az);
}
