//! Property-based tests for the distance functions and lower bounds.

use dita_distance::{
    amd, dtw, dtw_double_direction, dtw_threshold, edr, edr_threshold, frechet, lcss_distance,
    lcss_similarity, mbr_coverage_prune, pamd, point_mbr_max, point_mbr_sum, DistanceFunction,
};
use dita_trajectory::{CellList, Mbr, Point, SoaPoints, Trajectory};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_seq(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(arb_point(), 1..max_len)
}

/// The point-to-MBR bounds of `a` against `MBR(b)` (Lemma 5.4, point by
/// point) may never exceed the plain O(mn) references — exactly, no
/// tolerance — and may prune at no threshold at or above them.
fn assert_point_mbr_sound(a: &[Point], b: &[Point]) {
    let (d, f) = (dtw(a, b), frechet(a, b));
    let sa = SoaPoints::from_points(a);
    let mb = Mbr::from_points(b);
    let sum = point_mbr_sum(sa.view(), &mb, f64::INFINITY);
    let max = point_mbr_max(sa.view(), &mb, f64::INFINITY);
    assert!(sum <= d, "sum {sum} > dtw {d}: {a:?} vs {b:?}");
    assert!(max <= f, "max {max} > frechet {f}: {a:?} vs {b:?}");
    // tau = 0, the kernel's own distance, one ulp either side, and far out.
    for tau in [
        0.0,
        d.next_down(),
        d,
        d.next_up(),
        f.next_down(),
        f,
        f.next_up(),
        2.0 * d + 1.0,
    ] {
        let tau = tau.max(0.0);
        // An abandoned scan is still a bound: above tau means above tau.
        if point_mbr_sum(sa.view(), &mb, tau) > tau {
            assert!(d > tau, "dtw {d} pruned at tau {tau}: {a:?} vs {b:?}");
        }
        if point_mbr_max(sa.view(), &mb, tau) > tau {
            assert!(f > tau, "frechet {f} pruned at tau {tau}: {a:?} vs {b:?}");
        }
    }
}

/// The shapes random walks do not reach (ROADMAP item 3), every ordered
/// pair of them.
#[test]
fn point_mbr_bounds_hold_on_adversarial_shapes() {
    let p = Point::new;
    let long: Vec<Point> = (0..40)
        .map(|i| p((i % 7) as f64 - 3.0, (i / 7) as f64 - 3.0))
        .collect();
    let shapes: Vec<Vec<Point>> = vec![
        // 1–3-point trajectories, one-point MBRs.
        vec![p(0.0, 0.0)],
        vec![p(0.5, -0.25)],
        vec![p(0.0, 0.0), p(0.0, 0.0)],
        vec![p(0.0, 0.0), p(3.0, 4.0)],
        vec![p(1.0, 1.0), p(1.0, 1.0), p(1.0, 1.0)],
        vec![p(-2.0, 0.1), p(0.3, 0.7), p(0.3, 0.7)],
        // A long member wrapping a short query (and, as the other order of
        // the pair, the reverse).
        long.clone(),
        vec![p(0.1, 0.1), p(0.2, -0.1)],
        // Duplicates inside a longer run, and a degenerate (flat) MBR.
        vec![
            p(0.0, 0.0),
            p(5.0, 0.0),
            p(5.0, 0.0),
            p(5.0, 0.0),
            p(9.0, 0.0),
        ],
        // Coordinates whose differences are not exactly representable.
        vec![p(0.1, 0.2), p(0.3, 0.30000000000000004), p(1e-9, -1e9)],
    ];
    for a in &shapes {
        for b in &shapes {
            assert_point_mbr_sound(a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn point_mbr_bounds_are_sound(a in arb_seq(24), b in arb_seq(24)) {
        assert_point_mbr_sound(&a, &b);
        assert_point_mbr_sound(&b, &a);
    }

    #[test]
    fn dtw_symmetric(a in arb_seq(24), b in arb_seq(24)) {
        let x = dtw(&a, &b);
        let y = dtw(&b, &a);
        prop_assert!((x - y).abs() < 1e-6 * (1.0 + x.abs()));
    }

    #[test]
    fn dtw_nonnegative_and_zero_on_self(a in arb_seq(24)) {
        prop_assert!(dtw(&a, &a) <= 1e-12);
    }

    #[test]
    fn dtw_threshold_never_prunes_answers(a in arb_seq(20), b in arb_seq(20), tau in 0.0f64..200.0) {
        let full = dtw(&a, &b);
        match dtw_threshold(&a, &b, tau) {
            Some(v) => {
                prop_assert!((v - full).abs() < 1e-6);
                prop_assert!(full <= tau + 1e-9);
            }
            None => prop_assert!(full > tau - 1e-9),
        }
    }

    #[test]
    fn dtw_double_direction_equals_full(a in arb_seq(20), b in arb_seq(20), tau in 0.0f64..400.0) {
        let full = dtw(&a, &b);
        match dtw_double_direction(&a, &b, tau) {
            Some(v) => prop_assert!((v - full).abs() < 1e-6),
            None => prop_assert!(full > tau - 1e-9),
        }
    }

    #[test]
    fn amd_lower_bounds_dtw(a in arb_seq(20), b in arb_seq(20)) {
        prop_assert!(amd(&a, &b) <= dtw(&a, &b) + 1e-9);
    }

    #[test]
    fn pamd_lower_bounds_amd(a in arb_seq(20), b in arb_seq(20)) {
        if a.len() >= 4 {
            // Use every interior point as a sanity-maximal pivot set, plus a
            // sparse subset; both must stay below AMD.
            let all: Vec<usize> = (1..a.len() - 1).collect();
            let sparse: Vec<usize> = all.iter().copied().step_by(2).collect();
            let full_amd = amd(&a, &b);
            prop_assert!(pamd(&a, &b, &all) <= full_amd + 1e-9);
            prop_assert!(pamd(&a, &b, &sparse) <= full_amd + 1e-9);
            prop_assert!(pamd(&a, &b, &sparse) <= pamd(&a, &b, &all) + 1e-9);
        }
    }

    #[test]
    fn frechet_lower_bounds_dtw_and_is_metric(
        a in arb_seq(16), b in arb_seq(16), c in arb_seq(16)
    ) {
        prop_assert!(frechet(&a, &b) <= dtw(&a, &b) + 1e-9);
        let ab = frechet(&a, &b);
        let ac = frechet(&a, &c);
        let cb = frechet(&c, &b);
        prop_assert!(ab <= ac + cb + 1e-9);
    }

    #[test]
    fn mbr_coverage_is_sound_for_dtw(a in arb_seq(16), b in arb_seq(16), tau in 0.0f64..100.0) {
        let ta = Trajectory::new(0, a.clone());
        let tb = Trajectory::new(1, b.clone());
        if mbr_coverage_prune(&ta.mbr(), &tb.mbr(), tau) {
            prop_assert!(dtw(&a, &b) > tau - 1e-9);
        }
    }

    #[test]
    fn cell_bound_is_sound_for_dtw(a in arb_seq(16), b in arb_seq(16), side in 0.5f64..10.0) {
        let ta = Trajectory::new(0, a.clone());
        let tb = Trajectory::new(1, b.clone());
        let ca = CellList::compress(&ta, side);
        let cb = CellList::compress(&tb, side);
        let d = dtw(&a, &b);
        prop_assert!(ca.lower_bound(&cb) <= d + 1e-9);
        prop_assert!(cb.lower_bound(&ca) <= d + 1e-9);
    }

    #[test]
    fn edr_is_edit_metric_like(a in arb_seq(12), b in arb_seq(12), eps in 0.0f64..5.0) {
        let d = edr(&a, &b, eps);
        prop_assert!(d >= (a.len() as f64 - b.len() as f64).abs());
        prop_assert!(d <= a.len().max(b.len()) as f64);
        prop_assert_eq!(edr(&b, &a, eps), d);
    }

    #[test]
    fn edr_threshold_matches(a in arb_seq(12), b in arb_seq(12), tau in 0.0f64..12.0) {
        let full = edr(&a, &b, 1.0);
        match edr_threshold(&a, &b, 1.0, tau) {
            Some(v) => { prop_assert_eq!(v, full); prop_assert!(full <= tau); }
            None => prop_assert!(full > tau),
        }
    }

    #[test]
    fn lcss_banded_equals_full_dp(a in arb_seq(20), b in arb_seq(20), delta in 0usize..8, eps in 0.0f64..30.0) {
        // Reference: the unbanded O(mn) dynamic program.
        let full = {
            let (m, n) = (a.len(), b.len());
            let mut prev = vec![0usize; n + 1];
            let mut cur = vec![0usize; n + 1];
            for (i, ti) in a.iter().enumerate() {
                for (j, qj) in b.iter().enumerate() {
                    let matched = i.abs_diff(j) <= delta && ti.dist(qj) <= eps;
                    cur[j + 1] = if matched { prev[j] + 1 } else { prev[j + 1].max(cur[j]) };
                }
                std::mem::swap(&mut prev, &mut cur);
            }
            let _ = m;
            prev[n]
        };
        prop_assert_eq!(lcss_similarity(&a, &b, eps, delta), full);
    }

    #[test]
    fn lcss_similarity_bounded(a in arb_seq(12), b in arb_seq(12), delta in 0usize..6) {
        let s = lcss_similarity(&a, &b, 1.0, delta);
        prop_assert!(s <= a.len().min(b.len()));
        prop_assert_eq!(lcss_similarity(&b, &a, 1.0, delta), s);
        let d = lcss_distance(&a, &b, 1.0, delta);
        prop_assert!(d >= 0.0);
    }

    #[test]
    fn within_agrees_with_distance_for_all_functions(
        a in arb_seq(12), b in arb_seq(12), tau in 0.0f64..100.0
    ) {
        for f in [
            DistanceFunction::Dtw,
            DistanceFunction::Frechet,
            DistanceFunction::Edr { eps: 1.0 },
            DistanceFunction::Lcss { eps: 1.0, delta: 2 },
            DistanceFunction::Erp { gap: (0.0, 0.0) },
        ] {
            let d = f.distance(&a, &b);
            match f.within(&a, &b, tau) {
                Some(v) => prop_assert!((v - d).abs() < 1e-6, "{} value mismatch", f),
                None => prop_assert!(d > tau - 1e-9, "{} pruned an answer", f),
            }
        }
    }
}
