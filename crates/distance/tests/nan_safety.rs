//! NaN discipline for the distance kernels.
//!
//! The lint rule `nan-ordering` (STATIC_ANALYSIS.md, L2) bans
//! NaN-unsafe orderings like `partial_cmp(..).unwrap()` at compile
//! scan time; these properties pin the complementary runtime half of
//! the contract: for finite inputs, no kernel or lower bound ever
//! emits NaN, so `f64::total_cmp` and `partial_cmp` agree wherever
//! kernel outputs get ordered (kNN heaps, STR sort keys, pivot
//! selection).

use dita_distance::{
    amd, dtw, dtw_double_direction, dtw_soa, dtw_threshold, edr, edr_soa, edr_threshold, erp,
    erp_soa, erp_threshold, frechet, frechet_soa, frechet_threshold, lcss_distance,
    lcss_distance_threshold, lcss_soa, pamd, point_mbr_max, point_mbr_sum, Scratch,
};
use dita_trajectory::{Mbr, Point, SoaPoints};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_seq(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(arb_point(), 1..max_len)
}

/// Verification's comparison, as `core/src/verify.rs` writes it.
fn prunes(bound: f64, tau: f64) -> bool {
    bound > tau
}

/// The point-to-MBR bounds prune by `bound > tau`, so a NaN on either side
/// of that comparison must leave the pair to the kernel.
#[test]
fn point_mbr_bounds_never_prune_on_nan() {
    let far = SoaPoints::from_points(&[Point::new(100.0, 100.0), Point::new(200.0, 0.0)]);
    let mbr = Mbr::from_points(&[Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
    // Far outside at any finite threshold, negative ones included…
    for tau in [0.0, 1.0, -1.0] {
        assert!(prunes(point_mbr_sum(far.view(), &mbr, tau), tau));
        assert!(prunes(point_mbr_max(far.view(), &mbr, tau), tau));
    }
    // …and never at a NaN one.
    let nan = f64::NAN;
    assert!(!prunes(point_mbr_sum(far.view(), &mbr, nan), nan));
    assert!(!prunes(point_mbr_max(far.view(), &mbr, nan), nan));
    // A NaN coordinate, in the points or in the rectangle, adds nothing
    // that could prune on its own.
    let holed = SoaPoints::from_points(&[Point::new(nan, 0.5), Point::new(0.5, nan)]);
    assert!(!prunes(point_mbr_sum(holed.view(), &mbr, 1.0), 1.0));
    assert!(!prunes(point_mbr_max(holed.view(), &mbr, 1.0), 1.0));
    let inside = SoaPoints::from_points(&[Point::new(0.5, 0.5)]);
    let broken = Mbr {
        min: Point::new(nan, 0.0),
        max: Point::new(1.0, nan),
    };
    assert!(!prunes(point_mbr_sum(inside.view(), &broken, 1.0), 1.0));
    assert!(!prunes(point_mbr_max(inside.view(), &broken, 1.0), 1.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn point_mbr_bounds_are_finite_for_finite_inputs(a in arb_seq(20), b in arb_seq(20)) {
        let sa = SoaPoints::from_points(&a);
        let mb = Mbr::from_points(&b);
        prop_assert!(point_mbr_sum(sa.view(), &mb, f64::INFINITY).is_finite());
        prop_assert!(point_mbr_max(sa.view(), &mb, f64::INFINITY).is_finite());
    }

    #[test]
    fn kernels_never_emit_nan_for_finite_inputs(
        a in arb_seq(20),
        b in arb_seq(20),
        eps in 0.0f64..10.0,
        delta in 0usize..8,
    ) {
        let gap = Point::new(0.0, 0.0);
        let outs = [
            dtw(&a, &b),
            frechet(&a, &b),
            edr(&a, &b, eps),
            erp(&a, &b, &gap),
            lcss_distance(&a, &b, eps, delta),
            amd(&a, &b),
        ];
        for (i, v) in outs.iter().enumerate() {
            prop_assert!(v.is_finite(), "kernel #{i} produced non-finite {v}");
        }
        if a.len() >= 4 {
            let pivots: Vec<usize> = (1..a.len() - 1).step_by(2).collect();
            let v = pamd(&a, &b, &pivots);
            prop_assert!(v.is_finite(), "pamd produced non-finite {v}");
        }
    }

    #[test]
    fn threshold_kernels_never_emit_nan(
        a in arb_seq(20),
        b in arb_seq(20),
        eps in 0.0f64..10.0,
        tau in 0.0f64..200.0,
        delta in 0usize..8,
    ) {
        let gap = Point::new(0.0, 0.0);
        let outs = [
            dtw_threshold(&a, &b, tau),
            dtw_double_direction(&a, &b, tau),
            frechet_threshold(&a, &b, tau),
            edr_threshold(&a, &b, eps, tau),
            erp_threshold(&a, &b, &gap, tau),
            lcss_distance_threshold(&a, &b, eps, delta, tau),
        ];
        for (i, v) in outs.iter().enumerate() {
            if let Some(v) = v {
                prop_assert!(v.is_finite(), "threshold kernel #{i} produced non-finite {v}");
            }
        }
    }

    #[test]
    fn total_cmp_agrees_with_partial_cmp_on_kernel_outputs(
        a in arb_seq(16),
        b in arb_seq(16),
        c in arb_seq(16),
    ) {
        // Kernel outputs are finite (above), so the two orderings must
        // coincide — i.e. migrating sort keys from
        // `partial_cmp(..).unwrap()` to `total_cmp` (rule L2) cannot
        // reorder anything.
        let x = dtw(&a, &c);
        let y = dtw(&b, &c);
        prop_assert_eq!(Some(x.total_cmp(&y)), x.partial_cmp(&y));
    }

    /// The chunked SoA kernels are bit-identical to the scalar references
    /// under threshold semantics: `Some(full)` exactly when the full scalar
    /// distance fits the budget, `None` otherwise, with the *same bits* in
    /// the payload. The chunked per-row distance precompute is a hoisting
    /// of the same expressions in the same operand order, so this must hold
    /// exactly (ERP alone carries a documented 1e-12 tolerance because the
    /// scalar reference accumulates gap mass in a different association
    /// order).
    #[test]
    fn soa_kernels_bit_identical_to_scalar_references(
        a in arb_seq(24),
        b in arb_seq(24),
        eps in 0.0f64..10.0,
        tau in 0.0f64..300.0,
        delta in 0usize..8,
    ) {
        let (sa, sb) = (SoaPoints::from_points(&a), SoaPoints::from_points(&b));
        let (va, vb) = (sa.view(), sb.view());
        let mut s = Scratch::new();

        let full = dtw(&a, &b);
        let expect = (full <= tau).then_some(full);
        prop_assert_eq!(dtw_soa(va, vb, tau, &mut s), expect, "dtw tau={}", tau);

        let full = frechet(&a, &b);
        let expect = (full <= tau).then_some(full);
        prop_assert_eq!(frechet_soa(va, vb, tau, &mut s), expect, "frechet tau={}", tau);

        let full = edr(&a, &b, eps);
        let expect = (full <= tau).then_some(full);
        prop_assert_eq!(edr_soa(va, vb, eps, tau, &mut s), expect, "edr tau={}", tau);

        let full = lcss_distance(&a, &b, eps, delta);
        let expect = (full <= tau).then_some(full);
        prop_assert_eq!(lcss_soa(va, vb, eps, delta, tau, &mut s), expect, "lcss tau={}", tau);

        let g = Point::new(0.0, 0.0);
        let full = erp(&a, &b, &g);
        match erp_soa(va, vb, 0.0, 0.0, tau, &mut s) {
            Some(v) => {
                prop_assert!(full <= tau, "erp emitted {} above tau={}", v, tau);
                prop_assert!((v - full).abs() < 1e-12, "erp {} vs {}", v, full);
            }
            None => prop_assert!(full > tau, "erp pruned a true answer {} <= {}", full, tau),
        }
    }

    /// The SoA threshold kernels agree with the AoS threshold kernels —
    /// the pair the probe/verify pipeline actually switches between.
    #[test]
    fn soa_kernels_match_aos_threshold_kernels(
        a in arb_seq(20),
        b in arb_seq(20),
        eps in 0.0f64..10.0,
        tau in 0.0f64..200.0,
        delta in 0usize..8,
    ) {
        let (sa, sb) = (SoaPoints::from_points(&a), SoaPoints::from_points(&b));
        let (va, vb) = (sa.view(), sb.view());
        let mut s = Scratch::new();
        prop_assert_eq!(dtw_soa(va, vb, tau, &mut s), dtw_threshold(&a, &b, tau));
        prop_assert_eq!(frechet_soa(va, vb, tau, &mut s), frechet_threshold(&a, &b, tau));
        prop_assert_eq!(edr_soa(va, vb, eps, tau, &mut s), edr_threshold(&a, &b, eps, tau));
        prop_assert_eq!(
            lcss_soa(va, vb, eps, delta, tau, &mut s),
            lcss_distance_threshold(&a, &b, eps, delta, tau)
        );
        let gap = Point::new(0.0, 0.0);
        let (soa, aos) = (erp_soa(va, vb, 0.0, 0.0, tau, &mut s), erp_threshold(&a, &b, &gap, tau));
        match (soa, aos) {
            (None, None) => {}
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-12, "erp {} vs {}", x, y),
            _ => {
                // Near the budget boundary the two accumulation orders may
                // disagree on prune-vs-keep by a rounding ulp; both must
                // still agree with the full scalar distance's side of tau
                // within tolerance.
                let full = erp(&a, &b, &gap);
                prop_assert!((full - tau).abs() < 1e-9, "erp prune divergence far from tau");
            }
        }
    }
}
