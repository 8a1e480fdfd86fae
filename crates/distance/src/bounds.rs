//! Filter-step lower bounds (§4.1, §5.3.3).
//!
//! These are the cheap estimations DITA uses to discard dissimilar pairs
//! before running a full distance computation:
//!
//! * [`amd`] — Accumulated Minimum Distance (Lemma 4.1): every DTW warping
//!   path crosses every row of the matrix and must align the endpoint pairs,
//!   so `dist(t1,q1) + dist(tm,qn) + Σ_{i=2..m−1} min_j dist(t_i, q_j)`
//!   never exceeds `DTW(T, Q)`.
//! * [`pamd`] — Pivot AMD (Lemma 4.3): the same sum restricted to K selected
//!   pivot points, dropping the complexity from O(mn) to O(nK).
//! * [`mbr_coverage_prune`] — Lemma 5.4: if two trajectories are similar
//!   under DTW with threshold τ, each one's MBR must be covered by the other's
//!   τ-extended MBR. The check is O(1) given precomputed MBRs.
//! * [`point_mbr_sum`] / [`point_mbr_max`] — the same lemma read point by
//!   point: every point of `T` is aligned with some point of `Q`, which lies
//!   in `MBR(Q)`, so `DTW ≥ Σᵢ MinDist(tᵢ, MBR(Q))` and Fréchet `≥` the
//!   largest term. O(m), and nothing stored but the MBR.
//! * [`length_bound_edr`] — `EDR ≥ |m − n|` (Appendix A).
//! * [`dist_sum_to`] / [`magnitude_bound_erp`] — ERP's magnitude bound,
//!   one side at a time.

use dita_trajectory::{Mbr, Point, SoaView};

/// Accumulated Minimum Distance `AMD(T, Q) ≤ DTW(T, Q)` (Lemma 4.1).
///
/// # Panics
/// Panics if either sequence is empty.
pub fn amd(t: &[Point], q: &[Point]) -> f64 {
    assert!(!t.is_empty() && !q.is_empty());
    // With m = n = 1 the matrix has a single cell: its distance appears once
    // in DTW, not twice.
    if t.len() == 1 && q.len() == 1 {
        return t[0].dist(&q[0]);
    }
    let first = t[0].dist(&q[0]);
    let last = t[t.len() - 1].dist(&q[q.len() - 1]);
    let mut sum = first + last;
    for ti in t.iter().skip(1).take(t.len().saturating_sub(2)) {
        sum += min_dist_to_seq(ti, q);
    }
    sum
}

/// Pivot Accumulated Minimum Distance `PAMD(T, Q) ≤ AMD(T, Q) ≤ DTW(T, Q)`
/// (Definition 4.2, Lemma 4.3). `pivots` holds 0-based indices into `t`,
/// which must lie strictly between the first and last point.
///
/// # Panics
/// Panics if either sequence is empty, or a pivot index is the first/last
/// point or out of range.
pub fn pamd(t: &[Point], q: &[Point], pivots: &[usize]) -> f64 {
    assert!(!t.is_empty() && !q.is_empty());
    let m = t.len();
    if m == 1 && q.len() == 1 {
        return t[0].dist(&q[0]);
    }
    let mut sum = t[0].dist(&q[0]) + t[m - 1].dist(&q[q.len() - 1]);
    for &p in pivots {
        assert!(
            p > 0 && p < m - 1,
            "pivot index {p} must be interior (m = {m})"
        );
        sum += min_dist_to_seq(&t[p], q);
    }
    sum
}

#[inline]
fn min_dist_to_seq(p: &Point, q: &[Point]) -> f64 {
    q.iter()
        .map(|qj| p.dist_sq(qj))
        .fold(f64::INFINITY, f64::min)
        .sqrt()
}

/// MBR coverage filter (Lemma 5.4): returns `true` when the pair can be
/// *pruned*, i.e. when `EMBR_{T,τ}` fails to cover `MBR_Q` or `EMBR_{Q,τ}`
/// fails to cover `MBR_T`; similar pairs always pass.
pub fn mbr_coverage_prune(mbr_t: &Mbr, mbr_q: &Mbr, tau: f64) -> bool {
    !mbr_t.expanded(tau).covers(mbr_q) || !mbr_q.expanded(tau).covers(mbr_t)
}

/// Point-to-MBR lower bound of DTW: `Σᵢ MinDist(tᵢ, mbr)` for an `mbr` that
/// contains every point of the other trajectory `Q` — the additive form of
/// Lemma 5.4.
///
/// *Proof.* A warping path visits every row `i` of the matrix, so it holds
/// at least one cell `(i, j)` per point `tᵢ`, and `qⱼ ∈ MBR(Q)` gives
/// `dist(tᵢ, qⱼ) ≥ MinDist(tᵢ, MBR(Q))`. DTW sums `dist` over the path's
/// cells, all non-negative; keeping one cell per row and replacing it by
/// its `MinDist` can only lower the sum. ∎ The argument survives rounding:
/// subtraction, multiplication, addition and `sqrt` are monotone under
/// round-to-nearest, `MinDist` is computed with the kernels' own
/// `sqrt(dx² + dy²)`, and the DP adds a path's cells in path order, which
/// visits the rows in this loop's order — so the value returned never
/// exceeds the `dtw`/`dtw_soa` result and the caller needs no margin.
///
/// The sum is abandoned as soon as it exceeds `tau` (the partial sum is a
/// bound already); prune when the result is `> tau`. A NaN — coordinate or
/// `tau` — makes every comparison false and so never prunes. By symmetry
/// the bound applies with the roles of `T` and `Q` swapped.
pub fn point_mbr_sum(t: SoaView<'_>, mbr: &Mbr, tau: f64) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in t.xs.iter().zip(t.ys) {
        acc += mbr.min_dist_point(&Point::new(x, y));
        if acc > tau {
            break;
        }
    }
    acc
}

/// Point-to-MBR lower bound of the discrete Fréchet distance:
/// `maxᵢ MinDist(tᵢ, mbr)` for an `mbr` containing every point of `Q`. The
/// proof is [`point_mbr_sum`]'s with `max` for `+`: a coupling pairs every
/// `tᵢ` with a point of `MBR(Q)`, and the distance is the largest pair.
///
/// The scan runs in squared space and is abandoned at the first term above
/// `tau²`; the one square root is taken on the way out, so the result is a
/// distance, exactly below `frechet`'s, and the caller prunes when it is
/// `> tau` like the sum's. That comparison also never rejects what
/// `frechet_soa` accepts in squared space (`v ≤ tau²` gives
/// `sqrt(v) ≤ tau`). NaN never prunes.
pub fn point_mbr_max(t: SoaView<'_>, mbr: &Mbr, tau: f64) -> f64 {
    let tau_sq = tau * tau;
    let mut worst = 0.0f64;
    for (&x, &y) in t.xs.iter().zip(t.ys) {
        worst = worst.max(mbr.min_dist_point_sq(&Point::new(x, y)));
        if worst > tau_sq {
            break;
        }
    }
    worst.sqrt()
}

/// `Σᵢ dist(sᵢ, g)`: one side of ERP's magnitude bound (Chen & Ng),
/// `ERP_g(T, Q) ≥ |Σᵢ dist(tᵢ, g) − Σⱼ dist(qⱼ, g)|`. A side depends on
/// one trajectory only, so a caller verifying a list against one query
/// computes the query's side once.
pub fn dist_sum_to(s: SoaView<'_>, g: &Point) -> f64 {
    (0..s.len()).map(|i| s.point(i).dist(g)).sum()
}

/// ERP's magnitude filter: `true` when `|sum_t − sum_q| > tau` by more than
/// rounding can explain, `sum_t`/`sum_q` being [`dist_sum_to`] of the two
/// trajectories of `m` and `n` points. Unlike the point-to-MBR bounds this
/// one is not ordered below the kernel term by term — the sums and the DP
/// add the same distances in different orders — so at a threshold within
/// an ulp of the distance the bare comparison rejected pairs `erp_soa`
/// accepts (`crates/core/tests/filter_soundness.rs` found one on three
/// points). The slack is the `(m + n + 4)·ε` relative error those additions
/// can carry; it never matters further than that from `tau`.
pub fn magnitude_bound_erp(sum_t: f64, m: usize, sum_q: f64, n: usize, tau: f64) -> bool {
    let slack = (m + n + 4) as f64 * f64::EPSILON * (sum_t + sum_q);
    (sum_t - sum_q).abs() > tau + slack
}

/// EDR length filter (Appendix A): `EDR_ϵ(T, Q) ≥ |m − n|`, so any pair with
/// `|m − n| > τ` can be pruned. Returns `true` when the pair can be pruned.
pub fn length_bound_edr(m: usize, n: usize, tau: f64) -> bool {
    (m as i64 - n as i64).abs() as f64 > tau
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::dtw;
    use dita_trajectory::trajectory::figure1_trajectories;
    use dita_trajectory::Trajectory;

    fn fig1() -> Vec<Trajectory> {
        figure1_trajectories()
    }

    #[test]
    fn amd_is_lower_bound_of_dtw() {
        let ts = fig1();
        for a in &ts {
            for b in &ts {
                let lb = amd(a.points(), b.points());
                let d = dtw(a.points(), b.points());
                assert!(lb <= d + 1e-9, "AMD {lb} > DTW {d} for T{} T{}", a.id, b.id);
            }
        }
    }

    #[test]
    fn pamd_is_lower_bound_of_amd_and_dtw() {
        let ts = fig1();
        // Neighbor-distance pivots from Figure 1: T1 → (3,2), (4,4), i.e.
        // 0-based indices 2 and 3.
        let pivots = [2usize, 3usize];
        for b in &ts {
            let p = pamd(ts[0].points(), b.points(), &pivots);
            let a = amd(ts[0].points(), b.points());
            let d = dtw(ts[0].points(), b.points());
            assert!(p <= a + 1e-9);
            assert!(p <= d + 1e-9);
        }
    }

    #[test]
    fn paper_example_4_4_pamd_value() {
        // Example 4.4: PAMD(T1, T3) with pivots {(3,2), (4,4)} is 3.41 > τ=3,
        // proving T1 and T3 dissimilar.
        let ts = fig1();
        let p = pamd(ts[0].points(), ts[2].points(), &[2, 3]);
        assert!((p - 3.41).abs() < 0.01, "got {p}");
        assert!(p > 3.0);
    }

    #[test]
    fn amd_self_is_zero() {
        let ts = fig1();
        for t in &ts {
            assert_eq!(amd(t.points(), t.points()), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "interior")]
    fn pamd_rejects_endpoint_pivot() {
        let ts = fig1();
        let _ = pamd(ts[0].points(), ts[1].points(), &[0]);
    }

    #[test]
    fn mbr_coverage_never_prunes_similar_pairs() {
        let ts = fig1();
        for a in &ts {
            for b in &ts {
                let d = dtw(a.points(), b.points());
                for tau in [1.0, 3.0, 6.0] {
                    if d <= tau {
                        assert!(
                            !mbr_coverage_prune(&a.mbr(), &b.mbr(), tau),
                            "pruned similar pair T{} T{} (d = {d}, tau = {tau})",
                            a.id,
                            b.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mbr_coverage_prunes_example_5_5() {
        // Example 5.5: Q reaches (3, 11) while T5 stays within y ≤ 7, so with
        // τ = 3 the extended MBR of T5 cannot cover MBR_Q.
        let ts = fig1();
        let q = Trajectory::from_coords(
            10,
            &[
                (0.0, 4.0),
                (0.0, 5.0),
                (3.0, 7.0),
                (3.0, 9.0),
                (3.0, 11.0),
                (3.0, 3.0),
                (7.0, 5.0),
            ],
        );
        assert!(mbr_coverage_prune(&ts[4].mbr(), &q.mbr(), 3.0));
    }

    #[test]
    fn point_mbr_bounds_sit_between_zero_and_the_distance() {
        use crate::frechet::frechet;
        use dita_trajectory::SoaPoints;
        let ts = fig1();
        for a in &ts {
            let sa = SoaPoints::from_points(a.points());
            assert_eq!(point_mbr_sum(sa.view(), &a.mbr(), f64::INFINITY), 0.0);
            for b in &ts {
                let sum = point_mbr_sum(sa.view(), &b.mbr(), f64::INFINITY);
                let max = point_mbr_max(sa.view(), &b.mbr(), f64::INFINITY);
                assert!(max <= sum);
                assert!(sum <= dtw(a.points(), b.points()), "T{} T{}", a.id, b.id);
                assert!(
                    max <= frechet(a.points(), b.points()),
                    "T{} T{}",
                    a.id,
                    b.id
                );
            }
        }
    }

    #[test]
    fn point_mbr_sum_abandons_above_tau_and_prunes_example_5_5() {
        use dita_trajectory::SoaPoints;
        // Example 5.5's query against T5: (3, 11) alone is 4 above T5's MBR.
        let ts = fig1();
        let q = SoaPoints::from_points(&[
            Point::new(0.0, 4.0),
            Point::new(3.0, 11.0),
            Point::new(3.0, 30.0),
        ]);
        let partial = point_mbr_sum(q.view(), &ts[4].mbr(), 3.0);
        assert!(partial > 3.0);
        assert!(partial < point_mbr_sum(q.view(), &ts[4].mbr(), f64::INFINITY));
        assert_eq!(point_mbr_max(q.view(), &ts[4].mbr(), 3.0), 4.0);
    }

    #[test]
    fn length_bound_edr_cases() {
        assert!(length_bound_edr(3, 10, 5.0));
        assert!(!length_bound_edr(3, 10, 7.0));
        assert!(!length_bound_edr(5, 5, 0.0));
    }
}
