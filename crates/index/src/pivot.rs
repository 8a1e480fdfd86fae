//! Pivot point selection (§4.1.2).
//!
//! Every interior point of a trajectory is assigned a weight; the K points
//! with the largest weights become the pivots `T_P` used by the PAMD bound
//! and the trie index. The paper proposes three weighting strategies and
//! finds Neighbor-distance the best overall (Appendix B, Figure 12); the
//! index is orthogonal to the choice, so all three are implemented.

use dita_trajectory::{Point, Trajectory};
use std::str::FromStr;

/// Strategy for weighting candidate pivot points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotStrategy {
    /// Weight `π − ∠abc`: sharp turns are representative.
    InflectionPoint,
    /// Weight `dist(prev, b)`: points far from their predecessor.
    NeighborDistance,
    /// Weight `max(dist(b, t1), dist(b, tm))`: points far from either
    /// endpoint.
    FirstLastDistance,
}

impl FromStr for PivotStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "inflection" | "inflectionpoint" => Ok(PivotStrategy::InflectionPoint),
            "neighbor" | "neighbordistance" => Ok(PivotStrategy::NeighborDistance),
            "firstlast" | "first/last" | "firstlastdistance" => {
                Ok(PivotStrategy::FirstLastDistance)
            }
            other => Err(format!("unknown pivot strategy {other:?}")),
        }
    }
}

impl PivotStrategy {
    /// All strategies, in the paper's presentation order.
    pub const ALL: [PivotStrategy; 3] = [
        PivotStrategy::InflectionPoint,
        PivotStrategy::NeighborDistance,
        PivotStrategy::FirstLastDistance,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            PivotStrategy::InflectionPoint => "Inflection",
            PivotStrategy::NeighborDistance => "Neighbor",
            PivotStrategy::FirstLastDistance => "First/Last",
        }
    }

    fn weight(&self, points: &[Point], i: usize) -> f64 {
        match self {
            PivotStrategy::InflectionPoint => {
                std::f64::consts::PI - Point::angle_at(&points[i - 1], &points[i], &points[i + 1])
            }
            PivotStrategy::NeighborDistance => points[i - 1].dist(&points[i]),
            PivotStrategy::FirstLastDistance => {
                let m = points.len();
                points[i]
                    .dist(&points[0])
                    .max(points[i].dist(&points[m - 1]))
            }
        }
    }
}

/// Selects up to `k` pivot indices (0-based, strictly interior, ascending).
///
/// If the trajectory has fewer than `k` interior points, all interior points
/// are returned. Ties are broken toward the earlier index, which keeps the
/// selection deterministic across runs.
pub fn select_pivots(t: &Trajectory, k: usize, strategy: PivotStrategy) -> Vec<usize> {
    let mut best = Vec::with_capacity(k.min(t.len()));
    top_k_pivots(t.points(), k, strategy, &mut best);
    best.into_iter().map(|(_, i)| i).collect()
}

/// The one pivot pass [`select_pivots`] and the trie build share: leaves in
/// `best` the `k` highest-weighted interior points as `(weight, position)`,
/// ascending by position (all interior points when there are at most `k`).
///
/// One scan in index order keeps the `k` best seen so far in `best`,
/// heaviest first; a point enters only when its weight is strictly greater
/// (by `total_cmp`) than the current `k`-th, so equal weights keep the
/// earlier point and NaN weights order as `total_cmp` sorts them. `best` is
/// the caller's buffer, reused across rows: the pass allocates nothing once
/// it holds `k` entries.
pub(crate) fn top_k_pivots(
    points: &[Point],
    k: usize,
    strategy: PivotStrategy,
    best: &mut Vec<(f64, usize)>,
) {
    best.clear();
    let m = points.len();
    if m <= 2 || k == 0 {
        return;
    }
    for i in 1..m - 1 {
        let w = strategy.weight(points, i);
        if best.len() == k {
            if w.total_cmp(&best[k - 1].0).is_le() {
                continue;
            }
            best.pop();
        }
        let at = best.partition_point(|&(b, _)| b.total_cmp(&w).is_ge());
        best.insert(at, (w, i));
    }
    best.sort_unstable_by_key(|&(_, i)| i);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dita_trajectory::trajectory::figure1_trajectories;

    /// Materializes pivot indices as points.
    fn pivot_points(t: &Trajectory, pivots: &[usize]) -> Vec<Point> {
        pivots.iter().map(|&i| t.points()[i]).collect()
    }

    #[test]
    fn paper_t1_inflection_pivots() {
        // §4.1.2: T1 with K = 2 under Inflection Point → [(1,2), (4,5)].
        let t1 = &figure1_trajectories()[0];
        let p = select_pivots(t1, 2, PivotStrategy::InflectionPoint);
        let pts = pivot_points(t1, &p);
        assert_eq!(pts, vec![Point::new(1.0, 2.0), Point::new(4.0, 5.0)]);
    }

    #[test]
    fn paper_t1_neighbor_pivots() {
        // §4.1.2: T1 with K = 2 under Neighbor Distance → [(3,2), (4,4)].
        let t1 = &figure1_trajectories()[0];
        let p = select_pivots(t1, 2, PivotStrategy::NeighborDistance);
        let pts = pivot_points(t1, &p);
        assert_eq!(pts, vec![Point::new(3.0, 2.0), Point::new(4.0, 4.0)]);
    }

    #[test]
    fn paper_t1_firstlast_pivots() {
        // §4.1.2: T1 with K = 2 under First/Last Distance → [(1,2), (4,5)].
        let t1 = &figure1_trajectories()[0];
        let p = select_pivots(t1, 2, PivotStrategy::FirstLastDistance);
        let pts = pivot_points(t1, &p);
        assert_eq!(pts, vec![Point::new(1.0, 2.0), Point::new(4.0, 5.0)]);
    }

    #[test]
    fn figure1_table_neighbor_pivots_for_all() {
        // The Figure 1 table lists K = 2 pivots for every trajectory under
        // the neighbor-distance strategy (which Figure 5 then indexes).
        let ts = figure1_trajectories();
        let expect = [
            vec![Point::new(3.0, 2.0), Point::new(4.0, 4.0)],
            vec![Point::new(4.0, 2.0), Point::new(4.0, 4.0)],
            vec![Point::new(4.0, 1.0), Point::new(4.0, 3.0)],
            vec![Point::new(3.0, 3.0), Point::new(3.0, 7.0)],
            vec![Point::new(3.0, 7.0), Point::new(3.0, 3.0)],
        ];
        for (t, want) in ts.iter().zip(expect.iter()) {
            let p = select_pivots(t, 2, PivotStrategy::NeighborDistance);
            let got = pivot_points(t, &p);
            assert_eq!(&got, want, "T{}", t.id);
        }
    }

    #[test]
    fn pivots_are_interior_and_sorted() {
        let ts = figure1_trajectories();
        for t in &ts {
            for s in PivotStrategy::ALL {
                for k in 0..6 {
                    let p = select_pivots(t, k, s);
                    assert!(p.len() <= k);
                    assert!(p.windows(2).all(|w| w[0] < w[1]));
                    assert!(p.iter().all(|&i| i > 0 && i < t.len() - 1));
                }
            }
        }
    }

    #[test]
    fn short_trajectories_yield_all_interior() {
        let t = Trajectory::from_coords(1, &[(0.0, 0.0), (1.0, 1.0)]);
        assert!(select_pivots(&t, 3, PivotStrategy::NeighborDistance).is_empty());
        let t = Trajectory::from_coords(1, &[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        assert_eq!(
            select_pivots(&t, 3, PivotStrategy::NeighborDistance),
            vec![1]
        );
        assert_eq!(
            select_pivots(&t, usize::MAX, PivotStrategy::NeighborDistance),
            vec![1]
        );
    }

    /// The selection before the top-k pass: every interior point weighted,
    /// the weights fully sorted (heaviest first, ties to the earlier
    /// point), the first `k` kept — the reference [`top_k_pivots`] is held
    /// to.
    fn sorted_reference(points: &[Point], k: usize, strategy: PivotStrategy) -> Vec<usize> {
        let m = points.len();
        if m <= 2 || k == 0 {
            return Vec::new();
        }
        if m - 2 <= k {
            return (1..m - 1).collect();
        }
        let mut weighted: Vec<(usize, f64)> = (1..m - 1)
            .map(|i| (i, strategy.weight(points, i)))
            .collect();
        weighted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut chosen: Vec<usize> = weighted[..k].iter().map(|&(i, _)| i).collect();
        chosen.sort_unstable();
        chosen
    }

    /// Four rows of each length `1..=300` from an xorshift64* generator: a
    /// free random walk; a walk of unit grid steps (equal neighbor
    /// distances, equal turns); a walk that dwells, repeating points (zero
    /// steps, straight-line angles); and a walk with every third point or
    /// so at 1e200 scale, whose squared vector lengths overflow: NaN
    /// inflection weights and infinite distances among finite ones.
    fn tie_heavy_rows() -> Vec<Vec<Point>> {
        let mut rng = dita_rng::MarsagliaStar(0x5eed_0044);
        let mut next = move || rng.next_u64() >> 11;
        let mut rows = Vec::new();
        for len in 1..=300 {
            let (mut free, mut grid, mut dwell, mut huge) = (vec![], vec![], vec![], vec![]);
            let (mut p, mut g) = (Point::new(0.0, 0.0), Point::new(0.0, 0.0));
            while free.len() < len {
                let r = next();
                let unit = (r % 1_000_000) as f64 / 1e6;
                p = Point::new(p.x + unit - 0.5, p.y + (r % 977) as f64 / 977.0 - 0.5);
                free.push(p);
                let scale = if r % 3 == 0 { 1e200 } else { 1.0 };
                huge.push(Point::new(p.x * scale, p.y * scale));
                let step = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][(r % 4) as usize];
                g = Point::new(g.x + step.0, g.y + step.1);
                grid.push(g);
                for _ in 0..1 + r % 3 {
                    if dwell.len() < len {
                        dwell.push(g);
                    }
                }
            }
            rows.extend([free, grid, dwell, huge]);
        }
        rows
    }

    #[test]
    fn top_k_pass_matches_the_sorted_selection() {
        let rows = tie_heavy_rows();
        let nan = |r: &Vec<Point>| {
            (1..r.len().saturating_sub(1))
                .any(|i| PivotStrategy::InflectionPoint.weight(r, i).is_nan())
        };
        assert!(rows.iter().any(nan), "no row has a NaN weight");
        for (ri, row) in rows.iter().enumerate() {
            let t = Trajectory::new(ri as u64, row.clone());
            for s in PivotStrategy::ALL {
                for k in [0, 1, 2, 4, 8] {
                    let want = sorted_reference(row, k, s);
                    assert_eq!(select_pivots(&t, k, s), want, "row {ri} {s:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn strategy_parsing() {
        assert_eq!(
            "neighbor".parse::<PivotStrategy>().unwrap(),
            PivotStrategy::NeighborDistance
        );
        assert_eq!(
            "Inflection".parse::<PivotStrategy>().unwrap(),
            PivotStrategy::InflectionPoint
        );
        assert_eq!(
            "first/last".parse::<PivotStrategy>().unwrap(),
            PivotStrategy::FirstLastDistance
        );
        assert!("bogus".parse::<PivotStrategy>().is_err());
    }
}
