//! The global index (§4.2.2, §5.2).
//!
//! One R-tree indexes every partition's first-point MBR (`MBR_f`), another
//! every last-point MBR (`MBR_l`). Given a query, the driver intersects the
//! partitions within τ of the query's first point with those within τ of its
//! last point, and keeps a partition only if the two MinDists *together* fit
//! in the budget. The space complexity is `O(N_G²)` — small enough to
//! replicate to every worker, which the paper leans on for its join.

use crate::partitioner::Partitioning;
use dita_distance::function::IndexMode;
use dita_rtree::RTree;
use dita_trajectory::{Mbr, Point};
use serde::{Deserialize, Serialize};

/// The driver-side index over partition endpoint MBRs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalIndex {
    rtree_first: RTree<usize>,
    rtree_last: RTree<usize>,
    /// `(MBR_f, MBR_l)` per partition id.
    mbrs: Vec<(Mbr, Mbr)>,
    /// Shortest member per partition (edit-family charge cap).
    min_lens: Vec<usize>,
}

impl GlobalIndex {
    /// Builds the global index from a partitioning (Algorithm 1, lines 4–5).
    pub fn build(partitioning: &Partitioning) -> Self {
        let mbrs: Vec<(Mbr, Mbr)> = partitioning
            .partitions
            .iter()
            .map(|p| (p.mbr_first, p.mbr_last))
            .collect();
        let min_lens: Vec<usize> = partitioning.partitions.iter().map(|p| p.min_len).collect();
        let rtree_first =
            RTree::bulk_load(mbrs.iter().enumerate().map(|(i, m)| (m.0, i)).collect());
        let rtree_last = RTree::bulk_load(mbrs.iter().enumerate().map(|(i, m)| (m.1, i)).collect());
        GlobalIndex {
            rtree_first,
            rtree_last,
            mbrs,
            min_lens,
        }
    }

    /// Number of indexed partitions.
    pub fn num_partitions(&self) -> usize {
        self.mbrs.len()
    }

    /// The stored `(MBR_f, MBR_l)` of a partition.
    pub fn partition_mbrs(&self, id: usize) -> (Mbr, Mbr) {
        self.mbrs[id]
    }

    /// Partitions that may contain trajectories similar to a query whose
    /// first point is `first` and last point is `last` (§5.2), sorted by id.
    ///
    /// A partition stays while [`IndexMode::endpoints_admit`] — the
    /// endpoint-pair budget rule, written once beside the enum — admits
    /// `MinDist(q1, MBR_f)` and `MinDist(qn, MBR_l)` under `tau`.
    pub fn relevant_partitions(
        &self,
        first: &Point,
        last: &Point,
        query_len: usize,
        tau: f64,
        mode: IndexMode,
    ) -> Vec<usize> {
        if tau < 0.0 {
            return Vec::new();
        }
        match mode {
            // The R-trees pre-screen each endpoint against τ on its own.
            IndexMode::Additive | IndexMode::Max => {
                let mut first_hits = vec![f64::NAN; self.mbrs.len()];
                self.rtree_first
                    .for_each_within_point(first, tau, |mbr, &id| {
                        first_hits[id] = mbr.min_dist_point(first);
                    });
                let mut out = Vec::new();
                self.rtree_last
                    .for_each_within_point(last, tau, |mbr, &id| {
                        let df = first_hits[id];
                        if df.is_nan() {
                            return; // not in C_f
                        }
                        let dl = mbr.min_dist_point(last);
                        if mode.endpoints_admit(df, dl, query_len, self.min_lens[id], tau) {
                            out.push(id);
                        }
                    });
                out.sort_unstable();
                out
            }
            // Edit budgets are small integers (and LCSS and ERP keep every
            // partition): enumerate the O(N_G²) partition table directly.
            IndexMode::EditCount { .. } | IndexMode::Scan => (0..self.mbrs.len())
                .filter(|&id| {
                    let (mf, ml) = &self.mbrs[id];
                    let df = mf.min_dist_point(first);
                    let dl = ml.min_dist_point(last);
                    mode.endpoints_admit(df, dl, query_len, self.min_lens[id], tau)
                })
                .collect(),
        }
    }

    /// Approximate heap size in bytes (Tables 5 and 7 report index sizes).
    pub fn size_bytes(&self) -> usize {
        self.rtree_first.size_bytes()
            + self.rtree_last.size_bytes()
            + self.mbrs.len() * std::mem::size_of::<(Mbr, Mbr)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::str_partitioning;
    use dita_trajectory::Trajectory;

    fn dataset() -> Vec<Trajectory> {
        // Four clusters of trajectories by (first, last) corner.
        let mut ts = Vec::new();
        let mut id = 0u64;
        for &(fx, fy) in &[(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)] {
            for i in 0..25 {
                let dx = (i % 5) as f64 * 0.1;
                let dy = (i / 5) as f64 * 0.1;
                ts.push(Trajectory::from_coords(
                    id,
                    &[
                        (fx + dx, fy + dy),
                        (fx + 1.0, fy + 1.0),
                        (fx + 2.0 + dx, fy + 2.0 + dy),
                    ],
                ));
                id += 1;
            }
        }
        ts
    }

    #[test]
    fn relevant_partitions_sound_and_selective() {
        let ts = dataset();
        let parts = str_partitioning(&ts, 4);
        let g = GlobalIndex::build(&parts);
        assert_eq!(g.num_partitions(), parts.partitions.len());

        // A query near the (0,0) cluster must select every partition that
        // holds a possible answer, and none near the far corners.
        let q_first = Point::new(0.2, 0.2);
        let q_last = Point::new(2.2, 2.2);
        let rel = g.relevant_partitions(&q_first, &q_last, 3, 1.0, IndexMode::Additive);
        assert!(!rel.is_empty());
        for p in &parts.partitions {
            let to_first = p.mbr_first.min_dist_point(&q_first);
            let to_last = p.mbr_last.min_dist_point(&q_last);
            if to_first + to_last <= 1.0 {
                assert!(rel.contains(&p.id), "missed partition {}", p.id);
            } else {
                assert!(!rel.contains(&p.id), "kept prunable partition {}", p.id);
            }
        }
        // Far-away corner partitions are pruned.
        let far: Vec<usize> = parts
            .partitions
            .iter()
            .filter(|p| p.mbr_first.min_dist_point(&q_first) > 50.0)
            .map(|p| p.id)
            .collect();
        assert!(!far.is_empty());
        assert!(far.iter().all(|id| !rel.contains(id)));
    }

    #[test]
    fn max_mode_requires_both_within_tau() {
        let ts = dataset();
        let parts = str_partitioning(&ts, 2);
        let g = GlobalIndex::build(&parts);
        let q_first = Point::new(0.0, 0.0);
        let q_last = Point::new(2.0, 2.0);
        let rel = g.relevant_partitions(&q_first, &q_last, 3, 0.5, IndexMode::Max);
        for p in &parts.partitions {
            let df = p.mbr_first.min_dist_point(&q_first);
            let dl = p.mbr_last.min_dist_point(&q_last);
            assert_eq!(
                rel.contains(&p.id),
                df <= 0.5 && dl <= 0.5,
                "partition {}",
                p.id
            );
        }
    }

    #[test]
    fn edit_mode_generous_budget_keeps_everything() {
        let ts = dataset();
        let parts = str_partitioning(&ts, 4);
        let g = GlobalIndex::build(&parts);
        let rel = g.relevant_partitions(
            &Point::new(0.0, 0.0),
            &Point::new(0.0, 0.0),
            3,
            2.0,
            IndexMode::EditCount {
                eps: 0.001,
                symmetric: true,
            },
        );
        assert_eq!(rel.len(), g.num_partitions());
        // Budget 0: only partitions whose both endpoint MBRs are within eps.
        let rel0 = g.relevant_partitions(
            &Point::new(500.0, 500.0),
            &Point::new(500.0, 500.0),
            3,
            0.0,
            IndexMode::EditCount {
                eps: 0.001,
                symmetric: true,
            },
        );
        assert!(rel0.is_empty());
    }

    #[test]
    fn lcss_keeps_partitions_whose_endpoints_match_inside_the_band() {
        // Members are three points long; a five-point query wraps one of
        // them in two far-away points. Under LCSS (δ ≥ 1) the member — the
        // shorter side — matches the query's inner points and the distance
        // is 0, although both of its endpoints are far from the query's.
        let ts = dataset();
        let parts = str_partitioning(&ts, 2);
        let g = GlobalIndex::build(&parts);
        let far = Point::new(500.0, 500.0);
        let rel = g.relevant_partitions(
            &far,
            &far,
            5,
            0.0,
            IndexMode::EditCount {
                eps: 0.001,
                symmetric: false,
            },
        );
        assert_eq!(rel.len(), g.num_partitions());
    }

    #[test]
    fn negative_tau_yields_nothing() {
        let ts = dataset();
        let parts = str_partitioning(&ts, 2);
        let g = GlobalIndex::build(&parts);
        assert!(g
            .relevant_partitions(
                &Point::new(0.0, 0.0),
                &Point::new(0.0, 0.0),
                3,
                -1.0,
                IndexMode::Additive
            )
            .is_empty());
    }

    #[test]
    fn size_bytes_positive() {
        let ts = dataset();
        let g = GlobalIndex::build(&str_partitioning(&ts, 4));
        assert!(g.size_bytes() > 0);
    }
}
