//! Property test: the two places a trajectory crosses the simulated
//! network — search's query broadcast ([`query_broadcast_bytes`]) and
//! join's shipped-trajectory pricing ([`Trajectory::size_bytes`]) — must
//! charge the identical per-point byte formula, or the cost model would
//! value the same record differently depending on which operator moves it.

use dita_core::query_broadcast_bytes;
use dita_trajectory::{Point, Trajectory, TrajectoryId};
use proptest::prelude::*;

fn tiny_system(workers: usize) -> dita_core::DitaSystem {
    use dita_trajectory::trajectory::figure1_trajectories;
    dita_core::DitaSystem::build(
        &dita_trajectory::Dataset::new("fig1", figure1_trajectories()).unwrap(),
        dita_core::DitaConfig {
            ng: 2,
            trie: dita_index::TrieConfig {
                k: 2,
                nl: 2,
                leaf_capacity: 0,
                strategy: dita_index::PivotStrategy::NeighborDistance,
                cell_side: 2.0,
                ..dita_index::TrieConfig::default()
            },
        },
        dita_cluster::Cluster::new(dita_cluster::ClusterConfig::with_workers(workers)),
    )
}

proptest! {
    #[test]
    fn broadcast_and_shipment_price_trajectories_identically(
        coords in proptest::collection::vec(
            (-180.0f64..180.0, -90.0f64..90.0),
            1..64,
        ),
        id in 1u64..1_000_000,
    ) {
        let points: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let shipped = Trajectory::new(id, points.clone()).size_bytes() as u64;
        prop_assert_eq!(query_broadcast_bytes(&points), shipped);
    }

    #[test]
    fn both_formulas_are_linear_in_points(
        coords in proptest::collection::vec(
            (-180.0f64..180.0, -90.0f64..90.0),
            2..64,
        ),
    ) {
        let points: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let per_point = std::mem::size_of::<Point>() as u64;
        let envelope = std::mem::size_of::<TrajectoryId>() as u64;
        prop_assert_eq!(
            query_broadcast_bytes(&points),
            envelope + per_point * points.len() as u64
        );
        // Dropping one point saves exactly one point's bytes in both.
        let shorter = &points[..points.len() - 1];
        prop_assert_eq!(
            query_broadcast_bytes(&points) - query_broadcast_bytes(shorter),
            per_point
        );
        let t_full = Trajectory::new(1, points.clone()).size_bytes() as u64;
        let t_short = Trajectory::new(1, shorter.to_vec()).size_bytes() as u64;
        prop_assert_eq!(t_full - t_short, per_point);
    }

    /// The batched search path preserves broadcast parity: one batch job
    /// charges exactly the bytes the sequential per-query loop charges —
    /// a query pays one broadcast per relevant *worker*, never per
    /// partition, and joining a batch neither adds nor saves bytes.
    #[test]
    fn batched_broadcast_charges_match_sequential(
        queries in proptest::collection::vec(
            (proptest::collection::vec((0.0f64..8.0, 0.0f64..8.0), 1..8), 0.0f64..8.0),
            1..5,
        ),
        workers in 1usize..4,
    ) {
        use dita_core::{search, search_batch};
        use dita_distance::DistanceFunction;

        let sys = tiny_system(workers);
        let pts: Vec<Vec<Point>> = queries
            .iter()
            .map(|(coords, _)| coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
            .collect();
        let q_slices: Vec<&[Point]> = pts.iter().map(|p| p.as_slice()).collect();
        let taus: Vec<f64> = queries.iter().map(|&(_, tau)| tau).collect();
        let func = DistanceFunction::Dtw;

        let mut sequential = 0u64;
        for (qi, q) in q_slices.iter().enumerate() {
            let (_, s) = search(&sys, q, taus[qi], &func);
            sequential += s.job.workers.iter().map(|w| w.bytes_received).sum::<u64>();
        }
        let (_, bstats) = search_batch(&sys, &q_slices, &taus, &func);
        let batched: u64 = bstats.job.workers.iter().map(|w| w.bytes_received).sum();
        prop_assert_eq!(batched, sequential);
    }
}
