//! The flat trie's walks against its reference probe.
//!
//! [`TrieIndex::reference_candidates`] visits the node arena in id order
//! with no stack, runs the same node tests and hands each node's state to
//! its children, and tests members with the cascade alone, with no block
//! screen. The walks must agree with it *byte for byte*: identical
//! candidate id sets and identical [`dita_index::FilterStats`] at every
//! stage — through the points path (`candidates_with_stats`), the path a
//! search runs (`probe_soa`) and the batch — for every distance function,
//! including ERP's scan mode. The store is held to its input rows, and the
//! index's bytes to their pinned values.

use dita_distance::DistanceFunction;
use dita_index::{
    select_pivots, BatchProbeScratch, PivotStrategy, ProbeScratch, TrieConfig, TrieIndex,
};
use dita_rng::prop::prelude::*;
use dita_rng::MarsagliaStar as XorShift;
use dita_trajectory::{Point, SoaPoints, Trajectory};

fn all_functions() -> [DistanceFunction; 5] {
    [
        DistanceFunction::Dtw,
        DistanceFunction::Frechet,
        DistanceFunction::Edr { eps: 1.0 },
        DistanceFunction::Lcss { eps: 1.0, delta: 2 },
        DistanceFunction::Erp { gap: (0.0, 0.0) },
    ]
}

fn arb_trajectory(id: u64) -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..14)
        .prop_map(move |coords| Trajectory::from_coords(id, &coords))
}

fn arb_dataset(n: usize) -> impl Strategy<Value = Vec<Trajectory>> {
    prop::collection::vec(
        prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..14),
        2..n,
    )
    .prop_map(|all| {
        all.into_iter()
            .enumerate()
            .map(|(i, coords)| Trajectory::from_coords(i as u64, &coords))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The walks' candidate sets and filter statistics are the reference
    /// probe's for every distance function: the points path, and the SoA
    /// path a search runs, emitting in traversal order.
    #[test]
    fn walks_match_the_reference_probe(
        ts in arb_dataset(30),
        q in arb_trajectory(1000),
        tau in 0.0f64..30.0,
        k in 0usize..4,
        nl in 2usize..6,
        leaf_capacity in 0usize..4,
    ) {
        let config = TrieConfig {
            k,
            nl,
            leaf_capacity,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 1.0,
            ..TrieConfig::default()
        };
        let trie = TrieIndex::build(ts, config);
        let soa = SoaPoints::from_points(q.points());
        let mut scratch = ProbeScratch::new();
        for f in all_functions() {
            let want = trie.reference_candidates(soa.view(), tau, &f);
            let got = trie.candidates_with_stats(q.points(), tau, &f);
            prop_assert_eq!(&got, &want, "{} points path diverges", f);
            let mut ids = Vec::new();
            let stats = trie.probe_soa(soa.view(), tau, &f, &mut scratch, |m| ids.push(m));
            ids.sort_unstable();
            prop_assert_eq!((ids, stats), want, "{} SoA path diverges", f);
        }
    }

    /// A batch answers every query exactly as the reference probe answers
    /// it alone: candidate ids AND per-query filter funnels match
    /// for every distance function, mixed taus included (negative taus
    /// make a query inert). One scratch is reused across every function,
    /// pinning that stale state cannot leak between batches.
    #[test]
    fn batch_probe_matches_per_query_probes(
        ts in arb_dataset(30),
        queries in prop::collection::vec(
            (prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..14), -1.0f64..30.0),
            1..6,
        ),
        k in 0usize..4,
        nl in 2usize..6,
        leaf_capacity in 0usize..4,
    ) {
        let config = TrieConfig {
            k,
            nl,
            leaf_capacity,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 1.0,
            ..TrieConfig::default()
        };
        let trie = TrieIndex::build(ts, config);
        let qs: Vec<Trajectory> = queries
            .iter()
            .enumerate()
            .map(|(i, (coords, _))| Trajectory::from_coords(1000 + i as u64, coords))
            .collect();
        let q_slices: Vec<&[Point]> = qs.iter().map(|t| t.points()).collect();
        let taus: Vec<f64> = queries.iter().map(|&(_, tau)| tau).collect();
        let mut scratch = BatchProbeScratch::new();
        for f in all_functions() {
            let batch = trie.candidates_batch(&q_slices, &taus, &f, &mut scratch);
            prop_assert_eq!(batch.len(), qs.len());
            for (qi, (ids, stats)) in batch.iter().enumerate() {
                let soa = SoaPoints::from_points(q_slices[qi]);
                let (solo_ids, solo_stats) = trie.reference_candidates(soa.view(), taus[qi], &f);
                prop_assert_eq!(ids, &solo_ids, "{} q={} candidate sets diverge", f, qi);
                prop_assert_eq!(stats, &solo_stats, "{} q={} filter stats diverge", f, qi);
            }
        }
    }

    /// Every store entry is its input row as preprocessing makes it: id,
    /// points, indexing points and MBR, each input row stored once.
    #[test]
    fn store_entries_match_their_input_rows(ts in arb_dataset(25), k in 0usize..4) {
        let config = TrieConfig {
            k,
            nl: 3,
            leaf_capacity: 2,
            strategy: PivotStrategy::InflectionPoint,
            cell_side: 1.0,
            ..TrieConfig::default()
        };
        let flat = TrieIndex::build(ts.clone(), config);
        prop_assert_eq!(flat.len(), ts.len());
        let mut stored = vec![false; ts.len()];
        for e in flat.entries() {
            // Input row `i` has id `i`.
            let i = e.id() as usize;
            prop_assert!(!std::mem::replace(&mut stored[i], true), "row {} stored twice", i);
            // Indexing points: first, last when distinct, then the pivots.
            let t = &ts[i];
            let mut ips = vec![*t.first()];
            if t.len() > 1 {
                ips.push(*t.last());
            }
            ips.extend(select_pivots(t, k, config.strategy).into_iter().map(|p| t.points()[p]));
            prop_assert_eq!(e.id(), t.id);
            prop_assert_eq!(e.points_vec(), t.points());
            prop_assert_eq!(e.index_points(), &ips[..]);
            prop_assert_eq!(e.mbr(), &t.mbr());
        }
    }
}

/// Random-walk trajectories spread over a [0, 8]² region, with the length
/// profile of the smoke benchmark's synthetic city (24–64 points).
fn random_trajectories(n: usize, seed: u64) -> Vec<Trajectory> {
    let mut rng = XorShift(seed | 1);
    (0..n)
        .map(|i| {
            let len = 24 + (rng.next_u64() % 41) as usize;
            let mut x = rng.next_f64() * 8.0;
            let mut y = rng.next_f64() * 8.0;
            let mut pts = Vec::with_capacity(len);
            for _ in 0..len {
                pts.push(Point::new(x, y));
                x += (rng.next_f64() - 0.5) * 0.6;
                y += (rng.next_f64() - 0.5) * 0.6;
            }
            Trajectory::new(i as u64 + 1, pts)
        })
        .collect()
}

/// The index's bytes at a realistic shape (hundreds of random-walk
/// trajectories, K = 3 pivots), pinned: the build is deterministic and its
/// arenas are allocated at exact capacities, so any change to the encoding
/// shows here.
#[test]
fn flat_index_bytes_are_pinned() {
    let ts = random_trajectories(400, 0x0dd_ba11);
    let config = TrieConfig {
        k: 3,
        nl: 4,
        leaf_capacity: 8,
        strategy: PivotStrategy::NeighborDistance,
        cell_side: 1.0,
        ..TrieConfig::default()
    };
    let flat = TrieIndex::build(ts, config);
    // [`TrieIndex::index_size_bytes`], then [`TrieIndex::size_bytes`].
    assert_eq!(
        (flat.index_size_bytes(), flat.size_bytes()),
        (62_476, 345_692)
    );
}
