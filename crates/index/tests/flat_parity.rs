//! Flat-trie / pointer-trie parity.
//!
//! The succinct flat layout ([`TrieIndex`]) and the reference pointer
//! layout ([`PointerTrie`]) are built from the same deterministic
//! `build_pending` output and probe through the same shared predicates, so
//! they must agree *byte for byte*: identical candidate id sets, identical
//! [`FilterStats`] at every stage, identical allocation-free counts — for
//! every distance function, including ERP's scan mode. These properties pin
//! that equivalence; the memory-density test pins that the flat layout is
//! actually smaller, which is the whole point of carrying two layouts.

use dita_distance::DistanceFunction;
use dita_index::{
    BatchProbeScratch, PivotStrategy, PointerTrie, ProbeScratch, TrieConfig, TrieIndex,
};
use dita_trajectory::{Point, Trajectory};
use proptest::prelude::*;

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

    /// Candidate sets, filter statistics and counting probes are identical
    /// between the flat and pointer layouts for every distance function.
    #[test]
    fn flat_probe_matches_pointer_probe(
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
        let flat = TrieIndex::build(ts.clone(), config);
        let pointer = PointerTrie::build(ts, config);
        let mut fs = ProbeScratch::new();
        let mut ps = ProbeScratch::new();
        for f in all_functions() {
            let (fc, fstats) = flat.candidates_with_stats(q.points(), tau, &f);
            let (pc, pstats) = pointer.candidates_with_stats(q.points(), tau, &f);
            prop_assert_eq!(&fc, &pc, "{} candidate sets diverge", f);
            prop_assert_eq!(fstats, pstats, "{} filter stats diverge", f);
            prop_assert_eq!(
                flat.candidate_count(q.points(), tau, &f, &mut fs),
                pointer.candidate_count(q.points(), tau, &f, &mut ps),
                "{} counting probes diverge", f
            );
        }
    }

    /// A batch answers every query exactly as the reference pointer trie
    /// answers it alone: candidate ids AND per-query filter funnels match
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
        let trie = TrieIndex::build(ts.clone(), config);
        let pointer = PointerTrie::build(ts, config);
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
                let (solo_ids, solo_stats) =
                    pointer.candidates_with_stats(q_slices[qi], taus[qi], &f);
                prop_assert_eq!(ids, &solo_ids, "{} q={} candidate sets diverge", f, qi);
                prop_assert_eq!(stats, &solo_stats, "{} q={} filter stats diverge", f, qi);
            }
        }
    }

    /// Candidate ids index the same trajectories in both layouts (the flat
    /// store preserves clustered order), and both layouts agree on the
    /// stored population.
    #[test]
    fn flat_entries_match_pointer_data(ts in arb_dataset(25), k in 0usize..4) {
        let config = TrieConfig {
            k,
            nl: 3,
            leaf_capacity: 2,
            strategy: PivotStrategy::InflectionPoint,
            cell_side: 1.0,
            ..TrieConfig::default()
        };
        let flat = TrieIndex::build(ts.clone(), config);
        let pointer = PointerTrie::build(ts, config);
        prop_assert_eq!(flat.len(), pointer.len());
        for (e, it) in flat.entries().zip(pointer.data()) {
            prop_assert_eq!(e.id(), it.traj.id);
            prop_assert_eq!(e.points_vec(), it.traj.points());
            prop_assert_eq!(e.index_points(), &it.index_points[..]);
            prop_assert_eq!(e.mbr(), &it.mbr);
        }
    }
}

/// xorshift64* — deterministic, dependency-free randomness.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
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

/// The tentpole claim: at a realistic shape (hundreds of random-walk
/// trajectories, K = 3 pivots) the flat layout's index overhead per
/// trajectory is at least 3× below the pointer layout's.
#[test]
fn flat_index_is_at_least_3x_denser() {
    let ts = random_trajectories(400, 0x0dd_ba11);
    let config = TrieConfig {
        k: 3,
        nl: 4,
        leaf_capacity: 8,
        strategy: PivotStrategy::NeighborDistance,
        cell_side: 1.0,
        ..TrieConfig::default()
    };
    let flat = TrieIndex::build(ts.clone(), config);
    let pointer = PointerTrie::build(ts, config);
    let (fi, pi) = (flat.index_size_bytes(), pointer.index_size_bytes());
    assert!(
        fi * 3 <= pi,
        "flat index {fi} B is not 3x below pointer index {pi} B"
    );
    // Total footprint (index + payload) must shrink too: the flat store
    // holds one coordinate copy where the pointer layout held two.
    assert!(flat.size_bytes() < pointer.size_bytes());
}
