//! Property tests for partitioning, the global index and the trie filter.
//!
//! The central invariant: no stage of the DITA filter pipeline may drop a
//! true answer, for any distance function, threshold, or configuration.

use dita_distance::DistanceFunction;
use dita_index::{
    str_partitioning, GlobalIndex, PivotStrategy, ProbeScratch, TrieConfig, TrieIndex,
};
use dita_trajectory::{Point, Trajectory};
use proptest::prelude::*;

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

    #[test]
    fn partitioning_is_exact_cover(ts in arb_dataset(40), ng in 1usize..6) {
        let p = str_partitioning(&ts, ng);
        prop_assert_eq!(p.total_members(), ts.len());
        let mut seen = vec![false; ts.len()];
        for part in &p.partitions {
            for &m in &part.members {
                prop_assert!(!seen[m]);
                seen[m] = true;
                prop_assert!(part.mbr_first.contains_point(ts[m].first()));
                prop_assert!(part.mbr_last.contains_point(ts[m].last()));
            }
        }
    }

    #[test]
    fn global_plus_trie_filter_never_drops_answers(
        ts in arb_dataset(30),
        q in arb_trajectory(1000),
        tau in 0.0f64..30.0,
        ng in 1usize..4,
        k in 0usize..4,
        nl in 2usize..6,
    ) {
        let parts = str_partitioning(&ts, ng);
        let global = GlobalIndex::build(&parts);
        let config = TrieConfig {
            k,
            nl,
            leaf_capacity: 2,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 1.0,
            ..TrieConfig::default()
        };
        let tries: Vec<TrieIndex> = parts
            .partitions
            .iter()
            .map(|p| {
                TrieIndex::build(
                    p.members.iter().map(|&m| ts[m].clone()).collect(),
                    config,
                )
            })
            .collect();

        for f in [
            DistanceFunction::Dtw,
            DistanceFunction::Frechet,
            DistanceFunction::Edr { eps: 1.0 },
            DistanceFunction::Lcss { eps: 1.0, delta: 2 },
        ] {
            let relevant = global.relevant_partitions(q.first(), q.last(), q.len(), tau, f.index_mode());
            let mut cands: Vec<u64> = Vec::new();
            for &pid in &relevant {
                for c in tries[pid].candidates(q.points(), tau, &f) {
                    cands.push(tries[pid].get(c).id());
                }
            }
            for t in &ts {
                let d = f.distance(t.points(), q.points());
                if d <= tau {
                    prop_assert!(
                        cands.contains(&t.id),
                        "{} dropped id {} (d = {d}, tau = {tau})",
                        f,
                        t.id
                    );
                }
            }
        }
    }

    #[test]
    fn trie_stores_every_trajectory(ts in arb_dataset(30), k in 0usize..5, nl in 2usize..8) {
        let n = ts.len();
        let index = TrieIndex::build(ts, TrieConfig {
            k,
            nl,
            leaf_capacity: 3,
            strategy: PivotStrategy::InflectionPoint,
            cell_side: 0.5,
            ..TrieConfig::default()
        });
        prop_assert_eq!(index.len(), n);
        // A query with infinite-ish budget returns everything.
        let q = [Point::new(0.0, 0.0)];
        let cands = index.candidates(&q, 1e12, &DistanceFunction::Dtw);
        prop_assert_eq!(cands.len(), n);
    }

    /// The allocation-free counting probe agrees with the materializing one
    /// for every index mode (additive, max, edit-count, scan).
    #[test]
    fn candidate_count_matches_candidates_len(
        ts in arb_dataset(30),
        q in arb_trajectory(1000),
        tau in 0.0f64..30.0,
        k in 0usize..4,
        nl in 2usize..6,
    ) {
        let index = TrieIndex::build(ts, TrieConfig {
            k,
            nl,
            leaf_capacity: 2,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 1.0,
            ..TrieConfig::default()
        });
        let mut scratch = ProbeScratch::new();
        for f in [
            DistanceFunction::Dtw,
            DistanceFunction::Frechet,
            DistanceFunction::Edr { eps: 1.0 },
            DistanceFunction::Lcss { eps: 1.0, delta: 2 },
            DistanceFunction::Erp { gap: (0.0, 0.0) },
        ] {
            let cands = index.candidates(q.points(), tau, &f);
            let count = index.candidate_count(q.points(), tau, &f, &mut scratch);
            prop_assert_eq!(count, cands.len(), "{}", f);
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

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` random walks over [0, 6]² of 1 to `max_len` points, ids `1..=n`.
fn walks(n: usize, max_len: usize, rng: &mut XorShift) -> Vec<Trajectory> {
    (0..n)
        .map(|i| {
            let len = 1 + (rng.next_u64() % max_len as u64) as usize;
            let (mut x, mut y) = (rng.unit() * 6.0, rng.unit() * 6.0);
            let coords: Vec<(f64, f64)> = (0..len)
                .map(|_| {
                    let p = (x, y);
                    x += (rng.unit() - 0.5) * 0.8;
                    y += (rng.unit() - 0.5) * 0.8;
                    p
                })
                .collect();
            Trajectory::from_coords(i as u64 + 1, &coords)
        })
        .collect()
}

/// `probe_rows` against the per-row probe it replaced in the local join:
/// the same `(sid, c)` pairs, each once, for five functions × {one trie on
/// both sides, two tries over different tables} × five kinds of row subset
/// × three trie shapes × the adversarial thresholds. One trie on both sides
/// yields exactly `{(s, c) : c ∈ candidates(row s), c ≥ s}`.
#[test]
fn probe_rows_emits_the_per_row_probes_pairs() {
    let mut rng = XorShift(0x5eed_2401);
    let every_level = TrieConfig {
        k: 2,
        nl: 2,
        leaf_capacity: 0,
        ..TrieConfig::default()
    };
    // (table length bound, config): the default shape (leaves of several
    // rows under one level), every level present, and 1- and 2-point
    // trajectories, which stop at depth 1 and 2 so inner nodes own members.
    let shapes = [
        (12, TrieConfig::default()),
        (12, every_level),
        (2, every_level),
    ];
    let funcs = [
        DistanceFunction::Dtw,
        DistanceFunction::Frechet,
        DistanceFunction::Edr { eps: 0.5 },
        DistanceFunction::Lcss { eps: 0.5, delta: 2 },
        DistanceFunction::Erp { gap: (3.0, 3.0) },
    ];
    let mut scratch = ProbeScratch::new();
    let (mut pairs_seen, mut diagonal_dropped) = (0usize, 0usize);
    for (max_len, config) in shapes {
        let a = TrieIndex::build(walks(160, max_len, &mut rng), config);
        let b = TrieIndex::build(walks(140, max_len, &mut rng), config);
        for (src, dst) in [(&a, &a), (&a, &b)] {
            let same = std::ptr::eq(src, dst);
            let n = src.len() as u32;
            let (s, r) = (rng.next_u64() as u32 % 3, 2 + rng.next_u64() as u32 % 3);
            let subsets: [Vec<u32>; 5] = [
                (0..n).collect(),
                Vec::new(),
                vec![rng.next_u64() as u32 % n],
                // What replica slot `s` of `r` is shipped.
                (s..n).step_by(r as usize).collect(),
                (0..n)
                    .filter(|_| rng.next_u64().is_multiple_of(3))
                    .collect(),
            ];
            for func in &funcs {
                // A distance that occurs, so the thresholds sit on it.
                let (x, y) = (src.get(rng.next_u64() as u32 % n), dst.get(7));
                let d = func.distance(&x.points_vec(), &y.points_vec());
                for tau in [
                    0.0,
                    d.next_down(),
                    d,
                    d.next_up(),
                    2.0 * d + 1.0,
                    -1.0,
                    f64::NAN,
                ] {
                    let per_row: Vec<Vec<u32>> = (0..n)
                        .map(|sid| dst.candidates(&src.get(sid).points_vec(), tau, func))
                        .collect();
                    for rows in &subsets {
                        let mut want = Vec::new();
                        for &sid in rows {
                            for &c in &per_row[sid as usize] {
                                if !same || c >= sid {
                                    want.push((sid, c));
                                } else {
                                    diagonal_dropped += 1;
                                }
                            }
                        }
                        let mut got = Vec::new();
                        let stats = dst.probe_rows(src, rows, tau, func, &mut scratch, |sid, c| {
                            got.push((sid, c))
                        });
                        got.sort_unstable();
                        let what = format!("{func} tau {tau} same {same} rows {}", rows.len());
                        assert!(got.windows(2).all(|w| w[0] != w[1]), "{what}: a pair twice");
                        let differ = got.iter().zip(&want).position(|(g, w)| g != w);
                        assert!(
                            differ.is_none() && got.len() == want.len(),
                            "{what}: {} pairs for the per-row probe's {}, first difference at {differ:?}",
                            got.len(),
                            want.len()
                        );
                        assert_eq!(stats.candidates(), got.len(), "{what}: funnel survivors");
                        pairs_seen += got.len();
                    }
                }
            }
        }
    }
    // Not vacuous: pairs were compared and the diagonal rule dropped some.
    assert!(
        pairs_seen > 100_000 && diagonal_dropped > 10_000,
        "{pairs_seen} {diagonal_dropped}"
    );
}
