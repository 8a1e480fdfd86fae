//! Batched execution equivalence: `search_batch` and `knn_batch` must be
//! *byte-identical* to the sequential per-query loop — same result vectors
//! (f64 distances included), same per-query statistics, same network
//! charges — across every distance function, mixed taus, and a table
//! carrying unmerged delta state (post-insert/delete overlay).
//!
//! `search` is itself a batch of one, so batch-of-N ≡ N batches-of-one pins
//! that queries sharing a job do not disturb each other; what pins the
//! answers themselves is a brute-force scan of the live table.
//!
//! Deterministic seeded xorshift streams stand in for proptest, matching
//! the ingest-equivalence harness.

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::{
    knn_batch, knn_search, search, search_batch, CompactionPolicy, DitaConfig, DitaSystem,
};
use dita_distance::DistanceFunction;
use dita_index::{PivotStrategy, TrieConfig};
use dita_trajectory::{Dataset, Point, Trajectory};

struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn random_trajectory(rng: &mut XorShift, id: u64) -> Trajectory {
    let len = 3 + (rng.next_u64() % 10) as usize;
    let (mut x, mut y) = (rng.next_f64() * 8.0, rng.next_f64() * 8.0);
    let mut pts = Vec::with_capacity(len);
    for _ in 0..len {
        x += (rng.next_f64() - 0.5) * 0.5;
        y += (rng.next_f64() - 0.5) * 0.5;
        pts.push(Point::new(x, y));
    }
    Trajectory::new(id, pts)
}

fn all_functions() -> [DistanceFunction; 5] {
    [
        DistanceFunction::Dtw,
        DistanceFunction::Frechet,
        DistanceFunction::Edr { eps: 0.25 },
        DistanceFunction::Lcss {
            eps: 0.25,
            delta: 2,
        },
        DistanceFunction::Erp { gap: (0.0, 0.0) },
    ]
}

fn build(seed: u64, n: u64) -> DitaSystem {
    let mut rng = XorShift(seed | 1);
    let ts: Vec<Trajectory> = (1..=n).map(|id| random_trajectory(&mut rng, id)).collect();
    DitaSystem::build(
        &Dataset::new_unchecked("batch-eq", ts),
        DitaConfig {
            ng: 3,
            trie: TrieConfig {
                k: 2,
                nl: 2,
                leaf_capacity: 3,
                strategy: PivotStrategy::NeighborDistance,
                cell_side: 1.5,
                ..TrieConfig::default()
            },
        },
        Cluster::new(ClusterConfig::with_workers(3)),
    )
}

/// Seeded query batch with mixed taus (some tight, some loose, some huge).
fn query_batch(seed: u64, n: usize) -> (Vec<Trajectory>, Vec<f64>) {
    let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9) | 1);
    let qs: Vec<Trajectory> = (0..n)
        .map(|i| random_trajectory(&mut rng, 500_000 + i as u64))
        .collect();
    let taus: Vec<f64> = (0..n)
        .map(|_| match rng.next_u64() % 4 {
            0 => 0.25,
            1 => 1.0,
            2 => 4.0,
            _ => 50.0,
        })
        .collect();
    (qs, taus)
}

/// Ids of every live trajectory within `tau` of `q`, by linear scan with
/// the reference distance — no index, no kernels, no executor.
fn brute_force_ids(sys: &DitaSystem, q: &[Point], tau: f64, func: &DistanceFunction) -> Vec<u64> {
    let mut ids = Vec::new();
    sys.for_each_live(|t| {
        if func.distance(t.points(), q) <= tau {
            ids.push(t.id);
        }
    });
    ids.sort_unstable();
    ids
}

/// Asserts that a batch answers exactly like the per-query loop on `sys`
/// (results, per-query funnels, total network charge) in a job of the
/// batched shape (a task per worker, not per query), and that both agree
/// with the brute-force oracle on which trajectories answer each query.
fn assert_batch_matches_sequential(sys: &DitaSystem, seed: u64, batch_size: usize) {
    let (qs, taus) = query_batch(seed, batch_size);
    let q_slices: Vec<&[Point]> = qs.iter().map(|t| t.points()).collect();
    for func in all_functions() {
        let (batched, bstats) = search_batch(sys, &q_slices, &taus, &func);
        assert_eq!(batched.len(), batch_size);
        assert_eq!(bstats.queries.len(), batch_size);
        let mut sequential_bytes = 0u64;
        let mut sequential_tasks = 0usize;
        let mut queries_on_worker = vec![0usize; sys.cluster().num_workers()];
        for (qi, q) in q_slices.iter().enumerate() {
            let got: Vec<u64> = batched[qi].iter().map(|&(id, _)| id).collect();
            assert_eq!(
                got,
                brute_force_ids(sys, q, taus[qi], &func),
                "oracle disagrees: seed={seed} func={func} q={qi} tau={}",
                taus[qi]
            );
            let (solo, sstats) = search(sys, q, taus[qi], &func);
            assert_eq!(
                batched[qi], solo,
                "results diverge: seed={seed} func={func} q={qi} tau={}",
                taus[qi]
            );
            let bq = &bstats.queries[qi];
            assert_eq!(bq.relevant_partitions, sstats.relevant_partitions);
            assert_eq!(bq.candidates, sstats.candidates, "func={func} q={qi}");
            assert_eq!(bq.results, sstats.results);
            assert_eq!(
                bq.filter, sstats.filter,
                "funnel diverges func={func} q={qi}"
            );
            assert_eq!(bq.delta_candidates, sstats.delta_candidates);
            assert_eq!(bq.delta_filter, sstats.delta_filter);
            sequential_bytes += sstats
                .job
                .workers
                .iter()
                .map(|w| w.bytes_received)
                .sum::<u64>();
            for (on_worker, w) in queries_on_worker.iter_mut().zip(&sstats.job.workers) {
                sequential_tasks += w.tasks;
                *on_worker += usize::from(w.tasks > 0);
            }
        }
        // Broadcast parity: the batch job charges exactly what the
        // sequential loop charged in total — one shipment per (query,
        // relevant worker), never one per partition and never one per
        // batch member that didn't need the worker.
        let batch_bytes: u64 = bstats.job.workers.iter().map(|w| w.bytes_received).sum();
        assert_eq!(
            batch_bytes, sequential_bytes,
            "broadcast parity broken: seed={seed} func={func}"
        );
        // Job shape — what batching saves: a worker runs one task for the
        // whole batch, so never more tasks than workers or than the
        // batches-of-one ran, and fewer as soon as two queries share a
        // worker. (Wall-clock gain follows from this; it is not asserted.)
        let batch_tasks: usize = bstats.job.workers.iter().map(|w| w.tasks).sum();
        assert!(batch_tasks <= sys.cluster().num_workers());
        assert!(batch_tasks <= sequential_tasks);
        if queries_on_worker.iter().any(|&n| n >= 2) {
            assert!(
                batch_tasks < sequential_tasks,
                "shared worker, no saved task: seed={seed} func={func}"
            );
        }
    }
}

#[test]
fn search_batch_matches_sequential_on_clean_table() {
    for seed in [1u64, 7, 42] {
        let sys = build(seed, 60);
        for batch_size in [1usize, 2, 5, 16] {
            assert_batch_matches_sequential(&sys, seed, batch_size);
        }
    }
}

#[test]
fn search_batch_matches_sequential_with_delta_overlay() {
    for seed in [3u64, 11] {
        let mut sys = build(seed, 60);
        sys.set_compaction_policy(CompactionPolicy {
            auto: false,
            ..CompactionPolicy::default()
        });
        let mut rng = XorShift(seed.wrapping_mul(0xBEEF) | 1);
        // Mutate into a dirty state: inserts (some overwriting live ids),
        // deletes, and a flush so both segment tries and unflushed tails
        // are live during the probes.
        for i in 0..20u64 {
            match rng.next_u64() % 3 {
                0 => {
                    let id = 1 + rng.next_u64() % 60;
                    sys.delete(id);
                }
                _ => {
                    let id = if rng.next_u64().is_multiple_of(2) {
                        1 + rng.next_u64() % 60
                    } else {
                        2_000 + i
                    };
                    let t = random_trajectory(&mut rng, id);
                    sys.insert(t);
                }
            }
            if i == 9 {
                sys.flush();
            }
        }
        for batch_size in [2usize, 8] {
            assert_batch_matches_sequential(&sys, seed, batch_size);
        }
    }
}

#[test]
fn knn_batch_matches_sequential_knn() {
    for seed in [5u64, 13] {
        let sys = build(seed, 60);
        let (qs, _) = query_batch(seed, 6);
        let q_slices: Vec<&[Point]> = qs.iter().map(|t| t.points()).collect();
        for func in all_functions() {
            for k in [1usize, 3, 10] {
                let batched = knn_batch(&sys, &q_slices, k, &func);
                assert_eq!(batched.len(), q_slices.len());
                for (qi, q) in q_slices.iter().enumerate() {
                    let (solo, sstats) = knn_search(&sys, q, k, &func);
                    let (bhits, bstats) = &batched[qi];
                    assert_eq!(
                        bhits, &solo,
                        "knn diverges seed={seed} func={func} q={qi} k={k}"
                    );
                    assert_eq!(bstats.rounds, sstats.rounds, "func={func} q={qi} k={k}");
                    assert_eq!(
                        bstats.final_radius, sstats.final_radius,
                        "func={func} q={qi} k={k}"
                    );
                    assert_eq!(
                        bstats.candidates, sstats.candidates,
                        "func={func} q={qi} k={k}"
                    );
                }
            }
        }
    }
}

#[test]
fn knn_batch_matches_sequential_with_delta_overlay() {
    let mut sys = build(17, 50);
    sys.set_compaction_policy(CompactionPolicy {
        auto: false,
        ..CompactionPolicy::default()
    });
    let mut rng = XorShift(0x5EED | 1);
    for _ in 0..12 {
        if rng.next_u64().is_multiple_of(3) {
            sys.delete(1 + rng.next_u64() % 50);
        } else {
            let id = 3_000 + rng.next_u64() % 20;
            let t = random_trajectory(&mut rng, id);
            sys.insert(t);
        }
    }
    let (qs, _) = query_batch(17, 5);
    let q_slices: Vec<&[Point]> = qs.iter().map(|t| t.points()).collect();
    let batched = knn_batch(&sys, &q_slices, 4, &DistanceFunction::Dtw);
    for (qi, q) in q_slices.iter().enumerate() {
        let (solo, _) = knn_search(&sys, q, 4, &DistanceFunction::Dtw);
        assert_eq!(batched[qi].0, solo, "q={qi}");
    }
}

#[test]
fn degenerate_batches_behave() {
    let sys = build(23, 40);
    // Empty batch: no answers, no tasks, nothing shipped.
    let (results, stats) = search_batch(&sys, &[], &[], &DistanceFunction::Dtw);
    assert!(results.is_empty());
    assert!(stats.queries.is_empty());
    assert_eq!(stats.job.workers.iter().map(|w| w.tasks).sum::<usize>(), 0);
    assert!(knn_batch(&sys, &[], 3, &DistanceFunction::Dtw).is_empty());
    // Batch of one: the shape `search` and `knn_search` are built on.
    assert_batch_matches_sequential(&sys, 23, 1);
    // k = 0 answers every query with nothing and zero rounds.
    let (qs, _) = query_batch(23, 3);
    let q_slices: Vec<&[Point]> = qs.iter().map(|t| t.points()).collect();
    for (hits, st) in knn_batch(&sys, &q_slices, 0, &DistanceFunction::Dtw) {
        assert!(hits.is_empty());
        assert_eq!(st.rounds, 0);
    }
}
