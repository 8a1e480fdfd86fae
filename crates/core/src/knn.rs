//! k-nearest-neighbor search and join — the paper's announced follow-up
//! ("In future, we plan to support KNN-based search and join in DITA", §8),
//! built on the exact threshold machinery.
//!
//! The classic reduction: run threshold search with a growing radius until
//! at least `k` answers exist, then keep the `k` closest. Every probe is
//! exact (the threshold search never misses), so the result equals the true
//! k-NN set. The radius starts at a data-driven seed — the distance from
//! the query's endpoints to the nearest partition MBRs — and doubles, so
//! dense regions converge in one or two probes and empty regions expand
//! geometrically instead of scanning.

use crate::search::{run_batch, SearchScratch};
use crate::system::DitaSystem;
use dita_distance::DistanceFunction;
use dita_obs::names;
use dita_trajectory::{Point, TrajectoryId};

/// Statistics of one kNN search.
#[derive(Debug, Clone)]
pub struct KnnStats {
    /// Threshold probes issued (radius doublings + the final one).
    pub rounds: usize,
    /// The radius that produced the final answer set.
    pub final_radius: f64,
    /// Total candidates examined across all probes.
    pub candidates: usize,
}

/// Finds the `k` trajectories closest to `q` under `func`, sorted by
/// distance then id. Returns fewer than `k` only when the table is smaller
/// than `k`.
pub fn knn_search(
    system: &DitaSystem,
    q: &[Point],
    k: usize,
    func: &DistanceFunction,
) -> (Vec<(TrajectoryId, f64)>, KnnStats) {
    let mut scratch = SearchScratch::new();
    knn_search_with_scratch(system, q, k, func, &mut scratch)
}

/// [`knn_search`] with caller-held scratch: the bound-tightening rounds
/// reuse one set of probe stacks and kernel buffers instead of
/// reallocating them per radius probe, and a caller issuing many kNN
/// queries (the kNN join, benchmark loops) can share one scratch across
/// all of them. Results are identical.
///
/// A batch of one under the `knn` operation span; each radius probe's
/// `search` span nests under it.
pub fn knn_search_with_scratch(
    system: &DitaSystem,
    q: &[Point],
    k: usize,
    func: &DistanceFunction,
    scratch: &mut SearchScratch,
) -> (Vec<(TrajectoryId, f64)>, KnnStats) {
    let _span = dita_obs::span!(system.obs(), names::SPAN_KNN, func = func, k = k);
    knn_rounds(system, &[q], k, func, scratch, names::SPAN_SEARCH)
        .pop()
        .expect("one answer per query")
}

/// Batched kNN: answers one kNN search per query, sharing radius probes.
///
/// Each round, every query still tightening its bound joins a single
/// search job (see [`crate::search_batch`]). Queries keep fully
/// independent radius schedules (seed, doubling, safety valve), so the
/// per-query results *and* [`KnnStats`] are what [`knn_search`] returns
/// for each query alone — a query finishing early simply drops out of
/// later rounds.
pub fn knn_batch(
    system: &DitaSystem,
    queries: &[&[Point]],
    k: usize,
    func: &DistanceFunction,
) -> Vec<(Vec<(TrajectoryId, f64)>, KnnStats)> {
    let _span = dita_obs::span!(
        system.obs(),
        names::SPAN_KNN_BATCH,
        func = func,
        k = k,
        queries = queries.len()
    );
    let mut scratch = SearchScratch::new();
    knn_rounds(
        system,
        queries,
        k,
        func,
        &mut scratch,
        names::SPAN_SEARCH_BATCH,
    )
}

/// Per-query expansion state of [`knn_rounds`].
struct KnnState {
    radius: f64,
    /// The next probe is the full-scan safety valve.
    infinity: bool,
    done: bool,
    result: Vec<(TrajectoryId, f64)>,
    stats: KnnStats,
}

/// The one kNN implementation: rounds of threshold search over the queries
/// still short of `k` answers, each round one search job under a
/// `round_span` span, radii doubling per query until it has them.
fn knn_rounds(
    system: &DitaSystem,
    queries: &[&[Point]],
    k: usize,
    func: &DistanceFunction,
    scratch: &mut SearchScratch,
    round_span: &'static str,
) -> Vec<(Vec<(TrajectoryId, f64)>, KnnStats)> {
    for q in queries {
        assert!(!q.is_empty(), "queries must contain at least one point");
    }
    let empty = k == 0 || system.is_empty();
    let k = k.min(system.len());
    let mut states: Vec<KnnState> = queries
        .iter()
        .map(|q| KnnState {
            radius: if empty {
                0.0
            } else {
                seed_radius(system, q, func)
            },
            infinity: false,
            done: empty,
            result: Vec::new(),
            stats: KnnStats {
                rounds: 0,
                final_radius: 0.0,
                candidates: 0,
            },
        })
        .collect();

    loop {
        let active: Vec<usize> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            break;
        }
        let qs: Vec<&[Point]> = active.iter().map(|&i| queries[i]).collect();
        let taus: Vec<f64> = active
            .iter()
            .map(|&i| {
                let s = &mut states[i];
                s.stats.rounds += 1;
                if s.infinity {
                    // The safety valve counts as a round but does not move
                    // `final_radius`.
                    f64::INFINITY
                } else {
                    s.stats.final_radius = s.radius;
                    s.radius
                }
            })
            .collect();
        let (mut hits, bstats) = {
            let _round = dita_obs::span!(system.obs(), round_span, queries = qs.len(), func = func);
            run_batch(system, &qs, &taus, func, scratch)
        };
        for (slot, &i) in active.iter().enumerate() {
            let s = &mut states[i];
            s.stats.candidates += bstats.queries[slot].candidates;
            let h = std::mem::take(&mut hits[slot]);
            if s.infinity || h.len() >= k {
                let mut h = h;
                h.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                h.truncate(k);
                s.result = h;
                s.done = true;
            } else {
                s.radius = if s.radius > 0.0 { s.radius * 2.0 } else { 1e-6 };
                // Safety valve: beyond any plausible geographic scale,
                // scan all.
                if s.radius > 1e6 {
                    s.infinity = true;
                }
            }
        }
    }
    states.into_iter().map(|s| (s.result, s.stats)).collect()
}

/// A data-driven starting radius: the larger of the endpoint distances to
/// the nearest partition MBRs (so the first probe reaches at least one
/// partition), floored to a small geographic step. Edit-family functions
/// start at an edit budget of 1.
fn seed_radius(system: &DitaSystem, q: &[Point], func: &DistanceFunction) -> f64 {
    use dita_distance::function::IndexMode;
    match func.index_mode() {
        IndexMode::EditCount { .. } => 1.0,
        _ => {
            let first = &q[0];
            let last = &q[q.len() - 1];
            let mut best = f64::INFINITY;
            for pid in 0..system.num_partitions() {
                let (mf, ml) = system.global().partition_mbrs(pid);
                let d = mf.min_dist_point(first) + ml.min_dist_point(last);
                if d < best {
                    best = d;
                }
            }
            best.clamp(1e-4, 1.0)
        }
    }
}

/// kNN join: for every trajectory of `q_sys`, its `k` nearest neighbors in
/// `t_sys`. Returns `(q_id, t_id, dist)` triples grouped by `q_id`.
pub fn knn_join(
    t_sys: &DitaSystem,
    q_sys: &DitaSystem,
    k: usize,
    func: &DistanceFunction,
) -> Vec<(TrajectoryId, TrajectoryId, f64)> {
    let mut out = Vec::new();
    // One scratch across every outer row: each kNN's radius probes reuse
    // the same probe stacks and kernel buffers.
    let mut scratch = SearchScratch::new();
    // Iterate the *live* view of the outer table so tombstoned rows drop
    // out and delta inserts join in without a compaction.
    q_sys.for_each_live(|q| {
        let (hits, _) = knn_search_with_scratch(t_sys, q.points(), k, func, &mut scratch);
        out.extend(hits.into_iter().map(|(tid, d)| (q.id, tid, d)));
    });
    out.sort_by_key(|a| (a.0, a.1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::DitaConfig;
    use dita_cluster::{Cluster, ClusterConfig};
    use dita_index::{PivotStrategy, TrieConfig};
    use dita_trajectory::trajectory::figure1_trajectories;
    use dita_trajectory::Dataset;

    fn tiny_system() -> DitaSystem {
        let dataset = Dataset::new("fig1", figure1_trajectories()).unwrap();
        DitaSystem::build(
            &dataset,
            DitaConfig {
                ng: 2,
                trie: TrieConfig {
                    k: 2,
                    nl: 2,
                    leaf_capacity: 0,
                    strategy: PivotStrategy::NeighborDistance,
                    cell_side: 2.0,
                    ..TrieConfig::default()
                },
            },
            Cluster::new(ClusterConfig::with_workers(2)),
        )
    }

    fn brute_knn(q: &dita_trajectory::Trajectory, k: usize, f: &DistanceFunction) -> Vec<u64> {
        let ts = figure1_trajectories();
        let mut d: Vec<(u64, f64)> = ts
            .iter()
            .map(|t| (t.id, f.distance(t.points(), q.points())))
            .collect();
        d.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        d.truncate(k);
        d.into_iter().map(|(id, _)| id).collect()
    }

    #[test]
    fn knn_matches_brute_force_for_all_functions() {
        let sys = tiny_system();
        let ts = figure1_trajectories();
        let fns = [
            DistanceFunction::Dtw,
            DistanceFunction::Frechet,
            DistanceFunction::Edr { eps: 1.0 },
            DistanceFunction::Lcss { eps: 1.0, delta: 2 },
            DistanceFunction::Erp { gap: (0.0, 0.0) },
        ];
        for f in fns {
            for q in &ts {
                for k in 1..=5 {
                    let (hits, stats) = knn_search(&sys, q.points(), k, &f);
                    let got: Vec<u64> = hits.iter().map(|&(id, _)| id).collect();
                    assert_eq!(got, brute_knn(q, k, &f), "{f} Q=T{} k={k}", q.id);
                    assert!(stats.rounds >= 1);
                }
            }
        }
    }

    #[test]
    fn k_larger_than_table_returns_everything() {
        let sys = tiny_system();
        let ts = figure1_trajectories();
        let (hits, _) = knn_search(&sys, ts[0].points(), 100, &DistanceFunction::Dtw);
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn k_zero_is_empty() {
        let sys = tiny_system();
        let ts = figure1_trajectories();
        let (hits, stats) = knn_search(&sys, ts[0].points(), 0, &DistanceFunction::Dtw);
        assert!(hits.is_empty());
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn nearest_neighbor_of_self_is_self() {
        let sys = tiny_system();
        for t in figure1_trajectories() {
            let (hits, _) = knn_search(&sys, t.points(), 1, &DistanceFunction::Dtw);
            assert_eq!(hits[0].0, t.id);
            assert_eq!(hits[0].1, 0.0);
        }
    }

    #[test]
    fn knn_join_matches_per_query_search() {
        let t_sys = tiny_system();
        let q_sys = tiny_system();
        let pairs = knn_join(&t_sys, &q_sys, 2, &DistanceFunction::Dtw);
        assert_eq!(pairs.len(), 10); // 5 queries × 2 neighbors
        let ts = figure1_trajectories();
        for q in &ts {
            let expect = brute_knn(q, 2, &DistanceFunction::Dtw);
            let got: Vec<u64> = pairs
                .iter()
                .filter(|&&(qid, _, _)| qid == q.id)
                .map(|&(_, tid, _)| tid)
                .collect();
            let mut expect_sorted = expect.clone();
            expect_sorted.sort_unstable();
            assert_eq!(got, expect_sorted, "Q=T{}", q.id);
        }
    }
}
