//! Distributed trajectory similarity search (§5).
//!
//! Three steps, matching §5.1.1: the driver consults the global index for
//! relevant partitions and ships the queries to their workers; each worker
//! filters with its trie index and verifies the candidates on the spot (the
//! clustered layout means no second lookup); the driver collects results.
//!
//! There is one implementation, the batched job: [`search`] is a batch of
//! one. What a batch shares is the job — one task per worker for all of its
//! queries — not the work inside it: every query is probed and verified on
//! its own, exactly as it would be alone.

use crate::system::DitaSystem;
use crate::verify::{try_verify_candidates, verify_views, QueryContext, VerifyStats};
use dita_cluster::{JobStats, TaskSpec};
use dita_distance::DistanceFunction;
use dita_index::{FilterStats, ProbeScratch};
use dita_obs::names;
use dita_obs::sync::locks;
use dita_obs::OrderedMutex;
use dita_trajectory::{Point, TrajectoryId};
use std::collections::BTreeMap;

/// Statistics of one search execution.
#[derive(Debug, Clone)]
pub struct SearchStats {
    /// Partitions the global index could not prune.
    pub relevant_partitions: usize,
    /// Candidates produced by the trie filters.
    pub candidates: usize,
    /// Final result count.
    pub results: usize,
    /// Aggregated trie filter funnel (nodes visited/pruned, leaf checks).
    pub filter: FilterStats,
    /// What verification made of the candidates, stage by stage; its
    /// `candidates` is `candidates + delta_candidates`.
    pub verify: VerifyStats,
    /// Candidates produced by the delta overlay: live segment-trie
    /// candidates plus exact-checked unflushed tail entries. Zero on a
    /// clean (fully compacted) table.
    pub delta_candidates: usize,
    /// Aggregated delta-segment filter funnel.
    pub delta_filter: FilterStats,
    /// Cluster-level execution statistics.
    pub job: JobStats,
}

/// Reusable allocations for repeated searches.
///
/// Worker tasks run concurrently and each needs its own probe stack, so the
/// probe scratches live in a small mutex-guarded pool: a task pops one on
/// entry and returns it on exit, and by the second call every pool hit is
/// allocation-free. The kernel scratch is driver-only (delta tail checks).
/// [`knn_search`](crate::knn_search) holds one of these across its
/// bound-tightening rounds, and the batch drivers across whole batches.
pub struct SearchScratch {
    probes: OrderedMutex<Vec<ProbeScratch>>,
    kernel: dita_distance::kernel::Scratch,
}

impl SearchScratch {
    /// Creates an empty scratch; the pool fills lazily as tasks run.
    pub fn new() -> Self {
        SearchScratch {
            probes: OrderedMutex::new(&locks::SEARCH_SCRATCH_PROBE, Vec::new()),
            kernel: dita_distance::kernel::Scratch::default(),
        }
    }

    fn take_probe(&self) -> ProbeScratch {
        self.probes.lock().pop().unwrap_or_default()
    }

    fn put_probe(&self, s: ProbeScratch) {
        self.probes.lock().push(s);
    }
}

impl Default for SearchScratch {
    fn default() -> Self {
        SearchScratch::new()
    }
}

/// Per-query statistics of one [`search_batch`] execution — the same funnel
/// breakdown [`SearchStats`] reports for a standalone search, minus the
/// job-level fields that are shared by the whole batch.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Partitions the global index could not prune for this query.
    pub relevant_partitions: usize,
    /// Candidates the trie filters produced for this query.
    pub candidates: usize,
    /// Final result count for this query.
    pub results: usize,
    /// This query's trie filter funnel.
    pub filter: FilterStats,
    /// This query's verification stages, overlay included:
    /// `verify.candidates == candidates + delta_candidates`.
    pub verify: VerifyStats,
    /// Delta-overlay candidates (segments + exact-checked tails).
    pub delta_candidates: usize,
    /// This query's delta-segment filter funnel.
    pub delta_filter: FilterStats,
}

/// Statistics of one [`search_batch`] execution.
#[derive(Debug, Clone)]
pub struct BatchSearchStats {
    /// Per-query funnels, parallel to the input query slice.
    pub queries: Vec<QueryStats>,
    /// Cluster-level execution statistics for the whole batch job.
    pub job: JobStats,
}

/// Bytes shipped when a query trajectory is sent to a worker.
///
/// Priced exactly like [`dita_trajectory::Trajectory::size_bytes`] (id
/// envelope + 16 bytes per point) so search's query broadcast and join's
/// trajectory shipments charge the network model consistently — a
/// trajectory costs the same wherever it travels.
pub fn query_broadcast_bytes(q: &[Point]) -> u64 {
    (std::mem::size_of::<TrajectoryId>() + std::mem::size_of_val(q)) as u64
}

/// Finds all trajectories `T` in the table with `func(T, q) ≤ tau`.
///
/// Returns `(id, distance)` pairs sorted by id, plus execution statistics.
pub fn search(
    system: &DitaSystem,
    q: &[Point],
    tau: f64,
    func: &DistanceFunction,
) -> (Vec<(TrajectoryId, f64)>, SearchStats) {
    let mut scratch = SearchScratch::new();
    search_with_scratch(system, q, tau, func, &mut scratch)
}

/// [`search`] with caller-held scratch: repeated calls (kNN
/// bound tightening, benchmark loops) reuse probe stacks and kernel buffers
/// instead of reallocating them per query. Results are identical.
///
/// A batch of one under the `search` operation span.
pub fn search_with_scratch(
    system: &DitaSystem,
    q: &[Point],
    tau: f64,
    func: &DistanceFunction,
    scratch: &mut SearchScratch,
) -> (Vec<(TrajectoryId, f64)>, SearchStats) {
    let _span = dita_obs::span!(system.obs(), names::SPAN_SEARCH, func = func, tau = tau);
    let (mut results, mut stats) = run_batch(system, &[q], &[tau], func, scratch);
    let results = results.pop().expect("one result list per query");
    let query = stats.queries.pop().expect("one stats entry per query");
    let stats = SearchStats {
        relevant_partitions: query.relevant_partitions,
        candidates: query.candidates,
        results: query.results,
        filter: query.filter,
        verify: query.verify,
        delta_candidates: query.delta_candidates,
        delta_filter: query.delta_filter,
        job: stats.job,
    };
    (results, stats)
}

/// Delta overlay (driver-side): suppresses tombstoned base hits in
/// `results`, then adds matches from the flushed delta segments and the
/// unflushed tails. The segment path reuses the exact trie filter + verify
/// kernels; tail entries are exact-checked one by one (the compaction
/// policy keeps them few). Nothing here runs when the table is clean, so a
/// compacted table searches byte-for-byte like a freshly built one.
///
/// Returns `(delta_candidates, delta_filter, tail_checked, tail_hits)` and
/// adds the overlay's verifications to `verify`.
#[allow(clippy::too_many_arguments)]
fn overlay_deltas(
    system: &DitaSystem,
    q: &[Point],
    q_ctx: &QueryContext,
    tau: f64,
    func: &DistanceFunction,
    results: &mut Vec<(TrajectoryId, f64)>,
    verify: &mut VerifyStats,
    scratch: &mut SearchScratch,
) -> (usize, FilterStats, u64, u64) {
    let deltas = system.deltas();
    let mut delta_filter = FilterStats::default();
    if !deltas.has_deltas() {
        return (0, delta_filter, 0, 0);
    }
    let obs = system.obs();
    let _dspan = dita_obs::span!(obs, names::SPAN_DELTA_OVERLAY);
    let mut delta_candidates = 0usize;
    let mut tail_checked = 0u64;
    let mut tail_hits = 0u64;
    results.retain(|&(id, _)| !deltas.is_base_dead(id));
    let mode = func.index_mode();
    let mut probe = scratch.take_probe();
    for pid in deltas.seg_relevant(&q[0], &q[q.len() - 1], q.len(), tau, mode) {
        let seg = deltas
            .part(pid)
            .seg
            .as_ref()
            .expect("segment-relevant partition has a segment");
        let (cands, fs) = seg
            .trie
            .candidates_with_scratch(q_ctx.points(), tau, func, &mut probe);
        delta_filter.merge(&fs);
        let cands: Vec<u32> = cands
            .into_iter()
            .filter(|&c| !seg.dead.contains(&seg.trie.get(c).id()))
            .collect();
        delta_candidates += cands.len();
        let (hits, vs) = try_verify_candidates(&seg.trie, &cands, q_ctx, tau, func)
            .expect("the candidates come from a probe of this segment's trie");
        results.extend(hits);
        verify.merge(&vs);
    }
    scratch.put_probe(probe);
    let side = q_ctx.side(func);
    for part in deltas.parts() {
        for it in part.tail.values() {
            tail_checked += 1;
            if let Some(d) = verify_views(it.into(), &side, tau, func, &mut scratch.kernel, verify)
            {
                tail_hits += 1;
                results.push((it.traj.id, d));
            }
        }
    }
    delta_candidates += tail_checked as usize;
    (delta_candidates, delta_filter, tail_checked, tail_hits)
}

/// Finds, for every query `queries[i]`, all trajectories within `taus[i]`
/// — answering the whole batch with one cluster job instead of one per
/// query.
///
/// **One task per worker per batch.** Every query's relevant partitions are
/// computed up front; a worker receives a single task carrying every query
/// that reaches it, priced at one broadcast per distinct query — the batch
/// charges the network exactly what the per-query loop would, and pays the
/// executor's hand-off once. Inside the task each query is probed and
/// verified on its own, partition by partition.
///
/// Returns per-query result vectors (each sorted by id, exactly what
/// [`search`] returns for that query alone) plus per-query statistics.
pub fn search_batch(
    system: &DitaSystem,
    queries: &[&[Point]],
    taus: &[f64],
    func: &DistanceFunction,
) -> (Vec<Vec<(TrajectoryId, f64)>>, BatchSearchStats) {
    let mut scratch = SearchScratch::new();
    search_batch_with_scratch(system, queries, taus, func, &mut scratch)
}

/// [`search_batch`] with caller-held scratch (see [`SearchScratch`]).
pub fn search_batch_with_scratch(
    system: &DitaSystem,
    queries: &[&[Point]],
    taus: &[f64],
    func: &DistanceFunction,
    scratch: &mut SearchScratch,
) -> (Vec<Vec<(TrajectoryId, f64)>>, BatchSearchStats) {
    let _span = dita_obs::span!(
        system.obs(),
        names::SPAN_SEARCH_BATCH,
        queries = queries.len(),
        func = func
    );
    run_batch(system, queries, taus, func, scratch)
}

/// The one search implementation. The caller has opened the operation
/// span: the executor captures the driver's current span before handing
/// the queues to its workers, so worker/task spans nest under it.
pub(crate) fn run_batch(
    system: &DitaSystem,
    queries: &[&[Point]],
    taus: &[f64],
    func: &DistanceFunction,
    scratch: &mut SearchScratch,
) -> (Vec<Vec<(TrajectoryId, f64)>>, BatchSearchStats) {
    assert_eq!(queries.len(), taus.len(), "one tau per query");
    for q in queries {
        assert!(!q.is_empty(), "queries must contain at least one point");
    }
    let obs = system.obs();

    // Step 1 (driver): global pruning per query, grouped by worker into
    // `(partition, query index)` pairs plus the worker's broadcast charge.
    //
    // Broadcast accounting: a query is shipped once per *worker* it
    // reaches — not once per partition — because the worker receives one
    // task (one message) covering all of its partitions. Each shipment is
    // priced as a full trajectory record via `query_broadcast_bytes`, the
    // same formula join uses for shipped trajectories, so the two operators
    // charge the network identically, and a batch is charged exactly what
    // the per-query loop would be.
    let ctxs: Vec<QueryContext> = queries
        .iter()
        .map(|q| QueryContext::new(q, system.config().trie.cell_side))
        .collect();
    let mut stats: Vec<QueryStats> = Vec::with_capacity(queries.len());
    let mut by_worker: BTreeMap<usize, (u64, Vec<(usize, u32)>)> = BTreeMap::new();
    for (qi, q) in queries.iter().enumerate() {
        let qi = qi as u32;
        let relevant = system.global().relevant_partitions(
            &q[0],
            &q[q.len() - 1],
            q.len(),
            taus[qi as usize],
            func.index_mode(),
        );
        stats.push(QueryStats {
            relevant_partitions: relevant.len(),
            candidates: 0,
            results: 0,
            filter: FilterStats::default(),
            verify: VerifyStats::default(),
            delta_candidates: 0,
            delta_filter: FilterStats::default(),
        });
        for pid in relevant {
            let (bytes, pairs) = by_worker.entry(system.worker_of(pid)).or_default();
            // A query's pairs are pushed together, so a different last
            // query means this is its first partition on the worker.
            if pairs.last().map(|&(_, last)| last) != Some(qi) {
                *bytes += query_broadcast_bytes(q);
            }
            pairs.push((pid, qi));
        }
    }

    // Step 2 (workers): filter + verify, one task per worker.
    let tasks: Vec<TaskSpec<Vec<(usize, u32)>>> = by_worker
        .into_iter()
        .map(|(worker, (incoming_bytes, mut pairs))| {
            // Partition-major: a partition's arena is brought into cache
            // once for all of the batch's queries that reach it.
            pairs.sort_by_key(|&(pid, _)| pid);
            TaskSpec {
                worker,
                incoming_bytes,
                // A search task scans several partitions; per-partition
                // attribution happens on its filter/verify child spans.
                partition: None,
                payload: pairs,
            }
        })
        .collect();

    let ctxs_ref = &ctxs;
    let scratch_ref: &SearchScratch = scratch;
    let (per_worker, job) = system.cluster().execute_try(tasks, move |_w, pairs| {
        let mut probe = scratch_ref.take_probe();
        let mut out = Vec::with_capacity(pairs.len());
        for (pid, qi) in pairs {
            let trie = system.trie(pid);
            let (q_ctx, tau) = (&ctxs_ref[qi as usize], taus[qi as usize]);
            // The executor opens a `task` span on this thread before calling
            // us, so `filter` and `verify` nest op → worker → task → …
            let (cands, fs) = {
                let _fspan = dita_obs::span!(obs, names::SPAN_FILTER, pid = pid, query = qi);
                trie.candidates_with_scratch(q_ctx.points(), tau, func, &mut probe)
            };
            let _vspan = dita_obs::span!(obs, names::SPAN_VERIFY, pid = pid, query = qi);
            let (hits, vs) = try_verify_candidates(trie, &cands, q_ctx, tau, func)?;
            out.push((qi, fs, vs, hits));
        }
        scratch_ref.put_probe(probe);
        Ok(out)
    });

    // Step 3 (driver): collect per query, then each query's delta overlay,
    // sort and obs accounting.
    let mut results: Vec<Vec<(TrajectoryId, f64)>> = vec![Vec::new(); queries.len()];
    for (qi, fs, vs, hits) in per_worker.into_iter().flatten() {
        let qi = qi as usize;
        stats[qi].candidates += vs.candidates;
        stats[qi].filter.merge(&fs);
        stats[qi].verify.merge(&vs);
        results[qi].extend(hits);
    }
    let deltas = system.deltas();
    for (qi, (hits, st)) in results.iter_mut().zip(&mut stats).enumerate() {
        let (dc, df, tail_checked, tail_hits) = overlay_deltas(
            system,
            queries[qi],
            &ctxs[qi],
            taus[qi],
            func,
            hits,
            &mut st.verify,
            scratch,
        );
        hits.sort_by_key(|&(id, _)| id);
        st.delta_candidates = dc;
        st.delta_filter = df;
        st.results = hits.len();
        if obs.is_enabled() {
            st.filter.funnel(names::FUNNEL_TRIE_FILTER).record(obs);
            st.verify.funnel().record(obs);
            obs.counter(names::SEARCH_QUERIES_TOTAL).inc();
            obs.counter(names::SEARCH_CANDIDATES_TOTAL)
                .add(st.candidates as u64);
            obs.counter(names::SEARCH_RESULTS_TOTAL)
                .add(hits.len() as u64);
            if deltas.has_deltas() {
                let mut funnel = st.delta_filter.funnel(names::FUNNEL_DELTA_FILTER);
                funnel.push_stage(
                    names::STAGE_TAIL_EXACT,
                    tail_checked,
                    tail_checked - tail_hits,
                );
                funnel.record(obs);
            }
        }
    }

    (
        results,
        BatchSearchStats {
            queries: stats,
            job,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::DitaConfig;
    use dita_cluster::{Cluster, ClusterConfig};
    use dita_index::{PivotStrategy, TrieConfig};
    use dita_trajectory::trajectory::figure1_trajectories;
    use dita_trajectory::Dataset;

    fn tiny_system(workers: usize) -> DitaSystem {
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
            Cluster::new(ClusterConfig::with_workers(workers)),
        )
    }

    #[test]
    fn example_2_6_end_to_end() {
        // Q = T1, τ = 3, DTW → {T1, T2}.
        let sys = tiny_system(2);
        let ts = figure1_trajectories();
        let (results, stats) = search(&sys, ts[0].points(), 3.0, &DistanceFunction::Dtw);
        let ids: Vec<u64> = results.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(results[0].1, 0.0);
        assert!(stats.relevant_partitions >= 1);
        assert!(stats.candidates >= 2);
        assert_eq!(stats.results, 2);
    }

    #[test]
    fn search_matches_naive_scan_for_all_functions() {
        let sys = tiny_system(3);
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
                for tau in [0.0, 1.0, 3.0, 6.0] {
                    let (results, _) = search(&sys, q.points(), tau, &f);
                    let expect: Vec<u64> = ts
                        .iter()
                        .filter(|t| f.distance(t.points(), q.points()) <= tau)
                        .map(|t| t.id)
                        .collect();
                    let got: Vec<u64> = results.iter().map(|&(id, _)| id).collect();
                    assert_eq!(got, expect, "{f} Q=T{} tau={tau}", q.id);
                }
            }
        }
    }

    #[test]
    fn distances_in_results_are_exact() {
        let sys = tiny_system(2);
        let ts = figure1_trajectories();
        let (results, _) = search(&sys, ts[1].points(), 5.0, &DistanceFunction::Dtw);
        for (id, d) in results {
            let t = &ts[(id - 1) as usize];
            let expect = dita_distance::dtw(t.points(), ts[1].points());
            assert!((d - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_result_when_nothing_close() {
        let sys = tiny_system(2);
        let q = [Point::new(100.0, 100.0), Point::new(101.0, 100.0)];
        let (results, stats) = search(&sys, &q, 1.0, &DistanceFunction::Dtw);
        assert!(results.is_empty());
        assert_eq!(stats.relevant_partitions, 0);
        assert_eq!(stats.candidates, 0);
    }

    #[test]
    fn single_worker_cluster_works() {
        let sys = tiny_system(1);
        let ts = figure1_trajectories();
        let (results, _) = search(&sys, ts[0].points(), 3.0, &DistanceFunction::Dtw);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn broadcast_charged_once_per_relevant_worker() {
        let sys = tiny_system(2);
        let ts = figure1_trajectories();
        let q = ts[0].points();
        let (_, stats) = search(&sys, q, 3.0, &DistanceFunction::Dtw);
        // Every task is one query broadcast priced as a full trajectory
        // record; no other bytes move during a search.
        let tasks: usize = stats.job.workers.iter().map(|w| w.tasks).sum();
        let bytes: u64 = stats.job.workers.iter().map(|w| w.bytes_received).sum();
        assert!(tasks >= 1);
        assert_eq!(bytes, query_broadcast_bytes(q) * tasks as u64);
    }
}
