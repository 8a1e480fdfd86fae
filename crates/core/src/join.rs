//! Distributed trajectory similarity join (§6).
//!
//! The join between two indexed tables T and Q proceeds as:
//!
//! 1. **Partition bi-graph** — candidate partition pairs `(T_i, Q_j)` are
//!    those whose endpoint MBRs can host a similar pair under the threshold.
//!    Each pair becomes an edge with two weights per direction: `trans`
//!    (bytes that would be shipped) and `comp` (estimated candidate pairs),
//!    the latter estimated by sampling (§6.2).
//! 2. **Graph orientation** — a greedy approximation picks each edge's
//!    direction to minimize the bottleneck total cost
//!    `TC_global = max_P (λ·NC_P + CC_P)`; exact minimization is NP-hard
//!    (graph balancing).
//! 3. **Division-based load balancing** (§6.3) — partitions whose total cost
//!    exceeds the 98th-percentile cost are replicated and their incoming
//!    edges spread across the replicas (placed on distinct workers), which
//!    is what defeats stragglers in Figure 16.
//! 4. **Local joins** — for each oriented edge, the source's relevant
//!    trajectories are shipped to the destination's worker and probed
//!    against the destination's trie index, verifying on the fly.
//!
//! **Self-joins.** When both sides are the same [`DitaSystem`] the bi-graph
//! is its own mirror image — `(T_i, Q_j)` and `(T_j, Q_i)` hold the same
//! rows — and every supported distance is symmetric to the bit (the DP
//! tables of `(a, b)` and `(b, a)` are transposes built from the same
//! operands in the same order). So the plan keeps only the partition pairs
//! `i ≤ j`, the local join emits every verified pair in both orders, and on
//! a diagonal edge (`i == j`, one trie on both sides) a shipped row leaves
//! the candidates before it to those rows' own probes and answers itself
//! with `0.0`. Planning, shipping and verification run on half the graph;
//! the result is the two-table path's, triple for triple.
//!
//! **One candidate generator.** Every edge, diagonal or not, and every
//! replica slot hands its shipped rows to
//! [`TrieIndex::probe_rows`](dita_index::TrieIndex::probe_rows): the
//! destination trie is walked once per leaf of shipped rows, not once per
//! row, and on a diagonal edge the pairs `c < sid` are never tested.

use crate::feedback::CostFeedback;
use crate::system::DitaSystem;
use crate::verify::{verify_views, CandidateView, QuerySide, VerifyStats};
use dita_cluster::JobStats;
use dita_distance::function::IndexMode;
use dita_distance::kernel::Scratch;
use dita_distance::DistanceFunction;
use dita_index::{FanOut, FilterStats, ProbeScratch};
use dita_obs::names;
use dita_trajectory::TrajectoryId;
use std::time::Duration;

/// Which load-balancing stages to apply — the knob behind the Figure 16
/// ablation ("Naive" = none).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BalanceStrategy {
    /// No cost-based optimization: edges run T→Q on Q's worker as-is.
    None,
    /// Greedy graph orientation only.
    Orientation,
    /// Orientation plus division-based replication (the full DITA).
    #[default]
    Full,
}

/// Host parallelism — the default for [`JoinOptions::plan_threads`].
fn default_plan_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Join tuning knobs.
#[derive(Debug, Clone)]
pub struct JoinOptions {
    /// Load-balancing strategy.
    pub balance: BalanceStrategy,
    /// Trajectories sampled per edge to estimate `comp` (§6.2).
    pub sample_size: usize,
    /// Average seconds to verify one candidate pair (`Δ` in λ = 1/(Δ·B)).
    pub delta_sec: f64,
    /// Percentile defining the division threshold `TC_p` (§6.3 uses 0.98).
    pub division_percentile: f64,
    /// Threads used to weigh bi-graph edges during planning; 1 plans
    /// serially on the driver thread. Edge order and weights are identical
    /// for every thread count.
    pub plan_threads: usize,
    /// Observed per-node costs from a previous run (see
    /// [`JoinStats::feedback`]). When set, every edge's sampled compute
    /// estimate is multiplied by the destination node's
    /// observed/predicted ratio before orientation and division balancing
    /// consume it, so a partition the sample underpriced gets replicated
    /// the next time around. Plans change; results never do.
    pub observed_costs: Option<CostFeedback>,
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions {
            balance: BalanceStrategy::Full,
            sample_size: 16,
            delta_sec: 2e-6,
            division_percentile: 0.98,
            plan_threads: default_plan_threads(),
            observed_costs: None,
        }
    }
}

/// Statistics of one join execution.
///
/// A self-join (both sides the same [`DitaSystem`]) plans and runs the
/// `i ≤ j` half of its symmetric bi-graph: `edges`, `forward_edges`,
/// `edges_weighed`, `shipped_bytes`, `candidates` and `predicted_tc_global`
/// describe that half, `results` the full answer.
#[derive(Debug, Clone)]
pub struct JoinStats {
    /// Edges in the partition bi-graph (a self-join: partition pairs
    /// `i ≤ j` only).
    pub edges: usize,
    /// Edges oriented T→Q after the greedy pass.
    pub forward_edges: usize,
    /// Total bytes shipped between workers (a self-join ships each
    /// off-diagonal partition pair once, not once per order).
    pub shipped_bytes: u64,
    /// Candidate pairs examined by local joins. A self-join examines each
    /// unordered pair once and counts it once, `(a, a)` included, so this
    /// can be below `results`, which counts both orders.
    pub candidates: usize,
    /// The local joins' trie-filter funnel, summed over every edge and
    /// replica slot, in [`dita_index::TrieIndex::probe_rows`]' units: a
    /// node test is one rectangle test for a whole leaf of shipped rows, a
    /// member test one (shipped row, stored member) pair.
    /// `filter.candidates() == candidates`.
    pub filter: FilterStats,
    /// What verification made of those candidates, stage by stage. A
    /// self-join answers `(a, a)` without verifying it, so
    /// `verify.candidates` can be below `candidates`.
    pub verify: VerifyStats,
    /// Result pair count.
    pub results: usize,
    /// Partition replicas created by division balancing.
    pub replicas: usize,
    /// The predicted bottleneck cost after optimization (in candidate-pair
    /// equivalents).
    pub predicted_tc_global: f64,
    /// Wall-clock seconds spent planning: bi-graph construction, edge
    /// weighting, orientation and division balancing.
    pub plan_secs: f64,
    /// CPU seconds burned by plan helper threads (zero when
    /// [`JoinOptions::plan_threads`] ≤ 1). Planning runs on the driver,
    /// outside any cluster task, so this cost is reported here instead of
    /// being charged to a worker's compute account.
    pub plan_cpu_secs: f64,
    /// Bi-graph partition pairs that passed the compatibility check and had
    /// their edge weights computed (a superset of `edges`: pairs whose
    /// shipped sets both come back empty are dropped).
    pub edges_weighed: usize,
    /// Per-node predicted vs. observed costs from this run — feed it back
    /// through [`JoinOptions::observed_costs`] to replan with measured
    /// reality instead of sampled guesses.
    pub feedback: CostFeedback,
    /// Cluster execution statistics.
    pub job: JobStats,
}

#[derive(Debug)]
struct Edge {
    t_pid: usize,
    q_pid: usize,
    /// Local ids of T-partition trajectories relevant to Q_j.
    ship_t: Vec<u32>,
    /// Local ids of Q-partition trajectories relevant to T_i.
    ship_q: Vec<u32>,
    trans_t2q: f64,
    comp_t2q: f64,
    trans_q2t: f64,
    comp_q2t: f64,
    /// `true` = T→Q (ship T's rows to Q's worker).
    forward: bool,
}

/// Joins two indexed tables: all pairs `(t, q)` with `func(t, q) ≤ tau`.
///
/// Returns `(t_id, q_id, distance)` triples sorted lexicographically, plus
/// execution statistics.
///
/// When either table carries unmerged deltas, the base-index join is
/// overlaid: pairs with a tombstoned side are dropped, and each delta-side
/// row is joined via a broadcast [`crate::search`] against the opposite
/// table (whose own overlay handles its tombstones and deltas). Distances
/// are byte-identical to a join over from-scratch rebuilds because every
/// supported distance function is exactly symmetric in IEEE arithmetic.
/// [`JoinStats`] reflects the base-index pass; delta-side probes account
/// their work through the search metrics.
///
/// # Panics
/// Panics if the two systems live on clusters of different sizes.
pub fn join(
    t_sys: &DitaSystem,
    q_sys: &DitaSystem,
    tau: f64,
    func: &DistanceFunction,
    opts: &JoinOptions,
) -> (Vec<(TrajectoryId, TrajectoryId, f64)>, JoinStats) {
    let (pairs, mut stats) = join_base(t_sys, q_sys, tau, func, opts);
    let td = t_sys.deltas();
    let qd = q_sys.deltas();
    if (!td.has_deltas() && !qd.has_deltas()) || tau < 0.0 {
        return (pairs, stats);
    }
    let _span = t_sys.obs().span(names::SPAN_JOIN_DELTA_OVERLAY);
    let mut merged: std::collections::BTreeMap<(TrajectoryId, TrajectoryId), f64> = pairs
        .into_iter()
        .filter(|&(t, q, _)| !td.is_base_dead(t) && !qd.is_base_dead(q))
        .map(|(t, q, d)| ((t, q), d))
        .collect();
    // Delta rows on the T side probe the whole Q table, and vice versa; a
    // delta×delta pair is found by both loops with the exact same distance
    // (symmetry), so the map insert is idempotent. In a self-join the two
    // loops are the same searches: run them once and mirror the hits.
    let self_join = std::ptr::eq(t_sys, q_sys);
    t_sys.for_each_delta_live(|t| {
        let (hits, _) = crate::search::search(q_sys, t.points(), tau, func);
        for (qid, d) in hits {
            merged.insert((t.id, qid), d);
            if self_join {
                merged.insert((qid, t.id), d);
            }
        }
    });
    if !self_join {
        q_sys.for_each_delta_live(|q| {
            let (hits, _) = crate::search::search(t_sys, q.points(), tau, func);
            for (tid, d) in hits {
                merged.insert((tid, q.id), d);
            }
        });
    }
    let results: Vec<(TrajectoryId, TrajectoryId, f64)> =
        merged.into_iter().map(|((t, q), d)| (t, q, d)).collect();
    stats.results = results.len();
    (results, stats)
}

/// The base-index join: the four-stage pipeline over the frozen tries,
/// blind to delta state.
fn join_base(
    t_sys: &DitaSystem,
    q_sys: &DitaSystem,
    tau: f64,
    func: &DistanceFunction,
    opts: &JoinOptions,
) -> (Vec<(TrajectoryId, TrajectoryId, f64)>, JoinStats) {
    assert_eq!(
        t_sys.cluster().num_workers(),
        q_sys.cluster().num_workers(),
        "both tables must live on the same cluster"
    );
    let cluster = t_sys.cluster();
    let mode = func.index_mode();
    let lambda = cluster.network().lambda(opts.delta_sec);

    // Top-level operation span; the executor parents the dynamic-schedule
    // and worker spans under it.
    let obs = t_sys.obs();
    let _join_span = dita_obs::span!(obs, names::SPAN_JOIN, func = func, tau = tau);

    // --- 1. Build the bi-graph ---
    let plan_start = std::time::Instant::now();
    let (mut edges, edges_weighed, plan_helper_cpu) = {
        let _span = obs.span(names::SPAN_BUILD_EDGES);
        build_edges(t_sys, q_sys, tau, mode, func, opts)
    };

    // --- 2. Orient ---
    let orient_span = obs.span(names::SPAN_ORIENT);
    match opts.balance {
        BalanceStrategy::None => {
            for e in &mut edges {
                e.forward = true;
            }
        }
        BalanceStrategy::Orientation | BalanceStrategy::Full => {
            orient(
                &mut edges,
                t_sys.num_partitions(),
                q_sys.num_partitions(),
                lambda,
            );
        }
    }
    let forward_edges = edges.iter().filter(|e| e.forward).count();

    // --- 3. Division balancing: split each destination's incoming work
    //        into one or more replica slots ---
    let (replica_counts, replicas, predicted) = assign_replicas(
        &edges,
        t_sys,
        q_sys,
        lambda,
        matches!(opts.balance, BalanceStrategy::Full),
        opts.division_percentile,
    );
    drop(orient_span);
    let plan_secs = plan_start.elapsed().as_secs_f64();
    let plan_cpu_secs = plan_helper_cpu.as_secs_f64();

    // --- 4. Local joins: one task per destination replica slot, scheduled
    //        dynamically (Spark-style) onto the cluster ---
    let nt = t_sys.num_partitions();
    let home = |node: usize| -> usize {
        if node < nt {
            t_sys.worker_of(node)
        } else {
            q_sys.worker_of(node - nt)
        }
    };
    let node_index_bytes = |node: usize| -> u64 {
        if node < nt {
            t_sys.trie(node).size_bytes() as u64
        } else {
            q_sys.trie(node - nt).size_bytes() as u64
        }
    };
    // Each destination with r replica slots receives every incoming edge's
    // shipped set *striped* over the slots (slot s gets trajectories
    // s, s+r, s+2r, ...), which is how the paper's division splits a single
    // huge partition-pair workload.
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (ei, e) in edges.iter().enumerate() {
        let dst = if e.forward { nt + e.q_pid } else { e.t_pid };
        for slot in 0..replica_counts[dst] {
            groups.entry((dst, slot)).or_default().push(ei);
        }
    }
    let edges_ref = &edges;
    let replica_counts_ref = &replica_counts;
    let tasks: Vec<dita_cluster::DynTaskSpec<(usize, Vec<usize>)>> = groups
        .into_iter()
        .map(|((dst, slot), eis)| {
            let nslots = replica_counts_ref[dst];
            let shipped: f64 = eis
                .iter()
                .map(|&ei| {
                    let e = &edges_ref[ei];
                    let t = if e.forward { e.trans_t2q } else { e.trans_q2t };
                    t / nslots as f64
                })
                .sum();
            dita_cluster::DynTaskSpec {
                shipped_bytes: shipped as u64,
                home: Some(home(dst)),
                home_data_bytes: node_index_bytes(dst),
                partition: Some(dst),
                payload: (slot, eis),
            }
        })
        .collect();

    let self_join = std::ptr::eq(t_sys, q_sys);
    let self_is_zero = self_distance_is_zero(func);
    let (outputs, job) = cluster.execute_dynamic(tasks, move |(slot, eis): (usize, Vec<usize>)| {
        let mut filter = FilterStats::default();
        let mut stages = VerifyStats::default();
        let mut pairs: Vec<(TrajectoryId, TrajectoryId, f64)> = Vec::new();
        let mut scratch = Scratch::new();
        // One probe state, one list of this slot's rows and one filter →
        // verify buffer for every edge this task runs.
        let mut probe = ProbeScratch::new();
        let mut rows: Vec<u32> = Vec::new();
        let mut cands: Vec<(u32, u32)> = Vec::new();
        for ei in eis {
            // Nested under the executor's worker task span.
            let e = &edges_ref[ei];
            let (src_sys, dst_sys, src_pid, dst_pid, shipped) = if e.forward {
                (t_sys, q_sys, e.t_pid, e.q_pid, &e.ship_t)
            } else {
                (q_sys, t_sys, e.q_pid, e.t_pid, &e.ship_q)
            };
            let _espan = dita_obs::span!(obs, names::SPAN_LOCAL_JOIN, pid = dst_pid);
            let dst_node = if e.forward { nt + e.q_pid } else { e.t_pid };
            let nslots = replica_counts_ref[dst_node];
            let src_trie = src_sys.trie(src_pid);
            let dst_trie = dst_sys.trie(dst_pid);
            // One trie on both sides (`probe_rows` sees it is): row `c`
            // probes it too and finds `(c, sid)` itself, so `sid` is only
            // paired with `c ≥ sid`. This holds per replica slot (every
            // shipped row is probed by exactly one) and for a `c` that is
            // not shipped (it has no partner here).
            let diagonal = self_join && src_pid == dst_pid;
            // Filter stage: probe the destination trie with this slot's
            // shipped rows, buffering the pairs so the verify stage gets
            // its own span (mirroring the search task's filter → verify
            // split for the critical-path analyzer).
            rows.clear();
            rows.extend(shipped.iter().skip(slot).step_by(nslots.max(1)));
            cands.clear();
            {
                let _fspan = dita_obs::span!(obs, names::SPAN_FILTER, pid = dst_pid);
                filter.merge(&dst_trie.probe_rows(
                    src_trie,
                    &rows,
                    tau,
                    func,
                    &mut probe,
                    |sid, c| cands.push((sid, c)),
                ));
            }
            let _vspan = dita_obs::span!(obs, names::SPAN_VERIFY, pid = dst_pid);
            // The pairs arrive grouped by (leaf of shipped rows, node), a
            // row's next to each other: the shipped row's clustered-index
            // artifacts (MBR, coordinates) are the query, read in place and
            // prepared once per stretch.
            for stretch in cands.chunk_by(|a, b| a.0 == b.0) {
                let sid = stretch[0].0;
                let s = CandidateView::from(src_trie.get(sid));
                let side = QuerySide::new(s.mbr, s.soa, func);
                for &(_, c) in stretch {
                    if diagonal && c == sid && self_is_zero {
                        pairs.push((s.id, s.id, 0.0));
                        continue;
                    }
                    let d = CandidateView::from(dst_trie.get(c));
                    if let Some(dist) = verify_views(d, &side, tau, func, &mut scratch, &mut stages)
                    {
                        let (t, q) = if e.forward {
                            (s.id, d.id)
                        } else {
                            (d.id, s.id)
                        };
                        pairs.push((t, q, dist));
                        // The mirror edge was never planned: its answer is
                        // this one transposed, same bits.
                        if self_join && t != q {
                            pairs.push((q, t, dist));
                        }
                    }
                }
            }
        }
        (filter, stages, pairs)
    });

    // Close the planning loop: per destination node, pair the compute the
    // plan predicted (under the chosen orientation) with what the cluster
    // measured. Task outputs and `job.task_costs` are both in submission
    // order, and every join task carries its destination node as the
    // partition attribution.
    let mut feedback = CostFeedback::new();
    for e in &edges {
        let (node, comp) = if e.forward {
            (nt + e.q_pid, e.comp_t2q)
        } else {
            (e.t_pid, e.comp_q2t)
        };
        let prior = feedback.node(node).map_or(0.0, |o| o.predicted_comp);
        feedback.set_predicted(node, prior + comp);
    }
    let mut filter = FilterStats::default();
    let mut verify = VerifyStats::default();
    let mut results: Vec<(TrajectoryId, TrajectoryId, f64)> = Vec::new();
    for ((task_filter, stages, pairs), cost) in outputs.into_iter().zip(&job.task_costs) {
        if let Some(node) = cost.partition {
            let pairs = task_filter.candidates() as f64;
            feedback.observe(node, pairs, cost.compute_sec, cost.bytes);
        }
        filter.merge(&task_filter);
        verify.merge(&stages);
        results.extend(pairs);
    }
    results.sort_by_key(|a| (a.0, a.1));
    let candidates = filter.candidates();

    let shipped_bytes: u64 = edges
        .iter()
        .map(|e| {
            if e.forward {
                e.trans_t2q as u64
            } else {
                e.trans_q2t as u64
            }
        })
        .sum();
    if obs.is_enabled() {
        obs.counter(names::JOIN_SHIPPED_BYTES_TOTAL)
            .add(shipped_bytes);
        obs.counter(names::JOIN_CANDIDATES_TOTAL)
            .add(candidates as u64);
        obs.counter(names::JOIN_RESULTS_TOTAL)
            .add(results.len() as u64);
        filter.funnel(names::FUNNEL_TRIE_FILTER).record(obs);
        verify.funnel().record(obs);
        obs.gauge(names::JOIN_REPLICAS).set(replicas as f64);
        obs.histogram_seconds(names::JOIN_PLAN_SECONDS)
            .observe(plan_secs);
        obs.counter(names::JOIN_EDGES_WEIGHTED_TOTAL)
            .add(edges_weighed as u64);
    }
    let stats = JoinStats {
        edges: edges.len(),
        forward_edges,
        shipped_bytes,
        candidates,
        filter,
        verify,
        results: results.len(),
        replicas,
        predicted_tc_global: predicted,
        plan_secs,
        plan_cpu_secs,
        edges_weighed,
        feedback,
        job,
    };
    (results, stats)
}

/// Builds the candidate partition pairs and their edge weights, on
/// [`JoinOptions::plan_threads`] threads. Returns the edges, the number of
/// compatible pairs weighed, and the CPU time burned by helper threads.
///
/// A self-join (`t_sys` and `q_sys` the same system) keeps only the pairs
/// `t_pid ≤ q_pid`: the dropped half is the kept half transposed, and the
/// local join emits both orders of what it verifies.
///
/// The cheap MBR compatibility screen runs serially (it is O(1) per pair);
/// the expensive part — `relevant_members` scans and `estimate_comp` trie
/// probes per surviving pair — fans out over `opts.plan_threads` in pair
/// order with one [`ProbeScratch`] a chunk, so the edge list is identical
/// for every thread count.
fn build_edges(
    t_sys: &DitaSystem,
    q_sys: &DitaSystem,
    tau: f64,
    mode: IndexMode,
    func: &DistanceFunction,
    opts: &JoinOptions,
) -> (Vec<Edge>, usize, Duration) {
    if tau < 0.0 {
        return (Vec::new(), 0, Duration::ZERO);
    }
    // In a self-join, T-partition p and Q-partition p are the same physical
    // data under two node ids.
    let self_join = std::ptr::eq(t_sys, q_sys);
    // --- Compatibility screen (serial, O(1) per pair) ---
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for tp in &t_sys.partitioning().partitions {
        for qp in &q_sys.partitioning().partitions {
            if self_join && tp.id > qp.id {
                continue;
            }
            let df = tp.mbr_first.min_dist_mbr(&qp.mbr_first);
            let dl = tp.mbr_last.min_dist_mbr(&qp.mbr_last);
            if mode.endpoints_admit(df, dl, tp.min_len, qp.min_len, tau) {
                pairs.push((tp.id, qp.id));
            }
        }
    }
    let weighed = pairs.len();

    // --- Edge weighting (parallel across pairs) ---
    let nt = t_sys.num_partitions();
    let weigh = |probe: &mut ProbeScratch, &(t_pid, q_pid): &(usize, usize)| -> Option<Edge> {
        let tp = &t_sys.partitioning().partitions[t_pid];
        let qp = &q_sys.partitioning().partitions[q_pid];
        // One partition on both sides: both directions ship the same rows
        // to the same trie, so one scan and one sample weigh both.
        let diagonal = self_join && t_pid == q_pid;
        // Exact shipped sets via the opposite side's global index MBRs
        // (the paper's "check whether T has candidates in Q_j by
        // querying the global index of Q").
        let ship_t = relevant_members(
            t_sys,
            t_pid,
            &qp.mbr_first,
            &qp.mbr_last,
            qp.min_len,
            tau,
            mode,
        );
        let ship_q = if diagonal {
            ship_t.clone()
        } else {
            relevant_members(
                q_sys,
                q_pid,
                &tp.mbr_first,
                &tp.mbr_last,
                tp.min_len,
                tau,
                mode,
            )
        };
        if ship_t.is_empty() && ship_q.is_empty() {
            return None;
        }
        let trans_t2q = shipped_bytes(t_sys, t_pid, &ship_t);
        let mut comp_t2q = estimate_comp(
            t_sys, t_pid, &ship_t, q_sys, q_pid, diagonal, tau, func, opts, probe,
        );
        let (trans_q2t, mut comp_q2t) = if diagonal {
            (trans_t2q, comp_t2q)
        } else {
            (
                shipped_bytes(q_sys, q_pid, &ship_q),
                estimate_comp(
                    q_sys, q_pid, &ship_q, t_sys, t_pid, false, tau, func, opts, probe,
                ),
            )
        };
        // Observed-cost correction: scale each direction's sampled
        // estimate by its *destination* node's measured ratio (T→Q
        // computes on Q_j = node nt + q_pid, Q→T on T_i = node t_pid).
        // Self-joins pool each partition's two node ids, or orientation
        // sidesteps an inflated destination via its mirror.
        if let Some(fb) = &opts.observed_costs {
            if self_join {
                comp_t2q *= fb.comp_factor_pooled(&[q_pid, nt + q_pid], opts.delta_sec);
                comp_q2t *= fb.comp_factor_pooled(&[t_pid, nt + t_pid], opts.delta_sec);
            } else {
                comp_t2q *= fb.comp_factor(nt + q_pid, opts.delta_sec);
                comp_q2t *= fb.comp_factor(t_pid, opts.delta_sec);
            }
        }
        Some(Edge {
            t_pid,
            q_pid,
            ship_t,
            ship_q,
            trans_t2q,
            comp_t2q,
            trans_q2t,
            comp_q2t,
            forward: true,
        })
    };

    let fan = FanOut::new(opts.plan_threads);
    // One probe a chunk of pairs: its buffers grow once (≈ 4 µs an edge).
    let edges = fan
        .map_init(&pairs, ProbeScratch::new, weigh)
        .into_iter()
        .flatten()
        .collect();
    (edges, weighed, fan.helper_cpu())
}

/// Local ids in `sys`'s partition `pid` whose endpoints are compatible with
/// the opposite partition's endpoint MBRs. `other_min_len` is the shortest
/// trajectory on the opposite side (two 1-point DTW sides share one cell).
fn relevant_members(
    sys: &DitaSystem,
    pid: usize,
    other_first: &dita_trajectory::Mbr,
    other_last: &dita_trajectory::Mbr,
    other_min_len: usize,
    tau: f64,
    mode: IndexMode,
) -> Vec<u32> {
    let trie = sys.trie(pid);
    (0..trie.len() as u32)
        .filter(|&i| {
            let t = trie.get(i);
            let df = other_first.min_dist_point(&t.first());
            let dl = other_last.min_dist_point(&t.last());
            mode.endpoints_admit(df, dl, t.len(), other_min_len, tau)
        })
        .collect()
}

fn shipped_bytes(sys: &DitaSystem, pid: usize, ids: &[u32]) -> f64 {
    let trie = sys.trie(pid);
    ids.iter().map(|&i| trie.get(i).size_bytes() as f64).sum()
}

/// Positions sampled from a list of `len` entries when `sample_size` probes
/// are allowed: `k * len / sample` for `k in 0..sample`, which is strictly
/// increasing and spreads evenly across the whole list including the tail
/// (a plain `k * (len / sample)` stride never reaches the last
/// `len % sample` entries).
fn sample_indices(len: usize, sample_size: usize) -> impl Iterator<Item = usize> {
    let sample = sample_size.max(1).min(len);
    (0..sample).map(move |k| k * len / sample)
}

/// Whether `func(a, a)` is `+0.0` for every stored trajectory `a` — the
/// licence for answering a self-join's `(a, a)` without the kernel (pinned
/// by `tests/join_symmetry.rs`). Stored coordinates are finite, so every
/// point is at distance zero of itself: the diagonal alignment costs
/// nothing and no alignment costs less. EDR and LCSS only match a point
/// with itself when `ϵ ≥ 0`, and a non-finite ERP gap poisons the DP's
/// minima; those keep the kernel call.
fn self_distance_is_zero(func: &DistanceFunction) -> bool {
    match *func {
        DistanceFunction::Dtw | DistanceFunction::Frechet => true,
        DistanceFunction::Edr { eps } | DistanceFunction::Lcss { eps, .. } => eps >= 0.0,
        DistanceFunction::Erp { gap } => gap.0.is_finite() && gap.1.is_finite(),
    }
}

/// Estimates the candidate-pair count for shipping `ids` from `src` to
/// `dst` by probing the destination trie with a sample (§6.2). On a
/// self-join's `diagonal` edge a sampled row counts what the local join
/// will examine for it — itself and the candidates after it — so
/// [`CostFeedback`]'s predicted and observed pairs stay comparable.
#[allow(clippy::too_many_arguments)]
fn estimate_comp(
    src: &DitaSystem,
    src_pid: usize,
    ids: &[u32],
    dst: &DitaSystem,
    dst_pid: usize,
    diagonal: bool,
    tau: f64,
    func: &DistanceFunction,
    opts: &JoinOptions,
    probe: &mut ProbeScratch,
) -> f64 {
    if ids.is_empty() {
        return 0.0;
    }
    let src_trie = src.trie(src_pid);
    let dst_trie = dst.trie(dst_pid);
    let mut total = 0usize;
    let mut taken = 0usize;
    for k in sample_indices(ids.len(), opts.sample_size) {
        // The row's coordinates are the query, read in place.
        let from = if diagonal { ids[k] } else { 0 };
        let row = src_trie.get(ids[k]).soa();
        dst_trie.probe_soa(row, tau, func, probe, |c| total += (c >= from) as usize);
        taken += 1;
    }
    total as f64 / taken as f64 * ids.len() as f64
}

/// Greedy orientation (§6.2): initialize each edge to its cheaper direction,
/// then repeatedly flip the most profitable edge incident to the bottleneck
/// node until `TC_global` stops improving.
fn orient(edges: &mut [Edge], nt: usize, nq: usize, lambda: f64) {
    let n = nt + nq;
    // Node id: T_i → i, Q_j → nt + j.
    let mut nc = vec![0.0f64; n];
    let mut cc = vec![0.0f64; n];

    // Adds (`sign` 1) or removes (−1) what `e` costs its two nodes when it
    // runs `forward` — the edge's own direction, or a trial flip of it.
    let apply = |e: &Edge, forward: bool, sign: f64, nc: &mut [f64], cc: &mut [f64]| {
        if forward {
            nc[e.t_pid] += sign * e.trans_t2q;
            cc[nt + e.q_pid] += sign * e.comp_t2q;
        } else {
            nc[nt + e.q_pid] += sign * e.trans_q2t;
            cc[e.t_pid] += sign * e.comp_q2t;
        }
    };

    for e in edges.iter_mut() {
        e.forward = lambda * e.trans_t2q + e.comp_t2q <= lambda * e.trans_q2t + e.comp_q2t;
    }
    for e in edges.iter() {
        apply(e, e.forward, 1.0, &mut nc, &mut cc);
    }

    let tc = |i: usize, nc: &[f64], cc: &[f64]| lambda * nc[i] + cc[i];
    let global = |nc: &[f64], cc: &[f64]| (0..n).map(|i| tc(i, nc, cc)).fold(0.0f64, f64::max);

    let mut best_global = global(&nc, &cc);
    for _ in 0..edges.len().max(8) * 2 {
        // Find the bottleneck node.
        let bottleneck = (0..n)
            .max_by(|&a, &b| tc(a, &nc, &cc).total_cmp(&tc(b, &nc, &cc)))
            .unwrap();
        // Try flipping each incident edge; keep the best improvement.
        let mut best: Option<(usize, f64)> = None;
        for (ei, e) in edges.iter().enumerate() {
            let incident = e.t_pid == bottleneck || nt + e.q_pid == bottleneck;
            if !incident {
                continue;
            }
            apply(e, e.forward, -1.0, &mut nc, &mut cc);
            apply(e, !e.forward, 1.0, &mut nc, &mut cc);
            let g = global(&nc, &cc);
            // Undo.
            apply(e, !e.forward, -1.0, &mut nc, &mut cc);
            apply(e, e.forward, 1.0, &mut nc, &mut cc);
            if g < best_global - 1e-12 && best.is_none_or(|(_, bg)| g < bg) {
                best = Some((ei, g));
            }
        }
        match best {
            Some((ei, g)) => {
                let e = &mut edges[ei];
                apply(e, e.forward, -1.0, &mut nc, &mut cc);
                e.forward = !e.forward;
                apply(e, e.forward, 1.0, &mut nc, &mut cc);
                best_global = g;
            }
            None => break,
        }
    }
}

/// Assigns each edge to a replica slot of its destination node (§6.3).
///
/// Every destination starts with one slot; when division balancing is on,
/// nodes whose total cost exceeds the percentile threshold get
/// `ceil(TC / TC_p)` slots; the caller stripes each incoming edge's shipped
/// trajectories over the slots — producing several smaller tasks the
/// dynamic scheduler can spread over workers. Returns `(replica counts per
/// node, extra replicas created, predicted TC_global)`.
fn assign_replicas(
    edges: &[Edge],
    t_sys: &DitaSystem,
    q_sys: &DitaSystem,
    lambda: f64,
    divide: bool,
    percentile: f64,
) -> (Vec<usize>, usize, f64) {
    let nt = t_sys.num_partitions();
    let nq = q_sys.num_partitions();
    let n = nt + nq;
    let workers = t_sys.cluster().num_workers();

    // Total cost per destination node under the chosen orientation.
    let mut tc = vec![0.0f64; n];
    for e in edges {
        if e.forward {
            tc[nt + e.q_pid] += lambda * e.trans_t2q + e.comp_t2q;
        } else {
            tc[e.t_pid] += lambda * e.trans_q2t + e.comp_q2t;
        }
    }
    let predicted = tc.iter().copied().fold(0.0f64, f64::max);

    let mut replica_counts = vec![1usize; n];
    let mut total_replicas = 0usize;
    if divide {
        let mut busy: Vec<f64> = tc.iter().copied().filter(|&c| c > 0.0).collect();
        busy.sort_by(f64::total_cmp);
        if !busy.is_empty() {
            // Floor-indexed percentile so that, even with few partitions,
            // the heaviest node sits *above* the threshold and is divided.
            let idx = (((busy.len() - 1) as f64) * percentile).floor() as usize;
            let tc_p = busy[idx.min(busy.len().saturating_sub(2))].max(1e-12);
            for (node, &c) in tc.iter().enumerate() {
                // 10% slack keeps near-balanced loads from spawning useless
                // replicas (each replica may cost one index shipment).
                if c > tc_p * 1.1 {
                    let r = ((c / tc_p).ceil() as usize).clamp(2, workers.max(2));
                    replica_counts[node] = r;
                    total_replicas += r - 1;
                }
            }
        }
    }

    (replica_counts, total_replicas, predicted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{DitaConfig, DitaSystem};
    use dita_cluster::{Cluster, ClusterConfig};
    use dita_index::{PivotStrategy, TrieConfig};
    use dita_trajectory::trajectory::figure1_trajectories;
    use dita_trajectory::Dataset;

    fn tiny_config() -> DitaConfig {
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
        }
    }

    fn fig1_system(workers: usize) -> DitaSystem {
        let dataset = Dataset::new("fig1", figure1_trajectories()).unwrap();
        DitaSystem::build(
            &dataset,
            tiny_config(),
            Cluster::new(ClusterConfig::with_workers(workers)),
        )
    }

    fn ground_truth(tau: f64, f: &DistanceFunction) -> Vec<(u64, u64, f64)> {
        let ts = figure1_trajectories();
        let mut out = Vec::new();
        for a in &ts {
            for b in &ts {
                let d = f.distance(a.points(), b.points());
                if d <= tau {
                    out.push((a.id, b.id, d));
                }
            }
        }
        out.sort_by_key(|a| (a.0, a.1));
        out
    }

    #[test]
    fn self_join_matches_nested_loop() {
        let t = fig1_system(2);
        let q = fig1_system(2);
        for tau in [0.0, 1.0, 3.0, 6.0] {
            let (results, stats) =
                join(&t, &q, tau, &DistanceFunction::Dtw, &JoinOptions::default());
            let expect = ground_truth(tau, &DistanceFunction::Dtw);
            let got: Vec<(u64, u64)> = results.iter().map(|&(a, b, _)| (a, b)).collect();
            let want: Vec<(u64, u64)> = expect.iter().map(|&(a, b, _)| (a, b)).collect();
            assert_eq!(got, want, "tau={tau}");
            assert!(stats.results == results.len());
        }
    }

    #[test]
    fn join_matches_for_all_functions_and_strategies() {
        let t = fig1_system(3);
        let q = fig1_system(3);
        let fns = [
            DistanceFunction::Dtw,
            DistanceFunction::Frechet,
            DistanceFunction::Edr { eps: 1.0 },
            DistanceFunction::Lcss { eps: 1.0, delta: 2 },
            DistanceFunction::Erp { gap: (0.0, 0.0) },
        ];
        for f in fns {
            let expect: Vec<(u64, u64)> = ground_truth(2.0, &f)
                .iter()
                .map(|&(a, b, _)| (a, b))
                .collect();
            for balance in [
                BalanceStrategy::None,
                BalanceStrategy::Orientation,
                BalanceStrategy::Full,
            ] {
                let opts = JoinOptions {
                    balance,
                    ..JoinOptions::default()
                };
                let (results, _) = join(&t, &q, 2.0, &f, &opts);
                let got: Vec<(u64, u64)> = results.iter().map(|&(a, b, _)| (a, b)).collect();
                assert_eq!(got, expect, "{f} balance={balance:?}");
            }
        }
    }

    #[test]
    fn join_distances_are_exact() {
        let t = fig1_system(2);
        let q = fig1_system(2);
        let (results, _) = join(&t, &q, 4.0, &DistanceFunction::Dtw, &JoinOptions::default());
        let ts = figure1_trajectories();
        for (a, b, d) in results {
            let expect =
                dita_distance::dtw(ts[(a - 1) as usize].points(), ts[(b - 1) as usize].points());
            assert!((d - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn negative_tau_empty() {
        let t = fig1_system(2);
        let q = fig1_system(2);
        let (results, stats) = join(
            &t,
            &q,
            -1.0,
            &DistanceFunction::Dtw,
            &JoinOptions::default(),
        );
        assert!(results.is_empty());
        assert_eq!(stats.edges, 0);
    }

    #[test]
    fn orientation_never_worsens_predicted_bottleneck() {
        let t = fig1_system(2);
        let q = fig1_system(2);
        let none = JoinOptions {
            balance: BalanceStrategy::None,
            ..JoinOptions::default()
        };
        let orient = JoinOptions {
            balance: BalanceStrategy::Orientation,
            ..JoinOptions::default()
        };
        let (_, s_none) = join(&t, &q, 3.0, &DistanceFunction::Dtw, &none);
        let (_, s_orient) = join(&t, &q, 3.0, &DistanceFunction::Dtw, &orient);
        assert!(s_orient.predicted_tc_global <= s_none.predicted_tc_global + 1e-9);
    }

    #[test]
    fn sample_indices_cover_whole_list_evenly() {
        let take = |len, sample| sample_indices(len, sample).collect::<Vec<_>>();
        // Pinned: the old `len / sample` stride gave [0, 2, 4, 6] for
        // (10, 4), never looking past index 6; the even formula reaches
        // the tail.
        assert_eq!(take(10, 4), vec![0, 2, 5, 7]);
        assert_eq!(take(7, 3), vec![0, 2, 4]);
        // Sample >= len degenerates to the identity.
        assert_eq!(take(3, 16), vec![0, 1, 2]);
        assert_eq!(take(1, 1), vec![0]);
        // Strictly increasing and in range for a spread of shapes.
        for len in 1..40usize {
            for sample in 1..20usize {
                let idx = take(len, sample);
                assert_eq!(idx.len(), sample.min(len));
                assert!(idx.windows(2).all(|w| w[0] < w[1]), "{len} {sample}");
                assert!(*idx.last().unwrap() < len);
                // The last sampled index lands in the final stride-sized
                // chunk, i.e. the tail is represented.
                assert!(*idx.last().unwrap() >= len - len.div_ceil(sample.min(len)));
            }
        }
    }

    #[test]
    fn join_records_cost_feedback() {
        let t = fig1_system(2);
        let q = fig1_system(2);
        let (_, stats) = join(&t, &q, 3.0, &DistanceFunction::Dtw, &JoinOptions::default());
        assert!(!stats.feedback.is_empty());
        // Every task attributes its candidates to a destination node, so
        // the per-node observations add back up to the job total.
        let pairs: f64 = stats.feedback.iter().map(|(_, o)| o.observed_pairs).sum();
        assert_eq!(pairs as usize, stats.candidates);
        // Predictions were recorded for the nodes that received work.
        assert!(stats
            .feedback
            .iter()
            .any(|(_, o)| o.predicted_comp > 0.0 && o.tasks > 0));
    }

    #[test]
    fn observed_costs_change_the_plan_not_the_results() {
        let t = fig1_system(3);
        let q = fig1_system(3);
        let (r_base, s_base) = join(&t, &q, 3.0, &DistanceFunction::Dtw, &JoinOptions::default());
        // A store claiming every node massively underpredicted: all comps
        // scale by the clamp maximum, so the predicted bottleneck must
        // rise — while the result set stays bit-identical.
        let mut fb = CostFeedback::new();
        for node in 0..t.num_partitions() + q.num_partitions() {
            fb.set_predicted(node, 1.0);
            fb.observe(node, 1e9, 0.0, 0);
        }
        let opts = JoinOptions {
            observed_costs: Some(fb),
            ..JoinOptions::default()
        };
        let (r_fb, s_fb) = join(&t, &q, 3.0, &DistanceFunction::Dtw, &opts);
        assert_eq!(r_base, r_fb);
        assert!(s_fb.predicted_tc_global > s_base.predicted_tc_global);
    }

    #[test]
    fn plan_threads_do_not_change_join_results() {
        let t = fig1_system(2);
        let q = fig1_system(2);
        let serial = JoinOptions {
            plan_threads: 1,
            ..JoinOptions::default()
        };
        let par = JoinOptions {
            plan_threads: 4,
            ..JoinOptions::default()
        };
        for f in [DistanceFunction::Dtw, DistanceFunction::Frechet] {
            let (r1, s1) = join(&t, &q, 2.0, &f, &serial);
            let (r4, s4) = join(&t, &q, 2.0, &f, &par);
            assert_eq!(r1, r4, "{f}");
            assert_eq!(s1.edges, s4.edges, "{f}");
            assert_eq!(s1.edges_weighed, s4.edges_weighed, "{f}");
            assert!(s1.edges_weighed >= s1.edges, "{f}");
        }
    }
}
