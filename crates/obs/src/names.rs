//! The central registry of observability names.
//!
//! Every metric, span, funnel and funnel-stage name used anywhere in the
//! workspace is declared here — and **only** here. Call sites reference
//! these consts instead of spelling the string inline, which gives the
//! workspace three guarantees:
//!
//! 1. a name cannot drift between two call sites (the compiler resolves
//!    both to the same const);
//! 2. `dita-lint` rule `obs-names` (L3) can verify that every name used in
//!    code is documented in `OBSERVABILITY.md` and vice versa — an
//!    undocumented metric or an orphaned doc row fails the lint gate;
//! 3. renaming a metric is one edit plus a doc edit, checked by machine.
//!
//! Naming conventions: metrics follow Prometheus style
//! (`dita_<noun>_<unit-or-total>`); spans are short lowercase verbs or
//! hyphenated phases; funnel stages are `<level>-<filter>`.

// ---------------------------------------------------------------------------
// Cluster executor metrics (per-worker labels).
// ---------------------------------------------------------------------------

/// Tasks executed, labeled by worker.
pub const TASKS_TOTAL: &str = "dita_tasks_total";
/// Task attempts beyond the first, labeled by worker.
pub const TASK_RETRIES_TOTAL: &str = "dita_task_retries_total";
/// Bytes received by a worker, labeled by worker.
pub const NETWORK_BYTES_TOTAL: &str = "dita_network_bytes_total";
/// Simulated shipment time per task, labeled by worker.
pub const TASK_NETWORK_SECONDS: &str = "dita_task_network_seconds";
/// Measured CPU time per task, labeled by worker.
pub const TASK_COMPUTE_SECONDS: &str = "dita_task_compute_seconds";
/// Dynamically scheduled tasks (joins).
pub const DYN_TASKS_TOTAL: &str = "dita_dyn_tasks_total";
/// Bytes the dynamic schedule priced.
pub const DYN_SCHEDULED_BYTES_TOTAL: &str = "dita_dyn_scheduled_bytes_total";
/// Per-job barrier wait (makespan minus a worker's busy time), labeled by
/// worker — the straggler gap the critical-path analyzer attributes.
pub const WORKER_WAIT_SECONDS: &str = "dita_worker_wait_seconds";

// ---------------------------------------------------------------------------
// Funnel mirror metrics (labeled by funnel and stage).
// ---------------------------------------------------------------------------

/// Items entering a filter stage.
pub const FUNNEL_ENTERED_TOTAL: &str = "dita_funnel_entered_total";
/// Items pruned at a filter stage.
pub const FUNNEL_PRUNED_TOTAL: &str = "dita_funnel_pruned_total";

// ---------------------------------------------------------------------------
// Operator metrics.
// ---------------------------------------------------------------------------

/// Searches executed.
pub const SEARCH_QUERIES_TOTAL: &str = "dita_search_queries_total";
/// Trie filter survivors handed to verification.
pub const SEARCH_CANDIDATES_TOTAL: &str = "dita_search_candidates_total";
/// Final search answers.
pub const SEARCH_RESULTS_TOTAL: &str = "dita_search_results_total";
/// Bytes shipped by join edges.
pub const JOIN_SHIPPED_BYTES_TOTAL: &str = "dita_join_shipped_bytes_total";
/// Candidate pairs examined by local joins.
pub const JOIN_CANDIDATES_TOTAL: &str = "dita_join_candidates_total";
/// Join result pairs.
pub const JOIN_RESULTS_TOTAL: &str = "dita_join_results_total";
/// Replica slots created by division balancing.
pub const JOIN_REPLICAS: &str = "dita_join_replicas";
/// Join planning wall time (edge weighting + orientation).
pub const JOIN_PLAN_SECONDS: &str = "dita_join_plan_seconds";
/// Compatible partition pairs weighed during planning.
pub const JOIN_EDGES_WEIGHTED_TOTAL: &str = "dita_join_edges_weighted_total";
/// Wall time per partition trie build (initial build and compaction
/// rebuilds).
pub const INDEX_BUILD_SECONDS: &str = "dita_index_build_seconds";
/// Resident bytes of the local index structures (flat node arenas and
/// store metadata; trajectory payload excluded), summed over
/// all partition tries. Refreshed after index build and after compaction.
pub const INDEX_BYTES: &str = "dita_index_bytes";

// ---------------------------------------------------------------------------
// Query scheduler metrics.
// ---------------------------------------------------------------------------

/// Queries waiting in the scheduler's bounded admission queue, sampled on
/// every submit and batch formation.
pub const QUERY_QUEUE_DEPTH: &str = "dita_query_queue_depth";
/// Seconds a query waited between admission and batch formation.
pub const ADMISSION_WAIT_SECONDS: &str = "dita_admission_wait_seconds";
/// Queries rejected at admission (queue full or over cost budget).
pub const QUERIES_SHED_TOTAL: &str = "dita_queries_shed_total";
/// Queries whose cancellation token fired before execution; their queue
/// and worker slots are reclaimed.
pub const QUERIES_CANCELLED_TOTAL: &str = "dita_queries_cancelled_total";
/// Batches formed by fair-share batch formation.
pub const BATCHES_FORMED_TOTAL: &str = "dita_batches_formed_total";
/// Queries dispatched inside formed batches.
pub const BATCHED_QUERIES_TOTAL: &str = "dita_batched_queries_total";

// ---------------------------------------------------------------------------
// Query-service (dita-server) metrics.
// ---------------------------------------------------------------------------

/// HTTP requests served, labeled by endpoint and status code.
pub const SERVER_REQUESTS_TOTAL: &str = "dita_server_requests_total";
/// End-to-end request wall time (parse → admission → execution →
/// response written), labeled by endpoint.
pub const SERVER_REQUEST_SECONDS: &str = "dita_server_request_seconds";
/// Requests currently inside the server (parsed, response not yet
/// written) — queued requests included, so it bounds service memory.
pub const SERVER_INFLIGHT_REQUESTS: &str = "dita_server_inflight_requests";
/// Accepted connections the sized worker pool refused because its
/// hand-off queue was full (answered 503 and closed).
pub const SERVER_CONNECTIONS_REFUSED_TOTAL: &str = "dita_server_connections_refused_total";

// ---------------------------------------------------------------------------
// Ranked-lock metrics (labeled by lock; names from `crate::sync::locks`).
// ---------------------------------------------------------------------------

/// Seconds spent blocked acquiring a contended lock, labeled by lock —
/// lock-convoy wait time made critpath-visible instead of disappearing
/// into makespan.
pub const LOCK_WAIT_SECONDS: &str = "dita_lock_wait_seconds";
/// Acquisitions that found the lock held and had to block, labeled by
/// lock.
pub const LOCK_CONTENDED_TOTAL: &str = "dita_lock_contended_total";

// ---------------------------------------------------------------------------
// Ingestion metrics.
// ---------------------------------------------------------------------------

/// Applied ingestion operations, labeled by op (`insert` | `delete`).
pub const INGEST_APPLIED_TOTAL: &str = "dita_ingest_applied_total";
/// Pending delta work over logical table size; reset to 0 by compaction.
pub const DELTA_RATIO: &str = "dita_delta_ratio";
/// Total wall time per compaction.
pub const COMPACTION_SECONDS: &str = "dita_compaction_seconds";

// ---------------------------------------------------------------------------
// Span names. Spans are `&'static str` by API contract.
// ---------------------------------------------------------------------------

/// Driver-side search operation span.
pub const SPAN_SEARCH: &str = "search";
/// Per-worker execution span under an operation.
pub const SPAN_WORKER: &str = "worker";
/// Per-task execution span under a worker.
pub const SPAN_TASK: &str = "task";
/// Trie candidate generation inside a search task.
pub const SPAN_FILTER: &str = "filter";
/// MBR coverage, point-to-MBR bound and kernel verification inside a
/// search task.
pub const SPAN_VERIFY: &str = "verify";
/// Driver-side join operation span.
pub const SPAN_JOIN: &str = "join";
/// Join bi-graph construction + sampling.
pub const SPAN_BUILD_EDGES: &str = "build-edges";
/// Join greedy orientation + division.
pub const SPAN_ORIENT: &str = "orient";
/// Dynamic scheduling + physical run of join tasks.
pub const SPAN_EXECUTE_DYNAMIC: &str = "execute_dynamic";
/// Per-task local join work.
pub const SPAN_LOCAL_JOIN: &str = "local-join";
/// Driver-side kNN operation span (one `search` child per radius probe).
pub const SPAN_KNN: &str = "knn";
/// Driver-side batched-search operation span: one job — one task per
/// worker — for a whole query batch. The `filter`/`verify` spans under its
/// tasks are per query and carry a `query=` label.
pub const SPAN_SEARCH_BATCH: &str = "search-batch";
/// Driver-side batched-kNN operation span (one `search-batch` child per
/// radius round over the still-active queries).
pub const SPAN_KNN_BATCH: &str = "knn-batch";
/// One trie build per partition, inside a build task.
pub const SPAN_INDEX_BUILD: &str = "index-build";
/// One ingestion operation (insert/delete/flush).
pub const SPAN_INGEST: &str = "ingest";
/// One mini delta-trie build per partition, inside a flush task.
pub const SPAN_SEGMENT_BUILD: &str = "segment-build";
/// Driver-side compaction span.
pub const SPAN_COMPACT: &str = "compact";
/// Delta-side probe of an overlaid search.
pub const SPAN_DELTA_OVERLAY: &str = "delta-overlay";
/// Delta-row re-search pass of a join.
pub const SPAN_JOIN_DELTA_OVERLAY: &str = "join-delta-overlay";
/// One dispatched service request (or one shared batch of them) executed
/// by `dita-server`'s dispatcher; the operator spans (`search-batch`,
/// `knn-batch`, `join`, `ingest`, …) nest underneath, so critical-path
/// analysis attributes service overhead separately from operator work.
pub const SPAN_SERVER_REQUEST: &str = "server-request";

// ---------------------------------------------------------------------------
// Funnel and funnel-stage names.
// ---------------------------------------------------------------------------

/// The base trie's four-stage pruning funnel.
pub const FUNNEL_TRIE_FILTER: &str = "trie-filter";
/// The delta segments' mirror of the trie funnel.
pub const FUNNEL_DELTA_FILTER: &str = "delta-filter";
/// Node-level EDR length-interval filter.
pub const STAGE_NODE_LENGTH: &str = "node-length";
/// Node-level MinDist budget cascade.
pub const STAGE_NODE_BUDGET: &str = "node-budget";
/// Leaf-level length filter.
pub const STAGE_LEAF_LENGTH: &str = "leaf-length";
/// Leaf-level OPAMD bound (Lemma 5.1).
pub const STAGE_LEAF_OPAMD: &str = "leaf-opamd";
/// Exact kernel checks over the unflushed delta tails.
pub const STAGE_TAIL_EXACT: &str = "tail-exact";
/// Verification's funnel: what became of every candidate a search
/// verified (base tries, delta segments and tails).
pub const FUNNEL_VERIFY: &str = "verify-stages";
/// MBR coverage (Lemma 5.4); DTW and Fréchet only.
pub const STAGE_VERIFY_COVERAGE: &str = "verify-coverage";
/// The function's linear bound: point-to-MBR in both directions for DTW
/// and Fréchet, length for EDR, magnitude for ERP.
pub const STAGE_VERIFY_BOUND: &str = "verify-bound";
/// The thresholded distance kernel; its survivors are the answers.
pub const STAGE_VERIFY_KERNEL: &str = "verify-kernel";

/// Every metric name declared in this module, for registry-level checks.
pub const ALL_METRICS: &[&str] = &[
    TASKS_TOTAL,
    TASK_RETRIES_TOTAL,
    NETWORK_BYTES_TOTAL,
    TASK_NETWORK_SECONDS,
    TASK_COMPUTE_SECONDS,
    DYN_TASKS_TOTAL,
    DYN_SCHEDULED_BYTES_TOTAL,
    WORKER_WAIT_SECONDS,
    FUNNEL_ENTERED_TOTAL,
    FUNNEL_PRUNED_TOTAL,
    SEARCH_QUERIES_TOTAL,
    SEARCH_CANDIDATES_TOTAL,
    SEARCH_RESULTS_TOTAL,
    JOIN_SHIPPED_BYTES_TOTAL,
    JOIN_CANDIDATES_TOTAL,
    JOIN_RESULTS_TOTAL,
    JOIN_REPLICAS,
    JOIN_PLAN_SECONDS,
    JOIN_EDGES_WEIGHTED_TOTAL,
    INDEX_BUILD_SECONDS,
    INDEX_BYTES,
    QUERY_QUEUE_DEPTH,
    ADMISSION_WAIT_SECONDS,
    QUERIES_SHED_TOTAL,
    QUERIES_CANCELLED_TOTAL,
    BATCHES_FORMED_TOTAL,
    BATCHED_QUERIES_TOTAL,
    SERVER_REQUESTS_TOTAL,
    SERVER_REQUEST_SECONDS,
    SERVER_INFLIGHT_REQUESTS,
    SERVER_CONNECTIONS_REFUSED_TOTAL,
    LOCK_WAIT_SECONDS,
    LOCK_CONTENDED_TOTAL,
    INGEST_APPLIED_TOTAL,
    DELTA_RATIO,
    COMPACTION_SECONDS,
];

/// Every span name declared in this module.
pub const ALL_SPANS: &[&str] = &[
    SPAN_SEARCH,
    SPAN_WORKER,
    SPAN_TASK,
    SPAN_FILTER,
    SPAN_VERIFY,
    SPAN_JOIN,
    SPAN_BUILD_EDGES,
    SPAN_ORIENT,
    SPAN_EXECUTE_DYNAMIC,
    SPAN_LOCAL_JOIN,
    SPAN_KNN,
    SPAN_SEARCH_BATCH,
    SPAN_KNN_BATCH,
    SPAN_INDEX_BUILD,
    SPAN_INGEST,
    SPAN_SEGMENT_BUILD,
    SPAN_COMPACT,
    SPAN_DELTA_OVERLAY,
    SPAN_JOIN_DELTA_OVERLAY,
    SPAN_SERVER_REQUEST,
];

/// Every funnel and funnel-stage name declared in this module.
pub const ALL_FUNNEL_NAMES: &[&str] = &[
    FUNNEL_TRIE_FILTER,
    FUNNEL_DELTA_FILTER,
    STAGE_NODE_LENGTH,
    STAGE_NODE_BUDGET,
    STAGE_LEAF_LENGTH,
    STAGE_LEAF_OPAMD,
    STAGE_TAIL_EXACT,
    FUNNEL_VERIFY,
    STAGE_VERIFY_COVERAGE,
    STAGE_VERIFY_BOUND,
    STAGE_VERIFY_KERNEL,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_duplicate_names_within_a_kind() {
        for set in [ALL_METRICS, ALL_SPANS, ALL_FUNNEL_NAMES] {
            let mut seen = std::collections::BTreeSet::new();
            for n in set {
                assert!(seen.insert(*n), "duplicate registered name: {n}");
            }
        }
    }

    #[test]
    fn metric_names_follow_prometheus_style() {
        for n in ALL_METRICS {
            assert!(n.starts_with("dita_"), "metric {n} missing dita_ prefix");
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "metric {n} has non [a-z_] characters"
            );
        }
    }
}
