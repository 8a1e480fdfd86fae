//! What the benchmark measures, and with which fixed settings.
//!
//! `BENCHMARK.json` at the repository root repeats the workload and metric
//! tables below for the driver; `tests/contract.rs` keeps the two in step.

/// One workload: its name and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "search_filter",
        why: "short taxi trips, tight threshold: global R-trees, trie probe and per-job executor spawn dominate, kernels idle",
    },
    Workload {
        name: "search_verify",
        why: "long GPS tracks, loose threshold: hundreds of candidates per query, so the DP kernels and verify dominate",
    },
    Workload {
        name: "join_self",
        why: "the paper's headline self-join: planning, orientation, balancing, shipment pricing, then local joins",
    },
    Workload {
        name: "serve_mixed",
        why: "search_filter's kind of reads through HTTP, SQL batches, the scheduler and the ingest overlay, with writes beside them",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric. `bound` is the share of the parent's median by
/// which the metric may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// `--repeat` compares two sets of this metric by their difference,
    /// not by the difference's share of the smaller: the metric is itself
    /// a share close to 1, where the driver's relative reading of `bound`
    /// and this absolute one agree.
    pub absolute: bool,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        absolute: false,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        absolute: false,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        absolute: false,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        absolute: false,
    },
    EndToEnd {
        name: "slo_met_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.01,
        absolute: true,
    },
    EndToEnd {
        name: "makespan_model_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        absolute: false,
    },
    EndToEnd {
        name: "cpu_s_per_kop",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        absolute: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
        absolute: false,
    },
];

/// A per-layer metric of the traced run. `exact` marks counts that must
/// repeat bit-for-bit for one seed on the three library workloads.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 58] = [
    layer("index.partition_ms", "ms", Lower, false),
    layer("index.global_build_ms", "ms", Lower, false),
    layer("index.trie_build_ms", "ms", Lower, false),
    layer("index.bytes_per_traj", "B", Lower, true),
    layer("index.global_probe_us", "us", Lower, false),
    layer("index.relevant_partitions_per_op", "count", Lower, true),
    layer("index.trie_probe_us", "us", Lower, false),
    layer("index.nodes_visited_per_op", "count", Lower, true),
    layer("index.members_checked_per_op", "count", Lower, true),
    layer("index.candidates_per_op", "count", Lower, true),
    layer("index.batch_probe_us_per_query", "us", Lower, false),
    layer("index.filter_precision", "share", Higher, true),
    layer("distance.kernel_ns_per_pair", "ns", Lower, false),
    layer("distance.nominal_cells_per_op", "count", Lower, true),
    layer("core.verify_us_per_op", "us", Lower, false),
    layer("core.verified_pairs_per_s", "1/s", Higher, false),
    layer("core.search_us", "us", Lower, false),
    layer("core.search_self_us", "us", Lower, false),
    layer("core.knn_us", "us", Lower, false),
    layer("core.join_plan_ms", "ms", Lower, false),
    layer("core.join_exec_ms", "ms", Lower, false),
    layer("core.join_edges", "count", Lower, true),
    layer("core.join_replicas", "count", Lower, true),
    layer("core.join_candidates_per_result", "count", Lower, true),
    layer("core.delta_candidates_per_op", "count", Lower, false),
    layer("cluster.execute_overhead_us", "us", Lower, false),
    layer("cluster.shipped_bytes_per_op", "B", Lower, true),
    layer("cluster.network_model_ms_per_op", "ms", Lower, false),
    layer("cluster.load_ratio", "share", Lower, false),
    layer("cluster.scheduler_submit_us", "us", Lower, false),
    layer("cluster.scheduler_next_batch_us", "us", Lower, false),
    layer("cluster.mean_batch_size", "count", Higher, false),
    layer("cluster.shed_total", "count", Lower, false),
    layer("ingest.insert_us_per_row", "us", Lower, false),
    layer("ingest.flush_ms", "ms", Lower, false),
    layer("ingest.compact_ms", "ms", Lower, false),
    layer("ingest.compactions", "count", Lower, true),
    layer("ingest.delta_ratio_end", "share", Lower, false),
    layer("sql.parse_us", "us", Lower, false),
    layer("sql.plan_us", "us", Lower, false),
    layer("sql.execute_batch_us_per_stmt", "us", Lower, false),
    layer("server.search_p50_ms", "ms", Lower, false),
    layer("server.knn_p50_ms", "ms", Lower, false),
    layer("server.sql_p50_ms", "ms", Lower, false),
    layer("server.insert_p50_ms", "ms", Lower, false),
    layer("server.flush_p50_ms", "ms", Lower, false),
    layer("server.compact_p50_ms", "ms", Lower, false),
    layer("server.frontdoor_overhead_us", "us", Lower, false),
    layer("server.http_roundtrip_us", "us", Lower, false),
    layer("server.json_decode_us", "us", Lower, false),
    layer("server.wire_encode_us", "us", Lower, false),
    layer("server.bytes_in_per_op", "B", Lower, false),
    layer("server.bytes_out_per_op", "B", Lower, false),
    layer("obs.overhead_share", "share", Lower, false),
    layer("host.spin_ms", "ms", Lower, false),
    layer("host.spin_pair_ms", "ms", Lower, false),
    layer("harness.round_spread_share", "share", Lower, false),
    layer("harness.trace_overhead_share", "share", Lower, false),
];

// ---- the system under test, fixed ----

/// `ClusterConfig::with_workers(WORKERS)` everywhere.
pub const WORKERS: usize = 4;
/// `ServerConfig { http_workers: HTTP_WORKERS, ..default }`.
pub const HTTP_WORKERS: usize = 2;
/// Closed-loop HTTP clients, one keep-alive connection each (= `nproc` of
/// the reference host). Library workloads use one driver thread.
pub const CLIENTS: usize = 2;

// ---- the shape of a run ----

/// Measured rounds per run; every round replays the same operation list.
pub const ROUNDS: usize = 5;
/// The `--seconds` the frozen operation counts below were sized for on the
/// reference host (five rounds of three and a half to four and a half
/// seconds, as the host's speed wanders); `BENCHMARK.json`'s
/// `run_seconds`. Another `--seconds` scales the cycles of a round in
/// proportion, by arithmetic alone: no count follows a clock.
pub const RUN_SECONDS: f64 = 20.0;
/// Queries of the warm-up round checked against a brute-force scan.
pub const ORACLE_QUERIES: usize = 50;
/// Queries (operations) the layer probes of the traced run replay.
pub const PROBE_OPS: usize = 200;
/// Iterations of the fixed arithmetic loop timed before each round.
pub const SPIN_ITERS: u64 = 10_000_000;

/// Seed of the fixed cities the tables are drawn from (the paper's year
/// and venue: SIGMOD, June 2018).
pub const CITY_SEED: u64 = 201_806;

// ---- workload sizes (multiplied by `--scale`), frozen operation counts
//      and latency limits ----

/// A search workload's fixed inputs.
pub struct SearchSpec {
    pub rows: usize,
    /// Queries of one cycle; a cycle is the workload's whole operation list.
    pub queries: usize,
    pub tau: f64,
    /// Cycles of one measured round at [`RUN_SECONDS`].
    pub cycles_per_round: usize,
    /// Timed builds before each round (the round runs on the last);
    /// `setup_s` is the median of every build of the run.
    pub setups_per_round: usize,
    /// Latency limit of one search, ms (about 5x the reference p90).
    pub limit_ms: f64,
}

pub const SEARCH_FILTER: SearchSpec = SearchSpec {
    rows: 200_000,
    queries: 1_100,
    tau: 0.03,
    cycles_per_round: 2,
    setups_per_round: 1,
    limit_ms: 20.0,
};

pub const SEARCH_VERIFY: SearchSpec = SearchSpec {
    rows: 40_000,
    queries: 650,
    tau: 5.0,
    cycles_per_round: 2,
    setups_per_round: 1,
    limit_ms: 30.0,
};

pub const JOIN_ROWS: usize = 30_000;
pub const JOIN_TAU: f64 = 0.003;
/// Joins of one measured round at [`RUN_SECONDS`] (a cycle is one join).
pub const JOIN_CYCLES_PER_ROUND: usize = 40;
/// Timed builds before each round; a build of this table is short.
pub const JOIN_SETUPS_PER_ROUND: usize = 3;
pub const JOIN_LIMIT_MS: f64 = 600.0;
/// Rows of the small table whose whole self-join is checked against
/// `dita_baselines::NaiveSystem::join`.
pub const JOIN_NAIVE_ROWS: usize = 1_500;
/// Rows of the measured table whose join partners are checked by a scan.
pub const JOIN_SCAN_ROWS: usize = 40;

pub const SERVE_ROWS: usize = 100_000;
pub const SERVE_QUERIES: usize = 1_000;
/// `search_filter`'s threshold, on a table of the same city.
pub const SERVE_TAU: f64 = SEARCH_FILTER.tau;
pub const SERVE_KNN_K: usize = 10;
/// Statements per `/sql` request (the `execute_batch`/`search_batch` path).
pub const SERVE_SQL_BATCH: usize = 8;
/// Benchmark-inserted rows each client holds live (256 over both). They
/// are written before the first round, so every round alternates
/// `/insert` with `/delete` of the client's oldest row.
pub const SERVE_LIVE_PER_CLIENT: usize = 128;
/// A client's eighth read is a `/knn` in every this-many-th cycle, a
/// `/search` otherwise. One kNN costs about forty searches and its cost has
/// a long tail (coefficient of variation near 2), so at one per cycle the
/// few hundred kNN queries a run can afford would decide its throughput.
pub const SERVE_KNN_EVERY: u64 = 16;
/// Ten-request cycles each client sends in one stretch. Client 0 ends its
/// stretch with `/compact`; a stretch is the workload's cycle.
pub const SERVE_CYCLES_PER_STRETCH: usize = 100;
/// Client 0 sends `/flush` after this many of its own cycles (one write
/// each, so about every 40 writes over both clients): the stated flush
/// policy, with the compaction that ends each stretch.
pub const SERVE_FLUSH_EVERY: usize = 20;
/// Cycles of the warm-up stretch each fresh server is given.
pub const SERVE_WARM_UP_CYCLES: usize = 8;
/// Stretches of one measured round at [`RUN_SECONDS`].
pub const SERVE_STRETCHES_PER_ROUND: usize = 1;
/// Distinct jittered trajectories the writes draw from.
pub const SERVE_WRITE_POOL: usize = 512;
/// Ids of benchmark-inserted rows start here, above every base id.
pub const SERVE_INSERT_BASE: u64 = 1_000_000_000;
// Latency limits per request kind, ms: about five times the reference p90
// of the kind. One dispatcher thread executes every request, so a request
// can queue behind a `/knn` or a compaction; those few miss.
pub const SERVE_LIMIT_SEARCH_MS: f64 = 30.0;
pub const SERVE_LIMIT_KNN_MS: f64 = 150.0;
pub const SERVE_LIMIT_SQL_MS: f64 = 75.0;
/// `/insert`, `/delete` and `/flush`.
pub const SERVE_LIMIT_WRITE_MS: f64 = 50.0;
pub const SERVE_LIMIT_COMPACT_MS: f64 = 1_000.0;
/// Queries replayed after the final `/flush` and compared byte for byte
/// with a system rebuilt from the base table plus the surviving inserts.
pub const SERVE_FINAL_PROBES: usize = 100;
