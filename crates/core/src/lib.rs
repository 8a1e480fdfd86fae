//! DITA core: the distributed trajectory analytics system (§3, §5, §6).
//!
//! This crate assembles the substrates — partitioning, the global dual
//! R-tree index, the trie local indexes and the simulated cluster — into the
//! system the paper describes:
//!
//! * [`DitaSystem`] — an indexed, partitioned, worker-placed trajectory
//!   table (the result of `CREATE INDEX ... USE TRIE`).
//! * [`search()`] — distributed threshold similarity search (§5): global
//!   pruning on the driver, trie filtering and verification on the workers.
//! * [`join()`] — distributed similarity join (§6): a sampled bi-graph cost
//!   model, greedy graph orientation, division-based load balancing, then
//!   edge-wise local joins.
//! * [`verify`] — the verification pipeline of §5.3.3: MBR coverage filter →
//!   point-to-MBR bound → band-pruned SoA threshold kernels, serially on
//!   the worker task's thread.
//! * [`knn`] — k-nearest-neighbor search and join (the paper's §8 future
//!   work), by exact radius expansion over the threshold machinery.
//! * [`feedback`] — observed-cost feedback: a finished join records each
//!   destination node's predicted vs. observed costs; the next plan
//!   consumes them via [`JoinOptions::observed_costs`].
//! * [`ingest`] — the online write path: inserts/deletes land in
//!   per-partition deltas (`dita-ingest`), queries overlay base + deltas
//!   with tombstone suppression, and compaction folds deltas back into
//!   rebuilt base tries.

#![warn(missing_docs)]

pub mod feedback;
pub mod ingest;
pub mod join;
pub mod knn;
pub mod search;
pub mod system;
pub mod verify;

pub use dita_ingest::{CompactionPolicy, IngestStats};
pub use feedback::{price_query, CostFeedback, NodeObservation};
pub use join::{join, BalanceStrategy, JoinOptions, JoinStats};
pub use knn::{knn_batch, knn_join, knn_search, knn_search_with_scratch, KnnStats};
pub use search::{
    query_broadcast_bytes, search, search_batch, search_batch_with_scratch, search_with_scratch,
    BatchSearchStats, QueryStats, SearchScratch, SearchStats,
};
pub use system::{BuildStats, DitaConfig, DitaSystem};
pub use verify::{
    try_verify_candidates, verify_candidates, verify_pair, verify_pair_soa, QueryContext,
    VerifyStats,
};
