//! DITA indexing (§4): pivot selection, STR partitioning, the global dual
//! R-tree index and the trie-like local index.
//!
//! * [`pivot`] — the three pivot-point selection strategies of §4.1.2.
//! * [`partitioner`] — first/last-point STR partitioning (§4.2.1) plus the
//!   random partitioner used as the Appendix-B ablation baseline.
//! * [`global`] — the global index: one R-tree over first-point MBRs, one
//!   over last-point MBRs (§4.2.2, §5.2).
//! * [`trie`] — the (K+2)-level trie local index with the accumulated-budget
//!   filter and the ordered-suffix optimization (§4.2.3, §5.3).
//! * [`fanout`] — the ordered parallel map the build and planning paths
//!   share, with the helper-thread CPU time the cost model charges.
//! * [`flat`] — the succinct flat encoding the trie is stored in: a
//!   fixed-width node arena whose records address children and members as
//!   ranges, plus trajectory storage pooled in the tree's leaf order.
//! * [`pointer`] — the reference pointer-rich trie encoding, kept for parity
//!   tests and memory-density comparisons.

#![warn(missing_docs)]

pub mod fanout;
pub mod flat;
pub mod global;
pub mod partitioner;
pub mod pivot;
pub mod pointer;
pub mod trie;

pub use fanout::FanOut;
pub use flat::{EntryRef, FlatNodes, NodeRec, TrajStore};
pub use global::GlobalIndex;
pub use partitioner::{
    random_partitioning, str_partitioning, str_partitioning_par, Partition, Partitioning,
};
pub use pivot::{select_pivots, PivotStrategy};
pub use pointer::PointerTrie;
pub use trie::{
    BatchProbeScratch, FilterStats, IndexedTrajectory, ProbeScratch, TrieConfig, TrieIndex,
};
