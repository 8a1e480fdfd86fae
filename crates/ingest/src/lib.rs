//! Online ingestion for DITA: an LSM-flavored write path over the frozen
//! batch indexes.
//!
//! The paper (§4) builds its global/local indexes once over a static
//! dataset. This crate adds the mutable half: inserts and deletes land in a
//! per-partition **delta** — an unflushed tail (memtable analog) plus an
//! optional flushed mini delta-trie — with **tombstones** shadowing deleted
//! or overwritten base entries. Queries overlay base trie + deltas
//! (candidate union, tombstone suppression) with the same pruning
//! machinery the base index uses; a ratio or an operation count
//! ([`MAX_DELTA_RATIO`], [`MAX_DELTA_OPS`]) decides when the deltas are
//! folded back into rebuilt base tries, and a skew threshold
//! ([`SKEW_THRESHOLD`]) decides when folding escalates to a full STR
//! repartition.
//!
//! The logical dataset at any instant is:
//!
//! ```text
//! (base members − tombstones) ∪ delta inserts        (latest write wins)
//! ```
//!
//! Invariants maintained by [`DeltaSet`]:
//!
//! * every trajectory id has at most one *live* copy (base xor delta);
//! * a tombstone in `base_dead` always refers to an id present in a base
//!   trie; a dead-set entry of a [`DeltaSegment`] always refers to an id
//!   stored in that segment's trie;
//! * segment endpoint MBRs / length bounds cover a superset of the
//!   segment's live members, so segment-level pruning is always sound.
//!
//! The query-side overlay and the cluster wiring (shipment bytes,
//! compaction CPU charge-back) live in `dita-core`; this crate owns the
//! state machine so it can be tested in isolation.

#![warn(missing_docs)]

mod delta;
mod policy;

pub use delta::{DeltaSegment, DeltaSet, FlushJob, PartitionDelta, TOMBSTONE_BYTES};
pub use policy::{CompactionPolicy, IngestStats, MAX_DELTA_OPS, MAX_DELTA_RATIO, SKEW_THRESHOLD};
