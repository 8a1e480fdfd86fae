//! Compaction triggers and ingestion counters.

/// Compaction folds the deltas once `(delta inserts + tombstones) /
/// logical size` exceeds this share.
pub const MAX_DELTA_RATIO: f64 = 0.10;

/// Compaction folds the deltas once this many insert/delete operations
/// have been applied since the last compaction.
pub const MAX_DELTA_OPS: u64 = 4096;

/// After a fold, a full STR repartition runs when
/// [`dita_index::Partitioning::skew`] (max/avg member count) exceeds this:
/// the first/last-point distribution has drifted enough that the original
/// tiling no longer balances.
pub const SKEW_THRESHOLD: f64 = 4.0;

/// When the background merge folds deltas into the base index: whichever
/// of [`MAX_DELTA_RATIO`] and [`MAX_DELTA_OPS`] trips first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// When `true` (the default), `insert`/`delete` transparently run the
    /// fold as soon as a trigger trips — the "background" merge of an
    /// LSM tree, made synchronous for determinism. When `false`, only
    /// explicit `compact()` calls fold.
    pub auto: bool,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy { auto: true }
    }
}

impl CompactionPolicy {
    /// `true` when the policy is `auto` and the pending delta state trips
    /// a trigger.
    pub fn should_compact(
        &self,
        delta_live: usize,
        tombstones: usize,
        logical_len: usize,
        ops: u64,
    ) -> bool {
        if !self.auto || ops == 0 {
            return false;
        }
        if ops >= MAX_DELTA_OPS {
            return true;
        }
        let pending = (delta_live + tombstones) as f64;
        pending > MAX_DELTA_RATIO * logical_len.max(1) as f64
    }
}

/// Monotonic counters over the life of one ingestion state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Insert operations applied (including overwrites).
    pub inserts: u64,
    /// Delete operations that removed a live trajectory.
    pub deletes: u64,
    /// Flushes that built or refreshed a delta segment.
    pub flushes: u64,
    /// Compactions that folded deltas into rebuilt base tries.
    pub compactions: u64,
    /// Compactions that escalated to a full STR repartition.
    pub repartitions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_trigger() {
        let p = CompactionPolicy::default();
        assert!(!p.should_compact(0, 0, 100, 0));
        assert!(!p.should_compact(10, 0, 100, 10)); // exactly 10% — not yet
        assert!(p.should_compact(11, 0, 100, 11));
        assert!(p.should_compact(6, 5, 100, 11)); // tombstones count too
    }

    #[test]
    fn ops_trigger() {
        let p = CompactionPolicy::default();
        // 4096 pending rows are well under 10 % of this table.
        let big = 1_000_000;
        assert!(!p.should_compact(4095, 0, big, 4095));
        assert!(p.should_compact(4096, 0, big, 4096));
    }

    #[test]
    fn no_ops_never_compacts() {
        let p = CompactionPolicy::default();
        assert!(!p.should_compact(0, 0, 0, 0));
        assert!(!p.should_compact(50, 50, 10, 0));
    }

    #[test]
    fn manual_policy_never_compacts() {
        let p = CompactionPolicy { auto: false };
        assert!(!p.should_compact(11, 0, 100, 11));
        assert!(!p.should_compact(1, 0, 1_000_000, 4096));
    }
}
