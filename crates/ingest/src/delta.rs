//! Per-partition delta state: unflushed tails, flushed mini delta-tries,
//! tombstones, and the bookkeeping that keeps every id single-homed.

use crate::policy::IngestStats;
use dita_distance::function::IndexMode;
use dita_index::{EndpointSummary, IndexedTrajectory, Partitioning, TrieConfig, TrieIndex};
use dita_trajectory::{Point, Trajectory, TrajectoryId};
use std::collections::{BTreeMap, BTreeSet};

/// Bytes charged to the network model for shipping one tombstone marker
/// (a bare trajectory id).
pub const TOMBSTONE_BYTES: u64 = std::mem::size_of::<TrajectoryId>() as u64;

/// A flushed delta run: a mini trie over the partition's flushed inserts,
/// plus the dead-set of entries superseded since the flush.
#[derive(Debug)]
pub struct DeltaSegment {
    /// Mini trie over the flushed delta inserts (same `TrieConfig` as the
    /// base trie, so filter semantics are identical).
    pub trie: TrieIndex,
    /// Segment entries deleted or overwritten after the flush. Hits from
    /// `trie` with an id in here are suppressed at query time.
    pub dead: BTreeSet<TrajectoryId>,
    /// Endpoint summary of the flushed members, dead ones included, so it
    /// covers the live ones ([`DeltaSet::seg_relevant`] screens with it).
    pub summary: EndpointSummary,
}

impl DeltaSegment {
    /// Builds a segment over `members` (must be non-empty), its trie on the
    /// calling thread ([`TrieIndex::build_rows`]).
    pub fn build(members: &[Trajectory], config: TrieConfig) -> Self {
        assert!(!members.is_empty(), "a delta segment needs members");
        let rows: Vec<&Trajectory> = members.iter().collect();
        DeltaSegment {
            trie: TrieIndex::build_rows(&rows, config),
            dead: BTreeSet::new(),
            summary: EndpointSummary::of(members.iter().map(|t| (*t.first(), *t.last(), t.len()))),
        }
    }

    /// Live (not superseded) flushed members, materialized out of the
    /// trie's pooled store.
    pub fn live(&self) -> impl Iterator<Item = Trajectory> + '_ {
        self.trie
            .entries()
            .filter(move |e| !self.dead.contains(&e.id()))
            .map(|e| e.to_trajectory())
    }

    /// Number of live flushed members.
    pub fn live_count(&self) -> usize {
        self.trie.len() - self.dead.len()
    }
}

/// Delta state of one partition.
#[derive(Debug, Default)]
pub struct PartitionDelta {
    /// Unflushed live inserts, keyed by id (the memtable). Entries carry
    /// the artifacts verification reads, so a query checks them through
    /// the same kernel path as base members.
    pub tail: BTreeMap<TrajectoryId, IndexedTrajectory>,
    /// The flushed delta run, if any.
    pub seg: Option<DeltaSegment>,
    /// Tombstone markers (base or segment dead-set entries) not yet
    /// shipped to the partition's worker.
    pub pending_tombstones: u64,
    /// `true` once any operation has touched this partition since the
    /// last compaction — compaction rebuilds exactly the dirty partitions.
    pub dirty: bool,
}

impl PartitionDelta {
    /// Live delta members (tail + segment).
    pub fn live_count(&self) -> usize {
        self.tail.len() + self.seg.as_ref().map_or(0, DeltaSegment::live_count)
    }

    /// Bytes of unflushed tail data (what the next flush ships).
    pub fn tail_bytes(&self) -> u64 {
        self.tail
            .values()
            .map(|it| it.traj.size_bytes() as u64)
            .sum()
    }
}

/// One partition's share of a flush: the bytes to ship to its worker and,
/// when the tail was non-empty, the member set for the rebuilt segment.
#[derive(Debug)]
pub struct FlushJob {
    /// Partition id.
    pub pid: usize,
    /// Unflushed tail bytes plus pending tombstone markers.
    pub ship_bytes: u64,
    /// Members of the segment to (re)build — previous live segment entries
    /// plus the drained tail, sorted by id. `None` when only tombstones
    /// need shipping.
    pub members: Option<Vec<Trajectory>>,
}

/// The mutable side of an indexed table: every partition's delta plus the
/// id-residency maps that keep writes single-homed.
#[derive(Debug)]
pub struct DeltaSet {
    parts: Vec<PartitionDelta>,
    /// Base-trie ids logically deleted or overwritten.
    base_dead: BTreeSet<TrajectoryId>,
    /// `(id, partition)` for every id stored in a base trie, sorted by id
    /// and looked up by binary search ([`DeltaSet::base_home_of`]). Frozen
    /// between compactions, so a sorted array serves where a map would
    /// keep a node a row.
    base_home: Vec<(TrajectoryId, u32)>,
    /// Partition of every *live* delta insert.
    delta_home: BTreeMap<TrajectoryId, usize>,
    ops_since_compact: u64,
    stats: IngestStats,
}

impl DeltaSet {
    /// Fresh, empty delta state over `num_partitions` partitions whose base
    /// tries hold the ids in `base_home`, as `(id, partition)` pairs in any
    /// order. Ids are single-homed, so one unstable sort orders them.
    pub fn new(num_partitions: usize, mut base_home: Vec<(TrajectoryId, u32)>) -> Self {
        base_home.sort_unstable();
        DeltaSet {
            parts: (0..num_partitions)
                .map(|_| PartitionDelta::default())
                .collect(),
            base_dead: BTreeSet::new(),
            base_home,
            delta_home: BTreeMap::new(),
            ops_since_compact: 0,
            stats: IngestStats::default(),
        }
    }

    /// Deterministic insert routing: the partition whose endpoint MBRs are
    /// jointly closest to the trajectory's first/last points (the same
    /// geometry STR used to form the partitions), lowest id on ties.
    pub fn route(partitioning: &Partitioning, t: &Trajectory) -> usize {
        assert!(
            !partitioning.partitions.is_empty(),
            "cannot route into an empty partitioning"
        );
        let (first, last) = (t.first(), t.last());
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for p in &partitioning.partitions {
            let d = p.mbr_first.min_dist_point(first) + p.mbr_last.min_dist_point(last);
            if d < best_d {
                best_d = d;
                best = p.id;
            }
        }
        best
    }

    /// Applies an insert routed to `pid`. Returns `true` when the id
    /// overwrote an existing live trajectory (upsert semantics).
    pub fn insert(&mut self, t: Trajectory, pid: usize) -> bool {
        let replaced = self.unlink(t.id);
        let it = IndexedTrajectory::new(t);
        let id = it.traj.id;
        self.parts[pid].tail.insert(id, it);
        self.parts[pid].dirty = true;
        self.delta_home.insert(id, pid);
        self.ops_since_compact += 1;
        self.stats.inserts += 1;
        replaced
    }

    /// Applies a delete. Returns `true` when a live trajectory was removed.
    pub fn delete(&mut self, id: TrajectoryId) -> bool {
        let existed = self.unlink(id);
        if existed {
            self.ops_since_compact += 1;
            self.stats.deletes += 1;
        }
        existed
    }

    /// Removes the live copy of `id`, wherever it resides. Returns whether
    /// one existed.
    fn unlink(&mut self, id: TrajectoryId) -> bool {
        if let Some(pid) = self.delta_home.remove(&id) {
            let part = &mut self.parts[pid];
            if part.tail.remove(&id).is_none() {
                // Not in the tail, so it must be live in the segment.
                let seg = part
                    .seg
                    .as_mut()
                    .expect("delta-homed id without tail or segment");
                let fresh = seg.dead.insert(id);
                debug_assert!(fresh, "segment dead-set already held a live id");
                part.pending_tombstones += 1;
            }
            part.dirty = true;
            true
        } else if let Some(pid) = self.base_home_of(id) {
            if self.base_dead.insert(id) {
                self.parts[pid].pending_tombstones += 1;
                self.parts[pid].dirty = true;
                true
            } else {
                false
            }
        } else {
            false
        }
    }

    /// `true` when any partition holds unmerged delta state.
    pub fn has_deltas(&self) -> bool {
        self.parts.iter().any(|p| p.dirty)
    }

    /// Total live delta inserts across partitions.
    pub fn delta_live(&self) -> usize {
        self.delta_home.len()
    }

    /// Base-trie tombstone count.
    pub fn tombstones(&self) -> usize {
        self.base_dead.len()
    }

    /// `true` when `id`'s base copy is tombstoned.
    pub fn is_base_dead(&self, id: TrajectoryId) -> bool {
        self.base_dead.contains(&id)
    }

    /// The base tombstone set.
    pub fn base_dead(&self) -> &BTreeSet<TrajectoryId> {
        &self.base_dead
    }

    /// `true` when `id` has a live copy (base or delta).
    pub fn contains(&self, id: TrajectoryId) -> bool {
        self.delta_home.contains_key(&id)
            || (self.base_home_of(id).is_some() && !self.base_dead.contains(&id))
    }

    /// The partition whose base trie stores `id`, if any.
    fn base_home_of(&self, id: TrajectoryId) -> Option<usize> {
        let at = self.base_home.binary_search_by_key(&id, |&(i, _)| i).ok()?;
        Some(self.base_home[at].1 as usize)
    }

    /// One partition's delta.
    pub fn part(&self, pid: usize) -> &PartitionDelta {
        &self.parts[pid]
    }

    /// All partition deltas, in partition-id order.
    pub fn parts(&self) -> &[PartitionDelta] {
        &self.parts
    }

    /// Operations applied since the last compaction.
    pub fn ops_since_compact(&self) -> u64 {
        self.ops_since_compact
    }

    /// Ingestion counters.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Mutable ingestion counters (flush/compaction bookkeeping lives in
    /// `dita-core`, which executes those phases).
    pub fn stats_mut(&mut self) -> &mut IngestStats {
        &mut self.stats
    }

    /// Plans a flush: drains every non-empty tail (and pending tombstone
    /// counter) into per-partition jobs. The caller builds each job's
    /// segment — on the partition's worker, charging `ship_bytes` — and
    /// hands it back through [`DeltaSet::install_segment`].
    pub fn plan_flush(&mut self) -> Vec<FlushJob> {
        let mut jobs = Vec::new();
        for (pid, part) in self.parts.iter_mut().enumerate() {
            let seg_dead = part.seg.as_ref().is_some_and(|s| !s.dead.is_empty());
            if part.tail.is_empty() && part.pending_tombstones == 0 && !seg_dead {
                continue;
            }
            let ship_bytes = part.tail_bytes() + TOMBSTONE_BYTES * part.pending_tombstones;
            part.pending_tombstones = 0;
            let members = if part.tail.is_empty() && !seg_dead {
                // Only base tombstones to ship; the segment is untouched.
                None
            } else {
                let mut members: Vec<Trajectory> = part
                    .seg
                    .as_ref()
                    .map(|seg| seg.live().collect())
                    .unwrap_or_default();
                members.extend(
                    std::mem::take(&mut part.tail)
                        .into_values()
                        .map(|it| it.traj),
                );
                members.sort_by_key(|t| t.id);
                if members.is_empty() {
                    // Every flushed member died since the last run: drop the
                    // segment outright rather than rebuild an empty trie.
                    part.seg = None;
                    None
                } else {
                    Some(members)
                }
            };
            jobs.push(FlushJob {
                pid,
                ship_bytes,
                members,
            });
        }
        jobs
    }

    /// Installs a freshly built segment for `pid`, replacing any previous
    /// one (whose live members the new segment absorbed).
    pub fn install_segment(&mut self, pid: usize, seg: DeltaSegment) {
        self.parts[pid].seg = Some(seg);
    }

    /// Partitions whose segment may contain query matches, sorted by id:
    /// the segments' summaries put to the rule the global index applies to
    /// the base partitions ([`IndexMode::endpoints_admit`]), by scan, since
    /// a partition holds at most one segment.
    pub fn seg_relevant(
        &self,
        first: &Point,
        last: &Point,
        query_len: usize,
        tau: f64,
        mode: IndexMode,
    ) -> Vec<usize> {
        if tau < 0.0 {
            return Vec::new();
        }
        let admits = |s: &EndpointSummary| {
            let df = s.mbr_first.min_dist_point(first);
            let dl = s.mbr_last.min_dist_point(last);
            mode.endpoints_admit(df, dl, query_len, s.min_len, tau)
        };
        (0..self.parts.len())
            .filter(|&pid| {
                self.parts[pid]
                    .seg
                    .as_ref()
                    .is_some_and(|seg| admits(&seg.summary))
            })
            .collect()
    }

    /// Partitions needing a rebuild at compaction time.
    pub fn dirty_partitions(&self) -> Vec<usize> {
        (0..self.parts.len())
            .filter(|&i| self.parts[i].dirty)
            .collect()
    }

    /// Live delta members of `pid` (segment + tail) and the not-yet-shipped
    /// bytes the compaction task must charge, consumed at compaction time.
    pub fn drain_for_compact(&mut self, pid: usize) -> (Vec<Trajectory>, u64) {
        let part = &mut self.parts[pid];
        let ship_bytes = part.tail_bytes() + TOMBSTONE_BYTES * part.pending_tombstones;
        let mut members: Vec<Trajectory> = part
            .seg
            .as_ref()
            .map(|seg| seg.live().collect())
            .unwrap_or_default();
        members.extend(
            std::mem::take(&mut part.tail)
                .into_values()
                .map(|it| it.traj),
        );
        (members, ship_bytes)
    }

    /// Resets to a clean post-compaction state over a (possibly new)
    /// partition count and base residency map. Counters survive.
    pub fn reset_after_compact(
        &mut self,
        num_partitions: usize,
        base_home: Vec<(TrajectoryId, u32)>,
    ) {
        let stats = self.stats;
        *self = DeltaSet::new(num_partitions, base_home);
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dita_index::{GlobalIndex, Partition, PivotStrategy};
    use dita_rng::Xoshiro256StarStar;
    use dita_trajectory::Mbr;

    fn cfg() -> TrieConfig {
        TrieConfig {
            k: 2,
            nl: 2,
            leaf_capacity: 0,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 2.0,
            ..TrieConfig::default()
        }
    }

    fn traj(id: TrajectoryId, x: f64) -> Trajectory {
        Trajectory::from_coords(id, &[(x, 0.0), (x + 1.0, 1.0)])
    }

    fn two_part() -> Partitioning {
        let mk = |id: usize, x: f64| Partition {
            id,
            members: Vec::new(),
            mbr_first: Mbr::from_point(Point::new(x, 0.0)),
            mbr_last: Mbr::from_point(Point::new(x + 1.0, 1.0)),
            min_len: 2,
            max_len: 2,
        };
        Partitioning {
            partitions: vec![mk(0, 0.0), mk(1, 10.0)],
        }
    }

    #[test]
    fn routing_is_nearest_partition_lowest_id_on_tie() {
        let p = two_part();
        assert_eq!(DeltaSet::route(&p, &traj(1, 0.1)), 0);
        assert_eq!(DeltaSet::route(&p, &traj(2, 9.9)), 1);
        // Exactly between the two tiles: lowest id wins.
        assert_eq!(DeltaSet::route(&p, &traj(3, 5.0)), 0);
    }

    #[test]
    fn upsert_shadows_base_then_tail_wins() {
        let mut d = DeltaSet::new(2, vec![(7, 1)]);
        assert!(d.contains(7));
        // Overwrite a base id: base copy tombstoned, tail copy live.
        assert!(d.insert(traj(7, 3.0), 0));
        assert!(d.is_base_dead(7));
        assert!(d.contains(7));
        assert_eq!(d.delta_live(), 1);
        // Overwrite again: still exactly one live copy.
        assert!(d.insert(traj(7, 4.0), 0));
        assert_eq!(d.delta_live(), 1);
        // Delete removes it everywhere.
        assert!(d.delete(7));
        assert!(!d.contains(7));
        assert!(!d.delete(7));
    }

    #[test]
    fn flush_drains_tails_and_prices_shipment() {
        let mut d = DeltaSet::new(2, Vec::new());
        d.insert(traj(1, 0.0), 0);
        d.insert(traj(2, 0.5), 0);
        let t_bytes: u64 = 2 * traj(1, 0.0).size_bytes() as u64;
        let jobs = d.plan_flush();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].pid, 0);
        assert_eq!(jobs[0].ship_bytes, t_bytes);
        let members = jobs[0].members.as_ref().unwrap();
        assert_eq!(members.iter().map(|t| t.id).collect::<Vec<_>>(), vec![1, 2]);
        // Simulate the build and install; tail is gone, segment is live.
        let seg = DeltaSegment::build(&jobs.into_iter().next().unwrap().members.unwrap(), cfg());
        d.install_segment(0, seg);
        assert_eq!(d.part(0).tail.len(), 0);
        assert_eq!(d.delta_live(), 2);
        assert_eq!(d.part(0).seg.as_ref().unwrap().live_count(), 2);
        // Deleting a flushed id marks the segment dead-set and queues a
        // tombstone shipment.
        assert!(d.delete(1));
        assert_eq!(d.part(0).seg.as_ref().unwrap().live_count(), 1);
        let jobs = d.plan_flush();
        assert_eq!(jobs[0].ship_bytes, TOMBSTONE_BYTES);
        assert!(jobs[0].members.is_some()); // re-flush folds the dead entry out
    }

    #[test]
    fn seg_relevance_maps_back_to_partition_ids() {
        let mut d = DeltaSet::new(3, Vec::new());
        d.insert(traj(1, 20.0), 2);
        for job in d.plan_flush() {
            let seg = DeltaSegment::build(&job.members.unwrap(), cfg());
            d.install_segment(job.pid, seg);
        }
        let hits = d.seg_relevant(
            &Point::new(20.0, 0.0),
            &Point::new(21.0, 1.0),
            2,
            0.5,
            IndexMode::Additive,
        );
        assert_eq!(hits, vec![2]);
        let misses = d.seg_relevant(
            &Point::new(-50.0, 0.0),
            &Point::new(-49.0, 1.0),
            2,
            0.5,
            IndexMode::Additive,
        );
        assert!(misses.is_empty());
    }

    /// The scan admits exactly what an R-tree `GlobalIndex` over the
    /// segments' summaries admitted when it was built at the flush (one
    /// synthetic partition per live segment). A segment whose members all
    /// died after that flush stays in both.
    #[test]
    fn seg_scan_admits_what_a_global_index_over_the_segments_admits() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5e6_5ca7);
        let num_parts = 6;
        let mut d = DeltaSet::new(num_parts, Vec::new());
        let mut rows_of = vec![Vec::new(); num_parts];
        for id in 0..60u64 {
            let pid = rng.index(num_parts - 1); // the last partition stays empty
            let (x, y) = (rng.range_f64(0.0, 20.0), rng.range_f64(0.0, 20.0));
            let len = 1 + rng.index(4);
            let pts: Vec<(f64, f64)> = (0..len)
                .map(|i| (x + i as f64 * rng.next_f64(), y + i as f64 * rng.next_f64()))
                .collect();
            d.insert(Trajectory::from_coords(id, &pts), pid);
            rows_of[pid].push(id);
        }
        for job in d.plan_flush() {
            let members = job.members.expect("every flushed partition has a tail");
            d.install_segment(job.pid, DeltaSegment::build(&members, cfg()));
        }

        let mut partitions = Vec::new();
        let mut pids = Vec::new();
        for (pid, part) in d.parts().iter().enumerate() {
            let Some(seg) = &part.seg else { continue };
            assert!(seg.live_count() > 0);
            partitions.push(Partition::new(partitions.len(), Vec::new(), seg.summary));
            pids.push(pid);
        }
        assert_eq!(pids, (0..num_parts - 1).collect::<Vec<_>>());
        let global = GlobalIndex::build(&Partitioning { partitions });

        // Every member of partition 2's segment dies after the flush.
        for &id in &rows_of[2] {
            assert!(d.delete(id));
        }
        assert_eq!(d.part(2).seg.as_ref().unwrap().live_count(), 0);

        let modes = |eps: f64| {
            [
                IndexMode::Additive,
                IndexMode::Max,
                IndexMode::EditCount {
                    eps,
                    symmetric: true,
                },
                IndexMode::EditCount {
                    eps,
                    symmetric: false,
                },
                IndexMode::Scan,
            ]
        };
        let mut admitted_dead = false;
        for _ in 0..400 {
            let first = Point::new(rng.range_f64(-5.0, 25.0), rng.range_f64(-5.0, 25.0));
            let last = Point::new(rng.range_f64(-5.0, 25.0), rng.range_f64(-5.0, 25.0));
            let query_len = 1 + rng.index(4);
            let tau = [-1.0, 0.0, rng.range_f64(0.0, 3.0), rng.range_f64(0.0, 12.0)][rng.index(4)];
            for mode in modes(rng.range_f64(0.0, 4.0)) {
                let want: Vec<usize> = global
                    .relevant_partitions(&first, &last, query_len, tau, mode)
                    .into_iter()
                    .map(|i| pids[i])
                    .collect();
                let got = d.seg_relevant(&first, &last, query_len, tau, mode);
                assert_eq!(
                    got, want,
                    "{first:?} {last:?} len {query_len} tau {tau} {mode:?}"
                );
                admitted_dead |= got.contains(&2);
            }
        }
        assert!(admitted_dead, "no query reached the dead segment");
    }

    #[test]
    fn compact_drain_resets_state() {
        let mut d = DeltaSet::new(1, vec![(9, 0)]);
        d.insert(traj(1, 0.0), 0);
        d.delete(9);
        assert!(d.has_deltas());
        assert_eq!(d.dirty_partitions(), vec![0]);
        let (members, bytes) = d.drain_for_compact(0);
        assert_eq!(members.iter().map(|t| t.id).collect::<Vec<_>>(), vec![1]);
        assert_eq!(bytes, traj(1, 0.0).size_bytes() as u64 + TOMBSTONE_BYTES);
        d.reset_after_compact(1, vec![(1, 0)]);
        assert!(!d.has_deltas());
        assert_eq!(d.stats().inserts, 1);
        assert!(d.contains(1));
        assert!(!d.contains(9));
    }
}
