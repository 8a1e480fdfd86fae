//! Online ingestion: the write path of [`DitaSystem`].
//!
//! The paper builds its indexes once over a static dataset; this module
//! adds `INSERT`/`DELETE` without a full rebuild, in the LSM mold:
//!
//! * [`DitaSystem::insert`] / [`DitaSystem::delete`] land in per-partition
//!   deltas — an unflushed tail plus tombstones — owned by
//!   [`dita_ingest::DeltaSet`]. Inserts are routed to the partition whose
//!   endpoint MBRs are nearest the new trajectory's endpoints (the same
//!   geometry STR partitioning used).
//! * [`DitaSystem::flush`] ships each dirty partition's tail (and pending
//!   tombstone markers) to its worker and builds a mini **delta segment**
//!   trie there, so subsequent queries prune delta state exactly like base
//!   state.
//! * [`DitaSystem::compact`] folds base + deltas into rebuilt base tries,
//!   partition by partition, escalating to a full STR repartition only
//!   when the partition-size skew shows the endpoint distribution drifted
//!   past [`dita_ingest::SKEW_THRESHOLD`].
//!
//! Queries never see a difference in *answers*: `search`, `knn_search` and
//! `join` overlay base + deltas with tombstone suppression, and the overlay
//! is byte-identical to a from-scratch rebuild over the live rows (the
//! property tests in `tests/ingest_equivalence.rs` pin this).
//!
//! Simplification relative to a real deployment: the delta-side query
//! overlay (segment probes and tail checks) runs on the driver rather than
//! on the partitions' workers, so it adds no cluster tasks or network
//! charges to reads. Writes are fully charged: flush and compaction ship
//! their bytes through [`dita_cluster::TaskSpec::incoming_bytes`] and
//! build each trie on the task's own thread, so the worker's CPU clock
//! prices the whole build.

use crate::system::DitaSystem;
use dita_cluster::TaskSpec;
use dita_index::{EndpointSummary, GlobalIndex, Partition, TrieIndex};
use dita_ingest::{CompactionPolicy, DeltaSegment, IngestStats, SKEW_THRESHOLD};
use dita_obs::names;
use dita_trajectory::{Dataset, Point, Trajectory, TrajectoryId};
use std::time::Instant;

impl DitaSystem {
    /// Inserts (or overwrites — latest write wins) a trajectory. The row is
    /// immediately visible to `search`/`knn`/`join`; the index catches up
    /// via [`DitaSystem::flush`] and [`DitaSystem::compact`], which the
    /// configured [`CompactionPolicy`] triggers automatically by default.
    pub fn insert(&mut self, t: Trajectory) {
        assert!(!t.is_empty(), "cannot insert an empty trajectory");
        let obs = self.cluster.obs().clone();
        let _span = dita_obs::span!(obs, names::SPAN_INGEST, op = "insert", id = t.id);
        let pid = dita_ingest::DeltaSet::route(&self.partitioning, &t);
        self.deltas.insert(t, pid);
        if obs.is_enabled() {
            obs.counter_labeled(names::INGEST_APPLIED_TOTAL, &[("op", "insert")])
                .inc();
            obs.gauge(names::DELTA_RATIO).set(self.delta_ratio());
        }
        self.maybe_compact();
    }

    /// Deletes a trajectory by id. Returns `false` (and changes nothing)
    /// when no live trajectory has that id. A deleted base row is
    /// tombstoned until the next compaction physically drops it.
    pub fn delete(&mut self, id: TrajectoryId) -> bool {
        let obs = self.cluster.obs().clone();
        let _span = dita_obs::span!(obs, names::SPAN_INGEST, op = "delete", id = id);
        let existed = self.deltas.delete(id);
        if existed && obs.is_enabled() {
            obs.counter_labeled(names::INGEST_APPLIED_TOTAL, &[("op", "delete")])
                .inc();
            obs.gauge(names::DELTA_RATIO).set(self.delta_ratio());
        }
        if existed {
            self.maybe_compact();
        }
        existed
    }

    /// Ships every dirty partition's unflushed tail (plus pending tombstone
    /// markers) to its worker and (re)builds that partition's delta-segment
    /// trie there. After a flush, delta-side filtering uses the same trie
    /// pruning as the base index instead of exact-checking tail entries.
    pub fn flush(&mut self) {
        let jobs = self.deltas.plan_flush();
        if jobs.is_empty() {
            return;
        }
        let obs = self.cluster.obs().clone();
        let _span = dita_obs::span!(obs, names::SPAN_INGEST, op = "flush");
        let trie_cfg = self.config.trie;
        let tasks: Vec<TaskSpec<dita_ingest::FlushJob>> = jobs
            .into_iter()
            .map(|job| TaskSpec {
                worker: self.placement[job.pid],
                incoming_bytes: job.ship_bytes,
                partition: Some(job.pid),
                payload: job,
            })
            .collect();
        let task_obs = obs.clone();
        let (mut built, _stats) = self.cluster.execute(tasks, move |_w, job| {
            let seg = job.members.map(|members| {
                let _span = task_obs.span(names::SPAN_SEGMENT_BUILD);
                DeltaSegment::build(&members, trie_cfg)
            });
            (job.pid, seg)
        });
        built.sort_by_key(|&(pid, _)| pid);
        for (pid, seg) in built {
            if let Some(seg) = seg {
                self.deltas.install_segment(pid, seg);
            }
        }
        self.deltas.stats_mut().flushes += 1;
    }

    /// Folds all delta state into rebuilt base tries (the LSM merge), then
    /// re-runs STR repartitioning if the fold left the partition sizes
    /// skewed past [`SKEW_THRESHOLD`]. Only dirty
    /// partitions are rebuilt. Returns `true` when anything was folded.
    ///
    /// Cost model: each dirty partition's rebuild runs as a cluster task on
    /// the partition's worker, charged with the not-yet-shipped delta bytes
    /// and the trie build's CPU time.
    pub fn compact(&mut self) -> bool {
        if !self.deltas.has_deltas() {
            return false;
        }
        let obs = self.cluster.obs().clone();
        let _span = dita_obs::span!(obs, names::SPAN_COMPACT);
        let wall = Instant::now();

        // Assemble each dirty partition's post-merge member set: live base
        // rows plus live delta rows, clustered by id.
        let mut tasks: Vec<TaskSpec<(usize, Vec<Trajectory>)>> = Vec::new();
        for pid in self.deltas.dirty_partitions() {
            let (delta_members, ship_bytes) = self.deltas.drain_for_compact(pid);
            let mut members: Vec<Trajectory> = self.tries[pid]
                .entries()
                .filter(|e| !self.deltas.is_base_dead(e.id()))
                .map(|e| e.to_trajectory())
                .collect();
            members.extend(delta_members);
            members.sort_by_key(|t| t.id);
            tasks.push(TaskSpec {
                worker: self.placement[pid],
                incoming_bytes: ship_bytes,
                partition: Some(pid),
                payload: (pid, members),
            });
        }
        let trie_cfg = self.config.trie;
        let task_obs = obs.clone();
        let (mut built, _stats) = self.cluster.execute(tasks, move |_w, (pid, members)| {
            let t0 = Instant::now();
            let rows: Vec<&Trajectory> = members.iter().collect();
            let trie = TrieIndex::build_rows(&rows, trie_cfg);
            // Per-partition rebuild time lands in the same histogram the
            // initial build uses; the whole fold is dita_compaction_seconds.
            task_obs
                .histogram_seconds(names::INDEX_BUILD_SECONDS)
                .observe(t0.elapsed().as_secs_f64());
            (pid, trie)
        });
        built.sort_by_key(|&(pid, _)| pid);

        // Install the rebuilt tries and refresh the partition metadata the
        // global index and insert routing read.
        for (pid, trie) in built {
            let summary = if trie.is_empty() {
                // A fully drained partition keeps a degenerate placeholder,
                // one zero-length row at the origin; its empty trie can
                // never produce candidates, so any coverage the global
                // index keeps for it is sound.
                let origin = Point::new(0.0, 0.0);
                EndpointSummary::of([(origin, origin, 0)])
            } else {
                EndpointSummary::of(trie.entries().map(|e| (e.first(), e.last(), e.len())))
            };
            // Membership indices are positional within the rebuilt trie;
            // keeping them length-accurate keeps `Partitioning::skew` and
            // the trie/partitioning alignment invariant truthful.
            let members = (0..trie.len()).collect();
            self.partitioning.partitions[pid] = Partition::new(pid, members, summary);
            self.tries[pid] = trie;
        }
        self.global = GlobalIndex::build(&self.partitioning);
        self.deltas
            .reset_after_compact(self.tries.len(), Self::base_home(&self.tries));
        self.deltas.stats_mut().compactions += 1;

        // Size bookkeeping follows the merged layout.
        self.build_stats.global_size_bytes = self.global.size_bytes();
        self.build_stats.local_size_bytes =
            self.tries.iter().map(TrieIndex::index_size_bytes).sum();
        self.build_stats.total_size_bytes = self.build_stats.global_size_bytes
            + self.tries.iter().map(TrieIndex::size_bytes).sum::<usize>();

        // Escalate to a full repartition only when the endpoint
        // distribution drifted enough to skew the original tiling.
        let skew = self.partitioning.skew();
        if skew > SKEW_THRESHOLD && !self.is_empty() {
            self.repartition();
            self.deltas.stats_mut().repartitions += 1;
        }
        obs.histogram_seconds(names::COMPACTION_SECONDS)
            .observe(wall.elapsed().as_secs_f64());
        if obs.is_enabled() {
            obs.gauge(names::DELTA_RATIO).set(0.0);
            obs.gauge(names::INDEX_BYTES)
                .set(self.build_stats.local_size_bytes as f64);
        }
        true
    }

    /// Rebuilds the whole system from its live rows with fresh STR
    /// partitioning — the compaction escalation path.
    fn repartition(&mut self) {
        let dataset = Dataset::new_unchecked(self.name.clone(), self.live_trajectories());
        let mut rebuilt = DitaSystem::build(&dataset, self.config, self.cluster.clone());
        rebuilt.ingest_policy = self.ingest_policy;
        *rebuilt.deltas.stats_mut() = *self.deltas.stats();
        *self = rebuilt;
    }

    /// Runs [`DitaSystem::compact`] when the policy's auto-trigger trips.
    fn maybe_compact(&mut self) {
        let d = &self.deltas;
        if self.ingest_policy.should_compact(
            d.delta_live(),
            d.tombstones(),
            self.len(),
            d.ops_since_compact(),
        ) {
            self.compact();
        }
    }

    /// Replaces the compaction policy (e.g. `auto: false` to drive
    /// [`DitaSystem::flush`]/[`DitaSystem::compact`] manually).
    pub fn set_compaction_policy(&mut self, policy: CompactionPolicy) {
        self.ingest_policy = policy;
    }

    /// Lifetime ingestion counters (inserts, deletes, flushes, compactions,
    /// repartitions).
    pub fn ingest_stats(&self) -> IngestStats {
        *self.deltas.stats()
    }

    /// Pending delta work as a fraction of the logical table:
    /// `(delta inserts + tombstones) / len()`. Zero on a clean table.
    pub fn delta_ratio(&self) -> f64 {
        let pending = (self.deltas.delta_live() + self.deltas.tombstones()) as f64;
        pending / self.len().max(1) as f64
    }

    /// `true` when any unmerged delta state exists.
    pub fn has_deltas(&self) -> bool {
        self.deltas.has_deltas()
    }

    /// `true` when a live trajectory has this id.
    pub fn contains(&self, id: TrajectoryId) -> bool {
        self.deltas.contains(id)
    }

    /// Visits every *live* trajectory — base rows minus tombstones plus
    /// delta rows — in partition order, base before deltas within each
    /// partition, deterministic across calls.
    pub fn for_each_live<F: FnMut(&Trajectory)>(&self, mut f: F) {
        for (pid, trie) in self.tries.iter().enumerate() {
            for e in trie.entries() {
                if !self.deltas.is_base_dead(e.id()) {
                    f(&e.to_trajectory());
                }
            }
            let part = self.deltas.part(pid);
            if let Some(seg) = &part.seg {
                for t in seg.live() {
                    f(&t);
                }
            }
            for it in part.tail.values() {
                f(&it.traj);
            }
        }
    }

    /// Visits every live *delta* trajectory (flushed segments then
    /// unflushed tails, per partition), deterministic across calls.
    pub fn for_each_delta_live<F: FnMut(&Trajectory)>(&self, mut f: F) {
        for part in self.deltas.parts() {
            if let Some(seg) = &part.seg {
                for t in seg.live() {
                    f(&t);
                }
            }
            for it in part.tail.values() {
                f(&it.traj);
            }
        }
    }

    /// All live trajectories, sorted by id.
    pub fn live_trajectories(&self) -> Vec<Trajectory> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_live(|t| out.push(t.clone()));
        out.sort_by_key(|t| t.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::system::{DitaConfig, DitaSystem};
    use dita_cluster::{Cluster, ClusterConfig};
    use dita_distance::DistanceFunction;
    use dita_index::{PivotStrategy, TrieConfig};
    use dita_ingest::{CompactionPolicy, MAX_DELTA_RATIO};
    use dita_trajectory::trajectory::figure1_trajectories;
    use dita_trajectory::{Dataset, Trajectory};

    fn config() -> DitaConfig {
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

    fn manual_policy() -> CompactionPolicy {
        CompactionPolicy { auto: false }
    }

    fn fig1_system(workers: usize) -> DitaSystem {
        let dataset = Dataset::new("fig1", figure1_trajectories()).unwrap();
        let mut sys = DitaSystem::build(
            &dataset,
            config(),
            Cluster::new(ClusterConfig::with_workers(workers)),
        );
        sys.set_compaction_policy(manual_policy());
        sys
    }

    fn ids(hits: &[(u64, f64)]) -> Vec<u64> {
        hits.iter().map(|&(id, _)| id).collect()
    }

    #[test]
    fn deleted_trajectory_never_reappears() {
        let mut sys = fig1_system(2);
        let ts = figure1_trajectories();
        let q = ts[2].points().to_vec(); // T3 queries itself
        let probe = |sys: &DitaSystem| ids(&crate::search(sys, &q, 0.0, &DistanceFunction::Dtw).0);
        assert_eq!(probe(&sys), vec![3]);

        // Tombstoned: invisible immediately.
        assert!(sys.delete(3));
        assert!(!sys.contains(3));
        assert!(probe(&sys).is_empty());
        // Still gone after flush (tombstones shipped, no segment entry).
        sys.flush();
        assert!(probe(&sys).is_empty());
        // Still gone after compaction physically drops the base row.
        assert!(sys.compact());
        assert!(!sys.has_deltas());
        assert!(probe(&sys).is_empty());
        assert_eq!(sys.len(), 4);
        // And kNN over the full table never resurrects it.
        let (knn, _) = crate::knn_search(&sys, &q, 10, &DistanceFunction::Dtw);
        assert!(knn.iter().all(|&(id, _)| id != 3));
        // Double delete is a no-op.
        assert!(!sys.delete(3));

        // A re-insert under the same id is a *new* row and is visible.
        sys.insert(ts[2].clone());
        assert_eq!(probe(&sys), vec![3]);
        sys.compact();
        assert_eq!(probe(&sys), vec![3]);
        assert_eq!(sys.len(), 5);
    }

    #[test]
    fn insert_is_visible_before_and_after_flush_and_compact() {
        let mut sys = fig1_system(2);
        let t6 = Trajectory::from_coords(6, &[(0.5, 1.5), (2.0, 2.0), (4.5, 2.5)]);
        sys.insert(t6.clone());
        assert_eq!(sys.len(), 6);
        let probe =
            |sys: &DitaSystem| ids(&crate::search(sys, t6.points(), 0.0, &DistanceFunction::Dtw).0);
        assert_eq!(probe(&sys), vec![6]); // unflushed tail
        sys.flush();
        assert_eq!(probe(&sys), vec![6]); // flushed segment
        assert!(sys.has_deltas());
        sys.compact();
        assert_eq!(probe(&sys), vec![6]); // folded into base
        assert!(!sys.has_deltas());
        let stats = sys.ingest_stats();
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.compactions, 1);
    }

    #[test]
    fn verify_stages_count_the_overlay_too() {
        let mut sys = fig1_system(2);
        let q = figure1_trajectories()[0].points().to_vec();
        sys.insert(Trajectory::from_coords(
            6,
            &[(1.0, 1.5), (3.0, 2.0), (5.0, 5.0)],
        ));
        sys.flush(); // a segment…
        sys.insert(Trajectory::from_coords(
            7,
            &[(1.0, 1.0), (4.0, 4.0), (5.0, 5.5)],
        ));
        // …and a tail, over the base tries.
        let (hits, stats) = crate::search(&sys, &q, 6.0, &DistanceFunction::Dtw);
        assert!(stats.delta_candidates >= 2);
        assert_eq!(
            stats.verify.candidates,
            stats.candidates + stats.delta_candidates
        );
        // Nothing is tombstoned, so every accepted candidate is an answer.
        assert_eq!(stats.verify.accepted(), hits.len());
    }

    #[test]
    fn upsert_replaces_and_delta_ratio_tracks_pending_work() {
        let mut sys = fig1_system(2);
        assert_eq!(sys.delta_ratio(), 0.0);
        // Overwrite T1 with a far-away version: old answers must not leak.
        let t1b = Trajectory::from_coords(1, &[(40.0, 40.0), (41.0, 41.0)]);
        sys.insert(t1b.clone());
        assert_eq!(sys.len(), 5); // replaced, not added
        assert!(sys.delta_ratio() > 0.0);
        let ts = figure1_trajectories();
        let (at_old, _) = crate::search(&sys, ts[0].points(), 0.0, &DistanceFunction::Dtw);
        assert!(ids(&at_old).iter().all(|&id| id != 1));
        let (at_new, _) = crate::search(&sys, t1b.points(), 0.0, &DistanceFunction::Dtw);
        assert_eq!(ids(&at_new), vec![1]);
        sys.compact();
        assert_eq!(sys.delta_ratio(), 0.0);
        let (at_new, _) = crate::search(&sys, t1b.points(), 0.0, &DistanceFunction::Dtw);
        assert_eq!(ids(&at_new), vec![1]);
    }

    #[test]
    fn auto_policy_compacts_by_itself() {
        let mut sys = fig1_system(2);
        sys.set_compaction_policy(CompactionPolicy::default());
        let row =
            |i: u64| Trajectory::from_coords(100 + i, &[(i as f64, 0.0), (i as f64 + 1.0, 1.0)]);
        // One pending row is past 10 % of a six-row table.
        sys.insert(row(0));
        assert_eq!(sys.ingest_stats().compactions, 1);
        assert!(!sys.has_deltas());
        for i in 1..7u64 {
            sys.insert(row(i));
        }
        let stats = sys.ingest_stats();
        assert!(stats.compactions >= 2, "{stats:?}");
        assert_eq!(sys.len(), 12);
        // Whatever remains pending is within the ratio trigger.
        assert!(sys.delta_ratio() <= MAX_DELTA_RATIO);
    }

    #[test]
    fn skewed_growth_escalates_to_repartition() {
        // max/avg cannot exceed the partition count, so the 4.0 skew gate
        // needs more than four partitions: a 6 × 6 grid of rows on NG = 3
        // makes nine.
        let grid: Vec<Trajectory> = (0..36u64)
            .map(|i| {
                let (x, y) = ((i % 6) as f64 * 10.0, (i / 6) as f64 * 10.0);
                Trajectory::from_coords(i, &[(x, y), (x + 1.0, y + 1.0)])
            })
            .collect();
        let dataset = Dataset::new("grid", grid.clone()).unwrap();
        let config = DitaConfig { ng: 3, ..config() };
        let mut sys = DitaSystem::build(
            &dataset,
            config,
            Cluster::new(ClusterConfig::with_workers(2)),
        );
        sys.set_compaction_policy(manual_policy());
        assert!(sys.partitioning().partitions.len() > 4);
        // Pile 100 new trajectories into one corner: after folding, one
        // partition dwarfs the rest and the skew gate trips.
        for i in 0..100u64 {
            let x = 0.01 * i as f64;
            sys.insert(Trajectory::from_coords(
                200 + i,
                &[(x, 0.0), (x + 0.5, 0.5)],
            ));
        }
        sys.compact();
        assert_eq!(sys.ingest_stats().repartitions, 1);
        assert_eq!(sys.len(), 136);
        assert!(!sys.has_deltas());
        // The repartitioned system still answers exactly.
        let (hits, _) = crate::search(&sys, grid[7].points(), 0.0, &DistanceFunction::Dtw);
        assert_eq!(ids(&hits), vec![7]);
    }

    #[test]
    fn a_dirty_system_saves_and_loads_to_the_same_answers() {
        let mut sys = fig1_system(2);
        sys.insert(Trajectory::from_coords(9, &[(1.0, 1.0), (2.0, 2.0)]));
        sys.flush(); // a segment…
        sys.insert(Trajectory::from_coords(10, &[(1.5, 1.0), (3.0, 2.5)]));
        assert!(sys.delete(2)); // …a tail and a tombstone
        assert!(sys.has_deltas());
        let mut buf = Vec::new();
        sys.save_index(&mut buf).unwrap();
        let loaded =
            DitaSystem::load_index(buf.as_slice(), Cluster::new(ClusterConfig::with_workers(3)))
                .unwrap();
        assert!(!loaded.has_deltas());
        assert_eq!(loaded.live_trajectories(), sys.live_trajectories());
        let sorted = |mut hits: Vec<(u64, f64)>| {
            hits.sort_by_key(|&(id, _)| id);
            hits.into_iter()
                .map(|(id, d)| (id, d.to_bits()))
                .collect::<Vec<_>>()
        };
        for q in sys.live_trajectories() {
            for tau in [1.0, 3.0, 6.0] {
                let (a, _) = crate::search(&sys, q.points(), tau, &DistanceFunction::Dtw);
                let (b, _) = crate::search(&loaded, q.points(), tau, &DistanceFunction::Dtw);
                assert_eq!(sorted(a), sorted(b), "Q=T{} tau={tau}", q.id);
            }
        }
    }
}
