//! The indexed trajectory table: partitions, indexes and worker placement.

use dita_cluster::{Cluster, TaskSpec};
use dita_index::{str_partitioning_par, GlobalIndex, Partitioning, TrieConfig, TrieIndex};
use dita_ingest::{CompactionPolicy, DeltaSet};
use dita_obs::names;
use dita_trajectory::{Dataset, Trajectory, TrajectoryId};
use std::time::{Duration, Instant};

/// Top-level DITA configuration: the paper's tunables of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DitaConfig {
    /// First/last-point bucket count `N_G` (the partition grid is `N_G²`).
    pub ng: usize,
    /// Local trie index configuration (K, N_L, pivot strategy, …).
    pub trie: TrieConfig,
}

impl Default for DitaConfig {
    fn default() -> Self {
        DitaConfig {
            ng: 8,
            trie: TrieConfig::default(),
        }
    }
}

/// Index construction statistics (Tables 5 and 7).
#[derive(Debug, Clone)]
pub struct BuildStats {
    /// Wall-clock build time: partitioning, the global index, the local
    /// indexes, and the residency map and delta state — from the call to
    /// the table's being ready.
    pub build_time: Duration,
    /// Global index size in bytes.
    pub global_size_bytes: usize,
    /// Total local index size in bytes (excluding the clustered data).
    pub local_size_bytes: usize,
    /// Total size including the clustered trajectory data.
    pub total_size_bytes: usize,
}

/// An indexed, partitioned trajectory table placed on a cluster.
///
/// Building one is the `CREATE INDEX TrieIndex ON T USE TRIE` of §3: the
/// table is STR-partitioned by endpoints, a global index is built on the
/// driver, and each partition's trie index is built on its worker.
pub struct DitaSystem {
    pub(crate) name: String,
    pub(crate) config: DitaConfig,
    pub(crate) cluster: Cluster,
    pub(crate) partitioning: Partitioning,
    pub(crate) global: GlobalIndex,
    /// One trie per partition, indexed by partition id.
    pub(crate) tries: Vec<TrieIndex>,
    /// Worker hosting each partition.
    pub(crate) placement: Vec<usize>,
    pub(crate) build_stats: BuildStats,
    /// Mutable LSM-style delta state layered over the frozen base tries.
    pub(crate) deltas: DeltaSet,
    /// When the write path folds deltas back into the base index.
    pub(crate) ingest_policy: CompactionPolicy,
}

impl DitaSystem {
    /// Partitions, places and indexes a dataset on `cluster`.
    pub fn build(dataset: &Dataset, config: DitaConfig, cluster: Cluster) -> Self {
        Self::build_with_partitioning(dataset, config, cluster, None)
    }

    /// Like [`DitaSystem::build`] but with a caller-provided partitioning —
    /// used by the Figure 13 ablation to swap in random partitioning.
    pub fn build_with_partitioning(
        dataset: &Dataset,
        config: DitaConfig,
        cluster: Cluster,
        partitioning: Option<Partitioning>,
    ) -> Self {
        let start = Instant::now();
        let trajectories = dataset.trajectories();
        // Partitioning runs on the driver, parallelized over the trie's
        // build-thread budget (no cluster task to charge).
        let partitioning = partitioning.unwrap_or_else(|| {
            str_partitioning_par(trajectories, config.ng, config.trie.build_threads)
        });
        let global = GlobalIndex::build(&partitioning);
        let placement: Vec<usize> = (0..partitioning.partitions.len())
            .map(|i| cluster.place(i))
            .collect();

        // Build local indexes as cluster tasks so build parallelism and
        // placement match the paper's executor-side index construction: the
        // job is the build's parallelism, and each trie builds on its task's
        // thread. A task ships its partition's member list; its body borrows
        // the rows from the dataset, and the shipment is priced by those
        // rows.
        let tasks: Vec<TaskSpec<(usize, &[usize])>> = partitioning
            .partitions
            .iter()
            .map(|p| TaskSpec {
                worker: placement[p.id],
                incoming_bytes: p
                    .members
                    .iter()
                    .map(|&m| trajectories[m].size_bytes() as u64)
                    .sum(),
                partition: Some(p.id),
                payload: (p.id, &p.members[..]),
            })
            .collect();
        let trie_cfg = config.trie;
        let obs = cluster.obs().clone();
        let (mut built, _stats) = cluster.execute(tasks, move |_w, (pid, members)| {
            let _span = obs.span(names::SPAN_INDEX_BUILD);
            let t0 = Instant::now();
            let rows: Vec<&Trajectory> = members.iter().map(|&m| &trajectories[m]).collect();
            let trie = TrieIndex::build_rows(&rows, trie_cfg);
            obs.histogram_seconds(names::INDEX_BUILD_SECONDS)
                .observe(t0.elapsed().as_secs_f64());
            (pid, trie)
        });
        built.sort_by_key(|(pid, _)| *pid);
        let tries: Vec<TrieIndex> = built.into_iter().map(|(_, t)| t).collect();

        let global_size_bytes = global.size_bytes();
        let local_size_bytes: usize = tries.iter().map(TrieIndex::index_size_bytes).sum();
        let total_size_bytes =
            global_size_bytes + tries.iter().map(TrieIndex::size_bytes).sum::<usize>();
        if cluster.obs().is_enabled() {
            cluster
                .obs()
                .gauge(names::INDEX_BYTES)
                .set(local_size_bytes as f64);
        }

        let deltas = DeltaSet::new(tries.len(), Self::base_home(&tries));
        let build_time = start.elapsed();
        DitaSystem {
            name: dataset.name.clone(),
            config,
            cluster,
            partitioning,
            global,
            tries,
            placement,
            build_stats: BuildStats {
                build_time,
                global_size_bytes,
                local_size_bytes,
                total_size_bytes,
            },
            deltas,
            ingest_policy: CompactionPolicy::default(),
        }
    }

    /// Base-residency map: `(id, partition)` for every id stored in a base
    /// trie, in partition order; [`DeltaSet::new`] sorts it by id.
    pub(crate) fn base_home(tries: &[TrieIndex]) -> Vec<(TrajectoryId, u32)> {
        tries
            .iter()
            .enumerate()
            .flat_map(|(pid, t)| t.entries().map(move |e| (e.id(), pid as u32)))
            .collect()
    }

    /// Table name (the dataset it was built from).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configuration used at build time.
    pub fn config(&self) -> &DitaConfig {
        &self.config
    }

    /// The cluster this table lives on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Attaches an observability context: the executor starts recording
    /// per-worker metrics and task spans, and the query operators
    /// ([`crate::search()`], [`crate::join()`], [`crate::knn_search`]) wrap
    /// themselves in top-level spans and mirror their statistics into the
    /// context's registry. Systems start with a disabled (zero-cost)
    /// context.
    pub fn attach_obs(&mut self, obs: dita_obs::Obs) {
        self.cluster.attach_obs(obs);
    }

    /// The observability context (disabled unless attached).
    pub fn obs(&self) -> &dita_obs::Obs {
        self.cluster.obs()
    }

    /// The partitioning.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The driver-side global index.
    pub fn global(&self) -> &GlobalIndex {
        &self.global
    }

    /// The local trie index of a partition.
    pub fn trie(&self, partition: usize) -> &TrieIndex {
        &self.tries[partition]
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.tries.len()
    }

    /// The worker hosting a partition.
    pub fn worker_of(&self, partition: usize) -> usize {
        self.placement[partition]
    }

    /// Number of live trajectories: base members minus tombstones plus
    /// delta inserts.
    pub fn len(&self) -> usize {
        self.tries.iter().map(TrieIndex::len).sum::<usize>() - self.deltas.tombstones()
            + self.deltas.delta_live()
    }

    /// The delta state (unflushed tails, flushed segments, tombstones)
    /// layered over the base tries. See [`crate::ingest`].
    pub fn deltas(&self) -> &DeltaSet {
        &self.deltas
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index construction statistics.
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dita_cluster::ClusterConfig;
    use dita_trajectory::trajectory::figure1_trajectories;

    fn tiny_system() -> DitaSystem {
        let dataset = Dataset::new("fig1", figure1_trajectories()).unwrap();
        let config = DitaConfig {
            ng: 2,
            trie: TrieConfig {
                k: 2,
                nl: 2,
                leaf_capacity: 0,
                strategy: dita_index::PivotStrategy::NeighborDistance,
                cell_side: 2.0,
                ..TrieConfig::default()
            },
        };
        DitaSystem::build(
            &dataset,
            config,
            Cluster::new(ClusterConfig::with_workers(2)),
        )
    }

    #[test]
    fn build_covers_all_trajectories() {
        let sys = tiny_system();
        assert_eq!(sys.len(), 5);
        assert!(!sys.is_empty());
        assert_eq!(sys.num_partitions(), sys.partitioning().partitions.len());
        assert_eq!(sys.global().num_partitions(), sys.num_partitions());
    }

    #[test]
    fn placement_is_within_cluster() {
        let sys = tiny_system();
        for p in 0..sys.num_partitions() {
            assert!(sys.worker_of(p) < sys.cluster().num_workers());
        }
    }

    #[test]
    fn build_stats_are_populated() {
        let sys = tiny_system();
        let s = sys.build_stats();
        assert!(s.global_size_bytes > 0);
        assert!(s.local_size_bytes > 0);
        assert!(s.total_size_bytes > s.local_size_bytes);
    }

    #[test]
    fn partition_tries_align_with_partitioning() {
        let sys = tiny_system();
        for p in &sys.partitioning().partitions {
            assert_eq!(sys.trie(p.id).len(), p.members.len());
        }
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use dita_cluster::ClusterConfig;
    use dita_distance::DistanceFunction;
    use dita_trajectory::trajectory::figure1_trajectories;

    #[test]
    fn save_load_round_trip_preserves_answers() {
        let dataset = Dataset::new("fig1", figure1_trajectories()).unwrap();
        let config = DitaConfig {
            ng: 2,
            trie: TrieConfig {
                k: 2,
                nl: 2,
                leaf_capacity: 0,
                strategy: dita_index::PivotStrategy::NeighborDistance,
                cell_side: 2.0,
                ..TrieConfig::default()
            },
        };
        let original = DitaSystem::build(
            &dataset,
            config,
            Cluster::new(ClusterConfig::with_workers(2)),
        );

        let mut buf = Vec::new();
        original.save_index(&mut buf).unwrap();
        // Load onto a *different* cluster shape.
        let loaded =
            DitaSystem::load_index(buf.as_slice(), Cluster::new(ClusterConfig::with_workers(3)))
                .unwrap();

        assert_eq!(loaded.name(), original.name());
        assert_eq!(loaded.len(), original.len());
        assert_eq!(loaded.num_partitions(), original.num_partitions());
        for q in figure1_trajectories() {
            for tau in [1.0, 3.0, 6.0] {
                let (a, _) = crate::search(&original, q.points(), tau, &DistanceFunction::Dtw);
                let (b, _) = crate::search(&loaded, q.points(), tau, &DistanceFunction::Dtw);
                assert_eq!(a, b, "Q=T{} tau={tau}", q.id);
            }
        }
        // Joins agree too.
        let opts = crate::JoinOptions::default();
        let (pa, _) = crate::join(&original, &original, 3.0, &DistanceFunction::Dtw, &opts);
        let (pb, _) = crate::join(&loaded, &loaded, 3.0, &DistanceFunction::Dtw, &opts);
        assert_eq!(pa, pb);
    }

    #[test]
    fn corrupt_input_is_an_error() {
        let r = DitaSystem::load_index(
            &b"not json"[..],
            Cluster::new(ClusterConfig::with_workers(1)),
        );
        assert!(r.is_err());
    }
}
