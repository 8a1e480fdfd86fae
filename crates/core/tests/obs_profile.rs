//! Acceptance tests for the observability wiring (OBSERVABILITY.md): one
//! instrumented search yields the documented span hierarchy
//! `search → worker → task → {filter, verify}`, a filter funnel whose
//! per-stage counts are self-consistent with `SearchStats`, and mirrored
//! registry metrics. Joins and kNN searches get their own top-level spans.

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::{join, knn_search, search, DitaConfig, DitaSystem, JoinOptions};
use dita_distance::DistanceFunction;
use dita_index::{PivotStrategy, TrieConfig};
use dita_obs::Obs;
use dita_trajectory::trajectory::figure1_trajectories;
use dita_trajectory::Dataset;

fn instrumented_system(workers: usize) -> DitaSystem {
    let dataset = Dataset::new("fig1", figure1_trajectories()).unwrap();
    let mut sys = DitaSystem::build(
        &dataset,
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
        },
        Cluster::new(ClusterConfig::with_workers(workers)),
    );
    sys.attach_obs(Obs::enabled());
    sys
}

#[test]
fn search_profile_has_expected_hierarchy() {
    let sys = instrumented_system(2);
    let ts = figure1_trajectories();
    let (results, stats) = search(&sys, ts[0].points(), 3.0, &DistanceFunction::Dtw);
    assert_eq!(results.len(), 2);

    let report = sys.obs().report();
    let search = report
        .profile
        .iter()
        .find(|n| n.name == "search")
        .expect("top-level search span");

    // Per-worker child spans, one per worker that received a task.
    let workers: Vec<_> = search
        .children
        .iter()
        .filter(|c| c.name == "worker")
        .collect();
    assert!(!workers.is_empty(), "search span has worker children");
    let tasks_under_workers: usize = workers
        .iter()
        .flat_map(|w| w.children.iter())
        .filter(|t| t.name == "task")
        .map(|t| t.count as usize)
        .sum();
    assert!(tasks_under_workers >= 1, "worker spans contain task spans");
    let job_tasks: usize = stats.job.workers.iter().map(|w| w.tasks).sum();
    assert_eq!(
        tasks_under_workers, job_tasks,
        "one task span per executed task"
    );

    // filter and verify live somewhere below search (under worker → task).
    let filter = search.find("filter").expect("filter span under search");
    let verify = search.find("verify").expect("verify span under search");
    assert!(filter.count >= 1);
    assert!(verify.count >= 1);
    // ... and NOT directly under search: they are opened on worker threads
    // inside the task span.
    assert!(search.children.iter().all(|c| c.name != "filter"));
    assert!(search.children.iter().all(|c| c.name != "verify"));

    // The timeline carries one row per task.
    let task_rows = report.timeline.iter().filter(|r| r.name == "task").count();
    assert_eq!(task_rows, job_tasks);
}

#[test]
fn filter_funnel_is_consistent_with_search_stats() {
    let sys = instrumented_system(2);
    let ts = figure1_trajectories();
    let (_, stats) = search(&sys, ts[1].points(), 3.0, &DistanceFunction::Dtw);

    let funnel = stats.filter.funnel(dita_obs::names::FUNNEL_TRIE_FILTER);
    assert_eq!(funnel.name, "trie-filter");
    let names: Vec<&str> = funnel.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        ["node-length", "node-budget", "leaf-length", "leaf-opamd"]
    );

    // The funnel's final survivors are exactly the candidates verification
    // received, and adjacent stages chain within each tier (node stages
    // count trie nodes, leaf stages count member trajectories).
    assert_eq!(funnel.survivors() as usize, stats.candidates);
    assert_eq!(funnel.stages[1].entered, funnel.stages[0].survivors());
    assert_eq!(funnel.stages[3].entered, funnel.stages[2].survivors());

    // Verification's funnel takes over where the trie's ends: it enters
    // the candidates and its survivors are the answers.
    let verify = stats.verify.funnel();
    assert_eq!(verify.name, "verify-stages");
    let names: Vec<&str> = verify.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["verify-coverage", "verify-bound", "verify-kernel"]);
    assert_eq!(stats.verify.candidates, stats.candidates);
    assert_eq!(verify.stages[0].entered as usize, stats.candidates);
    assert_eq!(verify.survivors() as usize, stats.results);

    // The registry mirror agrees with the in-band stats, funnel by funnel.
    let report = sys.obs().report();
    for f in [&funnel, &verify] {
        let pruned_sum: f64 = report
            .metrics
            .iter()
            .filter(|m| m.name == "dita_funnel_pruned_total")
            .filter(|m| m.labels.iter().any(|(k, v)| k == "funnel" && *v == f.name))
            .map(|m| m.value)
            .sum();
        assert_eq!(pruned_sum as u64, f.total_pruned(), "{}", f.name);
    }
    let candidates = report
        .metrics
        .iter()
        .find(|m| m.name == "dita_search_candidates_total")
        .expect("candidate counter");
    assert_eq!(candidates.value as usize, stats.candidates);
}

#[test]
fn executor_metrics_are_recorded_per_worker() {
    let sys = instrumented_system(2);
    let ts = figure1_trajectories();
    let (_, stats) = search(&sys, ts[0].points(), 3.0, &DistanceFunction::Dtw);

    let report = sys.obs().report();
    let task_total: f64 = report
        .metrics
        .iter()
        .filter(|m| m.name == "dita_tasks_total")
        .map(|m| m.value)
        .sum();
    let job_tasks: usize = stats.job.workers.iter().map(|w| w.tasks).sum();
    assert_eq!(task_total as usize, job_tasks);
    let bytes_total: f64 = report
        .metrics
        .iter()
        .filter(|m| m.name == "dita_network_bytes_total")
        .map(|m| m.value)
        .sum();
    let job_bytes: u64 = stats.job.workers.iter().map(|w| w.bytes_received).sum();
    assert_eq!(bytes_total as u64, job_bytes);
}

#[test]
fn join_and_knn_get_top_level_spans() {
    let sys = instrumented_system(2);
    let ts = figure1_trajectories();

    let (pairs, jstats) = join(
        &sys,
        &sys,
        3.0,
        &DistanceFunction::Dtw,
        &JoinOptions::default(),
    );
    assert!(!pairs.is_empty());
    let (hits, _) = knn_search(&sys, ts[0].points(), 2, &DistanceFunction::Dtw);
    assert_eq!(hits.len(), 2);

    let report = sys.obs().report();
    let join_span = report
        .profile
        .iter()
        .find(|n| n.name == "join")
        .expect("top-level join span");
    assert!(join_span.find("build-edges").is_some());
    assert!(join_span.find("orient").is_some());
    assert!(join_span.find("execute_dynamic").is_some());
    assert!(join_span.find("local-join").is_some());

    let knn_span = report
        .profile
        .iter()
        .find(|n| n.name == "knn")
        .expect("top-level knn span");
    let inner_search = knn_span
        .find("search")
        .expect("knn probes via search spans");
    assert!(inner_search.count >= 1);

    // Join metrics mirror JoinStats.
    let shipped = report
        .metrics
        .iter()
        .find(|m| m.name == "dita_join_shipped_bytes_total")
        .expect("join shipped-bytes counter");
    assert_eq!(shipped.value as u64, jstats.shipped_bytes);
}

#[test]
fn join_filter_funnel_is_consistent_with_join_stats() {
    let sys = instrumented_system(2);
    let (_, stats) = join(
        &sys,
        &sys,
        3.0,
        &DistanceFunction::Dtw,
        &JoinOptions::default(),
    );

    // The local joins' filter funnel ends in the candidates they verified…
    let funnel = stats.filter.funnel(dita_obs::names::FUNNEL_TRIE_FILTER);
    assert!(stats.filter.nodes_visited > 0 && stats.candidates > 0);
    assert_eq!(stats.filter.candidates(), stats.candidates);
    assert_eq!(funnel.survivors() as usize, stats.candidates);
    // … minus the `(a, a)` a self-join answers without verifying.
    assert!(stats.verify.candidates <= stats.candidates);

    // … and is recorded like a search's: no search ran here, so the
    // registry's `trie-filter` funnel is the join's.
    let report = sys.obs().report();
    let pruned_sum: f64 = report
        .metrics
        .iter()
        .filter(|m| m.name == "dita_funnel_pruned_total")
        .filter(|m| {
            m.labels
                .iter()
                .any(|(k, v)| k == "funnel" && *v == funnel.name)
        })
        .map(|m| m.value)
        .sum();
    assert_eq!(pruned_sum as u64, funnel.total_pruned());
}

#[test]
fn unattached_system_records_nothing() {
    let dataset = Dataset::new("fig1", figure1_trajectories()).unwrap();
    let sys = DitaSystem::build(
        &dataset,
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
        },
        Cluster::new(ClusterConfig::with_workers(2)),
    );
    let ts = figure1_trajectories();
    let (results, _) = search(&sys, ts[0].points(), 3.0, &DistanceFunction::Dtw);
    assert_eq!(results.len(), 2);
    assert!(!sys.obs().is_enabled());
    let report = sys.obs().report();
    assert!(report.metrics.is_empty());
    assert!(report.profile.is_empty());
}
