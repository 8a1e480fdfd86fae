//! Profile smoke: a tiny instrumented run that exercises the whole
//! observability surface in well under a second.
//!
//! Builds the Figure 1 example table with tracing attached, runs one
//! search, one self-join and one kNN probe, then emits every exporter:
//! the human-readable profile table (with per-operation critical-path
//! attribution) and Prometheus text on stdout, and the schema-versioned
//! JSON report to the path given as the first CLI argument (default
//! `results/PROFILE_SMOKE.json`).
//!
//! The binary self-validates — it panics (non-zero exit) if the profile
//! tree is missing the documented spans, a funnel is inconsistent, any
//! operation's critical-path attribution fails to sum to ~100%, or the
//! JSON does not round-trip — so `scripts/profile_smoke.sh` only has to
//! check the exit code and re-parse the JSON.

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::{join, knn_search, search, DitaConfig, DitaSystem, JoinOptions};
use dita_distance::DistanceFunction;
use dita_index::{PivotStrategy, TrieConfig};
use dita_obs::{Obs, Report};
use dita_trajectory::trajectory::figure1_trajectories;
use dita_trajectory::Dataset;
use std::path::PathBuf;

fn main() {
    let out: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/PROFILE_SMOKE.json".to_string())
        .into();

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
        Cluster::new(ClusterConfig::with_workers(2)),
    );
    sys.attach_obs(Obs::enabled());

    let ts = figure1_trajectories();
    let (hits, stats) = search(&sys, ts[0].points(), 3.0, &DistanceFunction::Dtw);
    assert!(!hits.is_empty(), "the Example 2/6 query must match");
    let (pairs, _) = join(
        &sys,
        &sys,
        3.0,
        &DistanceFunction::Dtw,
        &JoinOptions::default(),
    );
    assert!(!pairs.is_empty(), "the self-join must produce pairs");
    let (nn, _) = knn_search(&sys, ts[0].points(), 2, &DistanceFunction::Dtw);
    assert_eq!(nn.len(), 2, "kNN must return k results");

    let mut report = sys.obs().report();
    report.attach_funnel(stats.filter.funnel(dita_obs::names::FUNNEL_TRIE_FILTER));
    report.attach_funnel(stats.verify.funnel());
    report.attach_critpath();

    // Self-check: the documented span hierarchy and a consistent funnel.
    for name in ["search", "join", "knn"] {
        assert!(
            report.profile.iter().any(|n| n.name == name),
            "missing top-level span `{name}`"
        );
    }
    let top_search = report
        .profile
        .iter()
        .find(|n| n.name == "search")
        .expect("search span");
    assert!(top_search.find("filter").is_some(), "missing filter span");
    assert!(top_search.find("verify").is_some(), "missing verify span");
    assert!(!report.metrics.is_empty(), "registry recorded no metrics");
    let funnel = &report.funnels[0];
    assert_eq!(
        funnel.survivors() as usize,
        stats.candidates,
        "funnel survivors must equal the search's candidate count"
    );
    let verify = &report.funnels[1];
    assert_eq!(
        (
            verify.stages[0].entered as usize,
            verify.survivors() as usize
        ),
        (stats.candidates, hits.len()),
        "the verify funnel must take the candidates to the answers"
    );
    // Critical-path analyses: one per operation, attribution complete.
    for op in ["search", "join", "knn"] {
        let cp = report
            .critpath
            .iter()
            .find(|c| c.op == op)
            .unwrap_or_else(|| panic!("missing critical-path analysis for `{op}`"));
        let pct: f64 = cp.attribution.iter().map(|s| s.pct).sum();
        assert!(
            (pct - 100.0).abs() < 0.5,
            "`{op}` attribution must sum to ~100%, got {pct:.2}%"
        );
        assert!(
            cp.makespan_sec > 0.0,
            "`{op}` critical path has no makespan"
        );
    }

    println!("{}", report.render_table());
    println!("== prometheus ==");
    println!("{}", report.to_prometheus());

    let json = report.to_json_pretty().expect("report serializes");
    let back = Report::from_json(&json).expect("report parses back");
    assert_eq!(back, report, "JSON round-trip must be lossless");

    report.write_json(&out).expect("write JSON report");
    println!("wrote {}", out.display());
}
