//! End-to-end integration: generated data → distributed index → search and
//! join, validated against brute force for every distance function.

use dita::cluster::{Cluster, ClusterConfig};
use dita::core::{join, search, BalanceStrategy, DitaConfig, DitaSystem, JoinOptions};
use dita::datagen::{beijing_like, chengdu_like, sample_queries};
use dita::distance::DistanceFunction;
use dita::index::{PivotStrategy, TrieConfig};
use dita::prelude::*;

fn small_config() -> DitaConfig {
    DitaConfig {
        ng: 4,
        trie: TrieConfig {
            k: 3,
            nl: 4,
            leaf_capacity: 4,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 0.002,
            ..TrieConfig::default()
        },
    }
}

fn functions() -> Vec<(DistanceFunction, f64)> {
    vec![
        (DistanceFunction::Dtw, 0.003),
        (DistanceFunction::Frechet, 0.002),
        (DistanceFunction::Edr { eps: 5e-4 }, 5.0),
        (
            DistanceFunction::Lcss {
                eps: 5e-4,
                delta: 3,
            },
            5.0,
        ),
        (DistanceFunction::Erp { gap: (39.9, 116.4) }, 0.01),
    ]
}

#[test]
fn search_agrees_with_brute_force_on_generated_data() {
    let dataset = beijing_like(400, 17);
    let system = DitaSystem::build(
        &dataset,
        small_config(),
        Cluster::new(ClusterConfig::with_workers(3)),
    );
    assert_eq!(system.len(), 400);

    let queries = sample_queries(&dataset, 8, 5);
    for (f, tau) in functions() {
        for q in &queries {
            let (hits, stats) = search(&system, q.points(), tau, &f);
            let expect: Vec<(u64, f64)> = dataset
                .trajectories()
                .iter()
                .filter_map(|t| {
                    let d = f.distance(t.points(), q.points());
                    (d <= tau).then_some((t.id, d))
                })
                .collect();
            assert_eq!(
                hits.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                expect.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                "{f} Q=T{} tau={tau}",
                q.id
            );
            for ((_, got), (_, want)) in hits.iter().zip(&expect) {
                assert!((got - want).abs() < 1e-9);
            }
            assert!(stats.candidates >= hits.len());
            assert!(stats.relevant_partitions <= system.num_partitions());
        }
    }
}

#[test]
fn self_join_agrees_with_brute_force() {
    let dataset = chengdu_like(250, 23);
    let cluster = Cluster::new(ClusterConfig::with_workers(3));
    let system = DitaSystem::build(&dataset, small_config(), cluster);

    for (f, tau) in functions() {
        let (pairs, stats) = join(&system, &system, tau, &f, &JoinOptions::default());
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for a in dataset.trajectories() {
            for b in dataset.trajectories() {
                if f.distance(a.points(), b.points()) <= tau {
                    expect.push((a.id, b.id));
                }
            }
        }
        expect.sort_unstable();
        let got: Vec<(u64, u64)> = pairs.iter().map(|&(a, b, _)| (a, b)).collect();
        assert_eq!(got, expect, "{f} tau={tau}");
        // A self-join examines each unordered pair once and reports it in
        // both orders, so a candidate stands behind at most two results.
        assert!(2 * stats.candidates >= pairs.len());
    }
}

#[test]
fn join_two_different_tables() {
    let left = beijing_like(150, 31);
    let mut right = beijing_like(150, 31); // same seed: guaranteed overlaps
    right.name = "right".into();
    let cluster = Cluster::new(ClusterConfig::with_workers(2));
    let lsys = DitaSystem::build(&left, small_config(), cluster.clone());
    let rsys = DitaSystem::build(&right, small_config(), cluster);

    let tau = 0.002;
    let f = DistanceFunction::Dtw;
    let (pairs, _) = join(&lsys, &rsys, tau, &f, &JoinOptions::default());
    assert!(pairs.len() >= 150, "identical tables must match themselves");
    let mut expect: Vec<(u64, u64)> = Vec::new();
    for a in left.trajectories() {
        for b in right.trajectories() {
            if f.distance(a.points(), b.points()) <= tau {
                expect.push((a.id, b.id));
            }
        }
    }
    expect.sort_unstable();
    assert_eq!(
        pairs.iter().map(|&(a, b, _)| (a, b)).collect::<Vec<_>>(),
        expect
    );
}

#[test]
fn all_balance_strategies_agree() {
    let dataset = beijing_like(200, 41);
    let cluster = Cluster::new(ClusterConfig::with_workers(4));
    let system = DitaSystem::build(&dataset, small_config(), cluster);
    let f = DistanceFunction::Dtw;
    let mut reference: Option<Vec<(u64, u64)>> = None;
    for balance in [
        BalanceStrategy::None,
        BalanceStrategy::Orientation,
        BalanceStrategy::Full,
    ] {
        let opts = JoinOptions {
            balance,
            ..JoinOptions::default()
        };
        let (pairs, _) = join(&system, &system, 0.002, &f, &opts);
        let ids: Vec<(u64, u64)> = pairs.iter().map(|&(a, b, _)| (a, b)).collect();
        match &reference {
            None => reference = Some(ids),
            Some(r) => assert_eq!(&ids, r, "{balance:?} changed the answer"),
        }
    }
}

#[test]
fn results_stable_across_cluster_sizes_and_configs() {
    let dataset = beijing_like(200, 53);
    let q = sample_queries(&dataset, 1, 1)[0].clone();
    let f = DistanceFunction::Dtw;
    let tau = 0.003;
    let mut reference: Option<Vec<u64>> = None;
    for workers in [1, 2, 5] {
        for ng in [1, 3, 6] {
            for k in [0, 2, 4] {
                let config = DitaConfig {
                    ng,
                    trie: TrieConfig {
                        k,
                        nl: 4,
                        leaf_capacity: 2,
                        strategy: PivotStrategy::InflectionPoint,
                        cell_side: 0.002,
                        ..TrieConfig::default()
                    },
                };
                let system = DitaSystem::build(
                    &dataset,
                    config,
                    Cluster::new(ClusterConfig::with_workers(workers)),
                );
                let (hits, _) = search(&system, q.points(), tau, &f);
                let ids: Vec<u64> = hits.iter().map(|&(i, _)| i).collect();
                match &reference {
                    None => reference = Some(ids),
                    Some(r) => {
                        assert_eq!(&ids, r, "workers={workers} ng={ng} k={k}")
                    }
                }
            }
        }
    }
}

#[test]
fn text_round_trip_preserves_search_results() {
    let dataset = beijing_like(100, 61);
    let mut buf = Vec::new();
    dataset.write_text(&mut buf).unwrap();
    let reloaded = Dataset::read_text("reloaded", buf.as_slice()).unwrap();
    assert_eq!(dataset.trajectories(), reloaded.trajectories());

    let cluster = Cluster::new(ClusterConfig::with_workers(2));
    let s1 = DitaSystem::build(&dataset, small_config(), cluster.clone());
    let s2 = DitaSystem::build(&reloaded, small_config(), cluster);
    let q = sample_queries(&dataset, 1, 3)[0].clone();
    let (h1, _) = search(&s1, q.points(), 0.003, &DistanceFunction::Dtw);
    let (h2, _) = search(&s2, q.points(), 0.003, &DistanceFunction::Dtw);
    assert_eq!(h1, h2);
}
