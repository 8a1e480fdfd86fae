//! Property-style equivalence: random insert/delete/compact interleavings
//! over a live [`DitaSystem`] must answer search, kNN and join queries
//! byte-identically to a from-scratch rebuild of the same logical dataset.
//!
//! Deterministic seeded xorshift streams stand in for proptest (same
//! randomized coverage, zero external dependencies): each seed drives a
//! distinct schedule of operations and maintenance calls, and equivalence
//! is asserted with `assert_eq!` on full result vectors *including* the
//! f64 distances.

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::{join, knn_search, search, CompactionPolicy, DitaConfig, DitaSystem, JoinOptions};
use dita_distance::DistanceFunction;
use dita_index::{PivotStrategy, TrieConfig};
use dita_rng::XorShift64Star as XorShift;
use dita_trajectory::{Dataset, Point, Trajectory};
use std::collections::BTreeMap;

fn random_trajectory(rng: &mut XorShift, id: u64) -> Trajectory {
    let len = 3 + (rng.next_u64() % 10) as usize;
    let (mut x, mut y) = (rng.next_f64() * 8.0, rng.next_f64() * 8.0);
    let mut pts = Vec::with_capacity(len);
    for _ in 0..len {
        x += (rng.next_f64() - 0.5) * 0.5;
        y += (rng.next_f64() - 0.5) * 0.5;
        pts.push(Point::new(x, y));
    }
    Trajectory::new(id, pts)
}

fn config() -> DitaConfig {
    DitaConfig {
        ng: 3,
        trie: TrieConfig {
            k: 2,
            nl: 2,
            leaf_capacity: 3,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 1.5,
            ..TrieConfig::default()
        },
    }
}

fn build(name: &str, trajectories: Vec<Trajectory>) -> DitaSystem {
    DitaSystem::build(
        &Dataset::new_unchecked(name, trajectories),
        config(),
        Cluster::new(ClusterConfig::with_workers(3)),
    )
}

fn rebuild_of(model: &BTreeMap<u64, Trajectory>) -> DitaSystem {
    build("rebuild", model.values().cloned().collect())
}

/// Asserts that `live` (base + deltas) and a fresh rebuild of `model`
/// agree exactly on threshold search and kNN for a batch of seeded
/// queries across distance functions.
fn assert_read_equivalence(live: &DitaSystem, model: &BTreeMap<u64, Trajectory>, seed: u64) {
    let fresh = rebuild_of(model);
    let mut rng = XorShift(seed.wrapping_mul(0xA5A5) | 1);
    let funcs = [
        DistanceFunction::Dtw,
        DistanceFunction::Frechet,
        DistanceFunction::Edr { eps: 0.25 },
    ];
    for qi in 0..5u64 {
        let q = random_trajectory(&mut rng, 900_000 + qi);
        for func in &funcs {
            for tau in [0.25, 1.0, 4.0] {
                let (mut a, _) = search(live, q.points(), tau, func);
                let (mut b, _) = search(&fresh, q.points(), tau, func);
                a.sort_by_key(|x| x.0);
                b.sort_by_key(|x| x.0);
                assert_eq!(a, b, "search seed={seed} q={qi} func={func} tau={tau}");
            }
        }
        if !model.is_empty() {
            let (a, _) = knn_search(live, q.points(), 3, &DistanceFunction::Dtw);
            let (b, _) = knn_search(&fresh, q.points(), 3, &DistanceFunction::Dtw);
            assert_eq!(a, b, "knn seed={seed} q={qi}");
        }
    }
}

#[test]
fn random_interleavings_match_rebuild() {
    for seed in [1u64, 7, 42] {
        let mut rng = XorShift(seed | 1);
        let mut model: BTreeMap<u64, Trajectory> = (1..=60u64)
            .map(|id| (id, random_trajectory(&mut rng, id)))
            .collect();
        let mut sys = build("live", model.values().cloned().collect());
        sys.set_compaction_policy(CompactionPolicy { auto: false });
        let mut next_id = 1_000u64;

        for segment in 0..8 {
            for _ in 0..10 {
                let roll = rng.next_u64() % 100;
                if roll < 60 || model.is_empty() {
                    let t = random_trajectory(&mut rng, next_id);
                    next_id += 1;
                    model.insert(t.id, t.clone());
                    sys.insert(t);
                } else if roll < 80 {
                    let keys: Vec<u64> = model.keys().copied().collect();
                    let id = keys[(rng.next_u64() as usize) % keys.len()];
                    let t = random_trajectory(&mut rng, id);
                    model.insert(id, t.clone());
                    sys.insert(t);
                } else {
                    let keys: Vec<u64> = model.keys().copied().collect();
                    let id = keys[(rng.next_u64() as usize) % keys.len()];
                    model.remove(&id);
                    assert!(sys.delete(id));
                }
            }
            // Random maintenance between segments: sometimes flush,
            // sometimes compact, sometimes leave the tail hot.
            match rng.next_u64() % 3 {
                0 => sys.flush(),
                1 => {
                    sys.compact();
                }
                _ => {}
            }
            assert_eq!(sys.len(), model.len(), "seed={seed} segment={segment}");
            assert_read_equivalence(&sys, &model, seed ^ (segment as u64) << 8);
        }

        // Terminal fold: compaction must leave a clean, still-equivalent base.
        sys.compact();
        assert!(!sys.has_deltas(), "seed={seed}: compact left deltas behind");
        assert_read_equivalence(&sys, &model, seed ^ 0xFFFF);
    }
}

#[test]
fn join_over_deltas_matches_rebuild() {
    for seed in [3u64, 11] {
        let mut rng = XorShift(seed | 1);
        let mut t_model: BTreeMap<u64, Trajectory> = (1..=40u64)
            .map(|id| (id, random_trajectory(&mut rng, id)))
            .collect();
        let q_model: BTreeMap<u64, Trajectory> = (101..=140u64)
            .map(|id| (id, random_trajectory(&mut rng, id)))
            .collect();
        let mut t_sys = build("t-live", t_model.values().cloned().collect());
        t_sys.set_compaction_policy(CompactionPolicy { auto: false });
        let q_sys = build("q-static", q_model.values().cloned().collect());

        // Mutate the left side only: inserts near the right side's extent
        // (so some join pairs genuinely involve delta rows) and deletes.
        for i in 0..25u64 {
            let roll = rng.next_u64() % 100;
            if roll < 70 {
                let t = random_trajectory(&mut rng, 2_000 + i);
                t_model.insert(t.id, t.clone());
                t_sys.insert(t);
            } else {
                let keys: Vec<u64> = t_model.keys().copied().collect();
                let id = keys[(rng.next_u64() as usize) % keys.len()];
                t_model.remove(&id);
                assert!(t_sys.delete(id));
            }
            if rng.next_u64().is_multiple_of(4) {
                t_sys.flush();
            }
        }
        assert!(t_sys.has_deltas(), "seed={seed}: schedule left no deltas");

        let t_fresh = rebuild_of(&t_model);
        let opts = JoinOptions::default();
        for func in [DistanceFunction::Dtw, DistanceFunction::Edr { eps: 0.25 }] {
            for tau in [1.0, 4.0] {
                let (a, _) = join(&t_sys, &q_sys, tau, &func, &opts);
                let (b, _) = join(&t_fresh, &q_sys, tau, &func, &opts);
                assert_eq!(a, b, "join seed={seed} func={func} tau={tau}");
                // And with the delta side as the right relation.
                let (c, _) = join(&q_sys, &t_sys, tau, &func, &opts);
                let (d, _) = join(&q_sys, &t_fresh, tau, &func, &opts);
                assert_eq!(c, d, "join-right seed={seed} func={func} tau={tau}");
            }
        }
    }
}
