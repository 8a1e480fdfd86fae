//! Randomized-but-deterministic ingestion soak: a seeded stream of
//! insert/overwrite/delete operations runs against a live [`DitaSystem`],
//! with flushes and compactions sprinkled in, and the overlaid index is
//! periodically checked for equivalence against (a) a plain `BTreeMap`
//! reference model and (b) a from-scratch rebuild of the same logical
//! dataset. Any divergence prints the failing query and exits non-zero.
//!
//! Usage: `ingest_soak [--ops N] [--seed S] [--check-every K]`
//! Defaults: 400 ops, seed 42, check every 100 ops. Runtime is bounded by
//! the op count; the same seed always produces the same op stream.

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::{knn_search, search, CompactionPolicy, DitaConfig, DitaSystem};
use dita_distance::DistanceFunction;
use dita_index::{PivotStrategy, TrieConfig};
use dita_rng::XorShift64Star as XorShift;
use dita_trajectory::{Dataset, Point, Trajectory};
use std::collections::BTreeMap;

fn walk(rng: &mut XorShift, len: usize, x0: f64, y0: f64) -> Vec<Point> {
    let mut pts = Vec::with_capacity(len);
    let (mut x, mut y) = (x0, y0);
    for _ in 0..len {
        x += (rng.next_f64() - 0.5) * 0.2;
        y += (rng.next_f64() - 0.5) * 0.2;
        pts.push(Point::new(x, y));
    }
    pts
}

fn random_trajectory(rng: &mut XorShift, id: u64) -> Trajectory {
    let len = 4 + (rng.next_u64() % 13) as usize;
    let (x0, y0) = (rng.next_f64() * 10.0, rng.next_f64() * 10.0);
    Trajectory::new(id, walk(rng, len, x0, y0))
}

fn config() -> DitaConfig {
    DitaConfig {
        ng: 4,
        trie: TrieConfig {
            k: 2,
            nl: 3,
            leaf_capacity: 4,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 1.0,
            ..TrieConfig::default()
        },
    }
}

fn rebuild(model: &BTreeMap<u64, Trajectory>) -> DitaSystem {
    DitaSystem::build(
        &Dataset::new_unchecked("soak-rebuild", model.values().cloned().collect()),
        config(),
        Cluster::new(ClusterConfig::with_workers(3)),
    )
}

/// Compares live system vs rebuild on searches and kNN; returns the number
/// of mismatches (also printed).
fn check(
    live: &DitaSystem,
    model: &BTreeMap<u64, Trajectory>,
    rng: &mut XorShift,
    op: usize,
) -> usize {
    let mut mismatches = 0;

    // Structural: the live view must list exactly the model's rows.
    let live_ids: Vec<u64> = {
        let mut ids = Vec::new();
        live.for_each_live(|t| ids.push(t.id));
        ids.sort_unstable();
        ids
    };
    let model_ids: Vec<u64> = model.keys().copied().collect();
    if live_ids != model_ids {
        eprintln!(
            "MISMATCH at op {op}: live ids ({} rows) != model ids ({} rows)",
            live_ids.len(),
            model_ids.len()
        );
        mismatches += 1;
    }

    let fresh = rebuild(model);
    let funcs = [
        DistanceFunction::Dtw,
        DistanceFunction::Frechet,
        DistanceFunction::Edr { eps: 0.5 },
    ];
    for qi in 0..4 {
        let q = random_trajectory(rng, 999_000 + qi);
        for func in &funcs {
            for tau in [0.5, 2.0, 8.0] {
                let (mut a, _) = search(live, q.points(), tau, func);
                let (mut b, _) = search(&fresh, q.points(), tau, func);
                a.sort_by_key(|x| x.0);
                b.sort_by_key(|x| x.0);
                if a != b {
                    eprintln!(
                        "MISMATCH at op {op}: search({func}, tau={tau}, q={}) live {:?} != rebuild {:?}",
                        q.id, a, b
                    );
                    mismatches += 1;
                }
            }
        }
        if !model.is_empty() {
            let (a, _) = knn_search(live, q.points(), 3, &DistanceFunction::Dtw);
            let (b, _) = knn_search(&fresh, q.points(), 3, &DistanceFunction::Dtw);
            if a != b {
                eprintln!(
                    "MISMATCH at op {op}: knn(q={}) live {:?} != rebuild {:?}",
                    q.id, a, b
                );
                mismatches += 1;
            }
        }
    }
    mismatches
}

fn main() {
    let mut ops = 400usize;
    let mut seed = 42u64;
    let mut check_every = 100usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut grab = || args.next().expect("flag needs a value");
        match a.as_str() {
            "--ops" => ops = grab().parse().expect("--ops"),
            "--seed" => seed = grab().parse().expect("--seed"),
            "--check-every" => check_every = grab().parse().expect("--check-every"),
            other => panic!(
                "unknown flag {other}; usage: ingest_soak [--ops N] [--seed S] [--check-every K]"
            ),
        }
    }
    let check_every = check_every.max(1);

    let mut rng = XorShift(seed | 1);
    let mut model: BTreeMap<u64, Trajectory> = (1..=300u64)
        .map(|id| (id, random_trajectory(&mut rng, id)))
        .collect();
    let mut sys = DitaSystem::build(
        &Dataset::new_unchecked("soak", model.values().cloned().collect()),
        config(),
        Cluster::new(ClusterConfig::with_workers(3)),
    );
    // Manual compaction: the soak decides when to flush/compact so the op
    // stream exercises long-lived tails, segments and tombstones.
    sys.set_compaction_policy(CompactionPolicy { auto: false });
    let mut next_id = 10_000u64;
    let mut total_mismatches = 0usize;

    println!("ingest_soak: {ops} ops, seed {seed}, check every {check_every}");
    for op in 1..=ops {
        let roll = rng.next_u64() % 100;
        if roll < 60 || model.is_empty() {
            // Insert a brand-new trajectory.
            let t = random_trajectory(&mut rng, next_id);
            next_id += 1;
            model.insert(t.id, t.clone());
            sys.insert(t);
        } else if roll < 80 {
            // Overwrite a random existing id with new geometry.
            let keys: Vec<u64> = model.keys().copied().collect();
            let id = keys[(rng.next_u64() as usize) % keys.len()];
            let t = random_trajectory(&mut rng, id);
            model.insert(id, t.clone());
            sys.insert(t);
        } else {
            // Delete a random existing id.
            let keys: Vec<u64> = model.keys().copied().collect();
            let id = keys[(rng.next_u64() as usize) % keys.len()];
            model.remove(&id);
            assert!(sys.delete(id), "delete of live id {id} must report true");
        }
        // Sprinkle maintenance: ~10% flush, ~4% compact.
        let m = rng.next_u64() % 100;
        if m < 10 {
            sys.flush();
        } else if m < 14 {
            sys.compact();
        }
        if op % check_every == 0 {
            let miss = check(&sys, &model, &mut rng, op);
            total_mismatches += miss;
            println!(
                "  op {op:>6}: {} rows, delta ratio {:.3}, {} mismatches",
                model.len(),
                sys.delta_ratio(),
                miss
            );
        }
    }

    // Final fold: compact everything and re-check from a clean base.
    sys.compact();
    if sys.has_deltas() {
        eprintln!("MISMATCH: deltas survive a full compact");
        total_mismatches += 1;
    }
    total_mismatches += check(&sys, &model, &mut rng, ops + 1);
    let stats = sys.ingest_stats();
    println!(
        "done: {} rows, {} inserts, {} deletes, {} flushes, {} compactions, {} repartitions",
        model.len(),
        stats.inserts,
        stats.deletes,
        stats.flushes,
        stats.compactions,
        stats.repartitions
    );
    if total_mismatches > 0 {
        eprintln!("FAILED: {total_mismatches} mismatches");
        std::process::exit(1);
    }
    println!("OK: live index equivalent to rebuild at every checkpoint");
}
