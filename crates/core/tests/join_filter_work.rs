//! The local join's work counters against the per-row probe it replaced
//! (ROADMAP aim 1: deterministic work counters, not a clock, are the
//! regression gate).
//!
//! A seeded 2 000-row self-join runs with [`BalanceStrategy::None`], so
//! every edge `(i, j)`, `i ≤ j`, ships partition `i`'s relevant rows to
//! partition `j`'s trie and the shipped sets can be rebuilt here from
//! public parts. Probing each shipped row on its own
//! ([`dita_index::TrieIndex::candidates_with_stats`]) gives what the
//! per-row local join counted; [`JoinStats::filter`] is what
//! [`dita_index::TrieIndex::probe_rows`] counted for the same rows.

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::{join, BalanceStrategy, DitaConfig, DitaSystem, JoinOptions};
use dita_distance::DistanceFunction;
use dita_index::{FilterStats, TrieConfig};
use dita_trajectory::{Dataset, Point, Trajectory};

/// xorshift64* random walks of 2–30 points over [0, 10]², ids `1..=n`.
fn seeded_rows(n: usize, seed: u64) -> Vec<Trajectory> {
    let mut state = seed | 1;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let len = 2 + (unit() * 29.0) as usize;
            let (mut x, mut y) = (unit() * 10.0, unit() * 10.0);
            let pts = (0..len)
                .map(|_| {
                    let p = Point::new(x, y);
                    x += (unit() - 0.5) * 0.2;
                    y += (unit() - 0.5) * 0.2;
                    p
                })
                .collect();
            Trajectory::new(i as u64 + 1, pts)
        })
        .collect()
}

#[test]
fn a_leaf_of_rows_at_a_time_does_a_fraction_of_the_per_row_probes_work() {
    let (tau, func) = (1.0, DistanceFunction::Dtw);
    let dataset = Dataset::new("seeded", seeded_rows(2000, 0x5eed_2402)).unwrap();
    let sys = DitaSystem::build(
        &dataset,
        DitaConfig {
            ng: 2,
            trie: TrieConfig::default(),
        },
        Cluster::new(ClusterConfig::with_workers(2)),
    );
    let opts = JoinOptions {
        balance: BalanceStrategy::None,
        ..JoinOptions::default()
    };
    let (_, stats) = join(&sys, &sys, tau, &func, &opts);
    assert_eq!(stats.filter.candidates(), stats.candidates);

    // The per-row local join over the same shipped rows.
    let mode = func.index_mode();
    let parts = &sys.partitioning().partitions;
    let mut per_row = FilterStats::default();
    let mut per_row_pairs = 0;
    for i in 0..parts.len() {
        for (j, qp) in parts.iter().enumerate().skip(i) {
            let (src, dst) = (sys.trie(i), sys.trie(j));
            for sid in 0..src.len() as u32 {
                let t = src.get(sid);
                let df = qp.mbr_first.min_dist_point(&t.first());
                let dl = qp.mbr_last.min_dist_point(&t.last());
                if !mode.endpoints_admit(df, dl, t.len(), qp.min_len, tau) {
                    continue;
                }
                let (cands, funnel) = dst.candidates_with_stats(&t.points_vec(), tau, &func);
                per_row.merge(&funnel);
                per_row_pairs += cands.iter().filter(|&&c| i != j || c >= sid).count();
            }
        }
    }
    // The same rows against the same tries: the same candidate pairs.
    assert_eq!(per_row_pairs, stats.candidates);
    // ... more of them than every row paired with itself.
    assert!(stats.candidates > 2 * sys.len(), "{stats:?}");

    let (run, row) = (stats.filter, per_row);
    assert!(
        run.members_checked * 10 <= row.members_checked * 6,
        "member tests: {} a leaf at a time, {} a row at a time",
        run.members_checked,
        row.members_checked
    );
    assert!(
        run.nodes_visited * 4 <= row.nodes_visited,
        "node tests: {} a leaf at a time, {} a row at a time",
        run.nodes_visited,
        row.nodes_visited
    );
}
