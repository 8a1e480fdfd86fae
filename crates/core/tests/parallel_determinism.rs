//! Parallel execution must be invisible in the results: the same system
//! and query produce identical `(id, distance)` vectors — bit-equal
//! distances, same order — whatever the worker count and however often the
//! search is repeated.

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::{search, DitaConfig, DitaSystem};
use dita_distance::DistanceFunction;
use dita_index::{PivotStrategy, TrieConfig};
use dita_trajectory::{Dataset, Point, Trajectory, TrajectoryId};

/// xorshift64* — deterministic, dependency-free randomness.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Random-walk trajectories spread over a [0, 8]² region.
fn random_trajectories(n: usize, seed: u64) -> Vec<Trajectory> {
    let mut rng = XorShift(seed | 1);
    (0..n)
        .map(|i| {
            let len = 8 + (rng.next_u64() % 33) as usize;
            let mut x = rng.next_f64() * 8.0;
            let mut y = rng.next_f64() * 8.0;
            let mut pts = Vec::with_capacity(len);
            for _ in 0..len {
                pts.push(Point::new(x, y));
                x += (rng.next_f64() - 0.5) * 0.6;
                y += (rng.next_f64() - 0.5) * 0.6;
            }
            Trajectory::new(i as u64 + 1, pts)
        })
        .collect()
}

fn build_system(ts: &[Trajectory], workers: usize) -> DitaSystem {
    let dataset = Dataset::new_unchecked("det", ts.to_vec());
    DitaSystem::build(
        &dataset,
        DitaConfig {
            ng: 4,
            trie: TrieConfig {
                k: 3,
                nl: 3,
                leaf_capacity: 4,
                strategy: PivotStrategy::NeighborDistance,
                cell_side: 1.0,
                ..TrieConfig::default()
            },
        },
        Cluster::new(ClusterConfig::with_workers(workers)),
    )
}

#[test]
fn results_identical_across_workers_and_repeats() {
    let ts = random_trajectories(120, 0x5eed_2026);
    let funcs = [
        DistanceFunction::Dtw,
        DistanceFunction::Frechet,
        DistanceFunction::Edr { eps: 0.3 },
        DistanceFunction::Lcss { eps: 0.3, delta: 2 },
        DistanceFunction::Erp { gap: (4.0, 4.0) },
    ];
    let queries = [&ts[3], &ts[47], &ts[101]];

    for func in &funcs {
        for q in queries {
            let tau = match func {
                DistanceFunction::Edr { .. } | DistanceFunction::Lcss { .. } => 6.0,
                _ => 2.5,
            };
            // Baseline: one worker.
            let baseline: Vec<(TrajectoryId, f64)> =
                search(&build_system(&ts, 1), q.points(), tau, func).0;
            assert!(
                !baseline.is_empty(),
                "{func} Q=T{}: baseline found nothing — test is vacuous",
                q.id
            );

            for workers in [1usize, 4, 8] {
                let sys = build_system(&ts, workers);
                for repeat in 0..2 {
                    let got = search(&sys, q.points(), tau, func).0;
                    // Bit-equal distances, identical order.
                    assert_eq!(
                        got, baseline,
                        "{func} Q=T{} workers={workers} repeat={repeat}",
                        q.id
                    );
                }
            }
        }
    }
}
