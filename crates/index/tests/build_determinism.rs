//! Parallel index construction must be invisible in the built index: for
//! any thread count the trie's node arena, member assignment and candidate
//! sets are identical — byte for byte — to the serial build, and the STR
//! partitioner produces the same partitions. Host parallelism is a speed
//! knob, never a semantics knob.

use dita_distance::DistanceFunction;
use dita_index::{str_partitioning, str_partitioning_par, PivotStrategy, TrieConfig, TrieIndex};
use dita_trajectory::{Point, Trajectory};

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
            let len = 1 + (rng.next_u64() % 40) as usize;
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

fn configs() -> Vec<TrieConfig> {
    vec![
        // Full K+2 depth, no early leaves.
        TrieConfig {
            k: 3,
            nl: 3,
            leaf_capacity: 0,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 1.0,
            ..TrieConfig::default()
        },
        // Early leaf stops plus a different pivot strategy.
        TrieConfig {
            k: 4,
            nl: 4,
            leaf_capacity: 8,
            strategy: PivotStrategy::InflectionPoint,
            cell_side: 0.5,
            ..TrieConfig::default()
        },
        // Degenerate: no pivots, wide fanout.
        TrieConfig {
            k: 0,
            nl: 8,
            leaf_capacity: 4,
            strategy: PivotStrategy::FirstLastDistance,
            cell_side: 2.0,
            ..TrieConfig::default()
        },
    ]
}

/// Both fingerprints of an index: the Debug rendering (covers every field
/// of the arena in declaration order) and the serialized JSON (covers the
/// on-disk bytes a snapshot would contain). The `build_threads` knob is
/// masked out of the Debug string — it is runtime configuration carried in
/// the stored config, not index content, and serialization skips it.
fn fingerprint(index: &TrieIndex, threads: usize) -> (String, String) {
    (
        format!("{index:?}").replace(&format!("build_threads: {threads}"), "build_threads: _"),
        serde_json::to_string(index).expect("serialize"),
    )
}

#[test]
fn parallel_build_is_byte_identical_to_serial() {
    let ts = random_trajectories(150, 0x5eed_3003);
    for (ci, base) in configs().into_iter().enumerate() {
        let serial = TrieIndex::build(
            ts.clone(),
            TrieConfig {
                build_threads: 1,
                ..base
            },
        );
        let (serial_dbg, serial_json) = fingerprint(&serial, 1);
        for threads in [2usize, 4, 8] {
            let parallel = TrieIndex::build(
                ts.clone(),
                TrieConfig {
                    build_threads: threads,
                    ..base
                },
            );
            let (par_dbg, par_json) = fingerprint(&parallel, threads);
            assert_eq!(serial_dbg, par_dbg, "config #{ci} threads={threads}");
            assert_eq!(serial_json, par_json, "config #{ci} threads={threads}");
        }
    }
}

#[test]
fn candidate_sets_identical_across_build_threads() {
    let ts = random_trajectories(120, 0x5eed_4004);
    let queries = [ts[5].clone(), ts[57].clone(), ts[111].clone()];
    let funcs = [
        DistanceFunction::Dtw,
        DistanceFunction::Frechet,
        DistanceFunction::Edr { eps: 0.3 },
        DistanceFunction::Lcss { eps: 0.3, delta: 2 },
    ];
    let base = configs()[0];
    let serial = TrieIndex::build(
        ts.clone(),
        TrieConfig {
            build_threads: 1,
            ..base
        },
    );
    for threads in [2usize, 4, 8] {
        let parallel = TrieIndex::build(
            ts.clone(),
            TrieConfig {
                build_threads: threads,
                ..base
            },
        );
        for q in &queries {
            for f in &funcs {
                let tau = match f {
                    DistanceFunction::Edr { .. } | DistanceFunction::Lcss { .. } => 6.0,
                    _ => 2.5,
                };
                assert_eq!(
                    serial.candidates(q.points(), tau, f),
                    parallel.candidates(q.points(), tau, f),
                    "threads={threads} {f} Q=T{}",
                    q.id
                );
            }
        }
    }
}

#[test]
fn parallel_partitioning_matches_serial() {
    let ts = random_trajectories(200, 0x5eed_5005);
    for ng in [1usize, 2, 4, 7] {
        let serial = str_partitioning(&ts, ng);
        let serial_dbg = format!("{serial:?}");
        for threads in [2usize, 4, 8] {
            let parallel = str_partitioning_par(&ts, ng, threads);
            assert_eq!(
                serial_dbg,
                format!("{parallel:?}"),
                "ng={ng} threads={threads}"
            );
        }
    }
}

#[test]
fn cached_size_bytes_matches_recomputation() {
    let ts = random_trajectories(40, 0x5eed_6006);
    let index = TrieIndex::build(ts.clone(), configs()[1]);
    assert_eq!(index.len(), ts.len());
    // Local ids follow the trie's leaf order, not the input's: match each
    // entry to its source row by trajectory id (`random_trajectories`
    // numbers row `i` as `i + 1`).
    for e in index.entries() {
        let t = &ts[e.id() as usize - 1];
        assert_eq!(e.size_bytes(), e.to_trajectory().size_bytes());
        assert_eq!(e.size_bytes(), t.size_bytes());
    }
}
