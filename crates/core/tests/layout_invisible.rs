//! The trie numbers its members in leaf order, so the local id of a row
//! depends on the tree and on nothing a caller controls. That must stay
//! invisible above `dita-index`: a table built from a shuffled copy of the
//! same rows answers every search with the same ids and the same distance
//! bits as the table built from the rows in their original order.

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::{search, DitaConfig, DitaSystem};
use dita_distance::DistanceFunction;
use dita_index::{PivotStrategy, TrieConfig};
use dita_trajectory::{Dataset, Point, Trajectory};

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
fn random_trajectories(n: usize, rng: &mut XorShift) -> Vec<Trajectory> {
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

fn build_system(ts: Vec<Trajectory>) -> DitaSystem {
    DitaSystem::build(
        &Dataset::new_unchecked("rows", ts),
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
        Cluster::new(ClusterConfig::with_workers(2)),
    )
}

#[test]
fn search_answers_do_not_depend_on_the_input_order() {
    let mut rng = XorShift(0x5eed_1904);
    let rows = random_trajectories(300, &mut rng);
    let mut shuffled = rows.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    assert_ne!(
        rows.iter().map(|t| t.id).collect::<Vec<_>>(),
        shuffled.iter().map(|t| t.id).collect::<Vec<_>>()
    );
    let (plain, mixed) = (build_system(rows.clone()), build_system(shuffled));

    let funcs = [
        (DistanceFunction::Dtw, [0.5, 2.5, 9.0]),
        (DistanceFunction::Frechet, [0.2, 0.8, 2.0]),
        (DistanceFunction::Edr { eps: 0.3 }, [1.0, 6.0, 20.0]),
        (
            DistanceFunction::Lcss { eps: 0.3, delta: 2 },
            [1.0, 6.0, 20.0],
        ),
        (DistanceFunction::Erp { gap: (4.0, 4.0) }, [2.0, 20.0, 60.0]),
    ];
    let mut answers = 0usize;
    for (func, taus) in &funcs {
        for q in [&rows[7], &rows[131], &rows[298]] {
            for &tau in taus {
                let (a, _) = search(&plain, q.points(), tau, func);
                let (b, _) = search(&mixed, q.points(), tau, func);
                let bits = |hits: &[(u64, f64)]| -> Vec<(u64, u64)> {
                    hits.iter().map(|&(id, d)| (id, d.to_bits())).collect()
                };
                assert_eq!(bits(&a), bits(&b), "{func} Q=T{} tau={tau}", q.id);
                answers += a.len();
            }
        }
    }
    assert!(
        answers > 45,
        "the thresholds must reach past the query itself"
    );
}
