//! The self-join's symmetric plan against the general two-table path.
//!
//! `join(&sys, &sys)` plans the partition pairs `i ≤ j` only, emits every
//! verified pair in both orders and answers `(a, a)` on a diagonal edge
//! without a kernel call. `join(&sys, &twin)` — `twin` a second
//! [`DitaSystem`] built from the same rows — takes none of those shortcuts:
//! it is the code the two-table join has always run. Both must return the
//! same triples, distance bits included, whatever the function, the
//! balancing strategy, the planner's thread count, the replica striping and
//! the delta state; and the identity shortcut is licensed separately, by
//! the kernels answering `(a, a)` with `+0.0` themselves.

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::verify::CandidateView;
use dita_core::{
    join, verify_pair_soa, BalanceStrategy, CompactionPolicy, DitaConfig, DitaSystem, JoinOptions,
    QueryContext,
};
use dita_distance::kernel::Scratch;
use dita_distance::DistanceFunction;
use dita_index::{IndexedTrajectory, PivotStrategy, TrieConfig};
use dita_trajectory::{Dataset, Point, Trajectory};
use proptest::prelude::*;

const FUNCS: [DistanceFunction; 5] = [
    DistanceFunction::Dtw,
    DistanceFunction::Frechet,
    DistanceFunction::Edr { eps: 0.25 },
    DistanceFunction::Lcss {
        eps: 0.25,
        delta: 2,
    },
    DistanceFunction::Erp { gap: (0.0, 0.0) },
];

struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Short random walks in a 6×6 square: dense enough that most partitions
/// hold partners of each other's rows.
fn random_trajectory(rng: &mut XorShift, id: u64) -> Trajectory {
    let len = 2 + (rng.next_u64() % 8) as usize;
    let (mut x, mut y) = (rng.next_f64() * 6.0, rng.next_f64() * 6.0);
    let mut pts = Vec::with_capacity(len);
    for _ in 0..len {
        x += (rng.next_f64() - 0.5) * 0.4;
        y += (rng.next_f64() - 0.5) * 0.4;
        pts.push(Point::new(x, y));
    }
    Trajectory::new(id, pts)
}

fn build(rows: &[Trajectory]) -> DitaSystem {
    let mut sys = DitaSystem::build(
        &Dataset::new_unchecked("sym", rows.to_vec()),
        DitaConfig {
            ng: 3,
            trie: TrieConfig {
                k: 2,
                nl: 2,
                leaf_capacity: 3,
                strategy: PivotStrategy::NeighborDistance,
                cell_side: 1.0,
                ..TrieConfig::default()
            },
        },
        Cluster::new(ClusterConfig::with_workers(3)),
    );
    sys.set_compaction_policy(CompactionPolicy {
        auto: false,
        ..CompactionPolicy::default()
    });
    sys
}

/// Leaves `sys` with a flushed segment, unflushed inserts (one of them
/// overwriting a base row) and tombstones on base and segment rows.
fn dirty(sys: &mut DitaSystem, rng_seed: u64) {
    let mut rng = XorShift(rng_seed);
    for id in 1_000..1_012u64 {
        sys.insert(random_trajectory(&mut rng, id));
    }
    sys.flush();
    for id in 2_000..2_010u64 {
        sys.insert(random_trajectory(&mut rng, id));
    }
    sys.insert(random_trajectory(&mut rng, 7));
    for id in [3u64, 19, 44, 1_004, 2_001] {
        assert!(sys.delete(id));
    }
    assert!(sys.deltas().has_deltas());
}

/// Function-appropriate thresholds: a tight and a loose one.
fn taus(func: &DistanceFunction) -> [f64; 2] {
    match func {
        DistanceFunction::Dtw | DistanceFunction::Erp { .. } => [0.8, 3.0],
        DistanceFunction::Frechet => [0.4, 1.2],
        _ => [1.0, 3.0],
    }
}

fn assert_self_equals_twin(sys: &DitaSystem, twin: &DitaSystem, label: &str) {
    let rows = sys.live_trajectories();
    let mut replicated = false;
    for func in &FUNCS {
        for tau in taus(func) {
            // Neither form may lose a pair either: the nested loop's id
            // pairs (its distances come from the point-array kernels).
            let mut truth = Vec::new();
            for a in &rows {
                for b in &rows {
                    if func.distance(a.points(), b.points()) <= tau {
                        truth.push((a.id, b.id));
                    }
                }
            }
            for balance in [
                BalanceStrategy::None,
                BalanceStrategy::Orientation,
                BalanceStrategy::Full,
            ] {
                for plan_threads in [1usize, 4] {
                    let opts = JoinOptions {
                        balance,
                        plan_threads,
                        // Low enough that several nodes are divided, so the
                        // diagonal's `c < sid` rule meets replica striping.
                        division_percentile: 0.3,
                        ..JoinOptions::default()
                    };
                    let at = format!("{label} {func} tau={tau} {balance:?} threads={plan_threads}");
                    let (own, own_stats) = join(sys, sys, tau, func, &opts);
                    let (general, general_stats) = join(sys, twin, tau, func, &opts);
                    let bits = |r: &[(u64, u64, f64)]| -> Vec<(u64, u64, u64)> {
                        r.iter().map(|&(t, q, d)| (t, q, d.to_bits())).collect()
                    };
                    assert_eq!(bits(&own), bits(&general), "{at}");
                    let ids: Vec<(u64, u64)> = own.iter().map(|&(t, q, _)| (t, q)).collect();
                    assert_eq!(ids, truth, "{at}: against the nested loop");
                    assert_eq!(own_stats.results, general_stats.results, "{at}");
                    assert!(own_stats.edges <= general_stats.edges, "{at}");
                    assert!(
                        own_stats.shipped_bytes <= general_stats.shipped_bytes,
                        "{at}"
                    );
                    assert!(own_stats.candidates <= general_stats.candidates, "{at}");
                    if balance == BalanceStrategy::Full {
                        replicated |= own_stats.replicas > 0;
                    } else {
                        assert_eq!(own_stats.replicas, 0, "{at}");
                    }
                }
            }
        }
    }
    assert!(replicated, "{label}: no plan divided a node");
}

fn table(seed: u64) -> Vec<Trajectory> {
    let mut rng = XorShift(seed);
    (1..=90u64)
        .map(|id| random_trajectory(&mut rng, id))
        .collect()
}

#[test]
fn self_join_equals_two_table_join_on_a_clean_table() {
    let rows = table(0x5EED);
    assert_self_equals_twin(&build(&rows), &build(&rows), "clean");
}

#[test]
fn self_join_equals_two_table_join_over_deltas_and_tombstones() {
    let rows = table(0xD17A);
    let (mut sys, mut twin) = (build(&rows), build(&rows));
    dirty(&mut sys, 99);
    dirty(&mut twin, 99);
    assert_self_equals_twin(&sys, &twin, "dirty");
}

fn arb_points() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..12)
        .prop_map(|coords| coords.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The licence for the diagonal's identity shortcut: the verification
    /// pipeline itself answers `(a, a)` with `+0.0`, for every function and
    /// every threshold a join can run with.
    #[test]
    fn a_row_verifies_against_itself_at_exactly_zero(
        points in arb_points(),
        tau in 0.0f64..20.0,
        eps in 0.0f64..2.0,
        delta in 0usize..4,
        gap in (-10.0f64..10.0, -10.0f64..10.0),
        k in 0usize..4,
    ) {
        let row = IndexedTrajectory::new(
            Trajectory::new(1, points.clone()),
            k,
            PivotStrategy::NeighborDistance,
            1.0,
        );
        let ctx = QueryContext::new(&points, 1.0);
        let mut scratch = Scratch::new();
        for func in [
            DistanceFunction::Dtw,
            DistanceFunction::Frechet,
            DistanceFunction::Edr { eps },
            DistanceFunction::Lcss { eps, delta },
            DistanceFunction::Erp { gap },
        ] {
            for tau in [0.0, tau] {
                let got = verify_pair_soa(CandidateView::from(&row), &ctx, tau, &func, &mut scratch);
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    Some(0.0f64.to_bits()),
                    "{} tau={}",
                    func,
                    tau
                );
            }
        }
    }
}
