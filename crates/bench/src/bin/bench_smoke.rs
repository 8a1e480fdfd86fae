//! Smoke benchmark: one fast, dependency-light run that produces a
//! `results/BENCH_*.json` artifact (default `results/BENCH_PR7.json`,
//! override with `--out <path>`). The artifact always lands where `--out`
//! points — never in the repo root.
//!
//! Unlike the Criterion benches this uses plain `Instant` timing (coarser,
//! but runs in seconds). The artifact is emitted through the `dita-obs`
//! [`BenchSmokeReport`] schema (serializer-produced, golden-file tested)
//! rather than hand-concatenated JSON. Data is seeded xorshift random
//! walks — deterministic and free of any external dependency.
//!
//! Sections:
//! 1. kernels — AoS threshold kernels vs SoA band-pruned kernels, per
//!    function, on dissimilar pairs (pruning-bound) and similar pairs
//!    (layout-bound).
//! 2. verified-pairs/sec — mixed DTW workload through the SoA kernel.
//! 3. search p50 — end-to-end `search_with_options` latency, serial and
//!    with 4 verify threads.
//! 4. thread scaling — `verify_candidates` at 1/2/4 rayon threads. Flat on
//!    a single-CPU host; near-linear where cores exist.
//! 5. cold path — trie index build wall clock at 1/2/4 build threads and
//!    join planning at 1/2/4 plan threads (the PR-3 parallelized paths).
//! 6. ingest — incremental delta ingestion (insert + flush) vs a
//!    from-scratch rebuild over a sweep of delta ratios, reporting the
//!    crossover ratio where rebuilding becomes the better deal.
//! 7. memory — index footprint of the succinct flat layout vs the pointer
//!    reference layout over the same table (bytes, bytes/trajectory,
//!    reduction ratio) plus a probe-throughput cross-check of the two.
//! 8. planning a/b — a skewed self-join run twice: once priced by the
//!    sampled estimates alone, once replanned with the first run's
//!    observed per-node costs (`JoinOptions::observed_costs`). The
//!    observed-cost plan divides the underpriced hot partition and must
//!    not lose to the estimated plan.
//! 9. instrumented pass — after all timing, one search runs with tracing
//!    attached; its profile tree and filter funnel ride along in the
//!    artifact's `search_profile` field.

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::{
    join, search_with_options, verify_candidates, CompactionPolicy, DitaConfig, DitaSystem,
    JoinOptions, JoinStats, QueryContext, SearchOptions,
};
use dita_distance::{
    dtw_double_direction, dtw_soa, dtw_threshold, edr_soa, edr_threshold, erp_soa, erp_threshold,
    frechet_soa, frechet_threshold, lcss_distance_threshold, lcss_soa, DistanceFunction, Scratch,
};
use dita_index::{PivotStrategy, PointerTrie, TrieConfig, TrieIndex};
use dita_obs::bench_report::{
    BenchSmokeReport, BuildScalingPoint, ColdPathScaling, IngestPoint, IngestScaling,
    KernelMeasurement, MemoryDensity, MemoryRepr, PlanArm, PlanningAb, SearchP50Ms,
    ThreadScalingPoint, BENCH_SCHEMA,
};
use dita_obs::Obs;
use dita_trajectory::{Dataset, Point, SoaPoints, Trajectory};
use std::path::Path;
use std::time::Instant;

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

fn walk(rng: &mut XorShift, len: usize, x0: f64, y0: f64) -> Vec<Point> {
    let mut pts = Vec::with_capacity(len);
    let (mut x, mut y) = (x0, y0);
    for _ in 0..len {
        x += (rng.next_f64() - 0.5) * 0.01;
        y += (rng.next_f64() - 0.5) * 0.01;
        pts.push(Point::new(x, y));
    }
    pts
}

/// Mean ns/call after a warmup pass; `f` returns a value to keep the
/// optimizer honest.
fn time_ns<F: FnMut() -> u64>(mut f: F, iters: usize) -> f64 {
    let mut sink = 0u64;
    for _ in 0..iters / 10 + 1 {
        sink = sink.wrapping_add(f());
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        sink = sink.wrapping_add(f());
    }
    let dt = t0.elapsed().as_nanos() as f64 / iters as f64;
    assert!(sink != u64::MAX, "sink");
    dt
}

fn jitter_seed(t: &[Point]) -> u64 {
    (t.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

fn main() {
    let mut rng = XorShift(0x5EED);
    const LEN: usize = 64;
    const NPAIR: usize = 64;

    // Dissimilar pairs: independent walks far apart → tight τ abandons
    // early. Similar pairs: jittered copies → the DP must complete.
    let dis: Vec<(Vec<Point>, Vec<Point>)> = (0..NPAIR)
        .map(|_| (walk(&mut rng, LEN, 0.0, 0.0), walk(&mut rng, LEN, 1.0, 1.0)))
        .collect();
    let sim: Vec<(Vec<Point>, Vec<Point>)> = (0..NPAIR)
        .map(|_| {
            let t = walk(&mut rng, LEN, 0.0, 0.0);
            let mut r2 = XorShift(jitter_seed(&t));
            let q = t
                .iter()
                .map(|p| {
                    Point::new(
                        p.x + (r2.next_f64() - 0.5) * 0.002,
                        p.y + (r2.next_f64() - 0.5) * 0.002,
                    )
                })
                .collect();
            (t, q)
        })
        .collect();

    let soa = |ps: &[(Vec<Point>, Vec<Point>)]| -> Vec<(SoaPoints, SoaPoints)> {
        ps.iter()
            .map(|(a, b)| (SoaPoints::from_points(a), SoaPoints::from_points(b)))
            .collect()
    };
    let (dis_soa, sim_soa) = (soa(&dis), soa(&sim));

    let tau_dis = 0.05; // far below the dissimilar pairs' true DTW
    let tau_sim = 0.5; // comfortably above the similar pairs' DTW
    let iters = 2000;
    let mut kernels = Vec::new();
    let mut scratch = Scratch::new();

    macro_rules! bench_pair {
        ($name:expr, $aos:expr, $soacall:expr) => {{
            let aos_ns = time_ns($aos, iters);
            let soa_ns = time_ns($soacall, iters);
            println!(
                "{:>32}  aos {:>10.0} ns  soa {:>10.0} ns  speedup {:>6.2}x",
                $name,
                aos_ns,
                soa_ns,
                aos_ns / soa_ns
            );
            kernels.push(($name, aos_ns, soa_ns));
        }};
    }

    macro_rules! sum_over {
        ($pairs:expr, $call:expr) => {
            || {
                let mut h = 0u64;
                for (a, b) in $pairs {
                    h = h.wrapping_add($call(a, b) as u64);
                }
                h
            }
        };
    }

    bench_pair!(
        "dtw/dissimilar/early-abandon",
        sum_over!(&dis, |a: &Vec<Point>, b: &Vec<Point>| dtw_threshold(
            a, b, tau_dis
        )
        .is_some()),
        sum_over!(&dis_soa, |a: &SoaPoints, b: &SoaPoints| dtw_soa(
            a.view(),
            b.view(),
            tau_dis,
            &mut scratch
        )
        .is_some())
    );
    bench_pair!(
        "dtw/dissimilar/double-direction",
        sum_over!(&dis, |a: &Vec<Point>, b: &Vec<Point>| dtw_double_direction(
            a, b, tau_dis
        )
        .is_some()),
        sum_over!(&dis_soa, |a: &SoaPoints, b: &SoaPoints| dtw_soa(
            a.view(),
            b.view(),
            tau_dis,
            &mut scratch
        )
        .is_some())
    );
    bench_pair!(
        "dtw/similar/full-verify",
        sum_over!(&sim, |a: &Vec<Point>, b: &Vec<Point>| dtw_double_direction(
            a, b, tau_sim
        )
        .is_some()),
        sum_over!(&sim_soa, |a: &SoaPoints, b: &SoaPoints| dtw_soa(
            a.view(),
            b.view(),
            tau_sim,
            &mut scratch
        )
        .is_some())
    );
    bench_pair!(
        "frechet/dissimilar",
        sum_over!(&dis, |a: &Vec<Point>, b: &Vec<Point>| frechet_threshold(
            a, b, tau_dis
        )
        .is_some()),
        sum_over!(&dis_soa, |a: &SoaPoints, b: &SoaPoints| frechet_soa(
            a.view(),
            b.view(),
            tau_dis,
            &mut scratch
        )
        .is_some())
    );
    bench_pair!(
        "frechet/similar",
        sum_over!(&sim, |a: &Vec<Point>, b: &Vec<Point>| frechet_threshold(
            a, b, tau_sim
        )
        .is_some()),
        sum_over!(&sim_soa, |a: &SoaPoints, b: &SoaPoints| frechet_soa(
            a.view(),
            b.view(),
            tau_sim,
            &mut scratch
        )
        .is_some())
    );
    bench_pair!(
        "edr/dissimilar",
        sum_over!(&dis, |a: &Vec<Point>, b: &Vec<Point>| edr_threshold(
            a, b, 0.005, 8.0
        )
        .is_some()),
        sum_over!(&dis_soa, |a: &SoaPoints, b: &SoaPoints| edr_soa(
            a.view(),
            b.view(),
            0.005,
            8.0,
            &mut scratch
        )
        .is_some())
    );
    bench_pair!(
        "erp/dissimilar",
        sum_over!(&dis, |a: &Vec<Point>, b: &Vec<Point>| erp_threshold(
            a,
            b,
            &Point::new(0.0, 0.0),
            tau_dis
        )
        .is_some()),
        sum_over!(&dis_soa, |a: &SoaPoints, b: &SoaPoints| erp_soa(
            a.view(),
            b.view(),
            0.0,
            0.0,
            tau_dis,
            &mut scratch
        )
        .is_some())
    );
    bench_pair!(
        "lcss/similar",
        sum_over!(&sim, |a: &Vec<Point>, b: &Vec<Point>| {
            lcss_distance_threshold(a, b, 0.005, 3, 16.0).is_some()
        }),
        sum_over!(&sim_soa, |a: &SoaPoints, b: &SoaPoints| lcss_soa(
            a.view(),
            b.view(),
            0.005,
            3,
            16.0,
            &mut scratch
        )
        .is_some())
    );

    // Verified-pairs/sec with the SoA kernel, mixed workload.
    let mixed: Vec<&(SoaPoints, SoaPoints)> = dis_soa.iter().chain(sim_soa.iter()).collect();
    let t0 = Instant::now();
    let reps = 4000usize;
    let mut hits = 0u64;
    for _ in 0..reps {
        for (a, b) in &mixed {
            hits = hits
                .wrapping_add(dtw_soa(a.view(), b.view(), tau_sim, &mut scratch).is_some() as u64);
        }
    }
    let pairs_per_sec = (reps * mixed.len()) as f64 / t0.elapsed().as_secs_f64();
    println!("verified-pairs/sec (dtw soa, mixed): {pairs_per_sec:.0} (hits {hits})");

    // End-to-end search latency over a 2000-trajectory synthetic city.
    let mut rng = XorShift(0xC17F);
    let ts: Vec<Trajectory> = (0..2000)
        .map(|i| {
            let len = 24 + (rng.next_u64() % 41) as usize;
            let (x0, y0) = (rng.next_f64() * 2.0, rng.next_f64() * 2.0);
            Trajectory::new(i + 1, walk(&mut rng, len, x0, y0))
        })
        .collect();
    let queries: Vec<Vec<Point>> = (0..40)
        .map(|i| {
            let t = ts[(i * 47) % ts.len()].points();
            let mut r2 = XorShift(jitter_seed(t) ^ i as u64);
            t.iter()
                .map(|p| {
                    Point::new(
                        p.x + (r2.next_f64() - 0.5) * 0.004,
                        p.y + (r2.next_f64() - 0.5) * 0.004,
                    )
                })
                .collect()
        })
        .collect();
    let trie_config = TrieConfig {
        k: 3,
        nl: 4,
        leaf_capacity: 8,
        strategy: PivotStrategy::NeighborDistance,
        cell_side: 0.05,
        ..TrieConfig::default()
    };
    let mut sys = DitaSystem::build(
        &Dataset::new_unchecked("smoke", ts.clone()),
        DitaConfig {
            ng: 8,
            trie: trie_config,
        },
        Cluster::new(ClusterConfig::with_workers(4)),
    );
    // DTW is additive: the per-point jitter sums to at most ~0.18 over the
    // longest trajectories, so τ = 0.2 always recovers the jittered source.
    let tau = 0.2;
    let p50 = |threads: usize| -> f64 {
        let mut ms: Vec<f64> = queries
            .iter()
            .map(|q| {
                let t0 = Instant::now();
                let (r, _) = search_with_options(
                    &sys,
                    q,
                    tau,
                    &DistanceFunction::Dtw,
                    SearchOptions {
                        verify_threads: threads,
                    },
                );
                assert!(!r.is_empty(), "every query is a jittered member");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(|a, b| a.total_cmp(b));
        ms[ms.len() / 2]
    };
    let p50_serial = p50(1);
    let p50_parallel = p50(4);
    println!("search p50: serial {p50_serial:.3} ms, 4 verify threads {p50_parallel:.3} ms");

    // Thread-scaling through the real rayon verification path. The index
    // holds 512 jittered copies of one base walk, so every trajectory
    // passes the filter and needs its full DP verified — the candidate
    // list is large and verification-bound by construction.
    let mut rng = XorShift(0xACED);
    let base = walk(&mut rng, LEN, 0.0, 0.0);
    let copies: Vec<Trajectory> = (0..512u64)
        .map(|i| {
            let mut r2 = XorShift(0x1000 + i * 3);
            let pts = base
                .iter()
                .map(|p| {
                    Point::new(
                        p.x + (r2.next_f64() - 0.5) * 0.002,
                        p.y + (r2.next_f64() - 0.5) * 0.002,
                    )
                })
                .collect();
            Trajectory::new(i + 1, pts)
        })
        .collect();
    let trie = TrieIndex::build(copies, trie_config);
    let q = &base;
    let loose_tau = tau_sim;
    let (cands, _) = trie.candidates_with_stats(q, loose_tau, &DistanceFunction::Dtw);
    let ctx = QueryContext::new(q, trie_config.cell_side);
    println!("thread-scaling candidate list: {} candidates", cands.len());
    let mut scaling = Vec::new();
    for threads in [1usize, 2, 4] {
        let reps = 20usize;
        let t0 = Instant::now();
        let mut n = 0usize;
        for _ in 0..reps {
            n = verify_candidates(
                &trie,
                &cands,
                &ctx,
                loose_tau,
                &DistanceFunction::Dtw,
                threads,
            )
            .len();
        }
        let pps = (reps * cands.len()) as f64 / t0.elapsed().as_secs_f64();
        println!("  threads={threads}: {pps:.0} verified-pairs/sec ({n} hits)");
        scaling.push((threads, pps));
    }

    // Cold path: index construction at 1/2/4 build threads. Wall clock of
    // the whole trie build (preprocessing + tree assembly); best of 3 reps
    // so a stray scheduler hiccup cannot invert the ratio.
    println!("\nindex build ({} trajectories):", ts.len());
    let mut build_points = Vec::new();
    for threads in [1usize, 2, 4] {
        let cfg = TrieConfig {
            build_threads: threads,
            ..trie_config
        };
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            let index = TrieIndex::build(ts.clone(), cfg);
            best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(index.len(), ts.len());
        }
        println!("  build_threads={threads}: {:.1} ms", best * 1e3);
        build_points.push((threads, best));
    }
    let build_speedup_4t = build_points[0].1 / build_points[2].1;
    println!("  build speedup 1t/4t: {build_speedup_4t:.2}x");

    // Cold path: join planning (bi-graph edge weighting) at 1/2/4 plan
    // threads, measured through a full self-join's JoinStats.
    println!("join planning (self-join):");
    let mut plan_points = Vec::new();
    let mut edges_weighed = 0usize;
    for threads in [1usize, 2, 4] {
        let opts = JoinOptions {
            plan_threads: threads,
            ..JoinOptions::default()
        };
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let (pairs, stats) = join(&sys, &sys, tau, &DistanceFunction::Dtw, &opts);
            assert!(!pairs.is_empty(), "self-join must at least match itself");
            best = best.min(stats.plan_secs);
            edges_weighed = stats.edges_weighed;
        }
        println!(
            "  plan_threads={threads}: {:.1} ms ({edges_weighed} edges weighed)",
            best * 1e3
        );
        plan_points.push((threads, best));
    }

    // Incremental ingestion vs from-scratch rebuild. For each delta ratio,
    // time (a) inserting the delta rows into a pre-built base index and
    // flushing them into queryable delta segments, against (b) rebuilding
    // the whole index from base + delta. Compaction is manual so the
    // incremental side is pure delta work.
    println!("\ningest: incremental vs rebuild ({} base rows):", ts.len());
    let manual = CompactionPolicy {
        auto: false,
        ..CompactionPolicy::default()
    };
    let base_dataset = Dataset::new_unchecked("ingest-base", ts.clone());
    let config = DitaConfig {
        ng: 8,
        trie: trie_config,
    };
    let mut ingest_points = Vec::new();
    for ratio in [0.01f64, 0.02, 0.05, 0.10, 0.20, 0.50] {
        let delta_rows = ((ts.len() as f64 * ratio).round() as usize).max(1);
        let mut rng = XorShift(0xD317 ^ (delta_rows as u64));
        let delta: Vec<Trajectory> = (0..delta_rows)
            .map(|i| {
                let len = 24 + (rng.next_u64() % 41) as usize;
                let (x0, y0) = (rng.next_f64() * 2.0, rng.next_f64() * 2.0);
                Trajectory::new(100_000 + i as u64, walk(&mut rng, len, x0, y0))
            })
            .collect();

        // (a) incremental: base build is untimed, the delta path is.
        let mut inc_sys = DitaSystem::build(
            &base_dataset,
            config,
            Cluster::new(ClusterConfig::with_workers(4)),
        );
        inc_sys.set_compaction_policy(manual);
        let t0 = Instant::now();
        for t in &delta {
            inc_sys.insert(t.clone());
        }
        inc_sys.flush();
        let incremental_secs = t0.elapsed().as_secs_f64();
        // Spot-check: the overlay sees every delta row.
        assert_eq!(inc_sys.len(), ts.len() + delta_rows);
        let (hits, _) = search_with_options(
            &inc_sys,
            delta[0].points(),
            1e-9,
            &DistanceFunction::Dtw,
            SearchOptions { verify_threads: 1 },
        );
        assert!(
            hits.iter().any(|&(id, _)| id == delta[0].id),
            "flushed delta row must be searchable"
        );

        // (b) from-scratch rebuild on base + delta.
        let mut combined = ts.clone();
        combined.extend(delta.iter().cloned());
        let t0 = Instant::now();
        let rebuilt = DitaSystem::build(
            &Dataset::new_unchecked("ingest-rebuild", combined),
            config,
            Cluster::new(ClusterConfig::with_workers(4)),
        );
        let rebuild_secs = t0.elapsed().as_secs_f64();
        assert_eq!(rebuilt.len(), ts.len() + delta_rows);

        let speedup = rebuild_secs / incremental_secs;
        println!(
            "  ratio {ratio:>5.2}: incremental {:>8.1} ms  rebuild {:>8.1} ms  speedup {speedup:>6.2}x",
            incremental_secs * 1e3,
            rebuild_secs * 1e3
        );
        ingest_points.push((ratio, delta_rows, incremental_secs, rebuild_secs, speedup));
    }
    let crossover_delta_ratio = ingest_points
        .iter()
        .filter(|&&(_, _, _, _, s)| s > 1.0)
        .map(|&(r, ..)| r)
        .fold(0.0f64, f64::max);
    println!("  crossover: incremental wins up to ratio {crossover_delta_ratio:.2}");

    // Memory density: the same table and configuration through both index
    // layouts. `index_size_bytes` counts allocated capacity in both, so the
    // ratio is an honest resident-bytes comparison, and a probe sweep over
    // the search workload cross-checks that density did not cost speed.
    let flat_index = TrieIndex::build(ts.clone(), trie_config);
    let pointer_index = PointerTrie::build(ts.clone(), trie_config);
    let total_points: usize = ts.iter().map(|t| t.len()).sum();
    let (flat_ib, ptr_ib) = (
        flat_index.index_size_bytes(),
        pointer_index.index_size_bytes(),
    );
    let index_reduction = ptr_ib as f64 / flat_ib as f64;
    let per_traj = |b: usize| b as f64 / ts.len() as f64;
    let probe_ns = |probe: &dyn Fn(&[Point]) -> usize| -> f64 {
        let reps = 20usize;
        let mut survivors = 0usize;
        let t0 = Instant::now();
        for _ in 0..reps {
            for q in &queries {
                survivors += probe(q);
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / (reps * queries.len()) as f64;
        assert!(survivors > 0, "jittered queries always have survivors");
        ns
    };
    let flat_probe_ns = probe_ns(&|q| flat_index.candidates(q, tau, &DistanceFunction::Dtw).len());
    let pointer_probe_ns = probe_ns(&|q| {
        pointer_index
            .candidates(q, tau, &DistanceFunction::Dtw)
            .len()
    });
    println!(
        "\nmemory density ({} trajectories, {} points):",
        ts.len(),
        total_points
    );
    println!(
        "  flat:    index {:>9} B  ({:>6.1} B/traj)  total {:>9} B  probe {:>8.0} ns",
        flat_ib,
        per_traj(flat_ib),
        flat_index.size_bytes(),
        flat_probe_ns
    );
    println!(
        "  pointer: index {:>9} B  ({:>6.1} B/traj)  total {:>9} B  probe {:>8.0} ns",
        ptr_ib,
        per_traj(ptr_ib),
        pointer_index.size_bytes(),
        pointer_probe_ns
    );
    println!("  index reduction: {index_reduction:.2}x");

    // Planning A/B: estimated vs observed costs on a skewed workload. One
    // spatial cluster holds *long* trajectories (192 points) while seven
    // hold short ones (12 points); the planner prices an edge by sampled
    // candidate-pair counts with a constant per-pair Δ, so the long
    // cluster's partition — fewer candidates, each ~16× the verify work —
    // is underpriced and never divided. The second arm replans with the
    // first run's measured per-node costs fed back through
    // `JoinOptions::observed_costs`, which inflates the hot node past the
    // division threshold and stripes it over replica slots.
    println!("\nplanning a/b: estimated vs observed costs (skewed self-join)");
    let mut rng = XorShift(0xAB5EED);
    let mut skewed: Vec<Trajectory> = Vec::new();
    let mut next_id = 1u64;
    let short_clusters = [
        (0.0, 0.0),
        (2.0, 0.0),
        (4.0, 0.0),
        (0.0, 2.0),
        (2.0, 2.0),
        (4.0, 2.0),
        (0.0, 4.0),
    ];
    let jittered = |base: &[Point], rng: &mut XorShift| -> Vec<Point> {
        let mut r2 = XorShift(rng.next_u64() | 1);
        base.iter()
            .map(|p| {
                Point::new(
                    p.x + (r2.next_f64() - 0.5) * 0.002,
                    p.y + (r2.next_f64() - 0.5) * 0.002,
                )
            })
            .collect()
    };
    for &(cx, cy) in &short_clusters {
        let base = walk(&mut rng, 12, cx, cy);
        for _ in 0..45 {
            skewed.push(Trajectory::new(next_id, jittered(&base, &mut rng)));
            next_id += 1;
        }
    }
    let long_base = walk(&mut rng, 192, 6.0, 6.0);
    for _ in 0..40 {
        skewed.push(Trajectory::new(next_id, jittered(&long_base, &mut rng)));
        next_id += 1;
    }
    // ng = 2 → 4 STR partitions on 4 workers: the hot cluster lands in one
    // partition whose local join is a single task, so only division
    // replication (not dynamic scheduling) can shorten the makespan.
    let ab_sys = DitaSystem::build(
        &Dataset::new_unchecked("planning-ab", skewed.clone()),
        DitaConfig {
            ng: 2,
            trie: trie_config,
        },
        Cluster::new(ClusterConfig::with_workers(4)),
    );
    // DTW jitter budget: 0.001/point × 192 points — τ = 0.3 keeps every
    // cluster-mate pair a result while the clusters stay disjoint.
    let ab_tau = 0.3;
    let run_arm = |opts: &JoinOptions| -> (f64, JoinStats) {
        let mut best: Option<(f64, JoinStats)> = None;
        for _ in 0..3 {
            let (pairs, stats) = join(&ab_sys, &ab_sys, ab_tau, &DistanceFunction::Dtw, opts);
            assert!(!pairs.is_empty(), "cluster-mates must join");
            let mk = stats.job.makespan_sec();
            if best.as_ref().is_none_or(|&(b, _)| mk < b) {
                best = Some((mk, stats));
            }
        }
        best.unwrap()
    };
    let (est_makespan, est_stats) = run_arm(&JoinOptions::default());
    let fb = est_stats.feedback.clone();
    let hot_node = fb
        .iter()
        .max_by(|a, b| a.1.observed_comp_sec.total_cmp(&b.1.observed_comp_sec))
        .map_or(0, |(n, _)| n);
    let skewed_partition = hot_node % ab_sys.num_partitions();
    let (fed_makespan, fed_stats) = run_arm(&JoinOptions {
        observed_costs: Some(fb),
        ..JoinOptions::default()
    });
    assert_eq!(
        est_stats.results, fed_stats.results,
        "feedback must change the plan, never the results"
    );
    let plan_speedup = est_makespan / fed_makespan.max(1e-12);
    println!(
        "  estimated: makespan {:>8.1} ms  predicted {:>12.0}  replicas {}",
        est_makespan * 1e3,
        est_stats.predicted_tc_global,
        est_stats.replicas
    );
    println!(
        "  observed:  makespan {:>8.1} ms  predicted {:>12.0}  replicas {}",
        fed_makespan * 1e3,
        fed_stats.predicted_tc_global,
        fed_stats.replicas
    );
    println!(
        "  speedup (estimated/observed): {plan_speedup:.2}x  (hot partition {skewed_partition})"
    );

    // Instrumented profiling pass — attached only now, after all timing,
    // so the sections above pay the disabled-context cost (one branch).
    sys.attach_obs(Obs::enabled());
    let (hits, pstats) = search_with_options(
        &sys,
        &queries[0],
        tau,
        &DistanceFunction::Dtw,
        SearchOptions { verify_threads: 1 },
    );
    assert!(!hits.is_empty(), "instrumented query is a jittered member");
    let mut search_profile = sys.obs().report();
    search_profile.attach_funnel(pstats.filter.funnel(dita_obs::names::FUNNEL_TRIE_FILTER));
    println!("\n{}", search_profile.render_table());

    // Machine-readable output through the schema'd exporter.
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
    let round4 = |x: f64| (x * 10000.0).round() / 10000.0;
    let report = BenchSmokeReport {
        schema: Some(BENCH_SCHEMA.to_string()),
        kernels: kernels
            .iter()
            .map(|&(name, aos, soa)| KernelMeasurement {
                name: name.to_string(),
                aos_ns: aos.round(),
                soa_ns: soa.round(),
                speedup: round2(aos / soa),
            })
            .collect(),
        verified_pairs_per_sec: pairs_per_sec.round(),
        search_p50_ms: SearchP50Ms {
            serial: round3(p50_serial),
            verify_threads_4: round3(p50_parallel),
        },
        thread_scaling: scaling
            .iter()
            .map(|&(threads, pps)| ThreadScalingPoint {
                threads,
                pairs_per_sec: pps.round(),
            })
            .collect(),
        host_cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
        note: "thread scaling is flat when host_cores is 1; the rayon pool \
               cannot beat one CPU"
            .to_string(),
        search_profile: Some(search_profile),
        cold_path: Some(ColdPathScaling {
            trajectories: ts.len(),
            build: build_points
                .iter()
                .map(|&(threads, secs)| BuildScalingPoint {
                    threads,
                    build_secs: round4(secs),
                })
                .collect(),
            build_speedup_4t: round2(build_speedup_4t),
            plan: plan_points
                .iter()
                .map(|&(threads, secs)| BuildScalingPoint {
                    threads,
                    build_secs: round4(secs),
                })
                .collect(),
            edges_weighed,
        }),
        ingest: Some(IngestScaling {
            base_rows: ts.len(),
            points: ingest_points
                .iter()
                .map(
                    |&(delta_ratio, delta_rows, incremental_secs, rebuild_secs, speedup)| {
                        IngestPoint {
                            delta_ratio,
                            delta_rows,
                            incremental_secs: round4(incremental_secs),
                            rebuild_secs: round4(rebuild_secs),
                            speedup: round2(speedup),
                        }
                    },
                )
                .collect(),
            crossover_delta_ratio,
        }),
        memory: Some(MemoryDensity {
            trajectories: ts.len(),
            points: total_points,
            reprs: vec![
                MemoryRepr {
                    repr: "flat".to_string(),
                    index_bytes: flat_ib,
                    index_bytes_per_trajectory: round2(per_traj(flat_ib)),
                    total_bytes: flat_index.size_bytes(),
                },
                MemoryRepr {
                    repr: "pointer".to_string(),
                    index_bytes: ptr_ib,
                    index_bytes_per_trajectory: round2(per_traj(ptr_ib)),
                    total_bytes: pointer_index.size_bytes(),
                },
            ],
            index_reduction: round2(index_reduction),
            flat_probe_ns: flat_probe_ns.round(),
            pointer_probe_ns: pointer_probe_ns.round(),
        }),
        planning_ab: Some(PlanningAb {
            trajectories: skewed.len(),
            skewed_partition,
            estimated: PlanArm {
                makespan_sec: round4(est_makespan),
                predicted_bottleneck: est_stats.predicted_tc_global.round(),
                shipped_bytes: est_stats.shipped_bytes,
                results: est_stats.results,
            },
            observed: PlanArm {
                makespan_sec: round4(fed_makespan),
                predicted_bottleneck: fed_stats.predicted_tc_global.round(),
                shipped_bytes: fed_stats.shipped_bytes,
                results: fed_stats.results,
            },
            speedup: round2(plan_speedup),
        }),
        // The throughput section belongs to throughput_smoke's artifact.
        throughput: None,
        serve: None,
    };
    // `--out <path>` overrides the artifact location. The artifact is
    // written only there — never copied to the repo root.
    let mut out = String::from("results/BENCH_PR7.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--out" {
            out = args.next().expect("--out needs a path");
        }
    }
    let out = Path::new(&out);
    match report.write_json(out) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", out.display()),
    }
}
