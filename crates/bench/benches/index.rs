//! Index micro-benchmarks: pivot selection, partitioning, trie construction
//! and the trie filter.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dita_datagen::{beijing_like, chengdu_like, sample_queries};
use dita_distance::DistanceFunction;
use dita_index::{
    random_partitioning, select_pivots, str_partitioning, GlobalIndex, PivotStrategy, PointerTrie,
    TrieConfig, TrieIndex,
};
use std::hint::black_box;

/// System allocator passthrough that counts allocations, so the probe
/// benches can *assert* steady-state allocation-freedom instead of hoping
/// for it. Counting is a single relaxed increment — noise-free for the
/// timed sections.
struct CountingAlloc;

static ALLOCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter has no
// effect on the returned memory.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // SAFETY: forwarded verbatim to the system allocator.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` was produced by the matching `alloc` above.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bench_pivots(c: &mut Criterion) {
    let d = beijing_like(256, 4);
    let mut g = c.benchmark_group("index/pivot-selection");
    for s in PivotStrategy::ALL {
        g.bench_function(s.name(), |b| {
            b.iter(|| {
                for t in d.trajectories() {
                    black_box(select_pivots(t, 4, s));
                }
            })
        });
    }
    g.finish();
}

fn bench_partitioning(c: &mut Criterion) {
    let d = beijing_like(8_000, 5);
    let mut g = c.benchmark_group("index/partitioning");
    g.sample_size(20);
    g.bench_function("str-ng8", |b| {
        b.iter(|| black_box(str_partitioning(d.trajectories(), 8)))
    });
    g.bench_function("random-64", |b| {
        b.iter(|| black_box(random_partitioning(d.trajectories(), 64, 7)))
    });
    g.finish();
}

fn bench_trie(c: &mut Criterion) {
    let d = beijing_like(4_000, 6);
    let config = TrieConfig {
        k: 4,
        nl: 8,
        leaf_capacity: 16,
        strategy: PivotStrategy::NeighborDistance,
        cell_side: 0.002,
        ..TrieConfig::default()
    };
    let mut g = c.benchmark_group("index/trie");
    g.sample_size(20);
    g.bench_function("build-4k", |b| {
        b.iter(|| black_box(TrieIndex::build(d.trajectories().to_vec(), config)))
    });
    let index = TrieIndex::build(d.trajectories().to_vec(), config);
    let queries = sample_queries(&d, 32, 11);
    g.bench_function("candidates-dtw", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(index.candidates(q.points(), 0.003, &DistanceFunction::Dtw));
            }
        })
    });
    g.bench_function("candidates-frechet", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(index.candidates(q.points(), 0.003, &DistanceFunction::Frechet));
            }
        })
    });
    g.finish();
}

/// Flat succinct layout vs pointer reference layout on the identical
/// probe workload — the two must return byte-identical candidate sets
/// (pinned by `tests/flat_parity.rs`), so this measures pure layout cost.
fn bench_trie_probe(c: &mut Criterion) {
    let d = beijing_like(4_000, 6);
    let config = TrieConfig {
        k: 4,
        nl: 8,
        leaf_capacity: 16,
        strategy: PivotStrategy::NeighborDistance,
        cell_side: 0.002,
        ..TrieConfig::default()
    };
    let flat = TrieIndex::build(d.trajectories().to_vec(), config);
    let pointer = PointerTrie::build(d.trajectories().to_vec(), config);
    let queries = sample_queries(&d, 32, 11);

    // Steady-state probes must be allocation-free: after one warmup pass
    // grows the reused `ProbeScratch` stack to the workload's high-water
    // mark, a full second pass over every query may not allocate at all.
    // `candidate_count` is the non-materializing probe (the planner's
    // sampling path), so the only possible allocations are scratch growth —
    // which warmup has already paid.
    let mut scratch = dita_index::ProbeScratch::new();
    let mut count = 0usize;
    for q in &queries {
        count += flat.candidate_count(q.points(), 0.003, &DistanceFunction::Dtw, &mut scratch);
    }
    assert!(count > 0, "probe workload must touch candidates");
    let before = ALLOCS.load(std::sync::atomic::Ordering::Relaxed);
    let mut warmed = 0usize;
    for q in &queries {
        warmed += flat.candidate_count(q.points(), 0.003, &DistanceFunction::Dtw, &mut scratch);
    }
    let after = ALLOCS.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(warmed, count, "probe must be deterministic");
    assert_eq!(
        after - before,
        0,
        "warmed trie probe allocated — ProbeScratch reuse regressed"
    );

    let mut g = c.benchmark_group("index/trie-probe");
    for f in [DistanceFunction::Dtw, DistanceFunction::Frechet] {
        g.bench_function(format!("flat-{f}"), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(flat.candidates(q.points(), 0.003, &f));
                }
            })
        });
        g.bench_function(format!("pointer-{f}"), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(pointer.candidates(q.points(), 0.003, &f));
                }
            })
        });
    }
    g.finish();
}

/// One partition of the `join_self` benchmark's shape probing itself, as a
/// diagonal edge of the self-join does: a row at a time (the local join
/// before `probe_rows`: copy the row out, count its candidates from the
/// root) against a leaf of rows at a time. Both arms are priced in the
/// unordered candidate pairs `(s, c)`, `c ≥ s`, the join goes on to verify.
fn bench_trie_probe_rows(c: &mut Criterion) {
    let d = chengdu_like(30_000, 1);
    let parts = str_partitioning(d.trajectories(), 8);
    let part = &parts.partitions[parts.partitions.len() / 2];
    let rows: Vec<_> = part
        .members
        .iter()
        .map(|&m| d.trajectories()[m].clone())
        .collect();
    let trie = TrieIndex::build(rows, TrieConfig::default());
    let ids: Vec<u32> = (0..trie.len() as u32).collect();
    let points: Vec<_> = ids.iter().map(|&s| trie.get(s).points_vec()).collect();
    let (tau, dtw) = (0.003, DistanceFunction::Dtw);
    let mut scratch = dita_index::ProbeScratch::new();
    let mut pairs = 0u64;
    trie.probe_rows(&trie, &ids, tau, &dtw, &mut scratch, |_, _| pairs += 1);

    let mut g = c.benchmark_group("index/trie-probe");
    g.throughput(Throughput::Elements(pairs));
    g.bench_function(format!("per-row-{}", trie.len()), |b| {
        b.iter(|| {
            let mut both_orders = 0;
            for q in &points {
                both_orders += trie.candidate_count(q, tau, &dtw, &mut scratch);
            }
            black_box(both_orders)
        })
    });
    g.bench_function(format!("rows-{}", trie.len()), |b| {
        b.iter(|| {
            let mut once = 0u64;
            trie.probe_rows(&trie, &ids, tau, &dtw, &mut scratch, |_, _| once += 1);
            black_box(once)
        })
    });
    g.finish();
}

fn bench_global(c: &mut Criterion) {
    let d = beijing_like(8_000, 8);
    let parts = str_partitioning(d.trajectories(), 8);
    let global = GlobalIndex::build(&parts);
    let queries = sample_queries(&d, 64, 13);
    let mut g = c.benchmark_group("index/global");
    g.bench_function("relevant-partitions", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(global.relevant_partitions(
                    q.first(),
                    q.last(),
                    q.len(),
                    0.003,
                    dita_distance::function::IndexMode::Additive,
                ));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pivots,
    bench_partitioning,
    bench_trie,
    bench_trie_probe,
    bench_trie_probe_rows,
    bench_global
);
criterion_main!(benches);
