//! End-to-end benches plus the verification-pipeline ablation DESIGN.md
//! calls out: the kernel alone, MBR coverage in front of it, and the whole
//! pipeline.

use dita_bench::dita_config;
use dita_bench::micro::{criterion_group, criterion_main, Criterion};
use dita_cluster::{Cluster, ClusterConfig};
use dita_core::{join, search, verify_pair_soa, DitaSystem, JoinOptions, QueryContext};
use dita_datagen::{beijing_like, sample_queries};
use dita_distance::{bounds, DistanceFunction, Scratch};
use dita_index::IndexedTrajectory;
use std::hint::black_box;

fn system(n: usize) -> (dita_trajectory::Dataset, DitaSystem) {
    let d = beijing_like(n, 21);
    let mut cfg = ClusterConfig::with_workers(4);
    cfg.network.latency_sec = 5e-5;
    let sys = DitaSystem::build(&d, dita_config(6), Cluster::new(cfg));
    (d, sys)
}

fn bench_search(c: &mut Criterion) {
    let (d, sys) = system(8_000);
    let queries = sample_queries(&d, 16, 31);
    let mut g = c.benchmark_group("e2e/search");
    g.sample_size(20);
    for f in [DistanceFunction::Dtw, DistanceFunction::Frechet] {
        g.bench_function(f.name(), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(search(&sys, q.points(), 0.003, &f));
                }
            })
        });
    }
    g.finish();
}

fn bench_join(c: &mut Criterion) {
    let (_, sys) = system(4_000);
    let mut g = c.benchmark_group("e2e/join");
    g.sample_size(10);
    g.bench_function("self-join-dtw", |b| {
        b.iter(|| {
            black_box(join(
                &sys,
                &sys,
                0.003,
                &DistanceFunction::Dtw,
                &JoinOptions::default(),
            ))
        })
    });
    g.finish();
}

/// The §5.3.3 verification ablation: each stage's contribution on a mixed
/// candidate workload.
fn bench_verification_ablation(c: &mut Criterion) {
    let d = beijing_like(512, 41);
    let queries = sample_queries(&d, 8, 43);
    let tau = 0.003;
    let cands: Vec<IndexedTrajectory> = d
        .trajectories()
        .iter()
        .map(|t| IndexedTrajectory::new(t.clone()))
        .collect();
    let ctxs: Vec<QueryContext> = queries
        .iter()
        .map(|q| QueryContext::new(q.points(), 0.002))
        .collect();
    let dtw = DistanceFunction::Dtw;

    let mut g = c.benchmark_group("verify-ablation");
    g.sample_size(20);
    g.bench_function("kernel-only", |b| {
        let mut scratch = Scratch::new();
        b.iter(|| {
            for ctx in &ctxs {
                for t in &cands {
                    black_box(dtw.verify_soa(t.soa.view(), ctx.soa().view(), tau, &mut scratch));
                }
            }
        })
    });
    g.bench_function("mbr-coverage-then-kernel", |b| {
        let mut scratch = Scratch::new();
        b.iter(|| {
            for ctx in &ctxs {
                for t in &cands {
                    if !bounds::mbr_coverage_prune(&t.mbr, ctx.mbr(), tau) {
                        let q = ctx.soa().view();
                        black_box(dtw.verify_soa(t.soa.view(), q, tau, &mut scratch));
                    }
                }
            }
        })
    });
    g.bench_function("full-pipeline", |b| {
        let mut scratch = Scratch::new();
        b.iter(|| {
            for ctx in &ctxs {
                for t in &cands {
                    black_box(verify_pair_soa(t.into(), ctx, tau, &dtw, &mut scratch));
                }
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_search,
    bench_join,
    bench_verification_ablation
);
criterion_main!(benches);
