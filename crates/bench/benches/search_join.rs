//! End-to-end benches plus the verification-pipeline ablation DESIGN.md
//! calls out: MBR coverage on/off, cell filter on/off, double-direction
//! on/off.

use criterion::{criterion_group, criterion_main, Criterion};
use dita_bench::dita_config;
use dita_cluster::{Cluster, ClusterConfig};
use dita_core::{join, search, DitaSystem, JoinOptions, QueryContext};
use dita_datagen::{beijing_like, sample_queries};
use dita_distance::{bounds, DistanceFunction};
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
    let cands: Vec<(&dita_trajectory::Trajectory, dita_trajectory::Mbr)> =
        d.trajectories().iter().map(|t| (t, t.mbr())).collect();
    let ctxs: Vec<QueryContext> = queries
        .iter()
        .map(|q| QueryContext::new(q.points(), 0.002))
        .collect();

    let mut g = c.benchmark_group("verify-ablation");
    g.sample_size(20);
    g.bench_function("plain-dtw-threshold", |b| {
        b.iter(|| {
            for ctx in &ctxs {
                for (t, _) in &cands {
                    black_box(dita_distance::dtw_threshold(t.points(), ctx.points(), tau));
                }
            }
        })
    });
    g.bench_function("double-direction-only", |b| {
        b.iter(|| {
            for ctx in &ctxs {
                for (t, _) in &cands {
                    black_box(dita_distance::dtw_double_direction(
                        t.points(),
                        ctx.points(),
                        tau,
                    ));
                }
            }
        })
    });
    g.bench_function("mbr-coverage-then-dtw", |b| {
        b.iter(|| {
            for ctx in &ctxs {
                for (t, mbr) in &cands {
                    if !bounds::mbr_coverage_prune(mbr, ctx.mbr(), tau) {
                        black_box(dita_distance::dtw_double_direction(
                            t.points(),
                            ctx.points(),
                            tau,
                        ));
                    }
                }
            }
        })
    });
    g.bench_function("full-pipeline", |b| {
        b.iter(|| {
            for ctx in &ctxs {
                for (t, mbr) in &cands {
                    black_box(dita_core::verify_pair(
                        t.points(),
                        mbr,
                        ctx,
                        tau,
                        &DistanceFunction::Dtw,
                    ));
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
