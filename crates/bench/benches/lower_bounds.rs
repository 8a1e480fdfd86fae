//! Lower-bound micro-benchmarks: the filter-step estimations versus the
//! full distance they avoid (§4.1, §5.3.3).

use criterion::{criterion_group, criterion_main, Criterion};
use dita_datagen::{chengdu_like, sample_queries};
use dita_distance::{amd, dtw, mbr_coverage_prune, pamd, point_mbr_max, point_mbr_sum};
use dita_index::{select_pivots, PivotStrategy};
use dita_trajectory::{CellList, SoaPoints, Trajectory};
use std::hint::black_box;

fn pair() -> (Trajectory, Trajectory) {
    let d = chengdu_like(64, 3);
    let qs = sample_queries(&d, 2, 9);
    (qs[0].clone(), qs[1].clone())
}

fn bench_bounds(c: &mut Criterion) {
    let (t, q) = pair();
    let pivots = select_pivots(&t, 4, PivotStrategy::NeighborDistance);
    let (mt, mq) = (t.mbr(), q.mbr());
    let ct = CellList::compress(&t, 0.002);
    let cq = CellList::compress(&q, 0.002);
    let (st, sq) = (
        SoaPoints::from_points(t.points()),
        SoaPoints::from_points(q.points()),
    );
    // Both directions, never abandoned: what each bound is worth on this
    // pair, beside what it costs below.
    println!(
        "bounds on this pair: dtw {:.6}, cell {:.6}, point-mbr {:.6}",
        dtw(t.points(), q.points()),
        ct.lower_bound(&cq).max(cq.lower_bound(&ct)),
        point_mbr_sum(st.view(), &mq, f64::INFINITY).max(point_mbr_sum(
            sq.view(),
            &mt,
            f64::INFINITY
        )),
    );

    let mut g = c.benchmark_group("bounds");
    g.bench_function("dtw-exact", |b| {
        b.iter(|| black_box(dtw(t.points(), q.points())))
    });
    g.bench_function("amd", |b| b.iter(|| black_box(amd(t.points(), q.points()))));
    g.bench_function("pamd", |b| {
        b.iter(|| black_box(pamd(t.points(), q.points(), &pivots)))
    });
    g.bench_function("mbr-coverage", |b| {
        b.iter(|| black_box(mbr_coverage_prune(&mt, &mq, 0.002)))
    });
    g.bench_function("cell-bound", |b| b.iter(|| black_box(ct.lower_bound(&cq))));
    g.bench_function("point-mbr-sum", |b| {
        b.iter(|| black_box(point_mbr_sum(st.view(), &mq, f64::INFINITY)))
    });
    g.bench_function("cell-bottleneck", |b| {
        b.iter(|| black_box(ct.bottleneck_bound(&cq)))
    });
    g.bench_function("point-mbr-max", |b| {
        b.iter(|| black_box(point_mbr_max(st.view(), &mq, f64::INFINITY)))
    });
    g.finish();
}

fn bench_cell_compress(c: &mut Criterion) {
    let (t, _) = pair();
    let mut g = c.benchmark_group("bounds/cell-compress");
    for side in [0.001, 0.002, 0.008] {
        g.bench_function(format!("side-{side}"), |b| {
            b.iter(|| black_box(CellList::compress(&t, side)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_bounds, bench_cell_compress);
criterion_main!(benches);
