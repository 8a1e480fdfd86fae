//! Shared system construction and the latency conventions, plus the two
//! four-panel figure layouts (Figures 7/8 and 9/10).

use crate::{cluster, default_ng, dita_config, params, At, Harness, Sink};
use dita_baselines::{DftSystem, NaiveSystem, SimbaSystem};
use dita_cluster::JobStats;
use dita_core::{join, search, DitaSystem, JoinOptions, JoinStats};
use dita_distance::DistanceFunction;
use dita_obs::json::Value;
use dita_trajectory::{Dataset, Point, Trajectory};
use std::time::{Duration, Instant};

/// Simulated milliseconds of one operation that took `wall` on this host
/// and ran `jobs` on the simulated cluster: the driver-side wall time
/// (planning, merging — everything outside the jobs) plus each job's
/// makespan. Several jobs are sequential: a driver barrier separates them.
pub fn simulated_ms(wall: Duration, jobs: &[JobStats]) -> f64 {
    let in_jobs: Duration = jobs.iter().map(|j| j.elapsed).sum();
    let makespans: f64 = jobs.iter().map(|j| j.makespan_sec()).sum();
    (wall.saturating_sub(in_jobs).as_secs_f64() + makespans) * 1e3
}

/// Mean simulated ms per query of `one` (a search returning its jobs) over
/// a query workload.
pub fn mean_search_ms(
    queries: &[Trajectory],
    mut one: impl FnMut(&[Point]) -> Vec<JobStats>,
) -> f64 {
    let mut total = 0.0;
    for q in queries {
        let t0 = Instant::now();
        let jobs = one(q.points());
        total += simulated_ms(t0.elapsed(), &jobs);
    }
    total / queries.len().max(1) as f64
}

/// The four distributed systems of Figures 7–8, built over the same data
/// and the same cluster.
pub struct SearchSystems {
    dita: DitaSystem,
    naive: NaiveSystem,
    simba: SimbaSystem,
    dft: DftSystem,
}

impl SearchSystems {
    /// Builds all four systems with comparable partition counts.
    pub fn build(dataset: &Dataset, workers: usize, ng: usize) -> SearchSystems {
        let c = cluster(workers);
        let dita = DitaSystem::build(dataset, dita_config(ng), c.clone());
        let parts = dita.num_partitions().max(1);
        SearchSystems {
            naive: NaiveSystem::build(dataset.trajectories(), c.clone()),
            simba: SimbaSystem::build(dataset.trajectories(), parts, c.clone()),
            dft: DftSystem::build(dataset.trajectories(), parts, c),
            dita,
        }
    }

    /// Records each system's mean per-query search latency (simulated ms)
    /// at one point of a figure, in the figures' order.
    pub fn record(&self, at: &mut At, queries: &[Trajectory], tau: f64, func: &DistanceFunction) {
        let Self {
            dita,
            naive,
            simba,
            dft,
        } = self;
        let ms = mean_search_ms(queries, |q| vec![naive.search(q, tau, func).1]);
        at.record("naive", "search_ms", ms);
        let ms = mean_search_ms(queries, |q| vec![simba.search(q, tau, func).2]);
        at.record("simba", "search_ms", ms);
        // DFT's driver barrier makes its two phases sequential, and the
        // bitmap merge is driver work between them.
        let ms = mean_search_ms(queries, |q| {
            let (_, _, filter, verify) = dft.search(q, tau, func);
            vec![filter, verify]
        });
        at.record("dft", "search_ms", ms);
        let ms = mean_search_ms(queries, |q| vec![search(dita, q, tau, func).1.job]);
        at.record("dita", "search_ms", ms);
    }
}

/// DITA self-join latency in simulated ms, with the join's statistics.
pub fn dita_join_ms(
    sys: &DitaSystem,
    tau: f64,
    func: &DistanceFunction,
    opts: &JoinOptions,
) -> (f64, JoinStats) {
    let t0 = Instant::now();
    let (_, stats) = join(sys, sys, tau, func, opts);
    (
        simulated_ms(t0.elapsed(), std::slice::from_ref(&stats.job)),
        stats,
    )
}

/// Simba self-join latency in simulated ms (same convention).
pub fn simba_join_ms(sys: &SimbaSystem, tau: f64, func: &DistanceFunction) -> f64 {
    let t0 = Instant::now();
    let (_, _, job) = sys.join(sys, tau, func);
    simulated_ms(t0.elapsed(), &[job])
}

/// The points of a four-panel figure as `(sample rate, workers, τ, params)`:
/// (a) the τ sweep, (b) the sample-rate sweep, (c) scale-up over workers,
/// (d) scale-out, rate and workers growing together; (b)–(d) at the
/// figure's default τ.
fn figure_points(default_tau: f64) -> Vec<(f64, usize, f64, Value)> {
    use crate::params::{DEFAULT_WORKERS, SAMPLE_RATES, TAUS, WORKERS};
    let mut points = Vec::new();
    for tau in TAUS {
        let at = params(&[("tau", &tau), ("panel", &"a")]);
        points.push((1.0, DEFAULT_WORKERS, tau, at));
    }
    for rate in SAMPLE_RATES {
        let at = params(&[("rate", &rate), ("panel", &"b")]);
        points.push((rate, DEFAULT_WORKERS, default_tau, at));
    }
    for workers in WORKERS {
        let at = params(&[("workers", &workers), ("panel", &"c")]);
        points.push((1.0, workers, default_tau, at));
    }
    for (rate, workers) in SAMPLE_RATES.into_iter().zip(WORKERS) {
        let at = params(&[("rate", &rate), ("workers", &workers), ("panel", &"d")]);
        points.push((rate, workers, default_tau, at));
    }
    points
}

/// Walks [`figure_points`], calling `build` whenever the sample or the
/// worker count differs from the previous point's and `measure` at every
/// point.
fn four_panels<S>(
    sink: &mut Sink,
    dataset: &Dataset,
    default_tau: f64,
    build: impl Fn(&Dataset, usize) -> S,
    measure: impl Fn(&S, f64, &mut At),
) {
    let mut built: Option<(f64, usize, S)> = None;
    for (rate, workers, tau, at) in figure_points(default_tau) {
        if !matches!(&built, Some((r, w, _)) if *r == rate && *w == workers) {
            drop(built.take()); // free the previous systems before building the next
            built = Some((rate, workers, build(&dataset.sample(rate), workers)));
        }
        let (_, _, systems) = built.as_ref().expect("built just above");
        measure(systems, tau, &mut sink.at(&dataset.name, at));
    }
}

/// One full search figure (the Figures 7/8 layout) for Naive, Simba, DFT
/// and DITA under DTW; queries are drawn from the sample they run against.
pub fn search_figure(h: &Harness, sink: &mut Sink, dataset: &Dataset, default_tau: f64) {
    let ng = default_ng(&dataset.name);
    four_panels(
        sink,
        dataset,
        default_tau,
        |data, workers| (SearchSystems::build(data, workers, ng), h.queries(data)),
        |(systems, queries), tau, at| systems.record(at, queries, tau, &DistanceFunction::Dtw),
    );
}

/// One full join figure (the Figures 9/10 layout), Simba vs DITA, DTW.
pub fn join_figure(sink: &mut Sink, dataset: &Dataset, default_tau: f64) {
    let ng = default_ng(&dataset.name);
    let dtw = DistanceFunction::Dtw;
    four_panels(
        sink,
        dataset,
        default_tau,
        |data, workers| {
            let c = cluster(workers);
            let dita = DitaSystem::build(data, dita_config(ng), c.clone());
            let parts = dita.num_partitions().max(1);
            (SimbaSystem::build(data.trajectories(), parts, c), dita)
        },
        |(simba, dita), tau, at| {
            at.record("simba", "join_ms", simba_join_ms(simba, tau, &dtw));
            at.record(
                "dita",
                "join_ms",
                dita_join_ms(dita, tau, &dtw, &JoinOptions::default()).0,
            );
        },
    );
}
