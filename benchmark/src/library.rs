//! The three library workloads: one driver thread calling `dita_core`
//! directly, closed loop (the next call starts when the last one returned).

use crate::harness::{
    cycles_per_round, peak_rss_mib, OpSample, Reading, Report, Round, RoundClock,
};
use crate::layers;
use crate::spec::{self, SearchSpec};
use crate::trace::Tracer;
use crate::Args;
use dita_cluster::{Cluster, ClusterConfig, JobStats};
use dita_core::{join, search, DitaConfig, DitaSystem, JoinOptions};
use dita_distance::DistanceFunction;
use dita_trajectory::{Dataset, Point, Trajectory, TrajectoryId};
use rand::{seq::SliceRandom, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

pub const DTW: DistanceFunction = DistanceFunction::Dtw;

/// The cluster every workload runs on.
pub fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::with_workers(spec::WORKERS))
}

/// `n` scaled by `--scale`, never below `floor`.
pub fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale).round() as usize).max(floor.min(n))
}

/// A workload's table and queries, both drawn by `--seed`.
///
/// The paper's tables are fixed datasets and its queries random samples of
/// them. Likewise here: `gen` makes one fixed city (seed
/// [`spec::CITY_SEED`]) half again as large as the table, `--seed` draws
/// which `rows` of its trips are the table (renumbered `0..rows` in city
/// order) and which `queries` of those are the queries. Every seed gives
/// another table, but all of them share the city's road grid, hotspots and
/// popular routes, so a run measures the program and not the luck of one
/// generated city.
pub fn inputs(
    gen: fn(usize, u64) -> Dataset,
    rows: usize,
    queries: usize,
    args: &Args,
) -> (Dataset, Vec<Trajectory>) {
    let rows = scaled(rows, args.scale, 2_000);
    let city = gen(rows + rows / 2, spec::CITY_SEED);
    let name = city.name.clone();
    let trips = city.into_trajectories();
    let mut keep = vec![false; trips.len()];
    let mut order: Vec<usize> = (0..trips.len()).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(args.seed));
    for &i in &order[..rows.min(trips.len())] {
        keep[i] = true;
    }
    let table: Vec<Trajectory> = trips
        .into_iter()
        .zip(keep)
        .filter(|&(_, kept)| kept)
        .enumerate()
        .map(|(i, (mut t, _))| {
            t.id = i as TrajectoryId;
            t
        })
        .collect();
    let data = Dataset::new_unchecked(name, table);
    let queries = dita_datagen::sample_queries(&data, scaled(queries, args.scale, 100), args.seed);
    (data, queries)
}

/// Builds the table once and returns the system with the seconds it took.
/// The dataset is already in memory, so this is one sample of `setup_s`:
/// inputs in memory to system ready.
pub fn build_timed(data: &Dataset) -> (DitaSystem, f64) {
    let t0 = Instant::now();
    let sys = DitaSystem::build(data, DitaConfig::default(), cluster());
    (sys, t0.elapsed().as_secs_f64())
}

/// Busiest worker's modelled time over the mean worker's: 1 when the job
/// is balanced. (`JobStats::load_ratio` divides by the idlest worker and is
/// infinite whenever one worker sat a search out.)
pub fn busiest_over_mean(job: &JobStats) -> f64 {
    let totals: Vec<f64> = job.workers.iter().map(|w| w.total_sec()).collect();
    let mean = totals.iter().sum::<f64>() / totals.len().max(1) as f64;
    if mean > 0.0 {
        totals.iter().copied().fold(0.0, f64::max) / mean
    } else {
        1.0
    }
}

/// A replayable operation list.
pub trait Load {
    fn cycle_len(&self) -> usize;
    /// Runs operation `i` of the cycle on `sys` and compares its answer
    /// with the warm-up's.
    fn op(&mut self, sys: &DitaSystem, i: usize, op_id: u64, tracer: &mut Tracer) -> OpSample;
}

/// Replays the cycle `cycles` times on `sys`: one measured round.
pub fn run_round(
    load: &mut dyn Load,
    sys: &DitaSystem,
    cycles: usize,
    tracer: &mut Tracer,
) -> Round {
    let clock = RoundClock::start();
    let mut round = Round::default();
    for c in 0..cycles {
        for i in 0..load.cycle_len() {
            let op_id = (c * load.cycle_len() + i) as u64;
            let span = tracer.enter("harness.op", op_id);
            let sample = load.op(sys, i, op_id, tracer);
            tracer.exit(span);
            round.push(&sample);
        }
    }
    clock.stop(round)
}

struct SearchLoad<'a> {
    queries: &'a [Trajectory],
    tau: f64,
    limit_ms: f64,
    /// The warm-up round's answers, one per query.
    reference: Vec<Vec<(TrajectoryId, f64)>>,
}

impl Load for SearchLoad<'_> {
    fn cycle_len(&self) -> usize {
        self.queries.len()
    }

    fn op(&mut self, sys: &DitaSystem, i: usize, op_id: u64, tracer: &mut Tracer) -> OpSample {
        let q = self.queries[i].points();
        let ((hits, stats), secs) =
            tracer.time("core.search", op_id, || search(sys, q, self.tau, &DTW));
        OpSample {
            latency_ms: secs * 1e3,
            // Byte-identical to the warm-up: ids and distance bits.
            correct: hits == self.reference[i],
            limit_ms: self.limit_ms,
            in_latency: true,
            makespan_ms: Some(stats.job.makespan_sec() * 1e3),
        }
    }
}

/// Sums of what `JoinStats` reported, over every measured join.
#[derive(Default)]
struct JoinCounters {
    joins: u64,
    candidates: u64,
    results: u64,
    shipped_bytes: u64,
    network_ms: f64,
    load_ratio: f64,
    edges: u64,
    replicas: u64,
    plan_ms: Vec<f64>,
    exec_ms: Vec<f64>,
}

struct JoinLoad {
    opts: JoinOptions,
    reference: Vec<(TrajectoryId, TrajectoryId, f64)>,
    counters: JoinCounters,
}

impl Load for JoinLoad {
    fn cycle_len(&self) -> usize {
        1
    }

    fn op(&mut self, sys: &DitaSystem, _i: usize, op_id: u64, tracer: &mut Tracer) -> OpSample {
        let ((pairs, stats), secs) = tracer.time("core.join", op_id, || {
            join(sys, sys, spec::JOIN_TAU, &DTW, &self.opts)
        });
        let c = &mut self.counters;
        c.joins += 1;
        c.candidates += stats.candidates as u64;
        c.results += stats.results as u64;
        // The plan's shipments: exact. (`job.total_bytes()` follows the
        // dynamic schedule, which follows measured task times.)
        c.shipped_bytes += stats.shipped_bytes;
        c.network_ms += stats.job.total_network_sec() * 1e3;
        c.load_ratio += busiest_over_mean(&stats.job);
        c.edges += stats.edges as u64;
        c.replicas += stats.replicas as u64;
        c.plan_ms.push(stats.plan_secs * 1e3);
        c.exec_ms.push(stats.job.elapsed.as_secs_f64() * 1e3);
        OpSample {
            latency_ms: secs * 1e3,
            correct: pairs == self.reference,
            limit_ms: spec::JOIN_LIMIT_MS,
            in_latency: true,
            makespan_ms: Some(stats.job.makespan_sec() * 1e3),
        }
    }
}

impl JoinCounters {
    /// The per-layer metrics the joins themselves report. On `join_self`
    /// they replace what the search probes put under the same names: the
    /// join, not a search of its table, is the workload's operation.
    fn publish(&self, report: &mut Report) {
        let per_join = |x: f64| x / self.joins.max(1) as f64;
        report.set("core.join_plan_ms", Reading::of(&self.plan_ms));
        report.set("core.join_exec_ms", Reading::of(&self.exec_ms));
        report.set_value("core.join_edges", per_join(self.edges as f64));
        report.set_value("core.join_replicas", per_join(self.replicas as f64));
        report.set_value(
            "core.join_candidates_per_result",
            self.candidates as f64 / self.results.max(1) as f64,
        );
        report.set_value(
            "index.filter_precision",
            self.results as f64 / self.candidates.max(1) as f64,
        );
        report.set_value(
            "cluster.shipped_bytes_per_op",
            per_join(self.shipped_bytes as f64),
        );
        report.set_value("cluster.network_model_ms_per_op", per_join(self.network_ms));
        report.set_value("cluster.load_ratio", per_join(self.load_ratio));
    }
}

/// `a` and `b` agree to the last few bits. The index verifies with the SoA
/// kernels, the scans below with the point-array ones; the two sum in a
/// different order and may differ in the last place.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-15
}

/// Checks one search answer against a scan of the whole table that uses no
/// index and no filter: every row within `tau` is in the answer, and the
/// answer holds nothing else. Rows within rounding of `tau` may fall on
/// either side.
pub fn scan_agrees(
    rows: &[Trajectory],
    q: &[Point],
    tau: f64,
    got: &[(TrajectoryId, f64)],
) -> bool {
    let slack = tau * 1e-9;
    let near: Vec<(TrajectoryId, f64)> = rows
        .iter()
        .filter_map(|t| DTW.verify(t.points(), q, tau + slack).map(|d| (t.id, d)))
        .collect();
    let find =
        |set: &[(TrajectoryId, f64)], id| set.iter().find(|&&(i, _)| i == id).map(|&(_, d)| d);
    let all_found = near
        .iter()
        .filter(|&&(_, d)| d <= tau - slack)
        .all(|&(id, d)| find(got, id).is_some_and(|g| close(g, d)));
    let none_extra = got
        .iter()
        .all(|&(id, g)| find(&near, id).is_some_and(|d| close(g, d)));
    let sorted = got.windows(2).all(|w| w[0].0 < w[1].0);
    all_found && none_extra && sorted
}

/// Checks `ORACLE_QUERIES` evenly spaced answers of `reference` against
/// [`scan_agrees`], the scans shared between as many threads as the
/// reference host has cores. Nothing is being measured while they run.
pub fn check_against_scans(
    rows: &[Trajectory],
    queries: &[Trajectory],
    tau: f64,
    reference: &[Vec<(TrajectoryId, f64)>],
    report: &mut Report,
) {
    let step = (queries.len() / spec::ORACLE_QUERIES).max(1);
    let picked: Vec<usize> = (0..queries.len())
        .step_by(step)
        .take(spec::ORACLE_QUERIES)
        .collect();
    let share = picked.len().div_ceil(spec::CLIENTS).max(1);
    let verdicts: Vec<(usize, bool)> = std::thread::scope(|s| {
        let scans: Vec<_> = picked
            .chunks(share)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&i| {
                            (
                                i,
                                scan_agrees(rows, queries[i].points(), tau, &reference[i]),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        scans
            .into_iter()
            .flat_map(|h| h.join().expect("scan thread panicked"))
            .collect()
    });
    for (i, ok) in verdicts {
        report.check(&format!("query {i} against a brute-force scan"), ok);
    }
}

/// The measured rounds of a library workload, folded into the report: the
/// end-to-end metrics, or in a traced run the harness metrics.
///
/// A round is `at_reference` cycles at [`spec::RUN_SECONDS`]. The first
/// round runs on `first`, the build the warm-up round ran on, and peak
/// memory is read when it ends: one set-up, one warm-up, one round. Each
/// later round runs on a system of its own: `setups_per_round` timed builds
/// (the last one is kept) and a warm-up of an eighth of a cycle. Where a
/// build's arenas land in memory moves every operation on it by a few
/// percent for as long as the build lives; a round per build puts that luck
/// under the median over rounds instead of into the run's result. A traced
/// run makes an untraced and a traced round on `first`.
#[allow(clippy::too_many_arguments)]
fn measure(
    load: &mut dyn Load,
    data: &Dataset,
    first: (DitaSystem, f64),
    at_reference: usize,
    setups_per_round: usize,
    args: &Args,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let mut off = Tracer::off();
    let cycles = cycles_per_round(at_reference, args.seconds, load.cycle_len());
    let warm_up_ops = load.cycle_len().div_ceil(8);
    report.note(format!(
        "round = {cycles} cycle(s) of {} operation(s); rounds after the first: {setups_per_round} build(s) and {warm_up_ops} warm-up operation(s) each",
        load.cycle_len()
    ));
    let (mut sys, first_setup_s) = first;
    if args.traced {
        let untraced = run_round(load, &sys, cycles, &mut off);
        let traced = run_round(load, &sys, cycles, tracer);
        report.set_value(
            "harness.trace_overhead_share",
            1.0 - traced.throughput() / untraced.throughput(),
        );
        report.canary(&[untraced, traced]);
        return;
    }
    let mut setup_s = vec![first_setup_s];
    let mut rounds = vec![run_round(load, &sys, cycles, &mut off)];
    let peak_rss_mb = peak_rss_mib();
    while rounds.len() < spec::ROUNDS {
        for _ in 0..setups_per_round {
            // The old system goes before the new one is built, as a
            // restart would have it.
            drop(sys);
            let (built, secs) = build_timed(data);
            setup_s.push(secs);
            sys = built;
        }
        let warm = (0..warm_up_ops).all(|i| load.op(&sys, i, i as u64, &mut off).correct);
        report.check("warm-up answers on a fresh build equal the reference", warm);
        rounds.push(run_round(load, &sys, cycles, &mut off));
    }
    report.end_to_end(&setup_s, &rounds, None, peak_rss_mb);
}

/// `search_filter` and `search_verify`: one `dita_core::search` per
/// operation over `gen(rows, seed)`, queries sampled from the table.
pub fn run_search(
    spec: &SearchSpec,
    gen: fn(usize, u64) -> Dataset,
    args: &Args,
    tracer: &mut Tracer,
) -> Report {
    let mut report = Report::new();
    let (data, queries) = inputs(gen, spec.rows, spec.queries, args);
    report.note(format!(
        "table: {:?}; {} queries; tau {}",
        data.stats(),
        queries.len(),
        spec.tau
    ));
    // The warm-up round, on a build of its own: its answers become the
    // reference every later round, on whichever build, must reproduce bit
    // for bit; a sample is checked against a scan.
    let (sys, first_setup_s) = build_timed(&data);
    let reference: Vec<Vec<(TrajectoryId, f64)>> = queries
        .iter()
        .map(|q| search(&sys, q.points(), spec.tau, &DTW).0)
        .collect();
    check_against_scans(
        data.trajectories(),
        &queries,
        spec.tau,
        &reference,
        &mut report,
    );
    let mut load = SearchLoad {
        queries: &queries,
        tau: spec.tau,
        limit_ms: spec.limit_ms,
        reference,
    };
    measure(
        &mut load,
        &data,
        (sys, first_setup_s),
        spec.cycles_per_round,
        spec.setups_per_round,
        args,
        &mut report,
        tracer,
    );
    if args.traced {
        layers::probe(&data, &queries, spec.tau, &mut report, tracer);
    }
    report
}

/// `join_self`: one `dita_core::join` of the table with itself per
/// operation.
pub fn run_join(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::new();
    // The probes of a traced run search the join's table with these.
    let (data, queries) = inputs(
        dita_datagen::chengdu_like,
        spec::JOIN_ROWS,
        spec::PROBE_OPS,
        args,
    );
    report.note(format!("table: {:?}; tau {}", data.stats(), spec::JOIN_TAU));
    let (sys, first_setup_s) = build_timed(&data);
    let opts = JoinOptions::default();

    // Correctness, part 1: the whole self-join of a small prefix of the
    // table against the index-free nested-loop baseline.
    let small: Vec<Trajectory> =
        data.trajectories()[..spec::JOIN_NAIVE_ROWS.min(data.len())].to_vec();
    let small_sys = DitaSystem::build(
        &Dataset::new_unchecked("join-small", small.clone()),
        DitaConfig::default(),
        cluster(),
    );
    let (got, _) = join(&small_sys, &small_sys, spec::JOIN_TAU, &DTW, &opts);
    let naive = dita_baselines::NaiveSystem::build(&small, cluster());
    let (want, _) = naive.join(&naive, spec::JOIN_TAU, &DTW);
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.0 == w.0 && g.1 == w.1 && close(g.2, w.2));
    report.check(
        &format!(
            "self-join of {} rows against the naive join ({} pairs)",
            small.len(),
            want.len()
        ),
        same,
    );
    drop(small_sys);

    // Part 2: the measured join itself. A sample of rows is scanned
    // against the whole table; later rounds must equal this answer.
    let (reference, stats) = join(&sys, &sys, spec::JOIN_TAU, &DTW, &opts);
    report.note(format!(
        "join answer: {} pairs from {} candidates over {} edges",
        reference.len(),
        stats.candidates,
        stats.edges
    ));
    let rows = data.trajectories();
    let step = (rows.len() / spec::JOIN_SCAN_ROWS).max(1);
    for t in rows.iter().step_by(step).take(spec::JOIN_SCAN_ROWS) {
        let partners: Vec<(TrajectoryId, f64)> = reference
            .iter()
            .filter(|p| p.0 == t.id)
            .map(|p| (p.1, p.2))
            .collect();
        let ok = scan_agrees(rows, t.points(), spec::JOIN_TAU, &partners);
        report.check(&format!("join partners of row {} against a scan", t.id), ok);
    }

    let mut load = JoinLoad {
        opts,
        reference,
        counters: JoinCounters::default(),
    };
    measure(
        &mut load,
        &data,
        (sys, first_setup_s),
        spec::JOIN_CYCLES_PER_ROUND,
        spec::JOIN_SETUPS_PER_ROUND,
        args,
        &mut report,
        tracer,
    );
    if args.traced {
        layers::probe(&data, &queries, spec::JOIN_TAU, &mut report, tracer);
        load.counters.publish(&mut report);
    }
    report
}
