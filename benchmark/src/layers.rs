//! The layer probes of the traced run.
//!
//! Every layer is measured from outside: the benchmark opens a span, calls
//! one public function of the layer on the workload's own table and
//! queries, closes the span and reads the counters the function returns.
//! A time reported here is the median span per operation.

use crate::harness::{Reading, Report};
use crate::library::{busiest_over_mean, cluster, DTW};
use crate::spec;
use crate::trace::Tracer;
use dita_cluster::{QueryScheduler, SchedulerConfig, TaskSpec};
use dita_core::{knn_search, search, verify_candidates, DitaConfig, DitaSystem, QueryContext};
use dita_distance::{dtw_soa, Scratch};
use dita_index::{
    str_partitioning_par, BatchProbeScratch, FilterStats, GlobalIndex, ProbeScratch, TrieIndex,
};
use dita_sql::{Engine, QueryResult};
use dita_trajectory::{Dataset, Point, Trajectory};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Median duration, in `unit_per_s` units, of the spans named `name`.
fn span_reading(tracer: &Tracer, name: &str, unit_per_s: f64) -> Option<Reading> {
    let v: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9 * unit_per_s)
        .collect();
    (!v.is_empty()).then(|| Reading::of(&v))
}

/// Publishes the median of the spans named `span` as metric `metric`.
pub fn publish(
    report: &mut Report,
    tracer: &Tracer,
    metric: &'static str,
    span: &str,
    unit_per_s: f64,
) {
    if let Some(r) = span_reading(tracer, span, unit_per_s) {
        report.set(metric, r);
    }
}

/// The statement `/sql` and the SQL probes send for query `q`.
pub fn select_sql(table: &str, q: &[Point], tau: f64) -> String {
    let pts: Vec<String> = q.iter().map(|p| format!("({}, {})", p.x, p.y)).collect();
    format!(
        "SELECT * FROM {table} WHERE DTW({table}, TRAJECTORY({})) <= {tau}",
        pts.join(", ")
    )
}

/// `n` rows for the write path: copies of stored rows, every point moved by
/// up to a tenth of the search threshold, under ids from `first_id` on.
/// Near-duplicates of stored rows are what a taxi feed delivers and they
/// make the written rows show up in the answers of the workload's queries.
pub fn jittered_rows(
    rows: &[Trajectory],
    n: usize,
    first_id: u64,
    tau: f64,
    seed: u64,
) -> Vec<Trajectory> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0057_1773);
    let amp = tau * 0.1;
    (0..n)
        .map(|k| {
            let src = &rows[rng.gen_range(0..rows.len())];
            let pts = src
                .points()
                .iter()
                .map(|p| {
                    Point::new(
                        p.x + rng.gen_range(-amp..amp),
                        p.y + rng.gen_range(-amp..amp),
                    )
                })
                .collect();
            Trajectory::new(first_id + k as u64, pts)
        })
        .collect()
}

/// Runs every probe on `data`/`queries` and publishes the per-layer
/// metrics they yield.
pub fn probe(
    data: &Dataset,
    queries: &[Trajectory],
    tau: f64,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let cfg = DitaConfig::default();
    let rows = data.trajectories();
    let probes: Vec<&Trajectory> = queries.iter().take(spec::PROBE_OPS).collect();

    // --- index: the three stages of a build, one after the other ---
    let (partitioning, _) = tracer.time("index.partition", 0, || {
        str_partitioning_par(rows, cfg.ng, cfg.trie.build_threads)
    });
    let (global, _) = tracer.time("index.global_build", 0, || {
        GlobalIndex::build(&partitioning)
    });
    let (tries, _) = tracer.time("index.trie_build", 0, || -> Vec<TrieIndex> {
        partitioning
            .partitions
            .iter()
            .map(|p| {
                let members = p.members.iter().map(|&m| rows[m].clone()).collect();
                TrieIndex::build_timed(members, cfg.trie).0
            })
            .collect()
    });
    drop((global, tries));
    publish(report, tracer, "index.partition_ms", "index.partition", 1e3);
    publish(
        report,
        tracer,
        "index.global_build_ms",
        "index.global_build",
        1e3,
    );
    publish(
        report,
        tracer,
        "index.trie_build_ms",
        "index.trie_build",
        1e3,
    );
    let mut sys = DitaSystem::build_with_partitioning(data, cfg, cluster(), Some(partitioning));
    report.set_value(
        "index.bytes_per_traj",
        sys.build_stats().total_size_bytes as f64 / rows.len() as f64,
    );

    // --- one query at a time through global index, trie, verify, kernel,
    //     an empty cluster job, and the whole search ---
    let mode = DTW.index_mode();
    let mut probe_scratch = ProbeScratch::new();
    let mut kernel = Scratch::new();
    let mut funnel = FilterStats::default();
    let (mut relevant_total, mut candidates, mut hits_total) = (0usize, 0usize, 0usize);
    let (mut cells, mut kernel_s, mut verify_s) = (0u64, 0.0f64, 0.0f64);
    let (mut searched_hits, mut shipped, mut network_ms, mut load) = (0usize, 0u64, 0.0f64, 0.0f64);
    let mut self_us = Vec::with_capacity(probes.len());
    for (i, q) in probes.iter().enumerate() {
        let op = i as u64;
        let pts = q.points();
        let parent = tracer.enter("probe.op", op);
        let (relevant, global_s) = tracer.time("index.global_probe", op, || {
            sys.global()
                .relevant_partitions(&pts[0], &pts[pts.len() - 1], pts.len(), tau, mode)
        });
        relevant_total += relevant.len();
        let ctx = QueryContext::new(pts, cfg.trie.cell_side);
        // Filter and verify run per partition on that partition's worker;
        // the busiest worker's share is what a search waits for.
        let mut worker_s = [0.0f64; spec::WORKERS];
        let mut lists: Vec<(usize, Vec<u32>)> = Vec::with_capacity(relevant.len());
        tracer.time("index.trie_probe", op, || {
            for &pid in &relevant {
                let t0 = Instant::now();
                let (c, fs) =
                    sys.trie(pid)
                        .candidates_with_scratch(pts, tau, &DTW, &mut probe_scratch);
                worker_s[sys.worker_of(pid)] += t0.elapsed().as_secs_f64();
                funnel.merge(&fs);
                lists.push((pid, c));
            }
        });
        let (_, v_s) = tracer.time("core.verify", op, || {
            for (pid, c) in &lists {
                let t0 = Instant::now();
                hits_total += verify_candidates(sys.trie(*pid), c, &ctx, tau, &DTW, 1).len();
                worker_s[sys.worker_of(*pid)] += t0.elapsed().as_secs_f64();
            }
        });
        verify_s += v_s;
        let (_, k_s) = tracer.time("distance.kernel", op, || {
            for (pid, c) in &lists {
                let trie = sys.trie(*pid);
                for &id in c {
                    let t = trie.get(id);
                    cells += (t.len() * pts.len()) as u64;
                    std::hint::black_box(dtw_soa(t.soa(), ctx.soa().view(), tau, &mut kernel));
                }
                candidates += c.len();
            }
        });
        kernel_s += k_s;
        let (_, noop_s) = tracer.time("cluster.execute_noop", op, || {
            let tasks: Vec<TaskSpec<()>> = (0..spec::WORKERS)
                .map(|worker| TaskSpec {
                    worker,
                    incoming_bytes: 0,
                    partition: None,
                    payload: (),
                })
                .collect();
            sys.cluster().execute(tasks, |_, ()| ())
        });
        let ((hits, stats), search_s) =
            tracer.time("core.search", op, || search(&sys, pts, tau, &DTW));
        tracer.exit(parent);
        searched_hits += hits.len();
        shipped += stats.job.total_bytes();
        network_ms += stats.job.total_network_sec() * 1e3;
        load += busiest_over_mean(&stats.job);
        // What the search call spends outside the spans above. The probes
        // run one after the other what a search overlaps across workers,
        // so this is a residual and may dip below zero.
        let busiest = worker_s.iter().copied().fold(0.0, f64::max);
        self_us.push((search_s - global_s - noop_s - busiest) * 1e6);
    }
    let n = probes.len().max(1) as f64;
    publish(
        report,
        tracer,
        "index.global_probe_us",
        "index.global_probe",
        1e6,
    );
    publish(
        report,
        tracer,
        "index.trie_probe_us",
        "index.trie_probe",
        1e6,
    );
    publish(report, tracer, "core.verify_us_per_op", "core.verify", 1e6);
    publish(
        report,
        tracer,
        "cluster.execute_overhead_us",
        "cluster.execute_noop",
        1e6,
    );
    publish(report, tracer, "core.search_us", "core.search", 1e6);
    report.set("core.search_self_us", Reading::of(&self_us));
    report.set_value("distance.nominal_cells_per_op", cells as f64 / n);
    if candidates > 0 {
        report.set_value(
            "distance.kernel_ns_per_pair",
            kernel_s * 1e9 / candidates as f64,
        );
        report.set_value(
            "core.verified_pairs_per_s",
            candidates as f64 / verify_s.max(1e-12),
        );
    }
    for (name, v) in [
        (
            "index.relevant_partitions_per_op",
            relevant_total as f64 / n,
        ),
        (
            "index.nodes_visited_per_op",
            funnel.nodes_visited as f64 / n,
        ),
        (
            "index.members_checked_per_op",
            funnel.members_checked as f64 / n,
        ),
        ("index.candidates_per_op", candidates as f64 / n),
        (
            "index.filter_precision",
            hits_total as f64 / candidates.max(1) as f64,
        ),
        ("cluster.shipped_bytes_per_op", shipped as f64 / n),
        ("cluster.network_model_ms_per_op", network_ms / n),
        ("cluster.load_ratio", load / n),
    ] {
        report.set_value(name, v);
    }
    report.check(
        "verifying the probed candidates finds what the searches return",
        hits_total == searched_hits,
    );

    // --- the batched probe, eight queries a walk ---
    let mut batch_scratch = BatchProbeScratch::new();
    for (b, chunk) in probes.chunks(spec::SERVE_SQL_BATCH).enumerate() {
        let relevant: Vec<Vec<usize>> = chunk
            .iter()
            .map(|q| {
                let p = q.points();
                sys.global()
                    .relevant_partitions(&p[0], &p[p.len() - 1], p.len(), tau, mode)
            })
            .collect();
        tracer.time("index.batch_probe", b as u64, || {
            for pid in 0..sys.num_partitions() {
                let qs: Vec<&[Point]> = chunk
                    .iter()
                    .zip(&relevant)
                    .filter(|(_, r)| r.contains(&pid))
                    .map(|(q, _)| q.points())
                    .collect();
                if !qs.is_empty() {
                    let taus = vec![tau; qs.len()];
                    std::hint::black_box(sys.trie(pid).candidates_batch(
                        &qs,
                        &taus,
                        &DTW,
                        &mut batch_scratch,
                    ));
                }
            }
        });
    }
    if let Some(r) = span_reading(tracer, "index.batch_probe", 1e6) {
        report.set_value(
            "index.batch_probe_us_per_query",
            r.value / spec::SERVE_SQL_BATCH as f64,
        );
    }

    // --- kNN (a tenth of the probes: each one is several searches) ---
    for (i, q) in probes.iter().take(probes.len().div_ceil(10)).enumerate() {
        tracer.time("core.knn", i as u64, || {
            knn_search(&sys, q.points(), spec::SERVE_KNN_K, &DTW)
        });
    }
    publish(report, tracer, "core.knn_us", "core.knn", 1e6);

    // --- obs: the same searches with an enabled context attached ---
    let pass = |sys: &DitaSystem| {
        let t0 = Instant::now();
        for q in &probes {
            std::hint::black_box(search(sys, q.points(), tau, &DTW));
        }
        t0.elapsed().as_secs_f64()
    };
    let mut off_s = f64::INFINITY;
    let mut on_s = f64::INFINITY;
    for _ in 0..2 {
        off_s = off_s.min(pass(&sys));
        sys.attach_obs(dita_obs::Obs::enabled());
        on_s = on_s.min(pass(&sys));
        sys.attach_obs(dita_obs::Obs::disabled());
    }
    report.set_value("obs.overhead_share", 1.0 - off_s / on_s);

    probe_scheduler(report, tracer);
    probe_sql(data, &probes, tau, &sys, report, tracer);
    probe_ingest(&mut sys, rows, &probes, tau, report, tracer);
}

/// `QueryScheduler` alone: submit a queue's worth over four classes, then
/// form batches until it is empty.
fn probe_scheduler(report: &mut Report, tracer: &mut Tracer) {
    let scheduler: QueryScheduler<u64> = QueryScheduler::new(SchedulerConfig::default());
    for round in 0..spec::PROBE_OPS as u64 {
        for j in 0..64u64 {
            tracer.time("cluster.scheduler_submit", round, || {
                scheduler.submit(j % 4, 1.0, j).expect("queue has room")
            });
        }
        while tracer
            .time("cluster.scheduler_next_batch", round, || {
                scheduler.next_batch()
            })
            .0
            .is_some()
        {}
    }
    publish(
        report,
        tracer,
        "cluster.scheduler_submit_us",
        "cluster.scheduler_submit",
        1e6,
    );
    publish(
        report,
        tracer,
        "cluster.scheduler_next_batch_us",
        "cluster.scheduler_next_batch",
        1e6,
    );
}

/// The SQL front end on the same table: parse, plan, and batched execute.
fn probe_sql(
    data: &Dataset,
    probes: &[&Trajectory],
    tau: f64,
    sys: &DitaSystem,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let mut engine = Engine::new(cluster(), DitaConfig::default());
    engine.register("t", data.clone()).expect("fresh catalog");
    engine.ensure_index("t").expect("table was just registered");
    let statements: Vec<String> = probes
        .iter()
        .map(|q| select_sql("t", q.points(), tau))
        .collect();
    for (i, sql) in statements.iter().enumerate() {
        let (stmt, _) = tracer.time("sql.parse", i as u64, || dita_sql::parser::parse(sql));
        let stmt = stmt.expect("generated statement parses");
        let (plan, _) = tracer.time("sql.plan", i as u64, || {
            dita_sql::plan::logical_plan(stmt).map(|lp| dita_sql::plan::physical_plan(lp, |_| true))
        });
        plan.expect("generated statement plans");
    }
    let mut same = true;
    for (b, chunk) in statements.chunks(spec::SERVE_SQL_BATCH).enumerate() {
        let refs: Vec<&str> = chunk.iter().map(String::as_str).collect();
        let (results, _) = tracer.time("sql.execute_batch", b as u64, || {
            engine.execute_batch(&refs)
        });
        let results = results.expect("generated statements execute");
        for (k, r) in results.iter().enumerate() {
            let q = probes[b * spec::SERVE_SQL_BATCH + k].points();
            let want = search(sys, q, tau, &DTW).0;
            same &= matches!(r, QueryResult::SearchHits(h) if *h == want);
        }
    }
    report.check("SQL batch answers equal the library's", same);
    publish(report, tracer, "sql.parse_us", "sql.parse", 1e6);
    publish(report, tracer, "sql.plan_us", "sql.plan", 1e6);
    if let Some(r) = span_reading(tracer, "sql.execute_batch", 1e6) {
        report.set_value(
            "sql.execute_batch_us_per_stmt",
            r.value / spec::SERVE_SQL_BATCH as f64,
        );
    }
}

/// The write path on a library twin: the writes of one `serve_mixed` cycle
/// (both clients) with its flush policy, then one compaction.
fn probe_ingest(
    sys: &mut DitaSystem,
    rows: &[Trajectory],
    probes: &[&Trajectory],
    tau: f64,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let writes = jittered_rows(
        rows,
        2 * spec::SERVE_CYCLES_PER_STRETCH,
        spec::SERVE_INSERT_BASE,
        tau,
        0,
    );
    for (k, t) in writes.into_iter().enumerate() {
        tracer.time("ingest.insert", k as u64, || sys.insert(t));
        if (k + 1) % (2 * spec::SERVE_FLUSH_EVERY) == 0 {
            tracer.time("ingest.flush", k as u64, || sys.flush());
        }
    }
    let delta: usize = probes
        .iter()
        .map(|q| search(sys, q.points(), tau, &DTW).1.delta_candidates)
        .sum();
    report.set_value(
        "core.delta_candidates_per_op",
        delta as f64 / probes.len().max(1) as f64,
    );
    report.set_value("ingest.delta_ratio_end", sys.delta_ratio());
    tracer.time("ingest.compact", 0, || sys.compact());
    report.set_value("ingest.compactions", sys.ingest_stats().compactions as f64);
    publish(
        report,
        tracer,
        "ingest.insert_us_per_row",
        "ingest.insert",
        1e6,
    );
    publish(report, tracer, "ingest.flush_ms", "ingest.flush", 1e3);
    publish(report, tracer, "ingest.compact_ms", "ingest.compact", 1e3);
}
