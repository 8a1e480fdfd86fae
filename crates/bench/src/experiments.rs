//! The paper's evaluation: one function per table or figure, registered in
//! [`EXPERIMENTS`]. A function measures and records; it prints nothing and
//! writes nothing — `exp` renders the rows ([`crate::view::render`]) and
//! writes the file once the function has returned.

use crate::params::{DEFAULT_WORKERS, SAMPLE_RATES, TAUS};
use crate::runners::{dita_join_ms, join_figure, mean_search_ms, search_figure, SearchSystems};
use crate::{cluster, default_ng, dita_config, params, Harness, Sink, DATASETS};
use dita_baselines::{DftSystem, MbeIndex, VpTree};
use dita_core::{knn_search, search, BalanceStrategy, DitaSystem, JoinOptions};
use dita_datagen::{city_dataset, CityConfig};
use dita_distance::{dtw, dtw_threshold, DistanceFunction};
use dita_index::{random_partitioning, PivotStrategy, TrieConfig};
use dita_obs::json::{ToJson, Value};
use dita_trajectory::trajectory::figure1_trajectories;
use dita_trajectory::{Dataset, Trajectory};
use std::time::Instant;

/// One table or figure of the evaluation.
pub struct Experiment {
    /// Its id: the argument of `exp`, the stem of its result file and the
    /// "binary" column of DESIGN.md §4.
    pub name: &'static str,
    /// The fields (`system`, `dataset`, `metric` or a parameter) whose values
    /// label a printed row; a row shows those of them it has.
    pub rows: &'static [&'static str],
    /// The fields that, with the dataset, split the rows into tables. Every
    /// other field becomes part of a column's label.
    pub tables: &'static [&'static str],
    /// Measures and records.
    pub run: fn(&Harness, &mut Sink),
}

impl Experiment {
    /// Runs the experiment into a fresh sink.
    pub fn measure(&self, harness: &Harness) -> Sink {
        let mut sink = Sink::new(self.name);
        (self.run)(harness, &mut sink);
        sink
    }
}

const fn exp(
    name: &'static str,
    rows: &'static [&'static str],
    tables: &'static [&'static str],
    run: fn(&Harness, &mut Sink),
) -> Experiment {
    Experiment {
        name,
        rows,
        tables,
        run,
    }
}

/// Every experiment, in the paper's order; `exp --list`, `exp all` and the
/// tests iterate this.
pub const EXPERIMENTS: [Experiment; 17] = [
    exp("table1", &["i"], &["metric"], table1),
    exp("table2", &["set", "dataset"], &[], table2),
    exp("fig7", &["tau", "rate", "workers"], &["panel"], fig7),
    exp("fig8", &["tau", "rate", "workers"], &["panel"], fig8),
    exp("fig9", &["tau", "rate", "workers"], &["panel"], fig9),
    exp("fig10", &["tau", "rate", "workers"], &["panel"], fig10),
    exp("fig11", &["tau"], &["func", "metric"], fig11),
    exp("fig12", &["tau"], &[], fig12),
    exp("fig13", &["tau"], &[], fig13),
    exp("fig14", &["tau"], &[], fig14),
    exp("fig15", &["tau"], &[], fig15),
    exp("fig16", &["tau"], &[], fig16),
    exp("fig17", &["tau"], &["func"], fig17),
    exp("table4", &["ng"], &[], table4),
    exp("table5", &["system", "rate"], &[], table5),
    exp("table7", &["system"], &[], table7),
    exp("ext_knn", &["k"], &[], ext_knn),
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

const DTW: DistanceFunction = DistanceFunction::Dtw;

/// DITA over `dataset` with the harness configuration on the default cluster.
fn build_dita(dataset: &Dataset, ng: usize) -> DitaSystem {
    DitaSystem::build(dataset, dita_config(ng), cluster(DEFAULT_WORKERS))
}

/// DITA's self-join time with the default join options.
fn join_ms(sys: &DitaSystem, tau: f64, func: &DistanceFunction) -> f64 {
    dita_join_ms(sys, tau, func, &JoinOptions::default()).0
}

/// Table 1: the point-to-point distance matrix and the DTW matrix
/// `w(i, j) = DTW(T1^i, T3^j)` of the worked example T1/T3 of Figure 1
/// (the paper: DTW(T1, T3) = w(6, 6) = 5.41).
fn table1(_: &Harness, sink: &mut Sink) {
    let ts = figure1_trajectories();
    let (t1, t3) = (ts[0].points(), ts[2].points());
    for i in 1..=t1.len() {
        for j in 1..=t3.len() {
            let mut at = sink.at("figure1", params(&[("i", &i), ("j", &j)]));
            at.record("dita", "point_dist", t1[i - 1].dist(&t3[j - 1]));
            at.record("dita", "dtw", dtw(&t1[..i], &t3[..j]));
        }
    }
}

/// Table 2 (and Table 6): statistics of the datasets used across the
/// experiments, at the harness scale.
fn table2(h: &Harness, sink: &mut Sink) {
    for (i, (set, ..)) in DATASETS.iter().enumerate() {
        let dataset = h.dataset(i);
        let s = dataset.stats();
        let mut at = sink.at(&dataset.name, params(&[("set", set)]));
        at.record("datagen", "cardinality", s.cardinality as f64);
        at.record("datagen", "avg_len", s.avg_len);
        at.record("datagen", "min_len", s.min_len as f64);
        at.record("datagen", "max_len", s.max_len as f64);
        at.record("datagen", "size_mb", s.size_bytes as f64 / 1048576.0);
    }
}

/// Figure 7: distributed similarity search on Beijing with DTW — Naive /
/// Simba / DFT / DITA over τ, sample rate, workers and scale-out.
fn fig7(h: &Harness, sink: &mut Sink) {
    search_figure(h, sink, h.beijing(), 0.003);
}

/// Figure 8: distributed similarity search on Chengdu with DTW.
fn fig8(h: &Harness, sink: &mut Sink) {
    search_figure(h, sink, h.chengdu(), 0.003);
}

/// Figure 9: distributed similarity join on Beijing with DTW — Simba vs
/// DITA over τ, sample rate, workers and scale-out.
fn fig9(h: &Harness, sink: &mut Sink) {
    join_figure(sink, h.beijing(), 0.003);
}

/// Figure 10: distributed similarity join on Chengdu with DTW.
fn fig10(h: &Harness, sink: &mut Sink) {
    join_figure(sink, h.chengdu(), 0.003);
}

/// Figure 11: the large worldwide datasets — search on OSM(search) with all
/// four systems and join on OSM(join) with DITA only (the baselines cannot
/// complete the paper's join either), under both DTW and Fréchet.
fn fig11(h: &Harness, sink: &mut Sink) {
    let (search_data, join_data) = (h.osm_search(), h.osm_join());
    let ng = default_ng(&search_data.name);
    let queries = h.queries(search_data);
    let systems = SearchSystems::build(search_data, DEFAULT_WORKERS, ng);
    let dita = build_dita(join_data, ng);
    for (func, label) in [(DTW, "DTW"), (DistanceFunction::Frechet, "Frechet")] {
        for tau in TAUS {
            let at = params(&[("tau", &tau), ("func", &label)]);
            let search_at = &mut sink.at(&search_data.name, at.clone());
            systems.record(search_at, &queries, tau, &func);
            let ms = join_ms(&dita, tau, &func);
            sink.at(&join_data.name, at).record("dita", "join_ms", ms);
        }
    }
}

/// DITA's DTW self-join time over the τ sweep for each variant of one trie
/// setting, every variant built once; `key` names the setting in the rows.
fn trie_sweep<T: Copy>(
    sink: &mut Sink,
    dataset: &Dataset,
    key: &str,
    variants: &[T],
    value: impl Fn(T) -> Value,
    set: impl Fn(&mut TrieConfig, T),
) {
    let ng = default_ng(&dataset.name);
    let build = |&v: &T| {
        let mut config = dita_config(ng);
        set(&mut config.trie, v);
        DitaSystem::build(dataset, config, cluster(DEFAULT_WORKERS))
    };
    let builds: Vec<DitaSystem> = variants.iter().map(build).collect();
    for tau in TAUS {
        for (sys, &v) in builds.iter().zip(variants) {
            let at = params(&[("tau", &tau), (key, &value(v))]);
            let ms = join_ms(sys, tau, &DTW);
            sink.at(&dataset.name, at).record("dita", "join_ms", ms);
        }
    }
}

/// Figure 12: pivot selection strategies (a, b) and pivot count K (c, d) —
/// join time on Beijing and Chengdu.
fn fig12(h: &Harness, sink: &mut Sink) {
    let strategy = |s: PivotStrategy| s.name().to_json();
    for dataset in [h.beijing(), h.chengdu()] {
        let all = &PivotStrategy::ALL;
        trie_sweep(sink, dataset, "strategy", all, strategy, |t, s| {
            t.strategy = s
        });
        let ks = &[2usize, 3, 4, 5, 6];
        trie_sweep(sink, dataset, "k", ks, |k| k.to_json(), |t, k| t.k = k);
    }
}

/// Figure 13: endpoint STR partitioning vs random partitioning — join time.
fn fig13(h: &Harness, sink: &mut Sink) {
    for dataset in [h.beijing(), h.chengdu()] {
        let ng = default_ng(&dataset.name);
        let dita = build_dita(dataset, ng);
        let parts = dita.num_partitions().max(1);
        let random = DitaSystem::build_with_partitioning(
            dataset,
            dita_config(ng),
            cluster(DEFAULT_WORKERS),
            Some(random_partitioning(dataset.trajectories(), parts, 0xF00D)),
        );
        for tau in TAUS {
            let mut at = sink.at(&dataset.name, params(&[("tau", &tau)]));
            at.record("dita", "join_ms", join_ms(&dita, tau, &DTW));
            at.record("random", "join_ms", join_ms(&random, tau, &DTW));
        }
    }
}

/// Figure 14: trie fanout N_L sweep — join time on Beijing and Chengdu.
fn fig14(h: &Harness, sink: &mut Sink) {
    for dataset in [h.beijing(), h.chengdu()] {
        let nls = &[4usize, 8, 16];
        trie_sweep(
            sink,
            dataset,
            "nl",
            nls,
            |nl| nl.to_json(),
            |t, nl| t.nl = nl,
        );
    }
}

/// Figure 15: join time under the other distance functions — DTW vs Fréchet
/// over the geometric τ sweep, EDR vs LCSS over integer thresholds (ϵ =
/// 1e-4, δ = 3 as in Appendix B). The edit family's endpoint pruning is
/// inherently weak (an integer budget ≥ 2 admits every partition pair), so
/// EDR/LCSS run on a 30% sample — the paper makes the same point by
/// reporting those joins an order of magnitude slower.
fn fig15(h: &Harness, sink: &mut Sink) {
    const EDR: DistanceFunction = DistanceFunction::PAPER_EDR;
    const LCSS: DistanceFunction = DistanceFunction::PAPER_LCSS;
    for dataset in [h.beijing(), h.chengdu()] {
        let ng = default_ng(&dataset.name);
        let full = build_dita(dataset, ng);
        for tau in TAUS {
            let mut at = sink.at(&dataset.name, params(&[("tau", &tau)]));
            at.record("dtw", "join_ms", join_ms(&full, tau, &DTW));
            at.record(
                "frechet",
                "join_ms",
                join_ms(&full, tau, &DistanceFunction::Frechet),
            );
        }
        let sampled = build_dita(&dataset.sample(0.3), ng);
        for tau in [1.0, 3.0, 5.0] {
            let mut at = sink.at(&dataset.name, params(&[("tau", &tau)]));
            at.record("edr", "join_ms", join_ms(&sampled, tau, &EDR));
            at.record("lcss", "join_ms", join_ms(&sampled, tau, &LCSS));
        }
    }
}

/// Rush-hour city: a small pool of very popular routes (airport runs,
/// commuter corridors) concentrates the join workload into a few clone
/// cliques, whose partitions become the stragglers §6.3 exists for.
fn rush_hour(h: &Harness, name: &str, center: (f64, f64), seed: u64) -> Dataset {
    city_dataset(&CityConfig {
        name: format!("{name}-rush"),
        cardinality: h.scaled(30_000),
        center,
        extent_deg: 0.30,
        grid_step_deg: 0.0015,
        avg_len: 25.0,
        min_len: 8,
        max_len: 120,
        gps_noise_deg: 0.00008,
        route_popularity: 0.10,
        popular_routes: 32,
        hotspot_fraction: 0.4,
        seed,
    })
}

/// Figure 16: load balancing — the un-balanced ratio (busiest / laziest
/// worker) and total join time, with and without DITA's balancing
/// mechanisms.
fn fig16(h: &Harness, sink: &mut Sink) {
    let naive = JoinOptions {
        balance: BalanceStrategy::None,
        ..JoinOptions::default()
    };
    let balanced = JoinOptions {
        // Percentile adapted to the harness partition count; the paper's
        // 0.98 assumes thousands of partitions.
        division_percentile: 0.75,
        ..JoinOptions::default()
    };
    for dataset in [
        rush_hour(h, "beijing", (39.9, 116.4), 0xF16A),
        rush_hour(h, "chengdu", (30.66, 104.06), 0xF16B),
    ] {
        let dita = build_dita(&dataset, 6);
        for tau in TAUS {
            let mut at = sink.at(&dataset.name, params(&[("tau", &tau)]));
            for (name, opts) in [("naive", &naive), ("dita", &balanced)] {
                let (ms, stats) = dita_join_ms(&dita, tau, &DTW, opts);
                at.record(name, "load_ratio", stats.job.load_ratio());
                at.record(name, "join_ms", ms);
            }
        }
    }
}

/// Figure 17 (and the Appendix C comparison): centralized baselines —
/// candidate counts and per-query latency of MBE, the VP-tree (metric
/// functions only, so Fréchet) and a single-worker DITA, under DTW and
/// Fréchet. One worker, so wall-clock is honest here.
fn fig17(h: &Harness, sink: &mut Sink) {
    let dataset = h.chengdu_tiny();
    let queries = h.queries(dataset);
    let nq = queries.len() as f64;
    let dita = DitaSystem::build(dataset, dita_config(default_ng(&dataset.name)), cluster(1));
    let mbe = MbeIndex::build(dataset.trajectories(), 4);
    let vp = VpTree::build(dataset.trajectories(), DistanceFunction::Frechet);
    for (func, label) in [(DTW, "DTW"), (DistanceFunction::Frechet, "Frechet")] {
        for tau in TAUS {
            let mut at = sink.at(&dataset.name, params(&[("tau", &tau), ("func", &label)]));
            let mut wall = |system: &str, candidates_of: &dyn Fn(&Trajectory) -> usize| {
                let t0 = Instant::now();
                let candidates: usize = queries.iter().map(candidates_of).sum();
                let ms = t0.elapsed().as_secs_f64() * 1e3 / nq;
                at.record(system, "candidates", candidates as f64 / nq);
                at.record(system, "search_ms", ms);
            };
            wall("mbe", &|q| mbe.search(q.points(), tau, &func).1);
            wall("dita", &|q| {
                search(&dita, q.points(), tau, &func).1.candidates
            });
            if func.is_metric() {
                wall("vptree", &|q| vp.search(q, tau).1);
            }
        }
    }
}

/// Table 4: the N_G (partition count) sweep — search and join time.
fn table4(h: &Harness, sink: &mut Sink) {
    let tau = 0.003;
    for dataset in [h.beijing(), h.chengdu()] {
        let queries = h.queries(dataset);
        for ng in [4usize, 8, 16, 24] {
            let dita = build_dita(dataset, ng);
            let search_ms = mean_search_ms(&queries, |q| vec![search(&dita, q, tau, &DTW).1.job]);
            let mut at = sink.at(&dataset.name, params(&[("ng", &ng)]));
            at.record("dita", "search_ms", search_ms);
            at.record("dita", "join_ms", join_ms(&dita, tau, &DTW));
        }
    }
}

/// Table 5: index construction time and size vs dataset sample rate for
/// DITA, and DFT at full scale, as in the paper's last rows.
fn table5(h: &Harness, sink: &mut Sink) {
    for dataset in [h.beijing(), h.chengdu()] {
        let ng = default_ng(&dataset.name);
        for rate in SAMPLE_RATES {
            let dita = build_dita(&dataset.sample(rate), ng);
            let b = dita.build_stats();
            let mut at = sink.at(&dataset.name, params(&[("rate", &rate)]));
            at.record("dita", "build_ms", b.build_time.as_secs_f64() * 1e3);
            at.record("dita", "local_kb", b.local_size_bytes as f64 / 1024.0);
        }
        let t0 = Instant::now();
        let dft = DftSystem::build(dataset.trajectories(), ng * ng, cluster(DEFAULT_WORKERS));
        let dft_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut at = sink.at(&dataset.name, params(&[("rate", &1.0)]));
        at.record("dft", "build_ms", dft_ms);
        at.record("dft", "local_kb", dft.index_size_bytes() as f64 / 1024.0);
    }
}

/// Table 7: centralized index construction time and size — DITA (one
/// worker) vs MBE vs VP-tree on Chengdu(tiny).
fn table7(h: &Harness, sink: &mut Sink) {
    let dataset = h.chengdu_tiny();
    let dita = DitaSystem::build(dataset, dita_config(default_ng(&dataset.name)), cluster(1));
    let b = dita.build_stats();
    let mbe = MbeIndex::build(dataset.trajectories(), 4);
    let vp = VpTree::build(dataset.trajectories(), DistanceFunction::Frechet);
    let mut at = sink.at(&dataset.name, params(&[]));
    for (system, build_time, bytes) in [
        (
            "DITA",
            b.build_time,
            b.global_size_bytes + b.local_size_bytes,
        ),
        ("MBE", mbe.build_time(), mbe.index_size_bytes()),
        ("VP-Tree", vp.build_time(), vp.index_size_bytes()),
    ] {
        at.record(system, "build_ms", build_time.as_secs_f64() * 1e3);
        at.record(system, "index_kb", bytes as f64 / 1024.0);
    }
}

/// Extension experiment (not in the paper): kNN search — the §8 future
/// work — via radius expansion over the DITA index, against a brute-force
/// top-k scan that early-abandons against the current k-th distance.
fn ext_knn(h: &Harness, sink: &mut Sink) {
    let dataset = h.beijing();
    let system = build_dita(dataset, default_ng(&dataset.name));
    let mut queries = h.queries(dataset);
    queries.truncate(50);
    let per_query_ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;
    for k in [1usize, 5, 10, 50] {
        let mut at = sink.at(&dataset.name, params(&[("k", &k)]));
        let t0 = Instant::now();
        for q in &queries {
            let (hits, _) = knn_search(&system, q.points(), k, &DTW);
            assert_eq!(hits.len(), k.min(system.len()));
        }
        at.record("dita", "knn_ms", per_query_ms(t0));

        let t0 = Instant::now();
        for q in &queries {
            let mut best: Vec<(u64, f64)> = Vec::new();
            let mut kth = f64::INFINITY;
            for t in dataset.trajectories() {
                let Some(d) = dtw_threshold(t.points(), q.points(), kth) else {
                    continue;
                };
                best.push((t.id, d));
                best.sort_by(|a, b| a.1.total_cmp(&b.1));
                best.truncate(k);
                if best.len() == k {
                    kth = best[k - 1].1;
                }
            }
            std::hint::black_box(best);
        }
        at.record("brute", "knn_ms", per_query_ms(t0));
    }
}
