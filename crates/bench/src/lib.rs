//! Experiment harness shared by the per-figure/per-table binaries.
//!
//! Every binary in `src/bin/exp_*.rs` regenerates one table or figure of the
//! paper (DESIGN.md §4 maps them). This library holds what they share:
//! scaled dataset construction, the latency conventions, a column-aligned
//! table printer and a JSON result sink.
//!
//! # Latency convention
//!
//! The paper reports wall-clock times on a 64-node cluster. Here every
//! "cluster" is simulated on one machine (possibly with a single physical
//! core), so raw wall-clock would conflate all workers onto one CPU. All
//! experiments therefore report the **simulated makespan**: the busiest
//! worker's `CPU time × straggler factor + modeled network time`, which is
//! what a real cluster's latency converges to with long-lived executors.
//! DFT's two-phase protocol reports the *sum* of its filter and verify
//! makespans — the driver-side barrier the paper highlights (§2.3).
//!
//! # Scale
//!
//! Dataset sizes default to a laptop-scale fraction of the paper's (11M+
//! trajectories don't fit this machine). `DITA_SCALE` multiplies every
//! cardinality; `DITA_QUERIES` overrides the query count (paper: 1000).

#![warn(missing_docs)]

pub mod runners;

use dita_cluster::{Cluster, ClusterConfig, JobStats};
use dita_core::DitaConfig;
use dita_index::{PivotStrategy, TrieConfig};
use dita_trajectory::Dataset;
use serde::Serialize;
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

/// Paper parameter table (Table 3), with defaults used across experiments.
pub mod params {
    /// The paper's threshold sweep: 0.001 ≈ 111 m.
    pub const TAUS: [f64; 5] = [0.001, 0.002, 0.003, 0.004, 0.005];
    /// The paper's sample-rate axis.
    pub const SAMPLE_RATES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
    /// The paper's cores axis, scaled 64,128,192,256 → 2,4,6,8 workers.
    pub const WORKERS: [usize; 4] = [2, 4, 6, 8];
    /// Default worker count (paper: 256 cores → 8 workers here).
    pub const DEFAULT_WORKERS: usize = 8;
}

/// Global cardinality scale from `DITA_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("DITA_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Query count from `DITA_QUERIES` (default 100; paper: 1000).
pub fn num_queries() -> usize {
    std::env::var("DITA_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100)
}

fn scaled(base: usize) -> usize {
    ((base as f64) * scale()).round().max(16.0) as usize
}

/// Beijing-like dataset at harness scale (base 40,000 trajectories,
/// mirroring Beijing being the smaller taxi dataset).
pub fn beijing() -> Dataset {
    dita_datagen::beijing_like(scaled(40_000), 0xBEEF)
}

/// Chengdu-like dataset at harness scale (base 16,000; the paper's Chengdu
/// has ~1.4× Beijing's cardinality and longer trajectories).
pub fn chengdu() -> Dataset {
    dita_datagen::chengdu_like(scaled(50_000), 0xC0FFEE)
}

/// OSM-like search dataset (base 6,000 long worldwide trajectories).
pub fn osm_search() -> Dataset {
    dita_datagen::osm_like(scaled(15_000), 0x05A1)
}

/// OSM-like join dataset (roughly half of the search one, as in Table 2).
pub fn osm_join() -> Dataset {
    dita_datagen::osm_like(scaled(8_000), 0x05A2)
}

/// Chengdu(tiny) centralized dataset (Table 6; base 2,000).
pub fn chengdu_tiny() -> Dataset {
    dita_datagen::chengdu_tiny(scaled(3_000), 0x717)
}

/// The DITA configuration used by the experiments (Table 3 defaults scaled
/// to harness size: N_G is the per-dataset default ratio of the paper).
pub fn dita_config(ng: usize) -> DitaConfig {
    DitaConfig {
        ng,
        trie: TrieConfig {
            k: 4,
            nl: 8,
            leaf_capacity: 16,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 0.002,
            ..TrieConfig::default()
        },
    }
}

/// Default N_G per dataset (paper: 64 Beijing / 128 Chengdu / 256 OSM,
/// scaled down with the data).
pub fn default_ng(dataset: &str) -> usize {
    match dataset {
        d if d.starts_with("beijing") => 8,
        d if d.starts_with("chengdu-tiny") => 4,
        d if d.starts_with("chengdu") => 10,
        _ => 12,
    }
}

/// A healthy cluster with `workers` workers.
///
/// The network keeps the default 1 GbE bandwidth but uses a 50 µs message
/// latency: the harness datasets are ~300× smaller than the paper's, so the
/// per-message latency floor is scaled down too — otherwise it would mask
/// the compute differences the figures exist to show (EXPERIMENTS.md
/// discusses this calibration).
pub fn cluster(workers: usize) -> Cluster {
    let mut config = ClusterConfig::with_workers(workers);
    config.network.latency_sec = 5e-5;
    Cluster::new(config)
}

/// Milliseconds of one job's simulated makespan.
pub fn makespan_ms(job: &JobStats) -> f64 {
    job.makespan_sec() * 1e3
}

/// A column-aligned table printer matching the rows the paper reports.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column names.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len());
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("\n=== {} ===", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                s.push_str(&format!("{cell:>w$}  ", w = w));
            }
            println!("{}", s.trim_end());
        };
        line(&self.header);
        line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
        for row in &self.rows {
            line(row);
        }
    }
}

/// One machine-readable measurement row.
#[derive(Debug, Serialize)]
pub struct Measurement {
    /// Experiment id, e.g. `"fig7a"`.
    pub experiment: String,
    /// System under test, e.g. `"dita"`.
    pub system: String,
    /// Dataset name.
    pub dataset: String,
    /// Free-form parameter map (tau, workers, ...).
    pub params: serde_json::Value,
    /// Metric name, e.g. `"search_ms"`.
    pub metric: String,
    /// The value.
    pub value: f64,
}

/// Collects measurements and writes `results/<experiment>.json` on drop.
pub struct Sink {
    experiment: String,
    rows: Vec<Measurement>,
}

impl Sink {
    /// Opens a sink for one experiment id.
    pub fn new(experiment: &str) -> Self {
        Sink {
            experiment: experiment.to_string(),
            rows: Vec::new(),
        }
    }

    /// Records one measurement.
    pub fn record(
        &mut self,
        system: &str,
        dataset: &str,
        params: serde_json::Value,
        metric: &str,
        value: f64,
    ) {
        self.rows.push(Measurement {
            experiment: self.experiment.clone(),
            system: system.into(),
            dataset: dataset.into(),
            params,
            metric: metric.into(),
            value,
        });
    }

    /// Writes the JSON file (best-effort; failures print a warning).
    pub fn flush(&self) {
        let dir = PathBuf::from("results");
        if fs::create_dir_all(&dir).is_err() {
            eprintln!("warning: cannot create results/");
            return;
        }
        let path = dir.join(format!("{}.json", self.experiment));
        match serde_json::to_vec_pretty(&self.rows) {
            Ok(bytes) => {
                if fs::write(&path, bytes).is_err() {
                    eprintln!("warning: cannot write {}", path.display());
                }
            }
            Err(e) => eprintln!("warning: serialize failed: {e}"),
        }
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_minimum() {
        assert!(scaled(10) >= 16);
    }

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new("demo", &["tau", "ms"]);
        t.row(&[&0.001, &12.5]);
        t.row(&[&0.002, &13.0]);
        t.print();
    }

    #[test]
    fn default_ngs() {
        assert_eq!(default_ng("beijing-like"), 8);
        assert_eq!(default_ng("chengdu-like"), 10);
        assert_eq!(default_ng("chengdu-tiny"), 4);
        assert_eq!(default_ng("osm-like"), 12);
    }

    #[test]
    fn sink_writes_json() {
        let mut s = Sink::new("unit-test-sink");
        s.record(
            "dita",
            "beijing",
            serde_json::json!({"tau": 0.001}),
            "ms",
            1.0,
        );
        // Drop flushes: read only after it, and clean up before asserting,
        // so neither a late flush nor a failure leaves a file in the tree.
        drop(s);
        let text = std::fs::read_to_string("results/unit-test-sink.json");
        let _ = std::fs::remove_file("results/unit-test-sink.json");
        let _ = std::fs::remove_dir("results");
        assert!(text.unwrap().contains("unit-test-sink"));
    }
}
