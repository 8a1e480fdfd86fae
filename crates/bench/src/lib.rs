//! Experiment harness behind the one `exp` binary.
//!
//! [`experiments::EXPERIMENTS`] holds one function per table or figure of
//! the paper's evaluation (DESIGN.md §4 maps them). A function only
//! *measures and records* rows `(system, dataset, params, metric, value)`
//! into a [`Sink`]; the column-aligned table `exp` prints is a view over
//! those rows ([`view::render`]) and `<dir>/<experiment>.json` is the same
//! rows through `dita_obs::json`. This library holds what the experiments
//! share: the two run-size settings, scaled datasets built once per
//! process, the latency conventions (`runners.rs`) and the sink.
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

pub mod experiments;
mod runners;
pub mod view;

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::DitaConfig;
use dita_index::{PivotStrategy, TrieConfig};
use dita_obs::json::{self, FromJson, Obj, ToJson, Value};
use dita_trajectory::{Dataset, Trajectory};
use std::cell::OnceCell;
use std::path::{Path, PathBuf};

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

/// The two run-size settings (the third setting of `exp` is its output
/// directory).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// Multiplies every dataset cardinality (`DITA_SCALE`, default 1.0).
    pub scale: f64,
    /// Queries per search workload (`DITA_QUERIES`, default 100; paper: 1000).
    pub queries: usize,
}

impl Settings {
    /// Reads `DITA_SCALE` and `DITA_QUERIES`. A value that is set but is not
    /// a usable number is an error, never the default: a full-scale run
    /// where a smoke run was asked for is the worst reading of a typo.
    pub fn from_env() -> Result<Settings, String> {
        let var = |name: &str| std::env::var_os(name).map(|s| s.to_string_lossy().into_owned());
        Settings::parse(var("DITA_SCALE").as_deref(), var("DITA_QUERIES").as_deref())
    }

    /// [`Settings::from_env`] on the two raw values (`None` = unset).
    pub fn parse(scale: Option<&str>, queries: Option<&str>) -> Result<Settings, String> {
        let scale = match scale {
            None => 1.0,
            Some(s) => match s.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 => v,
                _ => return Err(format!("DITA_SCALE={s}: expected a positive number")),
            },
        };
        let queries = match queries {
            None => 100,
            Some(s) => match s.parse::<usize>() {
                Ok(v) if v > 0 => v,
                _ => return Err(format!("DITA_QUERIES={s}: expected a positive integer")),
            },
        };
        Ok(Settings { scale, queries })
    }
}

/// A seeded dataset generator: `(cardinality, seed)`.
type Generator = fn(usize, u64) -> Dataset;

/// The harness datasets: name, generator, base cardinality at scale 1, seed.
/// Beijing is the smaller taxi dataset, Chengdu has ~1.25× its cardinality
/// and longer trajectories, the OSM join set is roughly half the search one
/// (Table 2), and Chengdu(tiny) is the centralized dataset of Table 6.
pub(crate) const DATASETS: [(&str, Generator, usize, u64); 5] = [
    ("beijing", dita_datagen::beijing_like, 40_000, 0xBEEF),
    ("chengdu", dita_datagen::chengdu_like, 50_000, 0xC0FFEE),
    ("osm_search", dita_datagen::osm_like, 15_000, 0x05A1),
    ("osm_join", dita_datagen::osm_like, 8_000, 0x05A2),
    ("chengdu_tiny", dita_datagen::chengdu_tiny, 3_000, 0x717),
];

/// What every experiment runs against: the settings and the datasets of
/// `DATASETS`, each generated on first use and kept, so `exp all` builds
/// a dataset once however many figures read it.
pub struct Harness {
    /// The run-size settings.
    pub settings: Settings,
    data: [OnceCell<Dataset>; 5],
}

impl Harness {
    /// A harness with nothing generated yet.
    pub fn new(settings: Settings) -> Harness {
        Harness {
            settings,
            data: Default::default(),
        }
    }

    /// `base × DITA_SCALE`, at least 16.
    pub fn scaled(&self, base: usize) -> usize {
        ((base as f64) * self.settings.scale).round().max(16.0) as usize
    }

    /// `DATASETS[i]` at harness scale.
    pub(crate) fn dataset(&self, i: usize) -> &Dataset {
        self.data[i].get_or_init(|| {
            let (name, generate, base, seed) = DATASETS[i];
            let dataset = generate(self.scaled(base), seed);
            eprintln!("dataset {name}: {}", dataset.stats());
            dataset
        })
    }

    /// Beijing-like taxi trips.
    pub fn beijing(&self) -> &Dataset {
        self.dataset(0)
    }

    /// Chengdu-like taxi trips.
    pub fn chengdu(&self) -> &Dataset {
        self.dataset(1)
    }

    /// OSM-like long worldwide traces, the search set.
    pub fn osm_search(&self) -> &Dataset {
        self.dataset(2)
    }

    /// OSM-like traces, the join set.
    pub fn osm_join(&self) -> &Dataset {
        self.dataset(3)
    }

    /// Chengdu(tiny), the centralized dataset.
    pub fn chengdu_tiny(&self) -> &Dataset {
        self.dataset(4)
    }

    /// The search workload over `dataset`: `DITA_QUERIES` sampled queries.
    pub fn queries(&self, dataset: &Dataset) -> Vec<Trajectory> {
        dita_datagen::sample_queries(dataset, self.settings.queries, 0xA11CE)
    }
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

/// A parameter map (`tau`, `workers`, ...) for [`Sink::at`], keys
/// sorted so a file does not depend on the order they were written in.
pub fn params(fields: &[(&str, &dyn ToJson)]) -> Value {
    let mut fields: Vec<(String, Value)> = fields
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_json()))
        .collect();
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    Value::Obj(fields)
}

/// One measurement row — the schema of `results/*.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Experiment id, e.g. `"fig7"`.
    pub experiment: String,
    /// System under test, e.g. `"dita"`.
    pub system: String,
    /// Dataset name.
    pub dataset: String,
    /// Parameter map (tau, workers, ...), a JSON object.
    pub params: Value,
    /// Metric name, e.g. `"search_ms"`.
    pub metric: String,
    /// The value.
    pub value: f64,
}

impl ToJson for Measurement {
    fn to_json(&self) -> Value {
        Obj::new()
            .field("experiment", &self.experiment)
            .field("system", &self.system)
            .field("dataset", &self.dataset)
            .field("params", &self.params)
            .field("metric", &self.metric)
            .field("value", &self.value)
            .build()
    }
}

impl FromJson for Measurement {
    fn from_json(v: &Value) -> json::Result<Measurement> {
        Ok(Measurement {
            experiment: v.req("experiment")?,
            system: v.req("system")?,
            dataset: v.req("dataset")?,
            params: v.req("params")?,
            metric: v.req("metric")?,
            value: v.req("value")?,
        })
    }
}

/// Collects one experiment's measurements. Nothing reaches the disk until
/// [`Sink::write`] is called, so an experiment that panics half-way leaves
/// the file of an earlier run as it was.
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

    /// Opens one point of a series — a dataset and a parameter map from
    /// [`params`] — for recording, so neither is written twice.
    pub fn at<'a>(&'a mut self, dataset: &'a str, params: Value) -> At<'a> {
        At {
            sink: self,
            dataset,
            params,
        }
    }

    /// The measurements recorded so far, in order.
    pub fn rows(&self) -> &[Measurement] {
        &self.rows
    }

    /// Writes `<dir>/<experiment>.json`, creating `dir`, and returns the path.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        std::fs::write(&path, self.rows.to_json().pretty() + "\n")?;
        Ok(path)
    }
}

/// One point of a series, open for recording ([`Sink::at`]).
pub struct At<'a> {
    sink: &'a mut Sink,
    dataset: &'a str,
    params: Value,
}

impl At<'_> {
    /// Records `system`'s `metric` at this point.
    pub fn record(&mut self, system: &str, metric: &str, value: f64) {
        self.sink.rows.push(Measurement {
            experiment: self.sink.experiment.clone(),
            system: system.into(),
            dataset: self.dataset.into(),
            params: self.params.clone(),
            metric: metric.into(),
            value,
        });
    }
}

/// Reads a result file back: the rows a [`Sink`] wrote, or a committed
/// `results/<experiment>.json`.
pub fn read_results(path: &Path) -> Result<Vec<Measurement>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text)
        .and_then(|v| Vec::<Measurement>::from_json(&v))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_minimum() {
        let h = Harness::new(Settings::parse(Some("0.0001"), None).unwrap());
        assert_eq!(h.scaled(10), 16);
        assert_eq!(
            Harness::new(Settings::parse(None, None).unwrap()).scaled(40_000),
            40_000
        );
    }

    #[test]
    fn unusable_settings_are_errors_not_defaults() {
        let defaults = Settings {
            scale: 1.0,
            queries: 100,
        };
        assert_eq!(Settings::parse(None, None), Ok(defaults));
        let smoke = Settings {
            scale: 0.01,
            queries: 2,
        };
        assert_eq!(Settings::parse(Some("0.01"), Some("2")), Ok(smoke));
        for bad in ["abc", "", "0", "-1", "nan", "inf"] {
            let err = Settings::parse(Some(bad), None).unwrap_err();
            assert!(err.contains("DITA_SCALE"), "{err}");
        }
        for bad in ["abc", "", "0", "-3", "1.5"] {
            let err = Settings::parse(None, Some(bad)).unwrap_err();
            assert!(err.contains("DITA_QUERIES"), "{err}");
        }
    }

    #[test]
    fn default_ngs() {
        assert_eq!(default_ng("beijing-like"), 8);
        assert_eq!(default_ng("chengdu-like"), 10);
        assert_eq!(default_ng("chengdu-tiny"), 4);
        assert_eq!(default_ng("osm-like"), 12);
    }

    #[test]
    fn sink_round_trips_through_dita_obs_json() {
        let mut s = Sink::new("unit-test-sink");
        let at = params(&[("tau", &0.001), ("panel", &"a")]);
        // Keys are sorted, as in the committed files.
        assert_eq!(at, params(&[("panel", &"a"), ("tau", &0.001)]));
        s.at("beijing", at).record("dita", "ms", 1.25);
        s.at("chengdu-tiny", params(&[]))
            .record("VP-Tree", "index_kb", 3995.34375);
        let dir = std::env::temp_dir().join(format!("dita-sink-{}", std::process::id()));
        let path = s.write(&dir).expect("the temp dir is writable");
        let back = read_results(&path);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(back.as_deref(), Ok(s.rows()));
    }
}
