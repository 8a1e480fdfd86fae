//! The experiment layer end to end: every experiment of the table runs at
//! smoke scale, writes a file `dita_obs::json` reads back, and records the
//! same series as the committed `results/<name>.json`; the printed tables
//! are a view over such files.

use dita_bench::experiments::{find, Experiment, EXPERIMENTS};
use dita_bench::view::render;
use dita_bench::{read_results, Harness, Measurement, Settings, Sink};
use std::path::{Path, PathBuf};

fn committed(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{name}.json"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dita-exp-{tag}-{}", std::process::id()))
}

/// The series a file holds: its `(system, dataset, params, metric)` keys,
/// sorted (`params` maps are written with sorted keys). They do not depend
/// on the scale or the query count.
fn keys(rows: &[Measurement]) -> Vec<String> {
    let key = |m: &Measurement| format!("{} {} {:?} {}", m.system, m.dataset, m.params, m.metric);
    let mut keys: Vec<String> = rows.iter().map(key).collect();
    keys.sort();
    keys
}

#[test]
fn every_experiment_writes_its_committed_series() {
    let dir = scratch_dir("all");
    let harness = Harness::new(Settings {
        scale: 0.01,
        queries: 2,
    });
    for experiment in &EXPERIMENTS {
        let sink = experiment.measure(&harness);
        let path = sink.write(&dir).expect("the temp dir is writable");
        let rows = read_results(&path).expect("a written file parses");
        assert_eq!(rows, sink.rows(), "{}: round trip", experiment.name);
        assert!(!rows.is_empty(), "{} recorded nothing", experiment.name);
        assert!(
            rows.iter().all(|m| m.value.is_finite()),
            "{}",
            experiment.name
        );
        assert!(!render(&rows, experiment).is_empty());
        if committed(experiment.name).exists() {
            let want = read_results(&committed(experiment.name)).expect("committed file parses");
            assert_eq!(
                keys(&rows),
                keys(&want),
                "{}: series differ",
                experiment.name
            );
        } else {
            let unrecorded = ["table1", "table2", "ext_knn"];
            assert!(unrecorded.contains(&experiment.name), "{}", experiment.name);
        }
    }
    std::fs::remove_dir_all(&dir).expect("the temp dir is removable");
}

#[test]
fn a_panicking_experiment_writes_no_file() {
    fn half_way(_: &Harness, sink: &mut Sink) {
        sink.at("d", dita_bench::params(&[]))
            .record("dita", "ms", 1.0);
        panic!("half-way through the series");
    }
    let boom = Experiment {
        name: "boom",
        rows: &[],
        tables: &[],
        run: half_way,
    };
    let dir = scratch_dir("boom");
    let settings = Settings {
        scale: 0.01,
        queries: 1,
    };
    let run = std::panic::catch_unwind(|| boom.measure(&Harness::new(settings)).write(&dir));
    assert!(run.is_err());
    assert!(!dir.exists(), "a partial series reached the disk");
}

/// The committed files print as the tables their run printed: fig9(b) is in
/// the suite log of that run (`rate 0.25: Simba 36.7, DITA 31.7`, ...); the
/// log stopped before fig14 and table7, whose binaries printed `{:.1}` of
/// the same values.
#[test]
fn committed_files_render_as_their_tables() {
    let show = |name: &str| {
        let rows = read_results(&committed(name)).expect("committed file parses");
        render(&rows, find(name).expect("a registered experiment"))
    };
    let fig14 = "
=== fig14: beijing-like dita join_ms ===
  tau   nl=4   nl=8  nl=16
-----  -----  -----  -----
0.001  258.7  189.5  277.8
0.002  305.0  202.6  251.7
0.003  318.0  311.3  286.2
0.004  349.0  387.8  303.3
0.005  377.1  262.8  358.7
";
    assert!(show("fig14").starts_with(fig14), "{}", show("fig14"));
    let table7 = "
=== table7: chengdu-tiny ===
 system  build_ms  index_kb
-------  --------  --------
   DITA      16.3    3995.3
    MBE     1.888     938.9
VP-Tree     317.4      93.8
";
    assert_eq!(show("table7"), table7);
    let fig9b = "
=== fig9: beijing-like panel=b join_ms ===
rate   dita  simba
----  -----  -----
0.25   31.7   36.7
 0.5   71.1   90.7
0.75  112.8  159.8
   1  149.1  232.9
";
    assert!(show("fig9").contains(fig9b), "{}", show("fig9"));
}
