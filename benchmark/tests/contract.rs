//! The benchmark against its own contract: the names it prints are the
//! names `BENCHMARK.json` declares, every declared metric comes out of a
//! (scaled-down) run of every workload, and the counts marked exact repeat
//! bit for bit for one seed and move with another.
//!
//! Run with `cargo test --release --offline --config
//! benchmark/offline/config.toml --manifest-path benchmark/Cargo.toml`;
//! each run below uses `--scale 0.02`.

use dita_obs::json::Value;
use std::collections::BTreeMap;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_dita-benchmark");
const WORKLOADS: [&str; 4] = ["search_filter", "search_verify", "join_self", "serve_mixed"];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs the benchmark and returns (exit ok, stdout lines).
fn run(args: &[&str]) -> (bool, Vec<String>) {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("benchmark starts");
    let lines = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(String::from)
        .collect();
    (out.status.success(), lines)
}

/// One scaled-down run of `workload`; its metrics as name -> (value, unit).
fn smoke(workload: &str, seed: &str, trace: &str) -> BTreeMap<String, (f64, String)> {
    let (ok, lines) = run(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--scale",
        "0.02",
    ]);
    let last = lines.last().expect("a result line");
    assert!(ok, "{workload} trace={trace} exited non-zero: {last}");
    let v = Value::parse(last).expect("the last line is JSON");
    let Value::Obj(fields) = &v else {
        panic!("the result is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(v.req::<f64>("failed").unwrap(), 0.0);
    assert!(v.req::<f64>("attempted").unwrap() >= 1.0);
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        panic!("metrics is an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value: f64 = m.req("value").expect("value");
            let unit: String = m.req("unit").expect("unit");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            (name.clone(), (value, unit))
        })
        .collect()
}

/// `(name, unit)` of every entry of one of BENCHMARK.json's metric lists.
fn declared(json: &Value, list: &str) -> Vec<(String, String)> {
    json.req::<Vec<Value>>(list)
        .expect("metric list")
        .iter()
        .map(|m| (m.req("name").unwrap(), m.req("unit").unwrap()))
        .collect()
}

#[test]
fn list_equals_benchmark_json() {
    let json = benchmark_json();
    let (ok, lines) = run(&["--list"]);
    assert!(ok);
    let mut want = Vec::new();
    for w in json.req::<Vec<Value>>("workloads").unwrap() {
        want.push(format!(
            "workload {} :: {}",
            w.req::<String>("name").unwrap(),
            w.req::<String>("why").unwrap()
        ));
    }
    for m in json.req::<Vec<Value>>("end_to_end").unwrap() {
        want.push(format!(
            "end_to_end {} {} {} {}",
            m.req::<String>("name").unwrap(),
            m.req::<String>("unit").unwrap(),
            m.req::<String>("better").unwrap(),
            m.req::<f64>("bound").unwrap()
        ));
    }
    for m in json.req::<Vec<Value>>("per_layer").unwrap() {
        want.push(format!(
            "per_layer {} {} {}",
            m.req::<String>("name").unwrap(),
            m.req::<String>("unit").unwrap(),
            m.req::<String>("better").unwrap()
        ));
    }
    let got: Vec<String> = lines
        .iter()
        .map(|l| l.trim_end_matches(" exact").to_string())
        .collect();
    assert_eq!(got, want);
    let names: Vec<String> = json
        .req::<Vec<Value>>("workloads")
        .unwrap()
        .iter()
        .map(|w| w.req("name").unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let json = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(&json, list);
        for workload in WORKLOADS {
            let got = smoke(workload, "1", trace);
            assert_eq!(got.len(), want.len(), "{workload} trace={trace}");
            for (name, unit) in &want {
                let (value, got_unit) = got
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}"));
                assert_eq!(got_unit, unit, "{workload}: unit of {name}");
                if list == "end_to_end" {
                    assert!(
                        *value > 0.0,
                        "{workload}: end-to-end {name} must never be 0"
                    );
                }
            }
        }
    }
}

#[test]
fn exact_counters_repeat_for_a_seed_and_move_with_it() {
    let (_, lines) = run(&["--list"]);
    let exact: Vec<String> = lines
        .iter()
        .filter(|l| l.starts_with("per_layer ") && l.ends_with(" exact"))
        .map(|l| l.split(' ').nth(1).unwrap().to_string())
        .collect();
    assert!(exact.len() >= 10, "the exact counters are listed");
    for workload in &WORKLOADS[..3] {
        let pick = |m: &BTreeMap<String, (f64, String)>| -> Vec<u64> {
            exact.iter().map(|n| m[n].0.to_bits()).collect()
        };
        let a = pick(&smoke(workload, "7", "1"));
        let b = pick(&smoke(workload, "7", "1"));
        let c = pick(&smoke(workload, "8", "1"));
        assert_eq!(
            a, b,
            "{workload}: exact counters differ between two runs of one seed"
        );
        assert_ne!(a, c, "{workload}: exact counters ignore the seed");
    }
}
