//! Running several workloads: each in a child process of its own, so that
//! CPU time and peak memory belong to one workload.

use crate::spec;
use crate::stats::quartiles;
use crate::Args;
use dita_obs::json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

/// `--list`: the names `BENCHMARK.json` must repeat.
pub fn list() {
    for w in &spec::WORKLOADS {
        println!("workload {} :: {}", w.name, w.why);
    }
    for m in &spec::END_TO_END {
        println!(
            "end_to_end {} {} {} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    for m in &spec::PER_LAYER {
        let exact = if m.exact { " exact" } else { "" };
        println!(
            "per_layer {} {} {}{exact}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
}

/// What one child reported on its last line.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

/// Runs one workload as a child of this executable, passing its output
/// through when `echo`, and reads the result line.
fn run_child(workload: &str, args: &Args, echo: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .args(["--scale", &args.scale.to_string()])
        .stdout(Stdio::piped());
    if let Some(path) = &args.trace_out {
        cmd.arg("--trace-out")
            .arg(path.with_extension(format!("{workload}.json")));
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading {workload}: {e}"))?;
        if echo {
            println!("{line}");
        }
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for {workload}: {e}"))?;
    let v = Value::parse(&last)
        .map_err(|e| format!("{workload} ({status}) printed no result line: {e}"))?;
    let number = |key: &str| {
        v.req::<f64>(key)
            .map_err(|e| format!("{workload}: `{key}`: {e}"))
    };
    let mut metrics = BTreeMap::new();
    if let Some(Value::Obj(fields)) = v.get("metrics") {
        for (name, m) in fields {
            let value = m
                .req::<f64>("value")
                .map_err(|e| format!("{workload}: {name}: {e}"))?;
            let unit = m
                .req::<String>("unit")
                .map_err(|e| format!("{workload}: {name}: {e}"))?;
            metrics.insert(name.clone(), (value, unit));
        }
    }
    Ok(Outcome {
        attempted: number("attempted")? as u64,
        // A child that exits non-zero failed, whatever it printed.
        failed: (number("failed")? as u64).max(u64::from(!status.success())),
        metrics,
    })
}

fn workloads_of(args: &Args) -> Vec<&'static str> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

/// Every workload once; one result line for the whole suite, its metrics
/// named `workload/metric`.
pub fn run_all(args: &Args) -> ExitCode {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut json = Vec::new();
    for workload in workloads_of(args) {
        match run_child(workload, args, true) {
            Ok(o) => {
                attempted += o.attempted;
                failed += o.failed;
                for (name, (value, unit)) in o.metrics {
                    json.push(format!(
                        "\"{workload}/{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        crate::harness::json_number(value)
                    ));
                }
            }
            Err(e) => {
                eprintln!("{e}");
                failed += 1;
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        json.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The largest difference between two of `sets`: as a share of the
/// smallest, or as it stands for a metric whose bound is absolute.
pub fn largest_difference(sets: &[f64], absolute: bool) -> f64 {
    let lo = sets.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = sets.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if absolute {
        hi - lo
    } else {
        (hi - lo) / lo
    }
}

/// `--repeat n`: `n` untraced sets of identical runs, back to back. For
/// every workload and end-to-end metric it prints each set's value, the
/// quartiles, and the largest difference between two sets, and fails when
/// that exceeds half the metric's bound: the benchmark's own noise must fit
/// well inside the bounds it enforces.
pub fn repeat(args: &Args, sets: usize) -> ExitCode {
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut failed = false;
    for set in 0..sets {
        for workload in workloads_of(args) {
            eprintln!("set {} of {sets}: {workload}", set + 1);
            match run_child(
                workload,
                &Args {
                    traced: false,
                    ..args.clone()
                },
                false,
            ) {
                Ok(o) => {
                    failed |= o.failed > 0;
                    for m in &spec::END_TO_END {
                        if let Some(&(v, _)) = o.metrics.get(m.name) {
                            values.entry((workload, m.name)).or_default().push(v);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
    }
    println!(
        "{:<14} {:<18} {:>9} {:>11}  sets (q1 / median / q3)",
        "workload", "metric", "max diff", "half bound"
    );
    for workload in workloads_of(args) {
        for m in &spec::END_TO_END {
            let Some(v) = values.get(&(workload, m.name)) else {
                continue;
            };
            let diff = largest_difference(v, m.absolute);
            let within = diff <= m.bound / 2.0;
            failed |= !within;
            let sets_text: Vec<String> = v.iter().map(|x| format!("{x:.5}")).collect();
            let q = if v.len() >= 2 {
                let (q1, q2, q3) = quartiles(v);
                format!("({q1:.5} / {q2:.5} / {q3:.5})")
            } else {
                String::new()
            };
            println!(
                "{workload:<14} {:<18} {:>8.2}% {:>10.2}%  {} {q}{}",
                m.name,
                diff * 100.0,
                m.bound * 50.0,
                sets_text.join(" "),
                if within {
                    ""
                } else {
                    "  <-- exceeds half the bound"
                }
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::largest_difference;

    #[test]
    fn largest_difference_is_relative_unless_the_bound_is_absolute() {
        let sets = [100.0, 104.0, 98.0];
        assert!((largest_difference(&sets, false) - 6.0 / 98.0).abs() < 1e-12);
        // A share: 0.9950 against 0.9990 differ by 0.004, under half of 0.01.
        let shares = [0.9990, 0.9950, 0.9970];
        assert!((largest_difference(&shares, true) - 0.004).abs() < 1e-12);
    }
}
