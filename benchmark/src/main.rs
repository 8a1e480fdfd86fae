//! The DITA benchmark: four workloads, eight end-to-end metrics, and a
//! traced run that yields per-layer numbers. See `benchmark/README.md`.
//!
//! ```text
//! dita-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//! runs one workload in this process and prints, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Without
//! `--workload` every workload runs, each in a child process of its own so
//! that CPU time and peak memory are per workload.

mod harness;
mod layers;
mod library;
mod serve;
mod spec;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    /// How long the measured rounds of one workload last together.
    pub seconds: f64,
    pub traced: bool,
    pub trace_out: Option<PathBuf>,
    /// Multiplies table sizes and query counts; 1 is the benchmark, smaller
    /// values are for smoke tests.
    pub scale: f64,
    /// Run the whole untraced suite this many times and compare the sets.
    pub repeat: usize,
    pub list: bool,
}

const USAGE: &str = "usage: dita-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--trace-out <file>] [--scale <f>] [--repeat <n>] [--list]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        traced: false,
        trace_out: None,
        scale: 1.0,
        repeat: 0,
        list: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--list" {
            args.list = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} wants a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                if !spec::WORKLOADS.iter().any(|w| w.name == value) {
                    return Err(bad("no such workload"));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("wants 0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(&value)),
            "--scale" => {
                args.scale = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.scale > 0.0 && args.scale <= 4.0) {
                    return Err(bad("out of range (0, 4]"));
                }
            }
            "--repeat" => args.repeat = value.parse().map_err(|_| bad("not a whole number"))?,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process.
fn run_workload(name: &str, args: &Args, aslr_off: bool) -> ExitCode {
    harness::print_header(
        name,
        args.seed,
        args.seconds,
        args.scale,
        args.traced,
        aslr_off,
    );
    let mut tracer = if args.traced {
        trace::Tracer::on(Instant::now())
    } else {
        trace::Tracer::off()
    };
    let outcome = match name {
        "search_filter" => Ok(library::run_search(
            &spec::SEARCH_FILTER,
            dita_datagen::beijing_like,
            args,
            &mut tracer,
        )),
        "search_verify" => Ok(library::run_search(
            &spec::SEARCH_VERIFY,
            dita_datagen::osm_like,
            args,
            &mut tracer,
        )),
        "join_self" => Ok(library::run_join(args, &mut tracer)),
        "serve_mixed" => serve::run(args, &mut tracer),
        other => unreachable!("parse_args admitted workload {other}"),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{name}: I/O error talking to the in-process server: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.traced {
        print_spans(&tracer);
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| default_trace_path(name));
        match tracer.write_json(&path) {
            Ok(()) => println!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("could not write the trace to {}: {e}", path.display()),
        }
    }
    report.print(name, args.traced);
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Beside the executable, which cargo puts under its target directory:
/// never under `results/`.
fn default_trace_path(workload: &str) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join(format!("dita-benchmark-trace-{workload}.json"))
}

fn print_spans(tracer: &trace::Tracer) {
    println!("== spans: count, total, self (= total - covered by children) ==");
    for (name, t) in tracer.totals() {
        println!(
            "{name:<32} {:>8} spans {:>12.3} ms total {:>12.3} ms self",
            t.count,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        suite::list();
        return ExitCode::SUCCESS;
    }
    // Child processes inherit the persona, so this covers them too.
    let aslr_off = harness::without_address_randomisation();
    match (&args.workload, args.repeat) {
        (Some(name), 0) => run_workload(name, &args, aslr_off),
        (_, 0) => suite::run_all(&args),
        (_, n) => suite::repeat(&args, n),
    }
}
