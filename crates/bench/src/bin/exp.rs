//! `exp` — the paper's evaluation (§7, Appendices B/C) from one binary.
//!
//! ```text
//! exp [--out <dir>] <name>... | all   run, print the tables, write <dir>/<name>.json
//! exp --list                          the experiment ids, one a line
//! exp show <file>...                  print a result file's tables
//! ```
//!
//! `<dir>` defaults to `results`; `DITA_SCALE` and `DITA_QUERIES` size the
//! run (see the library docs). A file is written only after its experiment
//! has returned, so a failed run never truncates a committed series.

use dita_bench::experiments::{find, Experiment, EXPERIMENTS};
use dita_bench::view::render;
use dita_bench::{read_results, Harness, Settings};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: exp [--out <dir>] <name>... | all\n       exp --list\n       exp show <file>...";

fn show(path: &Path) -> Result<(), String> {
    let rows = read_results(path)?;
    let id = rows.first().map(|m| m.experiment.as_str()).unwrap_or("");
    let layout = find(id).ok_or(format!("{}: unknown experiment `{id}`", path.display()))?;
    print!("{}", render(&rows, layout));
    Ok(())
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    let mut out = PathBuf::from("results");
    if args.first().is_some_and(|a| a == "--out") {
        out = PathBuf::from(args.get(1).ok_or(USAGE)?);
        args.drain(..2);
    }
    match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => return Err(USAGE.to_string()),
        Some("--list") => {
            EXPERIMENTS.iter().for_each(|e| println!("{}", e.name));
            return Ok(());
        }
        Some("show") => return args[1..].iter().try_for_each(|f| show(Path::new(f))),
        Some(_) => {}
    }
    let chosen: Vec<&Experiment> = match args[..] == ["all"] {
        true => EXPERIMENTS.iter().collect(),
        false => args
            .iter()
            .map(|a| find(a).ok_or(format!("unknown experiment `{a}` (see exp --list)")))
            .collect::<Result<_, _>>()?,
    };
    let harness = Harness::new(Settings::from_env()?);
    for experiment in chosen {
        let sink = experiment.measure(&harness);
        print!("{}", render(sink.rows(), experiment));
        let path = sink
            .write(&out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!(
            "{}: {} rows -> {}",
            experiment.name,
            sink.rows().len(),
            path.display()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("exp: {message}");
            ExitCode::from(2)
        }
    }
}
