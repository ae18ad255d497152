//! Experiment runner CLI.
//!
//! ```text
//! cargo run -p experiments --release -- all            # every experiment
//! cargo run -p experiments --release -- T2.1 C2.3      # selected ids
//! cargo run -p experiments --release -- all --quick    # reduced sizes/seeds
//! cargo run -p experiments --release -- --list         # show the registry
//! cargo run -p experiments --release -- --help         # usage (an unknown --flag fails)
//! cargo run -p experiments --release -- all --out results  # also write results/<id>.txt
//! cargo run -p experiments --release -- DYN --telemetry run.jsonl  # stream run telemetry
//! ```
//!
//! `--telemetry <path>` opens a JSONL sink and hands one shared
//! [`telemetry::Telemetry`] handle to every selected experiment that has a
//! streaming driver (`DYN`, `NOISE`, `BYZ`); the file ends with a
//! `metrics` snapshot of the accumulated counters/gauges/timers. Level
//! histograms are sampled every `--level-stride <k>` rounds (default 8;
//! 0 disables them).

use std::process::ExitCode;

use telemetry::{Config as TelemetryConfig, JsonlSink, Telemetry};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut quick, mut list, mut ids, mut error) = (false, false, Vec::new(), None);
    let (mut out_dir, mut telemetry_path, mut level_stride) = (None, None, 8);
    // One pass: a valued flag takes the next argument, which must exist
    // and must not itself be a flag.
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--list" | "--help" => list = true,
            flag @ ("--out" | "--telemetry" | "--level-stride") => {
                let Some(value) = rest.next().filter(|v| !v.starts_with("--")) else {
                    error = Some(format!("{flag} expects a value"));
                    break;
                };
                match flag {
                    "--out" => out_dir = Some(std::path::PathBuf::from(value)),
                    "--telemetry" => telemetry_path = Some(std::path::PathBuf::from(value)),
                    _ => match value.parse() {
                        Ok(k) => level_stride = k,
                        Err(_) => {
                            error = Some("--level-stride expects a non-negative integer".into());
                            break;
                        }
                    },
                }
            }
            flag if flag.starts_with("--") => {
                error = Some(format!("unknown flag: {flag}"));
                break;
            }
            _ => ids.push(arg),
        }
    }
    if let Some(e) = &error {
        eprintln!("{e}\n");
    }
    if list || args.is_empty() || error.is_some() {
        eprintln!("usage: experiments <id>... | all [--quick] [--list] [--out <dir>]");
        eprintln!("                   [--telemetry <path.jsonl>] [--level-stride <k>] [--help]\n");
        eprintln!("available experiments:");
        for e in experiments::all_experiments() {
            eprintln!("  {:<9} {}", e.id, e.title);
        }
        return if list && error.is_none() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create output directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let tele = match &telemetry_path {
        Some(path) => match JsonlSink::create(path) {
            Ok(sink) => {
                Telemetry::enabled(TelemetryConfig { level_stride }).with_sink(Box::new(sink))
            }
            Err(e) => {
                eprintln!("cannot create telemetry file {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => Telemetry::disabled(),
    };

    let run_all = ids.iter().any(|id| id.eq_ignore_ascii_case("all")) || ids.is_empty();
    let selected: Vec<experiments::Experiment> = if run_all {
        experiments::all_experiments()
    } else {
        let mut chosen = Vec::new();
        for id in &ids {
            match experiments::find_experiment(id) {
                Some(e) => chosen.push(e),
                None => {
                    eprintln!("unknown experiment id: {id} (try --list)");
                    return ExitCode::FAILURE;
                }
            }
        }
        chosen
    };

    for e in selected {
        let watch = telemetry::Stopwatch::start();
        let report = e.run_with(quick, &tele);
        println!("{report}");
        println!("[{} finished in {:.1}s]\n", e.id, watch.elapsed_secs());
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{}.txt", e.id.replace('.', "_")));
            if let Err(err) = std::fs::write(&path, &report) {
                eprintln!("cannot write {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    tele.finish();
    if let Some(path) = &telemetry_path {
        println!("telemetry written to {}", path.display());
    }
    ExitCode::SUCCESS
}
