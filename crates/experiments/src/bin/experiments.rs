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
    let quick = args.iter().any(|a| a == "--quick");
    let list = args.iter().any(|a| a == "--list" || a == "--help");
    let value_of = |flag: &str| -> Option<&String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1))
    };
    let out_dir: Option<std::path::PathBuf> = value_of("--out").map(std::path::PathBuf::from);
    let telemetry_path: Option<std::path::PathBuf> =
        value_of("--telemetry").map(std::path::PathBuf::from);
    let level_stride: u64 = match value_of("--level-stride").map(|s| s.parse()) {
        None => 8,
        Some(Ok(k)) => k,
        Some(Err(_)) => {
            eprintln!("--level-stride expects a non-negative integer");
            return ExitCode::FAILURE;
        }
    };
    let (mut ids, mut unknown, mut skip_next) = (Vec::new(), None, false);
    for arg in &args {
        match arg.as_str() {
            _ if std::mem::take(&mut skip_next) => {}
            "--quick" | "--list" | "--help" => {}
            "--out" | "--telemetry" | "--level-stride" => skip_next = true,
            flag if flag.starts_with("--") => unknown = unknown.or(Some(flag)),
            _ => ids.push(arg),
        }
    }
    if let Some(flag) = unknown {
        eprintln!("unknown flag: {flag}\n");
    }
    if list || args.is_empty() || unknown.is_some() {
        eprintln!("usage: experiments <id>... | all [--quick] [--list] [--out <dir>]");
        eprintln!("                   [--telemetry <path.jsonl>] [--level-stride <k>] [--help]\n");
        eprintln!("available experiments:");
        for e in experiments::all_experiments() {
            eprintln!("  {:<9} {}", e.id, e.title);
        }
        return if list && unknown.is_none() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
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
