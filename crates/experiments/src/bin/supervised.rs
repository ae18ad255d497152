//! Supervised long-run driver: one resumable Algorithm 1/2 run under the
//! resilient harness, with durable checkpoints, crash injection and
//! resume-from-snapshot — the CLI face of `crates/harness`.
//!
//! ```text
//! # start a long run, checkpointing every 1024 rounds
//! cargo run -p experiments --release --bin supervised -- \
//!     --family gnp --n 4096 --seed 7 --checkpoint-dir ckpt --checkpoint-every 1024
//!
//! # the process died (or was --kill-at'ed); pick the run back up
//! cargo run -p experiments --release --bin supervised -- \
//!     --family gnp --n 4096 --seed 7 --checkpoint-dir ckpt --checkpoint-every 1024 --resume
//! ```
//!
//! On success the last stdout line is a deterministic digest of the run's
//! observables (`digest=<16 hex>`); a killed-then-resumed run prints the
//! same digest as an uninterrupted one, which is exactly what the CI
//! crash-resume smoke job asserts.

use std::path::PathBuf;
use std::process::ExitCode;

use beeping::dynamic::MotionSpec;
use beeping::EngineMode;
use experiments::resilience::outcome_digest;
use graphs::generators::geometric::radius_for_expected_degree;
use graphs::generators::GraphFamily;
use graphs::motion::MotionModel;
use graphs::Graph;
use harness::supervisor::{supervise, supervise_resume, RunOutcome, SupervisorConfig};
use mis::resumable::ResumableConfig;
use mis::{Algorithm1, Algorithm2, LmaxPolicy};

fn usage() -> &'static str {
    "usage: supervised [--family cycle|regular|gnp] [--n <nodes>] [--seed <u64>]\n\
     \x20                 [--algorithm alg1|alg2] [--engine scalar|scatter|frontier|par[:N]]\n\
     \x20                 [--max-rounds <r>] [--motion <speed>] [--checkpoint-dir <dir>]\n\
     \x20                 [--checkpoint-every <rounds>] [--resume] [--kill-at <round>]\n\
     \x20                 [--wall-clock-limit <secs>] [--max-retries <k>]\n\
     \n\
     Runs one self-stabilization run under the resilient harness. With\n\
     --checkpoint-dir, a durable snapshot (checkpoint.snap) is kept current\n\
     every --checkpoint-every rounds; --resume continues from it instead of\n\
     starting over. --kill-at simulates a crash immediately before the given\n\
     round (test instrumentation for the CI smoke job). --motion replaces\n\
     the static graph with a moving geometric deployment (random waypoint at\n\
     the given speed; --family is ignored); snapshots then carry positions\n\
     and motion-RNG state, so resumed moving runs stay bit-identical too.\n\
     Prints the outcome and a deterministic digest=<hex> line."
}

struct Args {
    family: String,
    n: usize,
    seed: u64,
    algorithm: String,
    engine: EngineMode,
    max_rounds: u64,
    motion: Option<f64>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    resume: bool,
    kill_at: Option<u64>,
    wall_clock_limit: Option<f64>,
    max_retries: u32,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        family: "gnp".to_string(),
        n: 1 << 10,
        seed: 7,
        algorithm: "alg1".to_string(),
        engine: EngineMode::default(),
        max_rounds: 1_000_000,
        motion: None,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        kill_at: None,
        wall_clock_limit: None,
        max_retries: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        // A valued flag takes the next argument, which must exist and must
        // not itself be a flag.
        let mut value = || {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match flag.as_str() {
            "--family" => args.family = value()?.clone(),
            "--n" => args.n = value()?.parse().map_err(|_| "--n expects an integer")?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects a u64")?,
            "--algorithm" => args.algorithm = value()?.clone(),
            "--engine" => args.engine = parse_engine(value()?)?,
            "--max-rounds" => {
                args.max_rounds = value()?.parse().map_err(|_| "--max-rounds expects a u64")?
            }
            "--motion" => {
                let speed: f64 =
                    value()?.parse().map_err(|_| "--motion expects a speed in [0, 1]")?;
                if !(0.0..=1.0).contains(&speed) {
                    return Err("--motion expects a speed in [0, 1]".to_string());
                }
                args.motion = Some(speed);
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(PathBuf::from(value()?)),
            "--checkpoint-every" => {
                args.checkpoint_every =
                    Some(value()?.parse().map_err(|_| "--checkpoint-every expects a u64")?)
            }
            "--resume" => args.resume = true,
            "--kill-at" => {
                args.kill_at = Some(value()?.parse().map_err(|_| "--kill-at expects a u64")?)
            }
            "--wall-clock-limit" => {
                args.wall_clock_limit =
                    Some(value()?.parse().map_err(|_| "--wall-clock-limit expects seconds")?)
            }
            "--max-retries" => {
                args.max_retries = value()?.parse().map_err(|_| "--max-retries expects a u32")?
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Parses `--engine`: `scalar`, `scatter`, `frontier`, or `par[:N]` where
/// `N` is the worker-thread count, from 1 up to the machine's available
/// parallelism (the default). All engines are bit-identical per seed, so
/// the choice never changes the printed digest — only the wall-clock.
fn parse_engine(name: &str) -> Result<EngineMode, String> {
    let available = std::thread::available_parallelism().map_or(1, |p| p.get());
    match name {
        "scalar" => return Ok(EngineMode::Scalar),
        "scatter" => return Ok(EngineMode::Scatter),
        "frontier" => return Ok(EngineMode::Frontier),
        "par" => return Ok(EngineMode::ParScatter { threads: available }),
        _ => {}
    }
    if let Some(spec) = name.strip_prefix("par:") {
        let threads: usize =
            spec.parse().map_err(|_| format!("par:{spec}: thread count must be an integer"))?;
        // Each round spawns one thread per worker range in each of its two
        // phases, so the count is bounded by the cores that can run them.
        if !(1..=available).contains(&threads) {
            return Err(format!(
                "par:{threads}: thread count must be between 1 and the available parallelism \
                 ({available})"
            ));
        }
        return Ok(EngineMode::ParScatter { threads });
    }
    Err(format!("unknown engine {name:?} (scalar|scatter|frontier|par[:N])"))
}

fn family(name: &str) -> Result<GraphFamily, String> {
    match name {
        "cycle" => Ok(GraphFamily::Cycle),
        "regular" => Ok(GraphFamily::Regular { d: 4 }),
        "gnp" => Ok(GraphFamily::Gnp { avg_degree: 8.0 }),
        other => Err(format!("unknown family {other:?} (cycle|regular|gnp)")),
    }
}

fn report(outcome: RunOutcome) -> ExitCode {
    match outcome {
        RunOutcome::Completed(o) => {
            println!(
                "completed: stabilized after {} rounds (stabilization_round={})",
                o.rounds_run,
                o.stabilization_round.unwrap_or(0)
            );
            println!("digest={:016x}", outcome_digest(&o));
            ExitCode::SUCCESS
        }
        RunOutcome::BudgetExhausted(o) => {
            println!(
                "budget-exhausted after {} rounds (resume with a larger --max-rounds)",
                o.rounds_run
            );
            println!("digest={:016x}", outcome_digest(&o));
            ExitCode::SUCCESS
        }
        RunOutcome::WallClockExceeded { rounds_run, snapshot } => {
            match snapshot {
                Some(path) => println!(
                    "wall-clock limit hit at round {rounds_run}; resume point: {}",
                    path.display()
                ),
                None => println!(
                    "wall-clock limit hit at round {rounds_run}; no snapshot (no --checkpoint-dir)"
                ),
            }
            ExitCode::SUCCESS
        }
        RunOutcome::Panicked { message, round, retries_used } => {
            eprintln!(
                "run panicked ({message}); last good checkpoint at round {round}, \
                 {retries_used} retries used — rerun with --resume"
            );
            ExitCode::FAILURE
        }
        RunOutcome::CorruptSnapshot { error } => {
            eprintln!("cannot resume: {error}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprintln!("{}", usage());
            // `--help` is the one request that ends here without a message.
            return if message.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
    };

    if args.resume && args.checkpoint_dir.is_none() {
        eprintln!("error: --resume requires --checkpoint-dir\n\n{}", usage());
        return ExitCode::FAILURE;
    }

    let fam = match family(&args.family) {
        Ok(f) => f,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    // A moving deployment replaces the static family: the graph is the
    // spec's initial radius graph and every run/resume attaches the spec,
    // so snapshots round-trip positions and motion-RNG state.
    let motion_spec = args.motion.map(|speed| {
        MotionSpec::new(
            0x6000,
            radius_for_expected_degree(args.n, 8.0),
            MotionModel::RandomWaypoint { speed, pause: 2 },
        )
    });
    let g: Graph = match &motion_spec {
        Some(spec) => spec.initial_graph(args.n),
        None => fam.generate(args.n, 0x6000),
    };
    let workload = match args.motion {
        Some(speed) => format!("moving-rgg(speed={speed})"),
        None => fam.to_string(),
    };

    if let Some(dir) = &args.checkpoint_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create checkpoint dir {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let mut sup = SupervisorConfig::new().with_max_retries(args.max_retries);
    if let Some(every) = args.checkpoint_every {
        sup = sup.with_checkpoint_every(every);
    }
    if let Some(dir) = &args.checkpoint_dir {
        sup = sup.with_checkpoint_dir(dir.clone());
    }
    if let Some(limit) = args.wall_clock_limit {
        sup = sup.with_wall_clock_limit_secs(limit);
    }
    if let Some(round) = args.kill_at {
        sup = sup.with_kill_at(round);
    }

    println!(
        "{} of alg={} on {workload} n={} seed={} engine={:?} (checkpoints: {})",
        if args.resume { "resume" } else { "run" },
        args.algorithm,
        g.len(),
        args.seed,
        args.engine,
        match (&args.checkpoint_dir, args.checkpoint_every) {
            (Some(dir), Some(k)) => format!("every {k} rounds -> {}", dir.display()),
            (Some(dir), None) => format!("on demand -> {}", dir.display()),
            _ => "in-memory only".to_string(),
        },
    );

    let make_config = || {
        let mut config = ResumableConfig::new(args.seed)
            .with_max_rounds(args.max_rounds)
            .with_engine(args.engine);
        if let Some(spec) = motion_spec {
            config = config.with_motion(spec);
        }
        config
    };
    let result = match args.algorithm.as_str() {
        "alg1" => {
            let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
            if args.resume {
                supervise_resume(&algo, make_config(), &sup, None)
            } else {
                supervise(&g, &algo, make_config(), &sup)
            }
        }
        "alg2" => {
            let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
            if args.resume {
                supervise_resume(&algo, make_config(), &sup, None)
            } else {
                supervise(&g, &algo, make_config(), &sup)
            }
        }
        other => {
            eprintln!("error: unknown algorithm {other:?} (alg1|alg2)\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    match result {
        Ok(outcome) => report(outcome),
        Err(e) => {
            eprintln!("harness error: {e}");
            ExitCode::FAILURE
        }
    }
}
