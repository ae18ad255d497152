//! `solve` — compute a self-stabilizing MIS for a graph given as an
//! edge-list file (or a named generator), printing the members.
//!
//! ```text
//! solve --graph network.edges [--algorithm alg1|alg2|adaptive]
//!       [--policy global|own|deg2] [--seed N] [--max-rounds N] [--dot out.dot]
//! solve --generate gnp:1000:8 --seed 3      # built-in workload instead of a file
//! ```
//!
//! Exit code 0 on success; the MIS is printed one vertex id per line after
//! a `# …` stats header.

use std::process::ExitCode;

use graphs::Graph;
use mis::adaptive::AdaptiveMis;
use mis::runner::{InitialLevels, RunConfig};
use mis::{Algorithm1, Algorithm2, LmaxPolicy};

struct Options {
    graph_file: Option<String>,
    generate: Option<String>,
    algorithm: String,
    policy: String,
    seed: u64,
    max_rounds: u64,
    dot: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        graph_file: None,
        generate: None,
        algorithm: "alg1".into(),
        policy: "global".into(),
        seed: 0,
        max_rounds: 10_000_000,
        dot: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // A valued flag takes the next argument, which must exist and must
        // not itself be a flag.
        let mut value = || {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} expects a value"))
        };
        match arg.as_str() {
            "--graph" => opts.graph_file = Some(value()?),
            "--generate" => opts.generate = Some(value()?),
            "--algorithm" => opts.algorithm = value()?,
            "--policy" => opts.policy = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--max-rounds" => {
                opts.max_rounds = value()?.parse().map_err(|e| format!("bad max-rounds: {e}"))?
            }
            "--dot" => opts.dot = Some(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if opts.graph_file.is_none() && opts.generate.is_none() {
        return Err("one of --graph <file> or --generate <spec> is required".into());
    }
    Ok(opts)
}

fn load_graph(opts: &Options) -> Result<Graph, String> {
    if let Some(path) = &opts.graph_file {
        let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        return graphs::edgelist::read_edge_list(std::io::BufReader::new(file))
            .map_err(|e| format!("cannot parse {path}: {e}"));
    }
    let spec = opts
        .generate
        .as_deref()
        .ok_or_else(|| "one of --graph <file> or --generate <spec> is required".to_string())?;
    let parts: Vec<&str> = spec.split(':').collect();
    let parse_n = |s: &str| s.parse::<usize>().map_err(|e| format!("bad size in {spec}: {e}"));
    match parts.as_slice() {
        ["gnp", n, d] => {
            let n = parse_n(n)?;
            let d: f64 = d.parse().map_err(|e| format!("bad degree in {spec}: {e}"))?;
            let p = if n > 1 { (d / (n as f64 - 1.0)).min(1.0) } else { 0.0 };
            Ok(graphs::generators::random::gnp(n, p, opts.seed))
        }
        ["geo", n, d] => {
            let n = parse_n(n)?;
            let d: f64 = d.parse().map_err(|e| format!("bad degree in {spec}: {e}"))?;
            Ok(graphs::generators::geometric::random_geometric_expected_degree(n, d, opts.seed))
        }
        ["ba", n, m] => {
            let n = parse_n(n)?;
            let m = parse_n(m)?;
            graphs::generators::scale_free::barabasi_albert(n, m, opts.seed)
                .map_err(|e| e.to_string())
        }
        ["cycle", n] => Ok(graphs::generators::classic::cycle(parse_n(n)?)),
        ["grid", r, c] => Ok(graphs::generators::lattice::grid(parse_n(r)?, parse_n(c)?)),
        _ => Err(format!(
            "unknown generator spec {spec}; try gnp:N:AVGDEG, geo:N:AVGDEG, ba:N:M, cycle:N, grid:R:C"
        )),
    }
}

fn pick_policy(g: &Graph, name: &str) -> Result<LmaxPolicy, String> {
    match name {
        "global" => Ok(LmaxPolicy::global_delta(g)),
        "own" => Ok(LmaxPolicy::own_degree(g)),
        "deg2" => Ok(LmaxPolicy::two_hop_degree(g)),
        other => Err(format!("unknown policy {other}; try global|own|deg2")),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: solve (--graph FILE | --generate SPEC) [--algorithm alg1|alg2|adaptive]\n\
                 \x20            [--policy global|own|deg2] [--seed N] [--max-rounds N] [--dot FILE]"
            );
            // `--help` is the one request that ends here without a message.
            return if msg.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
    };
    let g = match load_graph(&opts) {
        Ok(g) => g,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let outcome = match opts.algorithm.as_str() {
        "alg1" | "alg2" => {
            let policy = match pick_policy(&g, &opts.policy) {
                Ok(p) => p,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    return ExitCode::FAILURE;
                }
            };
            let config = RunConfig::new(opts.seed)
                .with_init(InitialLevels::Random)
                .with_max_rounds(opts.max_rounds);
            if opts.algorithm == "alg1" {
                Algorithm1::new(&g, policy).run(&g, config)
            } else {
                Algorithm2::new(&g, policy).run(&g, config)
            }
            .map(|o| (o.mis, o.stabilization_round))
        }
        "adaptive" => AdaptiveMis::new()
            .run_random_init(&g, opts.seed, opts.max_rounds)
            .map(|o| (o.mis, o.stabilization_round)),
        other => {
            eprintln!("error: unknown algorithm {other}; try alg1|alg2|adaptive");
            return ExitCode::FAILURE;
        }
    };
    let (mis, rounds) = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(v) = graphs::mis::explain_violation(&g, &mis) {
        eprintln!("internal error: output is not an MIS ({v})");
        return ExitCode::FAILURE;
    }
    println!(
        "# n={} m={} algorithm={} policy={} seed={} rounds={} mis_size={}",
        g.len(),
        g.num_edges(),
        opts.algorithm,
        opts.policy,
        opts.seed,
        rounds,
        graphs::mis::size(&mis)
    );
    for v in graphs::mis::members(&mis) {
        println!("{v}");
    }
    if let Some(path) = &opts.dot {
        if let Err(e) = std::fs::write(path, graphs::dot::mis_to_dot(&g, &mis)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
