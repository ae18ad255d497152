//! Integration tests of the two command-line binaries, driven end to end
//! through `std::process`.

use std::process::Command;

fn solve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_solve"))
}

fn experiments_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

fn supervised() -> Command {
    Command::new(env!("CARGO_BIN_EXE_supervised"))
}

/// Pulls the `digest=<16 hex>` line out of a successful supervised run.
fn parse_digest(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest="))
        .unwrap_or_else(|| panic!("no digest line in:\n{stdout}"))
        .to_string()
}

fn parse_mis_output(stdout: &str) -> (String, Vec<usize>) {
    let mut lines = stdout.lines();
    let header = lines.next().expect("stats header").to_string();
    assert!(header.starts_with("# "), "header line: {header}");
    let members = lines.map(|l| l.parse().expect("vertex id")).collect();
    (header, members)
}

#[test]
fn solve_generates_and_solves() {
    let out =
        solve().args(["--generate", "gnp:150:8", "--seed", "5"]).output().expect("solve runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let (header, members) = parse_mis_output(&String::from_utf8(out.stdout).unwrap());
    assert!(header.contains("n=150"));
    assert!(header.contains("algorithm=alg1"));
    assert!(!members.is_empty());
    // Independently verify against the same generated graph.
    let g = graphs::generators::random::gnp(150, 8.0 / 149.0, 5);
    let mut set = vec![false; 150];
    for v in members {
        set[v] = true;
    }
    assert!(graphs::mis::is_maximal_independent_set(&g, &set));
}

#[test]
fn solve_reads_edge_list_files_and_writes_dot() {
    let dir = std::env::temp_dir();
    let graph_path = dir.join("beeping_mis_cli_test.edges");
    let dot_path = dir.join("beeping_mis_cli_test.dot");
    let g = graphs::generators::classic::cycle(12);
    std::fs::write(&graph_path, graphs::edgelist::to_string(&g)).unwrap();

    let out = solve()
        .args([
            "--graph",
            graph_path.to_str().unwrap(),
            "--algorithm",
            "alg2",
            "--policy",
            "deg2",
            "--dot",
            dot_path.to_str().unwrap(),
        ])
        .output()
        .expect("solve runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let (header, members) = parse_mis_output(&String::from_utf8(out.stdout).unwrap());
    assert!(header.contains("algorithm=alg2"));
    let mut set = vec![false; 12];
    for v in members {
        set[v] = true;
    }
    assert!(graphs::mis::is_maximal_independent_set(&g, &set));
    let dot = std::fs::read_to_string(&dot_path).unwrap();
    assert!(dot.contains("graph beeping_mis"));
    assert!(dot.contains("style=filled"));
}

#[test]
fn solve_adaptive_algorithm() {
    let out = solve()
        .args(["--generate", "cycle:30", "--algorithm", "adaptive"])
        .output()
        .expect("solve runs");
    assert!(out.status.success());
    let (header, _) = parse_mis_output(&String::from_utf8(out.stdout).unwrap());
    assert!(header.contains("algorithm=adaptive"));
}

#[test]
fn solve_rejects_bad_arguments() {
    for args in [
        vec![] as Vec<&str>,
        vec!["--generate", "nope:10"],
        vec!["--generate", "gnp:10:4", "--algorithm", "quantum"],
        vec!["--generate", "gnp:10:4", "--policy", "psychic"],
        vec!["--graph", "/definitely/not/a/file"],
        vec!["--generate", "gnp:10:4", "--bogus-flag"],
    ] {
        let out = solve().args(&args).output().expect("solve runs");
        assert!(!out.status.success(), "args {args:?} should fail");
        assert!(!out.stderr.is_empty());
    }
}

#[test]
fn experiments_list_shows_registry() {
    let out = experiments_bin().arg("--list").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    for id in ["T2.1", "C2.3", "SS-A", "EXT-WAKE"] {
        assert!(text.contains(id), "missing {id} in registry listing");
    }
}

/// Runs the experiments binary, killing it if it has not exited within 30
/// seconds: a flag the parser drops silently would start the hours-long
/// full sweep.
fn experiments_bounded(args: &[&str]) -> std::process::Output {
    experiments_bounded_in(std::path::Path::new("."), args)
}

/// [`experiments_bounded`] with `dir` as the working directory.
fn experiments_bounded_in(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = experiments_bin()
        .current_dir(dir)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("runs");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("waits").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("experiments {args:?} still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    child.wait_with_output().expect("collects output")
}

#[test]
fn experiments_help_prints_usage_and_succeeds() {
    let out = experiments_bounded(&["--help"]);
    assert!(out.status.success(), "--help should succeed");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.starts_with("usage: experiments"), "{text}");
    assert!(text.contains("T2.1"), "--help lists the registry: {text}");
}

#[test]
fn experiments_rejects_unknown_flags_with_usage() {
    for args in [vec!["--quik"], vec!["F1", "--bogus-flag"]] {
        let out = experiments_bounded(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains(&format!("unknown flag: {}", args[args.len() - 1])), "{text}");
        assert!(text.contains("usage: experiments"), "{args:?}: {text}");
    }
}

/// A fresh empty working directory for one test, so that any file a
/// misparsed flag creates shows up.
fn empty_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("beeping_mis_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asserts that `out` is the usage error naming `flag`'s missing value
/// (message, `usage` line, exit 1), that the run left `dir` empty, and then
/// removes `dir`.
fn assert_missing_value_rejected(
    out: &std::process::Output,
    dir: &std::path::Path,
    flag: &str,
    usage: &str,
) {
    let text = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(text.contains(&format!("{flag} expects a value")), "{text}");
    assert!(text.contains(usage), "{text}");
    let written: Vec<_> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert!(written.is_empty(), "wrote {written:?}");
    let _ = std::fs::remove_dir_all(dir);
}

/// Runs the experiments binary on `args` in a fresh empty working directory
/// and asserts that it rejects the missing `--out` value.
fn assert_missing_out_value_rejected(name: &str, args: &[&str]) {
    let dir = empty_dir(name);
    let out = experiments_bounded_in(&dir, args);
    assert_missing_value_rejected(&out, &dir, "--out", "usage: experiments");
}

#[test]
fn experiments_rejects_a_trailing_out_without_value() {
    assert_missing_out_value_rejected("cli_trailing_out", &["F1", "--quick", "--out"]);
}

#[test]
fn experiments_rejects_a_flag_as_the_out_value() {
    assert_missing_out_value_rejected("cli_flag_as_out", &["F1", "--out", "--quick"]);
}

#[test]
fn experiments_rejects_unknown_id() {
    let out = experiments_bin().arg("NOPE-42").output().expect("runs");
    assert!(!out.status.success());
}

#[test]
fn supervised_kill_then_resume_matches_uninterrupted() {
    let dir = std::env::temp_dir().join(format!("beeping_mis_supervised_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workload = ["--family", "gnp", "--n", "64", "--seed", "11", "--max-rounds", "50000"];

    // Reference: one uninterrupted run, no checkpointing at all.
    let reference = supervised().args(workload).output().expect("runs");
    assert!(reference.status.success(), "stderr: {}", String::from_utf8_lossy(&reference.stderr));
    let expected = parse_digest(&String::from_utf8(reference.stdout).unwrap());

    // Same workload, checkpointing, killed mid-run: must fail and leave a snapshot.
    let killed = supervised()
        .args(workload)
        .args(["--checkpoint-dir", dir.to_str().unwrap(), "--checkpoint-every", "8"])
        .args(["--kill-at", "20"])
        .output()
        .expect("runs");
    assert!(!killed.status.success(), "kill-at should make the run fail");
    assert!(
        String::from_utf8_lossy(&killed.stderr).contains("--resume"),
        "failure message should point at --resume"
    );
    assert!(dir.join("checkpoint.snap").exists(), "snapshot should survive the crash");

    // Resume: picks the run back up and lands on the identical digest.
    let resumed = supervised()
        .args(workload)
        .args(["--checkpoint-dir", dir.to_str().unwrap(), "--checkpoint-every", "8"])
        .arg("--resume")
        .output()
        .expect("runs");
    assert!(resumed.status.success(), "stderr: {}", String::from_utf8_lossy(&resumed.stderr));
    let actual = parse_digest(&String::from_utf8(resumed.stdout).unwrap());
    assert_eq!(actual, expected, "resumed run must be bit-identical to uninterrupted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_rejects_a_missing_or_flag_valued_checkpoint_dir() {
    for (name, args) in [
        ("sup_trailing_dir", &["--n", "64", "--checkpoint-dir"][..]),
        ("sup_flag_as_dir", &["--n", "64", "--checkpoint-dir", "--resume"][..]),
    ] {
        let dir = empty_dir(name);
        let out = supervised().current_dir(&dir).args(args).output().expect("runs");
        assert_missing_value_rejected(&out, &dir, "--checkpoint-dir", "usage: supervised");
    }
}

#[test]
fn solve_rejects_a_missing_or_flag_valued_dot_path() {
    for (name, args) in [
        ("solve_trailing_dot", &["--generate", "cycle:12", "--dot"][..]),
        ("solve_flag_as_dot", &["--generate", "cycle:12", "--dot", "--help"][..]),
    ] {
        let dir = empty_dir(name);
        let out = solve().current_dir(&dir).args(args).output().expect("runs");
        assert_missing_value_rejected(&out, &dir, "--dot", "usage: solve");
    }
}

#[test]
fn supervised_and_solve_help_print_usage_and_succeed() {
    for (mut cmd, usage) in [(supervised(), "usage: supervised"), (solve(), "usage: solve")] {
        let out = cmd.arg("--help").output().expect("runs");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{usage} --help should succeed: {text}");
        assert!(text.starts_with(usage), "{text}");
    }
}

/// `par:N` above the machine's available parallelism is a usage error. The
/// 64-node graph has a single word, so even a missed check would start no
/// worker thread.
#[test]
fn supervised_bounds_par_threads_by_available_parallelism() {
    let available = std::thread::available_parallelism().map_or(1, |p| p.get());
    let run = |threads: usize| {
        let engine = format!("par:{threads}");
        supervised().args(["--n", "64", "--engine", &engine]).output().expect("runs")
    };
    let over = run(usize::MAX);
    let text = String::from_utf8_lossy(&over.stderr);
    assert_eq!(over.status.code(), Some(1), "{text}");
    assert!(text.contains("available parallelism"), "{text}");
    assert!(text.contains("usage: supervised"), "{text}");
    let at = run(available);
    assert!(at.status.success(), "par:{available}: {}", String::from_utf8_lossy(&at.stderr));
}

#[test]
fn supervised_rejects_bad_arguments() {
    for args in [
        vec!["--resume"],            // --resume without --checkpoint-dir
        vec!["--family", "torus"],   // unknown family
        vec!["--algorithm", "alg3"], // unknown algorithm
        vec!["--engine", "quantum"], // unknown engine
        vec!["--n"],                 // missing value
        vec!["--bogus-flag"],        // unknown flag
    ] {
        let out = supervised().args(&args).output().expect("runs");
        assert!(!out.status.success(), "args {args:?} should fail");
        assert!(!out.stderr.is_empty());
    }
}

#[test]
fn experiments_runs_f1_quick_and_writes_out_dir() {
    let dir = std::env::temp_dir().join("beeping_mis_cli_out");
    let _ = std::fs::remove_dir_all(&dir);
    let out = experiments_bin()
        .args(["F1", "--quick", "--out", dir.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let report = std::fs::read_to_string(dir.join("F1.txt")).expect("report written");
    assert!(report.contains("Figure 1"));
}
