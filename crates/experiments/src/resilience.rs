//! Experiment `RESIL` — checkpoint overhead and crash-resume fidelity of
//! the resilient harness (`crates/harness`).
//!
//! *Claim under test*: supervising a run — periodic durable snapshots every
//! k rounds plus panic isolation — is cheap enough to leave on for every
//! long experiment (≤ 5% wall-clock overhead at k = 1024 on the PERF quick
//! workload), and a run killed at an arbitrary round and resumed from its
//! snapshot is bit-identical to one that never stopped.
//!
//! *Measurements*: a fixed-length Algorithm 1 workload (the stabilization
//! check is pinned past round R by a trailing one-node fault, so bare and
//! supervised executions cover exactly the same rounds) timed bare vs
//! supervised at several checkpoint cadences; then a kill/resume round trip
//! through the crash rig with a digest comparison against the straight run.
//! Each cadence times bare and supervised runs in back-to-back pairs,
//! alternating which goes first, so host drift between cadences (bare times
//! alone varied 0.97–1.63 s between invocations on a shared 2-core VM)
//! lands on both sides of a pair; the overhead is the median of the
//! per-pair overheads.
//!
//! *Artifacts*: the report table, plus `results/BENCH_HARNESS.json` (one
//! entry per cadence with the median and quartiles of both times and of the
//! overhead fraction) when a `results/` directory exists — the resilience
//! companion of `results/BENCH_PERF.json`.
//!
//! *Expected shape*: overhead falls as the cadence grows; at k = 1024 it is
//! within the 5% acceptance bound, and the digests match exactly.

use std::fmt::Write as _;

use beeping::faults::{FaultPlan, FaultTarget};
use graphs::generators::GraphFamily;
use graphs::Graph;
use harness::crash::killed_then_resumed;
use harness::snapshot::fnv1a64;
use harness::supervisor::{supervise, RunOutcome, SupervisorConfig, SupervisorError};
use mis::resumable::{PlanError, ResumableConfig, ResumableOutcome, ResumableRun};
use mis::{Algorithm1, LmaxPolicy};
use telemetry::Stopwatch;

/// Workload size: the PERF quick scale (and one notch above for the full
/// run). Overhead is a ratio of snapshot cost (O(n + trace)) to round cost
/// (O(n·deg)), so the acceptance bound is only meaningful at sizes where a
/// round does real work — tiny graphs make any checkpoint look expensive.
pub fn workload_n(quick: bool) -> usize {
    if quick {
        1 << 12
    } else {
        1 << 14
    }
}

/// Fixed round count both the bare and the supervised run execute.
pub fn workload_rounds(quick: bool) -> u64 {
    if quick {
        2_048
    } else {
        4_096
    }
}

/// Bare/supervised pairs timed per cadence.
pub fn timing_reps(quick: bool) -> usize {
    if quick {
        2
    } else {
        5
    }
}

/// The cadences measured; 1024 is the acceptance point.
pub fn cadences(quick: bool) -> Vec<u64> {
    if quick {
        vec![256, 1024]
    } else {
        vec![128, 256, 1024, 4096]
    }
}

/// The run configuration of the workload: a trailing single-node fault at
/// round `rounds` pins `last_event_round`, so stabilization is not judged
/// (and the run cannot end) before the full `rounds` are executed — every
/// measured execution covers exactly the same work.
pub fn workload_config(seed: u64, rounds: u64) -> ResumableConfig {
    ResumableConfig::new(seed)
        .with_max_rounds(rounds * 4)
        .with_faults(FaultPlan::new().with_fault(rounds, FaultTarget::Nodes(vec![0])))
}

fn workload_graph(n: usize) -> Graph {
    GraphFamily::Gnp { avg_degree: 8.0 }.generate(n, crate::common::graph_seed(0))
}

/// A deterministic digest of a run's observables — levels, MIS,
/// participation and the full per-round trace — used to compare runs
/// across process boundaries (the CI smoke job greps for it).
pub fn outcome_digest(outcome: &ResumableOutcome) -> u64 {
    let mut canonical = String::new();
    let _ = write!(
        canonical,
        "rounds={};levels={:?};mis={:?};active={:?};trace=",
        outcome.rounds_run, outcome.levels, outcome.mis, outcome.active
    );
    for r in outcome.trace.reports() {
        let _ = write!(
            canonical,
            "[{},{},{},{},{},{},{}]",
            r.round,
            r.beeps_channel1,
            r.beeps_channel2,
            r.hearers_channel1,
            r.hearers_channel2,
            r.lone_beepers,
            r.lone_beepers_channel2
        );
    }
    fnv1a64(canonical.as_bytes())
}

/// The first quartile, median and third quartile of a sample
/// (interpolated, as [`analysis::stats::percentile`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// The quartiles of a non-empty, NaN-free `sample`.
    pub fn of(sample: &[f64]) -> Quartiles {
        let q = |p| analysis::stats::percentile(sample, p);
        Quartiles { q1: q(25.0), median: q(50.0), q3: q(75.0) }
    }

    /// `median [q1, q3]` with `digits` decimals, scaled by `scale`.
    fn render(&self, scale: f64, digits: usize) -> String {
        let (q1, m, q3) = (self.q1 * scale, self.median * scale, self.q3 * scale);
        format!("{m:.digits$} [{q1:.digits$}, {q3:.digits$}]")
    }

    /// The JSON object `{"q1": …, "median": …, "q3": …}`.
    fn json(&self) -> String {
        format!(
            "{{\"q1\": {:.4}, \"median\": {:.4}, \"q3\": {:.4}}}",
            self.q1, self.median, self.q3
        )
    }
}

/// One measured cadence point.
pub struct OverheadPoint {
    /// Checkpoint cadence in rounds.
    pub every: u64,
    /// Bare (unsupervised) wall-clock seconds.
    pub bare_secs: Quartiles,
    /// Supervised wall-clock seconds (durable checkpoints to disk).
    pub supervised_secs: Quartiles,
    /// Relative overhead of supervision, `(supervised - bare) / bare`, per
    /// back-to-back pair.
    pub overhead_frac: Quartiles,
    /// Durable snapshots written.
    pub checkpoints: u64,
    /// Size of the final snapshot file in bytes.
    pub snapshot_bytes: u64,
}

fn bare_run(
    g: &Graph,
    algo: &Algorithm1,
    config: ResumableConfig,
) -> Result<(ResumableOutcome, f64), SupervisorError> {
    let watch = Stopwatch::start();
    let mut run = ResumableRun::new(g, algo, config)?;
    run.run_to_completion();
    let secs = watch.elapsed_secs();
    match run.outcome() {
        Some(outcome) => Ok((outcome, secs)),
        // Unreachable after run_to_completion; surfaced as a typed error so
        // a surprise cannot abort the surrounding sweep.
        None => Err(SupervisorError::Plan(PlanError::Motion(
            "run finished without an outcome".to_string(),
        ))),
    }
}

/// Times one supervised run under `sup`.
fn supervised_run(
    g: &Graph,
    algo: &Algorithm1,
    config: &ResumableConfig,
    sup: &SupervisorConfig,
) -> Result<(ResumableOutcome, f64), SupervisorError> {
    let watch = Stopwatch::start();
    let outcome = supervise(g, algo, config.clone(), sup)?;
    let secs = watch.elapsed_secs();
    match outcome {
        RunOutcome::Completed(o) | RunOutcome::BudgetExhausted(o) => Ok((o, secs)),
        other => panic!("workload ended unexpectedly: {other:?}"),
    }
}

/// Measures one cadence with `reps` back-to-back bare/supervised pairs,
/// alternating which side runs first, asserting that both sides reproduce
/// the `reference` (untimed bare) outcome before trusting the timing.
/// Errors when the workload configuration is invalid or supervision itself
/// fails (unwritable snapshots).
pub fn measure_cadence(
    g: &Graph,
    algo: &Algorithm1,
    config: &ResumableConfig,
    every: u64,
    dir: &std::path::Path,
    reference: &ResumableOutcome,
    reps: usize,
) -> Result<OverheadPoint, SupervisorError> {
    let sup = SupervisorConfig::new().with_checkpoint_every(every).with_checkpoint_dir(dir);
    let digest = outcome_digest(reference);
    let (mut bare, mut supervised, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps.max(1) {
        let ((bare_outcome, bare_secs), (sup_outcome, sup_secs)) = if rep % 2 == 0 {
            let b = bare_run(g, algo, config.clone())?;
            (b, supervised_run(g, algo, config, &sup)?)
        } else {
            let s = supervised_run(g, algo, config, &sup)?;
            (bare_run(g, algo, config.clone())?, s)
        };
        assert_eq!(outcome_digest(&bare_outcome), digest, "bare runs must repeat exactly");
        assert_eq!(
            outcome_digest(&sup_outcome),
            digest,
            "supervision must be observationally free (cadence {every})"
        );
        bare.push(bare_secs);
        supervised.push(sup_secs);
        overheads.push((sup_secs - bare_secs) / bare_secs.max(1e-9));
    }

    let snapshot = harness::supervisor::snapshot_path(dir);
    let snapshot_bytes = std::fs::metadata(&snapshot).map(|m| m.len()).unwrap_or(0);
    // +1 for the round-0 snapshot the supervisor always writes.
    let checkpoints = reference.rounds_run / every + 1;
    Ok(OverheadPoint {
        every,
        bare_secs: Quartiles::of(&bare),
        supervised_secs: Quartiles::of(&supervised),
        overhead_frac: Quartiles::of(&overheads),
        checkpoints,
        snapshot_bytes,
    })
}

/// Renders the measured points as the committed JSON artifact (fixed field
/// order; wall-clock values vary run to run — a baseline record, not a
/// determinism artifact).
pub fn bench_json(points: &[OverheadPoint], pairs: usize, quick: bool, git: &str) -> String {
    let mut out = String::from("{\n  \"experiment\": \"RESIL\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"git\": \"{}\",", telemetry::jsonl::escape(git));
    let _ = writeln!(out, "  \"unit\": \"seconds\",");
    let _ = writeln!(out, "  \"acceptance\": \"overhead_frac <= 0.05 at every=1024\",");
    let _ = writeln!(
        out,
        "  \"timing\": \"per cadence, back-to-back bare/supervised pairs alternating which \
         runs first; q1/median/q3 of each side and of the per-pair overhead_frac\","
    );
    out.push_str("  \"entries\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"every\": {}, \"pairs\": {}, \"bare_secs\": {}, \"supervised_secs\": {}, \
             \"overhead_frac\": {}, \"checkpoints\": {}, \"snapshot_bytes\": {}}}{sep}",
            p.every,
            pairs,
            p.bare_secs.json(),
            p.supervised_secs.json(),
            p.overhead_frac.json(),
            p.checkpoints,
            p.snapshot_bytes
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the experiment and returns the printed report.
pub fn run(quick: bool) -> String {
    let seed = 0xC4A5;
    let n = workload_n(quick);
    let rounds = workload_rounds(quick);
    let mut out = crate::common::header(
        "RESIL",
        "resilient harness: checkpoint overhead + crash-resume fidelity",
    );
    let _ = writeln!(
        out,
        "workload: Algorithm 1 (global-Δ) on G(n,p) avg-degree 8, n={n}, exactly {rounds} \
         rounds (stabilization pinned past the last scheduled event); snapshots to a scratch \
         directory under target/"
    );

    let g = workload_graph(n);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = workload_config(seed, rounds);

    // Scratch under the workspace build tree regardless of the CWD the
    // binary or test harness runs from. `ancestors().nth(2)` of the crate
    // manifest dir always exists; fall back to the CWD if it somehow ends
    // at the filesystem root.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap_or_else(|| std::path::Path::new("."))
        .join("target")
        .join("resil-scratch");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        let _ = writeln!(out, "error: cannot create scratch dir {}: {e}", dir.display());
        return out;
    }

    // Overhead sweep: one untimed bare run (warm-up and reference
    // outcome), then interleaved bare/supervised pairs per cadence.
    let bare = match bare_run(&g, &algo, config.clone()) {
        Ok((outcome, _)) => outcome,
        Err(e) => {
            let _ = writeln!(out, "error: bare workload failed: {e}");
            return out;
        }
    };
    let reps = timing_reps(quick);
    let mut points = Vec::new();
    let mut table = analysis::Table::new([
        "every",
        "bare s",
        "supervised s",
        "overhead %",
        "ckpts",
        "snap KiB",
    ]);
    for every in cadences(quick) {
        match measure_cadence(&g, &algo, &config, every, &dir, &bare, reps) {
            Ok(p) => {
                table.row([
                    p.every.to_string(),
                    p.bare_secs.render(1.0, 3),
                    p.supervised_secs.render(1.0, 3),
                    p.overhead_frac.render(100.0, 1),
                    p.checkpoints.to_string(),
                    format!("{:.1}", p.snapshot_bytes as f64 / 1024.0),
                ]);
                points.push(p);
            }
            Err(e) => {
                let _ = writeln!(out, "warning: skipping cadence {every}: {e}");
            }
        }
    }
    out.push_str(&format!(
        "\n## supervision overhead (lower is better)\n\nmedian [q1, q3] of {reps} back-to-back \
         bare/supervised pairs per cadence, alternating which runs first; overhead is per pair\n\n"
    ));
    out.push_str(&format!("{table}"));

    // Crash/resume fidelity: kill mid-run, resume from disk, compare
    // digests against the uninterrupted run.
    let reference_digest = outcome_digest(&bare);
    let kill_at = rounds / 2;
    let report = killed_then_resumed(&g, &algo, config, kill_at, 1024, &dir);
    let resumed_digest = outcome_digest(&report.outcome);
    let _ = writeln!(
        out,
        "\n## crash-resume fidelity\n\nkill at round {kill_at}, checkpoint every 1024: \
         killed={}, straight digest={reference_digest:016x}, resumed digest={resumed_digest:016x}, \
         bit-identical={}",
        report.killed,
        resumed_digest == reference_digest
    );
    assert_eq!(resumed_digest, reference_digest, "crash-resume must be bit-identical");

    let json = bench_json(&points, reps, quick, &crate::perf::git_describe());
    out.push_str("\nbench record:\n");
    out.push_str(&json);
    // Same convention as PERF: written only when the standard output
    // directory exists (CI smoke and full runs pass `--out results`).
    let results = std::path::Path::new("results");
    if results.is_dir() {
        if let Err(e) = std::fs::write(results.join("BENCH_HARNESS.json"), &json) {
            let _ = writeln!(out, "warning: cannot write results/BENCH_HARNESS.json: {e}");
        } else {
            out.push_str("\nrecord written to results/BENCH_HARNESS.json\n");
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    out.push_str(
        "\nexpected shape: overhead falls with the cadence and its median is <= 5% at every=1024; \
         the kill/resume digest equals the straight-run digest exactly.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        let g = workload_graph(64);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let (a, _) = bare_run(&g, &algo, workload_config(1, 64)).expect("valid");
        let (b, _) = bare_run(&g, &algo, workload_config(1, 64)).expect("valid");
        assert_eq!(outcome_digest(&a), outcome_digest(&b));
        let (c, _) = bare_run(&g, &algo, workload_config(2, 64)).expect("valid");
        assert_ne!(outcome_digest(&a), outcome_digest(&c));
    }

    #[test]
    fn workload_runs_exactly_the_pinned_rounds_or_more() {
        // The trailing fault pins the stabilization check past `rounds`.
        let g = workload_graph(48);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let (outcome, _) = bare_run(&g, &algo, workload_config(7, 100)).expect("valid");
        assert!(outcome.rounds_run >= 100, "ran only {}", outcome.rounds_run);
    }

    #[test]
    fn quick_report_passes_its_own_acceptance() {
        let report = run(true);
        assert!(report.contains("bit-identical=true"));
        assert!(report.contains("BENCH") || report.contains("bench record"));
    }
}
