//! Experiment `PERF` — round-engine throughput baseline (scalar vs scatter
//! vs frontier).
//!
//! *Claims under test*: (1) the scatter delivery engine (collect the
//! round's beepers, push their signals to neighbors, word-packed "heard"
//! bitsets, fused no-fault fast path) is a pure performance refactor —
//! bit-identical to the scalar reference per seed, and ≥ 2× faster in
//! rounds/sec on sparse families at large n in the no-fault configuration;
//! (2) the frontier (event-driven) engine makes post-stabilization rounds
//! cost O(|frontier|) instead of O(n): on the post-stabilization +
//! point-fault workload it is ≥ 10× faster than scatter at the largest
//! size, while remaining bit-identical per seed.
//!
//! *Measurements*: for each graph family (cycle, 4-regular, G(n,p)), size,
//! and workload, run Algorithm 1 to stabilization once, then time all three
//! engines over the same workload. Workloads: **steady** (the sustained
//! regime: MIS members beep every round, everyone else listens) and
//! **post-stab-fault** (steady state with one MIS member's state knocked to
//! `lmax` every [`FAULT_PERIOD`] rounds — the self-stabilization regime the
//! frontier engine targets, where each fault dirties a neighborhood and the
//! rest of the network is settled). A differential check steps all four
//! engines (the three timed here plus the parallel scatter engine) side by
//! side — fault injections included — and asserts identical round reports
//! and states before any timing is trusted. Each engine's rate is the best
//! of [`TIMING_SEGMENTS`] contiguous timed windows over one uninterrupted
//! run, so a one-shot scheduler stall cannot masquerade as an engine
//! regression; the *work* claims behind the speedups are additionally
//! pinned by deterministic operation counters (`Simulator::work`), which
//! no wall clock can perturb.
//!
//! *Artifacts*: the report table, plus `results/BENCH_PERF.json` (one entry
//! per `(family, workload, n)` with rounds/sec for all three engines and
//! the speedups) when a `results/` directory exists. The committed baseline
//! is that file from a *full* (non-`--quick`) run; a full run warns when
//! its git provenance is dirty or unknown.
//!
//! *Expected shape*: scatter's speedup over scalar grows with n and is
//! largest on sparse families (cycle, regular), where per-round bookkeeping
//! — not edge scanning — dominates the scalar engine; acceptance is ≥ 2× at
//! the largest size on cycle and regular graphs. The frontier engine's
//! speedup over scatter is largest where the settled complement is largest:
//! on post-stab-fault the dirty set is one fault neighborhood, so the win
//! grows linearly with n; acceptance is ≥ 10× over scatter at n = 2^16
//! (full run).

use std::fmt::Write as _;

use beeping::{EngineMode, Simulator};
use graphs::generators::GraphFamily;
use graphs::Graph;
use mis::levels::Level;
use mis::runner::{self, RunConfig, RunError};
use mis::{Algorithm1, LmaxPolicy};
use telemetry::Stopwatch;

/// The graph families of the throughput table, sparse first.
pub fn families() -> Vec<GraphFamily> {
    vec![GraphFamily::Cycle, GraphFamily::Regular { d: 4 }, GraphFamily::Gnp { avg_degree: 8.0 }]
}

/// Network sizes: powers of two up to 2^16 (2^12 under `--quick`).
pub fn sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1 << 10, 1 << 12]
    } else {
        vec![1 << 12, 1 << 14, 1 << 16]
    }
}

/// Rounds between point-fault injections on the post-stabilization
/// workload: long enough for the dirtied neighborhood to re-settle, short
/// enough that every timed window contains faults.
pub const FAULT_PERIOD: u64 = 64;

/// The timed regime of one measurement row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sustained stabilized execution: no disturbances, every node
    /// re-certifies its settled round forever.
    Steady,
    /// Post-stabilization + point fault: stabilized execution with one MIS
    /// member's state knocked to `lmax` every [`FAULT_PERIOD`] rounds. The
    /// event-driven regime the frontier engine targets — each fault dirties
    /// one neighborhood while the rest of the network stays settled.
    PointFault,
}

impl Workload {
    /// Both workloads, in report order.
    pub fn all() -> [Workload; 2] {
        [Workload::Steady, Workload::PointFault]
    }

    /// The row/JSON label.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::PointFault => "post-stab-fault",
        }
    }
}

/// One `(family, workload, n)` measurement.
pub struct PerfPoint {
    /// Family label.
    pub family: String,
    /// Workload label (see [`Workload::label`]).
    pub workload: String,
    /// Network size.
    pub n: usize,
    /// Edge count of the generated instance.
    pub m: usize,
    /// Timed rounds per engine.
    pub rounds: u64,
    /// Scalar-engine throughput, rounds/sec.
    pub scalar_rps: f64,
    /// Scatter-engine throughput, rounds/sec.
    pub scatter_rps: f64,
    /// Frontier-engine throughput, rounds/sec.
    pub frontier_rps: f64,
}

impl PerfPoint {
    /// Scatter speedup over scalar.
    pub fn scatter_speedup(&self) -> f64 {
        self.scatter_rps / self.scalar_rps.max(1e-9)
    }

    /// Frontier speedup over scatter — the frontier engine's acceptance
    /// metric is measured against the fastest full-sweep engine, not the
    /// scalar reference.
    pub fn frontier_speedup(&self) -> f64 {
        self.frontier_rps / self.scatter_rps.max(1e-9)
    }
}

/// A stabilized (steady-state) configuration for the timing workload: MIS
/// members beep every round, everyone else listens. Errors (instead of
/// panicking) when the workload run exhausts its budget.
fn steady_state_levels(g: &Graph, algo: &Algorithm1, seed: u64) -> Result<Vec<Level>, RunError> {
    let config = RunConfig::new(seed).with_max_rounds(1_000_000);
    Ok(runner::run(g, algo, config)?.levels)
}

/// The point-fault rotation for a workload: on the steady workload it is
/// empty; on post-stab-fault it holds `(victim, lmax)` for every MIS
/// member of the stabilized configuration, in node order, so successive
/// faults hit different neighborhoods.
fn fault_schedule(
    g: &Graph,
    algo: &Algorithm1,
    levels: &[Level],
    workload: Workload,
) -> Vec<(usize, Level)> {
    match workload {
        Workload::Steady => Vec::new(),
        Workload::PointFault => {
            let members = algo.mis_members(g, levels);
            (0..g.len()).filter(|&v| members[v]).map(|v| (v, algo.lmax(v))).collect()
        }
    }
}

/// Applies the deterministic fault schedule for round `r` (0-based, i.e.
/// *before* stepping round `r + 1`): on every [`FAULT_PERIOD`]-th round the
/// next victim's state is knocked to its `lmax`. `corrupt_state` draws no
/// randomness, so injecting the same schedule into every engine preserves
/// bit-identity.
fn inject_fault(
    sim: &mut Simulator<'_, Algorithm1>,
    r: u64,
    faults: &[(usize, Level)],
    next: &mut usize,
) {
    if r.is_multiple_of(FAULT_PERIOD) && !faults.is_empty() {
        let (v, lmax) = faults[*next % faults.len()];
        *next += 1;
        sim.corrupt_state(v, lmax);
    }
}

/// Contiguous timed windows per engine measurement; the reported rate is
/// the **best** window. One run of each engine is a single sample on a
/// shared machine: a scheduler stall landing inside it silently taxes that
/// engine alone (the committed-baseline 0.89 scatter row on
/// (cycle, post-stab-fault, n=4096) was exactly such an artifact — the
/// deterministic work counters prove scatter does strictly less edge work
/// there; see `scatter_does_no_more_edge_work_than_scalar`). Max-of-four
/// windows discards one-shot stalls while keeping the budget unchanged.
pub const TIMING_SEGMENTS: u64 = 4;

fn rounds_per_sec(
    g: &Graph,
    algo: &Algorithm1,
    levels: &[Level],
    seed: u64,
    engine: EngineMode,
    rounds: u64,
    faults: &[(usize, Level)],
) -> f64 {
    let mut sim = Simulator::new(g, algo.clone(), levels.to_vec(), seed).with_engine(engine);
    // One simulator across all segments: the workload — round index, fault
    // rotation, RNG streams — runs on uninterrupted; only the timing is
    // windowed.
    let mut next = 0usize;
    let mut r = 0u64;
    let segment = (rounds / TIMING_SEGMENTS).max(1);
    let mut best = 0.0f64;
    while r < rounds {
        let len = segment.min(rounds - r);
        let watch = Stopwatch::start();
        for _ in 0..len {
            if !faults.is_empty() {
                inject_fault(&mut sim, r, faults, &mut next);
            }
            sim.step();
            r += 1;
        }
        let secs = watch.elapsed_secs().max(1e-9);
        best = best.max(len as f64 / secs);
    }
    std::hint::black_box(sim.states());
    best
}

/// Steps all four engines (scalar, scatter, frontier, 2-thread parallel
/// scatter) side by side — fault injections included, when `faults` is
/// non-empty — and asserts bit-identical round reports, states and
/// signals: the differential gate run before any timing.
///
/// # Panics
///
/// Panics on the first diverging round.
pub fn assert_engines_identical(
    g: &Graph,
    algo: &Algorithm1,
    levels: &[Level],
    seed: u64,
    rounds: u64,
    faults: &[(usize, Level)],
) {
    let engines = [
        EngineMode::Scalar,
        EngineMode::Scatter,
        EngineMode::Frontier,
        EngineMode::ParScatter { threads: 2 },
    ];
    let mut sims = engines
        .map(|engine| Simulator::new(g, algo.clone(), levels.to_vec(), seed).with_engine(engine));
    let mut next = [0usize; 4];
    for round in 1..=rounds {
        for (sim, next) in sims.iter_mut().zip(next.iter_mut()) {
            inject_fault(sim, round - 1, faults, next);
        }
        let reports = [sims[0].step(), sims[1].step(), sims[2].step(), sims[3].step()];
        let [scalar, rest @ ..] = &sims;
        for ((&report, other), engine) in reports[1..].iter().zip(rest).zip(&engines[1..]) {
            assert_eq!(
                reports[0],
                report,
                "{engine:?} round report diverged at round {round} (n={})",
                g.len()
            );
            assert_eq!(
                scalar.states(),
                other.states(),
                "{engine:?} states diverged at round {round}"
            );
            assert_eq!(
                scalar.last_sent(),
                other.last_sent(),
                "{engine:?} transmissions diverged at round {round}"
            );
            assert_eq!(
                scalar.last_heard(),
                other.last_heard(),
                "{engine:?} observations diverged at round {round}"
            );
        }
    }
}

/// Measures one `(family, workload, n)` point: stabilize,
/// differential-check, then time all three engines on the same workload.
/// Errors when the stabilizing run exhausts its budget.
pub fn measure_point(
    family: &GraphFamily,
    n: usize,
    seed: u64,
    quick: bool,
    workload: Workload,
) -> Result<PerfPoint, RunError> {
    let g = family.generate(n, crate::common::graph_seed(0));
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let levels = steady_state_levels(&g, &algo, seed)?;
    let faults = fault_schedule(&g, &algo, &levels, workload);
    assert_engines_identical(&g, &algo, &levels, seed, 8, &faults);
    // Node-rounds budget per engine, so every size gets comparable wall
    // time; floors keep the smallest quick sizes from under-sampling.
    let budget: u64 = if quick { 1 << 21 } else { 1 << 25 };
    let rounds = (budget / n as u64).max(16);
    let [scalar_rps, scatter_rps, frontier_rps] =
        [EngineMode::Scalar, EngineMode::Scatter, EngineMode::Frontier]
            .map(|engine| rounds_per_sec(&g, &algo, &levels, seed, engine, rounds, &faults));
    Ok(PerfPoint {
        family: family.to_string(),
        workload: workload.label().to_string(),
        n,
        m: g.num_edges(),
        rounds,
        scalar_rps,
        scatter_rps,
        frontier_rps,
    })
}

/// The current `git describe` of the working tree, for provenance in the
/// committed baseline; `"unknown"` when git (or the repository) is
/// unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Whether a baseline written with this provenance string deserves a
/// warning: `git describe --dirty` appends `-dirty` to describe a tree
/// with uncommitted changes, and `"unknown"` means git was unavailable —
/// either way the recorded numbers cannot be traced back to a commit.
pub fn untraceable_provenance(git: &str) -> bool {
    git == "unknown" || git.ends_with("-dirty")
}

/// The file name of a bench record: `BENCH_<X>.json` for a full run, and
/// `BENCH_<X>.quick.json` for a quick one, so a quick run never replaces
/// the committed full record.
fn bench_record_name(experiment: &str, quick: bool) -> String {
    let suffix = if quick { ".quick" } else { "" };
    format!("BENCH_{experiment}{suffix}.json")
}

/// Writes a bench record into `results` when that directory exists: the
/// CI smoke and full runs pass `--out results`, while plain `cargo test`
/// runs from the crate directory, which has none. A full run from a dirty
/// or unknown tree gets a provenance warning, because its numbers cannot
/// be traced back to a commit. Returns the lines to append to the report.
pub fn save_bench_record(
    results: &std::path::Path,
    experiment: &str,
    json: &str,
    quick: bool,
    git: &str,
) -> String {
    let mut notes = String::new();
    if !results.is_dir() {
        return notes;
    }
    let name = bench_record_name(experiment, quick);
    match std::fs::write(results.join(&name), json) {
        Ok(()) => {
            let _ = writeln!(notes, "\nrecord written to results/{name}");
        }
        Err(e) => {
            let _ = writeln!(notes, "warning: cannot write results/{name}: {e}");
        }
    }
    if !quick && untraceable_provenance(git) {
        let _ = writeln!(
            notes,
            "warning: record provenance is \"{git}\" (dirty or unknown tree); \
             re-run from a clean commit before committing results/{name}"
        );
    }
    notes
}

/// Renders the measured points as the committed JSON artifact (fixed field
/// order; throughput values are wall-clock measurements and vary run to
/// run, so the file is a baseline record, not a determinism artifact).
pub fn bench_json(points: &[PerfPoint], quick: bool, git: &str) -> String {
    let mut out = String::from("{\n  \"experiment\": \"PERF\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"git\": \"{}\",", telemetry::jsonl::escape(git));
    let _ = writeln!(out, "  \"unit\": \"rounds_per_sec\",");
    out.push_str("  \"entries\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"family\": \"{}\", \"workload\": \"{}\", \"n\": {}, \"m\": {}, \
             \"rounds\": {}, \"scalar_rps\": {:.1}, \"scatter_rps\": {:.1}, \
             \"frontier_rps\": {:.1}, \"scatter_speedup\": {:.2}, \
             \"frontier_speedup\": {:.2}}}{sep}",
            p.family,
            p.workload,
            p.n,
            p.m,
            p.rounds,
            p.scalar_rps,
            p.scatter_rps,
            p.frontier_rps,
            p.scatter_speedup(),
            p.frontier_speedup()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the experiment and returns the printed report.
pub fn run(quick: bool) -> String {
    let seed = 0x9E2F;
    let mut out =
        crate::common::header("PERF", "round-engine throughput: scalar vs scatter vs frontier");
    let _ = writeln!(
        out,
        "workloads: Algorithm 1 (global-Δ) steady state, and post-stabilization + point fault \
         (one MIS member knocked to lmax every {FAULT_PERIOD} rounds); all three engines timed \
         on the same configuration after an 8-round differential check; per-engine budget {} \
         node-rounds",
        if quick { 1u64 << 21 } else { 1 << 25 }
    );

    let mut points = Vec::new();
    let mut table = analysis::Table::new([
        "family",
        "workload",
        "n",
        "m",
        "rounds",
        "scalar r/s",
        "scatter r/s",
        "frontier r/s",
        "scatter x",
        "frontier x",
    ]);
    for family in families() {
        for workload in Workload::all() {
            for &n in &sizes(quick) {
                match measure_point(&family, n, seed, quick, workload) {
                    Ok(p) => {
                        table.row([
                            p.family.clone(),
                            p.workload.clone(),
                            p.n.to_string(),
                            p.m.to_string(),
                            p.rounds.to_string(),
                            format!("{:.0}", p.scalar_rps),
                            format!("{:.0}", p.scatter_rps),
                            format!("{:.0}", p.frontier_rps),
                            format!("{:.2}x", p.scatter_speedup()),
                            format!("{:.2}x", p.frontier_speedup()),
                        ]);
                        points.push(p);
                    }
                    Err(e) => {
                        let label = workload.label();
                        let _ = writeln!(out, "warning: skipping ({family}, {label}, n={n}): {e}");
                    }
                }
            }
        }
    }
    out.push_str("\n## throughput (higher is better)\n\n");
    out.push_str(&format!("{table}"));

    let git = git_describe();
    let json = bench_json(&points, quick, &git);
    out.push_str("\nbench baseline:\n");
    out.push_str(&json);
    out.push_str(&save_bench_record(std::path::Path::new("results"), "PERF", &json, quick, &git));
    out.push_str(
        "\nexpected shape: scatter's speedup over scalar grows with n and is largest on the \
         sparse families (acceptance >= 2x on cycle and regular at the largest size, steady \
         workload, full run); the frontier engine's speedup over scatter grows linearly with n \
         on post-stab-fault, where the dirty set is one fault neighborhood (acceptance >= 10x \
         at n=65536, full run).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_all_sections() {
        let report = run(true);
        for section in ["throughput", "bench baseline:", "\"experiment\": \"PERF\""] {
            assert!(report.contains(section), "missing section {section}");
        }
        assert!(report.contains("cycle"));
        assert!(report.contains("steady"));
        assert!(report.contains("post-stab-fault"));
        assert!(report.contains("frontier"));
    }

    #[test]
    fn engines_identical_on_steady_state() {
        let family = GraphFamily::Gnp { avg_degree: 8.0 };
        let g = family.generate(96, 3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let levels = steady_state_levels(&g, &algo, 5).expect("stabilizes");
        assert_engines_identical(&g, &algo, &levels, 5, 32, &[]);
    }

    #[test]
    fn engines_identical_under_point_faults() {
        // The differential gate must hold through fault injections: run
        // several fault periods so the gate covers inject → recover →
        // re-settle on all three engines.
        let family = GraphFamily::Regular { d: 4 };
        let g = family.generate(96, 3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let levels = steady_state_levels(&g, &algo, 5).expect("stabilizes");
        let faults = fault_schedule(&g, &algo, &levels, Workload::PointFault);
        assert!(!faults.is_empty(), "a stabilized MIS has members");
        assert_engines_identical(&g, &algo, &levels, 5, 3 * FAULT_PERIOD, &faults);
    }

    /// The regression guard for the committed-baseline 0.89 scatter row on
    /// (cycle, post-stab-fault, n=4096). That row was a wall-clock sampling
    /// artifact — a one-shot stall inside scatter's single timed window on a
    /// shared box — not an engine regression, and this test pins the claim
    /// in a way no scheduler can perturb: over the exact workload of that
    /// row, the deterministic operation counters must show scatter doing
    /// *strictly less* edge work than scalar (it scans `deg(beeper)`
    /// adjacency entries per beeping channel, versus scalar's
    /// `deg(listener)` per hearing-capable listener — on a stabilized
    /// configuration only MIS members beep, and everyone listens), and the
    /// frontier engine doing no more node work than either full sweep.
    #[test]
    fn scatter_does_no_more_edge_work_than_scalar() {
        let g = GraphFamily::Cycle.generate(4096, crate::common::graph_seed(0));
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let levels = steady_state_levels(&g, &algo, 0x9E2F).expect("stabilizes");
        let faults = fault_schedule(&g, &algo, &levels, Workload::PointFault);
        assert!(!faults.is_empty(), "a stabilized MIS has members");

        let work = |engine: EngineMode| {
            let mut sim =
                Simulator::new(&g, algo.clone(), levels.clone(), 0x9E2F).with_engine(engine);
            let mut next = 0usize;
            for r in 0..3 * FAULT_PERIOD {
                inject_fault(&mut sim, r, &faults, &mut next);
                sim.step();
            }
            sim.work()
        };
        let scalar = work(EngineMode::Scalar);
        let scatter = work(EngineMode::Scatter);
        let frontier = work(EngineMode::Frontier);
        let par = work(EngineMode::ParScatter { threads: 2 });

        // Full-sweep engines execute every node every round; the frontier
        // engine may only ever execute fewer.
        assert_eq!(scalar.node_execs, scatter.node_execs);
        assert_eq!(scalar.node_execs, par.node_execs);
        assert!(frontier.node_execs <= scalar.node_execs, "{frontier:?} vs {scalar:?}");

        // The heart of the regression claim: scatter-family delivery
        // traverses strictly fewer adjacency entries than scalar gathering
        // on this workload, so any measured slowdown is measurement noise.
        assert!(
            scatter.edge_visits < scalar.edge_visits,
            "scatter must do strictly less edge work: {scatter:?} vs {scalar:?}"
        );
        // The parallel engine shards the same scatter sweep: identical work.
        assert_eq!(par.edge_visits, scatter.edge_visits);
        // And the frontier engine, settled outside fault neighborhoods,
        // does no more than the scatter sweep it specializes.
        assert!(frontier.edge_visits <= scatter.edge_visits, "{frontier:?} vs {scatter:?}");
    }

    /// The engines whose work counters are pinned, in golden-column order.
    const GOLDEN_ENGINES: [EngineMode; 5] = [
        EngineMode::Scalar,
        EngineMode::Scatter,
        EngineMode::Frontier,
        EngineMode::ParScatter { threads: 1 },
        EngineMode::ParScatter { threads: 2 },
    ];

    /// `(rounds, node_execs, edge_visits)` of one engine over a PERF
    /// workload: `rounds` steps from the stabilized start, faults injected
    /// exactly as the timed loop injects them.
    fn workload_work(
        g: &Graph,
        algo: &Algorithm1,
        levels: &[Level],
        faults: &[(usize, Level)],
        rounds: u64,
        engine: EngineMode,
    ) -> (u64, u64, u64) {
        let mut sim = Simulator::new(g, algo.clone(), levels.to_vec(), 0x9E2F).with_engine(engine);
        let mut next = 0usize;
        for r in 0..rounds {
            inject_fault(&mut sim, r, faults, &mut next);
            sim.step();
        }
        let work = sim.work();
        (sim.round(), work.node_execs, work.edge_visits)
    }

    /// Exact work counters of every engine over one PERF `--quick` family
    /// at n = 2^12, both workloads, with the timed loop's round count.
    /// A kernel refactor must leave every number unchanged: a change here
    /// means some engine now executes or scans a different amount.
    fn assert_perf_work(family: GraphFamily, golden: [[(u64, u64, u64); 5]; 2]) {
        let n = 1 << 12;
        let g = family.generate(n, crate::common::graph_seed(0));
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let levels = steady_state_levels(&g, &algo, 0x9E2F).expect("stabilizes");
        let rounds = ((1u64 << 21) / n as u64).max(16);
        for (workload, expected) in Workload::all().into_iter().zip(golden) {
            let faults = fault_schedule(&g, &algo, &levels, workload);
            let actual = GOLDEN_ENGINES
                .map(|engine| workload_work(&g, &algo, &levels, &faults, rounds, engine));
            assert_eq!(actual, expected, "{family} {} work changed", workload.label());
        }
    }

    #[test]
    fn work_counters_pinned_cycle() {
        assert_perf_work(
            GraphFamily::Cycle,
            [
                [
                    (512, 2097152, 4194304),
                    (512, 2097152, 1808384),
                    (512, 4096, 3532),
                    (512, 2097152, 1808384),
                    (512, 2097152, 1808384),
                ],
                [
                    (512, 2097152, 4194304),
                    (512, 2097152, 1808182),
                    (512, 4222, 3560),
                    (512, 2097152, 1808182),
                    (512, 2097152, 1808182),
                ],
            ],
        );
    }

    #[test]
    fn work_counters_pinned_regular() {
        assert_perf_work(
            GraphFamily::Regular { d: 4 },
            [
                [
                    (512, 2097152, 8388608),
                    (512, 2097152, 2758656),
                    (512, 4096, 5388),
                    (512, 2097152, 2758656),
                    (512, 2097152, 2758656),
                ],
                [
                    (512, 2097152, 8388608),
                    (512, 2097152, 2758192),
                    (512, 4341, 5468),
                    (512, 2097152, 2758192),
                    (512, 2097152, 2758192),
                ],
            ],
        );
    }

    #[test]
    fn work_counters_pinned_gnp() {
        assert_perf_work(
            GraphFamily::Gnp { avg_degree: 8.0 },
            [
                [
                    (512, 2097152, 16715776),
                    (512, 2097152, 3881472),
                    (512, 4096, 7581),
                    (512, 2097152, 3881472),
                    (512, 2097152, 3881472),
                ],
                [
                    (512, 2097152, 16715776),
                    (512, 2097152, 3880523),
                    (512, 4455, 7701),
                    (512, 2097152, 3880523),
                    (512, 2097152, 3880523),
                ],
            ],
        );
    }

    #[test]
    fn json_is_well_formed() {
        let points = vec![PerfPoint {
            family: "cycle".into(),
            workload: "post-stab-fault".into(),
            n: 64,
            m: 64,
            rounds: 100,
            scalar_rps: 1000.0,
            scatter_rps: 2500.0,
            frontier_rps: 50000.0,
        }];
        let json = bench_json(&points, true, "v1.2.3-4-gabcdef0");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"workload\": \"post-stab-fault\""));
        assert!(json.contains("\"scatter_speedup\": 2.50"));
        assert!(json.contains("\"frontier_speedup\": 20.00"));
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains("\"git\": \"v1.2.3-4-gabcdef0\""));
    }

    #[test]
    fn git_describe_never_empty() {
        assert!(!git_describe().is_empty());
    }

    #[test]
    fn dirty_and_unknown_provenance_flagged() {
        assert!(untraceable_provenance("unknown"));
        assert!(untraceable_provenance("70e2657-dirty"));
        assert!(untraceable_provenance("v1.2.3-4-gabcdef0-dirty"));
        assert!(!untraceable_provenance("70e2657"));
        assert!(!untraceable_provenance("v1.2.3-4-gabcdef0"));
    }

    #[test]
    fn quick_records_never_take_the_committed_name() {
        assert_eq!(bench_record_name("PERF", false), "BENCH_PERF.json");
        assert_eq!(bench_record_name("HARNESS", true), "BENCH_HARNESS.quick.json");
        let dir = std::env::temp_dir().join(format!("bench-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let quick_dirty = save_bench_record(&dir, "X", "{}", true, "abc1234-dirty");
        assert!(dir.join("BENCH_X.quick.json").is_file());
        assert!(!dir.join("BENCH_X.json").exists(), "a quick run wrote the full record");
        assert!(!quick_dirty.contains("warning"), "{quick_dirty}");
        for git in ["abc1234-dirty", "unknown"] {
            let notes = save_bench_record(&dir, "X", "{}", false, git);
            assert!(notes.contains("warning: record provenance"), "{notes}");
            assert!(notes.contains("results/BENCH_X.json"), "{notes}");
        }
        let clean = save_bench_record(&dir, "X", "{}", false, "abc1234");
        assert!(!clean.contains("warning"), "{clean}");
        std::fs::remove_dir_all(&dir).unwrap();
        let missing = dir.join("absent");
        assert_eq!(save_bench_record(&missing, "X", "{}", false, "unknown"), "");
        assert!(!missing.exists());
    }

    #[test]
    fn workload_budget_exhaustion_propagates_as_error() {
        // A 1-round budget cannot stabilize a non-trivial instance; the
        // helper must return Err instead of panicking.
        let g = GraphFamily::Gnp { avg_degree: 8.0 }.generate(64, 3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = RunConfig::new(5).with_max_rounds(1);
        assert!(runner::run(&g, &algo, config).is_err());
        // And measure_point surfaces a stabilization error rather than
        // aborting the whole experiment (exercised indirectly: the Ok path
        // is covered by report_covers_all_sections).
        let p = measure_point(&GraphFamily::Cycle, 64, 5, true, Workload::PointFault);
        assert!(p.is_ok());
    }
}
