//! Experiment `MOB` — stabilization and containment under sustained motion.
//!
//! *Claim under test*: the paper's guarantees are proved for a static
//! topology. On a *moving* geometric deployment ([`beeping::dynamic`]) the
//! edge set changes every round, so classic stabilization ("reach a valid
//! MIS and stay there") is unattainable; the operative questions become
//! (1) how quickly the protocol reaches a configuration that is a valid
//! MIS *on the current graph* as motion speed grows, and (2) whether
//! Byzantine disruption stays contained when the adversary's neighborhood
//! is itself in flux.
//!
//! *Measurements*:
//!
//! 1. **Stabilization vs speed** — random-waypoint and drift deployments
//!    across a speed grid; fraction of seeds reaching an instantaneously
//!    valid MIS within budget and the mean round of first validity.
//! 2. **Containment under motion** — one stuck-beep Byzantine node at the
//!    densest initial site; fraction of seeds certified stable outside
//!    radius 2 of the (moving) adversary, with hop distances recomputed on
//!    the current graph every round, plus the worst final disruption
//!    radius.
//! 3. **Determinism digests** — the same moving run executed under the
//!    scalar, scatter, and frontier engines, and with telemetry attached,
//!    must produce one digest; these are the PR's bit-identity acceptance
//!    criteria asserted inside the experiment on every run.
//!
//! Measurement helpers return [`MobError`] instead of panicking on an
//! invalid plan or an unfinished run; the report skips the affected cell
//! with a `warning:` line, mirroring `PERF`'s error handling.
//!
//! *Expected shape*: zero speed reproduces the static behavior exactly.
//! For nonzero speed the governing quantity is the *aggregate* edge-event
//! rate (≈ n · speed / radius) relative to the recovery time: on small
//! deployments (the `--quick` profile, n = 48) slow motion delays first
//! validity without preventing it and fast motion makes validity instants
//! vanish, while at the full profile's n = 256 even the slowest nonzero
//! speed keeps some edge event perpetually in flight, so *global*
//! instantaneous validity is a small-deployment phenomenon — at scale the
//! meaningful target is per-neighborhood validity. All three digests agree
//! in every profile.

use std::fmt::Write as _;

use beeping::byzantine::{ByzantineBehavior, ByzantinePlan};
use beeping::dynamic::MotionSpec;
use beeping::EngineMode;
use graphs::generators::geometric::radius_for_expected_degree;
use graphs::motion::MotionModel;
use graphs::Graph;
use mis::containment::{byz_distances, disruption_radius, stabilized_except};
use mis::resumable::{PlanError, ResumableConfig, ResumableRun, RunStatus};
use mis::runner::SelfStabilizingMis;
use mis::{Algorithm1, LmaxPolicy};
use telemetry::Telemetry;

use crate::resilience::outcome_digest;

/// The certified containment radius of the motion table (matches the
/// static `BYZ` experiment's bound).
pub const RADIUS: usize = 2;

/// Why a motion measurement could not be taken. Mirrors `PERF`'s
/// [`mis::runner::RunError`] pattern: measurement helpers return
/// `Result` and the report skips the affected cell with a warning line
/// instead of panicking mid-experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum MobError {
    /// The run's motion/fault plans were rejected by the resumable runner.
    Plan(PlanError),
    /// The run ended while still `Running`, so there is no outcome to
    /// digest (a budget/supervision misconfiguration, not a protocol
    /// behavior).
    Unfinished,
}

impl std::fmt::Display for MobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MobError::Plan(e) => write!(f, "{e}"),
            MobError::Unfinished => write!(f, "run ended without leaving the Running state"),
        }
    }
}

impl std::error::Error for MobError {}

impl From<PlanError> for MobError {
    fn from(e: PlanError) -> MobError {
        MobError::Plan(e)
    }
}

/// The motion models of the sweep at a given speed.
pub fn models(speed: f64) -> Vec<MotionModel> {
    vec![MotionModel::RandomWaypoint { speed, pause: 2 }, MotionModel::Drift { speed, turn: 0.3 }]
}

/// The speed grid (unit-square distance per round). The interesting
/// transition sits where a node needs hundreds of rounds to cross its
/// communication radius — comparable to the recovery time after each edge
/// flip; much faster motion outpaces stabilization entirely. Where on this
/// grid the transition lands depends on deployment size: the aggregate
/// edge-event rate grows with `n`, so the quick profile (n = 48) crosses
/// it mid-grid while the full profile (n = 256) sits past it at every
/// nonzero speed.
pub fn speeds() -> Vec<f64> {
    vec![0.0, 0.0005, 0.002, 0.01]
}

fn max_degree_node(g: &Graph) -> usize {
    g.nodes().max_by_key(|&v| g.neighbors(v).len()).unwrap_or(0)
}

/// First round at which the run's configuration is a valid MIS on the
/// *current* graph outside `radius` hops of `placement` (empty placement
/// degenerates to plain instantaneous validity), or `None` on budget
/// exhaustion; paired with the disruption radius at the stopping point.
fn first_valid_round<A: SelfStabilizingMis>(
    g: &Graph,
    algo: &A,
    config: ResumableConfig,
    placement: &[usize],
    radius: usize,
) -> Result<(Option<u64>, usize), MobError> {
    let mut run = ResumableRun::new(g, algo, config)?;
    loop {
        let status = run.tick();
        let current = run.graph();
        let dist = byz_distances(current, placement);
        if stabilized_except(algo, current, run.levels(), run.active(), &dist, radius) {
            let final_radius =
                disruption_radius(algo, current, run.levels(), run.active(), placement);
            return Ok((Some(run.round()), final_radius));
        }
        if status != RunStatus::Running {
            let final_radius =
                disruption_radius(algo, run.graph(), run.levels(), run.active(), placement);
            return Ok((None, final_radius));
        }
    }
}

#[derive(Debug)]
struct Cell {
    ok: usize,
    rounds: Vec<u64>,
    worst_radius: usize,
}

fn measure_cell<A: SelfStabilizingMis>(
    g: &Graph,
    algo: &A,
    spec: MotionSpec,
    placement: &[usize],
    seeds: u64,
    budget: u64,
    radius: usize,
) -> Result<Cell, MobError> {
    let mut cell = Cell { ok: 0, rounds: Vec::new(), worst_radius: 0 };
    for seed in 0..seeds {
        let mut config = ResumableConfig::new(seed).with_max_rounds(budget).with_motion(spec);
        if !placement.is_empty() {
            let mut plan = ByzantinePlan::new();
            for &v in placement {
                plan.set_behavior(v, ByzantineBehavior::StuckBeep);
            }
            config = config.with_byzantine(plan);
        }
        let (round, final_radius) = first_valid_round(g, algo, config, placement, radius)?;
        if let Some(r) = round {
            cell.ok += 1;
            cell.rounds.push(r);
        }
        cell.worst_radius = cell.worst_radius.max(final_radius);
    }
    Ok(cell)
}

fn cell_row(cell: &Cell, seeds: u64) -> [String; 3] {
    let mean = if cell.rounds.is_empty() {
        "-".to_string()
    } else {
        format!("{:.1}", analysis::Summary::of_counts(cell.rounds.iter().copied()).mean)
    };
    let radius = if cell.worst_radius == usize::MAX {
        "∞".to_string()
    } else {
        cell.worst_radius.to_string()
    };
    [format!("{}/{seeds}", cell.ok), mean, radius]
}

/// One full moving run for the digest section, optionally streamed into
/// `tele`. Telemetry is observational, so the digest must not change.
fn digest_run(
    g: &Graph,
    algo: &Algorithm1,
    spec: MotionSpec,
    engine: EngineMode,
    budget: u64,
    tele: &Telemetry,
) -> Result<u64, MobError> {
    let mut config =
        ResumableConfig::new(0xD16E).with_max_rounds(budget).with_motion(spec).with_engine(engine);
    if tele.is_enabled() {
        config = config.with_telemetry(tele.clone());
    }
    let mut run = ResumableRun::new(g, algo, config)?;
    run.run_to_completion();
    match run.outcome() {
        Some(outcome) => Ok(outcome_digest(&outcome)),
        None => Err(MobError::Unfinished),
    }
}

/// Runs the experiment and returns the printed report.
pub fn run(quick: bool) -> String {
    run_with(quick, &Telemetry::disabled())
}

/// Telemetry-aware driver: the scalar leg of the digest section streams
/// into `tele` when enabled (round events plus `motion` markers); the
/// digests must agree with the un-streamed legs regardless.
pub fn run_with(quick: bool, tele: &Telemetry) -> String {
    let n = if quick { 48 } else { 256 };
    let seeds: u64 = if quick { 3 } else { 10 };
    let budget: u64 = if quick { 4_000 } else { 30_000 };
    let comm_radius = radius_for_expected_degree(n, 6.0);
    let points_seed = crate::common::graph_seed(0);
    let mut out =
        crate::common::header("MOB", "stabilization and containment under sustained motion");
    let _ = writeln!(
        out,
        "workload: n={n} uniform deployment (points seed {points_seed:#x}, radius {comm_radius:.4} \
         ≈ expected degree 6), {seeds} seeds, budget {budget} rounds; \"stabilized\" means the \
         configuration is a valid MIS on the *current* graph"
    );

    // Section 1: stabilization vs speed, both models, no adversary.
    out.push_str("\n## time to instantaneous validity vs motion speed (Algorithm 1)\n\n");
    let mut table = analysis::Table::new(["model", "speed", "stabilized", "mean round", "radius"]);
    let mut warnings = String::new();
    for speed in speeds() {
        for model in models(speed) {
            let spec = MotionSpec::new(points_seed, comm_radius, model);
            let g = spec.initial_graph(n);
            let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
            match measure_cell(&g, &algo, spec, &[], seeds, budget, RADIUS) {
                Ok(cell) => {
                    let [ok, mean, radius] = cell_row(&cell, seeds);
                    table.row([model.label().to_string(), format!("{speed}"), ok, mean, radius]);
                }
                Err(e) => {
                    let label = model.label();
                    let _ = writeln!(warnings, "warning: skipping ({label}, speed {speed}): {e}");
                }
            }
        }
    }
    out.push_str(&format!("{table}"));
    out.push_str(&warnings);

    // Section 2: containment while the adversary's neighborhood moves.
    out.push_str("\n## containment under motion (1 stuck beeper, random waypoint)\n\n");
    let mut table =
        analysis::Table::new(["speed", "contained", "mean round", "worst final radius"]);
    let mut warnings = String::new();
    for speed in speeds() {
        let spec = MotionSpec::new(
            points_seed,
            comm_radius,
            MotionModel::RandomWaypoint { speed, pause: 2 },
        );
        let g = spec.initial_graph(n);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let site = max_degree_node(&g);
        match measure_cell(&g, &algo, spec, &[site], seeds, budget, RADIUS) {
            Ok(cell) => {
                let [ok, mean, radius] = cell_row(&cell, seeds);
                table.row([format!("{speed}"), ok, mean, radius]);
            }
            Err(e) => {
                let _ = writeln!(warnings, "warning: skipping (containment, speed {speed}): {e}");
            }
        }
    }
    out.push_str(&format!("{table}"));
    out.push_str(&warnings);

    // Section 3: the PR's bit-identity acceptance criteria, asserted on
    // every run: scalar vs scatter vs frontier, and telemetry on vs off.
    out.push_str("\n## determinism digests (same seed, moving graph)\n\n");
    let spec = MotionSpec::new(
        points_seed,
        comm_radius,
        MotionModel::RandomWaypoint { speed: 0.02, pause: 2 },
    );
    let g = spec.initial_graph(n);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let digest_budget = budget.min(2_000);
    let disabled = Telemetry::disabled();
    let digests = (|| -> Result<[u64; 4], MobError> {
        let scalar = digest_run(&g, &algo, spec, EngineMode::Scalar, digest_budget, tele)?;
        let scatter = digest_run(&g, &algo, spec, EngineMode::Scatter, digest_budget, &disabled)?;
        let frontier = digest_run(&g, &algo, spec, EngineMode::Frontier, digest_budget, &disabled)?;
        let streamed = {
            let mem = Telemetry::enabled(telemetry::Config::default());
            let (sink, _handle) = telemetry::MemorySink::new();
            mem.add_sink(Box::new(sink));
            digest_run(&g, &algo, spec, EngineMode::Scalar, digest_budget, &mem)?
        };
        Ok([scalar, scatter, frontier, streamed])
    })();
    match digests {
        Ok([scalar, scatter, frontier, streamed]) => {
            assert_eq!(scalar, scatter, "scalar and scatter engines diverged on the moving graph");
            assert_eq!(scalar, frontier, "frontier engine diverged on the moving graph");
            assert_eq!(scalar, streamed, "attaching telemetry changed a moving run");
            let _ = writeln!(out, "scalar engine:       digest={scalar:016x}");
            let _ = writeln!(out, "scatter engine:      digest={scatter:016x}");
            let _ = writeln!(out, "frontier engine:     digest={frontier:016x}");
            let _ = writeln!(out, "telemetry attached:  digest={streamed:016x}");
            out.push_str("all four digests identical — engine and telemetry transparency hold.\n");
        }
        Err(e) => {
            let _ = writeln!(out, "warning: skipping determinism digests: {e}");
        }
    }
    if tele.is_enabled() {
        out.push_str("\ntelemetry: scalar digest leg streamed (round events + motion markers).\n");
    }

    out.push_str(
        "\nexpected shape: speed 0 matches the static protocol; whether validity instants occur \
         under motion is governed by the aggregate edge-event rate (~ n*speed/radius) relative \
         to recovery time — small deployments reach delayed validity at slow speeds, while at \
         n=256 even the slowest nonzero speed keeps some edge event in flight and global \
         instantaneous validity never occurs; digests agree.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{Config as TeleConfig, Event, MarkerKind, MemorySink};

    #[test]
    fn report_covers_all_sections() {
        let report = run(true);
        for section in [
            "time to instantaneous validity",
            "containment under motion",
            "determinism digests",
            "digests identical",
        ] {
            assert!(report.contains(section), "missing section {section}");
        }
        assert!(report.contains("rwp"));
        assert!(report.contains("drift"));
    }

    #[test]
    fn zero_speed_always_stabilizes() {
        // Speed 0 is the static protocol: every seed must reach validity.
        let comm_radius = radius_for_expected_degree(48, 6.0);
        let spec = MotionSpec::new(
            crate::common::graph_seed(0),
            comm_radius,
            MotionModel::RandomWaypoint { speed: 0.0, pause: 2 },
        );
        let g = spec.initial_graph(48);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let cell =
            measure_cell(&g, &algo, spec, &[], 3, 100_000, RADIUS).expect("static plans are valid");
        assert_eq!(cell.ok, 3);
        assert_eq!(cell.worst_radius, 0);
    }

    #[test]
    fn mismatched_deployment_is_an_error_not_a_panic() {
        // A graph that is not the spec's initial deployment must surface as
        // a typed plan error from the measurement helpers.
        let comm_radius = radius_for_expected_degree(32, 6.0);
        let spec = MotionSpec::new(
            crate::common::graph_seed(0),
            comm_radius,
            MotionModel::RandomWaypoint { speed: 0.01, pause: 2 },
        );
        let g = Graph::empty(32);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let err = digest_run(&g, &algo, spec, EngineMode::Scalar, 100, &Telemetry::disabled())
            .expect_err("an empty graph is not the spec's deployment");
        assert!(matches!(err, MobError::Plan(PlanError::Motion(_))), "got {err:?}");
        assert!(err.to_string().contains("invalid motion spec"));
        let err = measure_cell(&g, &algo, spec, &[], 1, 100, RADIUS)
            .expect_err("measure_cell must propagate the same error");
        assert!(matches!(err, MobError::Plan(PlanError::Motion(_))));
    }

    #[test]
    fn streamed_digest_leg_emits_motion_markers() {
        let comm_radius = radius_for_expected_degree(32, 6.0);
        let spec = MotionSpec::new(
            crate::common::graph_seed(0),
            comm_radius,
            MotionModel::RandomWaypoint { speed: 0.05, pause: 0 },
        );
        let g = spec.initial_graph(32);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let tele = Telemetry::enabled(TeleConfig::default());
        let (sink, handle) = MemorySink::new();
        tele.add_sink(Box::new(sink));
        let a = digest_run(&g, &algo, spec, EngineMode::Scalar, 300, &tele).unwrap();
        let b =
            digest_run(&g, &algo, spec, EngineMode::Scalar, 300, &Telemetry::disabled()).unwrap();
        assert_eq!(a, b, "telemetry must be observational");
        assert!(
            handle
                .events()
                .iter()
                .any(|e| matches!(e, Event::Marker(m) if m.kind == MarkerKind::Motion)),
            "a speed-0.05 run must emit motion markers"
        );
    }
}
