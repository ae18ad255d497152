//! Differential test of the run loop's incremental stable-set tracker.
//!
//! Every run entry point answers "is `S_t = V`?", the round event's
//! `in_mis`/`stable` sizes and the outcome's MIS from one incremental
//! tracker that re-judges only the 2-hop balls of the nodes that changed.
//! This suite holds it to the full-sweep oracles of `mis::recovery` through
//! the public API alone: a `ResumableRun` driven tick by tick across graph
//! families, all four engines, both algorithms, RAM faults, churn,
//! Byzantine nodes and motion. Each case runs twice: with a `MemorySink`,
//! whose round events refresh the tracker every round, and with telemetry
//! off, where the stopping rule skips the refresh while some active node is
//! off its extreme levels. Release builds have no debug cross-check, so the
//! second arm is what checks that gate in the shipped code.

use beeping::byzantine::{ByzantineBehavior, ByzantinePlan};
use beeping::churn::{ChurnAction, ChurnPlan};
use beeping::dynamic::MotionSpec;
use beeping::faults::{FaultPlan, FaultTarget};
use beeping::EngineMode;
use graphs::generators::geometric::radius_for_expected_degree;
use graphs::generators::GraphFamily;
use graphs::motion::MotionModel;
use graphs::Graph;
use mis::levels::Level;
use mis::recovery::{claimed_mis, stabilized_active};
use mis::resumable::{ResumableConfig, ResumableRun, RunStatus};
use mis::runner::SelfStabilizingMis;
use mis::{Algorithm1, Algorithm2, LmaxPolicy};
use proptest::prelude::*;
use telemetry::{Config, MemorySink, Telemetry};

const FAMILIES: [GraphFamily; 7] = [
    GraphFamily::Path,
    GraphFamily::Cycle,
    GraphFamily::Grid,
    GraphFamily::Gnp { avg_degree: 5.0 },
    GraphFamily::Geometric { avg_degree: 6.0 },
    GraphFamily::BarabasiAlbert { m: 2 },
    GraphFamily::StarOfCliques { clique: 4 },
];

const ENGINES: [EngineMode; 4] = [
    EngineMode::Scalar,
    EngineMode::Scatter,
    EngineMode::Frontier,
    EngineMode::ParScatter { threads: 2 },
];

/// One generated execution: topology, engine, algorithm and every
/// disturbance axis.
#[derive(Debug, Clone)]
struct Case {
    family: usize,
    n: usize,
    seed: u64,
    engine: usize,
    two_channel: bool,
    /// `(after_round, fraction)` RAM faults.
    faults: Vec<(u64, f64)>,
    /// `(after_round, kind, a, b)` churn events; node ids are reduced mod n.
    churn: Vec<(u64, u8, usize, usize)>,
    /// A babbling Byzantine node (id reduced mod n).
    byzantine: Option<usize>,
    /// A moving deployment's speed (the family is then ignored).
    motion: Option<f64>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (0..FAMILIES.len(), 12usize..140, any::<u64>(), 0..ENGINES.len(), any::<bool>()),
        proptest::collection::vec((0u64..40, 0.05f64..0.6), 0..3),
        proptest::collection::vec((0u64..60, 0u8..4, any::<usize>(), any::<usize>()), 0..4),
        (0u8..4, any::<usize>()),
        (0u8..4, 0.005f64..0.05),
    )
        .prop_map(|((family, n, seed, engine, two_channel), faults, churn, byz, motion)| {
            // Each of the two rarer axes is on in a quarter of the cases.
            let byzantine = (byz.0 == 0).then_some(byz.1);
            let motion = (motion.0 == 0).then_some(motion.1);
            Case { family, n, seed, engine, two_channel, faults, churn, byzantine, motion }
        })
}

impl Case {
    fn graph(&self) -> (Graph, Option<MotionSpec>) {
        match self.motion {
            Some(speed) => {
                let model = MotionModel::RandomWaypoint { speed, pause: 1 };
                let spec =
                    MotionSpec::new(self.seed, radius_for_expected_degree(self.n, 5.0), model);
                (spec.initial_graph(self.n), Some(spec))
            }
            None => (FAMILIES[self.family].generate(self.n, self.seed), None),
        }
    }

    fn config(&self, n: usize, motion: Option<MotionSpec>) -> ResumableConfig {
        let mut faults = FaultPlan::new();
        for &(round, fraction) in &self.faults {
            faults = faults.with_fault(round, FaultTarget::RandomFraction(fraction));
        }
        let mut churn = ChurnPlan::new();
        for &(round, kind, a, b) in &self.churn {
            let (a, b) = (a % n, b % n);
            let action = match kind {
                // A moving deployment owns the edge set: node events only.
                0 | 1 if motion.is_some() => ChurnAction::NodeLeave(a),
                0 if a != b => ChurnAction::AddEdge(a, b),
                1 if a != b => ChurnAction::RemoveEdge(a, b),
                2 => ChurnAction::NodeLeave(a),
                _ => ChurnAction::NodeJoin(a, if a != b { vec![b] } else { vec![] }),
            };
            churn = churn.with_event(round, action);
        }
        let mut config = ResumableConfig::new(self.seed)
            .with_max_rounds(250)
            .with_engine(ENGINES[self.engine])
            .with_faults(faults)
            .with_churn(churn);
        if let Some(v) = self.byzantine {
            config = config.with_byzantine(
                ByzantinePlan::new().with_behavior(v % n, ByzantineBehavior::Babbler(0.2)),
            );
        }
        if let Some(spec) = motion {
            config = config.with_motion(spec);
        }
        config
    }
}

/// The full-sweep `(|I_t|, active nodes in S_t)` of a configuration.
fn sweep_counts<A: SelfStabilizingMis>(
    algo: &A,
    graph: &Graph,
    levels: &[Level],
    active: &[bool],
) -> (u64, u64) {
    let in_mis = claimed_mis(algo, graph, levels, active);
    let stable = graph
        .nodes()
        .filter(|&v| {
            active[v] && (in_mis[v] || graph.neighbors(v).iter().any(|&u| in_mis[u as usize]))
        })
        .count();
    (in_mis.iter().filter(|&&m| m).count() as u64, stable as u64)
}

/// Ticks the run to completion, checking the tracker-backed observables
/// against the oracles after every tick; with `observed`, through a
/// `MemorySink` whose round events are checked too.
fn check_run<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    config: ResumableConfig,
    observed: bool,
) -> Result<(), TestCaseError> {
    let last_event = config
        .faults
        .last_fault_round()
        .unwrap_or(0)
        .max(config.churn.last_event_round().unwrap_or(0));
    let moving = config.motion.is_some();
    let (config, handle) = if observed {
        let tele = Telemetry::enabled(Config::default());
        let (sink, handle) = MemorySink::new();
        tele.add_sink(Box::new(sink));
        (config.with_telemetry(tele), Some(handle))
    } else {
        (config, None)
    };
    let mut run =
        ResumableRun::new(graph, algo, config).map_err(|e| TestCaseError::fail(e.to_string()))?;
    loop {
        let before = run.round();
        // Past the last event and without motion, the tick judges exactly
        // the configuration it starts from.
        let quiet = !moving && before > last_event;
        let oracle_before = stabilized_active(algo, run.graph(), run.levels(), run.active());
        let status = run.tick();
        let (g, levels, active) = (run.graph(), run.levels(), run.active());
        let oracle = stabilized_active(algo, g, levels, active);
        match status {
            RunStatus::Stabilized => {
                prop_assert!(oracle, "stopped unstabilized at round {}", run.round());
                prop_assert!(run.round() >= last_event);
            }
            RunStatus::BudgetExhausted => {
                // No step ran: the current configuration was the judged one.
                prop_assert!(!oracle || run.round() < last_event);
            }
            RunStatus::Running => {
                prop_assert_eq!(run.round(), before + 1);
                if quiet {
                    prop_assert!(!oracle_before, "missed stabilization at round {}", before);
                }
                if let Some(handle) = &handle {
                    let last = handle.rounds().pop().expect("a round event per step");
                    prop_assert_eq!(last.round, run.round());
                    let (in_mis, stable) = sweep_counts(algo, g, levels, active);
                    prop_assert_eq!(last.in_mis, Some(in_mis), "in_mis at round {}", run.round());
                    prop_assert_eq!(last.stable, Some(stable), "stable at round {}", run.round());
                }
            }
        }
        if status != RunStatus::Running {
            let outcome = run.outcome().expect("finished");
            prop_assert_eq!(outcome.mis, claimed_mis(algo, g, levels, active));
            return Ok(());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tracker_matches_full_sweeps(case in arb_case()) {
        let (graph, motion) = case.graph();
        let config = case.config(graph.len(), motion);
        for observed in [true, false] {
            let config = config.clone();
            if case.two_channel {
                let algo = Algorithm2::new(&graph, LmaxPolicy::two_hop_degree(&graph));
                check_run(&graph, &algo, config, observed)?;
            } else {
                let algo = Algorithm1::new(&graph, LmaxPolicy::global_delta(&graph));
                check_run(&graph, &algo, config, observed)?;
            }
        }
    }
}
