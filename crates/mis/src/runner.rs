//! High-level "run to stabilization" API over the beeping simulator.
//!
//! Self-stabilization is always measured the way the paper defines it
//! (§1.1): start from an *arbitrary* configuration (or corrupt a running
//! one), count fault-free rounds until the stable set covers the graph
//! (`S_t = V`), at which point the configuration is a fixpoint and `I_t` is
//! an MIS.

use beeping::byzantine::ByzantinePlan;
use beeping::faults::FaultTarget;
use beeping::rng::aux_rng;
use beeping::trace::Trace;
use beeping::{BeepingProtocol, SimGraph};
use graphs::Graph;
use rand::Rng;
use rand_pcg::Pcg64Mcg;

use crate::algorithm1::Algorithm1;
use crate::algorithm2::Algorithm2;
use crate::levels::{Level, LevelSpace};
use crate::policy::LmaxPolicy;
use crate::recovery::stable_where;
use crate::resumable::{build_sim, Judge, PlanError, ResumableConfig, RunLoop, RunStatus};

/// Purpose tag of the initial-configuration RNG stream.
pub(crate) const INIT_RNG_PURPOSE: u64 = 0xC0FF_EE00;

/// How the (adversarial) initial configuration is chosen.
///
/// A self-stabilizing algorithm must converge from *every* initial
/// configuration; these variants cover the interesting corners plus uniform
/// random.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitialLevels {
    /// Each level uniform over the node's full state space — the canonical
    /// "arbitrary RAM contents".
    Random,
    /// Every vertex at its `ℓmax` (everyone silent, "not in MIS"): the
    /// slowest-to-wake corner.
    AllMax,
    /// Every vertex claims MIS membership (`-ℓmax` for Algorithm 1, `0` for
    /// Algorithm 2): maximal inconsistency.
    AllClaiming,
    /// Every vertex at `ℓ = 1` (beep probability ½) — the analogue of the
    /// Jeavons–Scott–Xu clean start `p₁(v) = ½`.
    AllOne,
    /// Explicit raw values, clamped into each node's state space.
    Custom(Vec<i64>),
}

impl InitialLevels {
    fn sample(&self, policy: &LmaxPolicy, space: LevelSpace, rng: &mut Pcg64Mcg) -> Vec<Level> {
        policy
            .lmax_values()
            .iter()
            .enumerate()
            .map(|(v, &lmax)| match self {
                InitialLevels::Random => {
                    let (low, high) = space.bounds(lmax);
                    space.clamp(rng.gen_range(low..=high), lmax)
                }
                InitialLevels::AllMax => lmax,
                InitialLevels::AllClaiming => space.claiming(lmax),
                InitialLevels::AllOne => 1,
                InitialLevels::Custom(values) => space.clamp(values[v], lmax),
            })
            .collect()
    }
}

/// Configuration of a stabilization run: the crate's one config type (see
/// [`ResumableConfig`]).
pub type RunConfig = ResumableConfig;

/// The result of a run that its [`Judge`] stopped within budget.
#[derive(Debug, Clone)]
pub struct Outcome<S = Level> {
    /// The computed maximal independent set (the judge's answer set).
    pub mis: Vec<bool>,
    /// Final per-node states: levels, for the paper's algorithms.
    pub levels: Vec<S>,
    /// First round at which `S_t = V` held **after the last scheduled
    /// fault** (the paper's stabilization time: fault-free rounds from the
    /// last corruption; equals total rounds when no faults are scheduled).
    pub stabilization_round: u64,
    /// Total rounds executed (`≥ stabilization_round` when faults delayed
    /// measurement).
    pub rounds_run: u64,
    /// Per-round beep activity.
    pub trace: Trace,
    /// Level snapshots per round (entry `t` = levels *after* round `t+1`,
    /// before that boundary's faults), present for [`run_with_history`]. The
    /// initial configuration is prepended as entry 0.
    pub level_history: Option<Vec<Vec<S>>>,
}

/// The round budget ran out before stabilization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilizationError {
    /// The exhausted budget.
    pub max_rounds: u64,
    /// How many active vertices were in the answer set or adjacent to a
    /// member when the budget ran out: for the paper's algorithms `S_t`,
    /// the final round event's `stable` field.
    pub stable_count: usize,
    /// Graph size, for context.
    pub n: usize,
}

impl std::fmt::Display for StabilizationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "not stabilized after {} rounds ({}/{} vertices stable)",
            self.max_rounds, self.stable_count, self.n
        )
    }
}

impl std::error::Error for StabilizationError {}

/// Why [`run`], [`run_recovery`] or [`run_from`] produced no outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A schedule in the configuration is invalid for the graph.
    Plan(PlanError),
    /// The round budget ran out before stabilization.
    Budget(StabilizationError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Plan(e) => e.fmt(f),
            RunError::Budget(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

impl From<PlanError> for RunError {
    fn from(e: PlanError) -> RunError {
        RunError::Plan(e)
    }
}

impl From<StabilizationError> for RunError {
    fn from(e: StabilizationError) -> RunError {
        RunError::Budget(e)
    }
}

/// The result of a run: its [`Outcome`], or why it has none.
pub type RunResult<S = Level> = Result<Outcome<S>, RunError>;

/// Shared behavior of the paper's two self-stabilizing protocols, enabling
/// experiment code generic over the algorithm variant. The two differ only
/// in their [`LevelSpace`]; stability is judged for both by the one
/// full-sweep definition in [`crate::recovery`].
///
/// This trait is sealed in spirit: it is implemented by [`Algorithm1`] and
/// [`Algorithm2`] and not intended for downstream implementations.
pub trait SelfStabilizingMis: BeepingProtocol<State = Level> + Clone + 'static {
    /// The protocol's level state space. A constant, so the claiming level
    /// folds into the stable-set tracker's per-node class computation.
    const SPACE: LevelSpace;

    /// The knowledge policy in use.
    fn policy(&self) -> &LmaxPolicy;
}

impl SelfStabilizingMis for Algorithm1 {
    const SPACE: LevelSpace = LevelSpace::Signed;

    fn policy(&self) -> &LmaxPolicy {
        Algorithm1::policy(self)
    }
}

impl SelfStabilizingMis for Algorithm2 {
    const SPACE: LevelSpace = LevelSpace::NonNegative;

    fn policy(&self) -> &LmaxPolicy {
        Algorithm2::policy(self)
    }
}

/// Samples the initial configuration for `algo` under `config`.
pub fn initial_levels<A: SelfStabilizingMis>(algo: &A, config: &RunConfig) -> Vec<Level> {
    let mut rng = aux_rng(config.seed, INIT_RNG_PURPOSE);
    config.init.sample(algo.policy(), A::SPACE, &mut rng)
}

/// Runs `algo` on `graph` until stabilization, honoring the fault schedule.
///
/// # Errors
///
/// [`RunError::Plan`] if a schedule in `config` is invalid for this graph
/// (explicit node id out of range, `RandomCount` above `n`, fraction
/// outside `[0, 1]`, …); [`RunError::Budget`] if `config.max_rounds`
/// rounds elapse without reaching `S_t = V` after the last fault.
pub fn run<A: SelfStabilizingMis>(graph: &Graph, algo: &A, config: RunConfig) -> RunResult {
    run_recorded(graph, algo, config, false)
}

/// [`run`] that also records the level history
/// ([`Outcome::level_history`]): one full snapshot per round, so for
/// lemma-level experiments on small graphs only.
///
/// # Errors
///
/// As [`run`].
pub fn run_with_history<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    config: RunConfig,
) -> RunResult {
    run_recorded(graph, algo, config, true)
}

fn run_recorded<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    config: RunConfig,
    record_levels: bool,
) -> RunResult {
    let max_rounds = config.max_rounds;
    let mut run = RunLoop::start(SimGraph::Borrowed(graph), algo, config, "runner")?;
    let mut history = record_levels.then(|| vec![run.levels().to_vec()]);
    while run.tick() == RunStatus::Running {
        if let Some(h) = &mut history {
            h.push(run.levels().to_vec());
        }
    }
    finished(&run, max_rounds, history)
}

/// Runs `algo` — a baseline or [`crate::adaptive::AdaptiveMis`] — on
/// `graph` from the explicit initial `states` (one per node) until its
/// [`Judge`] stops it: the loop of [`run`], without events or telemetry.
///
/// # Errors
///
/// [`RunError::Budget`] if `max_rounds` rounds elapse first.
pub fn run_from<P: Judge>(
    graph: &Graph,
    algo: &P,
    states: Vec<P::State>,
    seed: u64,
    max_rounds: u64,
) -> RunResult<P::State> {
    let config = RunConfig::new(seed).with_max_rounds(max_rounds);
    let sim = build_sim(SimGraph::Borrowed(graph), algo, &config, states, ByzantinePlan::new());
    let mut run = RunLoop::assemble(sim, algo, config, None);
    while run.advance() == RunStatus::Running {}
    finished(&run, max_rounds, None)
}

/// The typed result of a finished run.
fn finished<P: Judge>(
    run: &RunLoop<'_, P>,
    max_rounds: u64,
    level_history: Option<Vec<Vec<P::State>>>,
) -> RunResult<P::State> {
    if run.status() != RunStatus::Stabilized {
        return Err(budget_error(run, max_rounds).into());
    }
    Ok(Outcome {
        mis: P::members(run),
        levels: run.levels().to_vec(),
        stabilization_round: run.round().saturating_sub(run.last_event_round()),
        rounds_run: run.round(),
        trace: run.trace().clone(),
        level_history,
    })
}

/// The error of a finished run whose `max_rounds` budget ran out.
fn budget_error<P: Judge>(run: &RunLoop<'_, P>, max_rounds: u64) -> StabilizationError {
    let (graph, active, members) = (run.graph(), run.active(), P::members(run));
    let stable_count = stable_where(graph, &members, |v| active[v]).filter(|&s| s).count();
    StabilizationError { max_rounds, stable_count, n: graph.len() }
}

/// A uniform draw over node `v`'s full state space — "arbitrary RAM
/// contents" for corruption or an adversarial fresh boot.
pub(crate) fn random_level<A: SelfStabilizingMis>(algo: &A, v: usize, rng: &mut Pcg64Mcg) -> Level {
    let lmax = algo.policy().lmax(v);
    let (low, high) = A::SPACE.bounds(lmax);
    A::SPACE.clamp(rng.gen_range(low..=high), lmax)
}

/// Outcome of a fault-recovery measurement ([`run_recovery`]).
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Rounds to the first stabilization (from the initial configuration).
    pub initial_stabilization: u64,
    /// Rounds from the fault back to stabilization.
    pub recovery_rounds: u64,
    /// How many nodes the fault corrupted.
    pub corrupted_nodes: usize,
    /// The final MIS.
    pub mis: Vec<bool>,
}

/// Measures recovery: run to stabilization, corrupt `target`, run to
/// stabilization again. This isolates the paper's headline property — the
/// stabilization time bound applies *again* after every transient fault.
///
/// # Errors
///
/// [`RunError::Plan`] if `target` is invalid for this graph (see
/// [`beeping::faults::FaultTarget::validate`]); [`RunError::Budget`] if
/// either phase exceeds `max_rounds`.
pub fn run_recovery<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    seed: u64,
    target: FaultTarget,
    max_rounds: u64,
) -> Result<RecoveryOutcome, RunError> {
    target.validate(graph.len()).map_err(PlanError::from)?;
    let config = RunConfig::new(seed).with_max_rounds(max_rounds);
    let mut run = RunLoop::start(SimGraph::Borrowed(graph), algo, config, "runner")?;
    if run.run_to_completion() != RunStatus::Stabilized {
        return Err(budget_error(&run, max_rounds).into());
    }
    let initial_stabilization = run.round();
    let corrupted_nodes = run.reopen_with_fault(&target, max_rounds);
    if run.run_to_completion() != RunStatus::Stabilized {
        return Err(budget_error(&run, max_rounds).into());
    }
    Ok(RecoveryOutcome {
        initial_stabilization,
        recovery_rounds: run.round() - initial_stabilization,
        corrupted_nodes,
        mis: A::members(&run),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use beeping::faults::FaultPlan;
    use beeping::EngineMode;
    use graphs::generators::{classic, random};

    #[test]
    fn run_produces_valid_mis_alg1() {
        let g = random::gnp(80, 0.08, 2);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        for init in [
            InitialLevels::Random,
            InitialLevels::AllMax,
            InitialLevels::AllClaiming,
            InitialLevels::AllOne,
        ] {
            let outcome =
                algo.run(&g, RunConfig::new(3).with_init(init.clone())).expect("stabilizes");
            assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis), "init {init:?}");
            assert!(outcome.stabilization_round > 0);
            assert_eq!(outcome.rounds_run, outcome.stabilization_round);
            assert_eq!(outcome.trace.len() as u64, outcome.rounds_run);
        }
    }

    #[test]
    fn run_produces_valid_mis_alg2() {
        let g = random::gnp(80, 0.08, 2);
        let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
        let outcome = algo.run(&g, RunConfig::new(3)).expect("stabilizes");
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    }

    #[test]
    fn deterministic_outcomes() {
        let g = random::gnp(50, 0.1, 1);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let a = algo.run(&g, RunConfig::new(9)).unwrap();
        let b = algo.run(&g, RunConfig::new(9)).unwrap();
        assert_eq!(a.mis, b.mis);
        assert_eq!(a.stabilization_round, b.stabilization_round);
        let c = algo.run(&g, RunConfig::new(10)).unwrap();
        // Different seed will almost surely differ in timing.
        assert!(c.stabilization_round != a.stabilization_round || c.mis != a.mis);
    }

    #[test]
    fn custom_initial_levels_are_clamped() {
        let g = classic::path(3);
        let algo = Algorithm1::new(&g, LmaxPolicy::fixed(3, 5));
        let config = RunConfig::new(0).with_init(InitialLevels::Custom(vec![100, -100, 0]));
        let levels = initial_levels(&algo, &config);
        assert_eq!(levels, vec![5, -5, 0]);
        let algo2 = Algorithm2::new(&g, LmaxPolicy::fixed(3, 5));
        let levels2 = initial_levels(&algo2, &config);
        assert_eq!(levels2, vec![5, 0, 0]);
    }

    #[test]
    fn budget_exhaustion_reports_error() {
        let g = random::gnp(60, 0.2, 4);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let err = algo.run(&g, RunConfig::new(1).with_max_rounds(1)).unwrap_err();
        let RunError::Budget(err) = err else { panic!("expected a budget error, got {err}") };
        assert_eq!(err.max_rounds, 1);
        assert_eq!(err.n, 60);
        assert!(err.to_string().contains("not stabilized"));
    }

    #[test]
    fn budget_error_counts_stable_vertices_of_the_algorithm() {
        // Algorithm 2 claims at level 0, not -ℓmax: the stable count must
        // use the algorithm's own semantics.
        let g = random::gnp(60, 0.2, 4);
        let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
        for (budget, expected) in [(5, 44), (10, 51)] {
            let err = algo.run(&g, RunConfig::new(1).with_max_rounds(budget)).unwrap_err();
            let RunError::Budget(err) = err else { panic!("expected a budget error, got {err}") };
            let mut run = crate::resumable::ResumableRun::new(
                &g,
                &algo,
                RunConfig::new(1).with_max_rounds(budget),
            )
            .unwrap();
            run.run_to_completion();
            let oracle = crate::recovery::claimed_mis(&algo, &g, run.levels(), &[true; 60]);
            let oracle = crate::recovery::stable_where(&g, &oracle, |_| true).filter(|&s| s);
            assert_eq!(err.stable_count, oracle.count(), "budget {budget}");
            assert_eq!(err.stable_count, expected, "budget {budget}");
            assert!(err.to_string().contains(&format!("({expected}/60 vertices stable)")));
        }
    }

    #[test]
    fn faults_delay_measurement_but_still_stabilize() {
        let g = random::gnp(40, 0.1, 5);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let faults = FaultPlan::new().with_fault(30, FaultTarget::All);
        let outcome =
            algo.run(&g, RunConfig::new(5).with_faults(faults)).expect("stabilizes after fault");
        assert!(outcome.rounds_run >= 30);
        assert_eq!(outcome.stabilization_round, outcome.rounds_run - 30);
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    }

    #[test]
    fn fault_at_round_zero_counts_every_round_as_fault_free() {
        // A fault "after round 0" corrupts the initial configuration before
        // any step runs; stabilization time is then counted from round 0,
        // i.e. every executed round is fault-free and
        // `stabilization_round == rounds_run`, exactly as in a no-fault run.
        let g = random::gnp(40, 0.1, 5);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let faults = FaultPlan::new().with_fault(0, FaultTarget::All);
        let outcome = algo.run(&g, RunConfig::new(5).with_faults(faults)).expect("stabilizes");
        assert_eq!(outcome.stabilization_round, outcome.rounds_run);
        assert!(outcome.stabilization_round > 0);
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    }

    #[test]
    fn fault_at_final_round_is_measured_after_corruption() {
        // Schedule a second fault at the exact round where the first
        // recovery would otherwise complete. The runner must apply the
        // corruption *before* the stabilization check of that round, so the
        // count restarts: `stabilization_round == rounds_run - last_fault`.
        let g = random::gnp(40, 0.1, 5);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let first = algo
            .run(
                &g,
                RunConfig::new(5).with_faults(FaultPlan::new().with_fault(30, FaultTarget::All)),
            )
            .expect("stabilizes");
        let landing = first.rounds_run;
        let faults =
            FaultPlan::new().with_fault(30, FaultTarget::All).with_fault(landing, FaultTarget::All);
        let outcome = algo
            .run(&g, RunConfig::new(5).with_faults(faults))
            .expect("stabilizes after the final-round fault");
        assert!(outcome.rounds_run >= landing);
        assert_eq!(outcome.stabilization_round, outcome.rounds_run - landing);
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    }

    #[test]
    fn engines_agree_on_stabilization() {
        // The scatter engine is bit-identical to the scalar reference, so a
        // full stabilization run must agree in every observable.
        let g = random::gnp(60, 0.08, 11);
        for seed in [1u64, 2, 3] {
            let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
            let scalar = algo
                .run(&g, RunConfig::new(seed).with_engine(EngineMode::Scalar))
                .expect("stabilizes");
            let scatter = algo
                .run(&g, RunConfig::new(seed).with_engine(EngineMode::Scatter))
                .expect("stabilizes");
            assert_eq!(scalar.mis, scatter.mis);
            assert_eq!(scalar.levels, scatter.levels);
            assert_eq!(scalar.stabilization_round, scatter.stabilization_round);
            assert_eq!(scalar.rounds_run, scatter.rounds_run);
            assert_eq!(scalar.trace.reports(), scatter.trace.reports());
        }
    }

    #[test]
    fn level_history_recording() {
        let g = classic::cycle(10);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let outcome = run_with_history(&g, &algo, RunConfig::new(2)).expect("stabilizes");
        let history = outcome.level_history.expect("recording was enabled");
        assert_eq!(history.len() as u64, outcome.rounds_run + 1);
        assert_eq!(history.last().unwrap(), &outcome.levels);
    }

    #[test]
    fn recovery_measurement() {
        let g = random::gnp(50, 0.1, 6);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let rec = run_recovery(&g, &algo, 6, FaultTarget::RandomFraction(0.5), 100_000)
            .expect("recovers");
        assert!(rec.initial_stabilization > 0);
        assert!(rec.recovery_rounds > 0);
        assert!(rec.corrupted_nodes > 0);
        assert!(graphs::mis::is_maximal_independent_set(&g, &rec.mis));
    }

    #[test]
    fn recovery_for_two_channel() {
        let g = random::gnp(50, 0.1, 6);
        let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
        let rec = run_recovery(&g, &algo, 6, FaultTarget::All, 100_000).expect("recovers");
        assert_eq!(rec.corrupted_nodes, 50);
        assert!(graphs::mis::is_maximal_independent_set(&g, &rec.mis));
    }

    #[test]
    fn out_of_range_fault_node_is_a_plan_error() {
        let g = classic::path(3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let faults = FaultPlan::new().with_fault(1, FaultTarget::Nodes(vec![9]));
        let err = run(&g, &algo, RunConfig::new(0).with_faults(faults)).unwrap_err();
        assert!(matches!(err, RunError::Plan(PlanError::Fault(_))), "{err}");
        let err = run_recovery(&g, &algo, 0, FaultTarget::Nodes(vec![9]), 100).unwrap_err();
        assert!(matches!(err, RunError::Plan(PlanError::Fault(_))), "{err}");
    }
}
