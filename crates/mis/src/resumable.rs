//! The one run loop of the workspace: a steppable, checkpointable state
//! machine that every run entry point of every beeping protocol drives.
//!
//! A [`RunLoop`] owns the only simulator a run builds. For the paper's
//! algorithms (what follows; see [`Judge`] for the others), at every round
//! boundary `r` it applies the scheduled faults (in schedule order), then
//! the scheduled churn, then — for a moving deployment
//! ([`ResumableConfig::with_motion`]) — one mobility step whose radius
//! graph the simulator adopts, each with its telemetry marker and
//! exactly once per boundary, even across a checkpoint/resume. It then
//! steps the simulator one round and emits that round's
//! [`telemetry::RoundEvent`]; it brackets the run with `RunStart` and
//! `RunEnd`; and it judges stability with one predicate,
//! [`crate::recovery::stabilized_active`] (active-aware, on the live
//! topology), which only counts once `r` has passed the last scheduled
//! event.
//!
//! One incremental tracker (`StableSet`, private to this crate) answers
//! that predicate, the round event's `in_mis` and `stable` sizes, the
//! outcome's MIS, the budget error's stable count and the per-round
//! observation of [`crate::recovery::run_noisy`]. A refresh diffs one class
//! byte per node against the live levels and active flags, over the 64-node
//! chunks the simulator touched since the previous refresh
//! ([`beeping::Simulator::touched`]), and re-judges only the 2-hop balls of
//! the nodes that changed. So a sparse Frontier round costs its touched
//! chunks plus the local work, and a full-sweep round O(n) sequential reads,
//! instead of an O(n + m) sweep;
//! after churn or motion edge events, or when the changed set is dense, it
//! re-judges every node. The stopping rule refreshes it only once every
//! active node sits at its claiming level or its ℓmax (the paper's
//! necessary condition for `S_t = V`); before that it answers `false` and
//! leaves the tracker stale. The round events refresh it every round, so
//! with telemetry enabled the rule always finds it fresh, and the number of
//! node judgments accumulates in the `check.rejudged` counter. The
//! full-sweep functions of [`crate::recovery`] remain the oracles it is
//! tested against; debug builds cross-check every stopping decision.
//!
//! The *stopping rule* belongs to the caller. [`RunLoop::tick`] is the
//! default one — stop when stabilized, or when the total round budget
//! [`ResumableConfig::max_rounds`] is spent — and is what
//! [`crate::runner::run`], [`crate::runner::run_recovery`], the resilient
//! harness (`crates/harness`) and the scenario search drive.
//! [`crate::recovery::run_noisy`] and
//! [`crate::containment::run_contained`] drive the same boundary, step and
//! bracket with their own rules: a per-segment budget, and a containment
//! radius after a burn-in.
//!
//! Under sustained motion the topology never quiesces, so "stabilized"
//! means the current configuration is a valid MIS *on the current graph* —
//! the instantaneous condition the MOB experiment measures.
//!
//! [`ResumableRun`] is the loop over an owned graph, so it can be stored
//! and resumed: a [`RunCheckpoint`] capturable between any two ticks holds
//! every bit of mutable run state — simulator checkpoint (states,
//! per-stream RNG positions, churned topology, participation bitmap,
//! channel window), the fault-stream RNG, the event-application cursor and
//! the accumulated trace. Resuming from a checkpoint and running to
//! completion is bit-identical to never having stopped (pinned by tests
//! here and by the crash-injection proptests in `crates/harness`). The
//! one-call entry points borrow the caller's graph instead.

use std::sync::Arc;

use beeping::byzantine::ByzantinePlan;
use beeping::channel::ChannelFault;
use beeping::churn::{ChurnAction, ChurnPlan};
use beeping::dynamic::{DynamicTopology, MotionSpec, MotionState};
use beeping::faults::{FaultPlan, FaultTarget};
use beeping::rng::aux_rng;
use beeping::trace::{RoundReport, Trace};
use beeping::{
    BeepingProtocol, ByzantineError, Checkpoint, ChurnError, EngineMode, FaultError, RestoreError,
    SimGraph, Simulator,
};
use graphs::Graph;
use rand_pcg::Pcg64Mcg;
use telemetry::{Event, Marker, MarkerKind, RoundEvent, Telemetry};

use crate::levels::Level;
use crate::recovery::{apply_churn, stabilized_active, Disturbance};
use crate::runner::{initial_levels, random_level, InitialLevels, SelfStabilizingMis};
use crate::stable_set::{has_off_extreme, StableSet};

/// Purpose tag of the fault-injection RNG stream (see
/// [`beeping::rng::aux_rng`]), shared by corruptions and churn boot levels.
const FAULT_RNG_PURPOSE: u64 = 0xFA17;

/// Why a run configuration is invalid for its graph. The constructors check
/// every plan up front so the round loop applies events infallibly.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The fault schedule is invalid (see [`beeping::faults::FaultError`]).
    Fault(FaultError),
    /// The churn schedule is invalid (see [`beeping::churn::ChurnError`]).
    Churn(ChurnError),
    /// The Byzantine plan is invalid (see
    /// [`beeping::byzantine::ByzantineError`]).
    Byzantine(ByzantineError),
    /// The channel model is invalid (see
    /// [`beeping::channel::ChannelFault::validate`]).
    Channel(String),
    /// The motion spec is invalid, the supplied graph is not the spec's
    /// initial deployment (see [`beeping::dynamic::MotionSpec`]), or the
    /// churn plan edits an edge of the moving deployment.
    Motion(String),
    /// A per-node input does not have one entry per node: the algorithm's
    /// `ℓmax` policy or an [`InitialLevels::Custom`] configuration.
    Size {
        /// The wrongly sized input.
        what: &'static str,
        /// Its number of entries.
        len: usize,
        /// The graph's node count.
        n: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Fault(e) => write!(f, "invalid fault plan: {e}"),
            PlanError::Churn(e) => write!(f, "invalid churn plan: {e}"),
            PlanError::Byzantine(e) => write!(f, "invalid byzantine plan: {e}"),
            PlanError::Channel(msg) => write!(f, "invalid channel: {msg}"),
            PlanError::Motion(msg) => write!(f, "invalid motion spec: {msg}"),
            PlanError::Size { what, len, n } => {
                write!(f, "{what} has {len} entries for a {n}-node graph")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<FaultError> for PlanError {
    fn from(e: FaultError) -> PlanError {
        PlanError::Fault(e)
    }
}

impl From<ChurnError> for PlanError {
    fn from(e: ChurnError) -> PlanError {
        PlanError::Churn(e)
    }
}

impl From<ByzantineError> for PlanError {
    fn from(e: ByzantineError) -> PlanError {
        PlanError::Byzantine(e)
    }
}

/// Why a [`RunCheckpoint`] could not be turned back into a live run.
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeError {
    /// The configuration's plans are invalid for the checkpointed graph.
    Plan(PlanError),
    /// The simulator checkpoint is inconsistent (see
    /// [`beeping::RestoreError`]); typical for a snapshot deserialized from
    /// a corrupted file.
    Restore(RestoreError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Plan(e) => write!(f, "cannot resume: {e}"),
            ResumeError::Restore(e) => write!(f, "cannot resume: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<PlanError> for ResumeError {
    fn from(e: PlanError) -> ResumeError {
        ResumeError::Plan(e)
    }
}

impl From<RestoreError> for ResumeError {
    fn from(e: RestoreError) -> ResumeError {
        ResumeError::Restore(e)
    }
}

/// Configuration of a run — the one config type every entry point takes
/// (also exported as [`crate::runner::RunConfig`]). It holds what the
/// execution is: seed, budget, initial configuration, the four fault axes
/// (RAM faults, churn, channel, Byzantine nodes), motion, engine and
/// telemetry. What an entry point *measures* — level history, segment
/// budget, containment radius — is an argument of that entry point.
///
/// # Example
///
/// ```
/// use beeping::faults::{FaultPlan, FaultTarget};
/// use mis::runner::{InitialLevels, RunConfig};
///
/// let config = RunConfig::new(42)
///     .with_init(InitialLevels::AllClaiming)
///     .with_max_rounds(50_000)
///     .with_faults(FaultPlan::new().with_fault(100, FaultTarget::RandomFraction(0.2)));
/// assert_eq!(config.seed, 42);
/// ```
#[derive(Debug, Clone)]
pub struct ResumableConfig {
    /// Master seed; every stream (node, init, fault, channel, Byzantine)
    /// derives from it.
    pub seed: u64,
    /// Total round budget; reaching it without stabilizing yields
    /// [`RunStatus::BudgetExhausted`].
    pub max_rounds: u64,
    /// Initial configuration.
    pub init: InitialLevels,
    /// Scheduled RAM corruptions (corrupted nodes get uniform-random levels
    /// — arbitrary RAM contents).
    pub faults: FaultPlan,
    /// Scheduled topology changes.
    pub churn: ChurnPlan,
    /// The channel model, active for the whole run.
    pub channel: ChannelFault,
    /// Permanently deviating nodes. Configuration only — it is *not* part
    /// of a [`RunCheckpoint`]; resuming under a different plan is guarded by
    /// the harness snapshot's config fingerprint, not here. Without one, a
    /// debug build runs [`crate::invariant::check_round`] after every
    /// round; a Byzantine node's RAM is adversary-controlled and
    /// legitimately violates the protocol invariants.
    pub byzantine: ByzantinePlan<Level>,
    /// Optional moving deployment: when set, the topology is the spec's
    /// radius graph restricted to the active nodes, handed to the simulator
    /// at every round boundary (after scheduled faults and churn). The
    /// motion layer then *owns* the edge set, so the churn plan may only
    /// schedule node leave/join: the constructors reject an
    /// `AddEdge`/`RemoveEdge` event with [`PlanError::Motion`]. Mid-flight
    /// positions and the motion-RNG position live in the [`RunCheckpoint`];
    /// this field is configuration and is covered by the harness snapshot
    /// fingerprint.
    pub motion: Option<MotionSpec>,
    /// Delivery engine (bit-identical choices; see [`EngineMode`]).
    pub engine: EngineMode,
    /// Telemetry handle (disabled by default). When enabled, the run emits
    /// a `RunStart`, a [`telemetry::Marker`] per fault, churn event and
    /// motion reconciliation, one [`telemetry::RoundEvent`] per executed
    /// round and a closing `RunEnd` + metrics snapshot. Observational only:
    /// enabling it, or resuming with a fresh handle, never changes the
    /// execution.
    pub telemetry: Telemetry,
}

impl ResumableConfig {
    /// Defaults: random initial levels, a 1,000,000-round budget, no
    /// faults, no churn, reliable channel, no Byzantine nodes, no motion.
    pub fn new(seed: u64) -> ResumableConfig {
        ResumableConfig {
            seed,
            max_rounds: 1_000_000,
            init: InitialLevels::Random,
            faults: FaultPlan::new(),
            churn: ChurnPlan::new(),
            channel: ChannelFault::reliable(),
            byzantine: ByzantinePlan::new(),
            motion: None,
            engine: EngineMode::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Sets the total round budget.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> ResumableConfig {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the initial configuration.
    pub fn with_init(mut self, init: InitialLevels) -> ResumableConfig {
        self.init = init;
        self
    }

    /// Sets the fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> ResumableConfig {
        self.faults = faults;
        self
    }

    /// Sets the churn schedule.
    pub fn with_churn(mut self, churn: ChurnPlan) -> ResumableConfig {
        self.churn = churn;
        self
    }

    /// Sets the channel model.
    pub fn with_channel(mut self, channel: ChannelFault) -> ResumableConfig {
        self.channel = channel;
        self
    }

    /// Sets the Byzantine plan.
    pub fn with_byzantine(mut self, byzantine: ByzantinePlan<Level>) -> ResumableConfig {
        self.byzantine = byzantine;
        self
    }

    /// Attaches a moving deployment (see the `motion` field for the
    /// semantics; the run's graph must be `spec.initial_graph(n)`).
    pub fn with_motion(mut self, motion: MotionSpec) -> ResumableConfig {
        self.motion = Some(motion);
        self
    }

    /// Selects the simulator delivery engine.
    pub fn with_engine(mut self, engine: EngineMode) -> ResumableConfig {
        self.engine = engine;
        self
    }

    /// Attaches a telemetry handle.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ResumableConfig {
        self.telemetry = telemetry;
        self
    }
}

/// Where a run stands after a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// More rounds to execute.
    Running,
    /// Stabilized (`S_t = V` on the live topology, past the last scheduled
    /// event).
    Stabilized,
    /// The total round budget ran out first.
    BudgetExhausted,
}

/// The final observables of a finished run.
#[derive(Debug, Clone)]
pub struct ResumableOutcome {
    /// `true` if the run stabilized within budget.
    pub stabilized: bool,
    /// Total rounds executed.
    pub rounds_run: u64,
    /// Fault-free rounds from the last scheduled event to stabilization
    /// (the paper's measure); `None` if the budget ran out.
    pub stabilization_round: Option<u64>,
    /// Final levels.
    pub levels: Vec<Level>,
    /// [`crate::recovery::claimed_mis`] of the final configuration
    /// (active-aware).
    pub mis: Vec<bool>,
    /// Final participation bitmap (after all churn).
    pub active: Vec<bool>,
    /// Per-round beep activity over the whole run.
    pub trace: Trace,
}

/// Everything mutable about a run, capturable between any two ticks. The
/// serialization target of the harness snapshot codec: configuration
/// (plans, channel model, engine) is deliberately *not* inside — it is
/// reconstructed from the caller's [`ResumableConfig`] and guarded by a
/// fingerprint at the file layer.
#[derive(Debug, Clone)]
pub struct RunCheckpoint {
    /// The complete simulator state: levels, per-node RNG positions, round
    /// counter, last-round signals, churned topology, participation bitmap,
    /// channel window and the channel/Byzantine stream positions.
    pub sim: Checkpoint<Level>,
    /// The fault-injection stream position (shared by corruptions and churn
    /// boot levels).
    pub fault_rng: Pcg64Mcg,
    /// The event-application cursor: the last round boundary whose
    /// scheduled events have fired. Without it, a checkpoint taken right
    /// after an event boundary would re-apply the events on resume.
    pub applied_through: Option<u64>,
    /// The accumulated per-round trace, so an interrupted-and-resumed run
    /// reports the same full trace as an uninterrupted one.
    pub trace: Trace,
    /// Mid-flight mobility state (positions, per-node model state, motion
    /// RNG position); `Some` exactly when the configuration carries a
    /// [`MotionSpec`].
    pub motion: Option<MotionState>,
}

/// How a [`RunLoop`] judges the protocol it runs. The paper's algorithms
/// judge through the stable-set tracker; the baselines and
/// [`crate::adaptive::AdaptiveMis`] judge their own predicate and run through
/// [`crate::runner::run_from`], without events.
pub trait Judge: BeepingProtocol + Clone + 'static {
    /// Whether `run` stops, asked at every round boundary (round 0 too)
    /// before the budget.
    fn stopped(run: &mut RunLoop<'_, Self>) -> bool;

    /// The answer set of a finished `run`.
    fn members(run: &RunLoop<'_, Self>) -> Vec<bool>;

    /// Brings what the judge keeps up to date — at each round event and at
    /// the end of the run — and fills in the protocol's fields of a round
    /// event. The default keeps and fills nothing.
    fn refresh(_run: &mut RunLoop<'_, Self>, _event: Option<&mut RoundEvent>) {}

    /// The check, panicking on a violation, that debug builds run after
    /// every round without Byzantine nodes. The default checks nothing.
    fn check_round(&self, _graph: &Graph, _round: u64, _states: &[Self::State]) {}
}

impl<A: SelfStabilizingMis> Judge for A {
    /// Past the last scheduled event and [`stabilized_active`] on the live
    /// configuration, as tracked by the stable set (debug builds cross-check
    /// the full sweep). While some active node is off its extreme levels the
    /// answer is `false` without a refresh, and a stale tracker stays stale
    /// for its next reader.
    fn stopped(run: &mut RunLoop<'_, A>) -> bool {
        if run.sim.round() < run.last_event_round {
            return false;
        }
        let gated = run.stable_set.is_stale()
            && has_off_extreme(
                &run.algo,
                run.sim.states(),
                run.sim.active(),
                &mut run.off_extreme_hint,
            );
        let stabilized = !gated && run.observe().stabilized();
        debug_assert_eq!(
            stabilized,
            stabilized_active(&run.algo, run.sim.graph(), run.sim.states(), run.sim.active()),
            "stable-set tracker disagrees with the full sweep at round {}",
            run.sim.round()
        );
        stabilized
    }

    fn members(run: &RunLoop<'_, A>) -> Vec<bool> {
        debug_assert!(!run.stable_set.is_stale(), "members read before finish()");
        run.stable_set.in_mis().to_vec()
    }

    fn refresh(run: &mut RunLoop<'_, A>, event: Option<&mut RoundEvent>) {
        let set = run.observe();
        let sizes = (Some(set.in_mis_count() as u64), Some(set.stable_count() as u64));
        if let Some(event) = event {
            (event.in_mis, event.stable) = sizes;
            let sample = run.config.telemetry.sample_levels(event.round);
            event.levels = sample.then(|| level_histogram(run.levels()));
        }
    }

    /// The level-range and Figure-1 invariants of [`crate::invariant`].
    fn check_round(&self, graph: &Graph, round: u64, levels: &[Level]) {
        crate::invariant::check_round(self, graph, round, levels);
    }
}

/// A run inverted into a state machine over a graph borrowed for `'g`; see
/// the module docs.
pub struct RunLoop<'g, P: Judge> {
    sim: Simulator<'g, P>,
    algo: P,
    config: ResumableConfig,
    fault_rng: Pcg64Mcg,
    motion: Option<DynamicTopology>,
    trace: Trace,
    last_event_round: u64,
    applied_through: Option<u64>,
    /// The faults and churn events the latest boundary applied, in
    /// application order.
    applied: Vec<Disturbance>,
    /// The incremental `I_t`/`S_t` tracker of the live configuration.
    stable_set: StableSet,
    /// The chunk where the stopping rule's off-extreme gate last found a
    /// witness, where its next scan starts ([`has_off_extreme`]).
    off_extreme_hint: usize,
    status: RunStatus,
    /// Crash instrumentation for the harness test rig: panic immediately
    /// before executing this round. `None` in production use.
    crash_before_round: Option<u64>,
}

/// The run loop over an owned graph: storable, checkpointable and
/// resumable — the crash-safe core of the resilient harness.
pub type ResumableRun<A> = RunLoop<'static, A>;

impl<A: SelfStabilizingMis> RunLoop<'static, A> {
    /// Starts a fresh run of `algo` on a private copy of `graph` under
    /// `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] if any schedule (faults, churn, Byzantine,
    /// motion) is invalid for this graph, so the tick loop never panics on
    /// event application.
    pub fn new(
        graph: &Graph,
        algo: &A,
        config: ResumableConfig,
    ) -> Result<ResumableRun<A>, PlanError> {
        RunLoop::start(SimGraph::Shared(Arc::new(graph.clone())), algo, config, "resumable")
    }

    /// Rebuilds a run at the exact point `checkpoint` was captured. The
    /// caller supplies the same `algo` and `config` the original run used
    /// (the harness snapshot layer enforces this with a fingerprint);
    /// continuing is then bit-identical to never having stopped.
    ///
    /// # Errors
    ///
    /// [`ResumeError::Plan`] if the configuration is invalid for the
    /// checkpointed graph, [`ResumeError::Restore`] if the checkpoint's own
    /// vectors are inconsistent (a corrupted or hand-built snapshot).
    pub fn resume(
        algo: &A,
        config: ResumableConfig,
        checkpoint: &RunCheckpoint,
    ) -> Result<ResumableRun<A>, ResumeError> {
        let n = checkpoint.sim.graph().len();
        validate_plans(&config, algo, n)?;
        let motion =
            match (&config.motion, &checkpoint.motion) {
                (Some(spec), Some(state)) => Some(
                    DynamicTopology::from_state(spec, state)
                        .map_err(|e| ResumeError::Plan(PlanError::Motion(e.to_string())))?,
                ),
                (None, None) => None,
                (Some(_), None) => return Err(ResumeError::Plan(PlanError::Motion(
                    "configuration carries a motion spec but the checkpoint has no motion state"
                        .into(),
                ))),
                (None, Some(_)) => {
                    return Err(ResumeError::Plan(PlanError::Motion(
                        "checkpoint carries motion state but the configuration has no motion spec"
                            .into(),
                    )))
                }
            };
        if let Some(dt) = &motion {
            if dt.graph().len() != n {
                return Err(ResumeError::Plan(PlanError::Motion(format!(
                    "checkpoint motion state covers {} nodes but its graph has {n}",
                    dt.graph().len()
                ))));
            }
        }
        let levels = checkpoint.sim.states().to_vec();
        let graph = SimGraph::Shared(Arc::clone(checkpoint.sim.shared_graph()));
        let mut sim = build_sim(graph, algo, &config, levels, config.byzantine.clone());
        sim.restore(&checkpoint.sim)?;
        let mut run = RunLoop::assemble(sim, algo, config, motion);
        run.fault_rng = checkpoint.fault_rng.clone();
        run.trace = checkpoint.trace.clone();
        run.applied_through = checkpoint.applied_through;
        Ok(run)
    }
}

/// Checks every per-node input and schedule of `config` against an
/// `n`-node network.
fn validate_plans<A: SelfStabilizingMis>(
    config: &ResumableConfig,
    algo: &A,
    n: usize,
) -> Result<(), PlanError> {
    let sized = |what, len| if len == n { Ok(()) } else { Err(PlanError::Size { what, len, n }) };
    sized("the ℓmax policy", algo.policy().len())?;
    if let InitialLevels::Custom(values) = &config.init {
        sized("the custom initial configuration", values.len())?;
    }
    config.faults.validate(n)?;
    config.churn.validate(n)?;
    config.byzantine.validate(n, algo.channels())?;
    config.channel.validate(n).map_err(PlanError::Channel)?;
    if config.motion.is_some() {
        // The motion layer replaces the edge set at every boundary, right
        // after churn: a scheduled edge event would be overwritten at once.
        let edge_event = config.churn.events().iter().find(|event| {
            matches!(event.action, ChurnAction::AddEdge(..) | ChurnAction::RemoveEdge(..))
        });
        if let Some(event) = edge_event {
            return Err(PlanError::Motion(format!(
                "churn event {} after round {} edits an edge, but a moving deployment owns \
                 the edge set (schedule node leave/join only)",
                churn_detail(&event.action),
                event.after_round
            )));
        }
    }
    Ok(())
}

/// Builds the simulator of a run — the only simulator construction in the
/// workspace's drivers — with the `byzantine` plan. Without Byzantine nodes,
/// debug builds install the judge's [`Judge::check_round`].
pub(crate) fn build_sim<'g, P: Judge>(
    graph: SimGraph<'g>,
    algo: &P,
    config: &ResumableConfig,
    states: Vec<P::State>,
    byzantine: ByzantinePlan<P::State>,
) -> Simulator<'g, P> {
    let sim = Simulator::on(graph, algo.clone(), states, config.seed)
        .with_channel(config.channel.clone())
        .with_engine(config.engine)
        .with_telemetry(config.telemetry.clone());
    if !byzantine.is_empty() {
        sim.with_byzantine(byzantine)
    } else if cfg!(debug_assertions) {
        let judge = algo.clone();
        sim.with_invariant_hook(move |g, round, states| judge.check_round(g, round, states))
    } else {
        sim
    }
}

/// Records a disturbance marker at round boundary `round`.
pub(crate) fn mark(tele: &Telemetry, round: u64, kind: MarkerKind, detail: &str, magnitude: u64) {
    if tele.is_enabled() {
        tele.record(Event::Marker(Marker { round, kind, detail: detail.into(), magnitude }));
    }
}

/// Corrupts `target` and marks it — the one fault application of every
/// run. Each victim's level is overwritten with a uniform draw over its full
/// state space (arbitrary RAM contents), victims and levels both drawn from
/// the fault stream. Returns the number of corrupted nodes.
fn apply_fault<A: SelfStabilizingMis>(
    sim: &mut Simulator<'_, A>,
    algo: &A,
    target: &FaultTarget,
    fault_rng: &mut Pcg64Mcg,
    tele: &Telemetry,
) -> usize {
    let victims = target.select(sim.graph().len(), fault_rng);
    for &v in &victims {
        sim.corrupt_state(v, random_level(algo, v, fault_rng));
    }
    mark(tele, sim.round(), MarkerKind::Fault, "corrupt", victims.len() as u64);
    victims.len()
}

/// Sorted `(level, count)` histogram of a configuration — the telemetry
/// stream's level snapshot format.
fn level_histogram(levels: &[Level]) -> Vec<(i64, u64)> {
    let mut histogram = std::collections::BTreeMap::new();
    for &level in levels {
        *histogram.entry(i64::from(level)).or_insert(0u64) += 1;
    }
    histogram.into_iter().collect()
}

/// Stable lowercase name of a churn action for telemetry markers.
fn churn_detail(action: &ChurnAction) -> &'static str {
    match action {
        ChurnAction::AddEdge(..) => "add_edge",
        ChurnAction::RemoveEdge(..) => "remove_edge",
        ChurnAction::NodeLeave(..) => "node_leave",
        ChurnAction::NodeJoin(..) => "node_join",
    }
}

impl<'g, A: SelfStabilizingMis> RunLoop<'g, A> {
    /// Starts a run of `algo` on `graph` under `config`: validates every
    /// plan, samples the initial configuration, builds the simulator and
    /// opens the telemetry bracket with a `RunStart` labelled `label`.
    pub(crate) fn start(
        graph: SimGraph<'g>,
        algo: &A,
        config: ResumableConfig,
        label: &str,
    ) -> Result<RunLoop<'g, A>, PlanError> {
        validate_plans(&config, algo, graph.len())?;
        let motion = match &config.motion {
            Some(spec) => {
                let dt = DynamicTopology::new(graph.len(), spec, config.seed)
                    .map_err(|e| PlanError::Motion(e.to_string()))?;
                if dt.graph() != &*graph {
                    return Err(PlanError::Motion(
                        "graph is not the spec's initial deployment \
                         (use MotionSpec::initial_graph)"
                            .into(),
                    ));
                }
                Some(dt)
            }
            None => None,
        };
        let n = graph.len() as u64;
        let levels = initial_levels(algo, &config);
        let sim = build_sim(graph, algo, &config, levels, config.byzantine.clone());
        if config.telemetry.is_enabled() {
            config.telemetry.record(Event::RunStart { label: label.into(), n, seed: config.seed });
        }
        Ok(RunLoop::assemble(sim, algo, config, motion))
    }

    /// Applies the events scheduled at the current round boundary — faults
    /// in schedule order, then churn, then one motion step, each with its
    /// marker — unless this boundary's events already fired (even across a
    /// checkpoint/resume). [`RunLoop::applied`] then lists the faults and
    /// churn events applied here.
    pub(crate) fn apply_events(&mut self) {
        self.applied.clear();
        let r = self.sim.round();
        if self.applied_through == Some(r) {
            return;
        }
        let tele = &self.config.telemetry;
        for fault in self.config.faults.events_after_round(r) {
            let corrupted =
                apply_fault(&mut self.sim, &self.algo, &fault.target, &mut self.fault_rng, tele);
            self.stable_set.touch_levels();
            self.applied.push(Disturbance::TransientFault { corrupted });
        }
        for event in self.config.churn.events_after_round(r) {
            apply_churn(&mut self.sim, &self.algo, &event.action, &mut self.fault_rng);
            self.stable_set.touch_topology();
            mark(tele, r, MarkerKind::Churn, churn_detail(&event.action), 1);
            self.applied.push(Disturbance::Churn(event.action.clone()));
        }
        if let Some(dt) = &mut self.motion {
            if tele.is_enabled() {
                let (added, removed) = dt.advance(&mut self.sim);
                if added + removed > 0 {
                    self.stable_set.touch_topology();
                    mark(tele, r, MarkerKind::Motion, "reconcile", (added + removed) as u64);
                }
            } else if dt.advance_uncounted(&mut self.sim) {
                self.stable_set.touch_topology();
            }
        }
        self.applied_through = Some(r);
    }

    /// The faults and churn events the latest [`RunLoop::apply_events`]
    /// applied, in application order.
    pub(crate) fn applied(&self) -> &[Disturbance] {
        &self.applied
    }

    /// The stable-set tracker, brought up to date with the live
    /// configuration (adding its node judgments to the `check.rejudged`
    /// counter). The refresh diffs only the nodes the simulator touched
    /// since the previous one, and then the touched set starts over.
    pub(crate) fn observe(&mut self) -> &StableSet {
        let judged = self.stable_set.refresh(
            &self.algo,
            self.sim.graph(),
            self.sim.states(),
            self.sim.active(),
            self.sim.touched(),
        );
        self.sim.clear_touched();
        if judged > 0 {
            self.config.telemetry.counter_add("check.rejudged", judged);
        }
        &self.stable_set
    }

    /// Corrupts `target` at the current boundary (from the fault stream,
    /// with its marker) and reopens a finished run for `budget` more rounds.
    /// Serves [`crate::runner::run_recovery`], whose fault round is the
    /// first stabilization round and so cannot be scheduled up front.
    /// Returns the number of corrupted nodes.
    pub(crate) fn reopen_with_fault(&mut self, target: &FaultTarget, budget: u64) -> usize {
        let tele = &self.config.telemetry;
        let corrupted = apply_fault(&mut self.sim, &self.algo, target, &mut self.fault_rng, tele);
        self.stable_set.touch_levels();
        self.config.max_rounds = self.sim.round() + budget;
        self.status = RunStatus::Running;
        corrupted
    }

    /// Executes one round boundary under the default stopping rule:
    /// applies the boundary's events, stops if stabilized or if the total
    /// budget is spent, and otherwise steps the simulator one round.
    ///
    /// Returns the status *after* this tick; once it leaves
    /// [`RunStatus::Running`], further ticks are no-ops.
    pub fn tick(&mut self) -> RunStatus {
        if self.status != RunStatus::Running {
            return self.status;
        }
        self.apply_events();
        self.advance()
    }

    /// Ticks until the run leaves [`RunStatus::Running`].
    pub fn run_to_completion(&mut self) -> RunStatus {
        while self.tick() == RunStatus::Running {}
        self.status
    }

    /// Captures the complete mutable run state; see [`RunCheckpoint`].
    pub fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            sim: self.sim.checkpoint(),
            fault_rng: self.fault_rng.clone(),
            applied_through: self.applied_through,
            trace: self.trace.clone(),
            motion: self.motion.as_ref().map(DynamicTopology::state),
        }
    }

    /// The final observables; `None` while still [`RunStatus::Running`].
    pub fn outcome(&self) -> Option<ResumableOutcome> {
        if self.status == RunStatus::Running {
            return None;
        }
        let stabilized = self.status == RunStatus::Stabilized;
        Some(ResumableOutcome {
            stabilized,
            rounds_run: self.sim.round(),
            stabilization_round: stabilized
                .then(|| self.sim.round().saturating_sub(self.last_event_round)),
            levels: self.sim.states().to_vec(),
            mis: A::members(self),
            active: self.sim.active().to_vec(),
            trace: self.trace.clone(),
        })
    }
}

impl<'g, P: Judge> RunLoop<'g, P> {
    pub(crate) fn assemble(
        sim: Simulator<'g, P>,
        algo: &P,
        config: ResumableConfig,
        motion: Option<DynamicTopology>,
    ) -> RunLoop<'g, P> {
        let last_event_round = config
            .faults
            .last_fault_round()
            .unwrap_or(0)
            .max(config.churn.last_event_round().unwrap_or(0));
        let stable_set = StableSet::new(sim.graph().len());
        RunLoop {
            sim,
            algo: algo.clone(),
            fault_rng: aux_rng(config.seed, FAULT_RNG_PURPOSE),
            motion,
            trace: Trace::new(),
            last_event_round,
            applied_through: None,
            applied: Vec::new(),
            stable_set,
            off_extreme_hint: 0,
            status: RunStatus::Running,
            crash_before_round: None,
            config,
        }
    }

    /// The round boundary of the last scheduled fault or churn event.
    pub(crate) fn last_event_round(&self) -> u64 {
        self.last_event_round
    }

    /// A round boundary after its events: stops if the judge says so or the
    /// total budget is spent, and otherwise steps the simulator one round.
    pub(crate) fn advance(&mut self) -> RunStatus {
        let r = self.sim.round();
        if P::stopped(self) {
            let fault_free = r.saturating_sub(self.last_event_round);
            return self.finish(RunStatus::Stabilized, Some(fault_free));
        }
        if r >= self.config.max_rounds {
            return self.finish(RunStatus::BudgetExhausted, None);
        }
        let report = self.step();
        self.trace.push(report);
        self.status
    }

    /// Executes one round — the only place a run steps its simulator — and
    /// emits the round's [`telemetry::RoundEvent`].
    pub(crate) fn step(&mut self) -> RoundReport {
        let r = self.sim.round();
        if self.crash_before_round == Some(r + 1) {
            panic!("crash injection: killed before round {}", r + 1);
        }
        let report = self.sim.step();
        self.stable_set.touch_levels();
        if self.config.telemetry.is_enabled() {
            self.emit_round(&report);
        }
        report
    }

    /// Records `report` as a [`RoundEvent`], completed by the judge's
    /// [`Judge::refresh`] (for the paper's algorithms, one tracker refresh),
    /// and accumulates the `trace.*` counters mirroring [`Trace`]'s
    /// aggregates. Only called with telemetry enabled.
    fn emit_round(&mut self, report: &RoundReport) {
        let mut event = RoundEvent {
            round: report.round,
            beeps_channel1: report.beeps_channel1 as u64,
            beeps_channel2: report.beeps_channel2 as u64,
            hearers_channel1: report.hearers_channel1 as u64,
            hearers_channel2: report.hearers_channel2 as u64,
            lone_beepers: report.lone_beepers as u64,
            lone_beepers_channel2: report.lone_beepers_channel2 as u64,
            active: self.sim.active_count() as u64,
            n: self.sim.graph().len() as u64,
            ..RoundEvent::default()
        };
        P::refresh(self, Some(&mut event));
        let tele = &self.config.telemetry;
        tele.record(Event::Round(event));
        tele.counter_add("trace.rounds", 1);
        tele.counter_add("trace.beeps_c1", report.beeps_channel1 as u64);
        tele.counter_add("trace.beeps_c2", report.beeps_channel2 as u64);
        tele.counter_add("trace.hearers_c1", report.hearers_channel1 as u64);
        tele.counter_add("trace.hearers_c2", report.hearers_channel2 as u64);
        tele.counter_add("trace.lone_c1", report.lone_beepers as u64);
        tele.counter_add("trace.lone_c2", report.lone_beepers_channel2 as u64);
    }

    /// Ends the run with `status`, brings the judgment the outcome reads up
    /// to date ([`Judge::refresh`]), and closes the telemetry bracket: a
    /// `RunEnd` carrying the caller's `stabilization_round`, then the
    /// metrics snapshot.
    pub(crate) fn finish(
        &mut self,
        status: RunStatus,
        stabilization_round: Option<u64>,
    ) -> RunStatus {
        self.status = status;
        P::refresh(self, None);
        let tele = &self.config.telemetry;
        if tele.is_enabled() {
            tele.record(Event::RunEnd {
                rounds: self.sim.round(),
                stabilized: status == RunStatus::Stabilized,
                stabilization_round,
            });
            tele.finish();
        }
        status
    }

    /// Current status without ticking.
    pub fn status(&self) -> RunStatus {
        self.status
    }

    /// The current round (number of rounds executed so far).
    pub fn round(&self) -> u64 {
        self.sim.round()
    }

    /// The trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current per-node states (levels, for the paper's algorithms),
    /// including departed nodes'. Cheap borrow — no checkpoint clone.
    pub fn levels(&self) -> &[P::State] {
        self.sim.states()
    }

    /// The current topology (reflects churn and motion applied so far).
    pub fn graph(&self) -> &Graph {
        self.sim.graph()
    }

    /// The current participation bitmap.
    pub fn active(&self) -> &[bool] {
        self.sim.active()
    }

    /// Arms (or disarms) the crash-injection trigger: the tick that would
    /// execute `round` panics instead, simulating a process kill at an
    /// exact, reproducible point. Test instrumentation for the harness
    /// supervisor's panic isolation; never set in production paths.
    pub fn set_crash_before_round(&mut self, round: Option<u64>) {
        self.crash_before_round = round;
    }
}

impl<P: Judge> std::fmt::Debug for RunLoop<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResumableRun")
            .field("round", &self.sim.round())
            .field("status", &self.status)
            .field("applied_through", &self.applied_through)
            .field("last_event_round", &self.last_event_round)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::Algorithm1;
    use crate::algorithm2::Algorithm2;
    use crate::policy::LmaxPolicy;
    use crate::runner::{run, RunConfig, RunError};
    use beeping::byzantine::ByzantineBehavior;
    use graphs::generators::{classic, random};

    #[test]
    fn matches_runner_field_for_field() {
        // Fault-only plan on a static graph: the resumable driver is the
        // runner's loop rotated into a state machine, so every observable
        // must coincide.
        let g = random::gnp(40, 0.1, 5);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let faults = FaultPlan::new().with_fault(30, FaultTarget::All);
        let reference =
            run(&g, &algo, RunConfig::new(5).with_faults(faults.clone())).expect("stabilizes");

        let mut resumable =
            ResumableRun::new(&g, &algo, ResumableConfig::new(5).with_faults(faults)).unwrap();
        assert_eq!(resumable.run_to_completion(), RunStatus::Stabilized);
        let outcome = resumable.outcome().unwrap();
        assert_eq!(outcome.rounds_run, reference.rounds_run);
        assert_eq!(outcome.stabilization_round, Some(reference.stabilization_round));
        assert_eq!(outcome.levels, reference.levels);
        assert_eq!(outcome.mis, reference.mis);
        assert_eq!(outcome.trace.reports(), reference.trace.reports());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        // Compose all four fault axes, interrupt at an arbitrary point,
        // resume, and compare against the uninterrupted run.
        let g = random::gnp(30, 0.15, 9);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = || {
            ResumableConfig::new(9)
                .with_max_rounds(200_000)
                .with_channel(ChannelFault::reliable().with_drop(0.02))
                .with_faults(FaultPlan::new().with_fault(50, FaultTarget::RandomFraction(0.4)))
                .with_churn(
                    ChurnPlan::new()
                        .with_event(80, ChurnAction::NodeLeave(3))
                        .with_event(120, ChurnAction::NodeJoin(3, vec![0, 5])),
                )
                .with_byzantine(
                    ByzantinePlan::new().with_behavior(7, ByzantineBehavior::Babbler(0.3)),
                )
        };
        let mut straight = ResumableRun::new(&g, &algo, config()).unwrap();
        straight.run_to_completion();
        let reference = straight.outcome().unwrap();

        for interrupt_after in [0u64, 1, 49, 50, 79, 80, 100] {
            let mut first = ResumableRun::new(&g, &algo, config()).unwrap();
            for _ in 0..interrupt_after {
                if first.tick() != RunStatus::Running {
                    break;
                }
            }
            let cp = first.checkpoint();
            drop(first); // the "crash"
            let mut second = ResumableRun::resume(&algo, config(), &cp).unwrap();
            second.run_to_completion();
            let resumed = second.outcome().unwrap();
            assert_eq!(resumed.rounds_run, reference.rounds_run, "kill at {interrupt_after}");
            assert_eq!(resumed.levels, reference.levels, "kill at {interrupt_after}");
            assert_eq!(resumed.mis, reference.mis, "kill at {interrupt_after}");
            assert_eq!(resumed.active, reference.active, "kill at {interrupt_after}");
            assert_eq!(
                resumed.trace.reports(),
                reference.trace.reports(),
                "kill at {interrupt_after}"
            );
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let g = random::gnp(60, 0.2, 4);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let mut run =
            ResumableRun::new(&g, &algo, ResumableConfig::new(1).with_max_rounds(1)).unwrap();
        assert_eq!(run.run_to_completion(), RunStatus::BudgetExhausted);
        let outcome = run.outcome().unwrap();
        assert!(!outcome.stabilized);
        assert_eq!(outcome.stabilization_round, None);
        assert_eq!(outcome.rounds_run, 1);
    }

    #[test]
    fn invalid_plans_are_typed_errors() {
        let g = classic::path(3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let churn_err = ResumableRun::new(
            &g,
            &algo,
            ResumableConfig::new(0)
                .with_churn(ChurnPlan::new().with_event(1, ChurnAction::NodeLeave(9))),
        )
        .unwrap_err();
        assert_eq!(churn_err, PlanError::Churn(ChurnError::NodeOutOfRange { node: 9, n: 3 }));
        assert!(churn_err.to_string().contains("churn"));

        let fault_err = ResumableRun::new(
            &g,
            &algo,
            ResumableConfig::new(0)
                .with_faults(FaultPlan::new().with_fault(1, FaultTarget::Nodes(vec![9]))),
        )
        .unwrap_err();
        assert!(matches!(fault_err, PlanError::Fault(_)));

        let byz_err = ResumableRun::new(
            &g,
            &algo,
            ResumableConfig::new(0).with_byzantine(
                ByzantinePlan::new().with_behavior(9, ByzantineBehavior::StuckBeep),
            ),
        )
        .unwrap_err();
        assert!(matches!(byz_err, PlanError::Byzantine(_)));
    }

    #[test]
    fn out_of_range_jammer_is_a_plan_error_at_every_entry_point() {
        use beeping::channel::JammerKind;
        let g = random::gnp(10, 0.3, 4);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let jammed = ResumableConfig::new(3)
            .with_channel(ChannelFault::reliable().with_jammer(999, JammerKind::AlwaysBeep));
        let expected = PlanError::Channel("jammer node 999 out of range for n=10".into());
        assert_eq!(run(&g, &algo, jammed.clone()).unwrap_err(), RunError::Plan(expected.clone()));
        assert_eq!(ResumableRun::new(&g, &algo, jammed.clone()).unwrap_err(), expected);
        let mut clean = ResumableRun::new(&g, &algo, ResumableConfig::new(3)).unwrap();
        clean.tick();
        let err = ResumableRun::resume(&algo, jammed, &clean.checkpoint()).unwrap_err();
        assert_eq!(err, ResumeError::Plan(expected));
        assert!(err.to_string().contains("invalid channel: jammer node 999"), "{err}");
    }

    #[test]
    fn wrong_sized_inputs_are_plan_errors() {
        let g = classic::path(3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        for values in [vec![0, 0], vec![0; 4]] {
            let len = values.len();
            let config = ResumableConfig::new(0).with_init(InitialLevels::Custom(values));
            let expected = PlanError::Size { what: "the custom initial configuration", len, n: 3 };
            assert_eq!(
                run(&g, &algo, config.clone()).unwrap_err(),
                RunError::Plan(expected.clone())
            );
            assert_eq!(ResumableRun::new(&g, &algo, config).unwrap_err(), expected);
        }
        // A policy built for another graph.
        let big = classic::path(5);
        let foreign = Algorithm1::new(&big, LmaxPolicy::global_delta(&big));
        let expected = PlanError::Size { what: "the ℓmax policy", len: 5, n: 3 };
        assert_eq!(
            run(&g, &foreign, RunConfig::new(0)).unwrap_err(),
            RunError::Plan(expected.clone())
        );
        let err = ResumableRun::new(&g, &foreign, RunConfig::new(0)).unwrap_err();
        assert_eq!(err, expected);
        assert_eq!(err.to_string(), "the ℓmax policy has 5 entries for a 3-node graph");
    }

    #[test]
    fn churn_markers_name_the_action() {
        let g = classic::cycle(8);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let tele = Telemetry::enabled(telemetry::Config::default());
        let (sink, handle) = telemetry::MemorySink::new();
        tele.add_sink(Box::new(sink));
        let config = ResumableConfig::new(3)
            .with_churn(ChurnPlan::new().with_event(5, ChurnAction::NodeLeave(2)))
            .with_telemetry(tele);
        let mut run = ResumableRun::new(&g, &algo, config).unwrap();
        run.run_to_completion();
        let churn: Vec<Marker> = handle
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Marker(m) if m.kind == MarkerKind::Churn => Some(m),
                _ => None,
            })
            .collect();
        assert_eq!(
            churn,
            vec![Marker {
                round: 5,
                kind: MarkerKind::Churn,
                detail: "node_leave".into(),
                magnitude: 1
            }]
        );
    }

    #[test]
    fn crash_injection_panics_at_the_armed_round() {
        let g = classic::cycle(8);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let mut run = ResumableRun::new(&g, &algo, ResumableConfig::new(2)).unwrap();
        run.set_crash_before_round(Some(3));
        run.tick();
        run.tick();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.tick()));
        let message = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("crash injection"), "{message}");
    }

    #[test]
    fn motion_checkpoint_resume_is_bit_identical() {
        // The moving-graph counterpart of `checkpoint_resume_is_bit_identical`:
        // a random-waypoint deployment composed with noise, node churn and a
        // Byzantine node, interrupted at several points. The stuck beeper
        // keeps the run from ever stabilizing under sustained motion, so the
        // budget is deliberately small — bit-identity at budget exhaustion is
        // exactly as strong a check as at stabilization.
        use beeping::dynamic::MotionSpec;
        use graphs::motion::MotionModel;
        let spec = MotionSpec::new(
            0x600D,
            graphs::generators::geometric::radius_for_expected_degree(32, 6.0),
            MotionModel::RandomWaypoint { speed: 0.02, pause: 2 },
        );
        let g = spec.initial_graph(32);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = || {
            ResumableConfig::new(13)
                .with_max_rounds(300)
                .with_motion(spec)
                .with_channel(ChannelFault::reliable().with_drop(0.01))
                .with_churn(
                    ChurnPlan::new()
                        .with_event(20, ChurnAction::NodeLeave(4))
                        .with_event(45, ChurnAction::NodeJoin(4, vec![])),
                )
                .with_byzantine(ByzantinePlan::new().with_behavior(9, ByzantineBehavior::StuckBeep))
        };
        let mut straight = ResumableRun::new(&g, &algo, config()).unwrap();
        straight.run_to_completion();
        let reference = straight.outcome().unwrap();

        for interrupt_after in [0u64, 1, 19, 20, 44, 45, 60] {
            let mut first = ResumableRun::new(&g, &algo, config()).unwrap();
            for _ in 0..interrupt_after {
                if first.tick() != RunStatus::Running {
                    break;
                }
            }
            let cp = first.checkpoint();
            assert!(cp.motion.is_some());
            drop(first);
            let mut second = ResumableRun::resume(&algo, config(), &cp).unwrap();
            second.run_to_completion();
            let resumed = second.outcome().unwrap();
            assert_eq!(resumed.rounds_run, reference.rounds_run, "kill at {interrupt_after}");
            assert_eq!(resumed.levels, reference.levels, "kill at {interrupt_after}");
            assert_eq!(resumed.active, reference.active, "kill at {interrupt_after}");
            assert_eq!(
                resumed.trace.reports(),
                reference.trace.reports(),
                "kill at {interrupt_after}"
            );
        }
    }

    #[test]
    fn motion_requires_the_spec_deployment_graph() {
        use beeping::dynamic::MotionSpec;
        use graphs::motion::MotionModel;
        let spec = MotionSpec::new(0x600D, 0.2, MotionModel::Drift { speed: 0.03, turn: 0.4 });
        let wrong = random::gnp(16, 0.2, 3);
        let algo = Algorithm1::new(&wrong, LmaxPolicy::global_delta(&wrong));
        let err = ResumableRun::new(&wrong, &algo, ResumableConfig::new(1).with_motion(spec))
            .unwrap_err();
        assert!(matches!(err, PlanError::Motion(_)));
        assert!(err.to_string().contains("motion"));
    }

    #[test]
    fn motion_rejects_scheduled_edge_churn() {
        use beeping::dynamic::MotionSpec;
        use graphs::motion::MotionModel;
        let spec = MotionSpec::new(
            0x600D,
            graphs::generators::geometric::radius_for_expected_degree(16, 4.0),
            MotionModel::RandomWaypoint { speed: 0.02, pause: 0 },
        );
        let g = spec.initial_graph(16);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let leave_join = ChurnPlan::new()
            .with_event(3, ChurnAction::NodeLeave(4))
            .with_event(6, ChurnAction::NodeJoin(4, vec![]));
        let moving = ResumableConfig::new(2).with_motion(spec).with_churn(leave_join.clone());
        let mut run = ResumableRun::new(&g, &algo, moving.clone()).unwrap();
        run.tick();
        let cp = run.checkpoint();
        assert!(ResumableRun::resume(&algo, moving, &cp).is_ok());
        for action in [ChurnAction::AddEdge(0, 1), ChurnAction::RemoveEdge(0, 1)] {
            let config = ResumableConfig::new(2)
                .with_motion(spec)
                .with_churn(leave_join.clone().with_event(5, action));
            let err = ResumableRun::new(&g, &algo, config.clone()).unwrap_err();
            assert!(matches!(err, PlanError::Motion(_)));
            assert!(err.to_string().contains("after round 5"), "{err}");
            let err = ResumableRun::resume(&algo, config, &cp).unwrap_err();
            assert!(matches!(err, ResumeError::Plan(PlanError::Motion(_))));
        }
        // The same edge events stay valid on a static topology.
        let static_config = ResumableConfig::new(2)
            .with_churn(ChurnPlan::new().with_event(5, ChurnAction::AddEdge(0, 1)));
        assert!(ResumableRun::new(&g, &algo, static_config).is_ok());
    }

    #[test]
    fn motion_resume_rejects_presence_mismatch() {
        use beeping::dynamic::MotionSpec;
        use graphs::motion::MotionModel;
        let spec = MotionSpec::new(
            0x600D,
            graphs::generators::geometric::radius_for_expected_degree(16, 4.0),
            MotionModel::RandomWaypoint { speed: 0.02, pause: 0 },
        );
        let g = spec.initial_graph(16);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        // Motion run, resumed under a motionless config.
        let mut run =
            ResumableRun::new(&g, &algo, ResumableConfig::new(2).with_motion(spec)).unwrap();
        run.tick();
        let cp = run.checkpoint();
        let err = ResumableRun::resume(&algo, ResumableConfig::new(2), &cp).unwrap_err();
        assert!(matches!(err, ResumeError::Plan(PlanError::Motion(_))));
        // A motion state over another node count is refused, not adopted.
        let mut short = cp.clone();
        if let Some(state) = &mut short.motion {
            state.positions.pop();
            state.waypoints.pop();
            state.pauses.pop();
        }
        let err = ResumableRun::resume(&algo, ResumableConfig::new(2).with_motion(spec), &short)
            .unwrap_err();
        assert!(err.to_string().contains("covers 15 nodes"), "{err}");
        // Motionless run, resumed under a motion config.
        let mut run = ResumableRun::new(&g, &algo, ResumableConfig::new(2)).unwrap();
        run.tick();
        let cp = run.checkpoint();
        let err = ResumableRun::resume(&algo, ResumableConfig::new(2).with_motion(spec), &cp)
            .unwrap_err();
        assert!(matches!(err, ResumeError::Plan(PlanError::Motion(_))));
    }

    #[test]
    fn rejudged_counter_is_pinned_on_a_point_fault_recovery() {
        // The `point-fault` benchmark shape at n = 2^12: the greedy
        // lexicographic MIS fixpoint with 16 nodes knocked to their claiming
        // level, Frontier engine. The first refresh judges all 2n flags;
        // every later one only the 2-hop balls of the nodes that changed.
        let n = 1usize << 12;
        let g = random::gnp(n, 8.0 / (n as f64 - 1.0), 1);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let mut member = vec![false; n];
        for v in g.nodes() {
            member[v] = !g.neighbors(v).iter().any(|&u| member[u as usize]);
        }
        let lmax = algo.policy().lmax_values();
        let mut levels: Vec<i64> = g
            .nodes()
            .map(|v| {
                i64::from(if member[v] { Algorithm1::SPACE.claiming(lmax[v]) } else { lmax[v] })
            })
            .collect();
        for v in FaultTarget::RandomCount(16).select(n, &mut aux_rng(1, 0xB0B5)) {
            levels[v] = i64::from(Algorithm1::SPACE.claiming(lmax[v]));
        }
        let tele = Telemetry::enabled(telemetry::Config::default());
        let config = RunConfig::new(1)
            .with_init(InitialLevels::Custom(levels))
            .with_engine(EngineMode::Frontier)
            .with_telemetry(tele.clone());
        let outcome = run(&g, &algo, config).expect("recovers");
        assert_eq!(outcome.rounds_run, 47);
        // 2n = 8192 for the first refresh, 1169 for the 47 rounds after it
        // (a full sweep per check would judge 2n every round).
        assert_eq!(tele.metrics().counter("check.rejudged"), 9361);
    }

    #[test]
    fn off_extreme_decisions_leave_the_tracker_stale() {
        // The `cold-start` shape at n = 2^12. With telemetry off nothing else
        // refreshes the tracker, so a stopping decision on a configuration
        // with an off-extreme active node must answer `false` and leave it
        // stale. The telemetry-on twin refreshes every round; both runs must
        // end identically.
        let n = 1usize << 12;
        let g = random::gnp(n, 8.0 / (n as f64 - 1.0), 1);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        for engine in [EngineMode::Scatter, EngineMode::Frontier] {
            let config = RunConfig::new(1).with_engine(engine);
            let mut quiet = ResumableRun::new(&g, &algo, config.clone()).unwrap();
            let mut gated = 0;
            loop {
                // `tick` re-applies nothing at a boundary whose events fired.
                quiet.apply_events();
                if has_off_extreme(&algo, quiet.levels(), quiet.active(), &mut 0) {
                    assert!(quiet.stable_set.is_stale());
                    assert!(!Algorithm1::stopped(&mut quiet));
                    assert!(quiet.stable_set.is_stale(), "refreshed at round {}", quiet.round());
                    gated += 1;
                }
                if quiet.tick() != RunStatus::Running {
                    break;
                }
            }
            let outcome = quiet.outcome().unwrap();
            assert!(gated > 0 && gated <= outcome.rounds_run, "{engine:?}: {gated} gated");
            let tele = Telemetry::enabled(telemetry::Config::default());
            let observed = run(&g, &algo, config.with_telemetry(tele)).expect("stabilizes");
            assert_eq!(outcome.stabilization_round, Some(observed.stabilization_round));
            assert_eq!(outcome.levels, observed.levels);
            assert_eq!(outcome.mis, observed.mis);
        }
    }

    #[test]
    fn two_channel_algorithm_resumes_identically() {
        let g = random::gnp(25, 0.15, 11);
        let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
        let config = || {
            ResumableConfig::new(11)
                .with_faults(FaultPlan::new().with_fault(40, FaultTarget::RandomFraction(0.5)))
        };
        let mut straight = ResumableRun::new(&g, &algo, config()).unwrap();
        straight.run_to_completion();
        let reference = straight.outcome().unwrap();

        let mut first = ResumableRun::new(&g, &algo, config()).unwrap();
        for _ in 0..25 {
            first.tick();
        }
        let cp = first.checkpoint();
        let mut second = ResumableRun::resume(&algo, config(), &cp).unwrap();
        second.run_to_completion();
        let resumed = second.outcome().unwrap();
        assert_eq!(resumed.levels, reference.levels);
        assert_eq!(resumed.trace.reports(), reference.trace.reports());
    }
}
