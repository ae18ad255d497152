//! Joint worst-case search over the *dynamic-topology* scenario space.
//!
//! [`crate::adversary`] hill-climbs over Byzantine placement and initial
//! levels on a **static** graph. This module generalizes that search to the
//! moving deployments of [`beeping::dynamic`]: a scenario is a point in
//!
//! 1. **motion speed** — an index into a caller-supplied grid of
//!    random-waypoint speeds,
//! 2. **churn rate** — an index into a grid of leave/rejoin periods (a
//!    smaller period churns more often), and
//! 3. **Byzantine placement** — where the permanently deviating nodes sit
//!    in the initial deployment,
//!
//! scored by the first round at which the configuration is a valid MIS *on
//! the current graph* outside a fixed containment radius around the
//! adversary, after the last scheduled churn event
//! ([`crate::containment::run_moving_contained`], the moving rule MOB uses
//! too). Higher is worse for the protocol; budget exhaustion scores
//! `max_rounds + 1`.
//!
//! The search runs the static search's climb, placement draw and relocate
//! move ([`crate::adversary`]) under a dedicated [`SCEN_RNG_PURPOSE`]
//! stream, adding its own grid moves: the same seed, grids and budget
//! always select the same [`WorstScenario`]. The
//! `SCEN` experiment serializes the result as `results/SCEN-certificate.json`
//! and anyone can replay the certified scenario with [`evaluate_scenario`]
//! to reproduce the certified score exactly.

use beeping::byzantine::ByzantinePlan;
use beeping::churn::{ChurnAction, ChurnPlan};
use beeping::dynamic::MotionSpec;
use beeping::rng::aux_rng;
use graphs::motion::MotionModel;
use graphs::{Graph, NodeId};
use rand::Rng;
use rand_pcg::Pcg64Mcg;

use crate::adversary::{climb, draw_placement, relocate, SearchBehavior};
use crate::containment::run_moving_contained;
use crate::resumable::{PlanError, ResumableConfig};
use crate::runner::SelfStabilizingMis;

/// Purpose tag separating the scenario-search RNG stream from the node,
/// channel, fault, Byzantine, motion and static-adversary streams.
pub const SCEN_RNG_PURPOSE: u64 = 0x5CE7_A210;

/// Budget and shape of a [`worst_scenario_search`].
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed: drives the search RNG *and* every candidate evaluation
    /// (all candidates are scored under the same simulation seed, so score
    /// differences come from the scenario's choices alone).
    pub seed: u64,
    /// Number of nodes in the deployment.
    pub n: usize,
    /// Seed of the initial uniform deployment (see
    /// [`MotionSpec::initial_graph`]); fixed across the whole search so
    /// every scenario starts from the same graph.
    pub points_seed: u64,
    /// Communication radius of the deployment.
    pub comm_radius: f64,
    /// Random-waypoint pause (rounds spent at a reached waypoint).
    pub pause: u64,
    /// Number of Byzantine nodes to place (`0` searches motion × churn
    /// only, scored by plain stabilization).
    pub byz_count: usize,
    /// Behavior assigned to every placed node.
    pub behavior: SearchBehavior,
    /// Hill-climbing iterations (candidate evaluations beyond the initial
    /// one).
    pub iterations: usize,
    /// Round budget per candidate evaluation.
    pub max_rounds: u64,
    /// Leave/rejoin pairs the churn schedule executes.
    pub churn_events: usize,
    /// Containment radius the score quantifies over (nodes within this hop
    /// distance of a Byzantine site are exempt, distances recomputed on the
    /// moved graph each round).
    pub containment_radius: usize,
    /// Candidate motion speeds (the search moves along this grid).
    pub speeds: Vec<f64>,
    /// Candidate churn periods in rounds (the search moves along this
    /// grid). Every entry must satisfy
    /// `2 * churn_events * period < max_rounds`, so the whole schedule —
    /// and therefore the score — fits inside the budget.
    pub churn_periods: Vec<u64>,
}

impl ScenarioConfig {
    /// Defaults: one stuck beeper, 24 iterations, 3,000-round budget, two
    /// leave/rejoin pairs, radius-2 exemption, a three-point speed grid and
    /// a three-point churn-period grid.
    pub fn new(seed: u64, n: usize, points_seed: u64, comm_radius: f64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            n,
            points_seed,
            comm_radius,
            pause: 2,
            byz_count: 1,
            behavior: SearchBehavior::StuckBeep,
            iterations: 24,
            max_rounds: 3_000,
            churn_events: 2,
            containment_radius: 2,
            speeds: vec![0.0, 0.01, 0.05],
            churn_periods: vec![25, 50, 100],
        }
    }

    /// Sets the number of Byzantine nodes.
    pub fn with_byz_count(mut self, byz_count: usize) -> ScenarioConfig {
        self.byz_count = byz_count;
        self
    }

    /// Sets the behavior assigned to every placed node.
    pub fn with_behavior(mut self, behavior: SearchBehavior) -> ScenarioConfig {
        self.behavior = behavior;
        self
    }

    /// Sets the iteration budget.
    pub fn with_iterations(mut self, iterations: usize) -> ScenarioConfig {
        self.iterations = iterations;
        self
    }

    /// Sets the per-candidate round budget.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> ScenarioConfig {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the number of leave/rejoin pairs.
    pub fn with_churn_events(mut self, churn_events: usize) -> ScenarioConfig {
        self.churn_events = churn_events;
        self
    }

    /// Sets the motion-speed grid.
    pub fn with_speeds(mut self, speeds: Vec<f64>) -> ScenarioConfig {
        self.speeds = speeds;
        self
    }

    /// Sets the churn-period grid.
    pub fn with_churn_periods(mut self, churn_periods: Vec<u64>) -> ScenarioConfig {
        self.churn_periods = churn_periods;
        self
    }

    /// The initial deployment every scenario of this search starts from.
    /// Callers construct their algorithm instance against this graph.
    pub fn initial_graph(&self) -> Graph {
        self.motion_spec(0.0).initial_graph(self.n)
    }

    /// The motion spec of a scenario with the given speed.
    pub fn motion_spec(&self, speed: f64) -> MotionSpec {
        MotionSpec::new(
            self.points_seed,
            self.comm_radius,
            MotionModel::RandomWaypoint { speed, pause: self.pause },
        )
    }

    fn validate(&self) {
        assert!(self.n >= 2, "scenario search needs at least two nodes");
        assert!(!self.speeds.is_empty(), "scenario search needs a non-empty speed grid");
        assert!(!self.churn_periods.is_empty(), "scenario search needs a non-empty period grid");
        assert!(
            self.byz_count < self.n,
            "cannot place {} byzantine nodes on {} vertices and still churn",
            self.byz_count,
            self.n
        );
        for &p in &self.churn_periods {
            assert!(p >= 1, "churn periods must be at least one round");
            assert!(
                2 * self.churn_events as u64 * p < self.max_rounds,
                "churn schedule (2*{} events x period {p}) must fit the {}-round budget",
                self.churn_events,
                self.max_rounds
            );
        }
    }
}

/// One point of the scenario space: concrete grid indices plus a placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Index into [`ScenarioConfig::speeds`].
    pub speed_idx: usize,
    /// Index into [`ScenarioConfig::churn_periods`].
    pub period_idx: usize,
    /// Byzantine placement in the initial deployment (sorted,
    /// deduplicated; empty when `byz_count == 0`).
    pub placement: Vec<NodeId>,
}

/// What one scenario evaluation observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioScore {
    /// First round (after the last scheduled churn event) at which the
    /// configuration was a valid MIS on the current graph outside the
    /// containment radius, or `max_rounds + 1` if the budget ran out first.
    pub score: u64,
    /// Whether that round was reached within the budget.
    pub stabilized: bool,
}

/// The strongest dynamic-topology adversary found by
/// [`worst_scenario_search`].
#[derive(Debug, Clone)]
pub struct WorstScenario {
    /// The scenario itself (replayable via [`evaluate_scenario`]).
    pub scenario: Scenario,
    /// The motion speed `scenario.speed_idx` selects.
    pub speed: f64,
    /// The churn period `scenario.period_idx` selects.
    pub churn_period: u64,
    /// The score of the worst scenario (see [`ScenarioScore::score`]).
    pub score: u64,
    /// `true` if even the worst scenario found eventually stabilized.
    pub stabilized: bool,
    /// Candidate evaluations performed: the initial one plus one per
    /// iteration, or just the initial one when no dimension can move.
    pub evaluations: usize,
    /// Accepted strict improvements during the climb.
    pub improvements: usize,
}

/// The deterministic churn schedule of a scenario: `churn_events`
/// leave/rejoin pairs at multiples of the selected period, victims cycling
/// round-robin through the non-Byzantine nodes (pair `k` leaves at
/// `(2k+1) * period` and rejoins at `(2k+2) * period` with no explicit
/// edges — the motion layer restores its radius edges at the same
/// boundary). Pure function of config and scenario, so a certificate
/// replay rebuilds the identical plan.
pub fn churn_plan_for(config: &ScenarioConfig, scenario: &Scenario) -> ChurnPlan {
    let period = config.churn_periods[scenario.period_idx];
    let eligible: Vec<NodeId> = (0..config.n).filter(|v| !scenario.placement.contains(v)).collect();
    let mut plan = ChurnPlan::new();
    for k in 0..config.churn_events as u64 {
        let victim = eligible[(k as usize) % eligible.len()];
        plan = plan
            .with_event((2 * k + 1) * period, ChurnAction::NodeLeave(victim))
            .with_event((2 * k + 2) * period, ChurnAction::NodeJoin(victim, vec![]));
    }
    plan
}

/// Scores one scenario: runs the moving deployment with its churn schedule
/// and Byzantine plan under `config.seed`, and scores the first round
/// [`crate::containment::run_moving_contained`] finds at
/// `containment_radius` (`max_rounds + 1` if none). Deterministic: same
/// inputs, same score.
///
/// # Errors
///
/// Returns the [`PlanError`] of a placement or behavior the run loop
/// rejects for this protocol, or of a `graph` that is not the deployment
/// of [`ScenarioConfig::initial_graph`].
///
/// # Panics
///
/// Panics if a grid index is out of range.
pub fn evaluate_scenario<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    config: &ScenarioConfig,
    scenario: &Scenario,
) -> Result<ScenarioScore, PlanError> {
    let mut byz = ByzantinePlan::new();
    for &v in &scenario.placement {
        byz.set_behavior(v, config.behavior.to_behavior());
    }
    let run_config = ResumableConfig::new(config.seed)
        .with_max_rounds(config.max_rounds)
        .with_motion(config.motion_spec(config.speeds[scenario.speed_idx]))
        .with_churn(churn_plan_for(config, scenario))
        .with_byzantine(byz);
    let (round, _) = run_moving_contained(graph, algo, run_config, config.containment_radius)?;
    Ok(ScenarioScore { score: round.unwrap_or(config.max_rounds + 1), stabilized: round.is_some() })
}

/// Deterministic hill-climbing search for the motion speed, churn period
/// and Byzantine placement that jointly maximize the time to a certified
/// configuration.
///
/// Each iteration mutates one dimension of the incumbent uniformly at
/// random — the speed index, the period index, or (when there are
/// Byzantine nodes) one placement site — and keeps the mutant only on a
/// *strict* score improvement. When no dimension can move (one speed, one
/// period and no Byzantine node) the climb stops after the initial
/// evaluation. Same graph, algorithm and config always produce the same
/// result.
///
/// # Errors
///
/// Returns the [`PlanError`] of the first scenario the run loop rejects
/// (see [`evaluate_scenario`]).
///
/// # Panics
///
/// Panics if a grid is empty, the churn schedule overflows the budget or
/// `byz_count >= n`.
pub fn worst_scenario_search<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    config: &ScenarioConfig,
) -> Result<WorstScenario, PlanError> {
    config.validate();
    let mut rng = aux_rng(config.seed, SCEN_RNG_PURPOSE);
    let placement = draw_placement(&mut rng, config.n, config.byz_count);
    let start = Scenario {
        speed_idx: rng.gen_range(0..config.speeds.len()),
        period_idx: rng.gen_range(0..config.churn_periods.len()),
        placement,
    };

    // Which dimensions can move at all: a one-point grid or an empty
    // placement is frozen, and mutating it would burn an iteration on a
    // guaranteed-equal candidate.
    let mut dims: Vec<u8> = Vec::new();
    if config.speeds.len() > 1 {
        dims.push(0);
    }
    if config.churn_periods.len() > 1 {
        dims.push(1);
    }
    if config.byz_count >= 1 {
        dims.push(2);
    }
    // A grid index resampled away from the incumbent's.
    let reindex = |rng: &mut Pcg64Mcg, len: usize, current: usize| loop {
        let idx = rng.gen_range(0..len);
        if idx != current {
            break idx;
        }
    };
    let mutate = |best: &Scenario| {
        if dims.is_empty() {
            return None;
        }
        let mut candidate = best.clone();
        match dims[rng.gen_range(0..dims.len())] {
            0 => candidate.speed_idx = reindex(&mut rng, config.speeds.len(), best.speed_idx),
            1 => {
                candidate.period_idx =
                    reindex(&mut rng, config.churn_periods.len(), best.period_idx)
            }
            _ => relocate(&mut rng, &mut candidate.placement, config.n),
        }
        Some(candidate)
    };
    let climbed = climb(start, config.iterations, mutate, |scenario| {
        evaluate_scenario(graph, algo, config, scenario).map(|s| (s.score, s))
    })?;

    Ok(WorstScenario {
        speed: config.speeds[climbed.best.speed_idx],
        churn_period: config.churn_periods[climbed.best.period_idx],
        scenario: climbed.best,
        score: climbed.score,
        stabilized: climbed.payload.stabilized,
        evaluations: climbed.evaluations,
        improvements: climbed.improvements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::Algorithm1;
    use crate::policy::LmaxPolicy;
    use graphs::generators::geometric::radius_for_expected_degree;

    fn small_config(seed: u64) -> ScenarioConfig {
        ScenarioConfig::new(seed, 20, 0xF00D, radius_for_expected_degree(20, 5.0))
            .with_iterations(4)
            .with_max_rounds(400)
            .with_churn_events(1)
            .with_speeds(vec![0.0, 0.02])
            .with_churn_periods(vec![15, 30])
    }

    #[test]
    fn search_is_deterministic_and_replayable() {
        let config = small_config(11);
        let g = config.initial_graph();
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let a = worst_scenario_search(&g, &algo, &config).unwrap();
        let b = worst_scenario_search(&g, &algo, &config).unwrap();
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.score, b.score);
        assert_eq!(a.improvements, b.improvements);
        // The certificate contract: replaying the worst scenario
        // reproduces the certified score exactly.
        let replay = evaluate_scenario(&g, &algo, &config, &a.scenario).unwrap();
        assert_eq!(replay.score, a.score);
        assert_eq!(replay.stabilized, a.stabilized);
    }

    #[test]
    fn zero_byzantine_searches_motion_and_churn_only() {
        // A generous budget: the search *maximizes* time-to-stabilization,
        // so the worst motion x churn combination needs the headroom.
        let config = small_config(3).with_byz_count(0).with_max_rounds(4_000);
        let g = config.initial_graph();
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let worst = worst_scenario_search(&g, &algo, &config).unwrap();
        assert!(worst.scenario.placement.is_empty());
        // With no adversary the radius exemption is vacuous, so the score
        // is a plain time-to-valid-MIS on the moving graph.
        assert!(worst.stabilized, "score {}", worst.score);
        assert!(worst.score <= 4_000);
    }

    #[test]
    fn frozen_space_reports_the_one_evaluation_it_makes() {
        // One speed, one period, no Byzantine node: nothing can move, so
        // the climb stops after scoring its start.
        let config = small_config(4)
            .with_byz_count(0)
            .with_speeds(vec![0.01])
            .with_churn_periods(vec![15])
            .with_iterations(5);
        let g = config.initial_graph();
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let worst = worst_scenario_search(&g, &algo, &config).unwrap();
        assert_eq!(worst.evaluations, 1);
        assert_eq!(worst.improvements, 0);
    }

    #[test]
    fn liar_on_a_single_channel_algorithm_is_a_plan_error() {
        let config = small_config(6).with_behavior(SearchBehavior::Channel2Liar);
        let g = config.initial_graph();
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let err = worst_scenario_search(&g, &algo, &config).unwrap_err();
        assert!(matches!(err, PlanError::Byzantine(_)), "{err}");
        let scenario = Scenario { speed_idx: 0, period_idx: 0, placement: vec![3] };
        let err = evaluate_scenario(&g, &algo, &config, &scenario).unwrap_err();
        assert!(matches!(err, PlanError::Byzantine(_)), "{err}");
    }

    #[test]
    fn churn_plan_is_a_pure_function_of_the_scenario() {
        let config = small_config(5);
        let scenario = Scenario { speed_idx: 1, period_idx: 0, placement: vec![0] };
        let a = churn_plan_for(&config, &scenario);
        let b = churn_plan_for(&config, &scenario);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Victims avoid the placement, and the pair lands at (p, 2p).
        let rendered = format!("{a:?}");
        assert!(rendered.contains("15"), "{rendered}");
        assert!(rendered.contains("30"), "{rendered}");
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn overlong_churn_schedule_is_rejected() {
        let config = small_config(1).with_churn_periods(vec![500]);
        let g = config.initial_graph();
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let _ = worst_scenario_search(&g, &algo, &config);
    }

    #[test]
    #[should_panic(expected = "non-empty speed grid")]
    fn empty_speed_grid_is_rejected() {
        let config = small_config(1).with_speeds(vec![]);
        let g = config.initial_graph();
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let _ = worst_scenario_search(&g, &algo, &config);
    }

    #[test]
    fn higher_speed_grid_changes_outcomes() {
        // Sanity that the motion dimension actually reaches the simulator:
        // two configs differing only in their (single-point) speed grids
        // must evaluate the same scenario indices to different traces in
        // general. We assert on the weaker, deterministic property that
        // both evaluate successfully and produce in-budget or
        // budget-exhausted scores.
        let base = small_config(7).with_speeds(vec![0.0]).with_iterations(0);
        let fast = small_config(7).with_speeds(vec![0.08]).with_iterations(0);
        let g = base.initial_graph();
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let a = worst_scenario_search(&g, &algo, &base).unwrap();
        let b = worst_scenario_search(&g, &algo, &fast).unwrap();
        assert!(a.score <= 401 && b.score <= 401);
        assert_eq!(a.speed, 0.0);
        assert_eq!(b.speed, 0.08);
    }
}
