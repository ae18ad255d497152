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
//! adversary ([`crate::containment::stabilized_except`], recomputed against
//! the moved topology), after the last scheduled churn event. Higher is
//! worse for the protocol; budget exhaustion scores `max_rounds + 1`.
//!
//! The search is the same fixed-budget, strict-improvement local search as
//! the static one, under a dedicated [`SCEN_RNG_PURPOSE`] stream: the same
//! seed, grids and budget always select the same [`WorstScenario`]. The
//! `SCEN` experiment serializes the result as `results/SCEN-certificate.json`
//! and anyone can replay the certified scenario with [`evaluate_scenario`]
//! to reproduce the certified score exactly.

use beeping::byzantine::ByzantinePlan;
use beeping::churn::{ChurnAction, ChurnPlan};
use beeping::dynamic::MotionSpec;
use beeping::rng::aux_rng;
use graphs::motion::MotionModel;
use graphs::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::adversary::SearchBehavior;
use crate::containment::{byz_distances, stabilized_except};
use crate::resumable::{ResumableConfig, ResumableRun, RunStatus};
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
    /// Candidate evaluations performed (initial + iterations).
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
/// and Byzantine plan under `config.seed`, checking after every round —
/// once the last churn event has applied — whether every active node
/// outside `containment_radius` hops of the adversary (distances on the
/// *current* graph) is stable. Deterministic: same inputs, same score.
///
/// # Panics
///
/// Panics if `graph` is not the deployment of
/// [`ScenarioConfig::initial_graph`], if a grid index is out of range, or
/// if the placement/behavior is invalid for the protocol.
pub fn evaluate_scenario<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    config: &ScenarioConfig,
    scenario: &Scenario,
) -> ScenarioScore {
    let speed = config.speeds[scenario.speed_idx];
    let period = config.churn_periods[scenario.period_idx];
    let mut byz = ByzantinePlan::new();
    for &v in &scenario.placement {
        byz.set_behavior(v, config.behavior.to_behavior());
    }
    let run_config = ResumableConfig::new(config.seed)
        .with_max_rounds(config.max_rounds)
        .with_motion(config.motion_spec(speed))
        .with_churn(churn_plan_for(config, scenario))
        .with_byzantine(byz);
    let last_event = 2 * config.churn_events as u64 * period;
    let mut run = ResumableRun::new(graph, algo, run_config)
        .expect("scenario plans are valid by construction");
    loop {
        let status = run.tick();
        let r = run.round();
        if r >= last_event {
            let current = run.graph();
            let dist = byz_distances(current, &scenario.placement);
            if stabilized_except(
                algo,
                current,
                run.levels(),
                run.active(),
                &dist,
                config.containment_radius,
            ) {
                return ScenarioScore { score: r, stabilized: true };
            }
        }
        if status != RunStatus::Running {
            return ScenarioScore { score: config.max_rounds + 1, stabilized: false };
        }
    }
}

/// Deterministic hill-climbing search for the motion speed, churn period
/// and Byzantine placement that jointly maximize the time to a certified
/// configuration.
///
/// Each iteration mutates one dimension of the incumbent uniformly at
/// random — the speed index, the period index, or (when there are
/// Byzantine nodes) one placement site — and keeps the mutant only on a
/// *strict* score improvement. Same graph, algorithm and config always
/// produce the same result.
///
/// # Panics
///
/// Panics if a grid is empty, the churn schedule overflows the budget,
/// `byz_count >= n`, or `graph` is not the config's initial deployment.
pub fn worst_scenario_search<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    config: &ScenarioConfig,
) -> WorstScenario {
    config.validate();
    let mut rng = aux_rng(config.seed, SCEN_RNG_PURPOSE);

    let mut pool: Vec<NodeId> = (0..config.n).collect();
    pool.shuffle(&mut rng);
    let mut placement: Vec<NodeId> = pool[..config.byz_count].to_vec();
    placement.sort_unstable();
    let mut best = Scenario {
        speed_idx: rng.gen_range(0..config.speeds.len()),
        period_idx: rng.gen_range(0..config.churn_periods.len()),
        placement,
    };
    let mut best_score = evaluate_scenario(graph, algo, config, &best);
    let mut improvements = 0;

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
    if config.byz_count >= 1 && config.byz_count < config.n {
        dims.push(2);
    }

    for _ in 0..config.iterations {
        if dims.is_empty() {
            break;
        }
        let mut candidate = best.clone();
        match dims[rng.gen_range(0..dims.len())] {
            0 => {
                // Resample the speed index away from the incumbent.
                loop {
                    let idx = rng.gen_range(0..config.speeds.len());
                    if idx != candidate.speed_idx {
                        candidate.speed_idx = idx;
                        break;
                    }
                }
            }
            1 => loop {
                let idx = rng.gen_range(0..config.churn_periods.len());
                if idx != candidate.period_idx {
                    candidate.period_idx = idx;
                    break;
                }
            },
            _ => {
                // Relocate one Byzantine node to a random non-Byzantine
                // site (exactly the static search's placement move).
                let slot = rng.gen_range(0..candidate.placement.len());
                loop {
                    let target = rng.gen_range(0..config.n);
                    if !candidate.placement.contains(&target) {
                        candidate.placement[slot] = target;
                        break;
                    }
                }
                candidate.placement.sort_unstable();
            }
        }
        let score = evaluate_scenario(graph, algo, config, &candidate);
        if score.score > best_score.score {
            best = candidate;
            best_score = score;
            improvements += 1;
        }
    }

    WorstScenario {
        speed: config.speeds[best.speed_idx],
        churn_period: config.churn_periods[best.period_idx],
        scenario: best,
        score: best_score.score,
        stabilized: best_score.stabilized,
        evaluations: config.iterations + 1,
        improvements,
    }
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
        let a = worst_scenario_search(&g, &algo, &config);
        let b = worst_scenario_search(&g, &algo, &config);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.score, b.score);
        assert_eq!(a.improvements, b.improvements);
        // The certificate contract: replaying the worst scenario
        // reproduces the certified score exactly.
        let replay = evaluate_scenario(&g, &algo, &config, &a.scenario);
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
        let worst = worst_scenario_search(&g, &algo, &config);
        assert!(worst.scenario.placement.is_empty());
        // With no adversary the radius exemption is vacuous, so the score
        // is a plain time-to-valid-MIS on the moving graph.
        assert!(worst.stabilized, "score {}", worst.score);
        assert!(worst.score <= 4_000);
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
        worst_scenario_search(&g, &algo, &config);
    }

    #[test]
    #[should_panic(expected = "non-empty speed grid")]
    fn empty_speed_grid_is_rejected() {
        let config = small_config(1).with_speeds(vec![]);
        let g = config.initial_graph();
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        worst_scenario_search(&g, &algo, &config);
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
        let a = worst_scenario_search(&g, &algo, &base);
        let b = worst_scenario_search(&g, &algo, &fast);
        assert!(a.score <= 401 && b.score <= 401);
        assert_eq!(a.speed, 0.0);
        assert_eq!(b.speed, 0.08);
    }
}
