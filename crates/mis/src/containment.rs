//! Containment certification for Byzantine runs.
//!
//! No self-stabilizing algorithm can stabilize *at* a permanently deviating
//! node (a [`beeping::byzantine::ByzantineBehavior`] site): a stuck beeper
//! silences its neighborhood forever, a babbler keeps resetting it. The
//! measurable robustness claim is **containment** — disruption stays within
//! a small graph radius of the Byzantine sites while every other node
//! converges and stays converged.
//!
//! This module certifies that claim on the *correct subgraph*:
//!
//! - [`byz_distances`]: BFS distance from every node to its nearest
//!   Byzantine site (the containment metric);
//! - [`stabilized_except`]: the active-aware stability predicate of
//!   [`crate::recovery`] with its quantifier restricted to correct nodes at
//!   distance `> r` from every Byzantine site;
//! - [`disruption_radius`]: the smallest such `r` — `0` means the whole
//!   correct network is stable, [`usize::MAX`] means an unstable node is
//!   unreachable from every Byzantine site (disruption the adversary cannot
//!   explain — never caused by a contained Byzantine fault);
//! - [`run_contained`]: a full containment measurement, checked before each
//!   step after a burn-in, with per-round trajectories reusing
//!   [`crate::dynamics::RoundStats`];
//! - [`run_moving_contained`]: the moving-graph rule of MOB and SCEN,
//!   checked after each tick on the current graph.
//!
//! The quantifier-restriction semantics matter: which nodes *must be
//! stable* shrinks with `r`, but what counts as a claimed MIS membership is
//! evaluated on the full active graph (Byzantine nodes included), so a
//! correct node dominated by a stuck beeper counts as stable. Two
//! consequences, both asserted by tests: with an empty Byzantine set,
//! [`stabilized_except`] degenerates to [`crate::recovery::stabilized_active`]
//! at every radius, and `disruption_radius == 0` whenever
//! `stabilized_active` holds on the full graph. Certificates that must not
//! credit a liar's claim use [`correct_claimed_mis`], which strips the
//! Byzantine nodes themselves from the membership bitmap.

use beeping::SimGraph;
use graphs::{Graph, NodeId};
use telemetry::MarkerKind;

use crate::dynamics::{round_stats, RoundStats};
use crate::levels::Level;
use crate::recovery::{claimed_mis, stable_where};
use crate::resumable::{mark, PlanError, ResumableConfig, ResumableRun, RunLoop, RunStatus};
use crate::runner::{RunConfig, SelfStabilizingMis};

/// BFS distance from every node to its nearest node in `byz` (multi-source
/// BFS). Byzantine nodes are at distance `0`; nodes unreachable from every
/// Byzantine site — including every node when `byz` is empty — are at
/// [`usize::MAX`].
///
/// # Panics
///
/// Panics if a Byzantine node id is `>= graph.len()`.
pub fn byz_distances(graph: &Graph, byz: &[NodeId]) -> Vec<usize> {
    let mut dist = vec![usize::MAX; graph.len()];
    let mut queue = std::collections::VecDeque::new();
    for &b in byz {
        assert!(b < graph.len(), "byzantine node {b} out of range for n={}", graph.len());
        if dist[b] != 0 {
            dist[b] = 0;
            queue.push_back(b);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[v];
        for &u in graph.neighbors(v) {
            let u = u as usize;
            if dist[u] == usize::MAX {
                dist[u] = d + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// [`crate::recovery::stabilized_active`] restricted to correct nodes far
/// from the adversary: `true` iff every active node at distance `> radius`
/// from every Byzantine site is stable (`dist` as computed by
/// [`byz_distances`]). Byzantine nodes themselves (distance `0`) are never
/// quantified over for any radius.
///
/// With an empty Byzantine set every node is at `usize::MAX > radius`, so
/// the predicate degenerates to `stabilized_active` on the full graph.
///
/// # Panics
///
/// Panics if `levels`, `active` or `dist` length differs from
/// `graph.len()`.
pub fn stabilized_except<A: SelfStabilizingMis>(
    algo: &A,
    graph: &Graph,
    levels: &[Level],
    active: &[bool],
    dist: &[usize],
    radius: usize,
) -> bool {
    assert_eq!(dist.len(), graph.len(), "one distance per vertex");
    stable_where(graph, &claimed_mis(algo, graph, levels, active), |v| active[v])
        .enumerate()
        .all(|(v, stable)| stable || !active[v] || dist[v] <= radius)
}

/// The disruption radius of a configuration: the smallest `r` such that
/// [`stabilized_except`] holds at radius `r`.
///
/// `0` means every active node outside the Byzantine set itself is stable
/// (in particular, `0` whenever [`crate::recovery::stabilized_active`]
/// holds on the full graph). [`usize::MAX`] means some failing node is
/// unreachable from every Byzantine site, so no finite radius around the
/// adversary explains the disruption.
///
/// # Panics
///
/// Panics if `levels`, `active` or `dist` length differs from
/// `graph.len()`.
pub fn disruption_radius_with<A: SelfStabilizingMis>(
    algo: &A,
    graph: &Graph,
    levels: &[Level],
    active: &[bool],
    dist: &[usize],
) -> usize {
    assert_eq!(dist.len(), graph.len(), "one distance per vertex");
    stable_where(graph, &claimed_mis(algo, graph, levels, active), |v| active[v])
        .enumerate()
        .filter(|&(v, stable)| !stable && active[v] && dist[v] > 0)
        .map(|(v, _)| dist[v])
        .max()
        .unwrap_or(0)
}

/// [`disruption_radius_with`], computing [`byz_distances`] internally.
///
/// # Panics
///
/// Panics if a Byzantine node id is out of range or a slice length differs
/// from `graph.len()`.
pub fn disruption_radius<A: SelfStabilizingMis>(
    algo: &A,
    graph: &Graph,
    levels: &[Level],
    active: &[bool],
    byz: &[NodeId],
) -> usize {
    disruption_radius_with(algo, graph, levels, active, &byz_distances(graph, byz))
}

/// [`claimed_mis`] with the Byzantine nodes themselves removed: the
/// membership bitmap a containment certificate may credit. A
/// [`beeping::byzantine::ByzantineBehavior::Channel2Liar`] asserts
/// membership forever; it must never appear in a certified MIS.
///
/// # Panics
///
/// Panics if `levels` or `active` length differs from `graph.len()`, or if
/// a Byzantine node id is out of range.
pub fn correct_claimed_mis<A: SelfStabilizingMis>(
    algo: &A,
    graph: &Graph,
    levels: &[Level],
    active: &[bool],
    byz: &[NodeId],
) -> Vec<bool> {
    let mut mis = claimed_mis(algo, graph, levels, active);
    for &b in byz {
        assert!(b < mis.len(), "byzantine node {b} out of range for n={}", mis.len());
        mis[b] = false;
    }
    mis
}

/// One per-round observation of a containment run.
#[derive(Debug, Clone)]
pub struct ContainmentSample {
    /// Rounds executed when the sample was taken (0 = initial
    /// configuration).
    pub round: u64,
    /// [`disruption_radius_with`] of the configuration.
    pub radius: usize,
    /// Full-graph convergence statistics (Byzantine nodes included — their
    /// levels are real RAM contents).
    pub stats: RoundStats,
}

/// The result of a [`run_contained`] measurement.
#[derive(Debug, Clone)]
pub struct ContainmentOutcome {
    /// First round `>= burn_in` whose disruption radius was within the
    /// certified radius, or `None` if the budget ran out first.
    pub contained_round: Option<u64>,
    /// Disruption radius of the final configuration.
    pub final_radius: usize,
    /// Rounds executed.
    pub rounds_run: u64,
    /// [`correct_claimed_mis`] of the final configuration.
    pub correct_mis: Vec<bool>,
    /// Final levels (Byzantine nodes included).
    pub levels: Vec<Level>,
    /// Per-round samples, when requested.
    pub trajectory: Option<Vec<ContainmentSample>>,
}

impl ContainmentOutcome {
    /// `true` if the run certified containment within the budget.
    pub fn is_contained(&self) -> bool {
        self.contained_round.is_some()
    }
}

/// Runs `algo` under `config` — whose [`RunConfig::byzantine`] plan names
/// the adversary — until the first round `>= burn_in` whose disruption
/// radius is `<= radius`, or until `config.max_rounds` runs out. Randomized
/// behaviors (babblers) make per-round radii fluctuate, so the measurement
/// is "first contained round after burn-in", not "contained at every
/// round"; use [`crate::theory::burn_in_horizon`] for the paper-aligned
/// burn-in. With `record_trajectory`, a [`ContainmentSample`] is recorded
/// per round (including round 0).
///
/// A Byzantine node's RAM is adversary-controlled and legitimately
/// violates protocol invariants, so a debug build does not install the
/// [`crate::invariant::check_round`] for a non-empty plan.
/// (Crash-restart resurrection closures must still return levels inside the
/// state space — the protocol's own `transmit` executes on them.)
///
/// # Errors
///
/// Returns a [`PlanError`] if a schedule in `config` is invalid for this
/// graph and protocol (see [`beeping::byzantine::ByzantinePlan::validate`]).
pub fn run_contained<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    config: &RunConfig,
    radius: usize,
    burn_in: u64,
    record_trajectory: bool,
) -> Result<ContainmentOutcome, PlanError> {
    let mut run = RunLoop::start(SimGraph::Borrowed(graph), algo, config.clone(), "containment")?;
    let byz = config.byzantine.nodes();
    let tele = &config.telemetry;
    mark(tele, 0, MarkerKind::Byzantine, "plan", byz.len() as u64);
    let dist = byz_distances(graph, &byz);
    let lmax = algo.policy().lmax_values();
    let mut trajectory = record_trajectory.then(Vec::new);
    let (contained_round, final_radius) = loop {
        run.apply_events();
        let round = run.round();
        let current = disruption_radius_with(algo, run.graph(), run.levels(), run.active(), &dist);
        if let Some(t) = &mut trajectory {
            t.push(ContainmentSample {
                round,
                radius: current,
                stats: round_stats(run.graph(), lmax, run.levels(), round as usize),
            });
        }
        if round >= burn_in && current <= radius {
            break (Some(round), current);
        }
        if round >= config.max_rounds {
            break (None, current);
        }
        run.step();
    };

    if tele.is_enabled() {
        tele.gauge_set(
            "containment.final_radius",
            if final_radius == usize::MAX { f64::INFINITY } else { final_radius as f64 },
        );
    }
    let status =
        if contained_round.is_some() { RunStatus::Stabilized } else { RunStatus::BudgetExhausted };
    run.finish(status, contained_round);

    Ok(ContainmentOutcome {
        contained_round,
        final_radius,
        rounds_run: run.round(),
        correct_mis: correct_claimed_mis(algo, run.graph(), run.levels(), run.active(), &byz),
        levels: run.levels().to_vec(),
        trajectory,
    })
}

/// Runs `algo` under `config` (typically a moving deployment) and returns
/// the first round at which the configuration is valid *on the current
/// graph* outside `radius` hops of `config.byzantine`'s nodes, or `None` if
/// the budget ran out first, paired with the disruption radius there. It
/// checks after each [`RunLoop::tick`] once the round has reached the last
/// scheduled event, recomputing hop distances on the current graph.
///
/// # Errors
///
/// Returns a [`PlanError`] if a schedule in `config` is invalid for this
/// graph and protocol.
pub fn run_moving_contained<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    config: ResumableConfig,
    radius: usize,
) -> Result<(Option<u64>, usize), PlanError> {
    let byz = config.byzantine.nodes();
    let mut run = ResumableRun::new(graph, algo, config)?;
    loop {
        let status = run.tick();
        let round = run.round();
        if round >= run.last_event_round() {
            let dist = byz_distances(run.graph(), &byz);
            if stabilized_except(algo, run.graph(), run.levels(), run.active(), &dist, radius) {
                let final_radius =
                    disruption_radius_with(algo, run.graph(), run.levels(), run.active(), &dist);
                return Ok((Some(round), final_radius));
            }
        }
        if status != RunStatus::Running {
            let final_radius =
                disruption_radius(algo, run.graph(), run.levels(), run.active(), &byz);
            return Ok((None, final_radius));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::Algorithm1;
    use crate::algorithm2::Algorithm2;
    use crate::policy::LmaxPolicy;
    use crate::recovery::stabilized_active;
    use crate::theory::burn_in_horizon;
    use beeping::byzantine::{ByzantineBehavior, ByzantinePlan};
    use beeping::dynamic::MotionSpec;
    use graphs::generators::geometric::radius_for_expected_degree;
    use graphs::generators::{classic, random};
    use graphs::motion::MotionModel;

    #[test]
    fn distances_multi_source() {
        let g = classic::path(6);
        let d = byz_distances(&g, &[0, 5]);
        assert_eq!(d, vec![0, 1, 2, 2, 1, 0]);
        assert_eq!(byz_distances(&g, &[]), vec![usize::MAX; 6]);
        // Duplicate sources are harmless.
        assert_eq!(byz_distances(&g, &[2, 2]), vec![2, 1, 0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn distances_reject_bad_source() {
        let g = classic::path(3);
        byz_distances(&g, &[7]);
    }

    #[test]
    fn radius_zero_iff_correct_graph_stable() {
        // Path 0-1-2-3-4, byz node 0 stuck beeping. A configuration where
        // everyone else is stable: 1 dominated by the byz claiming site?
        // Use explicit levels: byz at claiming, 1 at lmax, 2 claiming,
        // 3 at lmax, 4 claiming.
        let g = classic::path(5);
        let algo = Algorithm1::new(&g, LmaxPolicy::fixed(5, 4));
        let claim = -4;
        let levels = vec![claim, 4, claim, 4, claim];
        let active = vec![true; 5];
        assert_eq!(disruption_radius(&algo, &g, &levels, &active, &[0]), 0);
        assert!(stabilized_except(&algo, &g, &levels, &active, &byz_distances(&g, &[0]), 0));
        // Break node 4 (distance 4 from the byz site): radius jumps to 4.
        let levels = vec![claim, 4, claim, 4, 1];
        assert_eq!(disruption_radius(&algo, &g, &levels, &active, &[0]), 4);
        // An unstable node unreachable from the adversary is MAX.
        let mut b = graphs::GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        let g2 = b.build(); // 2 and 3 isolated
        let algo2 = Algorithm1::new(&g2, LmaxPolicy::fixed(4, 3));
        let levels2 = vec![-3, 3, 1, -3];
        assert_eq!(disruption_radius(&algo2, &g2, &levels2, &[true; 4], &[0]), usize::MAX);
    }

    #[test]
    fn empty_byzantine_set_matches_stabilized_active() {
        let g = random::gnp(40, 0.1, 3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let outcome = algo.run(&g, RunConfig::new(11)).expect("stabilizes");
        let active = vec![true; g.len()];
        assert!(stabilized_active(&algo, &g, &outcome.levels, &active));
        assert_eq!(disruption_radius(&algo, &g, &outcome.levels, &active, &[]), 0);
        let dist = byz_distances(&g, &[]);
        for r in [0, 1, 5] {
            assert!(stabilized_except(&algo, &g, &outcome.levels, &active, &dist, r));
        }
    }

    #[test]
    fn stuck_beeper_contained_on_cycle() {
        let g = classic::cycle(32);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let plan = ByzantinePlan::new().with_behavior(5, ByzantineBehavior::StuckBeep);
        let config = RunConfig::new(3).with_max_rounds(50_000).with_byzantine(plan);
        let burn_in = burn_in_horizon(algo.policy());
        let outcome = run_contained(&g, &algo, &config, 2, burn_in, true).unwrap();
        assert!(outcome.is_contained(), "final radius {}", outcome.final_radius);
        assert!(outcome.final_radius <= 2);
        assert!(!outcome.correct_mis[5], "byz node never certified");
        let t = outcome.trajectory.expect("recorded");
        assert_eq!(t.len() as u64, outcome.rounds_run + 1);
        assert_eq!(t.last().unwrap().radius, outcome.final_radius);
        assert!(t.last().unwrap().round >= burn_in);
    }

    #[test]
    fn liar_contained_and_never_certified_alg2() {
        let g = classic::cycle(24);
        let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
        let plan = ByzantinePlan::new().with_behavior(7, ByzantineBehavior::Channel2Liar);
        let config = RunConfig::new(5).with_max_rounds(50_000).with_byzantine(plan);
        let burn_in = burn_in_horizon(algo.policy());
        let outcome = run_contained(&g, &algo, &config, 1, burn_in, false).unwrap();
        assert!(outcome.is_contained(), "final radius {}", outcome.final_radius);
        assert!(!outcome.correct_mis[7]);
    }

    #[test]
    fn trajectory_rounds_are_consecutive() {
        let g = classic::cycle(16);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let plan = ByzantinePlan::new().with_behavior(0, ByzantineBehavior::StuckSilent);
        let config = RunConfig::new(1).with_max_rounds(20).with_byzantine(plan);
        let outcome = run_contained(&g, &algo, &config, 2, 20, true).unwrap();
        let t = outcome.trajectory.expect("recorded");
        for (i, s) in t.iter().enumerate() {
            assert_eq!(s.round, i as u64);
            assert_eq!(s.stats.round, i);
        }
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let g = random::gnp(30, 0.12, 9);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let plan = ByzantinePlan::new().with_behavior(3, ByzantineBehavior::Babbler(0.5));
        let config = RunConfig::new(21).with_max_rounds(50_000).with_byzantine(plan);
        let burn_in = burn_in_horizon(algo.policy());
        let a = run_contained(&g, &algo, &config, 2, burn_in, false).unwrap();
        let b = run_contained(&g, &algo, &config, 2, burn_in, false).unwrap();
        assert_eq!(a.contained_round, b.contained_round);
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.correct_mis, b.correct_mis);
        assert_eq!(a.final_radius, b.final_radius);
    }

    #[test]
    fn moving_rule_without_adversary_stops_where_the_run_loop_does() {
        // No Byzantine node, no churn, speed 0: the moving rule and the run
        // loop's own stopping rule judge the same configurations, so both
        // stop at the same round.
        let spec = MotionSpec::new(
            0xF00D,
            radius_for_expected_degree(40, 5.0),
            MotionModel::RandomWaypoint { speed: 0.0, pause: 2 },
        );
        let g = spec.initial_graph(40);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        for seed in 0..6 {
            let config = ResumableConfig::new(seed).with_max_rounds(20_000).with_motion(spec);
            let (round, radius) = run_moving_contained(&g, &algo, config.clone(), 2).unwrap();
            let mut run = ResumableRun::new(&g, &algo, config).unwrap();
            run.run_to_completion();
            let outcome = run.outcome().expect("finished");
            assert!(outcome.stabilized, "seed {seed}");
            assert_eq!(round, Some(outcome.rounds_run), "seed {seed}");
            assert_eq!(radius, 0, "seed {seed}");
        }
    }

    #[test]
    fn out_of_range_byzantine_node_is_a_plan_error() {
        let g = classic::path(3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = RunConfig::new(0)
            .with_byzantine(ByzantinePlan::new().with_behavior(9, ByzantineBehavior::StuckBeep));
        let err = run_contained(&g, &algo, &config, 2, 0, false).unwrap_err();
        assert!(matches!(err, PlanError::Byzantine(_)), "{err}");
    }
}
