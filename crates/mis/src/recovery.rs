//! Per-event recovery tracking under the unreliable-network adversary.
//!
//! The paper measures one number: rounds from the last transient fault to
//! `S_t = V`. This module generalizes that measurement to executions where
//! the *network* misbehaves too — channel noise ([`beeping::channel`]),
//! topology churn ([`beeping::churn`]) and scheduled RAM faults
//! ([`beeping::faults`]) compose in one run — and segments the execution at
//! every disturbance, reporting per-event re-stabilization times and the
//! MIS-validity violations that occur during the transients.
//!
//! Because churn can deactivate nodes and rewire edges, stability is judged
//! *active-aware* against the live topology: [`claimed_mis`],
//! [`stabilized_active`] and [`independence_violations`] restrict the
//! paper's `I_t`/`S_t` machinery to the currently active subgraph.
//!
//! This module holds the crate's one full-sweep definition of each set:
//! `claimed_mis_where` computes `I_t` for either [`LevelSpace`] under a
//! participation predicate, and `stable_where` derives `S_t = I_t ∪ N(I_t)`
//! from it. Every other stability predicate — the algorithms'
//! `mis_members`/`is_stabilized`, [`crate::observer::Snapshot`], the
//! [`crate::invariant::check_round`] and [`crate::containment`] — is
//! a call into these two, with every node participating when the network
//! is fully active.
//!
//! The full sweeps are O(n + m) and serve as *oracles*:
//! the run loop ([`crate::resumable`]) answers the same questions every
//! round from an incremental tracker that re-judges only the 2-hop balls
//! of the nodes that changed, and the tests (plus a debug-build
//! cross-check of every stopping decision) hold it to these definitions.
//! [`run_noisy`]'s per-round observation reads that tracker.
//!
//! A structural invariant worth stating (and guarded by a property test):
//! a configuration with a live independence violation — two adjacent active
//! nodes both at their claiming level — can never satisfy
//! [`stabilized_active`], because a claiming neighbor blocks `I_t`
//! membership of both endpoints *and* of all their neighbors. "Stable MIS"
//! and "violation live" are mutually exclusive by construction.

use beeping::churn::ChurnAction;
use beeping::{SimGraph, Simulator};
use graphs::Graph;
use rand_pcg::Pcg64Mcg;

use crate::levels::{Level, LevelSpace};
use crate::resumable::{Judge, PlanError, RunLoop, RunStatus};
use crate::runner::{random_level, RunConfig, SelfStabilizingMis};

/// `I_t` restricted to the active subgraph: node `v` is a stable MIS member
/// iff it is active, sits at its claiming level, and every *active* neighbor
/// sits at its `ℓmax`. Inactive nodes are never members and never block a
/// neighbor's membership.
///
/// # Panics
///
/// Panics if `levels` or `active` length differs from `graph.len()`.
pub fn claimed_mis<A: SelfStabilizingMis>(
    algo: &A,
    graph: &Graph,
    levels: &[Level],
    active: &[bool],
) -> Vec<bool> {
    assert_eq!(active.len(), graph.len(), "one active flag per vertex");
    let lmax = algo.policy().lmax_values();
    if all_set(active) {
        claimed_mis_where(A::SPACE, graph, lmax, levels, |_| true)
    } else {
        claimed_mis_where(A::SPACE, graph, lmax, levels, |v| active[v])
    }
}

/// `true` iff every flag is set. Folds 64-flag chunks without an early exit
/// inside a chunk, so the scan vectorizes: on 2^16 flags it costs about a
/// tenth of a plain short-circuiting `all`, which matters once per round.
fn all_set(flags: &[bool]) -> bool {
    flags.chunks(64).all(|chunk| chunk.iter().fold(true, |acc, &f| acc & f))
}

/// The crate's one full-sweep `I_t`: node `v` is a member iff it
/// participates, sits at `space`'s claiming level, and every participating
/// neighbor sits at its `ℓmax`. Participation is a predicate, so a fully
/// active network (`|_| true`) compiles to a loop without per-neighbor flag
/// loads.
///
/// # Panics
///
/// Panics if `lmax` or `levels` length differs from `graph.len()`.
pub(crate) fn claimed_mis_where(
    space: LevelSpace,
    graph: &Graph,
    lmax: &[Level],
    levels: &[Level],
    active: impl Fn(usize) -> bool + Copy,
) -> Vec<bool> {
    assert_eq!(lmax.len(), graph.len(), "one ℓmax per vertex");
    assert_eq!(levels.len(), graph.len(), "one level per vertex");
    graph
        .nodes()
        .map(|v| {
            active(v)
                && levels[v] == space.claiming(lmax[v])
                && graph.neighbors(v).iter().all(|&u| {
                    let u = u as usize;
                    !active(u) || levels[u] == lmax[u]
                })
        })
        .collect()
}

/// The crate's one `S_t = I_t ∪ N(I_t)`, from an `I_t` bitmap: entry `v`
/// is `true` iff `v` participates and is a member or adjacent to one. Lazy,
/// so a caller asking whether `S_t` covers the network stops at the first
/// unstable node.
pub(crate) fn stable_where<'a>(
    graph: &'a Graph,
    in_mis: &'a [bool],
    active: impl Fn(usize) -> bool + 'a,
) -> impl Iterator<Item = bool> + 'a {
    graph.nodes().map(move |v| {
        active(v) && (in_mis[v] || graph.neighbors(v).iter().any(|&u| in_mis[u as usize]))
    })
}

/// `S_t = V` restricted to the active subgraph: every active node is in
/// [`claimed_mis`] or has an active neighbor that is. Vacuously `true` when
/// no node is active.
///
/// # Panics
///
/// Panics if `levels` or `active` length differs from `graph.len()`.
pub fn stabilized_active<A: SelfStabilizingMis>(
    algo: &A,
    graph: &Graph,
    levels: &[Level],
    active: &[bool],
) -> bool {
    stable_where(graph, &claimed_mis(algo, graph, levels, active), |v| active[v])
        .zip(active)
        .all(|(stable, &a)| stable || !a)
}

/// Number of live MIS-validity violations: edges whose two endpoints are
/// both active and both at their claiming level — two nodes simultaneously
/// asserting MIS membership while adjacent. Zero in every configuration
/// that satisfies [`stabilized_active`].
///
/// # Panics
///
/// Panics if `levels` or `active` length differs from `graph.len()`.
pub fn independence_violations<A: SelfStabilizingMis>(
    algo: &A,
    graph: &Graph,
    levels: &[Level],
    active: &[bool],
) -> usize {
    assert_eq!(levels.len(), graph.len(), "one level per vertex");
    assert_eq!(active.len(), graph.len(), "one active flag per vertex");
    let lmax = algo.policy().lmax_values();
    let claiming = |v: usize| active[v] && levels[v] == A::SPACE.claiming(lmax[v]);
    graph.edges().filter(|&(u, v)| claiming(u) && claiming(v)).count()
}

/// What disturbed the execution at a segment boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disturbance {
    /// The start of the run (the arbitrary initial configuration).
    Initial,
    /// A scheduled transient fault corrupted `corrupted` nodes.
    TransientFault {
        /// Number of nodes whose RAM the fault overwrote.
        corrupted: usize,
    },
    /// A scheduled topology-churn event.
    Churn(ChurnAction),
}

/// How a segment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentOutcome {
    /// The execution re-stabilized `rounds` rounds after the disturbance
    /// (it may keep running inside the segment until the next event).
    Recovered {
        /// Rounds from the disturbance to the first stabilized
        /// configuration.
        rounds: u64,
    },
    /// The next disturbance struck after `rounds` rounds, before the
    /// execution had re-stabilized.
    Interrupted {
        /// Rounds the segment ran before being cut short.
        rounds: u64,
    },
    /// The per-segment round budget ran out without re-stabilization; the
    /// run stops here (graceful degradation has failed — divergence).
    Diverged {
        /// Rounds the segment ran (the exhausted budget).
        rounds: u64,
    },
}

impl SegmentOutcome {
    /// The re-stabilization time, if the segment recovered.
    pub fn recovered_rounds(&self) -> Option<u64> {
        match self {
            SegmentOutcome::Recovered { rounds } => Some(*rounds),
            _ => None,
        }
    }

    /// `true` for [`SegmentOutcome::Recovered`].
    pub fn is_recovered(&self) -> bool {
        matches!(self, SegmentOutcome::Recovered { .. })
    }
}

/// The per-event record of one execution segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecovery {
    /// What started the segment.
    pub disturbance: Disturbance,
    /// Absolute round at which the disturbance struck.
    pub start_round: u64,
    /// How the segment ended.
    pub outcome: SegmentOutcome,
    /// Total rounds the segment spanned.
    pub segment_rounds: u64,
    /// Observed configurations (one per round in the segment) with at least
    /// one live independence violation.
    pub violation_rounds: u64,
    /// Longest consecutive streak of violation rounds.
    pub max_violation_streak: u64,
}

/// The result of a [`run_noisy`] execution.
#[derive(Debug, Clone)]
pub struct NoisyOutcome {
    /// One record per segment: the initial convergence plus one per
    /// disturbance, in execution order.
    pub events: Vec<EventRecovery>,
    /// Total rounds executed.
    pub total_rounds: u64,
    /// Whether the final configuration satisfies [`stabilized_active`].
    pub stabilized: bool,
    /// [`claimed_mis`] of the final configuration.
    pub mis: Vec<bool>,
    /// Final participation bitmap (after all churn).
    pub active: Vec<bool>,
}

impl NoisyOutcome {
    /// `true` if every segment (including the initial convergence)
    /// re-stabilized.
    pub fn all_recovered(&self) -> bool {
        self.events.iter().all(|e| e.outcome.is_recovered())
    }
}

/// Live per-segment counters, folded into an [`EventRecovery`] at the next
/// boundary.
struct SegmentTracker {
    disturbance: Disturbance,
    start_round: u64,
    first_recovery: Option<u64>,
    violation_rounds: u64,
    streak: u64,
    max_streak: u64,
}

impl SegmentTracker {
    fn new(disturbance: Disturbance, start_round: u64) -> SegmentTracker {
        SegmentTracker {
            disturbance,
            start_round,
            first_recovery: None,
            violation_rounds: 0,
            streak: 0,
            max_streak: 0,
        }
    }

    /// Observes the run's current configuration through its stable-set
    /// tracker; returns whether it is [`stabilized_active`].
    fn observe<A: SelfStabilizingMis>(&mut self, run: &mut RunLoop<'_, A>) -> bool {
        let round = run.round();
        let set = run.observe();
        let (stabilized, violations) = (set.stabilized(), set.violations());
        if stabilized && self.first_recovery.is_none() {
            self.first_recovery = Some(round - self.start_round);
        }
        if violations > 0 {
            self.violation_rounds += 1;
            self.streak += 1;
            self.max_streak = self.max_streak.max(self.streak);
        } else {
            self.streak = 0;
        }
        stabilized
    }

    fn close(self, end_round: u64, diverged: bool) -> EventRecovery {
        let segment_rounds = end_round - self.start_round;
        let outcome = match self.first_recovery {
            Some(rounds) => SegmentOutcome::Recovered { rounds },
            None if diverged => SegmentOutcome::Diverged { rounds: segment_rounds },
            None => SegmentOutcome::Interrupted { rounds: segment_rounds },
        };
        EventRecovery {
            disturbance: self.disturbance,
            start_round: self.start_round,
            outcome,
            segment_rounds,
            violation_rounds: self.violation_rounds,
            max_violation_streak: self.max_streak,
        }
    }
}

/// Applies one churn action to the simulator. A joining node boots with an
/// adversarially random level drawn from the fault stream.
///
/// The plan is validated against the graph before the round loop starts, so
/// application is infallible here; a failure means the simulator and the
/// validator disagree, which is a bug worth a loud stop.
pub(crate) fn apply_churn<A: SelfStabilizingMis>(
    sim: &mut Simulator<'_, A>,
    algo: &A,
    action: &ChurnAction,
    fault_rng: &mut Pcg64Mcg,
) {
    let applied = match action {
        ChurnAction::AddEdge(u, v) => sim.insert_edge(*u, *v).map(|_| ()),
        ChurnAction::RemoveEdge(u, v) => sim.remove_edge(*u, *v).map(|_| ()),
        ChurnAction::NodeLeave(v) => sim.node_leave(*v).map(|_| ()),
        ChurnAction::NodeJoin(v, neighbors) => {
            let boot = random_level(algo, *v, fault_rng);
            sim.node_join(*v, neighbors, boot)
        }
    };
    if let Err(e) = applied {
        panic!("validated churn plan failed to apply: {e}");
    }
}

/// Runs `algo` on `graph` under the full adversary — channel noise, RAM
/// faults and topology churn from `config` — segmenting the execution at
/// every fault and churn event.
///
/// Execution order per round boundary: the round-`r` configuration is
/// observed (stability, violations), then all fault events scheduled after
/// round `r` are applied (in schedule order), then all churn events after
/// round `r`. Each applied event closes the current segment and opens a new
/// one; the post-event configuration is the new segment's first
/// observation. With several events at one boundary, all but the last
/// segment are [`SegmentOutcome::Interrupted`] at zero rounds.
///
/// The run ends when the execution is stabilized with no events left, or
/// when a segment runs `segment_budget` rounds without re-stabilizing, or
/// the run reaches its total budget `config.max_rounds`
/// ([`SegmentOutcome::Diverged`]; remaining scheduled events are not
/// applied).
///
/// With a reliable channel and an empty churn plan, a single fault
/// scheduled at the run's first stabilization round reproduces
/// [`crate::runner::run_recovery`]'s measurement exactly — same corrupted
/// nodes, same recovery time (the zero-noise baseline; asserted by a test
/// below and by experiment `NOISE`).
///
/// # Errors
///
/// Returns a [`PlanError`] if a schedule in `config` is invalid for this
/// graph (a churn or fault node out of range, …).
pub fn run_noisy<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    config: &RunConfig,
    segment_budget: u64,
) -> Result<NoisyOutcome, PlanError> {
    let mut run = RunLoop::start(SimGraph::Borrowed(graph), algo, config.clone(), "noisy")?;
    let mut events: Vec<EventRecovery> = Vec::new();
    let mut tracker = SegmentTracker::new(Disturbance::Initial, 0);
    let mut stab = tracker.observe(&mut run);
    let stabilized = loop {
        let r = run.round();
        run.apply_events();
        if !run.applied().is_empty() {
            for disturbance in run.applied() {
                let next = SegmentTracker::new(disturbance.clone(), r);
                events.push(std::mem::replace(&mut tracker, next).close(r, false));
            }
            // The post-event configuration is the new segment's start.
            stab = tracker.observe(&mut run);
        }
        if stab && r >= run.last_event_round() {
            events.push(tracker.close(r, false));
            break true;
        }
        if r - tracker.start_round >= segment_budget || r >= config.max_rounds {
            events.push(tracker.close(r, true));
            break false;
        }
        run.step();
        stab = tracker.observe(&mut run);
    };
    let total_rounds = run.round();
    let status = if stabilized { RunStatus::Stabilized } else { RunStatus::BudgetExhausted };
    run.finish(status, stabilized.then_some(total_rounds));
    Ok(NoisyOutcome {
        events,
        total_rounds,
        stabilized,
        mis: A::members(&run),
        active: run.active().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::Algorithm1;
    use crate::algorithm2::Algorithm2;
    use crate::policy::LmaxPolicy;
    use crate::runner::{run_recovery, InitialLevels};
    use beeping::channel::ChannelFault;
    use beeping::churn::{ChurnError, ChurnPlan};
    use beeping::faults::{FaultPlan, FaultTarget};
    use graphs::generators::{classic, random};

    #[test]
    fn active_aware_observables_match_observer_when_fully_active() {
        let g = classic::path(5);
        let algo = Algorithm1::new(&g, LmaxPolicy::fixed(5, 4));
        let levels = vec![-4, 4, -4, 4, 2];
        let active = vec![true; 5];
        let snap = crate::observer::Snapshot::new(&g, algo.policy().lmax_values(), &levels);
        assert_eq!(claimed_mis(&algo, &g, &levels, &active), snap.mis());
        assert!(!stabilized_active(&algo, &g, &levels, &active));
        let stabilized = vec![-4, 4, -4, 4, -4];
        assert!(stabilized_active(&algo, &g, &stabilized, &active));
    }

    #[test]
    fn inactive_nodes_neither_join_nor_block() {
        let g = classic::path(3);
        let algo = Algorithm1::new(&g, LmaxPolicy::fixed(3, 4));
        // Node 1 claims but its neighbor 2 is below ℓmax: not stable...
        let levels = vec![4, -4, 1];
        assert!(!claimed_mis(&algo, &g, &levels, &[true; 3])[1]);
        // ...unless node 2 has departed, making the condition vacuous.
        let active = vec![true, true, false];
        let mis = claimed_mis(&algo, &g, &levels, &active);
        assert_eq!(mis, vec![false, true, false]);
        // Node 2 being inactive, the whole active subgraph is stable.
        assert!(stabilized_active(&algo, &g, &levels, &active));
        // An all-inactive network is vacuously stable.
        assert!(stabilized_active(&algo, &g, &levels, &[false; 3]));
    }

    #[test]
    fn violations_counted_on_active_claiming_edges() {
        let g = classic::path(3);
        let algo = Algorithm1::new(&g, LmaxPolicy::fixed(3, 4));
        let levels = vec![-4, -4, -4];
        assert_eq!(independence_violations(&algo, &g, &levels, &[true; 3]), 2);
        assert_eq!(independence_violations(&algo, &g, &levels, &[true, false, true]), 0);
        // The invariant: a violating configuration is never stabilized.
        assert!(!stabilized_active(&algo, &g, &levels, &[true; 3]));
    }

    #[test]
    fn zero_noise_single_fault_matches_run_recovery() {
        // Acceptance criterion (a): with the channel reliable and no churn,
        // per-event recovery reproduces the existing recovery measurement
        // exactly — same corruption, same recovery time.
        let g = random::gnp(50, 0.1, 6);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let seed = 6;
        let target = FaultTarget::RandomFraction(0.5);
        let rec = run_recovery(&g, &algo, seed, target.clone(), 100_000).expect("recovers");

        let config = RunConfig::new(seed)
            .with_faults(FaultPlan::new().with_fault(rec.initial_stabilization, target));
        let noisy = run_noisy(&g, &algo, &config, 100_000).unwrap();

        assert!(noisy.stabilized);
        assert_eq!(noisy.events.len(), 2);
        assert_eq!(noisy.events[0].disturbance, Disturbance::Initial);
        assert_eq!(
            noisy.events[0].outcome,
            SegmentOutcome::Recovered { rounds: rec.initial_stabilization }
        );
        assert_eq!(
            noisy.events[1].disturbance,
            Disturbance::TransientFault { corrupted: rec.corrupted_nodes }
        );
        assert_eq!(
            noisy.events[1].outcome,
            SegmentOutcome::Recovered { rounds: rec.recovery_rounds }
        );
        assert_eq!(noisy.mis, rec.mis);
    }

    #[test]
    fn mild_noise_still_stabilizes() {
        let g = random::gnp(40, 0.1, 3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = RunConfig::new(3).with_channel(ChannelFault::reliable().with_drop(0.05));
        let outcome = run_noisy(&g, &algo, &config, 200_000).unwrap();
        assert!(outcome.stabilized, "p=0.05 beep loss must still stabilize");
        assert!(outcome.all_recovered());
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    }

    #[test]
    fn churn_events_each_get_a_recovered_segment() {
        let g = random::gnp(30, 0.15, 9);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let churn = ChurnPlan::new()
            .with_event(400, ChurnAction::NodeLeave(3))
            .with_event(800, ChurnAction::NodeJoin(3, vec![0, 5, 7]))
            .with_event(1200, ChurnAction::RemoveEdge(0, 1))
            .with_event(1600, ChurnAction::AddEdge(0, 1));
        let config = RunConfig::new(9).with_churn(churn);
        let outcome = run_noisy(&g, &algo, &config, 100_000).unwrap();
        assert_eq!(outcome.events.len(), 5);
        for event in &outcome.events {
            assert!(
                event.outcome.is_recovered(),
                "finite re-stabilization after every event: {event:?}"
            );
        }
        assert!(outcome.stabilized);
        assert!(outcome.active.iter().all(|&a| a));
        // The final MIS is valid for the *churned* graph (node 3 was
        // rewired), so it is checked via the stabilization invariant rather
        // than against the input graph.
        assert!(outcome.mis.iter().any(|&m| m));
    }

    #[test]
    fn total_loss_diverges_and_reports_live_violations() {
        // drop_p = 1 makes every node deaf: under Algorithm 1 all nodes
        // sink to their claiming level, so adjacent claims stay live and
        // the run must report divergence, never a stable MIS.
        let g = classic::path(4);
        let algo = Algorithm1::new(&g, LmaxPolicy::fixed(4, 4));
        // AllOne start: deaf nodes can never reach ℓmax, so no observed
        // configuration can be stabilized — the divergence is deterministic.
        let config = RunConfig::new(2)
            .with_init(InitialLevels::AllOne)
            .with_channel(ChannelFault::reliable().with_drop(1.0));
        let outcome = run_noisy(&g, &algo, &config, 300).unwrap();
        assert!(!outcome.stabilized);
        assert_eq!(outcome.events.len(), 1);
        assert_eq!(outcome.events[0].outcome, SegmentOutcome::Diverged { rounds: 300 });
        assert!(outcome.events[0].violation_rounds > 0);
        assert!(outcome.events[0].max_violation_streak > 0);
    }

    #[test]
    fn simultaneous_events_interrupt_in_order() {
        let g = classic::cycle(8);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = RunConfig::new(4)
            .with_faults(FaultPlan::new().with_fault(100, FaultTarget::All))
            .with_churn(ChurnPlan::new().with_event(100, ChurnAction::RemoveEdge(0, 1)));
        let outcome = run_noisy(&g, &algo, &config, 100_000).unwrap();
        assert_eq!(outcome.events.len(), 3);
        // Faults apply before churn at the same boundary; the fault segment
        // is cut at zero rounds by the churn event.
        assert_eq!(outcome.events[1].disturbance, Disturbance::TransientFault { corrupted: 8 });
        assert_eq!(outcome.events[1].outcome, SegmentOutcome::Interrupted { rounds: 0 });
        assert!(matches!(outcome.events[2].disturbance, Disturbance::Churn(_)));
        assert!(outcome.stabilized);
    }

    #[test]
    fn two_channel_algorithm_recovers_under_noise_and_churn() {
        let g = random::gnp(30, 0.15, 11);
        let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
        let config = RunConfig::new(11)
            .with_channel(ChannelFault::reliable().with_drop(0.02))
            .with_churn(ChurnPlan::new().with_event(500, ChurnAction::NodeLeave(2)));
        let outcome = run_noisy(&g, &algo, &config, 200_000).unwrap();
        assert!(outcome.stabilized);
        assert_eq!(outcome.events.len(), 2);
        assert!(!outcome.active[2]);
    }

    #[test]
    fn out_of_range_churn_node_is_a_plan_error() {
        let g = classic::path(3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config =
            RunConfig::new(0).with_churn(ChurnPlan::new().with_event(1, ChurnAction::NodeLeave(9)));
        let err = run_noisy(&g, &algo, &config, 100).unwrap_err();
        assert_eq!(err, PlanError::Churn(ChurnError::NodeOutOfRange { node: 9, n: 3 }));
    }
}
