//! Adaptive worst-case search over Byzantine adversaries.
//!
//! The containment guarantees measured by [`crate::containment`] are only as
//! convincing as the adversary they are measured against. Random Byzantine
//! placements are weak adversaries: on most graphs a random site sits in a
//! low-degree, well-separated spot. This module hill-climbs — under a seeded,
//! fully deterministic RNG — over two adversary choices at once:
//!
//! 1. **where** the Byzantine nodes sit (placements mutate one node at a
//!    time), and
//! 2. **what** the initial level configuration is (the transient part of the
//!    adversary; mutated in small batches),
//!
//! maximizing the round at which [`crate::containment::run_contained`] first
//! certifies containment. The search is a fixed-budget local search with
//! strict-improvement acceptance, so the same seed and budget always yield
//! the same [`WorstCase`] — the basis for the certificate JSON emitted by the
//! `BYZ` experiment.
//!
//! The climb, the placement draw and the relocate move live here once and
//! are shared with the dynamic-topology search of [`crate::scenario`]; each
//! search brings only its own RNG stream, its other moves and its
//! evaluation.

use beeping::byzantine::{ByzantineBehavior, ByzantinePlan};
use beeping::rng::aux_rng;
use graphs::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_pcg::Pcg64Mcg;

use crate::containment::run_contained;
use crate::levels::Level;
use crate::resumable::PlanError;
use crate::runner::{InitialLevels, RunConfig, SelfStabilizingMis};

/// Purpose tag separating the adversary-search RNG stream from node,
/// channel, fault and Byzantine streams.
pub const ADV_RNG_PURPOSE: u64 = 0xAD7E_2541;

/// The Byzantine behavior the search assigns to every placed node.
///
/// A plain-data mirror of [`ByzantineBehavior`] (which is not `Copy` because
/// of crash-restart closures) restricted to the behaviors a placement search
/// can move around freely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchBehavior {
    /// Beeps on every available channel every round.
    StuckBeep,
    /// Never beeps.
    StuckSilent,
    /// Beeps on channel 1 with this probability each round.
    Babbler(f64),
    /// Follows the protocol but always asserts channel-2 MIS membership
    /// (Algorithm 2 only).
    Channel2Liar,
}

impl SearchBehavior {
    /// The simulator behavior this search variant stands for.
    pub fn to_behavior(self) -> ByzantineBehavior<Level> {
        match self {
            SearchBehavior::StuckBeep => ByzantineBehavior::StuckBeep,
            SearchBehavior::StuckSilent => ByzantineBehavior::StuckSilent,
            SearchBehavior::Babbler(p) => ByzantineBehavior::Babbler(p),
            SearchBehavior::Channel2Liar => ByzantineBehavior::Channel2Liar,
        }
    }

    /// Stable human-readable label (matches [`ByzantineBehavior::label`]).
    pub fn label(self) -> String {
        self.to_behavior().label()
    }
}

/// Budget and shape of a [`worst_case_search`].
#[derive(Debug, Clone)]
pub struct AdversaryConfig {
    /// Master seed: drives the search RNG *and* every candidate evaluation
    /// (all candidates are scored under the same simulation seed, so score
    /// differences come from the adversary's choices alone).
    pub seed: u64,
    /// Number of Byzantine nodes to place.
    pub byz_count: usize,
    /// Behavior assigned to every placed node.
    pub behavior: SearchBehavior,
    /// Hill-climbing iterations (candidate evaluations beyond the initial
    /// one).
    pub iterations: usize,
    /// Round budget per candidate evaluation.
    pub max_rounds: u64,
    /// Containment radius to certify (see [`run_contained`]).
    pub radius: usize,
    /// Burn-in horizon passed through to the containment run.
    pub burn_in: u64,
}

impl AdversaryConfig {
    /// Defaults: one stuck beeper, 32 iterations, 5,000-round budget,
    /// radius-2 certificate, no burn-in.
    pub fn new(seed: u64) -> AdversaryConfig {
        AdversaryConfig {
            seed,
            byz_count: 1,
            behavior: SearchBehavior::StuckBeep,
            iterations: 32,
            max_rounds: 5_000,
            radius: 2,
            burn_in: 0,
        }
    }

    /// Sets the number of Byzantine nodes.
    pub fn with_byz_count(mut self, byz_count: usize) -> AdversaryConfig {
        self.byz_count = byz_count;
        self
    }

    /// Sets the behavior assigned to every placed node.
    pub fn with_behavior(mut self, behavior: SearchBehavior) -> AdversaryConfig {
        self.behavior = behavior;
        self
    }

    /// Sets the iteration budget.
    pub fn with_iterations(mut self, iterations: usize) -> AdversaryConfig {
        self.iterations = iterations;
        self
    }

    /// Sets the per-candidate round budget.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> AdversaryConfig {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the certified radius.
    pub fn with_radius(mut self, radius: usize) -> AdversaryConfig {
        self.radius = radius;
        self
    }

    /// Sets the burn-in horizon.
    pub fn with_burn_in(mut self, burn_in: u64) -> AdversaryConfig {
        self.burn_in = burn_in;
        self
    }
}

/// The strongest adversary found by [`worst_case_search`].
#[derive(Debug, Clone)]
pub struct WorstCase {
    /// Byzantine placement (sorted, deduplicated).
    pub placement: Vec<NodeId>,
    /// Raw initial levels (clamped per node by the runner at evaluation).
    pub init_levels: Vec<i64>,
    /// Score: the first contained round, or `max_rounds + 1` if the budget
    /// ran out before containment — higher is worse for the protocol.
    pub score: u64,
    /// `true` if even the worst case found was eventually contained.
    pub contained: bool,
    /// Final disruption radius of the worst case's evaluation.
    pub final_radius: usize,
    /// Candidate evaluations performed (initial + iterations).
    pub evaluations: usize,
    /// Accepted strict improvements during the climb.
    pub improvements: usize,
}

/// The result of a [`climb`]: the best candidate, its score and payload,
/// and what the climb spent finding it.
pub(crate) struct Climbed<C, S> {
    pub(crate) best: C,
    pub(crate) score: u64,
    pub(crate) payload: S,
    /// Candidate evaluations actually made (the start included).
    pub(crate) evaluations: usize,
    /// Accepted strict improvements.
    pub(crate) improvements: usize,
}

/// The fixed-budget local search both worst-case searches run: evaluates
/// `start`, then up to `iterations` times asks `mutate` for a mutant of the
/// incumbent and keeps it only on a *strict* score improvement. `mutate`
/// returning `None` (nothing can move) ends the climb early; `evaluate`
/// returns a candidate's score (higher is worse for the protocol) with a
/// payload, and its first error ends the climb with that error.
pub(crate) fn climb<C, S, E>(
    start: C,
    iterations: usize,
    mut mutate: impl FnMut(&C) -> Option<C>,
    mut evaluate: impl FnMut(&C) -> Result<(u64, S), E>,
) -> Result<Climbed<C, S>, E> {
    let (score, payload) = evaluate(&start)?;
    let mut climbed = Climbed { best: start, score, payload, evaluations: 1, improvements: 0 };
    for _ in 0..iterations {
        let Some(candidate) = mutate(&climbed.best) else { break };
        let (score, payload) = evaluate(&candidate)?;
        climbed.evaluations += 1;
        if score > climbed.score {
            climbed.best = candidate;
            climbed.score = score;
            climbed.payload = payload;
            climbed.improvements += 1;
        }
    }
    Ok(climbed)
}

/// A uniformly random sorted placement of `count` distinct nodes out of
/// `0..n`: shuffles the whole pool and takes its first `count` entries.
pub(crate) fn draw_placement(rng: &mut Pcg64Mcg, n: usize, count: usize) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = (0..n).collect();
    pool.shuffle(rng);
    let mut placement = pool[..count].to_vec();
    placement.sort_unstable();
    placement
}

/// Moves one node of a non-empty `placement` to a random site in `0..n`
/// outside it, keeping the placement sorted. Needs `placement.len() < n`.
pub(crate) fn relocate(rng: &mut Pcg64Mcg, placement: &mut [NodeId], n: usize) {
    let slot = rng.gen_range(0..placement.len());
    loop {
        let target = rng.gen_range(0..n);
        if !placement.contains(&target) {
            placement[slot] = target;
            break;
        }
    }
    placement.sort_unstable();
}

/// One candidate of the static search.
#[derive(Clone)]
struct Candidate {
    placement: Vec<NodeId>,
    init_levels: Vec<i64>,
}

/// Scores `candidate` by its first contained round (`max_rounds + 1` if
/// never), with `(contained, final radius)` as the payload.
fn evaluate<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    candidate: &Candidate,
    config: &AdversaryConfig,
) -> Result<(u64, (bool, usize)), PlanError> {
    let mut plan = ByzantinePlan::new();
    for &v in &candidate.placement {
        plan.set_behavior(v, config.behavior.to_behavior());
    }
    let containment = RunConfig::new(config.seed)
        .with_init(InitialLevels::Custom(candidate.init_levels.clone()))
        .with_max_rounds(config.max_rounds)
        .with_byzantine(plan);
    let outcome = run_contained(graph, algo, &containment, config.radius, config.burn_in, false)?;
    let score = outcome.contained_round.unwrap_or(config.max_rounds + 1);
    Ok((score, (outcome.is_contained(), outcome.final_radius)))
}

/// Deterministic hill-climbing search for the Byzantine placement and
/// initial configuration that maximize the time to certified containment.
///
/// Each iteration mutates the incumbent — with probability ½ it relocates
/// one Byzantine node to a random non-Byzantine site, otherwise it
/// re-randomizes the initial levels of roughly `n / 10` nodes — and keeps
/// the mutant only on a *strict* score improvement. Same graph, algorithm
/// and config always produce the same result.
///
/// # Errors
///
/// Returns the [`PlanError`] of the first candidate the run loop rejects,
/// e.g. [`SearchBehavior::Channel2Liar`] on a single-channel algorithm.
///
/// # Panics
///
/// Panics if `byz_count` is zero or exceeds `graph.len()`.
pub fn worst_case_search<A: SelfStabilizingMis>(
    graph: &Graph,
    algo: &A,
    config: &AdversaryConfig,
) -> Result<WorstCase, PlanError> {
    let n = graph.len();
    assert!(config.byz_count >= 1, "worst-case search needs at least one byzantine node");
    assert!(
        config.byz_count <= n,
        "cannot place {} byzantine nodes on {n} vertices",
        config.byz_count
    );
    let mut rng = aux_rng(config.seed, ADV_RNG_PURPOSE);
    let lmax = algo.policy().lmax_values();
    let placement = draw_placement(&mut rng, n, config.byz_count);
    let init_levels: Vec<i64> = (0..n)
        .map(|v| {
            let (low, high) = A::SPACE.bounds(lmax[v]);
            rng.gen_range(low..=high)
        })
        .collect();

    let mutate = |best: &Candidate| {
        let mut candidate = best.clone();
        if rng.gen_bool(0.5) && config.byz_count < n {
            relocate(&mut rng, &mut candidate.placement, n);
        } else {
            // Re-randomize a batch of initial levels.
            for _ in 0..(n / 10).max(1) {
                let v = rng.gen_range(0..n);
                let (low, high) = A::SPACE.bounds(lmax[v]);
                candidate.init_levels[v] = rng.gen_range(low..=high);
            }
        }
        Some(candidate)
    };
    let climbed = climb(Candidate { placement, init_levels }, config.iterations, mutate, |c| {
        evaluate(graph, algo, c, config)
    })?;
    let (contained, final_radius) = climbed.payload;
    Ok(WorstCase {
        placement: climbed.best.placement,
        init_levels: climbed.best.init_levels,
        score: climbed.score,
        contained,
        final_radius,
        evaluations: climbed.evaluations,
        improvements: climbed.improvements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::Algorithm1;
    use crate::algorithm2::Algorithm2;
    use crate::policy::LmaxPolicy;
    use crate::theory::burn_in_horizon;
    use graphs::generators::{classic, random};

    #[test]
    fn search_is_deterministic() {
        let g = random::gnp(24, 0.15, 4);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = AdversaryConfig::new(17)
            .with_iterations(6)
            .with_max_rounds(600)
            .with_burn_in(burn_in_horizon(algo.policy()));
        let a = worst_case_search(&g, &algo, &config).unwrap();
        let b = worst_case_search(&g, &algo, &config).unwrap();
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.init_levels, b.init_levels);
        assert_eq!(a.score, b.score);
        assert_eq!(a.improvements, b.improvements);
    }

    #[test]
    fn search_respects_byz_count_and_bounds() {
        let g = classic::cycle(20);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config =
            AdversaryConfig::new(3).with_byz_count(3).with_iterations(5).with_max_rounds(400);
        let worst = worst_case_search(&g, &algo, &config).unwrap();
        assert_eq!(worst.placement.len(), 3);
        assert!(worst.placement.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        assert!(worst.placement.iter().all(|&v| v < 20));
        assert_eq!(worst.init_levels.len(), 20);
        assert_eq!(worst.evaluations, 6);
        assert!(worst.score >= 1);
    }

    #[test]
    fn liar_search_runs_on_algorithm2() {
        let g = classic::cycle(16);
        let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
        let config = AdversaryConfig::new(9)
            .with_behavior(SearchBehavior::Channel2Liar)
            .with_iterations(4)
            .with_max_rounds(400)
            .with_radius(1)
            .with_burn_in(burn_in_horizon(algo.policy()));
        let worst = worst_case_search(&g, &algo, &config).unwrap();
        assert!(worst.contained, "a single liar on a cycle stays contained");
    }

    #[test]
    fn liar_on_a_single_channel_algorithm_is_a_plan_error() {
        let g = classic::cycle(12);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = AdversaryConfig::new(2)
            .with_behavior(SearchBehavior::Channel2Liar)
            .with_iterations(3)
            .with_max_rounds(200);
        let err = worst_case_search(&g, &algo, &config).unwrap_err();
        assert!(matches!(err, PlanError::Byzantine(_)), "{err}");
    }

    #[test]
    fn climb_keeps_only_strict_improvements_and_counts_what_it_evaluates() {
        // Candidates are indices into `scores`, proposed in order until
        // they run out: only the first 5 beats its incumbent.
        let scores = [3u64, 1, 3, 5, 5];
        let mut next = 0;
        let proposals = |_: &usize| {
            next += 1;
            (next < scores.len()).then_some(next)
        };
        let climbed = climb(0, 10, proposals, |&i| Ok::<_, ()>((scores[i], i))).unwrap();
        assert_eq!((climbed.best, climbed.score, climbed.payload), (3, 5, 3));
        assert_eq!(climbed.improvements, 1);
        // Five evaluations, not 1 + 10: the sixth proposal is `None`.
        assert_eq!(climbed.evaluations, 5);
        // The first failing evaluation ends the climb with its error.
        let mut next = 0;
        let proposals = |_: &usize| {
            next += 1;
            Some(next)
        };
        let failed = climb(0, 4, proposals, |&i| if i < 2 { Ok((0, ())) } else { Err(i) });
        assert_eq!(failed.err(), Some(2));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_byz_count_rejected() {
        let g = classic::cycle(8);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let _ = worst_case_search(&g, &algo, &AdversaryConfig::new(1).with_byz_count(0));
    }

    #[test]
    fn babbler_search_scores_monotone_improvements() {
        let g = random::gnp(20, 0.2, 8);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = AdversaryConfig::new(5)
            .with_behavior(SearchBehavior::Babbler(0.5))
            .with_iterations(8)
            .with_max_rounds(500)
            .with_burn_in(burn_in_horizon(algo.policy()));
        let worst = worst_case_search(&g, &algo, &config).unwrap();
        assert!(worst.improvements <= 8);
        assert!(worst.score <= 501);
    }
}
