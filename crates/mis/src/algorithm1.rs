//! Algorithm 1 of the paper: the single-channel self-stabilizing MIS
//! algorithm.
//!
//! Pseudocode (paper, Algorithm 1), executed by every vertex `v` in every
//! round:
//!
//! ```text
//! state: ℓ ∈ {-ℓmax(v), …, ℓmax(v)}
//! if ℓ < ℓmax(v):  beep ← true with probability min(2^-ℓ, 1)
//! else:            beep ← false
//! if beep: send signal to all neighbors
//! receive any signals sent by neighbors
//! if any signal received:  ℓ ← min(ℓ + 1, ℓmax(v))
//! else if beep:            ℓ ← -ℓmax(v)
//! else:                    ℓ ← max(ℓ - 1, 1)
//! ```
//!
//! A vertex is stable **in the MIS** once `ℓ(v) = -ℓmax(v)` while every
//! neighbor `u` sits at `ℓ(u) = ℓmax(u)`; it then beeps forever and its
//! neighbors stay silenced — which is also how every vertex continuously
//! *signals* its status, making faults detectable (unlike the original
//! Jeavons–Scott–Xu algorithm, where stabilized vertices go silent).

use beeping::protocol::{BeepSignal, BeepingProtocol, Channels, SettledRound};
use graphs::{Graph, NodeId};
use rand::{Rng, RngCore};

use crate::invariant::debug_assert_level_in_range;
use crate::levels::{beep_probability, update_level, Level};
use crate::policy::LmaxPolicy;
use crate::recovery::{claimed_mis_where, stable_where};
use crate::runner::{self, Outcome, RunConfig, RunError, SelfStabilizingMis};

/// The single-channel self-stabilizing MIS protocol (paper Algorithm 1).
///
/// One value drives all nodes; per-node knowledge (`ℓmax`) lives inside the
/// embedded [`LmaxPolicy`].
///
/// # Example
///
/// ```
/// use graphs::generators::classic;
/// use mis::{Algorithm1, LmaxPolicy, RunConfig};
///
/// let g = classic::cycle(32);
/// let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
/// let outcome = algo.run(&g, RunConfig::new(1)).unwrap();
/// assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
/// ```
#[derive(Debug, Clone)]
pub struct Algorithm1 {
    policy: LmaxPolicy,
}

impl Algorithm1 {
    /// Creates the protocol for `graph` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the policy does not cover exactly `graph.len()` vertices.
    pub fn new(graph: &Graph, policy: LmaxPolicy) -> Algorithm1 {
        assert_eq!(policy.len(), graph.len(), "policy must assign ℓmax to every vertex");
        Algorithm1 { policy }
    }

    /// The knowledge policy in use.
    pub fn policy(&self) -> &LmaxPolicy {
        &self.policy
    }

    /// `ℓmax(v)`.
    pub fn lmax(&self, v: NodeId) -> Level {
        self.policy.lmax(v)
    }

    /// The set `I_t` for a level snapshot: vertices stable in the MIS
    /// (`ℓ(v) = -ℓmax(v)` and every neighbor at its `ℓmax`). See
    /// [`crate::observer`] for the full analysis machinery.
    pub fn mis_members(&self, graph: &Graph, levels: &[Level]) -> Vec<bool> {
        claimed_mis_where(Self::SPACE, graph, self.policy.lmax_values(), levels, |_| true)
    }

    /// `true` if every vertex is stable (`S_t = V`): the stabilization
    /// criterion of the experiments. Once this holds, the configuration is a
    /// fixpoint in the absence of faults.
    pub fn is_stabilized(&self, graph: &Graph, levels: &[Level]) -> bool {
        stable_where(graph, &self.mis_members(graph, levels), |_| true).all(|s| s)
    }

    /// Runs the algorithm to stabilization under `config` (see
    /// [`runner::RunConfig`] for initial-state, fault and budget options).
    ///
    /// # Errors
    ///
    /// As [`runner::run`]: [`RunError::Plan`] for a schedule invalid on
    /// `graph`, [`RunError::Budget`] if the round budget is exhausted before
    /// `S_t = V`.
    pub fn run(&self, graph: &Graph, config: RunConfig) -> Result<Outcome, RunError> {
        runner::run_algorithm1(graph, self, config)
    }
}

impl BeepingProtocol for Algorithm1 {
    type State = Level;

    fn channels(&self) -> Channels {
        Channels::One
    }

    fn transmit(&self, node: NodeId, state: &Level, rng: &mut dyn RngCore) -> BeepSignal {
        let lmax = self.policy.lmax(node);
        debug_assert_level_in_range(*state, lmax, Self::SPACE);
        let p = beep_probability(*state, lmax);
        // Draw even when p is 0 or 1 would be avoidable, but gen_bool(0.0)
        // and gen_bool(1.0) are exact, and drawing unconditionally keeps the
        // per-node stream consumption identical across configurations.
        if p > 0.0 && rng.gen_bool(p) {
            BeepSignal::channel1()
        } else {
            BeepSignal::silent()
        }
    }

    fn receive(
        &self,
        node: NodeId,
        state: &mut Level,
        sent: BeepSignal,
        heard: BeepSignal,
        _rng: &mut dyn RngCore,
    ) {
        let lmax = self.policy.lmax(node);
        *state = update_level(*state, lmax, sent.on_channel1(), heard.on_channel1());
    }

    /// Algorithm 1's absorbing configurations, certified for the frontier
    /// engine (`EngineMode::Frontier`):
    ///
    /// - a stable MIS member (`ℓ = -ℓmax`, silent neighborhood) beeps with
    ///   probability 1 — one value-independent coin per round — and a lone
    ///   beep re-confirms `ℓ = -ℓmax`;
    /// - a silenced non-member (`ℓ = ℓmax > 0`, beeping neighborhood) never
    ///   draws (`p = 0`) and hearing keeps it pinned at `ℓmax`.
    ///
    /// Post-stabilization (`S_t = V`), every vertex is in one of the two,
    /// so fault-free rounds cost O(|frontier|) instead of O(m). The
    /// claiming arm is checked first: for `ℓmax = 0` the two levels
    /// coincide and the node beeps (`p(0) = 1`).
    fn settled_round(
        &self,
        node: NodeId,
        state: &Level,
        heard: BeepSignal,
    ) -> Option<SettledRound> {
        let lmax = self.policy.lmax(node);
        let heard1 = heard.on_channel1();
        if *state == Self::SPACE.claiming(lmax) && !heard1 {
            Some(SettledRound { signal: BeepSignal::channel1(), draws: 1 })
        } else if *state == lmax && lmax > 0 && heard1 {
            Some(SettledRound { signal: BeepSignal::silent(), draws: 0 })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beeping::rng::node_rng;
    use beeping::Simulator;
    use graphs::generators::{classic, random};

    fn count_beeps(algo: &Algorithm1, node: NodeId, level: Level, trials: u32) -> u32 {
        let mut rng = node_rng(12345, node);
        (0..trials).filter(|_| !algo.transmit(node, &level, &mut rng).is_silent()).count() as u32
    }

    #[test]
    fn transmit_matches_activation_function() {
        let g = classic::cycle(4);
        let algo = Algorithm1::new(&g, LmaxPolicy::fixed(4, 8));
        // ℓ ≤ 0 → always beeps.
        assert_eq!(count_beeps(&algo, 0, 0, 100), 100);
        assert_eq!(count_beeps(&algo, 0, -8, 100), 100);
        // ℓ = ℓmax → never beeps.
        assert_eq!(count_beeps(&algo, 0, 8, 100), 0);
        // ℓ = 1 → about half.
        let half = count_beeps(&algo, 0, 1, 10_000);
        assert!((4_500..5_500).contains(&half), "got {half}");
        // ℓ = 3 → about 1/8.
        let eighth = count_beeps(&algo, 0, 3, 10_000);
        assert!((1_000..1_600).contains(&eighth), "got {eighth}");
    }

    #[test]
    fn receive_applies_update_rule() {
        let g = classic::cycle(4);
        let algo = Algorithm1::new(&g, LmaxPolicy::fixed(4, 5));
        let mut rng = node_rng(0, 0);
        let mut l = 2;
        algo.receive(0, &mut l, BeepSignal::silent(), BeepSignal::channel1(), &mut rng);
        assert_eq!(l, 3);
        algo.receive(0, &mut l, BeepSignal::channel1(), BeepSignal::silent(), &mut rng);
        assert_eq!(l, -5);
        let mut l = 3;
        algo.receive(0, &mut l, BeepSignal::silent(), BeepSignal::silent(), &mut rng);
        assert_eq!(l, 2);
    }

    #[test]
    fn stable_configuration_is_fixpoint() {
        // Path of 3: middle node in MIS, ends at ℓmax.
        let g = classic::path(3);
        let policy = LmaxPolicy::fixed(3, 6);
        let algo = Algorithm1::new(&g, policy);
        let levels = vec![6, -6, 6];
        assert!(algo.is_stabilized(&g, &levels));
        let mut sim = Simulator::new(&g, algo.clone(), levels.clone(), 3);
        sim.run(50);
        assert_eq!(sim.states(), levels.as_slice());
        assert_eq!(algo.mis_members(&g, sim.states()), vec![false, true, false]);
    }

    #[test]
    fn single_node_stabilizes_into_mis() {
        let g = graphs::Graph::empty(1);
        let algo = Algorithm1::new(&g, LmaxPolicy::fixed(1, 4));
        // Start at ℓmax (silent); decay then lone-beep must occur.
        let mut sim = Simulator::new(&g, algo.clone(), vec![4], 9);
        let r = sim.run_until(200, |s| algo.is_stabilized(s.graph(), s.states()));
        assert!(r.is_some());
        assert_eq!(algo.mis_members(&g, sim.states()), vec![true]);
    }

    #[test]
    fn converges_on_random_graph_from_all_initial_regimes() {
        let g = random::gnp(60, 0.1, 5);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let lmax = algo.policy().max_lmax();
        for (name, init) in
            [("all zero", vec![0; 60]), ("all max", vec![lmax; 60]), ("all -max", vec![-lmax; 60])]
        {
            let mut sim = Simulator::new(&g, algo.clone(), init, 11);
            let r = sim.run_until(20_000, |s| algo.is_stabilized(s.graph(), s.states()));
            assert!(r.is_some(), "did not stabilize from {name}");
            let mis = algo.mis_members(&g, sim.states());
            assert!(graphs::mis::is_maximal_independent_set(&g, &mis), "from {name}");
        }
    }

    #[test]
    #[should_panic(expected = "ℓmax to every vertex")]
    fn policy_size_mismatch_panics() {
        let g = classic::path(3);
        Algorithm1::new(&g, LmaxPolicy::fixed(2, 5));
    }

    #[test]
    fn settled_round_certifies_exactly_the_stable_configurations() {
        let g = classic::path(3);
        let algo = Algorithm1::new(&g, LmaxPolicy::fixed(3, 6));
        // Stable MIS member: lone beeper at the claiming level.
        let sr = algo.settled_round(1, &-6, BeepSignal::silent()).unwrap();
        assert_eq!(sr.signal, BeepSignal::channel1());
        assert_eq!(sr.draws, 1);
        // Silenced non-member at ℓmax hearing its dominator.
        let sr = algo.settled_round(0, &6, BeepSignal::channel1()).unwrap();
        assert_eq!(sr.signal, BeepSignal::silent());
        assert_eq!(sr.draws, 0);
        // Everything else is live: a claimer hearing a beep must re-run
        // (conflict), a capped node hearing silence decays, interior
        // levels are never settled.
        assert!(algo.settled_round(1, &-6, BeepSignal::channel1()).is_none());
        assert!(algo.settled_round(0, &6, BeepSignal::silent()).is_none());
        assert!(algo.settled_round(0, &2, BeepSignal::silent()).is_none());
        assert!(algo.settled_round(0, &2, BeepSignal::channel1()).is_none());
    }

    #[test]
    fn frontier_engine_bit_identical_through_and_past_stabilization() {
        use beeping::EngineMode;
        // Stabilize under both engines in lockstep, coast 200 rounds on the
        // settled frontier (debug builds re-verify the certificate whenever
        // a node settles), then inject a post-stabilization point fault and
        // track the recovery — the paper's event-driven regime.
        let g = random::gnp(48, 0.12, 3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let lmax = algo.policy().max_lmax();
        let mk = |engine| Simulator::new(&g, algo.clone(), vec![lmax; 48], 19).with_engine(engine);
        let mut scalar = mk(EngineMode::Scalar);
        let mut frontier = mk(EngineMode::Frontier);
        let mut stabilized_at = None;
        for round in 1..=20_000u64 {
            let a = scalar.step();
            let b = frontier.step();
            assert_eq!(a, b, "report diverged at round {round}");
            assert_eq!(scalar.states(), frontier.states(), "states diverged at round {round}");
            if algo.is_stabilized(scalar.graph(), scalar.states()) {
                stabilized_at = Some(round);
                break;
            }
        }
        let stabilized_at = stabilized_at.expect("fixture: must stabilize within budget");
        for round in 0..200u64 {
            let a = scalar.step();
            let b = frontier.step();
            assert_eq!(a, b, "post-stabilization report diverged at +{round}");
            assert_eq!(scalar.states(), frontier.states());
        }
        // The configuration is a fixpoint: still stabilized after coasting.
        assert!(algo.is_stabilized(&g, frontier.states()), "after {stabilized_at}+200 rounds");
        // Point fault: knock one MIS member out and watch both engines
        // repair the neighborhood identically.
        let member = frontier.states().iter().position(|&l| l == -lmax).unwrap();
        scalar.corrupt_state(member, lmax);
        frontier.corrupt_state(member, lmax);
        let mut recovered = false;
        for round in 0..5_000u64 {
            let a = scalar.step();
            let b = frontier.step();
            assert_eq!(a, b, "recovery report diverged at +{round}");
            assert_eq!(scalar.states(), frontier.states(), "recovery states diverged at +{round}");
            if algo.is_stabilized(scalar.graph(), scalar.states()) {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "fixture: must re-stabilize after the point fault");
        let mis = algo.mis_members(&g, frontier.states());
        assert!(graphs::mis::is_maximal_independent_set(&g, &mis));
    }
}
