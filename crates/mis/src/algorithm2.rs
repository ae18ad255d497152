//! Algorithm 2 of the paper: the two-channel variant (Corollary 2.3).
//!
//! Pseudocode (paper §7, Algorithm 2), executed by every vertex `v`:
//!
//! ```text
//! state: ℓ ∈ {0, …, ℓmax(v)}
//! if 0 < ℓ < ℓmax(v): beep1 ← true with probability 2^-ℓ
//! else:               beep1 ← false
//! beep2 ← (ℓ = 0)
//! send the chosen signals; receive neighbors' signals
//! if beep2 signal received:      ℓ ← ℓmax(v)
//! else if beep1 signal received: ℓ ← min(ℓ + 1, ℓmax(v))
//! else if beep1:                 ℓ ← 0
//! else if beep2 = false:         ℓ ← max(ℓ - 1, 1)
//! ```
//!
//! `ℓ = 0` means "in the MIS": the vertex beeps on channel 2 in every
//! round, which is the persistent join announcement that replaces the
//! original Jeavons–Scott–Xu two-round phases. `ℓ = ℓmax(v)` means "not in
//! the MIS". The second channel resolves the conflict the single-channel
//! algorithm handles with negative levels: two adjacent vertices that both
//! reach `ℓ = 0` hear each other on channel 2 and both retreat to `ℓmax`.

use beeping::protocol::{BeepSignal, BeepingProtocol, Channels};
use graphs::{Graph, NodeId};
use rand::{Rng, RngCore};

use crate::invariant::debug_assert_level_in_range;
use crate::levels::{beep1_probability, update_level_two_channel, Level};
use crate::policy::LmaxPolicy;
use crate::recovery::{claimed_mis_where, stable_where};
use crate::runner::{self, Outcome, RunConfig, RunError, SelfStabilizingMis};

/// The two-channel self-stabilizing MIS protocol (paper Algorithm 2,
/// Corollary 2.3).
///
/// # Example
///
/// ```
/// use graphs::generators::classic;
/// use mis::{Algorithm2, LmaxPolicy, RunConfig};
///
/// let g = classic::cycle(32);
/// let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
/// let outcome = algo.run(&g, RunConfig::new(1)).unwrap();
/// assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
/// ```
#[derive(Debug, Clone)]
pub struct Algorithm2 {
    policy: LmaxPolicy,
}

impl Algorithm2 {
    /// Creates the protocol for `graph` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the policy does not cover exactly `graph.len()` vertices.
    pub fn new(graph: &Graph, policy: LmaxPolicy) -> Algorithm2 {
        assert_eq!(policy.len(), graph.len(), "policy must assign ℓmax to every vertex");
        Algorithm2 { policy }
    }

    /// The knowledge policy in use.
    pub fn policy(&self) -> &LmaxPolicy {
        &self.policy
    }

    /// `ℓmax(v)`.
    pub fn lmax(&self, v: NodeId) -> Level {
        self.policy.lmax(v)
    }

    /// The stable MIS members of a level snapshot: `ℓ(v) = 0` with every
    /// neighbor at its `ℓmax`.
    pub fn mis_members(&self, graph: &Graph, levels: &[Level]) -> Vec<bool> {
        claimed_mis_where(Self::SPACE, graph, self.policy.lmax_values(), levels, |_| true)
    }

    /// `true` if every vertex is stable — MIS members and their dominated
    /// neighbors cover the whole graph.
    pub fn is_stabilized(&self, graph: &Graph, levels: &[Level]) -> bool {
        stable_where(graph, &self.mis_members(graph, levels), |_| true).all(|s| s)
    }

    /// Runs the algorithm to stabilization under `config`.
    ///
    /// # Errors
    ///
    /// As [`runner::run`]: [`RunError::Plan`] for a schedule invalid on
    /// `graph`, [`RunError::Budget`] if the round budget is exhausted before
    /// `S_t = V`.
    pub fn run(&self, graph: &Graph, config: RunConfig) -> Result<Outcome, RunError> {
        runner::run_algorithm2(graph, self, config)
    }
}

impl BeepingProtocol for Algorithm2 {
    type State = Level;

    fn channels(&self) -> Channels {
        Channels::Two
    }

    fn transmit(&self, node: NodeId, state: &Level, rng: &mut dyn RngCore) -> BeepSignal {
        let lmax = self.policy.lmax(node);
        let l = *state;
        debug_assert_level_in_range(l, lmax, Self::SPACE);
        // `beep1_probability` asserts ℓ ∈ [0, ℓmax]; the draw is gated on
        // p > 0 so the RNG stream is untouched in the deterministic regions.
        let p1 = beep1_probability(l, lmax);
        let beep1 = p1 > 0.0 && rng.gen_bool(p1);
        let beep2 = l == 0;
        BeepSignal::new(beep1, beep2)
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
        *state = update_level_two_channel(
            *state,
            lmax,
            sent.on_channel1(),
            sent.on_channel2(),
            heard.on_channel1(),
            heard.on_channel2(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beeping::rng::node_rng;
    use beeping::Simulator;
    use graphs::generators::{classic, random};

    #[test]
    fn mis_member_beeps_channel2_forever() {
        let g = classic::path(3);
        let algo = Algorithm2::new(&g, LmaxPolicy::fixed(3, 6));
        let mut rng = node_rng(0, 1);
        for _ in 0..50 {
            let s = algo.transmit(1, &0, &mut rng);
            assert!(s.on_channel2());
            assert!(!s.on_channel1());
        }
    }

    #[test]
    fn node_at_lmax_is_silent() {
        let g = classic::path(3);
        let algo = Algorithm2::new(&g, LmaxPolicy::fixed(3, 6));
        let mut rng = node_rng(0, 0);
        for _ in 0..50 {
            assert!(algo.transmit(0, &6, &mut rng).is_silent());
        }
    }

    #[test]
    fn adjacent_mis_claims_resolve() {
        // Both endpoints of an edge claim MIS membership (ℓ = 0): each hears
        // the other's channel-2 beep and must retreat to ℓmax.
        let g = classic::path(2);
        let algo = Algorithm2::new(&g, LmaxPolicy::fixed(2, 5));
        let mut sim = Simulator::new(&g, algo.clone(), vec![0, 0], 7);
        sim.step();
        assert_eq!(sim.states(), &[5, 5]);
    }

    #[test]
    fn stable_configuration_is_fixpoint() {
        let g = classic::path(3);
        let algo = Algorithm2::new(&g, LmaxPolicy::fixed(3, 6));
        let levels = vec![6, 0, 6];
        assert!(algo.is_stabilized(&g, &levels));
        let mut sim = Simulator::new(&g, algo.clone(), levels.clone(), 3);
        sim.run(50);
        assert_eq!(sim.states(), levels.as_slice());
        assert_eq!(algo.mis_members(&g, sim.states()), vec![false, true, false]);
    }

    #[test]
    fn converges_on_random_graph_from_adversarial_inits() {
        let g = random::gnp(60, 0.1, 5);
        let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
        let lmax: Vec<Level> = algo.policy().lmax_values().to_vec();
        for (name, init) in [
            ("all in-MIS claim", vec![0; 60]),
            ("all at ℓmax", lmax.clone()),
            ("all at 1", vec![1; 60]),
        ] {
            let mut sim = Simulator::new(&g, algo.clone(), init, 11);
            let r = sim.run_until(20_000, |s| algo.is_stabilized(s.graph(), s.states()));
            assert!(r.is_some(), "did not stabilize from {name}");
            let mis = algo.mis_members(&g, sim.states());
            assert!(graphs::mis::is_maximal_independent_set(&g, &mis), "from {name}");
        }
    }

    #[test]
    fn level_update_via_receive() {
        let g = classic::path(2);
        let algo = Algorithm2::new(&g, LmaxPolicy::fixed(2, 4));
        // Hearing beep2 forces ℓmax regardless of anything else.
        let mut rng = node_rng(0, 0);
        let mut l = 2;
        algo.receive(0, &mut l, BeepSignal::silent(), BeepSignal::channel2(), &mut rng);
        assert_eq!(l, 4);
        // Lone channel-1 beep joins the MIS.
        let mut l = 3;
        algo.receive(0, &mut l, BeepSignal::channel1(), BeepSignal::silent(), &mut rng);
        assert_eq!(l, 0);
    }

    #[test]
    #[should_panic(expected = "ℓmax to every vertex")]
    fn policy_size_mismatch_panics() {
        let g = classic::path(3);
        Algorithm2::new(&g, LmaxPolicy::fixed(5, 5));
    }
}
