//! A constant-state self-stabilizing beeping MIS, in the spirit of
//! Giakkoupis & Ziccardi \[16\] (*Distributed self-stabilizing MIS with few
//! states and weak communication*, PODC 2023), which the reproduced paper
//! cites as: "a constant-state algorithm … stabilizes in poly-logarithmic
//! rounds w.h.p., albeit being efficient only for some graph families".
//!
//! Each vertex keeps a single bit:
//!
//! - `In` vertices beep every round;
//! - an `In` vertex that hears a beep (a rival claimant) stays `In` only
//!   with probability ½, otherwise retreats to `Out`;
//! - an `Out` vertex that hears **no** beep (it is undominated) promotes
//!   itself to `In` with probability ½.
//!
//! A configuration whose `In`-set is an MIS is a fixpoint: members beep
//! into silence and stay, dominated vertices hear a beep and stay out. The
//! interesting contrast with the paper's Algorithm 1 — measured by
//! experiment `EXT-2STATE` — is the *cost of having no back-off state*:
//! without the geometric level ladder, high-degree neighborhoods keep many
//! rivals alive per round and convergence degrades on dense or
//! degree-heterogeneous graphs, which is exactly the "efficient only for
//! some graph families" caveat.

use beeping::protocol::{BeepSignal, BeepingProtocol, Channels};
use graphs::{Graph, NodeId};
use mis::{Judge, RunLoop, RunResult};
use rand::Rng;
use rand_pcg::Pcg64Mcg;

/// The one-bit state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoState {
    /// Claiming MIS membership; beeps every round.
    In,
    /// Not claiming; silent.
    Out,
}

/// The constant-state protocol.
///
/// # Example
///
/// ```
/// use baselines::two_state::TwoStateMis;
/// use graphs::generators::classic;
///
/// let g = classic::cycle(20);
/// let algo = TwoStateMis::new();
/// let outcome = algo.run_random_init(&g, 3, 1_000_000).expect("stabilizes");
/// assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
/// assert!(outcome.rounds_run > 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoStateMis;

impl TwoStateMis {
    /// Creates the protocol.
    pub fn new() -> TwoStateMis {
        TwoStateMis
    }

    /// Runs from uniformly random states until the `In`-set is an MIS, or
    /// [`mis::RunError::Budget`] if the round budget runs out first.
    pub fn run_random_init(
        &self,
        graph: &Graph,
        seed: u64,
        max_rounds: u64,
    ) -> RunResult<TwoState> {
        let mut rng = beeping::rng::aux_rng(seed, 0x25);
        let init: Vec<TwoState> = (0..graph.len())
            .map(|_| if rng.gen_bool(0.5) { TwoState::In } else { TwoState::Out })
            .collect();
        self.run_from(graph, init, seed, max_rounds)
    }

    /// Runs from explicit states (see [`mis::runner::run_from`]).
    pub fn run_from(
        &self,
        graph: &Graph,
        initial: Vec<TwoState>,
        seed: u64,
        max_rounds: u64,
    ) -> RunResult<TwoState> {
        mis::runner::run_from(graph, self, initial, seed, max_rounds)
    }
}

impl Judge for TwoStateMis {
    /// `true` if the `In`-set is an MIS — the legal (and then frozen)
    /// configurations.
    fn stopped(run: &mut RunLoop<'_, TwoStateMis>) -> bool {
        graphs::mis::is_maximal_independent_set(run.graph(), &Self::members(run))
    }

    /// The `In`-set as a bitmap.
    fn members(run: &RunLoop<'_, TwoStateMis>) -> Vec<bool> {
        run.levels().iter().map(|&s| s == TwoState::In).collect()
    }
}

impl BeepingProtocol for TwoStateMis {
    type State = TwoState;

    fn channels(&self) -> Channels {
        Channels::One
    }

    fn transmit(&self, _node: NodeId, state: &TwoState, _rng: &mut Pcg64Mcg) -> BeepSignal {
        match state {
            TwoState::In => BeepSignal::channel1(),
            TwoState::Out => BeepSignal::silent(),
        }
    }

    fn receive(
        &self,
        _node: NodeId,
        state: &mut TwoState,
        _sent: BeepSignal,
        heard: BeepSignal,
        rng: &mut Pcg64Mcg,
    ) {
        let heard_beep = heard.on_channel1();
        *state = match (*state, heard_beep) {
            // Uncontested claim / dominated non-member: legal, frozen.
            (TwoState::In, false) => TwoState::In,
            (TwoState::Out, true) => TwoState::Out,
            // Contested claim: back down with probability ½.
            (TwoState::In, true) => {
                if rng.gen_bool(0.5) {
                    TwoState::In
                } else {
                    TwoState::Out
                }
            }
            // Undominated non-member: promote with probability ½.
            (TwoState::Out, false) => {
                if rng.gen_bool(0.5) {
                    TwoState::In
                } else {
                    TwoState::Out
                }
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators::{classic, random};

    #[test]
    fn legal_configuration_is_fixpoint() {
        let g = classic::path(3);
        let algo = TwoStateMis::new();
        let states = vec![TwoState::Out, TwoState::In, TwoState::Out];
        // The judge accepts the configuration before any round runs.
        let outcome = algo.run_from(&g, states.clone(), 1, 50).expect("already stabilized");
        assert_eq!((outcome.mis, outcome.rounds_run), (vec![false, true, false], 0));
        let mut sim = beeping::Simulator::new(&g, algo, states.clone(), 1);
        sim.run(50);
        assert_eq!(sim.states(), states.as_slice());
    }

    #[test]
    fn stabilizes_on_sparse_families() {
        for (i, g) in [
            classic::path(30),
            classic::cycle(25),
            classic::star(30),
            random::gnp(80, 4.0 / 79.0, 2),
        ]
        .iter()
        .enumerate()
        {
            let algo = TwoStateMis::new();
            let outcome = algo
                .run_random_init(g, i as u64, 5_000_000)
                .unwrap_or_else(|e| panic!("graph {i} did not stabilize: {e}"));
            assert!(graphs::mis::is_maximal_independent_set(g, &outcome.mis), "graph {i}");
        }
    }

    #[test]
    fn adjacent_in_pair_resolves() {
        let g = classic::path(2);
        let algo = TwoStateMis::new();
        let outcome =
            algo.run_from(&g, vec![TwoState::In, TwoState::In], 1, 1_000_000).expect("resolves");
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    }

    #[test]
    fn all_out_recovers() {
        let g = classic::cycle(8);
        let algo = TwoStateMis::new();
        let outcome = algo.run_from(&g, vec![TwoState::Out; 8], 1, 1_000_000).expect("recovers");
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
        assert!(outcome.rounds_run > 0);
    }

    #[test]
    fn deterministic() {
        let g = random::gnp(40, 0.1, 3);
        let algo = TwoStateMis::new();
        let run = || algo.run_random_init(&g, 7, 5_000_000).map(|o| (o.mis, o.rounds_run));
        assert_eq!(run(), run());
    }
}
