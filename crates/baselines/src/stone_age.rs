//! The **Stone Age model** of Emek & Wattenhofer (PODC 2013) — the other
//! weak computation model the reproduced paper discusses (§1): a network of
//! randomized finite-state machines communicating through a fixed message
//! alphabet with *bounded counting*.
//!
//! Semantics implemented here (synchronous variant):
//!
//! - every node permanently displays one **letter** from a finite alphabet
//!   `Σ` (its last transmitted message, readable by neighbors);
//! - in each round a node observes, for each letter `σ ∈ Σ`, the value
//!   `min(#neighbors displaying σ, b)` for the *bounding parameter* `b`
//!   (the "one-two-many" principle: nodes cannot count beyond `b`);
//! - it then applies its randomized transition function, updating its
//!   internal state and the letter it displays.
//!
//! With `b = 1` and alphabet `{silent, beep}` this model *subsumes* the
//! full-duplex beeping model — a fact the paper's related-work section
//! leans on ("a simplified version of the Stone Age model … is slightly
//! stronger than the beeping communication model"). The adapter
//! [`BeepingInStoneAge`] makes the embedding executable: any one-channel
//! [`BeepingProtocol`] runs unchanged on this substrate, and the test suite
//! cross-validates that a full Algorithm-1 execution is **bit-identical**
//! under both simulators.

use beeping::protocol::{BeepSignal, BeepingProtocol, Channels};
use graphs::{Graph, NodeId};
use rand_pcg::Pcg64Mcg;

/// A protocol in the (synchronous) Stone Age model.
pub trait StoneAgeProtocol {
    /// Internal FSM state.
    type State: Clone + std::fmt::Debug;

    /// Size of the message alphabet `Σ`; letters are `0..alphabet_size()`.
    fn alphabet_size(&self) -> usize;

    /// The bounding parameter `b ≥ 1`: counts are clamped to `0..=b`.
    fn bound(&self) -> usize;

    /// One transition: given the bounded counts (`counts[σ] =
    /// min(#neighbors displaying σ, b)`), update the state and return the
    /// letter to display next.
    ///
    /// `displayed` is the letter this node currently displays.
    fn step(
        &self,
        node: NodeId,
        state: &mut Self::State,
        displayed: u8,
        counts: &[usize],
        rng: &mut Pcg64Mcg,
    ) -> u8;
}

/// Synchronous executor for a [`StoneAgeProtocol`].
#[derive(Debug)]
pub struct StoneAgeSimulator<'g, P: StoneAgeProtocol> {
    graph: &'g Graph,
    protocol: P,
    states: Vec<P::State>,
    displayed: Vec<u8>,
    rngs: Vec<Pcg64Mcg>,
    round: u64,
    counts_scratch: Vec<usize>,
}

impl<'g, P: StoneAgeProtocol> StoneAgeSimulator<'g, P> {
    /// Creates the simulator with initial states and initially displayed
    /// letters.
    ///
    /// # Panics
    ///
    /// Panics if the vectors don't match the graph size, if the alphabet is
    /// empty, if `b == 0`, or if an initial letter is outside the alphabet.
    pub fn new(
        graph: &'g Graph,
        protocol: P,
        initial_states: Vec<P::State>,
        initial_letters: Vec<u8>,
        seed: u64,
    ) -> StoneAgeSimulator<'g, P> {
        assert_eq!(initial_states.len(), graph.len(), "one state per node");
        assert_eq!(initial_letters.len(), graph.len(), "one letter per node");
        let sigma = protocol.alphabet_size();
        assert!(sigma > 0, "alphabet must be non-empty");
        assert!(protocol.bound() >= 1, "bounding parameter must be >= 1");
        assert!(
            initial_letters.iter().all(|&letter| (letter as usize) < sigma),
            "initial letters must be inside the alphabet"
        );
        StoneAgeSimulator {
            graph,
            protocol,
            states: initial_states,
            displayed: initial_letters,
            rngs: beeping::rng::node_rngs(seed, graph.len()),
            round: 0,
            counts_scratch: vec![0; sigma],
        }
    }

    /// Creates the simulator with the initial letters drawn by `first`
    /// using the simulator's own per-node random streams — required when
    /// the first displayed letter is itself a randomized function of the
    /// state (as in the beeping embedding, where it is the round-1
    /// transmission) and stream alignment with another executor matters.
    ///
    /// # Panics
    ///
    /// Same conditions as [`StoneAgeSimulator::new`].
    pub fn with_drawn_letters<F>(
        graph: &'g Graph,
        protocol: P,
        initial_states: Vec<P::State>,
        seed: u64,
        mut first: F,
    ) -> StoneAgeSimulator<'g, P>
    where
        F: FnMut(NodeId, &P::State, &mut Pcg64Mcg) -> u8,
    {
        assert_eq!(initial_states.len(), graph.len(), "one state per node");
        let sigma = protocol.alphabet_size();
        assert!(sigma > 0, "alphabet must be non-empty");
        assert!(protocol.bound() >= 1, "bounding parameter must be >= 1");
        let mut rngs = beeping::rng::node_rngs(seed, graph.len());
        let displayed: Vec<u8> = initial_states
            .iter()
            .enumerate()
            .map(|(v, s)| {
                let letter = first(v, s, &mut rngs[v]);
                assert!((letter as usize) < sigma, "initial letter outside Σ");
                letter
            })
            .collect();
        StoneAgeSimulator {
            graph,
            protocol,
            states: initial_states,
            displayed,
            rngs,
            round: 0,
            counts_scratch: vec![0; sigma],
        }
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Internal states.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Currently displayed letters.
    pub fn displayed(&self) -> &[u8] {
        &self.displayed
    }

    /// Executes one synchronous round.
    pub fn step(&mut self) {
        let n = self.graph.len();
        let b = self.protocol.bound();
        let sigma = self.protocol.alphabet_size();
        let mut next_letters = vec![0u8; n];
        #[allow(clippy::needless_range_loop)] // v indexes three parallel arrays
        for v in 0..n {
            self.counts_scratch.iter_mut().for_each(|c| *c = 0);
            for &u in self.graph.neighbors(v) {
                let letter = self.displayed[u as usize] as usize;
                if self.counts_scratch[letter] < b {
                    self.counts_scratch[letter] += 1;
                }
            }
            let next = self.protocol.step(
                v,
                &mut self.states[v],
                self.displayed[v],
                &self.counts_scratch,
                &mut self.rngs[v],
            );
            assert!((next as usize) < sigma, "protocol displayed a letter outside Σ");
            next_letters[v] = next;
        }
        self.displayed = next_letters;
        self.round += 1;
    }

    /// Runs until `stop` holds (checked before the first round and after
    /// each); returns the stop round or `None` on budget exhaustion.
    pub fn run_until<F>(&mut self, max_rounds: u64, mut stop: F) -> Option<u64>
    where
        F: FnMut(&[P::State]) -> bool,
    {
        if stop(&self.states) {
            return Some(self.round);
        }
        while self.round < max_rounds {
            self.step();
            if stop(&self.states) {
                return Some(self.round);
            }
        }
        None
    }
}

/// The executable embedding of the one-channel beeping model into the
/// Stone Age model with `Σ = {silent, beep}` and `b = 1`.
///
/// Semantics mapping: a node "beeps" by displaying letter 1 for one round;
/// hearing "≥ 1 beep" is the bounded count `counts[1] ≥ 1`. The wrapped
/// protocol's `transmit`/`receive` pair runs inside one Stone Age
/// transition, with the *next* displayed letter being the next round's
/// transmission — so the per-node RNG consumption matches the beeping
/// simulator draw-for-draw after the first (priming) round.
#[derive(Debug, Clone)]
pub struct BeepingInStoneAge<P> {
    inner: P,
}

/// The letter displayed by a silent node.
pub const LETTER_SILENT: u8 = 0;
/// The letter displayed by a beeping node.
pub const LETTER_BEEP: u8 = 1;

impl<P: BeepingProtocol> BeepingInStoneAge<P> {
    /// Wraps a one-channel beeping protocol.
    ///
    /// # Panics
    ///
    /// Panics if the protocol uses two channels (the embedding would need a
    /// 4-letter alphabet; only the single-channel model is provided).
    pub fn new(inner: P) -> BeepingInStoneAge<P> {
        assert_eq!(
            inner.channels(),
            Channels::One,
            "only one-channel protocols embed into the 2-letter Stone Age alphabet"
        );
        BeepingInStoneAge { inner }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Builds a [`StoneAgeSimulator`] whose initial letters are the
    /// wrapped protocol's round-1 transmissions, drawn from the same
    /// per-node streams the executor will keep using — which makes the
    /// embedded execution consume randomness in exactly the order of the
    /// native beeping simulator (transmit₁, receive₁, transmit₂, …).
    pub fn into_simulator(
        self,
        graph: &Graph,
        initial_states: Vec<P::State>,
        seed: u64,
    ) -> StoneAgeSimulator<'_, BeepingInStoneAge<P>>
    where
        P: Clone,
    {
        let primer = self.inner.clone();
        StoneAgeSimulator::with_drawn_letters(
            graph,
            self,
            initial_states,
            seed,
            move |v, s, rng| {
                if primer.transmit(v, s, rng).on_channel1() {
                    LETTER_BEEP
                } else {
                    LETTER_SILENT
                }
            },
        )
    }
}

impl<P: BeepingProtocol> StoneAgeProtocol for BeepingInStoneAge<P> {
    type State = P::State;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn bound(&self) -> usize {
        1
    }

    fn step(
        &self,
        node: NodeId,
        state: &mut Self::State,
        displayed: u8,
        counts: &[usize],
        rng: &mut Pcg64Mcg,
    ) -> u8 {
        let sent =
            if displayed == LETTER_BEEP { BeepSignal::channel1() } else { BeepSignal::silent() };
        let heard = if counts[LETTER_BEEP as usize] >= 1 {
            BeepSignal::channel1()
        } else {
            BeepSignal::silent()
        };
        self.inner.receive(node, state, sent, heard, rng);
        if self.inner.transmit(node, state, rng).on_channel1() {
            LETTER_BEEP
        } else {
            LETTER_SILENT
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators::{classic, random};
    use mis::runner::{initial_levels, RunConfig};
    use mis::{Algorithm1, LmaxPolicy};
    use rand::Rng;

    /// A native Stone Age protocol: 3-bounded counting of "red" neighbors.
    struct CountReds;
    impl StoneAgeProtocol for CountReds {
        type State = usize; // running total of bounded red counts
        fn alphabet_size(&self) -> usize {
            2
        }
        fn bound(&self) -> usize {
            3
        }
        fn step(
            &self,
            _node: NodeId,
            state: &mut usize,
            displayed: u8,
            counts: &[usize],
            _rng: &mut Pcg64Mcg,
        ) -> u8 {
            *state += counts[1];
            displayed // keep displaying the same letter
        }
    }

    #[test]
    fn bounded_counting_clamps_at_b() {
        // Star: the hub sees 6 red leaves but can only count to 3.
        let g = classic::star(7);
        let letters = vec![0, 1, 1, 1, 1, 1, 1];
        let mut sim = StoneAgeSimulator::new(&g, CountReds, vec![0; 7], letters, 1);
        sim.step();
        assert_eq!(sim.states()[0], 3, "hub count must clamp at b = 3");
        // A leaf sees the silent hub: count 0.
        assert_eq!(sim.states()[1], 0);
    }

    #[test]
    fn letters_update_synchronously() {
        /// Alternator: flips its displayed letter each round.
        struct Flip;
        impl StoneAgeProtocol for Flip {
            type State = ();
            fn alphabet_size(&self) -> usize {
                2
            }
            fn bound(&self) -> usize {
                1
            }
            fn step(
                &self,
                _: NodeId,
                _: &mut (),
                displayed: u8,
                _: &[usize],
                _: &mut Pcg64Mcg,
            ) -> u8 {
                1 - displayed
            }
        }
        let g = classic::path(2);
        let mut sim = StoneAgeSimulator::new(&g, Flip, vec![(), ()], vec![0, 1], 0);
        sim.step();
        assert_eq!(sim.displayed(), &[1, 0]);
        sim.step();
        assert_eq!(sim.displayed(), &[0, 1]);
    }

    #[test]
    fn run_until_semantics() {
        struct Inc;
        impl StoneAgeProtocol for Inc {
            type State = u32;
            fn alphabet_size(&self) -> usize {
                1
            }
            fn bound(&self) -> usize {
                1
            }
            fn step(&self, _: NodeId, s: &mut u32, d: u8, _: &[usize], _: &mut Pcg64Mcg) -> u8 {
                *s += 1;
                d
            }
        }
        let g = classic::path(3);
        let mut sim = StoneAgeSimulator::new(&g, Inc, vec![0; 3], vec![0; 3], 0);
        assert_eq!(sim.run_until(100, |s| s.iter().all(|&x| x >= 5)), Some(5));
        assert_eq!(sim.run_until(3, |s| s.iter().all(|&x| x >= 100)), None);
    }

    /// The headline cross-validation: Algorithm 1 executed on the Stone Age
    /// substrate (via the embedding) is bit-identical to the native beeping
    /// execution — levels match round for round.
    #[test]
    fn beeping_embedding_is_bit_identical() {
        let g = random::gnp(60, 0.1, 3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let seed = 11;
        let config = RunConfig::new(seed);
        let init = initial_levels(&algo, &config);

        // Native beeping execution.
        let mut native = beeping::Simulator::new(&g, algo.clone(), init.clone(), seed);

        // Stone Age execution of the same protocol.
        let embedded = BeepingInStoneAge::new(algo.clone());
        let mut stone = embedded.into_simulator(&g, init, seed);

        for round in 1..=300u64 {
            native.step();
            stone.step();
            assert_eq!(native.states(), stone.states(), "divergence at round {round}");
        }
    }

    #[test]
    fn embedding_stabilizes_to_valid_mis() {
        let g = random::gnp(80, 0.08, 5);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = RunConfig::new(2);
        let init = initial_levels(&algo, &config);
        let embedded = BeepingInStoneAge::new(algo.clone());
        let mut stone = embedded.into_simulator(&g, init, 2);
        let done = stone.run_until(1_000_000, |levels| algo.is_stabilized(&g, levels));
        assert!(done.is_some());
        let mis_set = algo.mis_members(&g, stone.states());
        assert!(graphs::mis::is_maximal_independent_set(&g, &mis_set));
    }

    #[test]
    #[should_panic(expected = "only one-channel")]
    fn two_channel_protocols_rejected() {
        let g = classic::path(2);
        let algo2 = mis::Algorithm2::new(&g, LmaxPolicy::fixed(2, 5));
        let _ = BeepingInStoneAge::new(algo2);
    }

    #[test]
    fn random_transitions_use_node_streams() {
        struct Coin;
        impl StoneAgeProtocol for Coin {
            type State = u32;
            fn alphabet_size(&self) -> usize {
                2
            }
            fn bound(&self) -> usize {
                1
            }
            fn step(&self, _: NodeId, s: &mut u32, _: u8, _: &[usize], rng: &mut Pcg64Mcg) -> u8 {
                let bit = rng.gen_range(0..2u8);
                *s = s.wrapping_mul(31).wrapping_add(bit as u32);
                bit
            }
        }
        let g = classic::cycle(8);
        let run = |seed| {
            let mut sim = StoneAgeSimulator::new(&g, Coin, vec![0; 8], vec![0; 8], seed);
            for _ in 0..50 {
                sim.step();
            }
            sim.states().to_vec()
        };
        assert_eq!(run(4), run(4));
        assert_ne!(run(4), run(5));
    }
}
