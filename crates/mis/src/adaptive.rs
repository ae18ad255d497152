//! An exploratory answer to the paper's open question (§8): *"It is
//! natural to ask whether the local knowledge can be completely removed."*
//!
//! [`AdaptiveMis`] runs Algorithm 1's level dynamics but replaces the
//! knowledge-derived constant `ℓmax(v)` with a **learned per-vertex cap**
//! stored in RAM: the cap starts wherever the (possibly corrupted) state
//! says, and doubles — up to a universal hard limit — after every
//! [`COLLISION_THRESHOLD`] *collisions* (rounds in which the vertex beeped
//! and heard a beep simultaneously). Collisions are exactly the evidence
//! that the cap is too small for the local contention: with
//! `cap ≥ ≈ log deg(v)` the geometric back-off makes simultaneous beeps
//! rare, while a stable vertex — an MIS member beeping into silence, or a
//! silenced neighbor — never collides at all, so learning stops precisely
//! when the configuration stabilizes.
//!
//! What this is and is not:
//!
//! - it uses **zero** topology knowledge (no Δ, no deg, no deg₂, no n);
//! - the hard limit [`HARD_CAP`] is a universal constant of the
//!   implementation (not of the instance); it bounds the state space the
//!   way "at most polynomial in n" bounds the paper's `ℓmax` for every
//!   realistic n (`2^31` vertices);
//! - there is **no stabilization-time proof** — experiment `EXT-ADAPT`
//!   measures it empirically against the knowledge-based policies. It is
//!   an exploration of the open problem, not a claimed solution.

use beeping::protocol::{BeepSignal, BeepingProtocol, Channels};
use graphs::{Graph, NodeId};
use rand::{Rng, RngCore};

use crate::invariant::{debug_assert_level_in_range, LevelSpace};
use crate::levels::{beep_probability, update_level, Level};
use crate::recovery::stable_where;

/// Universal upper limit on learned caps (≈ `2 log₂(2^15) + 30`; supports
/// any realistic network size).
pub const HARD_CAP: Level = 60;

/// Smallest admissible cap. A cap of 1 would deadlock (level 1 = cap means
/// beep probability 0 with no decay target), so the floor is 2.
pub const MIN_CAP: Level = 2;

/// Collisions (beep-while-hearing rounds) before the cap doubles.
pub const COLLISION_THRESHOLD: u8 = 4;

/// Aux-RNG purpose tag for adversarial random-state initialization.
///
/// Shared by [`AdaptiveMis::run_random_init`] and
/// [`AdaptiveMis::run_states`] *on purpose*: both must draw the same
/// initial states for a given seed so state-trace runs reproduce the exact
/// executions the bitmap runs measured.
const ADAPTIVE_INIT_RNG_PURPOSE: u64 = 0xADA;

/// Per-vertex state of the adaptive algorithm — all RAM, all corruptible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveState {
    /// Current level, in `{-cap, …, cap}`.
    pub level: Level,
    /// Learned level cap, in `{MIN_CAP, …, HARD_CAP}`.
    pub cap: Level,
    /// Collisions observed since the last cap doubling, in
    /// `{0, …, COLLISION_THRESHOLD - 1}`.
    pub collisions: u8,
}

impl AdaptiveState {
    /// Canonicalizes arbitrary (corrupted) values into the state space.
    pub fn sanitized(level: i64, cap: i64) -> AdaptiveState {
        let cap = cap.clamp(MIN_CAP as i64, HARD_CAP as i64) as Level;
        let level = level.clamp(-(cap as i64), cap as i64) as Level;
        AdaptiveState { level, cap, collisions: 0 }
    }

    /// The modest fresh-start state (`cap = MIN_CAP`, level 1).
    pub fn fresh() -> AdaptiveState {
        AdaptiveState { level: 1, cap: MIN_CAP, collisions: 0 }
    }
}

/// The knowledge-free adaptive protocol.
///
/// # Example
///
/// ```
/// use graphs::generators::random;
/// use mis::adaptive::AdaptiveMis;
///
/// let g = random::gnp(100, 0.08, 3);
/// let algo = AdaptiveMis::new();
/// let (mis, rounds) = algo.run_random_init(&g, 7, 1_000_000).expect("stabilizes");
/// assert!(graphs::mis::is_maximal_independent_set(&g, &mis));
/// assert!(rounds > 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveMis;

impl AdaptiveMis {
    /// Creates the protocol.
    pub fn new() -> AdaptiveMis {
        AdaptiveMis
    }

    /// Stable MIS members: prominent vertices all of whose neighbors sit at
    /// their own caps (the adaptive analogue of `I_t`).
    pub fn mis_members(&self, graph: &Graph, states: &[AdaptiveState]) -> Vec<bool> {
        graph
            .nodes()
            .map(|v| {
                states[v].level <= 0
                    && graph
                        .neighbors(v)
                        .iter()
                        .all(|&u| states[u as usize].level == states[u as usize].cap)
            })
            .collect()
    }

    /// `true` when the stable set covers the graph; the resulting
    /// configuration is a fixpoint absent faults.
    pub fn is_stabilized(&self, graph: &Graph, states: &[AdaptiveState]) -> bool {
        stable_where(graph, &self.mis_members(graph, states), |_| true).all(|s| s)
    }

    /// Runs from uniformly random (adversarial) states; returns the MIS
    /// bitmap and stabilization round, or `None` on budget exhaustion.
    pub fn run_random_init(
        &self,
        graph: &Graph,
        seed: u64,
        max_rounds: u64,
    ) -> Option<(Vec<bool>, u64)> {
        let mut rng = beeping::rng::aux_rng(seed, ADAPTIVE_INIT_RNG_PURPOSE);
        let init: Vec<AdaptiveState> = (0..graph.len())
            .map(|_| {
                AdaptiveState::sanitized(
                    rng.gen_range(-(HARD_CAP as i64)..=HARD_CAP as i64),
                    rng.gen_range(0..=2 * HARD_CAP as i64),
                )
            })
            .collect();
        self.run_from(graph, init, seed, max_rounds)
    }

    /// Runs from explicit initial states.
    pub fn run_from(
        &self,
        graph: &Graph,
        initial: Vec<AdaptiveState>,
        seed: u64,
        max_rounds: u64,
    ) -> Option<(Vec<bool>, u64)> {
        let mut sim = beeping::Simulator::new(graph, *self, initial, seed);
        let done = sim.run_until(max_rounds, |s| self.is_stabilized(graph, s.states()))?;
        Some((self.mis_members(graph, sim.states()), done))
    }

    /// Runs and returns the final states (for cap-learning analyses).
    pub fn run_states(
        &self,
        graph: &Graph,
        seed: u64,
        max_rounds: u64,
    ) -> Option<(Vec<AdaptiveState>, u64)> {
        let mut rng = beeping::rng::aux_rng(seed, ADAPTIVE_INIT_RNG_PURPOSE);
        let init: Vec<AdaptiveState> = (0..graph.len())
            .map(|_| {
                AdaptiveState::sanitized(
                    rng.gen_range(-(HARD_CAP as i64)..=HARD_CAP as i64),
                    rng.gen_range(0..=2 * HARD_CAP as i64),
                )
            })
            .collect();
        let mut sim = beeping::Simulator::new(graph, *self, init, seed);
        let done = sim.run_until(max_rounds, |s| self.is_stabilized(graph, s.states()))?;
        Some((sim.states().to_vec(), done))
    }
}

impl BeepingProtocol for AdaptiveMis {
    type State = AdaptiveState;

    fn channels(&self) -> Channels {
        Channels::One
    }

    fn transmit(&self, _node: NodeId, state: &AdaptiveState, rng: &mut dyn RngCore) -> BeepSignal {
        debug_assert_level_in_range(state.level, state.cap, LevelSpace::Signed);
        let p = beep_probability(state.level, state.cap);
        if p > 0.0 && rng.gen_bool(p) {
            BeepSignal::channel1()
        } else {
            BeepSignal::silent()
        }
    }

    fn receive(
        &self,
        _node: NodeId,
        state: &mut AdaptiveState,
        sent: BeepSignal,
        heard: BeepSignal,
        _rng: &mut dyn RngCore,
    ) {
        // Collision = contention evidence; a stable vertex never collides
        // (MIS members beep into silence; silenced vertices never beep), so
        // cap learning halts exactly at stabilization.
        if sent.on_channel1() && heard.on_channel1() {
            state.collisions += 1;
            if state.collisions >= COLLISION_THRESHOLD {
                state.collisions = 0;
                state.cap = (state.cap * 2).min(HARD_CAP);
            }
        }
        state.level = update_level(state.level, state.cap, sent.on_channel1(), heard.on_channel1());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators::{classic, composite, random, scale_free};

    #[test]
    fn sanitize_clamps() {
        let s = AdaptiveState::sanitized(1000, 1000);
        assert_eq!(s, AdaptiveState { level: HARD_CAP, cap: HARD_CAP, collisions: 0 });
        let s = AdaptiveState::sanitized(-1000, 0);
        assert_eq!(s, AdaptiveState { level: -MIN_CAP, cap: MIN_CAP, collisions: 0 });
    }

    #[test]
    fn stabilizes_on_families_without_any_knowledge() {
        for (i, g) in [
            classic::path(30),
            classic::cycle(25),
            classic::complete(16),
            classic::star(30),
            random::gnp(100, 0.08, 2),
            scale_free::barabasi_albert(100, 3, 3).unwrap(),
            composite::star_of_cliques(8, 6),
        ]
        .iter()
        .enumerate()
        {
            let algo = AdaptiveMis::new();
            let (mis, rounds) = algo
                .run_random_init(g, i as u64, 2_000_000)
                .unwrap_or_else(|| panic!("graph {i} did not stabilize"));
            assert!(graphs::mis::is_maximal_independent_set(g, &mis), "graph {i}");
            assert!(rounds > 0);
        }
    }

    #[test]
    fn caps_grow_under_contention() {
        // On a clique, tiny caps collide constantly; final caps must exceed
        // the minimum.
        let g = classic::complete(24);
        let algo = AdaptiveMis::new();
        let init = vec![AdaptiveState::fresh(); 24];
        let mut sim = beeping::Simulator::new(&g, algo, init, 5);
        sim.run_until(1_000_000, |s| algo.is_stabilized(&g, s.states())).expect("stabilizes");
        let max_cap = sim.states().iter().map(|s| s.cap).max().unwrap();
        assert!(max_cap > MIN_CAP, "caps never grew: {max_cap}");
        assert!(max_cap <= HARD_CAP);
    }

    #[test]
    fn stable_configuration_is_fixpoint() {
        let g = classic::path(3);
        let algo = AdaptiveMis::new();
        let states = vec![
            AdaptiveState { level: 4, cap: 4, collisions: 0 },
            AdaptiveState { level: -6, cap: 6, collisions: 0 },
            AdaptiveState { level: 8, cap: 8, collisions: 0 },
        ];
        assert!(algo.is_stabilized(&g, &states));
        let mut sim = beeping::Simulator::new(&g, algo, states.clone(), 1);
        sim.run(40);
        assert_eq!(sim.states(), states.as_slice());
    }

    #[test]
    fn state_space_invariant_maintained() {
        let g = random::gnp(40, 0.15, 7);
        let algo = AdaptiveMis::new();
        let mut rng = beeping::rng::aux_rng(3, 9);
        let init: Vec<AdaptiveState> = (0..40)
            .map(|_| {
                AdaptiveState::sanitized(
                    rand::Rng::gen_range(&mut rng, -100..100),
                    rand::Rng::gen_range(&mut rng, -5..100),
                )
            })
            .collect();
        let mut sim = beeping::Simulator::new(&g, algo, init, 3);
        for _ in 0..300 {
            sim.step();
            for s in sim.states() {
                assert!(s.cap >= MIN_CAP && s.cap <= HARD_CAP);
                assert!(s.level >= -s.cap && s.level <= s.cap);
                assert!(s.collisions < COLLISION_THRESHOLD);
            }
        }
    }

    #[test]
    fn deterministic() {
        let g = random::gnp(50, 0.1, 4);
        let algo = AdaptiveMis::new();
        assert_eq!(algo.run_random_init(&g, 9, 1_000_000), algo.run_random_init(&g, 9, 1_000_000));
    }
}
