//! The original Jeavons–Scott–Xu (JSX) beeping MIS algorithm \[17\] — the
//! non-self-stabilizing starting point of the paper.
//!
//! The algorithm works in *phases of two rounds* (paper §2):
//!
//! - **Competition round** (even rounds): each active vertex beeps with its
//!   current probability `p`. If it beeps and hears nothing, it joins the
//!   MIS.
//! - **Announcement round** (odd rounds): vertices that just joined beep;
//!   active neighbors hearing the announcement become non-MIS and exit.
//!   Then every remaining active vertex adapts `p`: halve it if a neighbor
//!   beeped in the competition round, double it (capped at ½) otherwise.
//!
//! Joined and exited vertices stay **silent forever** — which is precisely
//! why the algorithm cannot detect faults, and the two-round phase structure
//! plus the fixed initial `p = ½` are why it is not self-stabilizing. The
//! [`JsxState`] exposes every field so the adversarial experiment can start
//! the network desynchronized and show the failures. Runs go through the
//! workspace's one run loop ([`mis::runner::run_from`]), judged by JSX's own
//! termination predicate.

use beeping::protocol::{BeepSignal, BeepingProtocol, Channels};
use graphs::{Graph, NodeId};
use mis::{Judge, RunLoop, RunResult};
use rand::Rng;
use rand_pcg::Pcg64Mcg;

/// Largest probability exponent a vertex can reach: `p` never falls below
/// `2^{-62}`, keeping `2^{-prob_exp}` comfortably inside `f64` range.
pub const MAX_PROB_EXP: u32 = 62;

/// Status of a vertex in the JSX algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsxStatus {
    /// Still competing.
    Active,
    /// Joined the MIS in the previous competition round; will announce.
    Joining,
    /// Permanently in the MIS (silent).
    InMis,
    /// Permanently out of the MIS (silent).
    OutOfMis,
}

/// Per-vertex state of the JSX algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsxState {
    /// Beep-probability exponent: `p = 2^{-prob_exp}`; the clean start is
    /// `prob_exp = 1` (`p = ½`), and `p` never rises above ½.
    pub prob_exp: u32,
    /// Phase parity as this vertex believes it: `0` = competition round
    /// next, `1` = announcement round next. The clean start is `0`
    /// everywhere; corrupting this models the loss of modulo-2 synchrony.
    pub parity: u8,
    /// Whether the vertex heard a beep in the last competition round (used
    /// by the probability update in the announcement round).
    pub heard_in_competition: bool,
    /// Competition status.
    pub status: JsxStatus,
}

impl JsxState {
    /// The clean initial state the algorithm's analysis assumes:
    /// `p = ½`, competition round next, active.
    pub fn clean() -> JsxState {
        JsxState { prob_exp: 1, parity: 0, heard_in_competition: false, status: JsxStatus::Active }
    }
}

impl Default for JsxState {
    fn default() -> JsxState {
        JsxState::clean()
    }
}

/// The JSX protocol object. Stateless apart from the probability cap — all
/// per-vertex data lives in [`JsxState`].
///
/// # Example
///
/// ```
/// use baselines::jeavons::JsxMis;
/// use graphs::generators::random;
///
/// let g = random::gnp(100, 0.1, 3);
/// let jsx = JsxMis::new();
/// let outcome = jsx.run_clean(&g, 5, 10_000).expect("terminates");
/// assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
/// assert!(outcome.rounds_run % 2 == 0); // phases of two rounds
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct JsxMis;

impl JsxMis {
    /// Creates the protocol.
    pub fn new() -> JsxMis {
        JsxMis
    }

    /// Runs from the clean synchronized start until termination, or
    /// [`mis::RunError::Budget`] if the round budget runs out first.
    pub fn run_clean(&self, graph: &Graph, seed: u64, max_rounds: u64) -> RunResult<JsxState> {
        self.run_from(graph, vec![JsxState::clean(); graph.len()], seed, max_rounds)
    }

    /// Runs from an arbitrary initial configuration until termination —
    /// used by the adversarial experiment. From desynchronized states
    /// [`mis::RunError::Budget`] is a real outcome: the algorithm can stall with
    /// active vertices that keep failing, or terminate with a non-MIS.
    pub fn run_from(
        &self,
        graph: &Graph,
        initial: Vec<JsxState>,
        seed: u64,
        max_rounds: u64,
    ) -> RunResult<JsxState> {
        mis::runner::run_from(graph, self, initial, seed, max_rounds)
    }
}

impl Judge for JsxMis {
    /// `true` when no vertex is active or joining — the algorithm has
    /// terminated and the `InMis` vertices are its answer.
    fn stopped(run: &mut RunLoop<'_, JsxMis>) -> bool {
        run.levels().iter().all(|s| matches!(s.status, JsxStatus::InMis | JsxStatus::OutOfMis))
    }

    /// The MIS bitmap: the `InMis` vertices.
    fn members(run: &RunLoop<'_, JsxMis>) -> Vec<bool> {
        run.levels().iter().map(|s| s.status == JsxStatus::InMis).collect()
    }

    /// The probability exponent stays inside `[1, MAX_PROB_EXP]` from any
    /// starting configuration.
    fn check_round(&self, _graph: &Graph, round: u64, states: &[JsxState]) {
        for (v, s) in states.iter().enumerate() {
            assert!(
                (1..=MAX_PROB_EXP).contains(&s.prob_exp),
                "round {round}: node {v} has prob_exp={} outside [1, {MAX_PROB_EXP}]",
                s.prob_exp
            );
        }
    }
}

impl BeepingProtocol for JsxMis {
    type State = JsxState;

    fn channels(&self) -> Channels {
        Channels::One
    }

    fn transmit(&self, _node: NodeId, state: &JsxState, rng: &mut Pcg64Mcg) -> BeepSignal {
        match (state.parity, state.status) {
            // Competition round: active vertices beep with probability p.
            (0, JsxStatus::Active) => {
                if rng.gen_bool(2f64.powi(-i32::try_from(state.prob_exp).unwrap_or(i32::MAX))) {
                    BeepSignal::channel1()
                } else {
                    BeepSignal::silent()
                }
            }
            // Announcement round: joining vertices beep.
            (1, JsxStatus::Joining) => BeepSignal::channel1(),
            // Everyone else is silent (including, crucially, stabilized
            // vertices — the non-self-stabilizing design).
            _ => BeepSignal::silent(),
        }
    }

    fn receive(
        &self,
        _node: NodeId,
        state: &mut JsxState,
        sent: BeepSignal,
        heard: BeepSignal,
        _rng: &mut Pcg64Mcg,
    ) {
        let beeped = sent.on_channel1();
        let heard_beep = heard.on_channel1();
        match state.parity {
            0 => {
                // End of a competition round.
                state.heard_in_competition = heard_beep;
                if state.status == JsxStatus::Active && beeped && !heard_beep {
                    state.status = JsxStatus::Joining;
                }
                state.parity = 1;
            }
            _ => {
                // End of an announcement round.
                if state.status == JsxStatus::Joining {
                    state.status = JsxStatus::InMis;
                } else if state.status == JsxStatus::Active {
                    if heard_beep {
                        // A neighbor joined the MIS.
                        state.status = JsxStatus::OutOfMis;
                    } else if state.heard_in_competition {
                        state.prob_exp = state.prob_exp.saturating_add(1).min(MAX_PROB_EXP);
                    } else {
                        state.prob_exp = state.prob_exp.saturating_sub(1).max(1);
                    }
                }
                state.parity = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators::{classic, random};
    use mis::{Outcome, RunError};

    #[test]
    fn clean_run_produces_mis() {
        for (i, g) in [
            classic::path(20),
            classic::cycle(15),
            classic::complete(12),
            classic::star(25),
            random::gnp(100, 0.08, 4),
        ]
        .iter()
        .enumerate()
        {
            let Outcome { mis, rounds_run: rounds, .. } =
                JsxMis::new().run_clean(g, i as u64, 100_000).expect("terminates");
            assert!(graphs::mis::is_maximal_independent_set(g, &mis), "graph {i}");
            assert!(rounds > 0);
        }
    }

    #[test]
    fn clean_run_is_deterministic() {
        let g = random::gnp(60, 0.1, 7);
        let run = || JsxMis::new().run_clean(&g, 9, 100_000).map(|o| (o.mis, o.rounds_run));
        assert_eq!(run(), run());
    }

    #[test]
    fn terminated_vertices_stay_silent() {
        let g = classic::complete(8);
        let jsx = JsxMis::new();
        let terminated = jsx.run_clean(&g, 3, 100_000).expect("terminates").levels;
        let mut sim = beeping::Simulator::new(&g, jsx, terminated, 3);
        let before: Vec<JsxStatus> = sim.states().iter().map(|s| s.status).collect();
        for _ in 0..10 {
            let quiet = sim.step();
            assert_eq!(quiet.total_beeps(), 0);
        }
        let after: Vec<JsxStatus> = sim.states().iter().map(|s| s.status).collect();
        assert_eq!(after, before);
    }

    #[test]
    fn corrupted_in_mis_states_can_yield_non_mis() {
        // Adversarial initialization: two adjacent vertices both believe
        // they are InMis. Both stay silent forever — the "terminated" output
        // violates independence and the algorithm can never detect it.
        let g = classic::path(2);
        let mut bad = JsxState::clean();
        bad.status = JsxStatus::InMis;
        let Outcome { mis, rounds_run: rounds, .. } =
            JsxMis::new().run_from(&g, vec![bad, bad], 0, 1_000).expect("already terminated");
        assert_eq!(rounds, 0);
        assert_eq!(mis, vec![true, true]);
        assert!(!graphs::mis::is_maximal_independent_set(&g, &mis));
    }

    #[test]
    fn corrupted_out_of_mis_states_can_deadlock_coverage() {
        // All vertices believe they are OutOfMis: termination is immediate
        // but nothing dominates them — an empty, non-maximal "MIS".
        let g = classic::cycle(6);
        let mut bad = JsxState::clean();
        bad.status = JsxStatus::OutOfMis;
        let Outcome { mis, .. } =
            JsxMis::new().run_from(&g, vec![bad; 6], 0, 1_000).expect("already terminated");
        assert!(mis.iter().all(|&m| !m));
        assert!(!graphs::mis::is_maximal_independent_set(&g, &mis));
    }

    #[test]
    fn desynchronized_start_can_exhaust_the_budget() {
        // Alternating phase parity and p = 2^-8 on an 8-cycle, 16 rounds of
        // budget: on 9 of 24 seeds JSX is still competing when the budget
        // runs out. That is an outcome of the run, not an invalid plan.
        let g = classic::cycle(8);
        let desynced: Vec<JsxState> = (0..8)
            .map(|v| JsxState { prob_exp: 8, parity: (v % 2) as u8, ..JsxState::clean() })
            .collect();
        let terminated_at = [
            Some(13),
            Some(13),
            None,
            Some(15),
            None,
            None,
            Some(15),
            Some(16),
            Some(15),
            None,
            None,
            Some(13),
            Some(14),
            Some(13),
            Some(14),
            Some(16),
            Some(15),
            Some(15),
            None,
            None,
            Some(16),
            None,
            Some(14),
            None,
        ];
        for (seed, expected) in terminated_at.into_iter().enumerate() {
            match JsxMis::new().run_from(&g, desynced.clone(), seed as u64, 16) {
                Ok(outcome) => assert_eq!(Some(outcome.rounds_run), expected, "seed {seed}"),
                Err(RunError::Budget(err)) => {
                    assert_eq!(expected, None, "seed {seed}: {err}");
                    assert_eq!((err.max_rounds, err.n), (16, 8));
                }
                Err(err) => panic!("seed {seed}: {err}"),
            }
        }
    }

    #[test]
    fn probability_exponent_bounded() {
        let g = classic::complete(6);
        let jsx = JsxMis::new();
        let mut sim = beeping::Simulator::new(&g, jsx, vec![JsxState::clean(); 6], 5);
        for _ in 0..500 {
            sim.step();
            for s in sim.states() {
                assert!(s.prob_exp >= 1 && s.prob_exp <= MAX_PROB_EXP);
            }
        }
    }

    #[test]
    fn rounds_even_at_termination_from_clean_start() {
        let g = random::gnp(40, 0.15, 2);
        let rounds = JsxMis::new().run_clean(&g, 11, 100_000).unwrap().rounds_run;
        assert_eq!(rounds % 2, 0, "clean runs terminate on phase boundaries");
    }
}
