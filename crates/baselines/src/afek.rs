//! An epoch-structured beeping MIS with knowledge of an upper bound
//! `N ≥ n`, structurally faithful to Afek, Alon, Bar-Joseph, Cornejo,
//! Haeupler & Kuhn, *Beeping a maximal independent set* \[1\].
//!
//! Structure (one **epoch** = `⌈log₂ N⌉ + 2` slots):
//!
//! - at the epoch start every competing node draws a uniform slot in
//!   `{0, …, ⌈log₂ N⌉ - 1}`;
//! - a competing node beeps in its slot unless it already heard a beep in
//!   an earlier slot of this epoch (then it withdraws for the epoch);
//! - a node that beeps in its slot and hears nothing *during its slot*
//!   wins its neighborhood and joins the MIS;
//! - in the **announcement slot** (last slot), MIS nodes beep; competing
//!   neighbors that hear it leave the competition permanently.
//!
//! Faithfulness and simplification: like Afek et al., nodes know only `N`,
//! compete through `Θ(log N)`-round exchanges, and are eliminated through
//! announcements; epochs are aligned by the global round counter (their
//! model's synchronized wake-up). The original paper's extra machinery for
//! *adversarial* wake-up (which drives their `O(log² N · log n)` bound and
//! lower bound) is out of scope here — the documented comparison point is
//! the multiplicative `Θ(log N)` per-epoch factor that the reproduced
//! paper's Algorithm 1 avoids.
//!
//! The epoch counter is derived from the global round number, so this
//! baseline is **not** self-stabilizing with respect to clock faults — it
//! is the "knows N, pays a log N factor" reference line.

use beeping::protocol::{BeepSignal, BeepingProtocol, Channels};
use graphs::{Graph, NodeId};
use mis::{Judge, RunLoop, RunResult};
use rand::Rng;
use rand_pcg::Pcg64Mcg;

/// Competition status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Competing,
    InMis,
    Out,
}

/// Per-node state.
#[derive(Debug, Clone, Copy)]
pub struct AfekState {
    status: Status,
    /// Position within the current epoch, advanced locally each round
    /// (synchronized by identical initialization).
    clock: u32,
    /// This epoch's chosen slot.
    slot: u32,
    /// Whether an earlier beep this epoch forced a withdrawal.
    withdrawn: bool,
    /// Whether this node beeped in its slot and heard silence (a win,
    /// confirmed at the announcement slot).
    won: bool,
}

impl AfekState {
    /// The synchronized initial state (epoch position 0, competing).
    pub fn initial() -> AfekState {
        AfekState { status: Status::Competing, clock: 0, slot: 0, withdrawn: false, won: false }
    }
}

/// The epoch-structured protocol. `N` is the known upper bound on the
/// network size.
///
/// # Example
///
/// ```
/// use baselines::afek::AfekStyleMis;
/// use graphs::generators::random;
///
/// let g = random::gnp(100, 0.08, 3);
/// let algo = AfekStyleMis::new(100); // knows N = n here
/// let outcome = algo.run(&g, 5, 100_000).expect("terminates");
/// assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AfekStyleMis {
    slots: u32,
}

impl AfekStyleMis {
    /// Creates the protocol with knowledge of the upper bound `n_bound ≥ n`.
    ///
    /// # Panics
    ///
    /// Panics if `n_bound == 0`.
    pub fn new(n_bound: usize) -> AfekStyleMis {
        assert!(n_bound > 0, "N must be positive");
        AfekStyleMis { slots: mis::levels::log2_ceil(n_bound).max(2) }
    }

    /// Number of competition slots per epoch (`max(⌈log₂ N⌉, 2)` — at
    /// least two, because with a single slot adjacent contenders collide in
    /// every epoch and no progress is ever made).
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Runs from the synchronized start until no node competes, or
    /// [`mis::RunError::Budget`] if the round budget runs out first.
    pub fn run(&self, graph: &Graph, seed: u64, max_rounds: u64) -> RunResult<AfekState> {
        let initial = vec![AfekState::initial(); graph.len()];
        mis::runner::run_from(graph, self, initial, seed, max_rounds)
    }
}

impl Judge for AfekStyleMis {
    /// `true` when no node is still competing. Every run starts
    /// synchronized ([`AfekState::initial`] is the only state), and from
    /// there termination always yields a maximal independent set: debug
    /// builds check it.
    fn stopped(run: &mut RunLoop<'_, AfekStyleMis>) -> bool {
        let terminated = run.levels().iter().all(|s| s.status != Status::Competing);
        debug_assert!(
            !terminated
                || graphs::mis::is_maximal_independent_set(run.graph(), &Self::members(run)),
            "terminated at round {} with an invalid MIS",
            run.round()
        );
        terminated
    }

    /// The MIS bitmap: the nodes that won their neighbourhood.
    fn members(run: &RunLoop<'_, AfekStyleMis>) -> Vec<bool> {
        run.levels().iter().map(|s| s.status == Status::InMis).collect()
    }
}

impl BeepingProtocol for AfekStyleMis {
    type State = AfekState;

    fn channels(&self) -> Channels {
        Channels::One
    }

    fn transmit(&self, _node: NodeId, state: &AfekState, rng: &mut Pcg64Mcg) -> BeepSignal {
        // Epoch-start bookkeeping happens in `receive`; slot drawing must
        // happen here for clock 0 of each epoch, which is why the draw is
        // deterministic given the state: a fresh slot was stored at the end
        // of the previous epoch (or by `initial()` + first-round special
        // case below).
        let _ = rng;
        let announce = state.clock == self.slots;
        match state.status {
            Status::InMis => {
                if announce {
                    BeepSignal::channel1()
                } else {
                    BeepSignal::silent()
                }
            }
            Status::Competing => {
                let competes =
                    !announce && !state.withdrawn && (state.won || state.clock == state.slot);
                if competes || (announce && state.won) {
                    BeepSignal::channel1()
                } else {
                    BeepSignal::silent()
                }
            }
            Status::Out => BeepSignal::silent(),
        }
    }

    fn receive(
        &self,
        _node: NodeId,
        state: &mut AfekState,
        sent: BeepSignal,
        heard: BeepSignal,
        rng: &mut Pcg64Mcg,
    ) {
        let beeped = sent.on_channel1();
        let heard_beep = heard.on_channel1();
        let announce = state.clock == self.slots;
        if announce {
            if state.status == Status::Competing {
                if state.won {
                    state.status = Status::InMis;
                } else if heard_beep {
                    state.status = Status::Out;
                }
            }
            // Epoch rollover: reset per-epoch flags and draw a new slot.
            state.clock = 0;
            state.withdrawn = false;
            state.won = false;
            state.slot = rng.gen_range(0..self.slots);
        } else {
            if state.status == Status::Competing && !state.won {
                if beeped && !heard_beep {
                    state.won = true;
                } else if heard_beep && !beeped {
                    state.withdrawn = true;
                }
                // Simultaneous beep-and-hear: lost the slot, but may compete
                // again next epoch; no withdrawal needed (slot already
                // passed).
            }
            state.clock += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators::{classic, random};
    use mis::Outcome;

    #[test]
    fn produces_mis_on_families() {
        for (i, g) in [
            classic::path(20),
            classic::cycle(16),
            classic::complete(10),
            classic::star(25),
            random::gnp(120, 0.06, 3),
        ]
        .iter()
        .enumerate()
        {
            let algo = AfekStyleMis::new(g.len());
            let Outcome { mis, rounds_run: rounds, .. } =
                algo.run(g, i as u64, 1_000_000).expect("terminates");
            assert!(graphs::mis::is_maximal_independent_set(g, &mis), "graph {i}");
            assert!(rounds > 0);
        }
    }

    #[test]
    fn larger_n_bound_costs_more_rounds() {
        // Same graph, loose vs tight bound on N: the loose bound pays
        // proportionally longer epochs.
        let g = random::gnp(60, 0.1, 2);
        let tight = AfekStyleMis::new(60);
        let loose = AfekStyleMis::new(60 * 1024);
        let r_tight = tight.run(&g, 4, 1_000_000).unwrap().rounds_run;
        let r_loose = loose.run(&g, 4, 1_000_000).unwrap().rounds_run;
        assert!(
            r_loose as f64 > r_tight as f64 * 1.3,
            "loose bound should cost materially more: tight={r_tight} loose={r_loose}"
        );
    }

    #[test]
    #[should_panic(expected = "N must be positive")]
    fn zero_bound_rejected() {
        AfekStyleMis::new(0);
    }
}
