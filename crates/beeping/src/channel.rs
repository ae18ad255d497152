//! The unreliable-channel adversary: beep loss, spurious beeps, correlated
//! burst noise and jammer nodes.
//!
//! The paper's model assumes a perfectly reliable channel; the broader
//! beeping literature (Cornejo–Haeupler–Kuhn; Afek et al.) motivates beeps
//! precisely as a *weak, unreliable* primitive. This module models that
//! unreliability as a second, orthogonal fault axis next to the RAM
//! corruption of [`crate::faults`]:
//!
//! - **false negatives** — each directed beep delivery is lost independently
//!   with probability [`ChannelFault::drop_p`] (all channels of that
//!   delivery interfere away together);
//! - **false positives** — each listening node hears a spurious beep on each
//!   declared channel with probability [`ChannelFault::spurious_p`];
//! - **correlated bursts** — a two-state Gilbert process ([`BurstNoise`])
//!   switches the network between a good window (base `drop_p`) and a bad
//!   window with its own, typically much higher, loss rate;
//! - **jammers** — Byzantine transmitters ([`JammerKind`]) whose radio
//!   ignores the protocol: always beeping on every declared channel, or
//!   permanently dead.
//!
//! The model is pure configuration; the per-execution randomness comes from
//! the simulator's dedicated channel RNG stream (independent of every node
//! stream, so enabling noise never perturbs the protocol's own coin flips),
//! and the Gilbert window position lives in [`ChannelState`] so checkpoints
//! can capture it.
//!
//! # Example
//!
//! ```
//! use beeping::channel::{BurstNoise, ChannelFault, JammerKind};
//!
//! let channel = ChannelFault::reliable()
//!     .with_drop(0.05)
//!     .with_spurious(0.001)
//!     .with_burst(BurstNoise { p_enter: 0.01, p_exit: 0.2, drop_p: 0.8 })
//!     .with_jammer(3, JammerKind::AlwaysBeep);
//! assert!(!channel.is_reliable());
//! assert_eq!(channel.jammer(3), Some(JammerKind::AlwaysBeep));
//! assert_eq!(channel.jammer(0), None);
//! ```

use graphs::NodeId;
use rand::Rng;
use rand_pcg::Pcg64Mcg;

/// Byzantine radio behavior of a jammer node.
///
/// A jammer's *transmitter* is faulty, not its RAM: the protocol still runs
/// (and still updates state from the overridden `sent` value), but what
/// reaches the air is fixed by the adversary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JammerKind {
    /// Beeps on every declared channel every round.
    AlwaysBeep,
    /// Never emits anything (a dead radio); the node still listens.
    AlwaysSilent,
}

/// Two-state Gilbert burst-noise process.
///
/// The network starts in the *good* state. Each round it enters the *bad*
/// state with probability `p_enter`, and leaves it with probability
/// `p_exit`; while bad, the beep-loss probability is this struct's `drop_p`
/// instead of the channel's base rate. Expected bad-window length is
/// `1 / p_exit` rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstNoise {
    /// Per-round probability of entering the bad window.
    pub p_enter: f64,
    /// Per-round probability of leaving the bad window.
    pub p_exit: f64,
    /// Beep-loss probability while the bad window is live (replaces the
    /// channel's base `drop_p`).
    pub drop_p: f64,
}

/// Mutable per-execution state of the channel model: the Gilbert window
/// position. Owned by the simulator and captured by checkpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelState {
    /// `true` while the burst process sits in its bad window.
    pub in_burst: bool,
}

/// Configuration of the unreliable channel, applied between the network's
/// OR-aggregation and each node's `receive` step.
///
/// The default ([`ChannelFault::reliable`]) is the paper's perfect channel;
/// a reliable channel draws **zero** random numbers, so enabling the
/// subsystem without noise reproduces pre-noise executions bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChannelFault {
    /// Per-(directed edge, round) beep-loss probability in the good window.
    pub drop_p: f64,
    /// Per-(node, round, channel) spurious heard-beep probability.
    pub spurious_p: f64,
    /// Optional correlated burst noise.
    pub burst: Option<BurstNoise>,
    /// Jammer roles by node id (at most one per node; last write wins).
    jammers: Vec<(NodeId, JammerKind)>,
}

impl ChannelFault {
    /// The perfect channel of the paper: no loss, no spurious beeps, no
    /// bursts, no jammers.
    pub fn reliable() -> ChannelFault {
        ChannelFault::default()
    }

    /// Sets the base beep-loss probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_drop(mut self, p: f64) -> ChannelFault {
        assert!((0.0..=1.0).contains(&p), "drop probability must be in [0,1], got {p}");
        self.drop_p = p;
        self
    }

    /// Sets the spurious-beep probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_spurious(mut self, p: f64) -> ChannelFault {
        assert!((0.0..=1.0).contains(&p), "spurious probability must be in [0,1], got {p}");
        self.spurious_p = p;
        self
    }

    /// Enables correlated burst noise (builder style).
    ///
    /// # Panics
    ///
    /// Panics if any of the burst probabilities is outside `[0, 1]`.
    pub fn with_burst(mut self, burst: BurstNoise) -> ChannelFault {
        for (name, p) in
            [("p_enter", burst.p_enter), ("p_exit", burst.p_exit), ("drop_p", burst.drop_p)]
        {
            assert!((0.0..=1.0).contains(&p), "burst {name} must be in [0,1], got {p}");
        }
        self.burst = Some(burst);
        self
    }

    /// Declares `node` a jammer of the given kind (builder style),
    /// replacing any previous role for that node.
    pub fn with_jammer(mut self, node: NodeId, kind: JammerKind) -> ChannelFault {
        if let Some(entry) = self.jammers.iter_mut().find(|(v, _)| *v == node) {
            entry.1 = kind;
        } else {
            self.jammers.push((node, kind));
        }
        self
    }

    /// The jammer role of `node`, if any.
    pub fn jammer(&self, node: NodeId) -> Option<JammerKind> {
        self.jammers.iter().find(|(v, _)| *v == node).map(|&(_, kind)| kind)
    }

    /// All declared jammers as `(node, kind)` pairs.
    pub fn jammers(&self) -> &[(NodeId, JammerKind)] {
        &self.jammers
    }

    /// Checks the channel against an `n`-node network: every probability
    /// in `[0, 1]` (the public fields can be set directly, bypassing the
    /// builders' checks) and every jammer node in range.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, as a message.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        let burst = self.burst.iter().flat_map(|b| {
            [("burst p_enter", b.p_enter), ("burst p_exit", b.p_exit), ("burst drop_p", b.drop_p)]
        });
        let probabilities =
            [("drop probability", self.drop_p), ("spurious probability", self.spurious_p)];
        if let Some((name, p)) =
            probabilities.into_iter().chain(burst).find(|(_, p)| !(0.0..=1.0).contains(p))
        {
            return Err(format!("{name} must be in [0,1], got {p}"));
        }
        match self.jammers.iter().find(|&&(v, _)| v >= n) {
            Some(&(node, _)) => Err(format!("jammer node {node} out of range for n={n}")),
            None => Ok(()),
        }
    }

    /// `true` if this is the perfect channel: the simulator then skips every
    /// channel-RNG draw and reproduces noise-free executions exactly.
    pub fn is_reliable(&self) -> bool {
        self.drop_p == 0.0
            && self.spurious_p == 0.0
            && self.burst.is_none()
            && self.jammers.is_empty()
    }

    /// Advances the Gilbert window by one round. A no-op (zero RNG draws)
    /// without burst noise.
    pub fn advance_window(&self, state: &mut ChannelState, rng: &mut Pcg64Mcg) {
        if let Some(burst) = &self.burst {
            let flip = if state.in_burst { burst.p_exit } else { burst.p_enter };
            if flip > 0.0 && rng.gen_bool(flip) {
                state.in_burst = !state.in_burst;
            }
        }
    }

    /// The beep-loss probability in effect for the current round.
    pub fn effective_drop(&self, state: &ChannelState) -> f64 {
        match &self.burst {
            Some(burst) if state.in_burst => burst.drop_p,
            _ => self.drop_p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::aux_rng;

    #[test]
    fn reliable_channel_is_reliable() {
        let c = ChannelFault::reliable();
        assert!(c.is_reliable());
        assert_eq!(c.effective_drop(&ChannelState::default()), 0.0);
        assert!(c.jammers().is_empty());
    }

    #[test]
    fn builders_set_fields() {
        let c = ChannelFault::reliable().with_drop(0.1).with_spurious(0.01);
        assert!(!c.is_reliable());
        assert_eq!(c.drop_p, 0.1);
        assert_eq!(c.spurious_p, 0.01);
    }

    #[test]
    fn jammer_roles_last_write_wins() {
        let c = ChannelFault::reliable()
            .with_jammer(2, JammerKind::AlwaysBeep)
            .with_jammer(5, JammerKind::AlwaysSilent)
            .with_jammer(2, JammerKind::AlwaysSilent);
        assert_eq!(c.jammer(2), Some(JammerKind::AlwaysSilent));
        assert_eq!(c.jammer(5), Some(JammerKind::AlwaysSilent));
        assert_eq!(c.jammer(0), None);
        assert_eq!(c.jammers().len(), 2);
        assert!(!c.is_reliable());
    }

    #[test]
    fn effective_drop_switches_with_window() {
        let c = ChannelFault::reliable().with_drop(0.05).with_burst(BurstNoise {
            p_enter: 0.5,
            p_exit: 0.5,
            drop_p: 0.9,
        });
        let good = ChannelState { in_burst: false };
        let bad = ChannelState { in_burst: true };
        assert_eq!(c.effective_drop(&good), 0.05);
        assert_eq!(c.effective_drop(&bad), 0.9);
    }

    #[test]
    fn window_advances_and_eventually_visits_both_states() {
        let c = ChannelFault::reliable().with_burst(BurstNoise {
            p_enter: 0.3,
            p_exit: 0.3,
            drop_p: 1.0,
        });
        let mut state = ChannelState::default();
        let mut rng = aux_rng(1, 1);
        let mut saw_burst = false;
        let mut saw_good = false;
        for _ in 0..200 {
            c.advance_window(&mut state, &mut rng);
            saw_burst |= state.in_burst;
            saw_good |= !state.in_burst;
        }
        assert!(saw_burst && saw_good);
    }

    #[test]
    fn window_is_static_without_burst() {
        let c = ChannelFault::reliable().with_drop(0.5);
        let mut state = ChannelState::default();
        let mut rng = aux_rng(1, 2);
        let mut before = rng.clone();
        c.advance_window(&mut state, &mut rng);
        assert!(!state.in_burst);
        // No draw happened: the stream is untouched.
        assert_eq!(rng.gen::<u64>(), before.gen::<u64>());
    }

    #[test]
    fn validate_checks_jammers_and_probabilities() {
        let c = ChannelFault::reliable().with_drop(0.2).with_jammer(3, JammerKind::AlwaysBeep);
        assert_eq!(c.validate(4), Ok(()));
        assert_eq!(c.validate(3), Err("jammer node 3 out of range for n=3".to_string()));
        let mut c = ChannelFault::reliable().with_burst(BurstNoise {
            p_enter: 0.1,
            p_exit: 0.5,
            drop_p: 0.9,
        });
        assert_eq!(c.validate(1), Ok(()));
        c.burst = Some(BurstNoise { p_enter: 0.1, p_exit: 1.5, drop_p: 0.9 });
        assert_eq!(c.validate(1), Err("burst p_exit must be in [0,1], got 1.5".to_string()));
        c.spurious_p = f64::NAN;
        assert!(c.validate(1).unwrap_err().starts_with("spurious probability"));
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn drop_out_of_range_panics() {
        let _ = ChannelFault::reliable().with_drop(1.5);
    }

    #[test]
    #[should_panic(expected = "spurious probability")]
    fn spurious_out_of_range_panics() {
        let _ = ChannelFault::reliable().with_spurious(-0.1);
    }

    #[test]
    #[should_panic(expected = "burst p_enter")]
    fn burst_out_of_range_panics() {
        let _ = ChannelFault::reliable().with_burst(BurstNoise {
            p_enter: 2.0,
            p_exit: 0.5,
            drop_p: 0.5,
        });
    }
}
