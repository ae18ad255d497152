//! The node-automaton interface of the beeping model.

use graphs::NodeId;
use rand_pcg::Pcg64Mcg;

/// Number of distinguishable beeping channels a protocol uses.
///
/// The base model (paper §1) has a single channel; the extension of §7
/// provides two. The simulator enforces that a protocol never beeps on a
/// channel it did not declare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channels {
    /// Single-channel beeping model.
    One,
    /// Two-channel beeping model (paper §7, Algorithm 2).
    Two,
}

impl Channels {
    /// The number of channels as an integer.
    pub fn count(self) -> usize {
        match self {
            Channels::One => 1,
            Channels::Two => 2,
        }
    }

    /// Bitmask of the usable channels.
    fn mask(self) -> u8 {
        match self {
            Channels::One => 0b01,
            Channels::Two => 0b11,
        }
    }

    /// The signal that beeps on *every* declared channel — what an
    /// always-beeping jammer emits.
    pub fn full_signal(self) -> BeepSignal {
        match self {
            Channels::One => BeepSignal::channel1(),
            Channels::Two => BeepSignal::both(),
        }
    }
}

/// A per-round beep decision or observation: one bit per channel.
///
/// As a *transmission*, bit `i` means "beep on channel `i+1`". As an
/// *observation*, bit `i` means "at least one neighbor beeped on channel
/// `i+1`" — the only information the beeping model delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BeepSignal(u8);

impl BeepSignal {
    /// Silence: no beep on any channel.
    pub const fn silent() -> BeepSignal {
        BeepSignal(0)
    }

    /// Beep on channel 1 only.
    pub const fn channel1() -> BeepSignal {
        BeepSignal(0b01)
    }

    /// Beep on channel 2 only (requires [`Channels::Two`]).
    pub const fn channel2() -> BeepSignal {
        BeepSignal(0b10)
    }

    /// Beep on both channels (requires [`Channels::Two`]).
    pub const fn both() -> BeepSignal {
        BeepSignal(0b11)
    }

    /// Builds a signal from per-channel booleans.
    pub fn new(channel1: bool, channel2: bool) -> BeepSignal {
        BeepSignal(u8::from(channel1) | (u8::from(channel2) << 1))
    }

    /// `true` if no channel carries a beep.
    pub fn is_silent(self) -> bool {
        self.0 == 0
    }

    /// `true` if channel 1 carries a beep.
    pub fn on_channel1(self) -> bool {
        self.0 & 0b01 != 0
    }

    /// `true` if channel 2 carries a beep.
    pub fn on_channel2(self) -> bool {
        self.0 & 0b10 != 0
    }

    /// The signal as two bits: channel 1 in bit 0, channel 2 in bit 1.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Merges another signal into this one (the network's OR semantics).
    pub fn merge(&mut self, other: BeepSignal) {
        self.0 |= other.0;
    }

    /// `true` if every beep in `self` is on a channel allowed by `channels`.
    pub fn allowed_by(self, channels: Channels) -> bool {
        self.0 & !channels.mask() == 0
    }
}

impl std::fmt::Display for BeepSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.on_channel1(), self.on_channel2()) {
            (false, false) => write!(f, "silent"),
            (true, false) => write!(f, "beep1"),
            (false, true) => write!(f, "beep2"),
            (true, true) => write!(f, "beep1+2"),
        }
    }
}

/// A per-round execution certificate for a *settled* node — the protocol's
/// half of the frontier engine's draws-when-settled contract
/// (`EngineMode::Frontier` in `beeping::sim`).
///
/// Returning `Some(SettledRound { signal, draws })` from
/// [`BeepingProtocol::settled_round`] for `(node, state, heard)` certifies
/// that, for as long as the node's state and observation stay exactly
/// `(state, heard)`:
///
/// 1. [`BeepingProtocol::transmit`] returns exactly `signal` and consumes
///    exactly `draws` generator outputs (one `gen_bool`/`next_u64` = one
///    output), *regardless of the values drawn*;
/// 2. [`BeepingProtocol::receive`] with `(sent = signal, heard)` leaves the
///    state unchanged and draws nothing.
///
/// Under that certificate the frontier engine may skip the node entirely
/// and account for its stream lazily (`draws` outputs per skipped round via
/// jump-ahead), re-executing it only when a neighbor's signal — and hence
/// its observation — changes. Debug builds verify both clauses whenever a
/// node settles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SettledRound {
    /// The signal `transmit` is certified to produce every round.
    pub signal: BeepSignal,
    /// Generator outputs `transmit` consumes per round (`receive` must
    /// consume none for a settled node).
    pub draws: u64,
}

/// A protocol for the beeping model: the code in every node's ROM.
///
/// One `BeepingProtocol` value drives *all* nodes; per-node data lives in
/// `State` (the RAM that transient faults may corrupt) and in whatever
/// static per-node *knowledge* the protocol object carries (e.g. `ℓmax(v)`
/// derived from degree knowledge — knowledge is part of the model, not of
/// the mutable state, so faults never corrupt it).
///
/// Nodes are anonymous: the `node` argument exists so the protocol can look
/// up that knowledge, and must not be used as an identity in the protocol
/// logic itself.
///
/// Protocols are `Send + Sync` (and so are their states): the parallel
/// scatter engine shares one protocol value across worker threads, each
/// driving a disjoint node range. Protocol objects are ROM — immutable
/// per-run knowledge — so the bound costs nothing for plain-data protocols.
pub trait BeepingProtocol: Send + Sync {
    /// Mutable per-node state (the RAM).
    type State: Clone + std::fmt::Debug + Send + Sync;

    /// How many channels the protocol uses.
    fn channels(&self) -> Channels;

    /// First half of a round: decide what to transmit.
    ///
    /// Must be a pure function of `(knowledge, state, randomness)`, drawing
    /// only from the node's own stream `rng`. Every engine executes each
    /// active node's round once, but not always through a call: the
    /// frontier engine skips a node that [`BeepingProtocol::settled_round`]
    /// certified and advances its stream by the certified draw count
    /// instead.
    fn transmit(&self, node: NodeId, state: &Self::State, rng: &mut Pcg64Mcg) -> BeepSignal;

    /// Second half of a round: update state given what this node itself sent
    /// (`sent`) and what it heard from neighbors (`heard`). Protocols that
    /// randomize their state transition (not just their transmission) draw
    /// from the same per-node stream `rng`.
    fn receive(
        &self,
        node: NodeId,
        state: &mut Self::State,
        sent: BeepSignal,
        heard: BeepSignal,
        rng: &mut Pcg64Mcg,
    );

    /// Declares `(state, heard)` a fixpoint the frontier engine may skip —
    /// see [`SettledRound`] for the exact obligations a `Some` return
    /// takes on.
    ///
    /// The default declares nothing settled, which is always sound: the
    /// frontier engine then re-executes every node every round (degrading
    /// to the full kernel) and stays bit-identical. Protocols with
    /// absorbing configurations (e.g. Algorithm 1's `ℓ = ±ℓmax` states)
    /// override this to unlock O(|frontier|) post-stabilization rounds.
    fn settled_round(
        &self,
        node: NodeId,
        state: &Self::State,
        heard: BeepSignal,
    ) -> Option<SettledRound> {
        let _ = (node, state, heard);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_constructors() {
        assert!(BeepSignal::silent().is_silent());
        assert!(BeepSignal::channel1().on_channel1());
        assert!(!BeepSignal::channel1().on_channel2());
        assert!(BeepSignal::channel2().on_channel2());
        assert!(!BeepSignal::channel2().on_channel1());
        assert!(BeepSignal::both().on_channel1() && BeepSignal::both().on_channel2());
        assert_eq!(BeepSignal::new(true, false), BeepSignal::channel1());
        assert_eq!(BeepSignal::new(false, true), BeepSignal::channel2());
        assert_eq!(BeepSignal::new(true, true), BeepSignal::both());
        assert_eq!(BeepSignal::new(false, false), BeepSignal::silent());
        assert_eq!(BeepSignal::default(), BeepSignal::silent());
    }

    #[test]
    fn merge_is_or() {
        let mut s = BeepSignal::silent();
        s.merge(BeepSignal::channel1());
        assert_eq!(s, BeepSignal::channel1());
        s.merge(BeepSignal::channel2());
        assert_eq!(s, BeepSignal::both());
        s.merge(BeepSignal::silent());
        assert_eq!(s, BeepSignal::both());
    }

    #[test]
    fn channel_discipline() {
        assert!(BeepSignal::channel1().allowed_by(Channels::One));
        assert!(BeepSignal::silent().allowed_by(Channels::One));
        assert!(!BeepSignal::channel2().allowed_by(Channels::One));
        assert!(!BeepSignal::both().allowed_by(Channels::One));
        assert!(BeepSignal::both().allowed_by(Channels::Two));
    }

    #[test]
    fn channel_counts() {
        assert_eq!(Channels::One.count(), 1);
        assert_eq!(Channels::Two.count(), 2);
    }

    #[test]
    fn full_signal_covers_declared_channels() {
        assert_eq!(Channels::One.full_signal(), BeepSignal::channel1());
        assert_eq!(Channels::Two.full_signal(), BeepSignal::both());
        assert!(Channels::One.full_signal().allowed_by(Channels::One));
        assert!(Channels::Two.full_signal().allowed_by(Channels::Two));
    }

    #[test]
    fn display() {
        assert_eq!(BeepSignal::silent().to_string(), "silent");
        assert_eq!(BeepSignal::channel1().to_string(), "beep1");
        assert_eq!(BeepSignal::channel2().to_string(), "beep2");
        assert_eq!(BeepSignal::both().to_string(), "beep1+2");
    }
}
