//! Adversarial wake-up: nodes start asleep and join the protocol at
//! adversary-chosen rounds.
//!
//! The reproduced paper distinguishes itself from Afek et al.'s
//! polynomial *lower bound* precisely on this point (§1): that bound holds
//! in a model where "an adversary \[is\] able to select the wake-up time
//! slots for the vertices", and "because of the presence of the adversary,
//! the lower bound … is not applicable in the setting of this paper".
//! A self-stabilizing algorithm nevertheless handles wake-up schedules for
//! free: a sleeping node is indistinguishable from a node whose state is
//! pinned, so stabilization counted from the *last* wake-up is just
//! stabilization from an arbitrary configuration.
//!
//! [`Sleepy`] wraps any [`BeepingProtocol`]: a node holding a positive
//! sleep counter is silent and deaf (its inner state frozen); each round
//! decrements the counter; at zero the node runs the inner protocol
//! normally. The counter lives in the wrapped state, so no simulator
//! changes are needed and fault injection composes.

use graphs::NodeId;
use rand_pcg::Pcg64Mcg;

use crate::protocol::{BeepSignal, BeepingProtocol, Channels};

/// Per-node state of a [`Sleepy`]-wrapped protocol.
#[derive(Debug, Clone)]
pub struct SleepyState<S> {
    /// Rounds left to sleep; the node participates once this reaches 0.
    pub remaining_sleep: u64,
    /// The inner protocol's state (frozen while asleep).
    pub inner: S,
}

impl<S> SleepyState<S> {
    /// A node that wakes after `sleep` rounds with the given inner state.
    pub fn new(sleep: u64, inner: S) -> SleepyState<S> {
        SleepyState { remaining_sleep: sleep, inner }
    }

    /// A node that participates from round one.
    pub fn awake(inner: S) -> SleepyState<S> {
        SleepyState::new(0, inner)
    }

    /// `true` once the node participates.
    pub fn is_awake(&self) -> bool {
        self.remaining_sleep == 0
    }
}

/// Wraps a protocol with adversarial wake-up semantics.
///
/// # Example
///
/// ```
/// use beeping::sleep::{Sleepy, SleepyState};
/// use beeping::Simulator;
/// use graphs::generators::classic;
/// use mis_like_doc_stub::*;
/// # mod mis_like_doc_stub {
/// #     use beeping::protocol::*;
/// #     use rand_pcg::Pcg64Mcg;
/// #     pub struct Noop;
/// #     impl BeepingProtocol for Noop {
/// #         type State = ();
/// #         fn channels(&self) -> Channels { Channels::One }
/// #         fn transmit(&self, _: usize, _: &(), _: &mut Pcg64Mcg) -> BeepSignal {
/// #             BeepSignal::channel1()
/// #         }
/// #         fn receive(&self, _: usize, _: &mut (), _: BeepSignal, _: BeepSignal, _: &mut Pcg64Mcg) {}
/// #     }
/// # }
///
/// let g = classic::path(2);
/// let init = vec![SleepyState::new(3, ()), SleepyState::awake(())];
/// let mut sim = Simulator::new(&g, Sleepy::new(Noop), init, 1);
/// let report = sim.step();
/// assert_eq!(report.beeps_channel1, 1); // only the awake node beeps
/// ```
#[derive(Debug, Clone)]
pub struct Sleepy<P> {
    inner: P,
}

impl<P> Sleepy<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Sleepy<P> {
        Sleepy { inner }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: BeepingProtocol> BeepingProtocol for Sleepy<P> {
    type State = SleepyState<P::State>;

    fn channels(&self) -> Channels {
        self.inner.channels()
    }

    fn transmit(&self, node: NodeId, state: &Self::State, rng: &mut Pcg64Mcg) -> BeepSignal {
        if state.is_awake() {
            self.inner.transmit(node, &state.inner, rng)
        } else {
            BeepSignal::silent()
        }
    }

    fn receive(
        &self,
        node: NodeId,
        state: &mut Self::State,
        sent: BeepSignal,
        heard: BeepSignal,
        rng: &mut Pcg64Mcg,
    ) {
        if state.is_awake() {
            self.inner.receive(node, &mut state.inner, sent, heard, rng);
        } else {
            state.remaining_sleep -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use graphs::generators::classic;

    /// Counter protocol: beeps always, counts heard beeps.
    struct Count;
    impl BeepingProtocol for Count {
        type State = u64;
        fn channels(&self) -> Channels {
            Channels::One
        }
        fn transmit(&self, _: NodeId, _: &u64, _: &mut Pcg64Mcg) -> BeepSignal {
            BeepSignal::channel1()
        }
        fn receive(
            &self,
            _: NodeId,
            s: &mut u64,
            _: BeepSignal,
            heard: BeepSignal,
            _: &mut Pcg64Mcg,
        ) {
            if heard.on_channel1() {
                *s += 1;
            }
        }
    }

    #[test]
    fn sleeping_nodes_are_silent_and_deaf() {
        let g = classic::path(2);
        let init = vec![SleepyState::new(5, 0u64), SleepyState::awake(0u64)];
        let mut sim = Simulator::new(&g, Sleepy::new(Count), init, 0);
        for round in 1..=5u64 {
            let report = sim.step();
            assert_eq!(report.beeps_channel1, 1, "round {round}");
        }
        // Node 0 heard nothing while asleep; node 1 heard nothing (its only
        // neighbor slept).
        assert_eq!(sim.state(0).inner, 0);
        assert_eq!(sim.state(1).inner, 0);
        assert!(sim.state(0).is_awake());
        // Both awake now: both beep, both hear.
        sim.step();
        assert_eq!(sim.state(0).inner, 1);
        assert_eq!(sim.state(1).inner, 1);
    }

    #[test]
    fn wake_counter_decrements_exactly() {
        let g = classic::path(2);
        let init = vec![SleepyState::new(3, 0u64), SleepyState::awake(0u64)];
        let mut sim = Simulator::new(&g, Sleepy::new(Count), init, 0);
        sim.step();
        assert_eq!(sim.state(0).remaining_sleep, 2);
        sim.step();
        sim.step();
        assert_eq!(sim.state(0).remaining_sleep, 0);
        assert!(sim.state(0).is_awake());
    }

    #[test]
    fn all_awake_behaves_like_inner() {
        let g = classic::cycle(5);
        let wrapped_init: Vec<_> = (0..5).map(|_| SleepyState::awake(0u64)).collect();
        let mut wrapped = Simulator::new(&g, Sleepy::new(Count), wrapped_init, 7);
        let mut plain = Simulator::new(&g, Count, vec![0u64; 5], 7);
        for _ in 0..20 {
            wrapped.step();
            plain.step();
        }
        let unwrapped: Vec<u64> = wrapped.states().iter().map(|s| s.inner).collect();
        assert_eq!(unwrapped, plain.states());
    }
}
