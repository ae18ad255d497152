//! Cross-feature tests: sleep wrappers, duplex modes and checkpointing
//! composed together.

use beeping::protocol::{BeepSignal, BeepingProtocol, Channels};
use beeping::sim::DuplexMode;
use beeping::sleep::{Sleepy, SleepyState};
use beeping::Simulator;
use graphs::generators::classic;
use graphs::NodeId;
use rand_pcg::Pcg64Mcg;

/// Echo protocol: state counts (beeped, heard) events.
#[derive(Clone)]
struct Echo;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EchoState {
    beeps: u32,
    hears: u32,
}

impl BeepingProtocol for Echo {
    type State = EchoState;
    fn channels(&self) -> Channels {
        Channels::One
    }
    fn transmit(&self, node: NodeId, _: &EchoState, _: &mut Pcg64Mcg) -> BeepSignal {
        // Even nodes beep every round.
        if node.is_multiple_of(2) {
            BeepSignal::channel1()
        } else {
            BeepSignal::silent()
        }
    }
    fn receive(
        &self,
        _: NodeId,
        s: &mut EchoState,
        sent: BeepSignal,
        heard: BeepSignal,
        _: &mut Pcg64Mcg,
    ) {
        s.beeps += sent.on_channel1() as u32;
        s.hears += heard.on_channel1() as u32;
    }
}

#[test]
fn sleepy_plus_half_duplex_compose() {
    // Path 0-1-2: nodes 0 and 2 beep (even), node 1 silent. Under half
    // duplex the beepers hear nothing anyway (they transmit); node 1 hears.
    // Wrap node 0 with a sleep of 3: first 3 rounds only node 2 beeps.
    let g = classic::path(3);
    let init = vec![
        SleepyState::new(3, EchoState::default()),
        SleepyState::awake(EchoState::default()),
        SleepyState::awake(EchoState::default()),
    ];
    let mut sim = Simulator::new(&g, Sleepy::new(Echo), init, 1).with_duplex(DuplexMode::Half);
    sim.run(3);
    // During sleep node 0 recorded nothing.
    assert_eq!(sim.state(0).inner, EchoState::default());
    // Node 1 heard node 2 every round (and is silent so it can hear).
    assert_eq!(sim.state(1).inner, EchoState { beeps: 0, hears: 3 });
    // Node 2 beeped 3 times, heard nothing (half duplex while beeping).
    assert_eq!(sim.state(2).inner, EchoState { beeps: 3, hears: 0 });
    // After waking, node 0 beeps too; node 1 still hears.
    sim.run(2);
    assert_eq!(sim.state(0).inner, EchoState { beeps: 2, hears: 0 });
    assert_eq!(sim.state(1).inner, EchoState { beeps: 0, hears: 5 });
}

#[test]
fn checkpoint_preserves_sleep_counters() {
    let g = classic::path(2);
    let init =
        vec![SleepyState::new(10, EchoState::default()), SleepyState::awake(EchoState::default())];
    let mut sim = Simulator::new(&g, Sleepy::new(Echo), init, 2);
    sim.run(4);
    let cp = sim.checkpoint();
    assert_eq!(cp.states()[0].remaining_sleep, 6);
    sim.run(10);
    assert!(sim.state(0).is_awake());
    sim.restore(&cp).unwrap();
    assert_eq!(sim.state(0).remaining_sleep, 6);
    sim.run(10);
    assert!(sim.state(0).is_awake());
}

#[test]
fn duplex_mode_default_is_full() {
    // On a triangle, beepers 0 and 2 are neighbors: by default (the
    // paper's full duplex) each hears the other while transmitting.
    let g = classic::complete(3);
    let mut sim = Simulator::new(&g, Echo, vec![EchoState::default(); 3], 0);
    sim.step();
    let (beeper, listener) = (EchoState { beeps: 1, hears: 1 }, EchoState { beeps: 0, hears: 1 });
    assert_eq!(sim.states(), &[beeper, listener, beeper]);
}

#[test]
fn half_duplex_on_two_channels() {
    // A transmitting node under half duplex hears nothing on EITHER channel.
    #[derive(Clone)]
    struct TwoCh;
    impl BeepingProtocol for TwoCh {
        type State = (bool, bool); // (heard1, heard2) of last round
        fn channels(&self) -> Channels {
            Channels::Two
        }
        fn transmit(&self, node: NodeId, _: &Self::State, _: &mut Pcg64Mcg) -> BeepSignal {
            match node {
                0 => BeepSignal::channel1(),
                1 => BeepSignal::channel2(),
                _ => BeepSignal::silent(),
            }
        }
        fn receive(
            &self,
            _: NodeId,
            s: &mut Self::State,
            _: BeepSignal,
            heard: BeepSignal,
            _: &mut Pcg64Mcg,
        ) {
            *s = (heard.on_channel1(), heard.on_channel2());
        }
    }
    let g = classic::complete(3);
    let mut sim =
        Simulator::new(&g, TwoCh, vec![(false, false); 3], 0).with_duplex(DuplexMode::Half);
    sim.step();
    // Nodes 0 and 1 transmit → deaf. Node 2 is silent → hears both.
    assert_eq!(*sim.state(0), (false, false));
    assert_eq!(*sim.state(1), (false, false));
    assert_eq!(*sim.state(2), (true, true));
}
