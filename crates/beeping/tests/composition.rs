//! Cross-feature tests of the full adversary stack: scheduled RAM faults
//! ([`beeping::faults`]) × adversarial wake-up ([`beeping::sleep`]) × half
//! duplex × channel noise ([`beeping::channel`]) composed in one execution.

use beeping::channel::{BurstNoise, ChannelFault, JammerKind};
use beeping::faults::{FaultPlan, FaultTarget};
use beeping::protocol::{BeepSignal, BeepingProtocol, Channels};
use beeping::rng::aux_rng;
use beeping::sim::DuplexMode;
use beeping::sleep::{Sleepy, SleepyState};
use beeping::Simulator;
use graphs::generators::classic;
use graphs::NodeId;
use rand::Rng;
use rand_pcg::Pcg64Mcg;

/// Coin-flip transmitter that counts what it hears — exercises the node RNG
/// streams (transmit) and the delivered signal (receive) at once.
#[derive(Clone)]
struct Chatty;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ChatState {
    beeps: u32,
    hears: u32,
}

impl BeepingProtocol for Chatty {
    type State = ChatState;
    fn channels(&self) -> Channels {
        Channels::One
    }
    fn transmit(&self, _: NodeId, _: &ChatState, rng: &mut Pcg64Mcg) -> BeepSignal {
        if rng.gen_bool(0.5) {
            BeepSignal::channel1()
        } else {
            BeepSignal::silent()
        }
    }
    fn receive(
        &self,
        _: NodeId,
        s: &mut ChatState,
        sent: BeepSignal,
        heard: BeepSignal,
        _: &mut Pcg64Mcg,
    ) {
        s.beeps += sent.on_channel1() as u32;
        s.hears += heard.on_channel1() as u32;
    }
}

/// One full-adversary execution: staggered wake-ups, half duplex, lossy +
/// spurious + bursty channel with a jammer, and a two-event fault schedule
/// applied from the shared fault stream. Returns the per-round beep counts
/// and the final states, the whole observable surface.
fn run_composed(seed: u64) -> (Vec<usize>, Vec<(u64, ChatState)>) {
    let g = classic::cycle(8);
    let init: Vec<SleepyState<ChatState>> =
        (0..8).map(|v| SleepyState::new(v as u64 % 4, ChatState::default())).collect();
    let mut sim = Simulator::new(&g, Sleepy::new(Chatty), init, seed)
        .with_duplex(DuplexMode::Half)
        .with_channel(
            ChannelFault::reliable()
                .with_drop(0.2)
                .with_spurious(0.05)
                .with_burst(BurstNoise { p_enter: 0.1, p_exit: 0.3, drop_p: 0.9 })
                .with_jammer(0, JammerKind::AlwaysBeep),
        );
    let plan = FaultPlan::new()
        .with_fault(10, FaultTarget::RandomCount(3))
        .with_fault(20, FaultTarget::RandomFraction(0.5));
    let mut fault_rng = aux_rng(seed, 0xFA17);
    let mut beeps = Vec::new();
    for _ in 0..40 {
        let report = sim.step();
        beeps.push(report.beeps_channel1);
        for event in plan.events_after_round(sim.round()) {
            for v in event.target.select(g.len(), &mut fault_rng) {
                // RAM corruption hits the *wrapped* state: both the sleep
                // counter and the inner protocol state are fair game.
                sim.corrupt_state(v, SleepyState::new(v as u64 % 3, ChatState::default()));
            }
        }
    }
    let finals = sim.states().iter().map(|s| (s.remaining_sleep, s.inner)).collect();
    (beeps, finals)
}

#[test]
fn full_adversary_composition_is_deterministic_for_fixed_seed() {
    let (beeps_a, finals_a) = run_composed(7);
    let (beeps_b, finals_b) = run_composed(7);
    assert_eq!(beeps_a, beeps_b, "same seed must reproduce the round trace");
    assert_eq!(finals_a, finals_b, "same seed must reproduce the final states");

    // A different seed re-seeds every stream (node coins, channel noise,
    // fault targets); over 40 noisy rounds the traces cannot coincide.
    let (beeps_c, finals_c) = run_composed(8);
    assert!(
        beeps_a != beeps_c || finals_a != finals_c,
        "distinct seeds should produce distinct executions"
    );
}

#[test]
fn sleeping_nodes_are_immune_to_channel_noise() {
    // A sleeping node is silent and deaf by construction: even a channel
    // that delivers a spurious beep to every listener each round cannot
    // touch its frozen inner state — only its sleep counter ticks.
    let g = classic::path(2);
    let init =
        vec![SleepyState::new(10, ChatState::default()), SleepyState::awake(ChatState::default())];
    // Drop everything real, inject a spurious beep always: all information
    // reaching any node is pure noise.
    let mut sim = Simulator::new(&g, Sleepy::new(Chatty), init, 3)
        .with_channel(ChannelFault::reliable().with_drop(1.0).with_spurious(1.0));
    sim.run(10);
    // The sleeper is untouched; the awake node heard 10 spurious beeps.
    assert_eq!(sim.state(0).inner, ChatState::default());
    assert!(sim.state(0).is_awake());
    assert_eq!(sim.state(1).inner.hears, 10);
    // Once awake it starts hearing the noise like everyone else.
    sim.run(5);
    assert_eq!(sim.state(0).inner.hears, 5);
}

#[test]
fn jammer_radio_overrides_even_a_sleeping_node() {
    // The jammer model corrupts the *radio*, not the RAM: a sleeping node
    // with an always-beep jammer still transmits, even though its protocol
    // (and its own `sent` bookkeeping) says silent.
    let g = classic::path(2);
    let init =
        vec![SleepyState::new(100, ChatState::default()), SleepyState::awake(ChatState::default())];
    let mut sim = Simulator::new(&g, Sleepy::new(Chatty), init, 5)
        .with_channel(ChannelFault::reliable().with_jammer(0, JammerKind::AlwaysBeep));
    sim.run(20);
    // The awake neighbor hears the jammed sleeper every round.
    assert_eq!(sim.state(1).inner.hears, 20);
    // The sleeper's own state stays frozen: the fault lives below RAM.
    assert_eq!(sim.state(0).inner, ChatState::default());
    assert_eq!(sim.state(0).remaining_sleep, 80);
}
