//! Property-based tests of the simulator's model semantics.

use beeping::protocol::{BeepSignal, BeepingProtocol, Channels};
use beeping::rng::{node_rng, split_mix64};
use beeping::Simulator;
use graphs::{Graph, GraphBuilder, NodeId};
use proptest::prelude::*;
use rand::RngCore;
use rand_pcg::Pcg64Mcg;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..24).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..60).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(u, v).unwrap();
                }
            }
            b.build()
        })
    })
}

/// Probe protocol: beeps iff its state bit is set; records what it heard.
#[derive(Clone)]
struct Probe;

#[derive(Debug, Clone, Copy, Default)]
struct ProbeState {
    beep: bool,
    heard: Option<bool>,
}

impl BeepingProtocol for Probe {
    type State = ProbeState;
    fn channels(&self) -> Channels {
        Channels::One
    }
    fn transmit(&self, _: NodeId, s: &ProbeState, _: &mut Pcg64Mcg) -> BeepSignal {
        if s.beep {
            BeepSignal::channel1()
        } else {
            BeepSignal::silent()
        }
    }
    fn receive(
        &self,
        _: NodeId,
        s: &mut ProbeState,
        _: BeepSignal,
        heard: BeepSignal,
        _: &mut Pcg64Mcg,
    ) {
        s.heard = Some(heard.on_channel1());
    }
}

/// Two-channel probe: beeps on each channel iff the matching state bit is
/// set; records the heard signal verbatim.
#[derive(Clone)]
struct Probe2;

#[derive(Debug, Clone, Copy, Default)]
struct Probe2State {
    beep1: bool,
    beep2: bool,
    heard: BeepSignal,
}

impl BeepingProtocol for Probe2 {
    type State = Probe2State;
    fn channels(&self) -> Channels {
        Channels::Two
    }
    fn transmit(&self, _: NodeId, s: &Probe2State, _: &mut Pcg64Mcg) -> BeepSignal {
        BeepSignal::new(s.beep1, s.beep2)
    }
    fn receive(
        &self,
        _: NodeId,
        s: &mut Probe2State,
        _: BeepSignal,
        heard: BeepSignal,
        _: &mut Pcg64Mcg,
    ) {
        s.heard = heard;
    }
}

proptest! {
    /// The delivered bit equals the OR over neighbors' transmissions —
    /// never self, never non-neighbors.
    #[test]
    fn delivery_is_neighbor_or(g in arb_graph(), beeps in proptest::collection::vec(any::<bool>(), 24)) {
        let init: Vec<ProbeState> = g
            .nodes()
            .map(|v| ProbeState { beep: beeps[v], heard: None })
            .collect();
        let mut sim = Simulator::new(&g, Probe, init, 0);
        sim.step();
        for v in g.nodes() {
            let expected = g.neighbors(v).iter().any(|&u| beeps[u as usize]);
            prop_assert_eq!(sim.state(v).heard, Some(expected), "node {}", v);
        }
    }

    /// Round reports agree with the ground-truth counts.
    #[test]
    fn round_report_counts(g in arb_graph(), beeps in proptest::collection::vec(any::<bool>(), 24)) {
        let init: Vec<ProbeState> = g
            .nodes()
            .map(|v| ProbeState { beep: beeps[v], heard: None })
            .collect();
        let mut sim = Simulator::new(&g, Probe, init, 0);
        let report = sim.step();
        let beepers = g.nodes().filter(|&v| beeps[v]).count();
        let hearers = g
            .nodes()
            .filter(|&v| g.neighbors(v).iter().any(|&u| beeps[u as usize]))
            .count();
        let lone = g
            .nodes()
            .filter(|&v| beeps[v] && !g.neighbors(v).iter().any(|&u| beeps[u as usize]))
            .count();
        prop_assert_eq!(report.beeps_channel1, beepers);
        prop_assert_eq!(report.hearers_channel1, hearers);
        prop_assert_eq!(report.lone_beepers, lone);
        prop_assert_eq!(report.round, 1);
    }

    /// Two-channel round reports count lone beepers per channel: a node is
    /// a lone beeper on channel `c` iff it beeped on `c` and no neighbor
    /// did — activity on the other channel is irrelevant.
    #[test]
    fn round_report_counts_two_channel(
        g in arb_graph(),
        beeps1 in proptest::collection::vec(any::<bool>(), 24),
        beeps2 in proptest::collection::vec(any::<bool>(), 24),
    ) {
        let init: Vec<Probe2State> = g
            .nodes()
            .map(|v| Probe2State { beep1: beeps1[v], beep2: beeps2[v], ..Default::default() })
            .collect();
        let mut sim = Simulator::new(&g, Probe2, init, 0);
        let report = sim.step();
        let lone = |beeps: &[bool]| {
            g.nodes()
                .filter(|&v| beeps[v] && !g.neighbors(v).iter().any(|&u| beeps[u as usize]))
                .count()
        };
        prop_assert_eq!(report.beeps_channel1, g.nodes().filter(|&v| beeps1[v]).count());
        prop_assert_eq!(report.beeps_channel2, g.nodes().filter(|&v| beeps2[v]).count());
        prop_assert_eq!(report.lone_beepers, lone(&beeps1));
        prop_assert_eq!(report.lone_beepers_channel2, lone(&beeps2));
        for v in g.nodes() {
            let h = sim.state(v).heard;
            prop_assert_eq!(h.on_channel1(), g.neighbors(v).iter().any(|&u| beeps1[u as usize]));
            prop_assert_eq!(h.on_channel2(), g.neighbors(v).iter().any(|&u| beeps2[u as usize]));
        }
    }

    /// Node RNG streams are reproducible and node-separated.
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), a in 0usize..64, b in 0usize..64) {
        let x: Vec<u64> = {
            let mut r = node_rng(seed, a);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let y: Vec<u64> = {
            let mut r = node_rng(seed, a);
            (0..8).map(|_| r.next_u64()).collect()
        };
        prop_assert_eq!(&x, &y);
        if a != b {
            let z: Vec<u64> = {
                let mut r = node_rng(seed, b);
                (0..8).map(|_| r.next_u64()).collect()
            };
            prop_assert_ne!(&x, &z);
        }
    }

    /// SplitMix64 is a bijection-grade mixer: no collisions on small inputs.
    #[test]
    fn split_mix_no_trivial_collisions(x in 0u64..10_000) {
        prop_assert_ne!(split_mix64(x), split_mix64(x + 1));
    }

    /// Fault target selection respects bounds and counts.
    #[test]
    fn fault_target_selection(n in 1usize..50, count in 0usize..50, seed in any::<u64>()) {
        use beeping::faults::FaultTarget;
        let count = count.min(n);
        let mut rng = beeping::rng::aux_rng(seed, 1);
        let picked = FaultTarget::RandomCount(count).select(n, &mut rng);
        prop_assert_eq!(picked.len(), count);
        prop_assert!(picked.iter().all(|&v| v < n));
        let all = FaultTarget::All.select(n, &mut rng);
        prop_assert_eq!(all.len(), n);
    }

    /// Signals round-trip through the constructor.
    #[test]
    fn signal_round_trip(c1 in any::<bool>(), c2 in any::<bool>()) {
        let s = BeepSignal::new(c1, c2);
        prop_assert_eq!(s.on_channel1(), c1);
        prop_assert_eq!(s.on_channel2(), c2);
        prop_assert_eq!(s.is_silent(), !c1 && !c2);
    }
}
