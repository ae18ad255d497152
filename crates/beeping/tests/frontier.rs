//! Frontier engine accounting: the fallback-threshold boundary must be
//! exact — a dirty set of precisely the cutoff size stays on the sparse
//! path, one more node falls back to the full sweep — observed through the
//! engine's telemetry counters.

use beeping::protocol::{BeepSignal, BeepingProtocol, Channels, SettledRound};
use beeping::{frontier_fallback_threshold, EngineMode, Simulator};
use graphs::{Graph, NodeId};
use rand::RngCore;
use rand_pcg::Pcg64Mcg;
use telemetry::{Config as TelemetryConfig, MemorySink, Telemetry};

/// Nodes below `restless` never certify a settled round; everyone else is a
/// trivial silent fixpoint. On an empty graph this pins the steady-state
/// dirty-set size to exactly `restless`.
struct SplitProbe {
    restless: usize,
}

impl BeepingProtocol for SplitProbe {
    type State = ();
    fn channels(&self) -> Channels {
        Channels::One
    }
    fn transmit(&self, node: NodeId, _: &(), rng: &mut Pcg64Mcg) -> BeepSignal {
        if node < self.restless {
            let _ = rng.next_u64();
        }
        BeepSignal::silent()
    }
    fn receive(&self, _: NodeId, _: &mut (), _: BeepSignal, _: BeepSignal, _: &mut Pcg64Mcg) {}
    fn settled_round(&self, node: NodeId, _: &(), _: BeepSignal) -> Option<SettledRound> {
        (node >= self.restless).then_some(SettledRound { signal: BeepSignal::silent(), draws: 0 })
    }
}

/// Runs `rounds` frontier rounds with a pinned dirty-set size and returns
/// the `(sim.rounds.frontier, sim.rounds.frontier.fallback)` counters.
fn frontier_counters(n: usize, restless: usize, rounds: u64) -> (u64, u64) {
    let g = Graph::empty(n);
    let tele = Telemetry::enabled(TelemetryConfig::default());
    let (sink, _handle) = MemorySink::new();
    tele.add_sink(Box::new(sink));
    let mut sim = Simulator::new(&g, SplitProbe { restless }, vec![(); n], 3)
        .with_engine(EngineMode::Frontier)
        .with_telemetry(tele.clone());
    sim.run(rounds);
    let m = tele.metrics();
    (m.counter("sim.rounds.frontier"), m.counter("sim.rounds.frontier.fallback"))
}

#[test]
fn dirty_set_at_threshold_stays_sparse() {
    let n = 128;
    let cutoff = frontier_fallback_threshold(n);
    let (frontier, fallback) = frontier_counters(n, cutoff, 12);
    assert_eq!(frontier, 12);
    // Only the initial synchronizing sweep falls back; a dirty set of
    // exactly the cutoff size stays on the sparse path.
    assert_eq!(fallback, 1);
}

#[test]
fn dirty_set_over_threshold_falls_back() {
    let n = 128;
    let cutoff = frontier_fallback_threshold(n);
    let (frontier, fallback) = frontier_counters(n, cutoff + 1, 12);
    assert_eq!(frontier, 12);
    // One node past the cutoff: every round is a full fallback sweep.
    assert_eq!(fallback, 12);
}

#[test]
fn fully_settled_network_runs_empty_sparse_rounds() {
    let (frontier, fallback) = frontier_counters(64, 0, 12);
    assert_eq!(frontier, 12);
    assert_eq!(fallback, 1);
}
