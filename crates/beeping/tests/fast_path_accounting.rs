//! Fused fast-path accounting: the scatter engine's single-pass no-fault
//! kernel must be indistinguishable from the phased path — same reports,
//! states and signals, same telemetry counter totals, and the same
//! bookkeeping *order* at the end of a round (round counted before the
//! invariant hook fires, so a panicking hook leaves both paths agreeing on
//! how many rounds completed).

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use beeping::channel::BurstNoise;
use beeping::protocol::{BeepSignal, BeepingProtocol, Channels};
use beeping::{ChannelFault, EngineMode, Simulator};
use graphs::generators::classic;
use graphs::{Graph, NodeId};
use rand::RngCore;
use rand_pcg::Pcg64Mcg;
use telemetry::{Config as TelemetryConfig, MemorySink, Telemetry};

/// A channel configuration that is semantically reliable but *not*
/// `is_reliable()`: a Gilbert burst that can never be entered (all
/// probabilities zero draws nothing and drops nothing). It forces the
/// scatter engine off its fused fast path and onto the phased kernel while
/// keeping the execution bit-identical to a truly reliable channel.
fn zero_burst() -> ChannelFault {
    ChannelFault::reliable().with_burst(BurstNoise { p_enter: 0.0, p_exit: 0.0, drop_p: 0.0 })
}

/// Coin probe drawing randomness in both halves of the round, so any
/// draw-order divergence between the fused and phased kernels surfaces as
/// diverging states immediately.
struct Probe;

impl BeepingProtocol for Probe {
    type State = u64;
    fn channels(&self) -> Channels {
        Channels::One
    }
    fn transmit(&self, _: NodeId, s: &u64, rng: &mut Pcg64Mcg) -> BeepSignal {
        BeepSignal::new(rng.next_u64() & 1 == 0 && s.is_multiple_of(2), false)
    }
    fn receive(
        &self,
        _: NodeId,
        s: &mut u64,
        sent: BeepSignal,
        heard: BeepSignal,
        rng: &mut Pcg64Mcg,
    ) {
        let bits = sent.on_channel1() as u64 | (heard.on_channel1() as u64) << 1;
        *s = s.wrapping_mul(6364136223846793005).wrapping_add(bits ^ (rng.next_u64() & 0xFF));
    }
}

type HookLog = Rc<RefCell<Vec<(u64, Vec<u64>)>>>;

fn instrumented(
    g: &Graph,
    seed: u64,
    channel: ChannelFault,
    tele: Telemetry,
) -> (Simulator<'_, Probe>, HookLog) {
    let init: Vec<u64> = g.nodes().map(|v| v as u64).collect();
    let log: HookLog = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&log);
    let sim = Simulator::new(g, Probe, init, seed)
        .with_engine(EngineMode::Scatter)
        .with_channel(channel)
        .with_telemetry(tele)
        .with_invariant_hook(move |_, round, states| {
            sink.borrow_mut().push((round, states.to_vec()));
        });
    (sim, log)
}

#[test]
fn fused_and_phased_paths_account_identically() {
    let g = classic::cycle(16);
    let rounds = 30u64;
    let tele_fused = Telemetry::enabled(TelemetryConfig::default());
    let (sink, _h1) = MemorySink::new();
    tele_fused.add_sink(Box::new(sink));
    let tele_phased = Telemetry::enabled(TelemetryConfig::default());
    let (sink, _h2) = MemorySink::new();
    tele_phased.add_sink(Box::new(sink));

    let (mut fused, log_fused) = instrumented(&g, 41, ChannelFault::reliable(), tele_fused.clone());
    let (mut phased, log_phased) = instrumented(&g, 41, zero_burst(), tele_phased.clone());
    for round in 1..=rounds {
        let a = fused.step();
        let b = phased.step();
        assert_eq!(a, b, "round report diverged at round {round}");
        assert_eq!(fused.states(), phased.states(), "states diverged at round {round}");
        assert_eq!(fused.last_sent(), phased.last_sent());
        assert_eq!(fused.last_heard(), phased.last_heard());
        assert_eq!(fused.round(), phased.round());
    }
    // Identical hook observations, in the same order with the same payloads.
    assert_eq!(*log_fused.borrow(), *log_phased.borrow());
    assert_eq!(log_fused.borrow().len(), rounds as usize);
    // Every step is accounted to exactly one engine counter.
    let fused_metrics = tele_fused.metrics();
    assert_eq!(fused_metrics.counter("sim.rounds.fused"), rounds);
    assert_eq!(fused_metrics.counter("sim.rounds.scatter"), 0);
    let phased_metrics = tele_phased.metrics();
    assert_eq!(phased_metrics.counter("sim.rounds.scatter"), rounds);
    assert_eq!(phased_metrics.counter("sim.rounds.fused"), 0);
}

/// Both paths must finish the round's bookkeeping — counter bumped, round
/// advanced — *before* the invariant hook runs, so a hook that panics on a
/// violation still leaves the simulator and its telemetry agreeing on how
/// many rounds completed.
#[test]
fn hook_panic_leaves_round_accounting_consistent() {
    for channel in [ChannelFault::reliable(), zero_burst()] {
        let g = classic::path(4);
        let fused = channel.is_reliable();
        let tele = Telemetry::enabled(TelemetryConfig::default());
        let (sink, _h) = MemorySink::new();
        tele.add_sink(Box::new(sink));
        let mut sim = Simulator::new(&g, Probe, vec![0; 4], 9)
            .with_engine(EngineMode::Scatter)
            .with_channel(channel)
            .with_telemetry(tele.clone())
            .with_invariant_hook(|_, round, _| {
                assert!(round < 5, "synthetic invariant violation at round {round}");
            });
        sim.run(4);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            sim.step();
        }));
        assert!(panicked.is_err(), "hook should have panicked at round 5");
        // The panicking round was fully accounted on both paths.
        assert_eq!(sim.round(), 5);
        let counter = if fused { "sim.rounds.fused" } else { "sim.rounds.scatter" };
        assert_eq!(tele.metrics().counter(counter), 5, "fused={fused}");
    }
}
