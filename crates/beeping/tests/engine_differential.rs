//! Differential tests: the scatter, frontier and parallel-scatter delivery
//! engines must be bit-identical to the scalar reference — same
//! `RoundReport`s, same signals, same states — per seed, on every graph,
//! channel count, duplex mode, fault plan, and (for the parallel engine)
//! every thread count.

use beeping::byzantine::{ByzantineBehavior, ByzantinePlan};
use beeping::channel::{ChannelFault, JammerKind};
use beeping::dynamic::{DynamicTopology, MotionSpec};
use beeping::protocol::{BeepSignal, BeepingProtocol, Channels, SettledRound};
use beeping::{DuplexMode, EngineMode, Simulator};
use graphs::generators::geometric::radius_for_expected_degree;
use graphs::motion::MotionModel;
use graphs::{Graph, GraphBuilder, NodeId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::RngCore;
use rand_pcg::Pcg64Mcg;
use telemetry::{Config as TelemetryConfig, MemorySink, Telemetry};

/// Random graphs of 2..200 nodes: past 64 nodes `par(2)` splits the node
/// range into two worker ranges, including non-multiple-of-64 tails.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..200).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..3 * n).prop_map(move |pairs| {
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

/// A randomized probe whose transmissions and state updates both consume the
/// per-node RNG stream — any draw-order divergence between the engines shows
/// up as diverging states within a round or two.
#[derive(Clone)]
struct RandomProbe {
    channels: Channels,
}

impl BeepingProtocol for RandomProbe {
    type State = u64;
    fn channels(&self) -> Channels {
        self.channels
    }
    fn transmit(&self, _: NodeId, s: &u64, rng: &mut Pcg64Mcg) -> BeepSignal {
        let r = rng.next_u64();
        let c1 = r & 1 == 0 && s.is_multiple_of(2);
        let c2 = self.channels == Channels::Two && r & 2 == 0 && s.is_multiple_of(3);
        BeepSignal::new(c1, c2)
    }
    fn receive(
        &self,
        _: NodeId,
        s: &mut u64,
        _: BeepSignal,
        heard: BeepSignal,
        rng: &mut Pcg64Mcg,
    ) {
        let bits = heard.on_channel1() as u64 | (heard.on_channel2() as u64) << 1;
        *s = s.wrapping_mul(6364136223846793005).wrapping_add(bits ^ (rng.next_u64() & 0xF));
    }
}

/// Maximum level of the settling probe.
const SETTLE_MAX: u64 = 5;

/// An Algorithm-1-shaped probe with genuine absorbing configurations and a
/// `settled_round` certificate, so the frontier engine actually *skips*
/// nodes (`RandomProbe` never settles and only exercises the frontier
/// engine's sparse/fallback sweeps with everything dirty).
///
/// Dynamics: a node at level 0 claims — beeps on channel 1 every round,
/// spending one coin on a (value-ignored) confirmation draw; hearing a beep
/// pushes a node up toward `SETTLE_MAX`; silence pulls a non-beeping node
/// down; interior nodes flip a fair coin to beep. Absorbing configurations:
/// level 0 with a silent neighborhood (claimed — 1 draw/round) and
/// `SETTLE_MAX` with a beeping neighborhood (dominated — 0 draws/round).
#[derive(Clone)]
struct SettleProbe;

impl BeepingProtocol for SettleProbe {
    type State = u64;
    fn channels(&self) -> Channels {
        Channels::One
    }
    fn transmit(&self, _: NodeId, s: &u64, rng: &mut Pcg64Mcg) -> BeepSignal {
        if *s == 0 {
            let _ = rng.next_u64();
            BeepSignal::channel1()
        } else if *s >= SETTLE_MAX {
            BeepSignal::silent()
        } else {
            BeepSignal::new(rng.next_u64() & 1 == 0, false)
        }
    }
    fn receive(
        &self,
        _: NodeId,
        s: &mut u64,
        sent: BeepSignal,
        heard: BeepSignal,
        _: &mut Pcg64Mcg,
    ) {
        if heard.on_channel1() {
            *s = (*s + 1).min(SETTLE_MAX);
        } else if !sent.on_channel1() {
            *s = s.saturating_sub(1);
        }
        // A claimer that heard silence keeps its level — the fixpoint.
    }
    fn settled_round(&self, _: NodeId, s: &u64, heard: BeepSignal) -> Option<SettledRound> {
        if *s == 0 && !heard.on_channel1() {
            Some(SettledRound { signal: BeepSignal::channel1(), draws: 1 })
        } else if *s >= SETTLE_MAX && heard.on_channel1() {
            Some(SettledRound { signal: BeepSignal::silent(), draws: 0 })
        } else {
            None
        }
    }
}

/// A mid-run topology edit, applied identically to both engines' simulators.
#[derive(Debug, Clone)]
enum ChurnOp {
    Leave(NodeId),
    Join(NodeId, Vec<NodeId>),
    RemoveEdge(NodeId, NodeId),
    InsertEdge(NodeId, NodeId),
}

fn apply_churn<P: BeepingProtocol<State = u64>>(sim: &mut Simulator<'_, P>, op: &ChurnOp) {
    match op {
        ChurnOp::Leave(v) => {
            sim.node_leave(*v).unwrap();
        }
        ChurnOp::Join(v, neighbors) => sim.node_join(*v, neighbors, 7).unwrap(),
        ChurnOp::RemoveEdge(u, v) => {
            sim.remove_edge(*u, *v).unwrap();
        }
        ChurnOp::InsertEdge(u, v) => {
            sim.insert_edge(*u, *v).unwrap();
        }
    }
}

/// The non-reference engines a differential run compares against scalar:
/// scatter, frontier, and the parallel scatter kernel at 1, 2 and
/// `nproc` worker threads (bit-identity must hold at *every* thread count).
fn candidate_engines() -> Vec<(&'static str, EngineMode)> {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    vec![
        ("scatter", EngineMode::Scatter),
        ("frontier", EngineMode::Frontier),
        ("par(1)", EngineMode::ParScatter { threads: 1 }),
        ("par(2)", EngineMode::ParScatter { threads: 2 }),
        ("par(nproc)", EngineMode::ParScatter { threads: nproc }),
    ]
}

/// Steps every engine `rounds` times under identical configuration and
/// asserts bit-identity against the scalar reference after every round.
#[allow(clippy::too_many_arguments)]
fn assert_engines_identical(
    graph: &Graph,
    seed: u64,
    rounds: u64,
    channels: Channels,
    duplex: DuplexMode,
    channel: ChannelFault,
    byzantine: ByzantinePlan<u64>,
    churn: &[(u64, ChurnOp)],
) -> Result<(), TestCaseError> {
    let init: Vec<u64> = graph.nodes().map(|v| v as u64).collect();
    let mk = |engine: EngineMode| {
        Simulator::new(graph, RandomProbe { channels }, init.clone(), seed)
            .with_duplex(duplex)
            .with_channel(channel.clone())
            .with_byzantine(byzantine.clone())
            .with_engine(engine)
    };
    let mut scalar = mk(EngineMode::Scalar);
    let mut others: Vec<(&str, Simulator<'_, RandomProbe>)> =
        candidate_engines().into_iter().map(|(name, engine)| (name, mk(engine))).collect();
    for round in 1..=rounds {
        let a = scalar.step();
        for (name, sim) in &mut others {
            let b = sim.step();
            prop_assert_eq!(a, b, "{} report diverged at round {}", *name, round);
            prop_assert_eq!(
                scalar.states(),
                sim.states(),
                "{} states diverged at round {}",
                *name,
                round
            );
            prop_assert_eq!(
                scalar.last_sent(),
                sim.last_sent(),
                "{} sent signals diverged at round {}",
                *name,
                round
            );
            prop_assert_eq!(
                scalar.last_heard(),
                sim.last_heard(),
                "{} heard signals diverged at round {}",
                *name,
                round
            );
        }
        for (_, op) in churn.iter().filter(|(r, _)| *r == round) {
            apply_churn(&mut scalar, op);
            for (name, sim) in &mut others {
                apply_churn(sim, op);
                prop_assert_eq!(scalar.last_sent(), sim.last_sent(), "{} after churn", *name);
                prop_assert_eq!(scalar.last_heard(), sim.last_heard(), "{} after churn", *name);
            }
        }
    }
    // Work counters: the parallel engine shards the scatter sweep, so it
    // does exactly the same work at every thread count, and the frontier
    // engine never executes more nodes than the scalar reference. (Its edge
    // visits have no such bound: a sparse round scans deg(v) for every node
    // whose signal *changed*, a scatter deg(beeper) per beeping channel, a
    // gather deg(listener) per hearing listener.)
    let work = |want: &str| {
        others.iter().find(|(name, _)| *name == want).map(|(_, sim)| sim.work()).unwrap_or_default()
    };
    let scatter = work("scatter");
    for name in ["par(1)", "par(2)", "par(nproc)"] {
        prop_assert_eq!(work(name), scatter, "{} work differs from scatter", name);
    }
    let (frontier, reference) = (work("frontier"), scalar.work());
    prop_assert!(frontier.node_execs <= reference.node_execs, "{:?} vs {:?}", frontier, reference);
    Ok(())
}

/// Scalar vs frontier on a protocol that actually settles: a long run past
/// stabilization with mid-run point corruption, churn, and a final global
/// corruption that wakes every lazily-accounted RNG stream at once — a
/// single mis-ticked draw on any skipped node diverges the closing rounds.
fn assert_frontier_settling_identical(
    graph: &Graph,
    seed: u64,
    full: bool,
) -> Result<(), TestCaseError> {
    let n = graph.len();
    let duplex = if full { DuplexMode::Full } else { DuplexMode::Half };
    let init: Vec<u64> = graph.nodes().map(|v| (v as u64) % (SETTLE_MAX + 1)).collect();
    let mk = |engine: EngineMode| {
        Simulator::new(graph, SettleProbe, init.clone(), seed)
            .with_duplex(duplex)
            .with_engine(engine)
    };
    let mut scalar = mk(EngineMode::Scalar);
    let mut frontier = mk(EngineMode::Frontier);
    let victim = n / 2;
    for round in 1..=48u64 {
        let a = scalar.step();
        let c = frontier.step();
        prop_assert_eq!(a, c, "report diverged at round {}", round);
        prop_assert_eq!(scalar.states(), frontier.states(), "states diverged at round {}", round);
        prop_assert_eq!(scalar.last_sent(), frontier.last_sent());
        prop_assert_eq!(scalar.last_heard(), frontier.last_heard());
        // Point events that unsettle a small neighborhood mid-quiescence…
        if round == 16 {
            scalar.corrupt_state(victim, 0);
            frontier.corrupt_state(victim, 0);
        }
        if round == 24 && n > 2 {
            apply_churn(&mut scalar, &ChurnOp::Leave(victim));
            apply_churn(&mut frontier, &ChurnOp::Leave(victim));
        }
        if round == 30 && n > 2 {
            let mates = vec![0, n - 1];
            apply_churn(&mut scalar, &ChurnOp::Join(victim, mates.clone()));
            apply_churn(&mut frontier, &ChurnOp::Join(victim, mates));
        }
        // …and a global corruption that forces every settled node's pending
        // jump-ahead to materialize at once.
        if round == 40 {
            for v in 0..n {
                scalar.corrupt_state(v, (v as u64) % 3);
                frontier.corrupt_state(v, (v as u64) % 3);
            }
        }
    }
    Ok(())
}

/// Steps a plain simulator and a telemetry-attached twin `rounds` times
/// under identical configuration and asserts bit-identity after every round
/// — the telemetry determinism contract (observation must not perturb the
/// execution, in particular must draw no simulation randomness).
#[allow(clippy::too_many_arguments)]
fn assert_telemetry_transparent(
    graph: &Graph,
    seed: u64,
    rounds: u64,
    channels: Channels,
    duplex: DuplexMode,
    channel: ChannelFault,
    byzantine: ByzantinePlan<u64>,
    engine: EngineMode,
) -> Result<(), TestCaseError> {
    let init: Vec<u64> = graph.nodes().map(|v| v as u64).collect();
    let mk = || {
        Simulator::new(graph, RandomProbe { channels }, init.clone(), seed)
            .with_duplex(duplex)
            .with_channel(channel.clone())
            .with_byzantine(byzantine.clone())
            .with_engine(engine)
    };
    let tele = Telemetry::enabled(TelemetryConfig::default());
    let (sink, _handle) = MemorySink::new();
    tele.add_sink(Box::new(sink));
    let mut plain = mk();
    let mut observed = mk().with_telemetry(tele.clone());
    for round in 1..=rounds {
        let a = plain.step();
        let b = observed.step();
        prop_assert_eq!(a, b, "round report diverged at round {}", round);
        prop_assert_eq!(plain.states(), observed.states(), "states diverged at round {}", round);
        prop_assert_eq!(plain.last_sent(), observed.last_sent());
        prop_assert_eq!(plain.last_heard(), observed.last_heard());
    }
    // The engine-specific round counters must account for every step; the
    // fused fast path only engages for scatter with no faults installed.
    let metrics = tele.metrics();
    let fault_free = channel.is_reliable() && byzantine.is_empty();
    let expected = match engine {
        EngineMode::Scatter if fault_free => "sim.rounds.fused",
        EngineMode::Frontier if fault_free => "sim.rounds.frontier",
        EngineMode::ParScatter { .. } if fault_free => "sim.rounds.par",
        EngineMode::Scatter | EngineMode::Frontier | EngineMode::ParScatter { .. } => {
            "sim.rounds.scatter"
        }
        EngineMode::Scalar => "sim.rounds.scalar",
    };
    prop_assert_eq!(metrics.counter(expected), rounds, "counter {}", expected);
    Ok(())
}

/// A random moving deployment: node count, waypoint/drift model, speed.
fn arb_motion() -> impl Strategy<Value = (usize, MotionSpec)> {
    (6usize..20, any::<u64>(), 0.0f64..0.12, 0u64..3, any::<bool>()).prop_map(
        |(n, points_seed, speed, pause, drift)| {
            let radius = radius_for_expected_degree(n, 5.0);
            let model = if drift {
                MotionModel::Drift { speed, turn: 0.4 }
            } else {
                MotionModel::RandomWaypoint { speed, pause }
            };
            (n, MotionSpec::new(points_seed, radius, model))
        },
    )
}

/// Steps every engine over the same moving deployment — each with its own
/// [`DynamicTopology`] handing the simulator each round's radius graph —
/// and asserts bit-identity of reports, states, signals, the per-round edge
/// counts, the evolving graphs and the motion states against the scalar
/// reference. Every engine, the reference included, also has a twin that
/// hands over through [`DynamicTopology::advance_uncounted`]: it must follow
/// the same execution, and report a change exactly when the counted
/// hand-over counts one. With `churn`, a motion-driven leave/rejoin pair is
/// injected mid-run, at 3/16 and 7/16 of the rounds (rejoin edges computed
/// from current positions via `join_neighbors`). Node `v` starts in
/// `init(v)`.
#[allow(clippy::too_many_arguments)]
fn assert_engines_identical_moving<P: BeepingProtocol<State = u64> + Clone>(
    protocol: P,
    init: impl Fn(NodeId) -> u64,
    n: usize,
    spec: &MotionSpec,
    seed: u64,
    rounds: u64,
    channel: ChannelFault,
    byzantine: ByzantinePlan<u64>,
    churn: bool,
) -> Result<(), TestCaseError> {
    let g = spec.initial_graph(n);
    let init: Vec<u64> = g.nodes().map(init).collect();
    let mk = |engine: EngineMode| {
        Simulator::new(&g, protocol.clone(), init.clone(), seed)
            .with_channel(channel.clone())
            .with_byzantine(byzantine.clone())
            .with_engine(engine)
    };
    let mut scalar = mk(EngineMode::Scalar);
    let mut topo_a = DynamicTopology::new(n, spec, seed).unwrap();
    // Each candidate engine and each uncounted twin drives its own
    // DynamicTopology over the same motion spec; graphs, deltas and motion
    // states must all stay equal.
    let topo = || DynamicTopology::new(n, spec, seed).unwrap();
    let mut others = vec![("scalar", false, mk(EngineMode::Scalar), topo())];
    for (name, engine) in candidate_engines() {
        for counted in [true, false] {
            others.push((name, counted, mk(engine), topo()));
        }
    }
    let victim = n / 2;
    let (leave_round, join_round) = (rounds * 3 / 16, rounds * 7 / 16);
    for round in 1..=rounds {
        let a = scalar.step();
        for (name, counted, sim, _) in &mut others {
            let b = sim.step();
            prop_assert_eq!(a, b, "{} ({}) report diverged at round {}", *name, *counted, round);
            prop_assert_eq!(
                scalar.states(),
                sim.states(),
                "{} ({}) states diverged at round {}",
                *name,
                *counted,
                round
            );
            prop_assert_eq!(scalar.last_sent(), sim.last_sent(), "{} ({}) sent", *name, *counted);
            prop_assert_eq!(
                scalar.last_heard(),
                sim.last_heard(),
                "{} ({}) heard",
                *name,
                *counted
            );
        }
        if churn && round == leave_round {
            scalar.node_leave(victim).unwrap();
            for (_, _, sim, _) in &mut others {
                sim.node_leave(victim).unwrap();
            }
        }
        if churn && round == join_round {
            let mates_a = topo_a.join_neighbors(victim, scalar.active());
            scalar.node_join(victim, &mates_a, 7).unwrap();
            for (name, _, sim, topo) in &mut others {
                let mates_b = topo.join_neighbors(victim, sim.active());
                prop_assert_eq!(&mates_a, &mates_b, "{} join neighborhoods diverged", *name);
                sim.node_join(victim, &mates_b, 7).unwrap();
            }
        }
        let da = topo_a.advance(&mut scalar);
        for (name, counted, sim, topo) in &mut others {
            if *counted {
                let db = topo.advance(sim);
                prop_assert_eq!(&da, &db, "{} reconcile deltas diverged at round {}", *name, round);
            } else {
                let changed = topo.advance_uncounted(sim);
                prop_assert_eq!(
                    changed,
                    da.0 + da.1 > 0,
                    "{} uncounted change flag diverged at round {}",
                    *name,
                    round
                );
            }
            prop_assert_eq!(
                scalar.graph(),
                sim.graph(),
                "{} ({}) graphs diverged at round {}",
                *name,
                *counted,
                round
            );
            prop_assert_eq!(
                topo_a.state(),
                topo.state(),
                "{} ({}) motion states diverged at round {}",
                *name,
                *counted,
                round
            );
        }
    }
    Ok(())
}

/// Steps a plain simulator and a telemetry-attached twin over the same
/// moving deployment and asserts bit-identity after every round.
fn assert_telemetry_transparent_moving(
    n: usize,
    spec: &MotionSpec,
    seed: u64,
    rounds: u64,
    engine: EngineMode,
) -> Result<(), TestCaseError> {
    let g = spec.initial_graph(n);
    let init: Vec<u64> = g.nodes().map(|v| v as u64).collect();
    let mk = || {
        Simulator::new(&g, RandomProbe { channels: Channels::One }, init.clone(), seed)
            .with_engine(engine)
    };
    let tele = Telemetry::enabled(TelemetryConfig::default());
    let (sink, _handle) = MemorySink::new();
    tele.add_sink(Box::new(sink));
    let mut plain = mk();
    let mut observed = mk().with_telemetry(tele.clone());
    let mut topo_a = DynamicTopology::new(n, spec, seed).unwrap();
    let mut topo_b = DynamicTopology::new(n, spec, seed).unwrap();
    for round in 1..=rounds {
        let a = plain.step();
        let b = observed.step();
        prop_assert_eq!(a, b, "round report diverged at round {}", round);
        prop_assert_eq!(plain.states(), observed.states(), "states diverged at round {}", round);
        let da = topo_a.advance(&mut plain);
        let db = topo_b.advance(&mut observed);
        prop_assert_eq!(da, db, "reconcile deltas diverged at round {}", round);
        prop_assert_eq!(plain.graph(), observed.graph(), "graphs diverged at round {}", round);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No-fault configurations (the scatter engine's fused fast path),
    /// across channel counts and duplex modes.
    #[test]
    fn engines_agree_no_fault(
        g in arb_graph(),
        seed in any::<u64>(),
        two in any::<bool>(),
        full in any::<bool>(),
    ) {
        let channels = if two { Channels::Two } else { Channels::One };
        let duplex = if full { DuplexMode::Full } else { DuplexMode::Half };
        assert_engines_identical(
            &g,
            seed,
            24,
            channels,
            duplex,
            ChannelFault::reliable(),
            ByzantinePlan::new(),
            &[],
        )?;
    }

    /// Lossy / noisy channels: drop forces the scalar fallback, spurious
    /// noise exercises the scatter path's per-listener draw ordering.
    #[test]
    fn engines_agree_under_noise(
        g in arb_graph(),
        seed in any::<u64>(),
        drop_p in 0.0f64..0.5,
        spurious_p in 0.0f64..0.3,
        two in any::<bool>(),
    ) {
        let channels = if two { Channels::Two } else { Channels::One };
        assert_engines_identical(
            &g,
            seed,
            16,
            channels,
            DuplexMode::Half,
            ChannelFault::reliable().with_drop(drop_p).with_spurious(spurious_p),
            ByzantinePlan::new(),
            &[],
        )?;
    }

    /// Composed fault plans: spurious noise + a jammer + Byzantine radios +
    /// mid-run churn, on both channel counts.
    #[test]
    fn engines_agree_under_composed_faults(
        g in arb_graph(),
        seed in any::<u64>(),
        spurious_p in 0.0f64..0.3,
        babble_p in 0.0f64..1.0,
        two in any::<bool>(),
    ) {
        let n = g.len();
        let channels = if two { Channels::Two } else { Channels::One };
        let channel = ChannelFault::reliable()
            .with_spurious(spurious_p)
            .with_jammer(0, JammerKind::AlwaysBeep);
        let mut byz = ByzantinePlan::new()
            .with_behavior(n - 1, ByzantineBehavior::Babbler(babble_p));
        if two && n > 2 {
            byz.set_behavior(1, ByzantineBehavior::Channel2Liar);
        }
        let victim = n / 2;
        let mates = if victim == n - 1 { vec![0] } else { vec![0, n - 1] };
        let churn = vec![
            (4, ChurnOp::Leave(victim)),
            (7, ChurnOp::RemoveEdge(0, n - 1)),
            (10, ChurnOp::Join(victim, mates)),
            (13, ChurnOp::InsertEdge(0, n - 1)),
        ];
        assert_engines_identical(
            &g,
            seed,
            20,
            channels,
            DuplexMode::Half,
            channel,
            byz,
            &churn,
        )?;
    }

    /// Telemetry on/off bit-identity: attaching an enabled telemetry handle
    /// (with a recording sink) must not change a single report, state or
    /// signal, on either engine, with or without channel noise and
    /// Byzantine radios.
    #[test]
    fn telemetry_attachment_is_bit_transparent(
        g in arb_graph(),
        seed in any::<u64>(),
        drop_p in 0.0f64..0.4,
        spurious_p in 0.0f64..0.3,
        noisy in any::<bool>(),
        two in any::<bool>(),
        engine_sel in 0usize..4,
    ) {
        let engine = [
            EngineMode::Scalar,
            EngineMode::Scatter,
            EngineMode::Frontier,
            EngineMode::ParScatter { threads: 2 },
        ][engine_sel];
        let channels = if two { Channels::Two } else { Channels::One };
        let (channel, byz) = if noisy {
            (
                ChannelFault::reliable().with_drop(drop_p).with_spurious(spurious_p),
                ByzantinePlan::new().with_behavior(g.len() - 1, ByzantineBehavior::Babbler(0.5)),
            )
        } else {
            // Fault-free keeps the scatter engine on its fused fast path.
            (ChannelFault::reliable(), ByzantinePlan::new())
        };
        assert_telemetry_transparent(
            &g,
            seed,
            16,
            channels,
            DuplexMode::Half,
            channel,
            byz,
            engine,
        )?;
    }

    /// Moving deployments: motion-driven topology changes (optionally composed
    /// with channel noise, a Byzantine radio and a leave/rejoin pair) must
    /// keep the two engines bit-identical — reports, states, signals,
    /// graphs and motion state alike.
    #[test]
    fn engines_agree_on_moving_deployments(
        (n, spec) in arb_motion(),
        seed in any::<u64>(),
        drop_p in 0.0f64..0.3,
        noisy in any::<bool>(),
        byz in any::<bool>(),
        churn in any::<bool>(),
    ) {
        let channel = if noisy {
            ChannelFault::reliable().with_drop(drop_p)
        } else {
            ChannelFault::reliable()
        };
        let plan = if byz {
            ByzantinePlan::new().with_behavior(n - 1, ByzantineBehavior::StuckBeep)
        } else {
            ByzantinePlan::new()
        };
        let probe = RandomProbe { channels: Channels::One };
        let init = |v| v as u64;
        assert_engines_identical_moving(probe, init, n, &spec, seed, 16, channel, plan, churn)?;
    }

    /// Moving deployments under a protocol that settles: the frontier
    /// engine skips settled nodes between hand-overs, so a hand-over (counted
    /// or not) that leaves a node with changed adjacency settled diverges
    /// from the scalar reference. Fault-free, so the frontier stays live;
    /// the churn arm adds a departed node mid-run.
    #[test]
    fn frontier_settles_identically_on_moving_deployments(
        (n, spec) in arb_motion(),
        seed in any::<u64>(),
        churn in any::<bool>(),
    ) {
        assert_engines_identical_moving(
            SettleProbe,
            |v| v as u64 % (SETTLE_MAX + 1),
            n,
            &spec,
            seed,
            48,
            ChannelFault::reliable(),
            ByzantinePlan::new(),
            churn,
        )?;
    }

    /// Attaching telemetry to a moving run must not perturb it on either
    /// engine — the topology reconciliation draws from the dedicated
    /// motion stream, never from observed simulation randomness.
    #[test]
    fn telemetry_is_transparent_on_moving_deployments(
        (n, spec) in arb_motion(),
        seed in any::<u64>(),
        engine_sel in 0usize..4,
    ) {
        let engine = [
            EngineMode::Scalar,
            EngineMode::Scatter,
            EngineMode::Frontier,
            EngineMode::ParScatter { threads: 2 },
        ][engine_sel];
        assert_telemetry_transparent_moving(n, &spec, seed, 16, engine)?;
    }

    /// The frontier engine's actual skip path: a protocol with absorbing
    /// configurations runs far past stabilization, gets perturbed by point
    /// faults, churn and a global corruption, and must stay bit-identical
    /// to the scalar reference throughout — including the lazily-accounted
    /// RNG streams of every node it skipped.
    #[test]
    fn frontier_skips_settled_nodes_identically(
        g in arb_graph(),
        seed in any::<u64>(),
        full in any::<bool>(),
    ) {
        assert_frontier_settling_identical(&g, seed, full)?;
    }
}
