//! Round execution of a [`BeepingProtocol`] over a graph.

use std::ops::Deref;
use std::sync::Arc;

use graphs::{Graph, NodeId};
use rand::Rng;
use rand_pcg::Pcg64Mcg;

use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
use crate::channel::{ChannelFault, ChannelState, JammerKind};
use crate::churn::ChurnError;
#[cfg(debug_assertions)]
use crate::protocol::SettledRound;
use crate::protocol::{BeepSignal, BeepingProtocol};
use crate::rng;
use crate::sweep::{self, Bitsets, Sweep};
use crate::trace::{RoundReport, Signals};
use telemetry::Telemetry;

pub use crate::protocol::Channels as SimulatorChannels;

/// Purpose tag of the channel-noise RNG stream (see [`rng::aux_rng`]); kept
/// disjoint from every node stream and from the fault/init streams used by
/// downstream crates.
const CHANNEL_RNG_PURPOSE: u64 = 0xC4A7_7E57;

/// Purpose tag of the Byzantine-behavior RNG stream (babbler coins and
/// crash-restart boot states); disjoint from every other stream so a plan
/// of purely deterministic behaviors — or an empty plan — never perturbs
/// the rest of the execution.
const BYZ_RNG_PURPOSE: u64 = 0xB42A_17E5;

/// Listening capability of a transmitting node.
///
/// The paper's model is **full duplex** ("beeping model with collision
/// detection"): a beeping node still hears its neighbors. The weaker
/// half-duplex variant from the broader beeping literature — where
/// transmitting drowns out reception — is provided for model ablations:
/// Algorithm 1's lone-beep detection fundamentally requires full duplex,
/// and experiment `ABL-HD` demonstrates the failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplexMode {
    /// A beeping node hears its neighbors (the paper's model).
    #[default]
    Full,
    /// A beeping node hears nothing that round.
    Half,
}

/// Selects the delivery kernel used by [`Simulator::step`].
///
/// Both engines execute the *same model* and are bit-identical per seed:
/// they call `transmit`/`receive` in the same order, draw from the same RNG
/// streams in the same order, and produce identical signal bitsets
/// ([`Simulator::last_sent`], [`Simulator::last_heard`]) and
/// [`RoundReport`]s. The differential test suite
/// (`tests/engine_differential.rs`) pins this equivalence across graph
/// families, channel counts, duplex modes and composed fault plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Reference kernel: every listener gathers over all its neighbors —
    /// O(m) work per round regardless of activity.
    Scalar,
    /// Fast kernel: the round's beepers *scatter* their signals into
    /// per-channel word-packed "heard" bitsets — O(Σ deg(beeper)) work,
    /// which near stabilization (where only the MIS nodes beep) is far
    /// below O(m). Fault-free rounds are one sequential call of the
    /// full-sweep kernel over the whole network, with every report counter
    /// a word popcount. Falls back to the scalar gather whenever per-edge
    /// beep loss is in effect this round, because loss draws one coin per
    /// (listener, beeping neighbor) pair in listener order and that order
    /// must be preserved exactly.
    #[default]
    Scatter,
    /// Event-driven kernel: only the *frontier* — nodes whose state or
    /// incident signals changed — executes each round; the settled
    /// complement is skipped under the draws-when-settled contract
    /// ([`crate::protocol::SettledRound`]), with its pinned signals reused
    /// from the simulator's signal bitsets and its RNG streams ticked
    /// lazily by jump-ahead. Post-stabilization and localized fault/churn
    /// rounds cost O(Σ deg(frontier)) instead of O(n + m); a frontier
    /// denser than [`frontier_fallback_threshold`] falls back to one
    /// sequential call of the full-sweep kernel (the same as
    /// [`EngineMode::Scatter`]'s) that also rebuilds the settled set and
    /// the signal bitsets. On an unreliable
    /// channel or under a Byzantine plan the engine runs the phased
    /// scatter path (channel noise draws per-listener coins that skipping
    /// cannot reproduce). Bit-identical to the other engines per seed.
    Frontier,
    /// Parallel scatter kernel: the node range is split into one
    /// contiguous, degree-balanced range per worker, each closed at a
    /// 64-node word edge, and scoped worker threads run the full-sweep
    /// kernel over them in two phases — transmit + scatter into
    /// *thread-local* per-channel word accumulators, then a
    /// fixed-worker-order OR-merge into the shared bitsets fused with
    /// mask + gather + receive. A single worker range
    /// (`threads: 1`, or a graph of at most 64 nodes) makes the same
    /// sequential call as [`EngineMode::Scatter`] with no thread scope.
    /// Per-node RNG streams are independent and the per-channel OR is
    /// commutative, so same-seed runs are bit-identical to every other
    /// engine at any thread count. Falls back to the phased
    /// scatter path whenever the channel is unreliable or a Byzantine plan
    /// is installed: those draw from *shared* noise/adversary streams in
    /// strict node order, which parallel execution cannot preserve.
    ParScatter {
        /// Worker-thread count; clamped to at least 1, and to the number
        /// of 64-node words the graph has (one range per worker, at least
        /// one word per range).
        threads: usize,
    },
}

/// Deterministic work counters accumulated by every engine; see
/// [`Simulator::work`].
///
/// These count *model work*, not wall clock: for a fixed `(graph, protocol,
/// seed, engine, fault plan)` they are bit-reproducible across machines and
/// runs, which makes them the right substrate for performance-regression
/// tests — a kernel that does asymptotically more work is caught even on a
/// noisy shared box where timing is meaningless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Protocol executions: one per node that ran a live round — every
    /// active node on the full-sweep engines, only the executed
    /// (dirty ∪ woken) set on the event-driven frontier engine.
    pub node_execs: u64,
    /// Adjacency entries traversed by the delivery kernel: `deg(listener)`
    /// per gathering listener on the scalar engine, `deg(beeper)` per
    /// beeping channel on the scatter-family engines.
    pub edge_visits: u64,
}

/// `graph` without the edges at nodes `active` does not mark; `None` only
/// if the rebuilt CSR buffers were malformed, which they are not by
/// construction.
fn restrict_to_active(graph: &Graph, active: &[bool]) -> Option<Graph> {
    let mut offsets = Vec::with_capacity(graph.len() + 1);
    let mut neighbors = Vec::with_capacity(graph.degree_sum());
    offsets.push(0);
    for v in graph.nodes() {
        if active[v] {
            neighbors.extend(graph.neighbors(v).iter().filter(|&&w| active[w as usize]));
        }
        offsets.push(neighbors.len());
    }
    Graph::from_csr(offsets, neighbors).ok()
}

/// Builds the word-packed all-active participation bitset for `n` nodes:
/// bits `0..n` set, tail bits of the final word clear.
fn full_active_bits(n: usize) -> Vec<u64> {
    let words = n.div_ceil(64);
    let mut bits = vec![u64::MAX; words];
    if !n.is_multiple_of(64) {
        if let Some(last) = bits.last_mut() {
            *last = (1u64 << (n % 64)) - 1;
        }
    }
    bits
}

/// Frontier density at which [`EngineMode::Frontier`] abandons the sparse
/// round and runs one full scatter sweep instead: a frontier *strictly
/// larger* than this falls back. Sized so the sparse path's per-node
/// bookkeeping can never lose to the flat sweep by more than a small
/// constant factor.
pub fn frontier_fallback_threshold(n: usize) -> usize {
    (n / 8).max(16)
}

/// The nodes a [`Simulator`] may have changed since its touched set was
/// last cleared ([`Simulator::touched`]): every node whose state or
/// participation changed is in it, and possibly others.
///
/// The sparse frontier round marks each node it runs `receive` on;
/// [`Simulator::corrupt_state`], [`Simulator::node_leave`] and
/// [`Simulator::node_join`] mark their node. Every full sweep, phased round
/// and restore touches every node. Edge updates touch no node: they change
/// no state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touched<'a> {
    /// Every node.
    Every,
    /// The nodes whose bits are set: bit `v % 64` of word `v / 64` is
    /// node `v`.
    Words(&'a [u64]),
}

impl Touched<'_> {
    /// Word `k` of the set: the touched nodes among `64k..64k + 64`, all of
    /// them for [`Touched::Every`].
    pub fn word(&self, k: usize) -> u64 {
        match self {
            Touched::Every => u64::MAX,
            Touched::Words(words) => words.get(k).copied().unwrap_or(0),
        }
    }
}

/// A synchronous-round simulator of the full-duplex beeping model.
///
/// Each call to [`Simulator::step`] executes one round:
///
/// 1. every node draws its transmission from
///    [`BeepingProtocol::transmit`] using its private random stream;
/// 2. the network delivers, to each node, the OR over its *neighbors'*
///    transmissions per channel (collision-detection semantics: "≥ 1 beep",
///    nothing more);
/// 3. every node updates its state via [`BeepingProtocol::receive`].
///
/// The simulator is deterministic for a fixed `(graph, protocol, initial
/// states, master seed, channel model, churn schedule)`.
///
/// # Unreliable-network extensions
///
/// Three adversary axes beyond the paper's model compose with everything
/// else:
///
/// - an unreliable channel ([`Simulator::with_channel`]): beep loss,
///   spurious beeps, burst-noise windows and jammer nodes, applied between
///   the OR-aggregation and `receive`. Channel randomness comes from a
///   dedicated stream, so a [`ChannelFault::reliable`] configuration
///   reproduces noise-free executions bit-for-bit;
/// - topology churn ([`Simulator::insert_edge`], [`Simulator::remove_edge`],
///   [`Simulator::node_leave`], [`Simulator::node_join`]): the graph is
///   copy-on-write ([`SimGraph`]), so a borrowed input graph is cloned on
///   the first mutation and untouched otherwise, and a shared one is
///   cloned only while a [`Checkpoint`] still holds it. A departed node
///   stays allocated but *inactive* — silent, deaf, state frozen — until
///   it rejoins;
/// - Byzantine nodes ([`Simulator::with_byzantine`]): per-node permanent
///   behavior overrides — stuck/babbling radios, channel-2 liars and
///   crash-restart reboots — applied after the jammer overrides in the
///   transmit phase (a Byzantine radio wins over a jammed one). Behavior
///   randomness lives on its own stream; an empty plan draws nothing and
///   reproduces the honest execution bit-for-bit.
///
/// # Example
///
/// See the crate-level example in [`crate`].
#[derive(Debug)]
pub struct Simulator<'g, P: BeepingProtocol> {
    graph: SimGraph<'g>,
    protocol: P,
    states: Vec<P::State>,
    rngs: Vec<Pcg64Mcg>,
    round: u64,
    duplex: DuplexMode,
    channel: ChannelFault,
    channel_state: ChannelState,
    channel_rng: Pcg64Mcg,
    byzantine: ByzantinePlan<P::State>,
    /// Dense per-node lookup derived from `byzantine` (last assignment per
    /// node wins), rebuilt by [`Simulator::with_byzantine`]. Empty for an
    /// empty plan, so an honest network allocates no table (2 MB at
    /// n = 2^16); read it with `get`, which finds no entry then.
    byz: Vec<Option<ByzantineBehavior<P::State>>>,
    byz_rng: Pcg64Mcg,
    active: Vec<bool>,
    /// Word-packed mirror of `active` plus the count of departed nodes,
    /// maintained in lockstep by churn and restore. Makes the fast paths'
    /// all-active check O(1) instead of an O(n) scan, and gives the
    /// parallel kernel a compact shared participation bitset.
    active_bits: Vec<u64>,
    inactive: usize,
    engine: EngineMode,
    /// The last round's signals, word-packed per channel — the only signal
    /// state. Every kernel writes them, the frontier engine patches them
    /// between its sweeps, and a checkpoint holds a copy.
    signals: Bitsets,
    /// The nodes whose state or participation may have changed since the
    /// last [`Simulator::clear_touched`], word-packed and sticky; see
    /// [`Touched`]. `touched_all` stands for every node: a full sweep sets
    /// it with one store instead of marking n bits.
    touched: Vec<u64>,
    touched_all: bool,
    hook: InvariantHook<P::State>,
    /// Frontier-kernel bookkeeping (dirty set, settled flags, lazy RNG
    /// accounting and running report totals).
    /// Purely derived from the execution: never part of a checkpoint —
    /// [`Simulator::restore`] resets it and the next frontier round
    /// rebuilds it with a full sweep.
    frontier: FrontierState,
    /// Parallel-kernel bookkeeping (worker ranges and thread-local word
    /// accumulators), lazily built on the first [`EngineMode::ParScatter`]
    /// fast round and rebuilt when its (n, degree sum, threads) key
    /// changes. Purely derived scratch: never part of a checkpoint.
    par: Option<crate::par::ParPlan>,
    /// Deterministic work counters (protocol executions and adjacency
    /// visits); see [`Simulator::work`]. Pure accounting — never consulted
    /// for control flow, identical for a fixed execution regardless of
    /// telemetry, hooks or wall clock.
    work: WorkCounters,
    /// Observational only: phase timers and engine counters. Never consulted
    /// for control flow and never draws randomness, so a disabled handle
    /// (the default) and an enabled one produce bit-identical executions —
    /// pinned by the telemetry proptests in `tests/engine_differential.rs`.
    telemetry: Telemetry,
}

/// Bookkeeping of the frontier kernel; see [`EngineMode::Frontier`].
///
/// Invariants while `synced` holds (all of them re-established by a full
/// sweep, and conservatively repairable — executing a settled node is
/// harmless because its round is a draw-free fixpoint per the
/// draws-when-settled contract):
///
/// - every node is either *settled* (skipped; its sent bits pinned, RNG
///   ticked `rate[v]` outputs per round when materialized) or queued in
///   `dirty` for live execution next round;
/// - `rngs[v]` reflects all draws through round `last_exec[v]`; for
///   non-settled nodes `last_exec[v]` is the current round;
/// - the simulator's signal bitsets hold every node's current sent and
///   heard bits, sparse rounds included;
/// - `totals` holds the report counters ([`RoundReport::count_word`]) over
///   those bitsets, kept by [`Simulator::set_signals`] so a sparse round
///   never recounts them.
#[derive(Debug, Default)]
struct FrontierState {
    /// Bookkeeping valid? `false` forces a full rebuild sweep.
    synced: bool,
    /// Nodes queued for live execution next round (no duplicates; guarded
    /// by `queued`).
    dirty: Vec<NodeId>,
    /// `queued[v]` ⇔ `v ∈ dirty`.
    queued: Vec<bool>,
    /// Settled nodes — skipped under the draws-when-settled contract.
    settled: Vec<bool>,
    /// Generator outputs a settled node's skipped round consumes.
    rate: Vec<u64>,
    /// Round through which `rngs[v]` is materialized.
    last_exec: Vec<u64>,
    /// Running report counters over the signal bitsets.
    totals: RoundReport,
    /// Scratch lists reused across sparse rounds.
    exec: Vec<NodeId>,
    changed: Vec<NodeId>,
    listeners: Vec<NodeId>,
    listener_mark: Vec<bool>,
    wake: Vec<NodeId>,
}

impl FrontierState {
    /// Sizes the bookkeeping for an `n`-node network (idempotent).
    fn ensure_init(&mut self, n: usize) {
        if self.queued.len() == n {
            return;
        }
        self.synced = false;
        self.dirty = Vec::new();
        self.queued = vec![false; n];
        self.settled = vec![false; n];
        self.rate = vec![0; n];
        self.last_exec = vec![0; n];
        self.listener_mark = vec![false; n];
    }

    /// Queues `v` for live execution next round (deduplicated).
    fn push_dirty(&mut self, v: NodeId) {
        if !self.queued[v] {
            self.queued[v] = true;
            self.dirty.push(v);
        }
    }

    /// The generator outputs of `v`'s skipped rounds up to `target`.
    fn skipped_draws(&self, v: NodeId, target: u64) -> u128 {
        u128::from(target.saturating_sub(self.last_exec[v])) * u128::from(self.rate[v])
    }

    /// Ticks `rng` — `v`'s generator or a copy of it — through the draws
    /// of `v`'s skipped rounds up to `target`, in bulk via jump-ahead.
    fn tick_skipped(&self, rng: &mut Pcg64Mcg, v: NodeId, target: u64) {
        let draws = self.skipped_draws(v, target);
        if draws > 0 {
            rng::advance_steps(rng, draws);
        }
    }

    /// Materializes `v`'s generator through `target`.
    fn materialize(&mut self, rng: &mut Pcg64Mcg, v: NodeId, target: u64) {
        self.tick_skipped(rng, v, target);
        self.last_exec[v] = self.last_exec[v].max(target);
    }
}

/// Debug-build enforcement of the draws-when-settled contract at the
/// moment a node settles: replays `transmit` on a probe generator and
/// checks the pinned signal, the declared draw count (against the
/// jump-ahead the engine will use) and that `receive` on the settled
/// `(sent, heard)` pair is a draw-free state fixpoint.
#[cfg(debug_assertions)]
fn debug_check_settled_contract<P: BeepingProtocol>(
    protocol: &P,
    v: NodeId,
    state: &P::State,
    rng: &Pcg64Mcg,
    sr: SettledRound,
    heard: BeepSignal,
) {
    let mut probe = rng.clone();
    let signal = protocol.transmit(v, state, &mut probe);
    assert_eq!(signal, sr.signal, "settled_round pinned the wrong signal for node {v}");
    let mut jumped = rng.clone();
    rng::advance_steps(&mut jumped, u128::from(sr.draws));
    assert_eq!(
        probe, jumped,
        "settled_round declared {} draws but transmit consumed differently (node {v})",
        sr.draws
    );
    let mut replayed = state.clone();
    let before = probe.clone();
    protocol.receive(v, &mut replayed, signal, heard, &mut probe);
    assert_eq!(probe, before, "settled receive drew randomness (node {v})");
    assert_eq!(
        format!("{replayed:?}"),
        format!("{state:?}"),
        "settled receive changed state (node {v})"
    );
}

/// The topology a [`Simulator`] runs on, copy-on-write either way: a
/// borrowed graph is copied into a shared one at the first churn mutation,
/// and a shared graph is copied before a mutation only while something
/// else — a [`Checkpoint`], say — holds it too. [`Simulator::checkpoint`]
/// therefore shares the graph instead of copying it, and a topology that
/// never changes is never copied again.
#[derive(Debug, Clone)]
pub enum SimGraph<'g> {
    /// The caller's graph, never modified.
    Borrowed(&'g Graph),
    /// A graph shared with checkpoints.
    Shared(Arc<Graph>),
}

impl SimGraph<'_> {
    /// The graph for mutation, copied first if anything else can see it.
    fn to_mut(&mut self) -> &mut Graph {
        match self {
            SimGraph::Shared(graph) => Arc::make_mut(graph),
            SimGraph::Borrowed(graph) => {
                *self = SimGraph::Shared(Arc::new(Graph::clone(graph)));
                self.to_mut()
            }
        }
    }

    /// A share of the graph; a borrowed one is copied.
    fn share(&self) -> Arc<Graph> {
        match self {
            SimGraph::Borrowed(graph) => Arc::new(Graph::clone(graph)),
            SimGraph::Shared(graph) => Arc::clone(graph),
        }
    }
}

impl Deref for SimGraph<'_> {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        match self {
            SimGraph::Borrowed(graph) => graph,
            SimGraph::Shared(graph) => graph,
        }
    }
}

/// Signature of a per-round observer: graph, 1-based round, states.
type HookFn<S> = dyn FnMut(&Graph, u64, &[S]);

/// The per-round observer slot of a [`Simulator`]; wraps the boxed closure
/// so the simulator can keep deriving [`Debug`].
struct InvariantHook<S>(Option<Box<HookFn<S>>>);

impl<S> std::fmt::Debug for InvariantHook<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "InvariantHook(installed)"
        } else {
            "InvariantHook(none)"
        })
    }
}

impl<'g, P: BeepingProtocol> Simulator<'g, P> {
    /// Creates a simulator over `graph` running `protocol` from
    /// `initial_states`, with all node randomness derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_states.len() != graph.len()`.
    pub fn new(
        graph: &'g Graph,
        protocol: P,
        initial_states: Vec<P::State>,
        seed: u64,
    ) -> Simulator<'g, P> {
        Simulator::on(SimGraph::Borrowed(graph), protocol, initial_states, seed)
    }

    /// Creates a simulator over a borrowed or shared `graph`; see
    /// [`SimGraph`] for when a churn mutation copies it. [`Simulator::new`]
    /// is the borrowed case. Under motion ([`crate::dynamic`]) the graph is
    /// not mutated but replaced: each round the simulator adopts the
    /// motion layer's shared radius graph.
    ///
    /// # Panics
    ///
    /// Panics if `initial_states.len() != graph.len()`.
    pub fn on(
        graph: SimGraph<'g>,
        protocol: P,
        initial_states: Vec<P::State>,
        seed: u64,
    ) -> Simulator<'g, P> {
        assert_eq!(initial_states.len(), graph.len(), "one initial state per node is required");
        let n = graph.len();
        let mut signals = Bitsets::default();
        signals.reset(n.div_ceil(64));
        Simulator {
            graph,
            protocol,
            states: initial_states,
            rngs: rng::node_rngs(seed, n),
            round: 0,
            duplex: DuplexMode::Full,
            channel: ChannelFault::reliable(),
            channel_state: ChannelState::default(),
            channel_rng: rng::aux_rng(seed, CHANNEL_RNG_PURPOSE),
            byzantine: ByzantinePlan::new(),
            byz: Vec::new(),
            byz_rng: rng::aux_rng(seed, BYZ_RNG_PURPOSE),
            active: vec![true; n],
            active_bits: full_active_bits(n),
            inactive: 0,
            engine: EngineMode::default(),
            signals,
            touched: vec![0; n.div_ceil(64)],
            touched_all: true,
            hook: InvariantHook(None),
            frontier: FrontierState::default(),
            par: None,
            work: WorkCounters::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle, replacing any previous one (builder
    /// style; safe at any round). The simulator records per-phase
    /// wall-clock timers (transmit / delivery / receive on the phased path,
    /// one fused span on the no-fault fast path) and per-engine round
    /// counters into it. Like the invariant hook, telemetry observes only:
    /// it draws no randomness and never alters a round's result, so
    /// attaching a handle never changes an execution. Round *events* are
    /// emitted by the runner layer (`mis::runner`), which knows the
    /// protocol-level observables.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Simulator<'g, P> {
        self.telemetry = telemetry;
        self
    }

    /// Selects the delivery kernel (builder style); the default is
    /// [`EngineMode::Scatter`]. All kernels are bit-identical per seed —
    /// [`EngineMode::Scalar`] is kept as the executable reference. Safe at
    /// any round: leaving (or re-entering) the frontier kernel materializes
    /// any lazily accounted RNG positions and discards the frontier
    /// bookkeeping — the next frontier round rebuilds it with one full
    /// sweep.
    pub fn with_engine(mut self, engine: EngineMode) -> Simulator<'g, P> {
        self.frontier_desync();
        self.engine = engine;
        self
    }

    /// Installs a per-round invariant hook, replacing any previous one
    /// (builder style; safe at any round). The hook runs at the end of
    /// every [`Simulator::step`] with the current (possibly churned)
    /// topology, the 1-based round just executed and the post-update
    /// states; it is expected to panic on a violated invariant. Runners
    /// install a checker here in debug builds (e.g.
    /// `mis::invariant::check_round`); the hook draws no randomness
    /// and observes state only, so installing one never changes an
    /// execution.
    pub fn with_invariant_hook<F>(mut self, hook: F) -> Simulator<'g, P>
    where
        F: FnMut(&Graph, u64, &[P::State]) + 'static,
    {
        self.hook = InvariantHook(Some(Box::new(hook)));
        self
    }

    /// Switches to the given duplex mode (builder style); the default is
    /// [`DuplexMode::Full`], the paper's model. Safe at any round: the
    /// frontier kernel's settled set depends on the mode, so it is
    /// discarded and rebuilt.
    pub fn with_duplex(mut self, duplex: DuplexMode) -> Simulator<'g, P> {
        self.frontier_desync();
        self.duplex = duplex;
        self
    }

    /// Installs an unreliable-channel model, replacing any previous one
    /// (builder style); the default is [`ChannelFault::reliable`], the
    /// paper's perfect channel. Safe at any round — e.g. to start or stop a
    /// noise regime at an adversary-chosen round; the burst-window position
    /// is reset to the good state.
    ///
    /// # Panics
    ///
    /// Panics if [`ChannelFault::validate`] rejects the channel for this
    /// network.
    pub fn with_channel(mut self, channel: ChannelFault) -> Simulator<'g, P> {
        if let Err(e) = channel.validate(self.graph.len()) {
            panic!("invalid channel: {e}");
        }
        // Noise regimes (and their jammer windows) are global events for
        // the frontier kernel: every listener's observation may change, so
        // the settled set is discarded wholesale rather than seeded.
        self.frontier_desync();
        self.channel = channel;
        self.channel_state = ChannelState::default();
        self
    }

    /// Installs a Byzantine plan, replacing any previous one (builder
    /// style); the default is the empty plan, the honest network. Safe at
    /// any round — e.g. to break a node at an adversary-chosen round; the
    /// Byzantine RNG stream keeps its position, so swapping plans never
    /// rewinds randomness.
    ///
    /// # Panics
    ///
    /// Panics if [`ByzantinePlan::validate`] rejects the plan for this
    /// network and protocol.
    pub fn with_byzantine(mut self, plan: ByzantinePlan<P::State>) -> Simulator<'g, P> {
        let n = self.graph.len();
        if let Err(e) = plan.validate(n, self.protocol.channels()) {
            panic!("invalid byzantine plan: {e}");
        }
        // A Byzantine plan swap (including a crash-restart schedule being
        // installed or cleared) reroutes the shared Byzantine stream, which
        // the frontier kernel cannot account per node — discard and rebuild.
        self.frontier_desync();
        let mut byz = if plan.is_empty() { Vec::new() } else { vec![None; n] };
        for (v, behavior) in plan.overrides() {
            byz[*v] = Some(behavior.clone());
        }
        self.byz = byz;
        self.byzantine = plan;
        self
    }

    /// The graph being simulated (the current, possibly churned, topology).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current node states (the RAM), indexed by node id.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The state of a single node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn state(&self, node: NodeId) -> &P::State {
        &self.states[node]
    }

    /// Overwrites the state of `node` — the transient-fault ("RAM
    /// corruption") entry point. The protocol logic (ROM) is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn corrupt_state(&mut self, node: NodeId, state: P::State) {
        // Frontier seeding: a corrupted node's next transmission may
        // change, so it re-executes live; its neighbors are woken lazily
        // if and when its signal actually changes.
        self.frontier_unsettle(node);
        self.states[node] = state;
        self.touch(node);
    }

    /// Topology churn: inserts the undirected edge `{u, v}` (copy-on-write;
    /// the borrowed input graph is never modified). Returns `true` if the
    /// edge was new.
    ///
    /// # Errors
    ///
    /// [`ChurnError::NodeOutOfRange`] if an endpoint is `>= n`,
    /// [`ChurnError::SelfEdge`] if `u == v`; the topology is unchanged on
    /// error.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, ChurnError> {
        self.check_churn_edge(u, v)?;
        match self.graph.to_mut().insert_edge(u, v) {
            Ok(inserted) => {
                if inserted {
                    // Frontier seeding: only the endpoints' observations
                    // can change — their next round runs live.
                    self.frontier_unsettle(u);
                    self.frontier_unsettle(v);
                }
                Ok(inserted)
            }
            // Both graph-level failure modes are pre-checked above; map
            // defensively rather than unwrap so a future GraphError variant
            // cannot reintroduce a panic path.
            Err(_) => Err(ChurnError::SelfEdge(u)),
        }
    }

    /// Topology churn: removes the undirected edge `{u, v}`; returns `true`
    /// if it was present.
    ///
    /// # Errors
    ///
    /// [`ChurnError::NodeOutOfRange`] if an endpoint is `>= n`; the
    /// topology is unchanged on error.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, ChurnError> {
        self.check_churn_edge(u, v)?;
        let removed = self.graph.to_mut().remove_edge(u, v);
        if removed {
            self.frontier_unsettle(u);
            self.frontier_unsettle(v);
        }
        Ok(removed)
    }

    /// Adopts `next` as the topology — the motion hand-over of
    /// [`crate::dynamic`]. Only edges between two active nodes are kept, so
    /// a departed node stays isolated until it rejoins; with every node
    /// active `next` is used as is. An unchanged topology (or a graph over
    /// another node count) returns `None` and keeps the current graph, and
    /// with it the `Arc` identity that the snapshot section cache keys on.
    /// A change returns the `(inserted, removed)` edge counts from one merge
    /// of the old adjacency against the new, which also unsettles exactly
    /// the nodes whose adjacency changed. The merge runs only when something
    /// reads it: `count`, a live frontier or departed nodes (the restricted
    /// copy); otherwise one equality test decides and a change counts
    /// `(0, 0)`. Like every edge update, adoption never touches
    /// participation or signal state.
    pub(crate) fn adopt_graph(&mut self, next: Arc<Graph>, count: bool) -> Option<(usize, usize)> {
        let n = self.graph.len();
        let same = matches!(&self.graph, SimGraph::Shared(graph) if Arc::ptr_eq(graph, &next));
        if next.len() != n || same {
            return None;
        }
        if !count && self.inactive == 0 && !self.frontier_live() {
            if *next == *self.graph {
                return None;
            }
            self.graph = SimGraph::Shared(next);
            return Some((0, 0));
        }
        let next = if self.inactive == 0 {
            next
        } else {
            Arc::new(restrict_to_active(&next, &self.active)?)
        };
        let mut changed: Vec<NodeId> = Vec::new();
        let (mut inserted, mut removed) = (0usize, 0usize);
        for v in 0..n {
            let (old, new) = (self.graph.neighbors(v), next.neighbors(v));
            if old == new {
                continue;
            }
            changed.push(v);
            let (mut i, mut j) = (0usize, 0usize);
            while i < old.len() && j < new.len() {
                match old[i].cmp(&new[j]) {
                    std::cmp::Ordering::Less => {
                        removed += 1;
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        inserted += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        i += 1;
                        j += 1;
                    }
                }
            }
            removed += old.len() - i;
            inserted += new.len() - j;
        }
        if changed.is_empty() {
            return None;
        }
        self.graph = SimGraph::Shared(next);
        // Frontier seeding: only the nodes whose adjacency changed can
        // observe anything new next round.
        for v in changed {
            self.frontier_unsettle(v);
        }
        // Both graphs are symmetric, so each changed edge was counted at
        // both endpoints.
        Some((inserted / 2, removed / 2))
    }

    fn check_churn_edge(&self, u: NodeId, v: NodeId) -> Result<(), ChurnError> {
        let n = self.graph.len();
        for node in [u, v] {
            if node >= n {
                return Err(ChurnError::NodeOutOfRange { node, n });
            }
        }
        if u == v {
            return Err(ChurnError::SelfEdge(u));
        }
        Ok(())
    }

    /// Topology churn: node `v` departs. All its incident edges are removed
    /// and the node becomes inactive — silent, deaf and frozen — until
    /// [`Simulator::node_join`] brings it back. Returns the number of edges
    /// removed. Idempotent for an already-departed node.
    ///
    /// # Errors
    ///
    /// [`ChurnError::NodeOutOfRange`] if `v >= n`; the execution is
    /// unchanged on error.
    pub fn node_leave(&mut self, v: NodeId) -> Result<usize, ChurnError> {
        let n = self.graph.len();
        if v >= n {
            return Err(ChurnError::NodeOutOfRange { node: v, n });
        }
        // Frontier seeding: the departing node's signal goes silent, so its
        // (pre-isolation) neighbors' observations may change next round.
        if self.frontier_live() {
            let neighbors: Vec<NodeId> =
                self.graph.neighbors(v).iter().map(|&u| u as NodeId).collect();
            for u in neighbors {
                self.frontier_unsettle(u);
            }
            self.frontier_unsettle(v);
        }
        let removed = self.graph.to_mut().isolate_node(v);
        self.touch(v);
        if self.active[v] {
            self.active[v] = false;
            self.active_bits[v >> 6] &= !(1u64 << (v & 63));
            self.inactive += 1;
        }
        // A departed node must not keep advertising its last round: clear
        // its transmission and observation so `last_sent()`/`last_heard()`
        // and observer hooks never read a beep from a node that no longer
        // exists.
        self.set_signals(v, BeepSignal::silent(), BeepSignal::silent());
        Ok(removed)
    }

    /// Topology churn: node `v` (re)joins with edges to `neighbors` and the
    /// given state (a joining node boots with *arbitrary* RAM — pass
    /// whatever the adversary chooses). Edges already present are kept.
    ///
    /// # Errors
    ///
    /// [`ChurnError::NodeOutOfRange`] if `v` or a neighbor is `>= n`,
    /// [`ChurnError::SelfEdge`] if `neighbors` contains `v`. Validation
    /// happens before any mutation, so a failed join leaves the execution
    /// unchanged.
    pub fn node_join(
        &mut self,
        v: NodeId,
        neighbors: &[NodeId],
        state: P::State,
    ) -> Result<(), ChurnError> {
        let n = self.graph.len();
        if v >= n {
            return Err(ChurnError::NodeOutOfRange { node: v, n });
        }
        for &u in neighbors {
            if u >= n {
                return Err(ChurnError::NodeOutOfRange { node: u, n });
            }
            if u == v {
                return Err(ChurnError::SelfEdge(v));
            }
        }
        // Frontier seeding: the joiner and every attachment point
        // re-execute next round (their observations may change).
        self.frontier_unsettle(v);
        for &u in neighbors {
            self.frontier_unsettle(u);
        }
        let graph = self.graph.to_mut();
        for &u in neighbors {
            // Endpoints are validated above; `insert_edge` only reports
            // conditions that validation already excluded.
            let _ = graph.insert_edge(v, u);
        }
        if !self.active[v] {
            self.active[v] = true;
            self.active_bits[v >> 6] |= 1u64 << (v & 63);
            self.inactive -= 1;
        }
        self.states[v] = state;
        self.touch(v);
        // Mirror of `node_leave`'s signal clearing: a joining node boots
        // fresh and has neither transmitted nor heard anything yet, so the
        // signals left over from before its departure must not leak into
        // `last_sent()`/`last_heard()` or observer hooks.
        self.set_signals(v, BeepSignal::silent(), BeepSignal::silent());
        Ok(())
    }

    /// The participation bitmap, indexed by node id: `false` for a node
    /// that departed via [`Simulator::node_leave`].
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// Number of currently participating nodes (O(1): the simulator keeps
    /// a departed-node count alongside the bitmap).
    pub fn active_count(&self) -> usize {
        self.active.len() - self.inactive
    }

    /// The deterministic work counters accumulated so far; see
    /// [`WorkCounters`].
    pub fn work(&self) -> WorkCounters {
        self.work
    }

    /// The transmissions of the most recent round (all silent before the
    /// first [`Simulator::step`]).
    pub fn last_sent(&self) -> Signals<'_> {
        Signals { c1: &self.signals.sent1, c2: &self.signals.sent2, len: self.graph.len() }
    }

    /// The observations of the most recent round.
    pub fn last_heard(&self) -> Signals<'_> {
        Signals { c1: &self.signals.heard1, c2: &self.signals.heard2, len: self.graph.len() }
    }

    /// The nodes whose state or participation may have changed since the
    /// last [`Simulator::clear_touched`] (since construction, at first): a
    /// superset of the changed nodes, which a reader that diffs against its
    /// own copy may use to skip untouched 64-node words.
    pub fn touched(&self) -> Touched<'_> {
        if self.touched_all {
            Touched::Every
        } else {
            Touched::Words(&self.touched)
        }
    }

    /// Empties the set [`Simulator::touched`] reports.
    pub fn clear_touched(&mut self) {
        self.touched_all = false;
        self.touched.fill(0);
    }

    /// Adds `v` to the touched set.
    fn touch(&mut self, v: NodeId) {
        self.touched[v >> 6] |= 1u64 << (v & 63);
    }

    /// Executes one synchronous round and reports aggregate beep activity.
    ///
    /// With the default reliable channel and all nodes active, this is
    /// exactly the paper's round: transmit, OR over neighbors, receive.
    /// Otherwise the unreliable-channel model is applied between the
    /// OR-aggregation and `receive`: jammers override transmissions,
    /// per-edge beep loss thins the OR, and spurious beeps are merged into
    /// each listener's observation. Departed (inactive) nodes neither
    /// transmit, hear, nor update state, and consume no node randomness.
    ///
    /// # Panics
    ///
    /// Panics (in debug and release) if the protocol transmits on a channel
    /// it did not declare via [`BeepingProtocol::channels`] — that would be
    /// a model violation, not a recoverable condition.
    pub fn step(&mut self) -> RoundReport {
        let n = self.graph.len();
        let channels = self.protocol.channels();
        // No-fault fast paths: with a perfectly reliable channel and no
        // Byzantine plan, every noise/jammer/Byzantine branch is dead code
        // and no channel or Byzantine randomness is ever drawn, so the
        // fused scatter round — and the frontier kernel, which skips only
        // rounds certified draw-equivalent — are bit-identical to the
        // phased path below.
        let fault_free = self.channel.is_reliable() && self.byzantine.is_empty();
        let report = match self.engine {
            EngineMode::Scatter if fault_free => self.fast_round(n, channels),
            EngineMode::ParScatter { threads } if fault_free => {
                self.par_round(n, channels, threads)
            }
            EngineMode::Frontier if fault_free => self.frontier_round(n, channels),
            // Channel noise and Byzantine behavior draw from shared streams
            // in strict node order, which neither parallel execution nor
            // the frontier's skipping can reproduce: faulted rounds run the
            // phased path on every engine (the scatter engine's behavior,
            // including its drop_p fallback to the scalar gather). Every
            // channel, Byzantine or engine swap desynchronizes the frontier
            // bookkeeping and a restore resets it, so it is never live here.
            _ => {
                debug_assert!(
                    !self.frontier.synced,
                    "frontier bookkeeping live on the phased path"
                );
                self.phased_round(n, channels)
            }
        };
        // Every kernel has closed its span and bumped its round counter;
        // the round is counted before the hook runs, so telemetry totals
        // and hook observations agree across kernels even when a hook
        // panics mid-round (pinned by `tests/fast_path_accounting.rs`).
        self.round += 1;
        if let Some(hook) = self.hook.0.as_mut() {
            hook(&self.graph, self.round, &self.states);
        }
        report
    }

    /// The phased round: transmit, deliver (with the channel model between
    /// the OR-aggregation and `receive`), receive — the only kernel that
    /// runs faulted rounds, and the scalar engine's only kernel.
    fn phased_round(&mut self, n: usize, channels: SimulatorChannels) -> RoundReport {
        self.touched_all = true;
        // Phase 0: advance the burst-noise window (no-op without bursts).
        let transmit_span = self.telemetry.time("sim.phase.transmit");
        self.channel.advance_window(&mut self.channel_state, &mut self.channel_rng);
        let drop_p = self.channel.effective_drop(&self.channel_state);
        let spurious_p = self.channel.spurious_p;
        // Phase 0b: crash-restart reboots. An affected node's RAM is
        // overwritten by the adversary's resurrection closure before this
        // round's transmissions, in ascending node order (deterministic
        // draws from the Byzantine stream).
        if !self.byzantine.is_empty() {
            let executing_round = self.round + 1;
            for v in 0..n {
                if !self.active[v] {
                    continue;
                }
                if let Some(Some(ByzantineBehavior::CrashRestart { period, resurrect })) =
                    self.byz.get(v)
                {
                    if executing_round.is_multiple_of(*period) {
                        self.states[v] = resurrect.call(v, executing_round, &mut self.byz_rng);
                    }
                }
            }
        }
        // Phase 1: transmissions. Jammers override the protocol's decision —
        // the radio is Byzantine, the RAM is not — and Byzantine behavior
        // overrides override jammers in turn.
        self.signals.reset(n.div_ceil(64));
        for v in 0..n {
            let mut signal = if self.active[v] {
                let s = self.protocol.transmit(v, &self.states[v], &mut self.rngs[v]);
                assert!(
                    s.allowed_by(channels),
                    "protocol beeped on an undeclared channel (node {v}, signal {s})"
                );
                s
            } else {
                BeepSignal::silent()
            };
            if self.active[v] {
                match self.channel.jammer(v) {
                    Some(JammerKind::AlwaysBeep) => signal = channels.full_signal(),
                    Some(JammerKind::AlwaysSilent) => signal = BeepSignal::silent(),
                    None => {}
                }
                match self.byz.get(v).and_then(Option::as_ref) {
                    Some(ByzantineBehavior::StuckBeep) => signal = channels.full_signal(),
                    Some(ByzantineBehavior::StuckSilent) => signal = BeepSignal::silent(),
                    Some(ByzantineBehavior::Babbler(p)) => {
                        signal = if *p > 0.0 && self.byz_rng.gen_bool(*p) {
                            channels.full_signal()
                        } else {
                            BeepSignal::silent()
                        };
                    }
                    Some(ByzantineBehavior::Channel2Liar) => {
                        signal.merge(BeepSignal::channel2());
                    }
                    Some(ByzantineBehavior::CrashRestart { .. }) | None => {}
                }
            }
            self.signals.set_sent(v, signal);
        }
        self.work.node_execs += (n - self.inactive) as u64;
        drop(transmit_span);
        // Phase 2: delivery — OR over neighbors, per channel. A node does
        // not hear itself: beeps are sent to neighbors only (paper §1).
        // Under half duplex, a transmitting node additionally hears nothing.
        // The unreliable channel thins the OR (per-directed-edge loss) and
        // may add spurious positives; a reliable channel draws no randomness
        // here, keeping noise-free executions bit-identical to the paper's
        // model.
        // The frontier and parallel engines have no phased kernel of their
        // own: on this path they *are* the scatter engine (same delivery,
        // same counters).
        let (deliver_name, rounds_counter) = match self.engine {
            EngineMode::Scalar => ("sim.phase.deliver.scalar", "sim.rounds.scalar"),
            EngineMode::Scatter | EngineMode::Frontier | EngineMode::ParScatter { .. } => {
                ("sim.phase.deliver.scatter", "sim.rounds.scatter")
            }
        };
        let deliver_span = self.telemetry.time(deliver_name);
        let gather = self.engine == EngineMode::Scalar || drop_p > 0.0;
        self.deliver(n, channels, drop_p, spurious_p, gather);
        drop(deliver_span);
        // Phase 3: state updates (departed nodes are frozen).
        let receive_span = self.telemetry.time("sim.phase.receive");
        for v in 0..n {
            if self.active[v] {
                let (s, h) = (self.signals.sent(v), self.signals.heard(v));
                self.protocol.receive(v, &mut self.states[v], s, h, &mut self.rngs[v]);
            }
        }
        drop(receive_span);
        self.telemetry.counter_add(rounds_counter, 1);
        let mut report = RoundReport { round: self.round + 1, ..Default::default() };
        let b = &self.signals;
        for w in 0..n.div_ceil(64) {
            report.count_word(b.sent1[w], b.sent2[w], b.heard1[w], b.heard2[w]);
        }
        report
    }

    /// Delivery into the heard bitsets (zeroed by phase 1). Under `gather`
    /// (the scalar reference, and any round with beep loss, whose
    /// per-(listener, beeping neighbor) coin order no scatter can keep) each
    /// hearing-capable listener scans its neighbors; otherwise the beepers
    /// scatter — O(Σ deg(beeper)) instead of O(m) — and each listener reads
    /// its bits. Spurious coins follow per listener in ascending order.
    fn deliver(
        &mut self,
        n: usize,
        channels: SimulatorChannels,
        drop_p: f64,
        spurious_p: f64,
        gather: bool,
    ) {
        // Inactive nodes are silent, so they never scatter or are heard.
        if !gather {
            let bits = &mut self.signals;
            for u in 0..n {
                if bits.sent(u).on_channel1() {
                    self.work.edge_visits += sweep::scatter(&self.graph, u, &mut bits.heard1);
                }
                if bits.sent(u).on_channel2() {
                    self.work.edge_visits += sweep::scatter(&self.graph, u, &mut bits.heard2);
                }
            }
        }
        let two = channels == SimulatorChannels::Two;
        for v in 0..n {
            let mut heard = BeepSignal::silent();
            if self.active[v]
                && (self.duplex == DuplexMode::Full || self.signals.sent(v).is_silent())
            {
                if gather {
                    self.work.edge_visits += self.graph.degree(v) as u64;
                    for &u in self.graph.neighbors(v) {
                        let sig = self.signals.sent(u as usize);
                        if sig.is_silent() || (drop_p > 0.0 && self.channel_rng.gen_bool(drop_p)) {
                            continue; // silent, or the beep is lost on this directed edge
                        }
                        heard.merge(sig);
                    }
                } else {
                    heard = self.signals.heard(v);
                }
                if spurious_p > 0.0 {
                    let c1 = self.channel_rng.gen_bool(spurious_p);
                    let c2 = two && self.channel_rng.gen_bool(spurious_p);
                    heard.merge(BeepSignal::new(c1, c2));
                }
            }
            self.signals.set_heard(v, heard);
        }
    }

    /// Fused no-fault round: one call of the full-sweep kernel
    /// ([`crate::sweep`]) over the whole network, with the
    /// [`RoundReport`] counted word by word inside the kernel. Only reachable when
    /// the channel is reliable and the Byzantine plan is empty, so every
    /// skipped branch (burst windows, reboots, jammers, loss, spurious) is
    /// provably dead and no channel/Byzantine randomness is ever drawn —
    /// making this bit-identical to the phased path under either engine.
    fn fast_round(&mut self, n: usize, channels: SimulatorChannels) -> RoundReport {
        let fused_span = self.telemetry.time("sim.phase.fused");
        self.touched_all = true;
        let kernel = Sweep {
            graph: &self.graph,
            protocol: &self.protocol,
            channels,
            full_duplex: self.duplex == DuplexMode::Full,
            active_bits: &self.active_bits,
        };
        let (mut report, work) = kernel.whole(
            &mut self.states[..n],
            &mut self.rngs[..n],
            &mut self.signals,
            |_, _, _, _, _| {},
        );
        report.round = self.round + 1;
        self.work.node_execs += work.node_execs;
        self.work.edge_visits += work.edge_visits;
        drop(fused_span);
        self.telemetry.counter_add("sim.rounds.fused", 1);
        report
    }

    /// Fused no-fault parallel round; see [`EngineMode::ParScatter`] and
    /// the [`crate::par`] module docs. Only reachable when the channel is
    /// reliable and the Byzantine plan is empty, exactly like
    /// [`Simulator::fast_round`] — no channel/Byzantine randomness exists
    /// to be drawn, and per-node streams are independent, so the result is
    /// bit-identical to every sequential engine at any thread count.
    fn par_round(&mut self, n: usize, channels: SimulatorChannels, threads: usize) -> RoundReport {
        let par_span = self.telemetry.time("sim.phase.par");
        self.touched_all = true;
        let plan = match &mut self.par {
            Some(plan) if plan.matches(&self.graph, threads) => plan,
            slot => slot.insert(crate::par::ParPlan::build(&self.graph, threads)),
        };
        let kernel = Sweep {
            graph: &self.graph,
            protocol: &self.protocol,
            channels,
            full_duplex: self.duplex == DuplexMode::Full,
            active_bits: &self.active_bits,
        };
        let (mut report, work) = crate::par::run_round(
            plan,
            &kernel,
            &mut self.states[..n],
            &mut self.rngs[..n],
            &mut self.signals,
        );
        report.round = self.round + 1;
        self.work.node_execs += work.node_execs;
        self.work.edge_visits += work.edge_visits;
        drop(par_span);
        self.telemetry.counter_add("sim.rounds.par", 1);
        report
    }

    /// `true` while the frontier bookkeeping is authoritative: the
    /// frontier engine is selected and a full sweep has established the
    /// [`FrontierState`] invariants.
    fn frontier_live(&self) -> bool {
        self.engine == EngineMode::Frontier && self.frontier.synced
    }

    /// Event→dirty-set hook: queues `v` for live execution next round,
    /// materializing its lazily accounted RNG position first. No-op unless
    /// the bookkeeping is live (other engines, or before the first sweep).
    fn frontier_unsettle(&mut self, v: NodeId) {
        if !self.frontier_live() {
            return;
        }
        if self.frontier.settled[v] {
            self.frontier.materialize(&mut self.rngs[v], v, self.round);
            self.frontier.settled[v] = false;
        }
        self.frontier.push_dirty(v);
    }

    /// Materializes every lazily accounted RNG position and discards the
    /// frontier bookkeeping — the exit into any regime the kernel cannot
    /// track per node: the engine, duplex, channel and Byzantine builders
    /// call it. The next frontier round rebuilds with a full sweep.
    fn frontier_desync(&mut self) {
        if !self.frontier.synced {
            return;
        }
        for v in 0..self.graph.len() {
            if self.frontier.settled[v] {
                self.frontier.materialize(&mut self.rngs[v], v, self.round);
            }
        }
        self.frontier_reset();
    }

    /// Forgets the frontier bookkeeping *without* materializing — only
    /// correct when the RNG positions are being replaced wholesale (a
    /// restore), where ticking the outgoing streams would corrupt the
    /// incoming ones.
    fn frontier_reset(&mut self) {
        let fr = &mut self.frontier;
        fr.synced = false;
        fr.dirty.clear();
        for q in &mut fr.queued {
            *q = false;
        }
        for s in &mut fr.settled {
            *s = false;
        }
    }

    /// Overwrites `v`'s sent and heard bits. While the frontier bookkeeping
    /// is live, its running report totals move with them.
    fn set_signals(&mut self, v: NodeId, s: BeepSignal, h: BeepSignal) {
        if self.frontier_live() {
            let counts = |s: BeepSignal, h: BeepSignal| {
                let (s, h) = (s.bits(), h.bits());
                [s, s >> 1, h, h >> 1, s & !h, (s & !h) >> 1].map(|b| usize::from(b & 1))
            };
            let (was, is) = (counts(self.signals.sent(v), self.signals.heard(v)), counts(s, h));
            let t = &mut self.frontier.totals;
            let totals = [
                &mut t.beeps_channel1,
                &mut t.beeps_channel2,
                &mut t.hearers_channel1,
                &mut t.hearers_channel2,
                &mut t.lone_beepers,
                &mut t.lone_beepers_channel2,
            ];
            for ((total, was), is) in totals.into_iter().zip(was).zip(is) {
                *total = *total + is - was;
            }
        }
        self.signals.set_sent(v, s);
        self.signals.set_heard(v, h);
    }

    /// Reads listener `u`'s observation from the sent bitsets — the
    /// word-packed signal reuse over the settled complement — stopping once
    /// it holds `all`, every declared channel. Inactive neighbors never have
    /// a bit set, so no activity mask is needed here.
    fn frontier_gather(&self, u: NodeId, all: BeepSignal) -> BeepSignal {
        let mut heard = BeepSignal::silent();
        for &w in self.graph.neighbors(u) {
            heard.merge(self.signals.sent(w as NodeId));
            if heard == all {
                break;
            }
        }
        heard
    }

    /// One fault-free frontier round: sparse while the dirty set stays at
    /// or under [`frontier_fallback_threshold`], otherwise (or while
    /// unsynced) one full rebuild sweep.
    fn frontier_round(&mut self, n: usize, channels: SimulatorChannels) -> RoundReport {
        self.frontier.ensure_init(n);
        if !self.frontier.synced || self.frontier.dirty.len() > frontier_fallback_threshold(n) {
            self.frontier_full_sweep(n, channels)
        } else {
            self.frontier_sparse_round(channels)
        }
    }

    /// Full frontier sweep: executes every node through the full-sweep
    /// kernel, re-deriving the settled set, the signal bitsets and the
    /// running report totals. Entered while unsynced and whenever the
    /// frontier outgrows the density threshold.
    fn frontier_full_sweep(&mut self, n: usize, channels: SimulatorChannels) -> RoundReport {
        let span = self.telemetry.time("sim.phase.frontier");
        let executing = self.round + 1;
        self.touched_all = true;
        // Materialize every lazily accounted stream through the previous
        // round so the live transmissions below start at the right
        // positions, then forget the old settled set. A departed node is
        // frozen and draw-free: settled at rate 0, so skipped rounds never
        // advance its stream.
        let synced = self.frontier.synced;
        let fr = &mut self.frontier;
        for v in 0..n {
            if synced && fr.settled[v] {
                fr.materialize(&mut self.rngs[v], v, executing - 1);
            }
            fr.last_exec[v] = executing;
            fr.settled[v] = !self.active[v];
            if !self.active[v] {
                fr.rate[v] = 0;
            }
        }
        fr.dirty.clear();
        for q in &mut fr.queued {
            *q = false;
        }
        // The kernel rebuilds the signal bitsets; each executed node is
        // judged for settling right after its `receive`.
        let protocol = &self.protocol;
        let kernel = Sweep {
            graph: &self.graph,
            protocol,
            channels,
            full_duplex: self.duplex == DuplexMode::Full,
            active_bits: &self.active_bits,
        };
        let (mut report, work) = kernel.whole(
            &mut self.states[..n],
            &mut self.rngs[..n],
            &mut self.signals,
            |v, state, s, h, _rng| match protocol.settled_round(v, state, h) {
                Some(sr) if sr.signal == s => {
                    #[cfg(debug_assertions)]
                    debug_check_settled_contract(protocol, v, state, _rng, sr, h);
                    fr.settled[v] = true;
                    fr.rate[v] = sr.draws;
                }
                _ => fr.push_dirty(v),
            },
        );
        report.round = executing;
        fr.totals = report;
        fr.synced = true;
        self.work.node_execs += work.node_execs;
        self.work.edge_visits += work.edge_visits;
        drop(span);
        self.telemetry.counter_add("sim.rounds.frontier", 1);
        self.telemetry.counter_add("sim.rounds.frontier.fallback", 1);
        report
    }

    /// Sparse frontier round — O(Σ deg(dirty ∪ N(changed))) work:
    ///
    /// 1. the dirty set transmits live (changed signals are patched into
    ///    the sent bitsets);
    /// 2. observations are recomputed only across the changed signals'
    ///    neighborhoods plus the dirty set itself (whose duplex masking or
    ///    adjacency may have changed);
    /// 3. settled listeners whose observation changed are *woken* — their
    ///    skipped transmissions are ticked via jump-ahead, then they run a
    ///    live `receive` on the new observation;
    /// 4. everything that executed is re-evaluated for settling and feeds
    ///    the next round's dirty set.
    fn frontier_sparse_round(&mut self, channels: SimulatorChannels) -> RoundReport {
        let span = self.telemetry.time("sim.phase.frontier");
        let executing = self.round + 1;
        let all = channels.full_signal();
        let full = self.duplex == DuplexMode::Full;
        // Swap the dirty list into the exec scratch so `push_dirty` below
        // refills a retained buffer (no per-round allocation).
        std::mem::swap(&mut self.frontier.dirty, &mut self.frontier.exec);
        self.frontier.dirty.clear();
        let mut exec = std::mem::take(&mut self.frontier.exec);
        exec.sort_unstable();
        for &v in &exec {
            self.frontier.queued[v] = false;
        }
        // Pass 1: live transmissions for the dirty set.
        let mut changed = std::mem::take(&mut self.frontier.changed);
        changed.clear();
        for &v in &exec {
            if !self.active[v] {
                // A departed node is frozen and draw-free: it settles at
                // rate 0 until `node_join` queues it again.
                self.frontier.settled[v] = true;
                self.frontier.rate[v] = 0;
                self.frontier.last_exec[v] = executing;
                continue;
            }
            debug_assert_eq!(
                self.frontier.last_exec[v],
                executing - 1,
                "dirty node {v} entered the round with an unmaterialized stream"
            );
            let s = self.protocol.transmit(v, &self.states[v], &mut self.rngs[v]);
            assert!(
                s.allowed_by(channels),
                "protocol beeped on an undeclared channel (node {v}, signal {s})"
            );
            if s != self.signals.sent(v) {
                self.set_signals(v, s, self.signals.heard(v));
                changed.push(v);
            }
        }
        // Pass 2: recompute observations over dirty ∪ N(changed); wake
        // settled listeners whose observation changed.
        let mut listeners = std::mem::take(&mut self.frontier.listeners);
        listeners.clear();
        for &v in &exec {
            if self.active[v] && !self.frontier.listener_mark[v] {
                self.frontier.listener_mark[v] = true;
                listeners.push(v);
            }
        }
        for &v in &changed {
            self.work.edge_visits += self.graph.degree(v) as u64;
            for &w in self.graph.neighbors(v) {
                let w = w as NodeId;
                if self.active[w] && !self.frontier.listener_mark[w] {
                    self.frontier.listener_mark[w] = true;
                    listeners.push(w);
                }
            }
        }
        listeners.sort_unstable();
        let mut wake = std::mem::take(&mut self.frontier.wake);
        wake.clear();
        for &u in &listeners {
            self.frontier.listener_mark[u] = false;
            let h = if full || self.signals.sent(u).is_silent() {
                self.frontier_gather(u, all)
            } else {
                BeepSignal::silent()
            };
            if h != self.signals.heard(u) {
                let was_settled = self.frontier.settled[u];
                self.set_signals(u, self.signals.sent(u), h);
                if was_settled {
                    wake.push(u);
                }
            }
        }
        // Pass 3: woken nodes skipped this round's transmission, but the
        // contract fixes its signal and draw count — tick the stream
        // through this round, then run the live receive below.
        for &u in &wake {
            self.frontier.materialize(&mut self.rngs[u], u, executing);
            self.frontier.settled[u] = false;
        }
        // Pass 4: state updates + settle re-evaluation over everything
        // that executed, in ascending node order (exec and wake are each
        // sorted and disjoint — wake held only settled nodes).
        let (mut ei, mut wi) = (0, 0);
        while ei < exec.len() || wi < wake.len() {
            let take_exec = match (exec.get(ei), wake.get(wi)) {
                (Some(&a), Some(&b)) => a < b,
                (Some(_), None) => true,
                _ => false,
            };
            let v = if take_exec {
                ei += 1;
                exec[ei - 1]
            } else {
                wi += 1;
                wake[wi - 1]
            };
            if self.active[v] {
                self.frontier_finish_node(v, executing);
                self.work.node_execs += 1;
            }
        }
        // Return the scratch buffers for the next sparse round.
        exec.clear();
        self.frontier.exec = exec;
        self.frontier.changed = changed;
        self.frontier.listeners = listeners;
        self.frontier.wake = wake;
        drop(span);
        self.telemetry.counter_add("sim.rounds.frontier", 1);
        RoundReport { round: executing, ..self.frontier.totals }
    }

    /// Receive + settle re-evaluation for one live node of a sparse round.
    fn frontier_finish_node(&mut self, v: NodeId, executing: u64) {
        let (s, h) = (self.signals.sent(v), self.signals.heard(v));
        self.protocol.receive(v, &mut self.states[v], s, h, &mut self.rngs[v]);
        self.touch(v);
        self.frontier.last_exec[v] = executing;
        match self.protocol.settled_round(v, &self.states[v], h) {
            Some(sr) if sr.signal == s => {
                #[cfg(debug_assertions)]
                debug_check_settled_contract(
                    &self.protocol,
                    v,
                    &self.states[v],
                    &self.rngs[v],
                    sr,
                    h,
                );
                self.frontier.settled[v] = true;
                self.frontier.rate[v] = sr.draws;
            }
            _ => {
                self.frontier.settled[v] = false;
                self.frontier.push_dirty(v);
            }
        }
    }

    /// Runs exactly `rounds` rounds, discarding the per-round reports.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Consumes the simulator, returning the final states.
    pub fn into_states(self) -> Vec<P::State> {
        self.states
    }

    /// Captures the complete execution state — node states, per-node RNG
    /// positions, the round counter, the last round's signal bitsets, the
    /// (possibly churned) topology, the participation bitmap and the
    /// channel-noise and Byzantine stream positions — so the run can later
    /// be branched or replayed from this exact point via
    /// [`Simulator::restore`]. The channel and Byzantine
    /// *configurations* are not captured: a restore keeps whatever models
    /// are installed.
    ///
    /// Frontier bookkeeping is *not* captured either — it is provably
    /// reconstructible: the captured RNG positions are materialized
    /// through the current round (settled nodes' lazily-accounted draws
    /// are ticked into the snapshot copies), and a restored run's first
    /// frontier round re-derives the settled set with one full sweep,
    /// which is bit-identical because re-executing a settled node is a
    /// draw-equivalent fixpoint under the draws-when-settled contract.
    ///
    /// The settled nodes of a quiet run mostly owe the same number of
    /// draws, so consecutive ones that do share one jump multiplier.
    pub fn checkpoint(&self) -> Checkpoint<P::State> {
        let mut rngs = self.rngs.clone();
        if self.frontier_live() {
            let mut jump = (0u128, 1u128);
            for (v, rng) in rngs.iter_mut().enumerate() {
                let draws = self.frontier.skipped_draws(v, self.round);
                if !self.frontier.settled[v] || draws == 0 {
                    continue;
                }
                if draws != jump.0 {
                    jump = (draws, rng::jump_multiplier(draws));
                }
                rng::apply_jump(rng, jump.1);
            }
        }
        Checkpoint {
            states: self.states.clone(),
            rngs,
            round: self.round,
            signals: self.signals.clone(),
            graph: self.graph.share(),
            active: self.active.clone(),
            channel_state: self.channel_state,
            channel_rng: self.channel_rng.clone(),
            byz_rng: self.byz_rng.clone(),
        }
    }

    /// Rewinds (or fast-forwards) the simulator to a previously captured
    /// [`Checkpoint`]. Continuing from a restored checkpoint under the same
    /// channel configuration reproduces the original continuation exactly,
    /// including any topology churn applied before the capture.
    ///
    /// # Errors
    ///
    /// [`RestoreError::SizeMismatch`] if the checkpoint was taken on a
    /// different-sized network, [`RestoreError::Inconsistent`] if the
    /// checkpoint's own vectors disagree with each other (a hand-built or
    /// deserialized checkpoint gone wrong). The simulator is unchanged on
    /// error.
    pub fn restore(&mut self, checkpoint: &Checkpoint<P::State>) -> Result<(), RestoreError> {
        if checkpoint.states.len() != self.graph.len() {
            return Err(RestoreError::SizeMismatch {
                checkpoint_nodes: checkpoint.states.len(),
                simulator_nodes: self.graph.len(),
            });
        }
        checkpoint.check_consistent()?;
        // The restored RNG positions are already fully materialized (see
        // `checkpoint`); the frontier bookkeeping referred to the replaced
        // execution, so discard it — never materialize against it here.
        self.frontier_reset();
        self.states = checkpoint.states.clone();
        self.rngs = checkpoint.rngs.clone();
        self.round = checkpoint.round;
        self.signals = checkpoint.signals.clone();
        self.graph = SimGraph::Shared(Arc::clone(&checkpoint.graph));
        self.active = checkpoint.active.clone();
        self.inactive = self.active.iter().filter(|&&a| !a).count();
        self.active_bits = full_active_bits(self.active.len());
        for (v, &a) in self.active.iter().enumerate() {
            if !a {
                self.active_bits[v >> 6] &= !(1u64 << (v & 63));
            }
        }
        self.channel_state = checkpoint.channel_state;
        self.channel_rng = checkpoint.channel_rng.clone();
        self.byz_rng = checkpoint.byz_rng.clone();
        self.touched_all = true;
        Ok(())
    }
}

/// Why a [`Checkpoint`] could not be restored (see [`Simulator::restore`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The checkpoint was captured on a network of a different size.
    SizeMismatch {
        /// Node count recorded in the checkpoint.
        checkpoint_nodes: usize,
        /// Node count of the simulator being restored.
        simulator_nodes: usize,
    },
    /// The checkpoint's own parts disagree with each other — a vector or a
    /// signal bitset sized for another node count, or a signal bit set past
    /// the last node. Possible only for a checkpoint assembled via
    /// [`Checkpoint::from_parts`] (e.g. deserialized from a corrupted
    /// snapshot).
    Inconsistent(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::SizeMismatch { checkpoint_nodes, simulator_nodes } => write!(
                f,
                "checkpoint belongs to a different network: \
                 {checkpoint_nodes} nodes captured, simulator has {simulator_nodes}"
            ),
            RestoreError::Inconsistent(detail) => {
                write!(f, "checkpoint is internally inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// A captured execution point of a [`Simulator`]; see
/// [`Simulator::checkpoint`].
#[derive(Debug, Clone)]
pub struct Checkpoint<S> {
    states: Vec<S>,
    rngs: Vec<Pcg64Mcg>,
    round: u64,
    signals: Bitsets,
    graph: Arc<Graph>,
    active: Vec<bool>,
    channel_state: ChannelState,
    channel_rng: Pcg64Mcg,
    byz_rng: Pcg64Mcg,
}

impl<S> Checkpoint<S> {
    /// The round at which the checkpoint was captured.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The captured node states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The captured per-node RNG streams, indexed by node id.
    pub fn rngs(&self) -> &[Pcg64Mcg] {
        &self.rngs
    }

    /// The captured last-round transmissions.
    pub fn sent(&self) -> Signals<'_> {
        Signals { c1: &self.signals.sent1, c2: &self.signals.sent2, len: self.states.len() }
    }

    /// The captured last-round observations.
    pub fn heard(&self) -> Signals<'_> {
        Signals { c1: &self.signals.heard1, c2: &self.signals.heard2, len: self.states.len() }
    }

    /// The captured (possibly churned) topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The captured topology as the simulator shares it. The simulator
    /// copies a shared graph before it mutates it, so while this `Arc` is
    /// alive no other allocation has its address, and two checkpoints
    /// whose `Arc`s are [`Arc::ptr_eq`] hold the same edge set.
    pub fn shared_graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The captured participation bitmap.
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// The captured channel-noise execution state (burst-window position).
    pub fn channel_state(&self) -> ChannelState {
        self.channel_state
    }

    /// The captured channel-noise RNG stream.
    pub fn channel_rng(&self) -> &Pcg64Mcg {
        &self.channel_rng
    }

    /// The captured Byzantine-behavior RNG stream.
    pub fn byz_rng(&self) -> &Pcg64Mcg {
        &self.byz_rng
    }

    /// Assembles a checkpoint from externally held parts — the inverse of
    /// the accessor set, used by durable-snapshot codecs to rebuild a
    /// checkpoint after deserialization. `sent` and `heard` are the
    /// `[channel 1, channel 2]` signal bitsets: bit `v % 64` of word
    /// `v / 64` is node `v`'s bit, `⌈n/64⌉` words each. The parts are
    /// validated against each other on [`Simulator::restore`], not here, so
    /// a codec can surface a typed [`RestoreError`] instead of a panic.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        states: Vec<S>,
        rngs: Vec<Pcg64Mcg>,
        round: u64,
        sent: [Vec<u64>; 2],
        heard: [Vec<u64>; 2],
        graph: Arc<Graph>,
        active: Vec<bool>,
        channel_state: ChannelState,
        channel_rng: Pcg64Mcg,
        byz_rng: Pcg64Mcg,
    ) -> Checkpoint<S> {
        let ([sent1, sent2], [heard1, heard2]) = (sent, heard);
        Checkpoint {
            states,
            rngs,
            round,
            signals: Bitsets { sent1, sent2, heard1, heard2 },
            graph,
            active,
            channel_state,
            channel_rng,
            byz_rng,
        }
    }

    /// Cross-checks the checkpoint's parts against each other; every
    /// simulator-captured checkpoint passes by construction. A signal bit
    /// past the last node would be counted by a report's popcount, so it is
    /// refused like a wrong length.
    fn check_consistent(&self) -> Result<(), RestoreError> {
        let n = self.states.len();
        let fields =
            [("rngs", self.rngs.len()), ("graph", self.graph.len()), ("active", self.active.len())];
        for (name, len) in fields {
            if len != n {
                return Err(RestoreError::Inconsistent(format!(
                    "{name} covers {len} nodes but states covers {n}"
                )));
            }
        }
        let b = &self.signals;
        let bitsets = [
            ("sent channel 1", &b.sent1),
            ("sent channel 2", &b.sent2),
            ("heard channel 1", &b.heard1),
            ("heard channel 2", &b.heard2),
        ];
        let words = n.div_ceil(64);
        let tail = if n.is_multiple_of(64) { 0 } else { u64::MAX << (n % 64) };
        for (name, bits) in bitsets {
            let detail = if bits.len() != words {
                format!("{name} holds {} words but {n} nodes need {words}", bits.len())
            } else if bits.last().is_some_and(|&w| w & tail != 0) {
                format!("{name} has a bit set past node {}", n - 1)
            } else {
                continue;
            };
            return Err(RestoreError::Inconsistent(detail));
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::{Channels, SettledRound};
    use graphs::generators::classic;
    use rand::RngCore;

    /// Parity protocol: node beeps iff its counter is even; counter
    /// increments when it hears a beep.
    struct Parity;
    impl BeepingProtocol for Parity {
        type State = u64;
        fn channels(&self) -> Channels {
            Channels::One
        }
        fn transmit(&self, _: NodeId, state: &u64, _: &mut Pcg64Mcg) -> BeepSignal {
            if state.is_multiple_of(2) {
                BeepSignal::channel1()
            } else {
                BeepSignal::silent()
            }
        }
        fn receive(
            &self,
            _: NodeId,
            state: &mut u64,
            _: BeepSignal,
            heard: BeepSignal,
            _: &mut Pcg64Mcg,
        ) {
            if heard.on_channel1() {
                *state += 1;
            }
        }
    }

    #[test]
    fn no_self_hearing() {
        // A single isolated node beeps but must hear nothing.
        let g = Graph::empty(1);
        let mut sim = Simulator::new(&g, Parity, vec![0], 0);
        let report = sim.step();
        assert_eq!(report.beeps_channel1, 1);
        assert_eq!(report.hearers_channel1, 0);
        // The counter never advances: it never hears anything.
        sim.run(10);
        assert_eq!(*sim.state(0), 0);
    }

    #[test]
    fn half_duplex_deafens_transmitters() {
        // Both path endpoints beep in round 1; under half duplex neither
        // hears the other, so neither counter advances.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0).with_duplex(DuplexMode::Half);
        sim.step();
        assert_eq!(sim.states(), &[0, 0]);
        // A silent node still hears: make node 1 silent (odd counter).
        let mut sim = Simulator::new(&g, Parity, vec![0, 1], 0).with_duplex(DuplexMode::Half);
        sim.step();
        assert_eq!(sim.states(), &[0, 2]); // only the silent node heard
    }

    #[test]
    fn or_semantics_on_star() {
        // All leaves beep in round 1 (state 0 = even); the hub hears one bit.
        let g = classic::star(5);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0, 0, 0, 0], 0);
        sim.step();
        // Hub heard (4 leaf beeps → 1 bit) and each leaf heard the hub.
        assert!(sim.last_heard().iter().all(|h| h.on_channel1()));
        assert!(sim.states().iter().all(|&s| s == 1));
    }

    #[test]
    fn deterministic_for_seed() {
        struct Coin;
        impl BeepingProtocol for Coin {
            type State = u32;
            fn channels(&self) -> Channels {
                Channels::One
            }
            fn transmit(&self, _: NodeId, _: &u32, rng: &mut Pcg64Mcg) -> BeepSignal {
                if rng.next_u32().is_multiple_of(2) {
                    BeepSignal::channel1()
                } else {
                    BeepSignal::silent()
                }
            }
            fn receive(
                &self,
                _: NodeId,
                s: &mut u32,
                sent: BeepSignal,
                _: BeepSignal,
                _: &mut Pcg64Mcg,
            ) {
                *s = s.wrapping_mul(31).wrapping_add(sent.on_channel1() as u32);
            }
        }
        let g = classic::cycle(16);
        let run = |seed| {
            let mut sim = Simulator::new(&g, Coin, vec![0; 16], seed);
            sim.run(50);
            sim.into_states()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn checkpoint_restore_reproduces_continuation() {
        struct Coin2;
        impl BeepingProtocol for Coin2 {
            type State = u32;
            fn channels(&self) -> Channels {
                Channels::One
            }
            fn transmit(&self, _: NodeId, _: &u32, rng: &mut Pcg64Mcg) -> BeepSignal {
                if rng.next_u32().is_multiple_of(3) {
                    BeepSignal::channel1()
                } else {
                    BeepSignal::silent()
                }
            }
            fn receive(
                &self,
                _: NodeId,
                s: &mut u32,
                sent: BeepSignal,
                heard: BeepSignal,
                _: &mut Pcg64Mcg,
            ) {
                *s = s
                    .wrapping_mul(17)
                    .wrapping_add(sent.on_channel1() as u32)
                    .wrapping_add(2 * heard.on_channel1() as u32);
            }
        }
        let g = classic::cycle(12);
        let mut sim = Simulator::new(&g, Coin2, vec![0; 12], 5);
        sim.run(20);
        let cp = sim.checkpoint();
        assert_eq!(cp.round(), 20);
        sim.run(30);
        let final_a = sim.states().to_vec();
        // Rewind and replay.
        sim.restore(&cp).unwrap();
        assert_eq!(sim.round(), 20);
        assert_eq!(sim.states(), cp.states());
        sim.run(30);
        assert_eq!(sim.states(), final_a.as_slice());
    }

    #[test]
    fn corrupt_state_changes_behavior() {
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0);
        sim.corrupt_state(0, 1); // odd: silent
        sim.corrupt_state(1, 1);
        sim.step();
        assert_eq!(sim.states(), &[1, 1]); // nobody beeped, nothing heard
    }

    #[test]
    #[should_panic(expected = "undeclared channel")]
    fn channel_discipline_enforced() {
        struct Cheater;
        impl BeepingProtocol for Cheater {
            type State = ();
            fn channels(&self) -> Channels {
                Channels::One
            }
            fn transmit(&self, _: NodeId, _: &(), _: &mut Pcg64Mcg) -> BeepSignal {
                BeepSignal::channel2()
            }
            fn receive(
                &self,
                _: NodeId,
                _: &mut (),
                _: BeepSignal,
                _: BeepSignal,
                _: &mut Pcg64Mcg,
            ) {
            }
        }
        let g = classic::path(2);
        Simulator::new(&g, Cheater, vec![(), ()], 0).step();
    }

    #[test]
    #[should_panic(expected = "one initial state per node")]
    fn wrong_state_count_panics() {
        let g = classic::path(3);
        let _ = Simulator::new(&g, Parity, vec![0, 0], 0);
    }

    #[test]
    fn full_drop_silences_every_delivery() {
        // With drop_p = 1 nobody ever hears a beep, so Parity counters
        // never advance even on a dense graph.
        let g = classic::complete(6);
        let mut sim = Simulator::new(&g, Parity, vec![0; 6], 3)
            .with_channel(ChannelFault::reliable().with_drop(1.0));
        sim.run(20);
        assert_eq!(sim.states(), &[0; 6]);
        // The beeps were still transmitted — only delivery failed.
        assert!(sim.last_sent().iter().all(|s| s.on_channel1()));
        assert!(sim.last_heard().iter().all(|h| h.is_silent()));
    }

    #[test]
    fn full_spurious_reaches_isolated_nodes() {
        // spurious_p = 1 makes even a totally disconnected node hear a beep
        // every round: a pure false positive.
        let g = Graph::empty(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 7)
            .with_channel(ChannelFault::reliable().with_spurious(1.0));
        sim.run(5);
        assert_eq!(sim.states(), &[5, 5]);
    }

    #[test]
    fn half_duplex_transmitters_get_no_spurious_beeps() {
        // Half duplex deafens a transmitting node to spurious beeps too:
        // noise is applied inside the hearing branch.
        let g = Graph::empty(1);
        let mut sim = Simulator::new(&g, Parity, vec![0], 7)
            .with_duplex(DuplexMode::Half)
            .with_channel(ChannelFault::reliable().with_spurious(1.0));
        sim.step(); // counter 0 → beeping → deaf
        assert_eq!(*sim.state(0), 0);
        sim.step(); // still beeping (counter still even), still deaf
        assert_eq!(*sim.state(0), 0);
    }

    #[test]
    fn always_beep_jammer_overrides_protocol_silence() {
        // Node 0 starts odd (silent under Parity) but is an AlwaysBeep
        // jammer: its neighbor hears it anyway.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![1, 1], 0)
            .with_channel(ChannelFault::reliable().with_jammer(0, JammerKind::AlwaysBeep));
        sim.step();
        assert!(sim.last_sent().get(0).on_channel1());
        assert_eq!(sim.states(), &[1, 2]); // only node 1 heard a beep
    }

    #[test]
    fn always_silent_jammer_mutes_protocol_beeps() {
        // Node 0 starts even (beeping under Parity) but its radio is dead:
        // the neighbor hears nothing.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 1], 0)
            .with_channel(ChannelFault::reliable().with_jammer(0, JammerKind::AlwaysSilent));
        sim.step();
        assert!(sim.last_sent().get(0).is_silent());
        assert_eq!(sim.states(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "jammer node 9 out of range")]
    fn out_of_range_jammer_rejected() {
        let g = classic::path(2);
        let _ = Simulator::new(&g, Parity, vec![0, 0], 0)
            .with_channel(ChannelFault::reliable().with_jammer(9, JammerKind::AlwaysBeep));
    }

    #[test]
    fn channel_noise_is_deterministic_for_seed() {
        let g = classic::cycle(10);
        let run = |seed| {
            let mut sim = Simulator::new(&g, Parity, vec![0; 10], seed)
                .with_channel(ChannelFault::reliable().with_drop(0.4).with_spurious(0.05));
            sim.run(60);
            sim.into_states()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn channel_noise_never_touches_node_streams() {
        // Coin's state depends only on its own transmissions, which draw
        // from the per-node streams — heavy channel noise must not perturb
        // them, because channel randomness lives on a dedicated stream.
        struct Coin;
        impl BeepingProtocol for Coin {
            type State = u32;
            fn channels(&self) -> Channels {
                Channels::One
            }
            fn transmit(&self, _: NodeId, _: &u32, rng: &mut Pcg64Mcg) -> BeepSignal {
                if rng.next_u32().is_multiple_of(2) {
                    BeepSignal::channel1()
                } else {
                    BeepSignal::silent()
                }
            }
            fn receive(
                &self,
                _: NodeId,
                s: &mut u32,
                sent: BeepSignal,
                _: BeepSignal,
                _: &mut Pcg64Mcg,
            ) {
                *s = s.wrapping_mul(31).wrapping_add(sent.on_channel1() as u32);
            }
        }
        let g = classic::cycle(8);
        let run = |channel: ChannelFault| {
            let mut sim = Simulator::new(&g, Coin, vec![0; 8], 42).with_channel(channel);
            sim.run(40);
            sim.into_states()
        };
        let clean = run(ChannelFault::reliable());
        let noisy = run(ChannelFault::reliable().with_drop(0.9).with_spurious(0.9));
        assert_eq!(clean, noisy);
    }

    #[test]
    fn churn_edges_change_delivery() {
        // Two isolated nodes never hear each other; after inserting the
        // edge they do, and after removing it they stop again.
        let g = Graph::empty(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0);
        sim.step();
        assert_eq!(sim.states(), &[0, 0]);
        assert_eq!(sim.insert_edge(0, 1), Ok(true));
        assert_eq!(sim.insert_edge(0, 1), Ok(false)); // idempotent
        assert_eq!(sim.graph().degree(0), 1);
        sim.step();
        assert_eq!(sim.states(), &[1, 1]);
        assert_eq!(sim.remove_edge(0, 1), Ok(true));
        assert_eq!(sim.remove_edge(0, 1), Ok(false));
        sim.step();
        assert_eq!(sim.states(), &[1, 1]);
        // The borrowed input graph is untouched (copy-on-write).
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn node_leave_and_join_round_trip() {
        let g = classic::path(3); // 0 - 1 - 2
        let mut sim = Simulator::new(&g, Parity, vec![0, 0, 0], 0);
        assert_eq!(sim.active_count(), 3);
        assert_eq!(sim.node_leave(1), Ok(2));
        assert!(!sim.active()[1]);
        assert_eq!(sim.active_count(), 2);
        assert_eq!(sim.node_leave(1), Ok(0)); // idempotent
        sim.step();
        // The departed middle node is frozen; the endpoints are isolated.
        assert_eq!(sim.states(), &[0, 0, 0]);
        assert!(sim.last_sent().get(1).is_silent());
        // Rejoin with fresh (adversarial) state and both edges back.
        sim.node_join(1, &[0, 2], 0).unwrap();
        assert!(sim.active()[1]);
        assert_eq!(sim.graph().degree(1), 2);
        sim.step();
        assert_eq!(sim.states(), &[1, 1, 1]);
    }

    #[test]
    fn node_leave_clears_stale_signals() {
        // Regression: a departing node's last transmission/observation used
        // to linger in `last_sent`/`last_heard`, so observers (and the
        // checkpoint) saw a "ghost beep" from an inactive radio.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0);
        sim.step(); // both beep and hear each other
        assert!(sim.last_sent().get(1).on_channel1());
        assert!(sim.last_heard().get(1).on_channel1());
        sim.node_leave(1).unwrap();
        assert!(sim.last_sent().get(1).is_silent());
        assert!(sim.last_heard().get(1).is_silent());
        // The survivor's signals are untouched.
        assert!(sim.last_sent().get(0).on_channel1());
        // And the next round still treats the departed node as silent.
        sim.step();
        assert!(sim.last_sent().get(1).is_silent());
        assert!(sim.last_heard().get(0).is_silent());
    }

    #[test]
    fn node_join_clears_stale_signals() {
        // Regression (mirror of `node_leave_clears_stale_signals`): a node
        // that rejoins boots fresh, so the transmission/observation captured
        // before its departure — or, for a join without a prior leave, last
        // round's signals — must not survive the join.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0);
        sim.step(); // both beep and hear each other
        sim.node_leave(1).unwrap();
        // Simulate signal state lingering from before the leave by joining
        // straight back: the join itself must leave the radio silent.
        sim.node_join(1, &[0], 1).unwrap();
        assert!(sim.active()[1]);
        assert!(sim.last_sent().get(1).is_silent());
        assert!(sim.last_heard().get(1).is_silent());
        // A join on a node that never left also resets its signals: the
        // adversary hands it arbitrary RAM, not a radio mid-transmission.
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0);
        sim.step();
        assert!(sim.last_sent().get(0).on_channel1());
        sim.node_join(0, &[1], 1).unwrap();
        assert!(sim.last_sent().get(0).is_silent());
        assert!(sim.last_heard().get(0).is_silent());
    }

    #[test]
    fn adopted_graph_matches_sequential_churn() {
        let g = classic::path(4); // 0 - 1 - 2 - 3
        let mut adopting = Simulator::new(&g, Parity, vec![0; 4], 0);
        let mut seq = Simulator::new(&g, Parity, vec![0; 4], 0);
        adopting.step();
        seq.step();
        let next = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(adopting.adopt_graph(Arc::new(next), true), Some((2, 1)));
        assert_eq!(seq.remove_edge(1, 2), Ok(true));
        assert_eq!(seq.insert_edge(0, 2), Ok(true));
        assert_eq!(seq.insert_edge(1, 3), Ok(true));
        assert_eq!(adopting.graph(), seq.graph());
        for _ in 0..4 {
            adopting.step();
            seq.step();
            assert_eq!(adopting.states(), seq.states());
            assert_eq!(adopting.last_sent(), seq.last_sent());
            assert_eq!(adopting.last_heard(), seq.last_heard());
        }
        // The borrowed input graph is untouched.
        assert_eq!(g, classic::path(4));
    }

    #[test]
    fn adopting_a_graph_never_touches_signals_or_participation() {
        // Edge updates must leave `active` and the signals exactly as
        // they were, for every node; a departed node keeps no edges.
        let g = classic::path(3);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0, 0], 0);
        sim.step();
        sim.node_leave(2).unwrap();
        let sent: Vec<BeepSignal> = sim.last_sent().iter().collect();
        let heard: Vec<BeepSignal> = sim.last_heard().iter().collect();
        let active: Vec<bool> = sim.active().to_vec();
        let next = Graph::from_edges(3, [(0, 2), (1, 2)]).unwrap();
        assert_eq!(sim.adopt_graph(Arc::new(next), true), Some((0, 1)));
        assert_eq!(sim.graph(), &Graph::empty(3));
        assert!(sim.last_sent().iter().eq(sent));
        assert!(sim.last_heard().iter().eq(heard));
        assert_eq!(sim.active(), &active[..]);
    }

    #[test]
    fn adopting_an_unchanged_or_missized_graph_keeps_the_topology() {
        let g = classic::path(3);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0, 0], 0);
        assert_eq!(sim.adopt_graph(Arc::new(classic::path(4)), true), None);
        let shared = Arc::new(classic::cycle(3));
        assert_eq!(sim.adopt_graph(Arc::clone(&shared), true), Some((1, 0)));
        let before = sim.checkpoint();
        // An equal graph in another allocation changes nothing, not even
        // the shared graph's identity (the snapshot cache's key).
        assert_eq!(sim.adopt_graph(Arc::new(classic::cycle(3)), true), None);
        assert!(Arc::ptr_eq(before.shared_graph(), &shared));
        assert!(Arc::ptr_eq(sim.checkpoint().shared_graph(), &shared));
    }

    #[test]
    fn uncounted_adoption_keeps_an_equal_graph_and_shares_a_new_one() {
        let g = classic::path(3);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0, 0], 0);
        assert!(sim.adopt_graph(Arc::new(classic::path(4)), false).is_none());
        assert!(sim.adopt_graph(Arc::new(classic::path(3)), false).is_none());
        assert_eq!(sim.graph(), &g);
        let shared = Arc::new(classic::cycle(3));
        assert!(sim.adopt_graph(Arc::clone(&shared), false).is_some());
        assert!(Arc::ptr_eq(sim.checkpoint().shared_graph(), &shared));
        // An equal graph in another allocation, or the same one again,
        // changes nothing: the old `Arc` stays.
        assert!(sim.adopt_graph(Arc::new(classic::cycle(3)), false).is_none());
        assert!(Arc::ptr_eq(sim.checkpoint().shared_graph(), &shared));
        assert!(sim.adopt_graph(Arc::clone(&shared), false).is_none());
    }

    #[test]
    fn uncounted_adoption_restricts_to_the_active_nodes() {
        let g = classic::path(3);
        let mut counted = Simulator::new(&g, Parity, vec![0, 0, 0], 0);
        let mut uncounted = Simulator::new(&g, Parity, vec![0, 0, 0], 0);
        for sim in [&mut counted, &mut uncounted] {
            sim.step();
            sim.node_leave(2).unwrap();
        }
        let next = Arc::new(Graph::from_edges(3, [(0, 2), (1, 2)]).unwrap());
        assert_eq!(counted.adopt_graph(Arc::clone(&next), true), Some((0, 1)));
        assert!(uncounted.adopt_graph(Arc::clone(&next), false).is_some());
        assert_eq!(uncounted.graph(), &Graph::empty(3));
        assert_eq!(uncounted.graph(), counted.graph());
        // The equal restricted copy of the same graph is no change.
        assert!(uncounted.adopt_graph(next, false).is_none());
    }

    #[test]
    fn uncounted_adoption_wakes_a_live_frontier_like_the_counted_one() {
        // Joining two settled claimers must wake both: a hand-over that
        // skipped the merge on a live frontier would leave them settled.
        let g = classic::cycle(12);
        let (mut scalar, mut counted) = claimer_pair(&g, 31);
        let (_, mut uncounted) = claimer_pair(&g, 31);
        for _ in 0..40 {
            scalar.step();
            counted.step();
            uncounted.step();
        }
        assert!(counted.frontier_live() && uncounted.frontier_live());
        let claimers: Vec<NodeId> = g.nodes().filter(|&v| scalar.states()[v] == 0).collect();
        let (u, v) = claimers
            .iter()
            .flat_map(|&u| claimers.iter().map(move |&v| (u, v)))
            .find(|&(u, v)| u < v && !g.has_edge(u, v))
            .expect("two non-adjacent claimers");
        let mut next = g.clone();
        assert_eq!(next.insert_edge(u, v), Ok(true));
        let next = Arc::new(next);
        assert_eq!(scalar.adopt_graph(Arc::clone(&next), true), Some((1, 0)));
        assert_eq!(counted.adopt_graph(Arc::clone(&next), true), Some((1, 0)));
        assert!(uncounted.adopt_graph(next, false).is_some());
        for _ in 0..12 {
            let a = scalar.step();
            assert_eq!(counted.step(), a);
            assert_eq!(uncounted.step(), a);
            assert_eq!(uncounted.states(), scalar.states());
            assert_eq!(uncounted.states(), counted.states());
            assert_eq!(uncounted.last_sent(), counted.last_sent());
            assert_eq!(uncounted.last_heard(), counted.last_heard());
        }
        assert_eq!(uncounted.work(), counted.work());
        assert_eq!(uncounted.checkpoint().rngs(), counted.checkpoint().rngs());
    }

    #[test]
    fn invariant_hook_observes_every_round() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let g = classic::path(2);
        #[allow(clippy::type_complexity)]
        let seen: Rc<RefCell<Vec<(u64, Vec<u64>)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0).with_invariant_hook(
            move |graph, round, states: &[u64]| {
                assert_eq!(graph.len(), 2);
                sink.borrow_mut().push((round, states.to_vec()));
            },
        );
        sim.run(3);
        // Round 1: both beep (even counters), hear each other, increment;
        // afterwards both are odd and silent forever.
        assert_eq!(*seen.borrow(), vec![(1, vec![1, 1]), (2, vec![1, 1]), (3, vec![1, 1])]);
        // The hook observes only: removing it never changes the execution.
        let mut plain = Simulator::new(&g, Parity, vec![0, 0], 0);
        plain.run(3);
        assert_eq!(plain.states(), sim.states());
    }

    #[test]
    #[should_panic(expected = "invariant violated in round 2")]
    fn invariant_hook_panics_propagate() {
        let g = classic::path(2);
        let mut sim =
            Simulator::new(&g, Parity, vec![0, 0], 0).with_invariant_hook(|_, round, _| {
                assert!(round < 2, "invariant violated in round {round}");
            });
        sim.run(5);
    }

    #[test]
    fn stuck_beep_overrides_protocol_silence() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        // Node 0 starts odd (silent under Parity) but its radio is stuck on:
        // the neighbor hears it every round.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![1, 1], 0)
            .with_byzantine(ByzantinePlan::new().with_behavior(0, ByzantineBehavior::StuckBeep));
        sim.step();
        assert!(sim.last_sent().get(0).on_channel1());
        assert_eq!(sim.states(), &[1, 2]); // only node 1 heard a beep
    }

    #[test]
    fn stuck_silent_mutes_protocol_beeps() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 1], 0)
            .with_byzantine(ByzantinePlan::new().with_behavior(0, ByzantineBehavior::StuckSilent));
        sim.step();
        assert!(sim.last_sent().get(0).is_silent());
        assert_eq!(sim.states(), &[0, 1]);
    }

    #[test]
    fn byzantine_overrides_beat_jammers() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        // Node 0 is both an AlwaysBeep jammer and StuckSilent Byzantine: the
        // Byzantine radio wins, so nothing is transmitted.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 1], 0)
            .with_channel(ChannelFault::reliable().with_jammer(0, JammerKind::AlwaysBeep))
            .with_byzantine(ByzantinePlan::new().with_behavior(0, ByzantineBehavior::StuckSilent));
        sim.step();
        assert!(sim.last_sent().get(0).is_silent());
    }

    #[test]
    fn babbler_extremes_are_stuck_radios() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        let g = classic::path(2);
        let run = |p: f64| {
            let mut sim = Simulator::new(&g, Parity, vec![1, 1], 3).with_byzantine(
                ByzantinePlan::new().with_behavior(0, ByzantineBehavior::Babbler(p)),
            );
            let mut beeps = 0;
            for _ in 0..30 {
                sim.step();
                beeps += sim.last_sent().get(0).on_channel1() as u32;
            }
            beeps
        };
        assert_eq!(run(0.0), 0);
        assert_eq!(run(1.0), 30);
        let mid = run(0.5);
        assert!((5..=25).contains(&mid), "babbler(0.5) beeped {mid}/30 rounds");
    }

    #[test]
    fn babbler_is_deterministic_and_off_the_node_streams() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        // Same seed → identical trajectory; and the babbler's coins come
        // from the dedicated stream, so the *other* node's transmissions
        // (driven by its private stream) are identical with and without the
        // babbler present.
        let g = classic::path(2);
        let plan = || ByzantinePlan::new().with_behavior(0, ByzantineBehavior::Babbler(0.5));
        let run = |seed: u64| {
            let mut sim = Simulator::new(&g, Parity, vec![0, 0], seed).with_byzantine(plan());
            sim.run(40);
            sim.into_states()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn crash_restart_reboots_on_schedule() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan, Resurrect};
        // Isolated node: Parity never updates its counter (hears nothing),
        // so the only state changes are the scheduled reboots to 99.
        let g = Graph::empty(1);
        let mut sim = Simulator::new(&g, Parity, vec![0], 0).with_byzantine(
            ByzantinePlan::new().with_behavior(
                0,
                ByzantineBehavior::CrashRestart {
                    period: 5,
                    resurrect: Resurrect::new(|_, round, _| 90 + round),
                },
            ),
        );
        sim.run(4);
        assert_eq!(*sim.state(0), 0); // untouched before the first reboot
        sim.step(); // round 5: reboot fires before the transmission
        assert_eq!(*sim.state(0), 95);
        sim.run(4);
        assert_eq!(*sim.state(0), 95);
        sim.step(); // round 10
        assert_eq!(*sim.state(0), 100);
    }

    #[test]
    fn empty_byzantine_plan_is_bit_identical_to_baseline() {
        use crate::byzantine::ByzantinePlan;
        struct Coin3;
        impl BeepingProtocol for Coin3 {
            type State = u32;
            fn channels(&self) -> Channels {
                Channels::One
            }
            fn transmit(&self, _: NodeId, _: &u32, rng: &mut Pcg64Mcg) -> BeepSignal {
                if rng.next_u32().is_multiple_of(2) {
                    BeepSignal::channel1()
                } else {
                    BeepSignal::silent()
                }
            }
            fn receive(
                &self,
                _: NodeId,
                s: &mut u32,
                sent: BeepSignal,
                heard: BeepSignal,
                _: &mut Pcg64Mcg,
            ) {
                *s = s
                    .wrapping_mul(31)
                    .wrapping_add(sent.on_channel1() as u32)
                    .wrapping_add(5 * heard.on_channel1() as u32);
            }
        }
        let g = classic::cycle(10);
        let mut with_plan =
            Simulator::new(&g, Coin3, vec![0; 10], 21).with_byzantine(ByzantinePlan::new());
        let mut without = Simulator::new(&g, Coin3, vec![0; 10], 21);
        for _ in 0..50 {
            with_plan.step();
            without.step();
            assert_eq!(with_plan.states(), without.states());
        }
    }

    #[test]
    fn byzantine_checkpoint_restore_replays_babbler() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        let g = classic::cycle(8);
        let mut sim = Simulator::new(&g, Parity, vec![0; 8], 17)
            .with_byzantine(ByzantinePlan::new().with_behavior(2, ByzantineBehavior::Babbler(0.5)));
        sim.run(15);
        let cp = sim.checkpoint();
        sim.run(25);
        let final_a = sim.states().to_vec();
        sim.restore(&cp).unwrap();
        sim.run(25);
        assert_eq!(sim.states(), final_a.as_slice());
    }

    #[test]
    fn byzantine_table_follows_plan_swaps() {
        // The plan goes empty → babbler and crash-restart → empty under a
        // jammer, so every round runs the phased path and reads the table.
        // At each swap a twin is built fresh with only the new plan and
        // restored to the same point: the two must agree round for round.
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan, Resurrect};
        let g = classic::cycle(12);
        let jammed = ChannelFault::reliable().with_jammer(4, JammerKind::AlwaysBeep);
        let faulty =
            ByzantinePlan::new().with_behavior(2, ByzantineBehavior::Babbler(0.5)).with_behavior(
                9,
                ByzantineBehavior::CrashRestart {
                    period: 3,
                    resurrect: Resurrect::new(|_, _, rng| rng.gen_range(0..4)),
                },
            );
        let honest = || Simulator::new(&g, Parity, vec![0; 12], 5).with_channel(jammed.clone());
        let mut sim = honest();
        for plan in [ByzantinePlan::new(), faulty, ByzantinePlan::new()] {
            sim = sim.with_byzantine(plan.clone());
            assert_eq!(sim.byz.len(), if plan.is_empty() { 0 } else { 12 });
            let mut twin = if plan.is_empty() { honest() } else { honest().with_byzantine(plan) };
            twin.restore(&sim.checkpoint()).unwrap();
            for _ in 0..12 {
                assert_eq!(sim.step(), twin.step(), "report at round {}", sim.round());
                assert_eq!(sim.states(), twin.states());
                assert_eq!(sim.last_sent(), twin.last_sent());
                assert_eq!(sim.last_heard(), twin.last_heard());
                assert_eq!(sim.byz_rng, twin.byz_rng);
            }
        }
    }

    #[test]
    fn inactive_byzantine_node_is_frozen() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        // A departed stuck-beeper neither transmits nor reboots.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![1, 0], 0)
            .with_byzantine(ByzantinePlan::new().with_behavior(0, ByzantineBehavior::StuckBeep));
        sim.node_leave(0).unwrap();
        sim.step();
        assert!(sim.last_sent().get(0).is_silent());
        assert_eq!(*sim.state(1), 0); // heard nothing: its neighbor departed
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_byzantine_node_rejected() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        let g = classic::path(2);
        let _ = Simulator::new(&g, Parity, vec![0, 0], 0)
            .with_byzantine(ByzantinePlan::new().with_behavior(5, ByzantineBehavior::StuckBeep));
    }

    #[test]
    #[should_panic(expected = "two-channel")]
    fn channel2_liar_rejected_on_single_channel_protocol() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        let g = classic::path(2);
        let _ = Simulator::new(&g, Parity, vec![0, 0], 0)
            .with_byzantine(ByzantinePlan::new().with_behavior(0, ByzantineBehavior::Channel2Liar));
    }

    #[test]
    fn checkpoint_restore_covers_churn_and_noise() {
        let g = classic::cycle(6);
        let mut sim = Simulator::new(&g, Parity, vec![0; 6], 13)
            .with_channel(ChannelFault::reliable().with_drop(0.3));
        sim.run(10);
        sim.remove_edge(0, 1).unwrap();
        sim.node_leave(3).unwrap();
        sim.run(5);
        let cp = sim.checkpoint();
        sim.insert_edge(0, 1).unwrap();
        sim.run(20);
        let final_a = sim.states().to_vec();
        let round_a = sim.round();
        // Restore must bring back the churned topology, the active mask and
        // the channel-RNG position, so the replay (with the same later
        // churn) reproduces the continuation exactly.
        sim.restore(&cp).unwrap();
        assert_eq!(sim.round(), 15);
        assert_eq!(sim.graph().degree(3), 0);
        assert!(!sim.active()[3]);
        sim.insert_edge(0, 1).unwrap();
        sim.run(20);
        assert_eq!(sim.states(), final_a.as_slice());
        assert_eq!(sim.round(), round_a);
    }

    /// Restores a 70-node network (two words per signal bitset), one round
    /// past its checkpoint, from that checkpoint reassembled through
    /// [`Checkpoint::from_parts`] after `edit` damages its signal words.
    fn restore_damaged(edit: impl FnOnce(&mut Bitsets)) -> Result<(), RestoreError> {
        let g = classic::cycle(70);
        let mut sim = Simulator::new(&g, Parity, vec![0; 70], 3);
        sim.step();
        let cp = sim.checkpoint();
        sim.step();
        let mut b = cp.signals.clone();
        edit(&mut b);
        let damaged = Checkpoint::from_parts(
            cp.states().to_vec(),
            cp.rngs().to_vec(),
            cp.round(),
            [b.sent1, b.sent2],
            [b.heard1, b.heard2],
            Arc::clone(cp.shared_graph()),
            cp.active().to_vec(),
            cp.channel_state(),
            cp.channel_rng().clone(),
            cp.byz_rng().clone(),
        );
        let result = sim.restore(&damaged);
        let expected_round = if result.is_ok() { 1 } else { 2 };
        assert_eq!(sim.round(), expected_round, "a refused restore changes nothing");
        result
    }

    #[test]
    fn restore_refuses_a_signal_bitset_of_the_wrong_word_count() {
        assert_eq!(restore_damaged(|_| {}), Ok(()));
        let err = restore_damaged(|b| b.heard2.push(0)).unwrap_err();
        assert_eq!(
            err,
            RestoreError::Inconsistent("heard channel 2 holds 3 words but 70 nodes need 2".into())
        );
    }

    #[test]
    fn restore_refuses_a_signal_bit_past_the_last_node() {
        // Word 1 holds nodes 64..69 in bits 0..5; bit 6 would be node 70.
        let err = restore_damaged(|b| b.sent1[1] |= 1 << 6).unwrap_err();
        assert_eq!(
            err,
            RestoreError::Inconsistent("sent channel 1 has a bit set past node 69".into())
        );
    }

    #[test]
    fn checkpoints_share_the_graph_until_churn_copies_it() {
        let g = classic::cycle(6);
        for owned in [false, true] {
            let mut sim = if owned {
                Simulator::on(SimGraph::Shared(Arc::new(g.clone())), Parity, vec![0; 6], 5)
            } else {
                Simulator::new(&g, Parity, vec![0; 6], 5)
            };
            sim.run(3);
            let before = sim.checkpoint();
            sim.run(2);
            // An unchanged shared topology is shared, not copied, by every
            // capture; a borrowed one is copied by each.
            let shared = Arc::ptr_eq(before.shared_graph(), sim.checkpoint().shared_graph());
            assert_eq!(shared, owned);
            sim.insert_edge(0, 3).unwrap();
            sim.remove_edge(1, 2).unwrap();
            sim.node_leave(4).unwrap();
            sim.node_join(4, &[0], 0).unwrap();
            let mut churned = g.clone();
            churned.insert_edge(0, 3).unwrap();
            churned.remove_edge(1, 2);
            churned.isolate_node(4);
            churned.insert_edge(4, 0).unwrap();
            assert_eq!(sim.graph(), &churned);
            // The capture kept the edge set it was taken with, and the
            // borrowed input is untouched.
            assert_eq!(before.graph(), &g);
            assert!(!Arc::ptr_eq(before.shared_graph(), sim.checkpoint().shared_graph()));
            sim.restore(&before).unwrap();
            assert_eq!(sim.graph(), &g);
            assert!(Arc::ptr_eq(before.shared_graph(), sim.checkpoint().shared_graph()));
            // Churn after the restore copies again: the checkpoint is kept.
            sim.remove_edge(0, 1).unwrap();
            assert_eq!(before.graph(), &g);
            assert!(!sim.graph().has_edge(0, 1));
        }
    }

    /// Claim/retreat probe with absorbing configurations and a
    /// `settled_round` certificate — the lib-test stand-in for Algorithm 1,
    /// used to exercise the frontier engine's skip path. Level 0 claims
    /// (beeps, one confirmation draw per round); hearing a beep pushes the
    /// level up toward 5; silence pulls a non-beeping node down; interior
    /// levels flip a fair coin to beep.
    pub(crate) struct Claimer;
    impl BeepingProtocol for Claimer {
        type State = u64;
        fn channels(&self) -> Channels {
            Channels::One
        }
        fn transmit(&self, _: NodeId, s: &u64, rng: &mut Pcg64Mcg) -> BeepSignal {
            if *s == 0 {
                let _ = rng.next_u64();
                BeepSignal::channel1()
            } else if *s >= 5 {
                BeepSignal::silent()
            } else if rng.next_u64().is_multiple_of(2) {
                BeepSignal::channel1()
            } else {
                BeepSignal::silent()
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
                *s = (*s + 1).min(5);
            } else if !sent.on_channel1() {
                *s = s.saturating_sub(1);
            }
        }
        fn settled_round(&self, _: NodeId, s: &u64, heard: BeepSignal) -> Option<SettledRound> {
            if *s == 0 && !heard.on_channel1() {
                Some(SettledRound { signal: BeepSignal::channel1(), draws: 1 })
            } else if *s >= 5 && heard.on_channel1() {
                Some(SettledRound { signal: BeepSignal::silent(), draws: 0 })
            } else {
                None
            }
        }
    }

    fn claimer_pair(g: &Graph, seed: u64) -> (Simulator<'_, Claimer>, Simulator<'_, Claimer>) {
        let init: Vec<u64> = g.nodes().map(|v| (v as u64) % 6).collect();
        let scalar = Simulator::new(g, Claimer, init.clone(), seed);
        let frontier = Simulator::new(g, Claimer, init, seed).with_engine(EngineMode::Frontier);
        (scalar, frontier)
    }

    /// FNV-1a over final states and RNG positions.
    fn fnv_digest(states: &[u64], rngs: &[Pcg64Mcg]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let words = states.iter().map(|&s| u128::from(s)).chain(rngs.iter().map(rng::pcg_state));
        for word in words {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn engines_pin_work_and_digest_through_a_disturbance_script() {
        // One script per engine: settle, a point corruption, a leave and a
        // rejoin, a window on a zero-burst channel (not `is_reliable`, so
        // every engine takes the phased path) and back. The work counters
        // and round counters are each engine's own; the final states and
        // the captured RNG positions are the same for all four.
        let g = graphs::generators::random::gnp(200, 0.03, 5);
        let zero_burst = ChannelFault::reliable().with_burst(crate::channel::BurstNoise {
            p_enter: 0.0,
            p_exit: 0.0,
            drop_p: 0.0,
        });
        let counters = ["scalar", "scatter", "fused", "par", "frontier", "frontier.fallback"];
        let run = |engine: EngineMode| {
            let tele = Telemetry::enabled(telemetry::Config::default());
            let init: Vec<u64> = g.nodes().map(|v| (v as u64) % 6).collect();
            let mut sim = Simulator::new(&g, Claimer, init, 41)
                .with_engine(engine)
                .with_telemetry(tele.clone());
            sim.run(30);
            sim.corrupt_state(17, 0);
            sim.run(10);
            sim.node_leave(40).unwrap();
            sim.run(8);
            sim.node_join(40, &[41, 42], 3).unwrap();
            sim.run(8);
            let mut sim = sim.with_channel(zero_burst.clone());
            sim.run(6);
            let mut sim = sim.with_channel(ChannelFault::reliable());
            sim.run(20);
            let rounds = counters.map(|c| tele.metrics().counter(&format!("sim.rounds.{c}")));
            let work = sim.work();
            (
                work.node_execs,
                work.edge_visits,
                rounds,
                fnv_digest(sim.states(), sim.checkpoint().rngs()),
            )
        };
        let pinned = [
            (EngineMode::Scalar, 16_392, 99_100, [82, 0, 0, 0, 0, 0]),
            (EngineMode::Scatter, 16_392, 26_144, [0, 6, 76, 0, 0, 0]),
            (EngineMode::Frontier, 10_121, 15_723, [0, 6, 0, 0, 76, 42]),
            (EngineMode::ParScatter { threads: 2 }, 16_392, 26_144, [0, 6, 0, 76, 0, 0]),
        ];
        for (engine, node_execs, edge_visits, rounds) in pinned {
            let got = run(engine);
            assert_eq!((got.0, got.1, got.2), (node_execs, edge_visits, rounds), "{engine:?}");
            assert_eq!(got.3, 0xa454_7a29_7272_b14e, "{engine:?}");
        }
    }

    /// Asserts that every node whose state or participation in `twin`
    /// differs from `seen` is in `sim`'s touched set, then clears the set
    /// and records the twin's configuration in `seen`.
    fn assert_touched_covers_changes(
        sim: &mut Simulator<'_, Claimer>,
        twin: &Simulator<'_, Claimer>,
        seen: &mut (Vec<u64>, Vec<bool>),
    ) {
        assert_eq!(sim.states(), twin.states(), "diverged at round {}", sim.round());
        let touched = sim.touched();
        for v in 0..twin.states().len() {
            let marked = touched.word(v >> 6) >> (v & 63) & 1 == 1;
            if twin.states()[v] != seen.0[v] || twin.active()[v] != seen.1[v] {
                assert!(marked, "node {v} changed untouched by round {}", sim.round());
            }
        }
        sim.clear_touched();
        assert_eq!(sim.touched(), Touched::Words(&vec![0; twin.states().len().div_ceil(64)]));
        *seen = (twin.states().to_vec(), twin.active().to_vec());
    }

    #[test]
    fn touched_set_covers_every_change_on_every_engine() {
        // Each engine runs a disturbance script beside a Scalar twin: a
        // settle, a corruption, a leave and a rejoin, a restore and an
        // engine swap. The touched set is read and cleared at scattered
        // points, so it also accumulates across rounds.
        let g = graphs::generators::random::gnp(200, 0.03, 5);
        for engine in [
            EngineMode::Scalar,
            EngineMode::Scatter,
            EngineMode::Frontier,
            EngineMode::ParScatter { threads: 2 },
        ] {
            let init: Vec<u64> = g.nodes().map(|v| (v as u64) % 6).collect();
            let mut twin = Simulator::new(&g, Claimer, init.clone(), 41);
            let mut sim = Simulator::new(&g, Claimer, init, 41).with_engine(engine);
            assert_eq!(sim.touched(), Touched::Every, "a new simulator touched every node");
            let mut seen = (twin.states().to_vec(), twin.active().to_vec());
            let lockstep = |sim: &mut Simulator<'_, Claimer>,
                            twin: &mut Simulator<'_, Claimer>,
                            seen: &mut (Vec<u64>, Vec<bool>),
                            rounds: u64| {
                for r in 0..rounds {
                    sim.step();
                    twin.step();
                    if r % 3 == 1 {
                        assert_touched_covers_changes(sim, twin, seen);
                    }
                }
                assert_touched_covers_changes(sim, twin, seen);
            };
            lockstep(&mut sim, &mut twin, &mut seen, 40);
            sim.step();
            twin.step();
            let sparse = matches!(sim.touched(), Touched::Words(_));
            assert_eq!(sparse, engine == EngineMode::Frontier, "{engine:?}: a settled round");
            let corrupted = (sim.states()[17] + 3) % 6;
            sim.corrupt_state(17, corrupted);
            twin.corrupt_state(17, corrupted);
            assert_touched_covers_changes(&mut sim, &twin, &mut seen);
            lockstep(&mut sim, &mut twin, &mut seen, 10);
            sim.node_leave(40).unwrap();
            twin.node_leave(40).unwrap();
            assert_touched_covers_changes(&mut sim, &twin, &mut seen);
            lockstep(&mut sim, &mut twin, &mut seen, 8);
            sim.node_join(40, &[41, 42], 3).unwrap();
            twin.node_join(40, &[41, 42], 3).unwrap();
            assert_touched_covers_changes(&mut sim, &twin, &mut seen);
            lockstep(&mut sim, &mut twin, &mut seen, 8);
            let (cp, twin_cp) = (sim.checkpoint(), twin.checkpoint());
            lockstep(&mut sim, &mut twin, &mut seen, 5);
            sim.restore(&cp).unwrap();
            twin.restore(&twin_cp).unwrap();
            assert_eq!(sim.touched(), Touched::Every, "{engine:?}: a restore touched every node");
            assert_touched_covers_changes(&mut sim, &twin, &mut seen);
            let mut sim = sim.with_engine(EngineMode::Scatter);
            lockstep(&mut sim, &mut twin, &mut seen, 5);
            let mut sim = sim.with_engine(engine);
            lockstep(&mut sim, &mut twin, &mut seen, 20);
        }
    }

    #[test]
    fn frontier_fallback_threshold_values() {
        // Small networks never fall back (the floor keeps the whole graph
        // under the cutoff); large ones cut over at n/8 dirty nodes.
        assert_eq!(frontier_fallback_threshold(0), 16);
        assert_eq!(frontier_fallback_threshold(16), 16);
        assert_eq!(frontier_fallback_threshold(128), 16);
        assert_eq!(frontier_fallback_threshold(136), 17);
        assert_eq!(frontier_fallback_threshold(65_536), 8_192);
    }

    #[test]
    fn frontier_matches_scalar_past_stabilization() {
        let g = classic::cycle(12);
        let (mut scalar, mut frontier) = claimer_pair(&g, 11);
        for round in 1..=60 {
            let a = scalar.step();
            let b = frontier.step();
            assert_eq!(a, b, "report diverged at round {round}");
            assert_eq!(scalar.states(), frontier.states(), "states diverged at round {round}");
            assert_eq!(scalar.last_sent(), frontier.last_sent());
            assert_eq!(scalar.last_heard(), frontier.last_heard());
        }
    }

    #[test]
    fn frontier_reseeds_dirty_from_events() {
        // Every disturbance source must push the affected nodes back onto
        // the frontier: point corruption, channel noise install/remove,
        // Byzantine plan swaps, churn, and a motion hand-over. The scalar
        // twin receives the identical script, so any missed re-seeding
        // shows up as a state divergence within a round.
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan, Resurrect};
        let g = classic::cycle(10);
        let (mut scalar, mut frontier) = claimer_pair(&g, 23);
        let lockstep = |scalar: &mut Simulator<'_, Claimer>,
                        frontier: &mut Simulator<'_, Claimer>,
                        rounds: u64| {
            for _ in 0..rounds {
                let a = scalar.step();
                let b = frontier.step();
                assert_eq!(a, b, "report diverged at round {}", scalar.round());
                assert_eq!(
                    scalar.states(),
                    frontier.states(),
                    "states diverged at round {}",
                    scalar.round()
                );
            }
        };
        lockstep(&mut scalar, &mut frontier, 25); // settle
        scalar.corrupt_state(3, 0); // point fault
        frontier.corrupt_state(3, 0);
        lockstep(&mut scalar, &mut frontier, 10);
        let noisy = ChannelFault::reliable().with_drop(0.25);
        scalar = scalar.with_channel(noisy.clone()); // noise burst begins
        frontier = frontier.with_channel(noisy);
        lockstep(&mut scalar, &mut frontier, 8);
        scalar = scalar.with_channel(ChannelFault::reliable()); // burst ends: resync
        frontier = frontier.with_channel(ChannelFault::reliable());
        lockstep(&mut scalar, &mut frontier, 10);
        let reboot = || {
            ByzantinePlan::new().with_behavior(
                7,
                ByzantineBehavior::CrashRestart {
                    period: 3,
                    resurrect: Resurrect::new(|_, _, _| 0),
                },
            )
        };
        scalar = scalar.with_byzantine(reboot()); // crash-restart radio appears
        frontier = frontier.with_byzantine(reboot());
        lockstep(&mut scalar, &mut frontier, 8);
        scalar = scalar.with_byzantine(ByzantinePlan::new()); // and is repaired
        frontier = frontier.with_byzantine(ByzantinePlan::new());
        lockstep(&mut scalar, &mut frontier, 10);
        scalar.node_leave(5).unwrap(); // churn out…
        frontier.node_leave(5).unwrap();
        lockstep(&mut scalar, &mut frontier, 8);
        scalar.node_join(5, &[4, 6], 2).unwrap(); // …and back in
        frontier.node_join(5, &[4, 6], 2).unwrap();
        lockstep(&mut scalar, &mut frontier, 8);
        // Motion-style hand-over: rewire a chord, drop a cycle edge.
        let mut next = frontier.graph().clone();
        assert_eq!(next.insert_edge(0, 5), Ok(true));
        assert!(next.remove_edge(8, 9));
        let next = Arc::new(next);
        assert_eq!(scalar.adopt_graph(Arc::clone(&next), true), Some((1, 1)));
        assert_eq!(frontier.adopt_graph(next, true), Some((1, 1)));
        lockstep(&mut scalar, &mut frontier, 12);
    }

    #[test]
    fn engine_switch_off_a_settled_frontier_keeps_rng_positions() {
        // A settled frontier ticks its claimers' streams lazily; leaving
        // the frontier engine mid-run must materialize them, or every
        // later draw and capture runs behind the scalar reference.
        let g = classic::cycle(12);
        let (mut scalar, mut frontier) = claimer_pair(&g, 31);
        scalar.run(40);
        frontier.run(40);
        assert!(frontier.frontier_live());
        assert!(frontier
            .frontier
            .settled
            .iter()
            .zip(&frontier.frontier.rate)
            .any(|(&s, &r)| s && r > 0));
        let mut scatter = frontier.with_engine(EngineMode::Scatter);
        scalar.run(20);
        scatter.run(20);
        assert_eq!(scalar.states(), scatter.states());
        assert_eq!(scalar.checkpoint().rngs(), scatter.checkpoint().rngs());
    }

    #[test]
    fn frontier_checkpoint_materializes_pending_draws() {
        // Checkpoint deep in quiescence, when settled claimers hold long
        // lazily-accounted draw backlogs: the snapshot must bake those
        // draws into the captured streams so a restored run (which rebuilds
        // the frontier from scratch) continues bit-identically.
        let g = classic::cycle(12);
        let (mut scalar, mut frontier) = claimer_pair(&g, 31);
        scalar.run(40);
        frontier.run(40);
        assert_eq!(scalar.states(), frontier.states());
        let cp = frontier.checkpoint();
        scalar.run(20);
        frontier.run(20);
        let final_states = frontier.states().to_vec();
        assert_eq!(scalar.states(), final_states.as_slice());
        frontier.restore(&cp).unwrap();
        assert_eq!(frontier.round(), 40);
        frontier.run(20);
        assert_eq!(frontier.states(), final_states.as_slice());
        // A perturbation after the restore still matches the scalar twin —
        // the woken streams resume at the exact post-materialization
        // positions.
        let cp2 = frontier.checkpoint();
        let mut scalar2 = scalar; // same round, same states
        frontier.restore(&cp2).unwrap();
        frontier.corrupt_state(6, 0);
        scalar2.corrupt_state(6, 0);
        for _ in 0..15 {
            let a = scalar2.step();
            let b = frontier.step();
            assert_eq!(a, b);
            assert_eq!(scalar2.states(), frontier.states());
        }
    }
}
