//! The fault-free full-sweep round kernel — the one place every full-sweep
//! engine ([`EngineMode::Scatter`], [`EngineMode::ParScatter`] and the
//! [`EngineMode::Frontier`] rebuild sweep) executes the paper's round.
//!
//! The kernel runs over a word-aligned node range (a [`Shard`]), one
//! 64-node bitset word at a time, in three steps:
//!
//! 1. **Transmit and scatter** ([`Sweep::transmit_scatter`]): every active
//!    node transmits; the per-channel sent bitset words are written, and
//!    each beeper's signal is scattered into per-channel word accumulators.
//! 2. **Mask and count** ([`Sweep::mask_receive`]): each merged heard word
//!    is masked with the participation bitset and, under half duplex, with
//!    `!(sent1 | sent2)`. The masked words are then exactly the round's
//!    observations, and every [`RoundReport`] counter is a word popcount
//!    ([`RoundReport::count_word`]).
//! 3. **Gather and receive** ([`Sweep::mask_receive`], right after its
//!    word's mask): each active node runs `receive` with its sent and
//!    heard bits.
//!
//! The four bitsets ([`Bitsets`]) are the simulator's only record of a
//! round's signals: every engine and the phased path write them, they are
//! kept between rounds, and a checkpoint holds a copy.
//!
//! [`Sweep::whole`] is the sequential whole-network call, with the shared
//! heard bitsets as the accumulators. The parallel engine ([`crate::par`])
//! runs step 1 per worker into thread-local accumulators, OR-merges them,
//! then runs steps 2–3 per worker.
//!
//! Only fault-free rounds come here: channel noise and Byzantine behavior
//! draw from shared streams in strict node order, and run the phased path
//! of `Simulator::step` instead.
//!
//! [`EngineMode::Scatter`]: crate::sim::EngineMode::Scatter
//! [`EngineMode::ParScatter`]: crate::sim::EngineMode::ParScatter
//! [`EngineMode::Frontier`]: crate::sim::EngineMode::Frontier

use graphs::{Graph, NodeId};
use rand_pcg::Pcg64Mcg;

use crate::protocol::{BeepSignal, BeepingProtocol, Channels};
use crate::sim::WorkCounters;
use crate::trace::RoundReport;

/// Sets bit `w` of `acc` for every neighbor `w` of beeper `v` and returns
/// `deg(v)`, the edge visits of the scatter. The only beeper-scatter loop.
pub(crate) fn scatter(graph: &Graph, v: NodeId, acc: &mut [u64]) -> u64 {
    let neighbors = graph.neighbors(v);
    for &w in neighbors {
        acc[(w >> 6) as usize] |= 1u64 << (w & 63);
    }
    neighbors.len() as u64
}

/// Clears `bits` and sizes it to `words` zero words.
pub(crate) fn reset(bits: &mut Vec<u64>, words: usize) {
    bits.clear();
    bits.resize(words, 0);
}

/// Node `v`'s signal in the per-channel words `c1`/`c2`; a missing word
/// reads as silence.
pub(crate) fn signal_at(c1: &[u64], c2: &[u64], v: NodeId) -> BeepSignal {
    let bit = |words: &[u64]| words.get(v >> 6).is_some_and(|w| w >> (v & 63) & 1 != 0);
    BeepSignal::new(bit(c1), bit(c2))
}

/// Writes node `v`'s signal `s` into the per-channel words `c1`/`c2`.
fn set_signal(c1: &mut [u64], c2: &mut [u64], v: NodeId, s: BeepSignal) {
    let (word, j) = (v >> 6, v & 63);
    c1[word] = c1[word] & !(1 << j) | u64::from(s.on_channel1()) << j;
    c2[word] = c2[word] & !(1 << j) | u64::from(s.on_channel2()) << j;
}

/// One round's signals, word-packed per channel: bit `v` of `sent_c` is set
/// iff node `v` beeped on channel `c`, bit `v` of `heard_c` iff it heard
/// channel `c`. Tail bits past the last node are never set. The
/// simulator's only signal state: every kernel writes it, it is kept
/// between rounds, and a checkpoint holds a copy.
#[derive(Debug, Default, Clone)]
pub(crate) struct Bitsets {
    pub(crate) sent1: Vec<u64>,
    pub(crate) sent2: Vec<u64>,
    pub(crate) heard1: Vec<u64>,
    pub(crate) heard2: Vec<u64>,
}

impl Bitsets {
    /// Zeroes all four bitsets at `words` words each.
    pub(crate) fn reset(&mut self, words: usize) {
        reset(&mut self.sent1, words);
        reset(&mut self.sent2, words);
        reset(&mut self.heard1, words);
        reset(&mut self.heard2, words);
    }

    /// Node `v`'s transmission.
    pub(crate) fn sent(&self, v: NodeId) -> BeepSignal {
        signal_at(&self.sent1, &self.sent2, v)
    }

    /// Node `v`'s observation.
    pub(crate) fn heard(&self, v: NodeId) -> BeepSignal {
        signal_at(&self.heard1, &self.heard2, v)
    }

    /// Overwrites node `v`'s transmission.
    pub(crate) fn set_sent(&mut self, v: NodeId, s: BeepSignal) {
        set_signal(&mut self.sent1, &mut self.sent2, v, s);
    }

    /// Overwrites node `v`'s observation.
    pub(crate) fn set_heard(&mut self, v: NodeId, h: BeepSignal) {
        set_signal(&mut self.heard1, &mut self.heard2, v, h);
    }
}

/// One word-aligned node range's exclusive slices: the per-node arrays
/// indexed from `start`, and the range's words of the sent bitsets.
pub(crate) struct Shard<'a, S> {
    /// First node of the range; a multiple of 64.
    pub(crate) start: usize,
    pub(crate) states: &'a mut [S],
    pub(crate) rngs: &'a mut [Pcg64Mcg],
    pub(crate) sent1: &'a mut [u64],
    pub(crate) sent2: &'a mut [u64],
}

/// The round-invariant inputs of one fault-free full sweep.
pub(crate) struct Sweep<'a, P> {
    pub(crate) graph: &'a Graph,
    pub(crate) protocol: &'a P,
    pub(crate) channels: Channels,
    pub(crate) full_duplex: bool,
    /// Word-packed participation bitset (bit `v` set iff `v` is active).
    pub(crate) active_bits: &'a [u64],
}

impl<P: BeepingProtocol> Sweep<'_, P> {
    /// The sequential whole-network round: one shard `0..n`, with `bits`'
    /// heard bitsets as the accumulators. `settle` runs after each active
    /// node's `receive` with `(v, state, sent, heard, rng)`.
    pub(crate) fn whole<F>(
        &self,
        states: &mut [P::State],
        rngs: &mut [Pcg64Mcg],
        bits: &mut Bitsets,
        settle: F,
    ) -> (RoundReport, WorkCounters)
    where
        F: FnMut(NodeId, &P::State, BeepSignal, BeepSignal, &Pcg64Mcg),
    {
        bits.reset(states.len().div_ceil(64));
        let Bitsets { sent1, sent2, heard1, heard2 } = bits;
        let mut shard = Shard { start: 0, states, rngs, sent1, sent2 };
        let work = self.transmit_scatter(&mut shard, heard1, heard2);
        let report = self.mask_receive(&mut shard, heard1, heard2, settle);
        (report, work)
    }

    /// Step 1 over `shard`, one 64-node word at a time: transmit for each
    /// active node, write the shard's sent bitset words, and scatter each
    /// beeper into the full-length, pre-zeroed accumulators `acc1`/`acc2`.
    ///
    /// # Panics
    ///
    /// Panics if the protocol transmits on an undeclared channel — a model
    /// violation, not a recoverable condition.
    // Kept out of line, like `mask_receive`: with both steps inlined into
    // one caller a round measured about 15% slower (paired rounds,
    // n = 2^16 G(n,p) from a random start, x86-64).
    #[inline(never)]
    pub(crate) fn transmit_scatter(
        &self,
        shard: &mut Shard<'_, P::State>,
        acc1: &mut [u64],
        acc2: &mut [u64],
    ) -> WorkCounters {
        let Shard { start, states, rngs, sent1, sent2 } = shard;
        let first_word = *start >> 6;
        let mut work = WorkCounters::default();
        for (w, (states, rngs)) in states.chunks(64).zip(rngs.chunks_mut(64)).enumerate() {
            let live = self.active_bits[first_word + w];
            work.node_execs += u64::from(live.count_ones());
            let (mut s1, mut s2) = (0u64, 0u64);
            for (j, (state, rng)) in states.iter().zip(rngs.iter_mut()).enumerate() {
                let v = *start + 64 * w + j;
                let signal = if live >> j & 1 != 0 {
                    let s = self.protocol.transmit(v, state, rng);
                    assert!(
                        s.allowed_by(self.channels),
                        "protocol beeped on an undeclared channel (node {v}, signal {s})"
                    );
                    s
                } else {
                    BeepSignal::silent()
                };
                if signal.on_channel1() {
                    s1 |= 1 << j;
                    work.edge_visits += scatter(self.graph, v, acc1);
                }
                if signal.on_channel2() {
                    s2 |= 1 << j;
                    work.edge_visits += scatter(self.graph, v, acc2);
                }
            }
            sent1[w] = s1;
            sent2[w] = s2;
        }
        work
    }

    /// Steps 2 and 3 over `shard`, one 64-node word at a time: mask the
    /// shard's merged heard words `heard1`/`heard2` and count the report by
    /// popcount, then `receive` on each active node with its sent and heard
    /// bits (followed by `settle`). The returned report's `round` is 0.
    #[inline(never)]
    pub(crate) fn mask_receive<F>(
        &self,
        shard: &mut Shard<'_, P::State>,
        heard1: &mut [u64],
        heard2: &mut [u64],
        mut settle: F,
    ) -> RoundReport
    where
        F: FnMut(NodeId, &P::State, BeepSignal, BeepSignal, &Pcg64Mcg),
    {
        let Shard { start, states, rngs, sent1, sent2 } = shard;
        let first_word = *start >> 6;
        let mut report = RoundReport::default();
        for (w, (states, rngs)) in states.chunks_mut(64).zip(rngs.chunks_mut(64)).enumerate() {
            // Departed listeners hear nothing; under half duplex neither
            // does a transmitter. A one-channel round never sets a
            // channel-2 bit, and tail bits past n are never set.
            let live = self.active_bits[first_word + w];
            let (s1, s2) = (sent1[w], sent2[w]);
            let hearing = if self.full_duplex { live } else { live & !(s1 | s2) };
            let (h1, h2) = (heard1[w] & hearing, heard2[w] & hearing);
            heard1[w] = h1;
            heard2[w] = h2;
            report.count_word(s1, s2, h1, h2);
            for (j, (state, rng)) in states.iter_mut().zip(rngs.iter_mut()).enumerate() {
                if live >> j & 1 != 0 {
                    let v = *start + 64 * w + j;
                    let s = BeepSignal::new(s1 >> j & 1 != 0, s2 >> j & 1 != 0);
                    let h = BeepSignal::new(h1 >> j & 1 != 0, h2 >> j & 1 != 0);
                    self.protocol.receive(v, state, s, h, rng);
                    settle(v, state, s, h, rng);
                }
            }
        }
        report
    }
}
