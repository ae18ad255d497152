//! Parallel sharded scatter — the engine behind
//! [`EngineMode::ParScatter`](crate::sim::EngineMode::ParScatter): the
//! full-sweep kernel of [`crate::sweep`], run over one node range per
//! worker.
//!
//! # Layout
//!
//! The node range is partitioned by [`graphs::ShardPlan`] into cache-sized,
//! degree-balanced shards whose boundaries sit on multiples of 64, then
//! grouped into one contiguous run of shards per worker. Word alignment is
//! what makes the data decomposition safe: every per-node array (`states`,
//! `rngs`, `sent`, `heard`) *and* every word-packed per-channel bitset can
//! be split at worker boundaries into disjoint `&mut` slices, so the whole
//! engine is expressible with `std::thread::scope` and `split_at_mut` —
//! no locks, no atomics, no unsafe. A plan with a single range (one
//! thread, or a graph of at most 64 nodes) makes the sequential
//! whole-network call instead and never enters a thread scope.
//!
//! # Two-phase round
//!
//! **Phase 1 (transmit + scatter).** Each worker runs the kernel's step 1
//! over its own range, drawing transmissions from the per-node RNG streams
//! it exclusively owns and scattering each beeper's signal into
//! *thread-local* full-length word accumulators. Writes to a shared
//! "heard" bitset would race (a beeper's neighbors live in other workers'
//! ranges); thread-local accumulators make every phase-1 write private.
//!
//! **Phase 2 (merge + mask + gather + receive).** Each worker OR-merges all
//! workers' accumulators — in fixed worker order — over its *own* word
//! range into the shared heard bitsets, then runs the kernel's steps 2–3
//! over its nodes. The fusion is sound because the mask and the gather for
//! node `v` read only word `v / 64`, which lies in the worker's own word
//! range.
//!
//! # Determinism
//!
//! Same-seed runs are bit-identical to the sequential engines at any
//! thread count:
//!
//! - every node's randomness comes from its private stream ([`crate::rng`]),
//!   so execution order across nodes cannot change what any node draws;
//! - per-channel delivery is an OR — commutative and associative — so the
//!   merge order over accumulators cannot change any heard bit;
//! - report and work totals are sums of per-word popcounts and per-node
//!   indicators, accumulated per worker and added up in fixed worker order
//!   on the calling thread.
//!
//! The engine is only entered on fault-free rounds: channel noise and
//! Byzantine behavior draw from shared streams in strict node order, which
//! a parallel sweep cannot preserve, so those rounds run the phased
//! sequential path instead (see `Simulator::step`).

use std::ops::Range;

use graphs::{Graph, ShardPlan};
use rand_pcg::Pcg64Mcg;

use crate::protocol::{BeepSignal, BeepingProtocol, Channels};
use crate::sim::WorkCounters;
use crate::sweep::{self, Bitsets, Shard, Sweep};
use crate::trace::RoundReport;

/// Persistent bookkeeping of the parallel kernel: the worker ranges and the
/// reusable thread-local accumulators. Rebuilt when the topology or the
/// configured thread count changes; never part of a checkpoint.
#[derive(Debug)]
pub(crate) struct ParPlan {
    /// Cache key: the plan is valid for this (n, degree_sum, threads).
    n: usize,
    degree_sum: usize,
    threads: usize,
    /// One contiguous, word-aligned, work-balanced node range per worker.
    ranges: Vec<Range<usize>>,
    /// Thread-local per-channel word accumulators, `[worker][word]`,
    /// full-length so any worker can scatter to any neighbor.
    locals1: Vec<Vec<u64>>,
    locals2: Vec<Vec<u64>>,
}

impl ParPlan {
    /// Builds the worker decomposition for `graph` and `threads` workers
    /// (clamped to at least 1; tiny graphs may yield fewer ranges).
    pub(crate) fn build(graph: &Graph, threads: usize) -> ParPlan {
        let threads = threads.max(1);
        let ranges = ShardPlan::cache_sized(graph, threads).worker_ranges(threads);
        let workers = ranges.len();
        ParPlan {
            n: graph.len(),
            degree_sum: graph.degree_sum(),
            threads,
            ranges,
            locals1: vec![Vec::new(); workers],
            locals2: vec![Vec::new(); workers],
        }
    }

    /// `true` if the plan is still valid for this topology + thread count.
    pub(crate) fn matches(&self, graph: &Graph, threads: usize) -> bool {
        self.n == graph.len()
            && self.degree_sum == graph.degree_sum()
            && self.threads == threads.max(1)
    }
}

/// Splits `slice` into one disjoint `&mut` piece per worker range.
///
/// The ranges are contiguous and cover `0..slice.len()` (a [`ShardPlan`]
/// invariant), so this is a chain of `split_at_mut` calls.
fn split_by_ranges<'a, T>(mut slice: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut parts = Vec::with_capacity(ranges.len());
    for r in ranges {
        let (head, tail) = std::mem::take(&mut slice).split_at_mut(r.end - r.start);
        parts.push(head);
        slice = tail;
    }
    parts
}

/// Executes one fault-free round across the plan's workers. See the module
/// docs for the phase structure and the determinism argument.
///
/// A plan with a single range makes the sequential [`Sweep::whole`] call
/// directly, without entering a thread scope. `bits` are the simulator's
/// shared bitsets (resized and overwritten here). The returned report's
/// `round` is left 0.
///
/// # Panics
///
/// Panics if the protocol transmits on an undeclared channel (a model
/// violation, exactly as on the sequential engines). A panic on a worker
/// thread propagates to the caller when the scope joins.
pub(crate) fn run_round<P: BeepingProtocol>(
    plan: &mut ParPlan,
    kernel: &Sweep<'_, P>,
    states: &mut [P::State],
    rngs: &mut [Pcg64Mcg],
    sent: &mut [BeepSignal],
    heard: &mut [BeepSignal],
    bits: &mut Bitsets,
) -> (RoundReport, WorkCounters) {
    if plan.ranges.len() == 1 {
        return kernel.whole(states, rngs, sent, heard, bits, |_, _, _, _, _| {});
    }
    let words = states.len().div_ceil(64);
    let two = kernel.channels == Channels::Two;
    bits.reset(words);
    let ranges = &plan.ranges;
    let word_ranges: Vec<Range<usize>> =
        ranges.iter().map(|r| (r.start >> 6)..r.end.div_ceil(64)).collect();
    let Bitsets { sent1, sent2, heard1, heard2 } = bits;
    let mut shards: Vec<Shard<'_, P::State>> = split_by_ranges(states, ranges)
        .into_iter()
        .zip(split_by_ranges(rngs, ranges))
        .zip(split_by_ranges(sent, ranges))
        .zip(split_by_ranges(heard, ranges))
        .zip(split_by_ranges(sent1, &word_ranges))
        .zip(split_by_ranges(sent2, &word_ranges))
        .zip(ranges)
        .map(|((((((states, rngs), sent), heard), sent1), sent2), r)| Shard {
            start: r.start,
            states,
            rngs,
            sent,
            heard,
            sent1,
            sent2,
        })
        .collect();
    let mut works = vec![WorkCounters::default(); shards.len()];
    let mut reports = vec![RoundReport::default(); shards.len()];

    // Phase 1: transmit + scatter into thread-local accumulators. Every
    // write outside a worker's own shard lands in its private accumulators.
    std::thread::scope(|scope| {
        let jobs = shards
            .iter_mut()
            .zip(plan.locals1.iter_mut())
            .zip(plan.locals2.iter_mut())
            .zip(works.iter_mut());
        for (((shard, local1), local2), work) in jobs {
            scope.spawn(move || {
                sweep::reset(local1, words);
                if two {
                    sweep::reset(local2, words);
                }
                *work = kernel.transmit_scatter(shard, local1, local2);
            });
        }
    });

    // Phase 2: merge + mask + gather + receive. The accumulators are now
    // shared read-only; the shared heard bitsets are split at the
    // (word-aligned) worker boundaries, so merging and gathering fuse
    // without a barrier between them — a worker only ever gathers words it
    // just merged.
    let locals1: &[Vec<u64>] = &plan.locals1;
    let locals2: &[Vec<u64>] = &plan.locals2;
    std::thread::scope(|scope| {
        let jobs = shards
            .iter_mut()
            .zip(split_by_ranges(heard1, &word_ranges))
            .zip(split_by_ranges(heard2, &word_ranges))
            .zip(reports.iter_mut());
        for (((shard, heard1_w), heard2_w), report) in jobs {
            scope.spawn(move || {
                let word_start = shard.start >> 6;
                for (i, dst) in heard1_w.iter_mut().enumerate() {
                    *dst = locals1.iter().fold(0, |acc, local| acc | local[word_start + i]);
                }
                if two {
                    for (i, dst) in heard2_w.iter_mut().enumerate() {
                        *dst = locals2.iter().fold(0, |acc, local| acc | local[word_start + i]);
                    }
                }
                *report = kernel.mask_receive(shard, heard1_w, heard2_w, |_, _, _, _, _| {});
            });
        }
    });

    // Deterministic reduction: fixed worker order, and every total is a sum
    // of per-word popcounts and per-node indicators, so the value is
    // independent of thread timing.
    let mut report = RoundReport::default();
    let mut work = WorkCounters::default();
    for (r, w) in reports.iter().zip(&works) {
        report.beeps_channel1 += r.beeps_channel1;
        report.beeps_channel2 += r.beeps_channel2;
        report.hearers_channel1 += r.hearers_channel1;
        report.hearers_channel2 += r.hearers_channel2;
        report.lone_beepers += r.lone_beepers;
        report.lone_beepers_channel2 += r.lone_beepers_channel2;
        work.node_execs += w.node_execs;
        work.edge_visits += w.edge_visits;
    }
    (report, work)
}
