//! Parallel scatter — the engine behind
//! [`EngineMode::ParScatter`](crate::sim::EngineMode::ParScatter): the
//! full-sweep kernel of [`crate::sweep`], run over one node range per
//! worker.
//!
//! # Layout
//!
//! [`ParPlan::build`] splits the node range `0..n` into one contiguous,
//! degree-balanced range per worker, closing each range at a 64-node word
//! edge. Word alignment is what makes the data decomposition safe: both
//! per-node arrays (`states`, `rngs`) *and* the word-packed per-channel
//! signal bitsets — the simulator's only signal state — can be split at
//! worker boundaries into disjoint `&mut` slices, so the whole engine is
//! expressible with `std::thread::scope` and `split_at_mut` — no locks,
//! no atomics, no unsafe. A plan with a single range (one thread, or a graph of at most
//! 64 nodes) makes the sequential whole-network call instead and never
//! enters a thread scope.
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

use graphs::Graph;
use rand_pcg::Pcg64Mcg;

use crate::protocol::{BeepingProtocol, Channels};
use crate::sim::WorkCounters;
use crate::sweep::{self, Bitsets, Shard, Sweep};
use crate::trace::RoundReport;

/// Persistent bookkeeping of the parallel kernel: the worker ranges and the
/// reusable thread-local accumulators. Rebuilt when its key — node count,
/// degree sum, thread count — changes; never part of a checkpoint. A plan
/// kept across a degree-preserving edit is stale only in balance: any
/// word-aligned split gives the same bits.
#[derive(Debug)]
pub(crate) struct ParPlan {
    /// Cache key: the plan is valid for this (n, degree_sum, threads).
    n: usize,
    degree_sum: usize,
    threads: usize,
    /// One contiguous, word-aligned, work-balanced node range per worker
    /// (see [`worker_ranges`]).
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
        let ranges = worker_ranges(graph, threads);
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

/// Splits `0..n` into at most `min(workers, ⌈n / 64⌉)` contiguous,
/// non-empty ranges — always at least one, which is `0..0` when `n = 0` —
/// balanced by the work of one delivery sweep, `degree(v) + 1` per node.
/// Range `k` closes at the first 64-node word edge where the running work
/// reaches `(k + 1) / workers` of the total, so interior boundaries are
/// multiples of 64 and no range exceeds `total / workers` by more than its
/// heaviest word.
fn worker_ranges(graph: &Graph, workers: usize) -> Vec<Range<usize>> {
    let n = graph.len();
    let total = (n + graph.degree_sum()) as u64;
    let mut ranges = Vec::new();
    let (mut start, mut work) = (0, 0u64);
    for v in 0..n {
        work += graph.degree(v) as u64 + 1;
        let (end, closing) = (v + 1, ranges.len() + 1);
        if end % 64 == 0
            && end < n
            && closing < workers
            && work.saturating_mul(workers as u64) >= closing as u64 * total
        {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges.push(start..n);
    ranges
}

/// Splits `slice` into one disjoint `&mut` piece per worker range.
///
/// The ranges are contiguous and cover `0..slice.len()` (a
/// [`worker_ranges`] invariant), so this is a chain of `split_at_mut` calls.
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
/// signal bitsets (resized and overwritten here). The returned report's
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
    bits: &mut Bitsets,
) -> (RoundReport, WorkCounters) {
    if plan.ranges.len() == 1 {
        return kernel.whole(states, rngs, bits, |_, _, _, _, _| {});
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
        .zip(split_by_ranges(sent1, &word_ranges))
        .zip(split_by_ranges(sent2, &word_ranges))
        .zip(ranges)
        .map(|((((states, rngs), sent1), sent2), r)| Shard {
            start: r.start,
            states,
            rngs,
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

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators::{classic, composite, random};

    /// Every split under test: a cycle, a star of cliques and a G(n,p), each
    /// over worker counts from 1 to past the number of words.
    fn splits() -> Vec<(Graph, usize, Vec<Range<usize>>)> {
        let graphs = [
            classic::cycle(1000),
            classic::cycle(64 * 40),
            composite::star_of_cliques(40, 12),
            random::gnp(3000, 8.0 / 2999.0, 5),
        ];
        let mut out = Vec::new();
        for g in graphs {
            for workers in [1, 2, 3, 4, 7, 16, 64, 1000] {
                let ranges = worker_ranges(&g, workers);
                out.push((g.clone(), workers, ranges));
            }
        }
        out
    }

    /// The sweep work of `range`: `Σ degree(v) + 1`.
    fn work(g: &Graph, range: Range<usize>) -> u64 {
        range.map(|v| g.degree(v) as u64 + 1).sum()
    }

    #[test]
    fn ranges_are_contiguous_non_empty_and_cover_the_node_range() {
        for (g, workers, ranges) in splits() {
            let mut expected = 0;
            for r in &ranges {
                assert_eq!(r.start, expected, "{workers} workers: {ranges:?}");
                assert!(r.end > r.start, "{workers} workers: {ranges:?}");
                expected = r.end;
            }
            assert_eq!(expected, g.len(), "{workers} workers: {ranges:?}");
        }
    }

    #[test]
    fn interior_boundaries_are_word_aligned() {
        for (_, workers, ranges) in splits() {
            for r in &ranges[..ranges.len() - 1] {
                assert_eq!(r.end % 64, 0, "{workers} workers: {ranges:?}");
            }
        }
    }

    #[test]
    fn range_count_is_at_most_workers_and_words() {
        for (g, workers, ranges) in splits() {
            assert!(ranges.len() <= workers.min(g.len().div_ceil(64)), "{workers}: {ranges:?}");
        }
    }

    #[test]
    fn no_range_exceeds_its_share_by_more_than_the_heaviest_word() {
        for (g, workers, ranges) in splits() {
            let n = g.len();
            let total = work(&g, 0..n);
            let heaviest =
                (0..n.div_ceil(64)).map(|w| work(&g, w * 64..(w * 64 + 64).min(n))).max().unwrap();
            for r in &ranges {
                let w = work(&g, r.clone());
                assert!(
                    w * workers as u64 <= total + heaviest * workers as u64,
                    "{workers} workers: {r:?} carries {w} of {total} (heaviest word {heaviest})"
                );
            }
        }
    }

    #[test]
    fn one_word_or_no_nodes_gives_one_range() {
        for n in [1, 2, 63, 64] {
            for workers in [1, 2, 8] {
                assert_eq!(worker_ranges(&classic::cycle(n), workers), vec![0..n], "n = {n}");
            }
        }
        assert_eq!(worker_ranges(&Graph::empty(0), 4), vec![0..0]);
    }

    #[test]
    fn enough_words_give_every_worker_a_range() {
        let g = classic::cycle(64 * 40);
        for workers in [1, 2, 4, 40] {
            assert_eq!(worker_ranges(&g, workers).len(), workers);
        }
    }

    #[test]
    fn skewed_degrees_shift_the_boundaries() {
        // The hub's word carries about 40% of a star's work, so the first of
        // two ranges ends well left of the node-count midpoint (256).
        let ranges = worker_ranges(&classic::star(64 * 8), 2);
        assert_eq!(ranges.len(), 2);
        assert!(ranges[0].end <= 192, "{ranges:?}");
    }
}
