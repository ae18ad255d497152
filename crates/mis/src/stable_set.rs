//! The incremental stable-set tracker behind the run loop's stopping rule,
//! round telemetry and outcomes.
//!
//! `I_t` membership of a node depends only on its closed 1-hop
//! neighbourhood, and `S_t` membership on its 2-hop neighbourhood, so after
//! a round that changed few nodes only their balls need re-judging. A
//! [`StableSet`] keeps one class byte per node (departed, or active with
//! "claiming" and "at ℓmax" bits), the active-aware `I_t` and `S_t` flags of
//! [`crate::recovery::claimed_mis`] and [`crate::recovery::stabilized_active`]
//! with their counts, and the number of live independence violations of
//! [`crate::recovery::independence_violations`]. Those three functions stay
//! the full-sweep oracles the tracker is tested against.
//!
//! A refresh diffs the class bytes against the live levels and active flags
//! — one sequential O(n) pass with no adjacency reads, so every engine is
//! served the same way — then re-judges `I_t` on `N[changed]` and `S_t` on
//! `N[I_t-flipped] ∪ changed`, and updates the violation count edge by edge
//! for the changed claimers. It re-judges every node instead after a
//! topology change (churn or motion edge events rewire neighbourhoods
//! without changing any class byte) or when the changed set is dense.
//!
//! Refreshes are lazy: one happens only when a reader asks after a change.
//! The run loop's stopping rule asks only once [`has_off_extreme`] finds
//! every active node at its claiming level or its ℓmax, the paper's
//! necessary condition for `S_t = V`; until then it answers `false` and the
//! tracker stays stale, so the next refresh diffs against the class bytes
//! it last saw. A telemetry-off random start of the `cold-start` benchmark
//! shape therefore refreshes once, at the stabilization round. The
//! other readers refresh whenever they read: the round events (every round
//! with telemetry on), the outcome, budget errors and
//! [`crate::recovery::run_noisy`]'s per-round observation.

use graphs::Graph;

use crate::levels::Level;
use crate::runner::SelfStabilizingMis;

/// Class bit: the node is active. A departed node's class is 0.
const ACTIVE: u8 = 1;
/// Class bit: the node is active and sits at its claiming level.
const CLAIMING: u8 = 2;
/// Class bit: the node is active and sits at its `ℓmax`.
const AT_MAX: u8 = 4;

/// A refresh with more than `n / DENSE_DIVISOR` changed nodes (and more
/// than [`DENSE_FLOOR`]) re-judges every node: past that density the balls
/// of the changed nodes cover most of the graph, and one straight sweep is
/// cheaper than the scattered re-judging. The stopping rule's off-extreme
/// gate leaves a telemetry-off random start about one refresh, so this
/// serves the runs that refresh every round: telemetry-on runs and
/// `run_noisy`. Measured on the `cold-start` shape with telemetry on
/// (G(2^16, 8/(n−1)), seeds 1–4, 5 interleaved repetitions, 2-core VM),
/// whose rounds change 2–6% of the nodes: the median op is flat at
/// 0.200–0.209 s for divisors 4 to 128, 0.217 s when no refresh counts as
/// dense and 0.241 s when every refresh re-judges everything.
const DENSE_DIVISOR: usize = 16;
/// Changed sets up to this size are always handled incrementally, so small
/// graphs exercise the incremental path too.
const DENSE_FLOOR: usize = 64;
/// Nodes per chunk of the sequential passes over the class bytes.
const CHUNK: usize = 64;

/// The class byte of a node with `level`, cap `cap` and participation
/// `active` (branch-free, so the diff pass vectorizes).
#[inline]
fn class_of<A: SelfStabilizingMis>(level: Level, cap: Level, active: bool) -> u8 {
    u8::from(active)
        * (ACTIVE
            | (u8::from(level == A::SPACE.claiming(cap)) * CLAIMING)
            | (u8::from(level == cap) * AT_MAX))
}

/// `true` if some active node sits at neither its claiming level nor its
/// ℓmax. `S_t = V` then fails: every member of `I_t` claims and every
/// neighbour of a member sits at ℓmax, so each node of `S_t` is at one of
/// its two extreme levels. Reads no adjacency and no tracker state; a
/// branch-free fold per chunk, stopping at the first chunk with a hit.
pub(crate) fn has_off_extreme<A: SelfStabilizingMis>(
    algo: &A,
    levels: &[Level],
    active: &[bool],
) -> bool {
    let caps = algo.policy().lmax_values();
    levels.chunks(CHUNK).zip(caps.chunks(CHUNK)).zip(active.chunks(CHUNK)).any(
        |((levels, caps), active)| {
            let nodes = levels.iter().zip(caps).zip(active);
            nodes.fold(0u8, |any, ((&level, &cap), &is_active)| {
                any | u8::from(class_of::<A>(level, cap, is_active) == ACTIVE)
            }) != 0
        },
    )
}

/// `v` and its neighbours.
fn closed(graph: &Graph, v: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::once(v).chain(graph.neighbors(v).iter().map(|&u| u as usize))
}

/// The tracked `I_t`/`S_t` state of one run; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct StableSet {
    class: Vec<u8>,
    in_mis: Vec<bool>,
    stable: Vec<bool>,
    in_mis_count: usize,
    stable_count: usize,
    active_count: usize,
    violations: usize,
    /// The configuration may have changed since the last refresh.
    stale: bool,
    /// The topology may have changed since the last refresh: the next one
    /// re-judges every node.
    rebuild: bool,
    /// Scratch: nodes whose class changed in the current refresh.
    changed: Vec<usize>,
    /// Scratch: nodes whose `I_t` flag flipped in the current refresh.
    flipped: Vec<usize>,
}

impl StableSet {
    /// A tracker for an `n`-node run whose first refresh judges every node.
    pub(crate) fn new(n: usize) -> StableSet {
        StableSet {
            class: vec![0; n],
            in_mis: vec![false; n],
            stable: vec![false; n],
            in_mis_count: 0,
            stable_count: 0,
            active_count: 0,
            violations: 0,
            stale: true,
            rebuild: true,
            changed: Vec::new(),
            flipped: Vec::new(),
        }
    }

    /// Levels or active flags may have changed (a round, a corruption).
    pub(crate) fn touch_levels(&mut self) {
        self.stale = true;
    }

    /// The edge set may have changed (churn, motion): the next refresh
    /// re-judges every node.
    pub(crate) fn touch_topology(&mut self) {
        self.stale = true;
        self.rebuild = true;
    }

    /// `true` if a change was signalled since the last refresh.
    pub(crate) fn is_stale(&self) -> bool {
        self.stale
    }

    /// Brings the flags up to date with the live configuration. Returns the
    /// number of node judgments made (one per `I_t` and one per `S_t`
    /// evaluation); 0 when nothing was signalled since the last refresh.
    pub(crate) fn refresh<A: SelfStabilizingMis>(
        &mut self,
        algo: &A,
        graph: &Graph,
        levels: &[Level],
        active: &[bool],
    ) -> u64 {
        if !self.stale {
            return 0;
        }
        self.stale = false;
        if !self.rebuild && !self.collect_changes(algo, levels, active) {
            return self.apply_changes(algo, graph, levels, active);
        }
        self.rebuild = false;
        self.rebuild_all(algo, graph, levels, active)
    }

    /// Fills `changed` with the nodes whose class byte is out of date.
    /// Returns `true` (with `changed` incomplete) once the set turns dense.
    fn collect_changes<A: SelfStabilizingMis>(
        &mut self,
        algo: &A,
        levels: &[Level],
        active: &[bool],
    ) -> bool {
        let limit = (levels.len() / DENSE_DIVISOR).max(DENSE_FLOOR);
        let caps = algo.policy().lmax_values();
        self.changed.clear();
        let chunks = levels
            .chunks(CHUNK)
            .zip(caps.chunks(CHUNK))
            .zip(active.chunks(CHUNK))
            .zip(self.class.chunks(CHUNK));
        for (k, (((levels, caps), active), class)) in chunks.enumerate() {
            let nodes = || levels.iter().zip(caps).zip(active).zip(class);
            let diff =
                |(((&level, &cap), &is_active), &class): (((&Level, &Level), &bool), &u8)| {
                    class_of::<A>(level, cap, is_active) ^ class
                };
            // No early exit inside a chunk, so the common clean chunk is one
            // vectorized pass (about 1.6× the plain scan at n = 2^16).
            if nodes().fold(0, |any, node| any | diff(node)) == 0 {
                continue;
            }
            for (i, _) in nodes().enumerate().filter(|&(_, node)| diff(node) != 0) {
                if self.changed.len() == limit {
                    return true;
                }
                self.changed.push(k * CHUNK + i);
            }
        }
        false
    }

    /// The incremental refresh over the collected `changed` set.
    fn apply_changes<A: SelfStabilizingMis>(
        &mut self,
        algo: &A,
        graph: &Graph,
        levels: &[Level],
        active: &[bool],
    ) -> u64 {
        let caps = algo.policy().lmax_values();
        let changed = std::mem::take(&mut self.changed);
        // One node at a time, so an edge between two changed claimers is
        // counted exactly once: by whichever endpoint is updated second.
        for &v in &changed {
            let (old, new) = (self.class[v], class_of::<A>(levels[v], caps[v], active[v]));
            self.class[v] = new;
            if (old ^ new) & ACTIVE != 0 {
                if new & ACTIVE != 0 {
                    self.active_count += 1;
                } else {
                    self.active_count -= 1;
                }
            }
            if (old ^ new) & CLAIMING != 0 {
                let (_, claiming) = self.scan_claimer(graph, v);
                if new & CLAIMING != 0 {
                    self.violations += claiming;
                } else {
                    self.violations -= claiming;
                }
            }
        }
        let mut judged = 0u64;
        let mut flipped = std::mem::take(&mut self.flipped);
        flipped.clear();
        for w in changed.iter().flat_map(|&v| closed(graph, v)) {
            judged += 1;
            if self.rejudge_mis(graph, w) {
                flipped.push(w);
            }
        }
        for w in changed.iter().copied().chain(flipped.iter().flat_map(|&v| closed(graph, v))) {
            judged += 1;
            self.rejudge_stable(graph, w);
        }
        self.changed = changed;
        self.flipped = flipped;
        judged
    }

    /// Re-judges every node from scratch.
    fn rebuild_all<A: SelfStabilizingMis>(
        &mut self,
        algo: &A,
        graph: &Graph,
        levels: &[Level],
        active: &[bool],
    ) -> u64 {
        let caps = algo.policy().lmax_values();
        let nodes = levels.iter().zip(caps).zip(active);
        for (class, ((&level, &cap), &is_active)) in self.class.iter_mut().zip(nodes) {
            *class = class_of::<A>(level, cap, is_active);
        }
        self.active_count = self.class.iter().filter(|&&c| c & ACTIVE != 0).count();
        // Only claimers read their neighbourhood: one scan settles both their
        // `I_t` flag and their violation edges.
        self.in_mis.fill(false);
        let mut ends = 0;
        for v in graph.nodes().filter(|&v| self.class[v] & CLAIMING != 0) {
            let (member, claiming) = self.scan_claimer(graph, v);
            self.in_mis[v] = member;
            ends += claiming;
        }
        self.violations = ends / 2;
        self.in_mis_count = self.in_mis.iter().filter(|&&m| m).count();
        // `S_t` scattered from the members rather than gathered by every
        // node: far fewer neighbourhood reads while few nodes claim.
        self.stable.fill(false);
        for v in graph.nodes().filter(|&v| self.in_mis[v]) {
            self.stable[v] = true;
            for &u in graph.neighbors(v) {
                let u = u as usize;
                self.stable[u] |= self.class[u] & ACTIVE != 0;
            }
        }
        self.stable_count = self.stable.iter().filter(|&&s| s).count();
        2 * graph.len() as u64
    }

    /// For a claimer `v`: whether every active neighbour sits at ℓmax (so
    /// `v` is in `I_t`), and how many of its neighbours claim too.
    fn scan_claimer(&self, graph: &Graph, v: usize) -> (bool, usize) {
        graph.neighbors(v).iter().fold((true, 0), |(member, claiming), &u| {
            let class = self.class[u as usize];
            (
                member && class & (ACTIVE | AT_MAX) != ACTIVE,
                claiming + usize::from(class & CLAIMING != 0),
            )
        })
    }

    /// `I_t`: active at the claiming level, every active neighbour at ℓmax.
    fn judge_mis(&self, graph: &Graph, v: usize) -> bool {
        self.class[v] & CLAIMING != 0
            && graph
                .neighbors(v)
                .iter()
                .all(|&u| self.class[u as usize] & (ACTIVE | AT_MAX) != ACTIVE)
    }

    /// `S_t`: active and in `I_t` or next to a member.
    fn judge_stable(&self, graph: &Graph, v: usize) -> bool {
        self.class[v] & ACTIVE != 0
            && (self.in_mis[v] || graph.neighbors(v).iter().any(|&u| self.in_mis[u as usize]))
    }

    /// Re-judges `v`'s `I_t` flag; returns `true` if it flipped.
    fn rejudge_mis(&mut self, graph: &Graph, v: usize) -> bool {
        let member = self.judge_mis(graph, v);
        if member == self.in_mis[v] {
            return false;
        }
        self.in_mis[v] = member;
        if member {
            self.in_mis_count += 1;
        } else {
            self.in_mis_count -= 1;
        }
        true
    }

    fn rejudge_stable(&mut self, graph: &Graph, v: usize) {
        let stable = self.judge_stable(graph, v);
        if stable != self.stable[v] {
            self.stable[v] = stable;
            if stable {
                self.stable_count += 1;
            } else {
                self.stable_count -= 1;
            }
        }
    }

    /// `S_t = V` on the active subgraph (vacuously `true` with no active
    /// node): the [`crate::recovery::stabilized_active`] predicate.
    pub(crate) fn stabilized(&self) -> bool {
        self.stable_count == self.active_count
    }

    /// The `I_t` flags: [`crate::recovery::claimed_mis`].
    pub(crate) fn in_mis(&self) -> &[bool] {
        &self.in_mis
    }

    /// `|I_t|`.
    pub(crate) fn in_mis_count(&self) -> usize {
        self.in_mis_count
    }

    /// Active nodes in `S_t`.
    pub(crate) fn stable_count(&self) -> usize {
        self.stable_count
    }

    /// Live independence violations:
    /// [`crate::recovery::independence_violations`].
    pub(crate) fn violations(&self) -> usize {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::Algorithm1;
    use crate::algorithm2::Algorithm2;
    use crate::policy::LmaxPolicy;
    use crate::recovery::{claimed_mis, independence_violations, stabilized_active, stable_where};
    use graphs::generators::random;
    use rand::Rng;

    /// Asserts the tracker against the full-sweep oracles.
    fn assert_matches<A: SelfStabilizingMis>(
        set: &StableSet,
        algo: &A,
        graph: &Graph,
        levels: &[Level],
        active: &[bool],
    ) {
        let in_mis = claimed_mis(algo, graph, levels, active);
        assert_eq!(set.in_mis(), &in_mis[..]);
        assert_eq!(set.in_mis_count(), in_mis.iter().filter(|&&m| m).count());
        let stable = stable_where(graph, &in_mis, |v| active[v]).filter(|&s| s).count();
        assert_eq!(set.stable_count(), stable);
        assert_eq!(set.stabilized(), stabilized_active(algo, graph, levels, active));
        assert_eq!(set.violations(), independence_violations(algo, graph, levels, active));
    }

    /// Asserts [`has_off_extreme`] against a per-node scan, and that it
    /// rules out `S_t = V`.
    fn assert_off_extreme<A: SelfStabilizingMis>(
        algo: &A,
        graph: &Graph,
        levels: &[Level],
        active: &[bool],
    ) {
        let caps = algo.policy().lmax_values();
        let off = graph
            .nodes()
            .any(|v| active[v] && levels[v] != A::SPACE.claiming(caps[v]) && levels[v] != caps[v]);
        assert_eq!(has_off_extreme(algo, levels, active), off);
        if off {
            assert!(!stabilized_active(algo, graph, levels, active), "off-extreme, yet S_t = V");
        }
    }

    /// Random sparse edits (level moves toward claiming/ℓmax, departures and
    /// returns) exercise the incremental path; every refresh must agree with
    /// the oracles.
    fn drive<A: SelfStabilizingMis>(algo: &A, graph: &Graph, seed: u64) {
        let n = graph.len();
        let caps = algo.policy().lmax_values().to_vec();
        let mut rng = beeping::rng::aux_rng(seed, 0x57AB);
        let mut levels: Vec<Level> = caps.clone();
        let mut active = vec![true; n];
        let mut set = StableSet::new(n);
        assert_eq!(set.refresh(algo, graph, &levels, &active), 2 * n as u64);
        assert_matches(&set, algo, graph, &levels, &active);
        for step in 0..400 {
            let edits = if step % 50 == 0 { n } else { rng.gen_range(1..=3) };
            for _ in 0..edits {
                let v = rng.gen_range(0..n);
                match rng.gen_range(0..6) {
                    0 => active[v] = !active[v],
                    1 | 2 => levels[v] = A::SPACE.claiming(caps[v]),
                    3 | 4 => levels[v] = caps[v],
                    _ => levels[v] = 1,
                }
            }
            set.touch_levels();
            set.refresh(algo, graph, &levels, &active);
            assert_matches(&set, algo, graph, &levels, &active);
            assert_off_extreme(algo, graph, &levels, &active);
            assert_eq!(set.refresh(algo, graph, &levels, &active), 0, "not stale");
        }
    }

    /// One off-extreme node in the last, partial chunk is found, and a
    /// departed one is ignored.
    fn off_extreme_edges<A: SelfStabilizingMis>(algo: &A, graph: &Graph) {
        let n = graph.len();
        let mut levels: Vec<Level> = algo.policy().lmax_values().to_vec();
        let mut active = vec![true; n];
        assert!(!has_off_extreme(algo, &levels, &active));
        levels[n - 1] = 1;
        assert!(has_off_extreme(algo, &levels, &active));
        active[n - 1] = false;
        assert!(!has_off_extreme(algo, &levels, &active));
        assert_off_extreme(algo, graph, &levels, &active);
    }

    #[test]
    fn off_extreme_reads_every_chunk_and_only_active_nodes() {
        let g = random::gnp(130, 0.05, 7);
        off_extreme_edges(&Algorithm1::new(&g, LmaxPolicy::global_delta(&g)), &g);
        off_extreme_edges(&Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g)), &g);
    }

    #[test]
    fn incremental_refreshes_match_the_oracles() {
        for seed in 0..4 {
            let g = random::gnp(120, 0.05, seed);
            drive(&Algorithm1::new(&g, LmaxPolicy::global_delta(&g)), &g, seed);
            drive(&Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g)), &g, seed);
        }
    }
}
