//! Runtime invariant checking: the paper's state-space and activation-
//! function invariants, enforced on every round in debug builds.
//!
//! [`crate::runner::run`] installs an [`InvariantChecker`] into
//! [`beeping::Simulator`]'s per-round hook when `debug_assertions` are on,
//! so every debug-mode test and experiment continuously validates:
//!
//! 1. **ℓ-range** — every level stays inside the algorithm's
//!    [`LevelSpace`] (`{-ℓmax, …, ℓmax}` for Algorithm 1, `{0, …, ℓmax}`
//!    for Algorithm 2);
//! 2. **probability-table conformance** — the beeping probability implied
//!    by each level matches Figure 1's table `{1, 2^{-ℓ}, 0}`, recomputed
//!    here independently of [`crate::levels`] so the check is not
//!    tautological;
//! 3. **MIS validity at stability** — whenever `S_t = V` holds, the claimed
//!    set `I_t` is a maximal independent set of the graph. Both sets come
//!    from the crate's one full-sweep `I_t`/`S_t` definition in
//!    [`crate::recovery`], the oracle of every other stability predicate.
//!
//! The checker observes state only and draws no randomness, so installing
//! it never changes an execution; release builds skip it entirely.

use graphs::Graph;

pub use crate::levels::LevelSpace;
use crate::levels::{beep1_probability, beep_probability, Level};
use crate::policy::LmaxPolicy;
use crate::recovery::{claimed_mis_where, stable_where};
use crate::runner::SelfStabilizingMis;

/// The consolidated ℓ-range assertion used by protocol hot paths and
/// the [`InvariantChecker`] — one definition instead of per-protocol
/// ad-hoc `debug_assert!`s.
#[inline]
#[track_caller]
pub fn debug_assert_level_in_range(level: Level, lmax: Level, space: LevelSpace) {
    debug_assert!(
        space.contains(level, lmax),
        "ℓ={level} outside the {space:?} state space for ℓmax={lmax}"
    );
}

/// Per-round checker of the paper's invariants; installed by the runner via
/// [`beeping::Simulator::set_invariant_hook`] in debug builds.
#[derive(Debug, Clone)]
pub struct InvariantChecker {
    lmax: Vec<Level>,
    space: LevelSpace,
}

impl InvariantChecker {
    /// A checker for the given knowledge policy and state space.
    pub fn new(policy: &LmaxPolicy, space: LevelSpace) -> InvariantChecker {
        InvariantChecker { lmax: policy.lmax_values().to_vec(), space }
    }

    /// A checker matching `algo`'s state space.
    pub fn for_algorithm<A: SelfStabilizingMis>(algo: &A) -> InvariantChecker {
        InvariantChecker::new(algo.policy(), A::SPACE)
    }

    /// Validates one post-round configuration.
    ///
    /// # Panics
    ///
    /// Panics with round and node context on any violated invariant.
    pub fn check_round(&self, graph: &Graph, round: u64, levels: &[Level]) {
        assert_eq!(
            levels.len(),
            self.lmax.len(),
            "round {round}: configuration size does not match the policy"
        );
        for (v, (&level, &lmax)) in levels.iter().zip(&self.lmax).enumerate() {
            assert!(
                self.space.contains(level, lmax),
                "round {round}: node {v} has ℓ={level} outside the {:?} state space for ℓmax={lmax}",
                self.space
            );
            let (actual, expected) = match self.space {
                LevelSpace::Signed => (beep_probability(level, lmax), table_signed(level, lmax)),
                LevelSpace::NonNegative => {
                    (beep1_probability(level, lmax), table_beep1(level, lmax))
                }
            };
            assert!(
                actual.to_bits() == expected.to_bits(),
                "round {round}: node {v} at ℓ={level} beeps with p={actual}, \
                 Figure 1's table says {expected}"
            );
        }
        self.check_stability(graph, round, levels);
    }

    /// If the configuration satisfies the stabilization criterion
    /// `S_t = V`, the claimed set `I_t` must be a maximal independent set.
    fn check_stability(&self, graph: &Graph, round: u64, levels: &[Level]) {
        let mis = claimed_mis_where(self.space, graph, &self.lmax, levels, |_| true);
        if !stable_where(graph, &mis, |_| true).all(|s| s) {
            return;
        }
        assert!(
            graphs::mis::is_maximal_independent_set(graph, &mis),
            "round {round}: S_t = V but I_t is not a maximal independent set"
        );
    }
}

/// Figure 1's table for Algorithm 1, written with halving instead of
/// `2^{-ℓ}` so it is independent of [`beep_probability`]'s formula.
fn table_signed(level: Level, lmax: Level) -> f64 {
    if level <= 0 {
        1.0
    } else if level == lmax {
        0.0
    } else {
        0.5f64.powi(level)
    }
}

/// Algorithm 2's channel-1 table: geometric strictly inside `(0, ℓmax)`,
/// silent at both boundaries.
fn table_beep1(level: Level, lmax: Level) -> f64 {
    if level > 0 && level < lmax {
        0.5f64.powi(level)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::Algorithm1;
    use crate::algorithm2::Algorithm2;
    use graphs::generators::classic;

    #[test]
    fn spaces_contain_their_ranges() {
        assert!(LevelSpace::Signed.contains(-4, 4));
        assert!(LevelSpace::Signed.contains(4, 4));
        assert!(!LevelSpace::Signed.contains(5, 4));
        assert!(!LevelSpace::NonNegative.contains(-1, 4));
        assert!(LevelSpace::NonNegative.contains(0, 4));
        assert!(!LevelSpace::NonNegative.contains(5, 4));
    }

    #[test]
    fn accepts_valid_configurations() {
        let g = classic::cycle(6);
        let checker = InvariantChecker::new(&LmaxPolicy::global_delta(&g), LevelSpace::Signed);
        checker.check_round(&g, 1, &[1; 6]);
    }

    #[test]
    #[should_panic(expected = "outside the Signed state space")]
    fn rejects_out_of_range_level() {
        let g = classic::cycle(4);
        let policy = LmaxPolicy::fixed(4, 3);
        let checker = InvariantChecker::new(&policy, LevelSpace::Signed);
        checker.check_round(&g, 7, &[1, 1, 4, 1]);
    }

    #[test]
    #[should_panic(expected = "outside the NonNegative state space")]
    fn rejects_negative_level_in_two_channel_space() {
        let g = classic::cycle(4);
        let policy = LmaxPolicy::fixed(4, 3);
        let checker = InvariantChecker::new(&policy, LevelSpace::NonNegative);
        checker.check_round(&g, 7, &[1, -1, 1, 1]);
    }

    #[test]
    fn accepts_stabilized_configuration() {
        // Path 0-1-2: the middle node claims, the endpoints sit at ℓmax.
        let g = classic::path(3);
        let policy = LmaxPolicy::fixed(3, 4);
        let checker = InvariantChecker::new(&policy, LevelSpace::Signed);
        checker.check_round(&g, 9, &[4, LevelSpace::Signed.claiming(4), 4]);
    }

    #[test]
    fn for_algorithm_picks_the_right_space() {
        let g = classic::cycle(5);
        let a1 =
            InvariantChecker::for_algorithm(&Algorithm1::new(&g, LmaxPolicy::global_delta(&g)));
        assert_eq!(a1.space, LevelSpace::Signed);
        let a2 =
            InvariantChecker::for_algorithm(&Algorithm2::new(&g, LmaxPolicy::global_delta(&g)));
        assert_eq!(a2.space, LevelSpace::NonNegative);
    }
}
