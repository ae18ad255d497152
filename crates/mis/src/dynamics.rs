//! Convergence-trajectory analytics: per-round aggregate statistics of an
//! execution, computed from recorded level histories.
//!
//! The proofs reason about how the prominent set `PM_t`, the stable set
//! `S_t` and the potential `d_t` evolve; this module turns a recorded
//! execution into exactly that time series, which experiment `DYN` prints
//! as the paper-style "convergence trajectory" figure.

use graphs::Graph;

use crate::levels::Level;
use crate::observer::Snapshot;

/// Aggregate statistics of one round of an execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Round index (0 = initial configuration).
    pub round: usize,
    /// `|PM_t|`: prominent vertices (ℓ ≤ 0).
    pub prominent: usize,
    /// `|I_t|`: vertices stable in the MIS.
    pub in_mis: usize,
    /// `|S_t|`: stable vertices.
    pub stable: usize,
    /// Vertices sitting exactly at their `ℓmax` (silenced).
    pub at_cap: usize,
    /// Mean beep probability over all vertices.
    pub mean_p: f64,
    /// Mean potential `d_t(v)` over all vertices.
    pub mean_d: f64,
    /// Maximum potential `d_t(v)`.
    pub max_d: f64,
}

/// Computes the per-round statistics for a recorded level history (as
/// produced by [`crate::runner::run_with_history`]).
///
/// # Panics
///
/// Panics if any snapshot has the wrong length.
pub fn trajectory(graph: &Graph, lmax: &[Level], history: &[Vec<Level>]) -> Vec<RoundStats> {
    history
        .iter()
        .enumerate()
        .map(|(round, levels)| round_stats(graph, lmax, levels, round))
        .collect()
}

/// Computes the statistics of a single configuration.
pub fn round_stats(graph: &Graph, lmax: &[Level], levels: &[Level], round: usize) -> RoundStats {
    let snap = Snapshot::new(graph, lmax, levels);
    let n = graph.len().max(1);
    let mut prominent = 0;
    let mut at_cap = 0;
    let mut sum_p = 0.0;
    let mut sum_d = 0.0;
    let mut max_d = 0.0f64;
    for v in graph.nodes() {
        if snap.is_prominent(v) {
            prominent += 1;
        }
        if levels[v] == lmax[v] {
            at_cap += 1;
        }
        sum_p += snap.beep_probability(v);
        let d = snap.d(v);
        sum_d += d;
        max_d = max_d.max(d);
    }
    RoundStats {
        round,
        prominent,
        in_mis: snap.mis().iter().filter(|&&m| m).count(),
        stable: snap.stable_count(),
        at_cap,
        mean_p: sum_p / n as f64,
        mean_d: sum_d / n as f64,
        max_d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LmaxPolicy;
    use crate::runner::{run_with_history, RunConfig};
    use crate::Algorithm1;
    use graphs::generators::random;

    #[test]
    fn trajectory_matches_outcome() {
        let g = random::gnp(50, 0.1, 1);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let outcome = run_with_history(&g, &algo, RunConfig::new(2)).expect("stabilizes");
        let history = outcome.level_history.as_ref().unwrap();
        let stats = trajectory(&g, algo.policy().lmax_values(), history);
        assert_eq!(stats.len(), history.len());
        // Final round is fully stable.
        let last = stats.last().unwrap();
        assert_eq!(last.stable, g.len());
        assert_eq!(last.in_mis, outcome.mis.iter().filter(|&&m| m).count());
        // Stable counts are monotone non-decreasing.
        for w in stats.windows(2) {
            assert!(w[0].stable <= w[1].stable);
        }
        // Rounds are sequential from 0.
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.round, i);
        }
    }

    #[test]
    fn stats_of_fully_stable_config() {
        let g = graphs::generators::classic::path(3);
        let lmax = vec![5, 5, 5];
        let stats = round_stats(&g, &lmax, &[5, -5, 5], 7);
        assert_eq!(stats.round, 7);
        assert_eq!(stats.prominent, 1);
        assert_eq!(stats.in_mis, 1);
        assert_eq!(stats.stable, 3);
        assert_eq!(stats.at_cap, 2);
        // MIS node has p = 1; cap nodes have p = 0.
        assert!((stats.mean_p - 1.0 / 3.0).abs() < 1e-12);
        // d(ends) = 1 (the beeping MIS neighbor), d(middle) = 0.
        assert!((stats.mean_d - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.max_d, 1.0);
    }

    #[test]
    fn mean_d_decreases_toward_stability_overall() {
        // Not monotone round-to-round, but the endpoint is far below the
        // adversarial start where everyone beeps.
        let g = random::gnp(60, 0.15, 3);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = RunConfig::new(1).with_init(crate::runner::InitialLevels::AllClaiming);
        let outcome = run_with_history(&g, &algo, config).unwrap();
        let history = outcome.level_history.unwrap();
        let stats = trajectory(&g, algo.policy().lmax_values(), &history);
        assert!(stats.first().unwrap().mean_d > stats.last().unwrap().mean_d);
    }
}
