//! The paper's analysis constants and preconditions, as executable code.
//!
//! Centralizing the formulas keeps the experiments honest: instead of
//! hard-coding magic numbers, the drivers derive every threshold from the
//! same definitions the paper states, and the tests here cross-check them
//! against the policies in [`crate::policy`].

use graphs::Graph;

use crate::levels::{log2_ceil, Level};
use crate::policy::LmaxPolicy;

/// The Lemma 3.5 constant `γ = e⁻³⁰`.
pub fn gamma() -> f64 {
    (-30.0f64).exp()
}

/// The η threshold `0.0001` used by Lemmas 3.5 / 6.3.
pub const ETA_THRESHOLD: f64 = 0.0001;

/// The precondition of Lemmas 3.5 / 3.6 / 6.3:
/// `ℓmax(w) ≥ log₂ deg(w) + 4` for all `w`.
pub fn satisfies_lemma_precondition(g: &Graph, policy: &LmaxPolicy) -> bool {
    g.nodes().all(|v| i64::from(policy.lmax(v)) >= i64::from(log2_ceil(g.degree(v)) + 4))
}

/// The Theorem 2.1 precondition: constant `ℓmax ∈ [log Δ + c1, c2·log n]`
/// with `c1 ≥ 15`. Checks the lower end for the given `c1` (the upper end
/// only matters for the *bound*, not correctness).
pub fn satisfies_thm21_precondition(g: &Graph, policy: &LmaxPolicy, c1: u32) -> bool {
    let needed = (log2_ceil(g.max_degree()) + c1) as Level;
    let uniform = policy.lmax_values().windows(2).all(|w| w[0] == w[1]);
    uniform && policy.lmax_values().first().is_none_or(|&l| l >= needed)
}

/// The Theorem 2.2 precondition: `ℓmax(v) ≥ 2·log₂ deg(v) + c1` with
/// `c1 ≥ 30`.
pub fn satisfies_thm22_precondition(g: &Graph, policy: &LmaxPolicy, c1: u32) -> bool {
    g.nodes().all(|v| i64::from(policy.lmax(v)) >= i64::from(2 * log2_ceil(g.degree(v)) + c1))
}

/// The Corollary 2.3 precondition: `ℓmax(v) ≥ 2·log₂ deg₂(v) + c1` with
/// `c1 ≥ 15`.
pub fn satisfies_cor23_precondition(g: &Graph, policy: &LmaxPolicy, c1: u32) -> bool {
    g.nodes().all(|v| i64::from(policy.lmax(v)) >= i64::from(2 * log2_ceil(g.deg2(v)) + c1))
}

/// Theorem 2.1's static η bound: with the uniform policy
/// `ℓmax = log₂ Δ + c1`, every vertex satisfies
/// `η_t(v) ≤ deg(v)·2^{-ℓmax} ≤ 2^{-c1}` at all times. Returns `2^{-c1}`.
pub fn eta_bound_thm21(c1: u32) -> f64 {
    2f64.powi(-i32::try_from(c1).unwrap_or(i32::MAX))
}

/// The burn-in horizon of Lemma 3.1: `max_w ℓmax(w)` rounds after which
/// every vertex has `ℓ > 0` or `μ > 0` forever.
pub fn burn_in_horizon(policy: &LmaxPolicy) -> u64 {
    policy.max_lmax() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators::{random, scale_free};

    #[test]
    fn constants() {
        assert!(gamma() < 1e-12);
        assert!(eta_bound_thm21(15) <= ETA_THRESHOLD);
        assert!(eta_bound_thm21(13) > ETA_THRESHOLD);
    }

    #[test]
    fn default_policies_satisfy_their_preconditions() {
        let g = scale_free::barabasi_albert(200, 3, 1).unwrap();
        assert!(satisfies_thm21_precondition(&g, &LmaxPolicy::global_delta(&g), 15));
        assert!(satisfies_thm22_precondition(&g, &LmaxPolicy::own_degree(&g), 30));
        assert!(satisfies_cor23_precondition(&g, &LmaxPolicy::two_hop_degree(&g), 15));
        for policy in [
            LmaxPolicy::global_delta(&g),
            LmaxPolicy::own_degree(&g),
            LmaxPolicy::two_hop_degree(&g),
        ] {
            assert!(satisfies_lemma_precondition(&g, &policy), "{}", policy.name());
        }
    }

    #[test]
    fn small_constants_fail_preconditions() {
        let g = random::gnp(100, 0.2, 2);
        let tiny = LmaxPolicy::fixed(g.len(), 3);
        assert!(!satisfies_thm21_precondition(&g, &tiny, 15));
        assert!(!satisfies_lemma_precondition(&g, &tiny));
        // Non-uniform policies fail Thm 2.1's constancy requirement.
        let own = LmaxPolicy::own_degree(&g);
        let heterogeneous = g.nodes().any(|v| own.lmax(v) != own.lmax(0));
        if heterogeneous {
            assert!(!satisfies_thm21_precondition(&g, &own, 15));
        }
    }

    #[test]
    fn burn_in_matches_policy_max() {
        let g = random::gnp(50, 0.1, 3);
        let p = LmaxPolicy::own_degree(&g);
        assert_eq!(burn_in_horizon(&p), p.max_lmax() as u64);
    }
}
