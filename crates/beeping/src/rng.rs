//! Deterministic per-node random streams.
//!
//! Every node gets an independent PCG64 stream derived from
//! `(master_seed, node_id)` through a SplitMix64 mix, so:
//!
//! - a fixed master seed reproduces an entire execution bit-for-bit;
//! - adding instrumentation or reordering *observation* code cannot perturb
//!   the protocol's random choices;
//! - two different nodes (or two different master seeds) get streams that
//!   are statistically independent for all practical purposes.

use graphs::NodeId;
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

/// SplitMix64 finalizer: the standard 64-bit mixing function used to expand
/// one seed into many well-separated ones.
pub fn split_mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG for `node` under `master_seed`.
pub fn node_rng(master_seed: u64, node: NodeId) -> Pcg64Mcg {
    let mixed = split_mix64(master_seed ^ split_mix64(node as u64 + 1));
    Pcg64Mcg::seed_from_u64(mixed)
}

/// Derives one RNG per node for an `n`-node network.
pub fn node_rngs(master_seed: u64, n: usize) -> Vec<Pcg64Mcg> {
    (0..n).map(|v| node_rng(master_seed, v)).collect()
}

/// Derives an auxiliary RNG stream (for fault injection, initial-state
/// sampling, …) that is independent of every node stream.
pub fn aux_rng(master_seed: u64, purpose: u64) -> Pcg64Mcg {
    let mixed =
        split_mix64(master_seed.wrapping_add(0xA5A5_A5A5).rotate_left(17) ^ split_mix64(!purpose));
    Pcg64Mcg::seed_from_u64(mixed)
}

/// The exact stream position of a generator, as a raw 128-bit state word —
/// the serialization half of durable snapshots. Round-trips through
/// [`pcg_from_state`].
///
/// This is the single place the workspace touches the vendored
/// `rand_pcg`'s state accessors (upstream gates the equivalent behind its
/// `serde1` feature); keep any future serialization change confined here.
pub fn pcg_state(rng: &Pcg64Mcg) -> u128 {
    rng.state()
}

/// Rebuilds a generator at an exact stream position captured by
/// [`pcg_state`] — the deserialization half of durable snapshots.
pub fn pcg_from_state(state: u128) -> Pcg64Mcg {
    Pcg64Mcg::from_state(state)
}

/// The PCG reference multiplier (128-bit MCG step). Mirrors the vendored
/// `rand_pcg` constant; [`advance_steps`]'s test pins the two against each
/// other, so a divergence cannot go unnoticed.
const PCG_MULTIPLIER: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

/// Advances a generator by exactly `steps` outputs in O(log steps) time,
/// without producing them — the jump-ahead backing the frontier engine's
/// RNG draw accounting (`beeping::sim`): a settled node that would draw
/// `k` coins per skipped round is ticked in bulk when it wakes.
///
/// An MCG's step is `state ← state · M (mod 2^128)`, so `steps` outputs
/// compose to a single multiplication by `M^steps`: `jump_multiplier`
/// computes it, `apply_jump` applies it. Equivalent to calling `next_u64`
/// `steps` times.
pub fn advance_steps(rng: &mut Pcg64Mcg, steps: u128) {
    apply_jump(rng, jump_multiplier(steps));
}

/// `M^steps (mod 2^128)`, by square-and-multiply: the multiplier that
/// [`apply_jump`] uses to advance a generator by `steps` outputs. Many
/// generators jumped by the same count can share one.
pub(crate) fn jump_multiplier(steps: u128) -> u128 {
    let mut mult: u128 = 1;
    let mut base = PCG_MULTIPLIER;
    let mut k = steps;
    while k > 0 {
        if k & 1 == 1 {
            mult = mult.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        k >>= 1;
    }
    mult
}

/// Advances `rng` by the step count `mult` was computed for
/// ([`jump_multiplier`]): one 128-bit multiply.
pub(crate) fn apply_jump(rng: &mut Pcg64Mcg, mult: u128) {
    *rng = pcg_from_state(pcg_state(rng).wrapping_mul(mult));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn split_mix_changes_input() {
        assert_ne!(split_mix64(0), 0);
        assert_ne!(split_mix64(1), split_mix64(2));
    }

    #[test]
    fn node_streams_are_deterministic() {
        let mut a = node_rng(42, 7);
        let mut b = node_rng(42, 7);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn node_streams_differ_across_nodes_and_seeds() {
        let mut a = node_rng(42, 0);
        let mut b = node_rng(42, 1);
        let mut c = node_rng(43, 0);
        let (x, y, z) = (a.gen::<u64>(), b.gen::<u64>(), c.gen::<u64>());
        assert_ne!(x, y);
        assert_ne!(x, z);
        assert_ne!(y, z);
    }

    #[test]
    fn node_rngs_count() {
        assert_eq!(node_rngs(1, 5).len(), 5);
        assert!(node_rngs(1, 0).is_empty());
    }

    #[test]
    fn aux_stream_independent_of_node_zero() {
        let mut aux = aux_rng(42, 0);
        let mut node = node_rng(42, 0);
        // Not a strong independence test — just that they are not the same
        // stream.
        let same = (0..8).all(|_| aux.gen::<u64>() == node.gen::<u64>());
        assert!(!same);
    }

    #[test]
    fn pcg_state_round_trips_mid_stream() {
        let mut rng = node_rng(42, 3);
        for _ in 0..5 {
            rng.gen::<u64>();
        }
        let mut restored = pcg_from_state(pcg_state(&rng));
        for _ in 0..16 {
            assert_eq!(rng.gen::<u64>(), restored.gen::<u64>());
        }
    }

    #[test]
    fn advance_steps_equals_sequential_draws() {
        // Pins the jump-ahead against the vendored generator: advancing by
        // k must land on exactly the state reached by k next_u64 calls (and
        // hence pins PCG_MULTIPLIER against the vendored constant).
        for k in [0u128, 1, 2, 3, 7, 64, 1000, 123_457] {
            let mut jumped = node_rng(42, 5);
            let mut walked = node_rng(42, 5);
            advance_steps(&mut jumped, k);
            for _ in 0..k {
                walked.gen::<u64>();
            }
            assert_eq!(pcg_state(&jumped), pcg_state(&walked), "k={k}");
            assert_eq!(jumped.gen::<u64>(), walked.gen::<u64>(), "k={k}");
        }
    }

    #[test]
    fn advance_steps_composes() {
        // Jumping a+b equals jumping a then b — the property the frontier
        // engine relies on when a settled node is ticked across several
        // disturbance epochs.
        let mut once = node_rng(7, 0);
        let mut twice = node_rng(7, 0);
        advance_steps(&mut once, 1000 + 37);
        advance_steps(&mut twice, 1000);
        advance_steps(&mut twice, 37);
        assert_eq!(pcg_state(&once), pcg_state(&twice));
    }

    #[test]
    fn bernoulli_rate_sane() {
        // Sanity: gen_bool(0.25) over many draws lands near 0.25.
        let mut rng = node_rng(7, 3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits={hits}");
    }
}
