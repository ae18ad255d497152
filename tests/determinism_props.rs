//! Determinism regression properties (see DESIGN.md §"Determinism &
//! invariants"): for a fixed seed, every algorithm's execution — per-round
//! trace included — is bit-identical across runs, with and without channel
//! noise, and every graph generator is a pure function of its seed.
//!
//! These properties are what lint rule L1 enforces statically; this file is
//! the dynamic witness. The Watts–Strogatz case is a true regression: its
//! rewiring loop once iterated a `HashSet` to drive the RNG, so the same
//! seed produced different graphs.

use baselines::jeavons::JsxMis;
use baselines::{luby_mis, AfekStyleMis};
use beeping::channel::ChannelFault;
use beeping_mis::prelude::*;
use graphs::generators::{random, small_world};
use mis::adaptive::AdaptiveMis;
use mis::runner::run_with_history;
use proptest::prelude::*;

/// Byte-exact comparison via the full `Debug` representation, covering
/// every field of an outcome (trace, levels, MIS, round counts, history).
fn debug_repr<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn algorithm1_runs_are_bit_identical(seed in 0u64..512, n in 8usize..28) {
        let g = random::gnp(n, 0.15, seed ^ 0xA5A5);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let run = || {
            run_with_history(&g, &algo, RunConfig::new(seed).with_init(InitialLevels::Random))
        };
        prop_assert_eq!(debug_repr(&run()), debug_repr(&run()));
    }

    #[test]
    fn algorithm2_runs_are_bit_identical(seed in 0u64..512, n in 8usize..28) {
        let g = random::gnp(n, 0.15, seed ^ 0x5A5A);
        let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
        let run = || {
            run_with_history(&g, &algo, RunConfig::new(seed).with_init(InitialLevels::Random))
        };
        prop_assert_eq!(debug_repr(&run()), debug_repr(&run()));
    }

    #[test]
    fn algorithm1_trace_is_bit_identical_under_noise(seed in 0u64..512, n in 8usize..24) {
        let g = random::gnp(n, 0.2, seed);
        let algo = Algorithm1::new(&g, LmaxPolicy::own_degree(&g));
        let run = |channel: ChannelFault| {
            let mut sim = Simulator::new(&g, algo.clone(), vec![1; n], seed).with_channel(channel);
            let reports: Vec<RoundReport> = (0..120).map(|_| sim.step()).collect();
            (reports, sim.into_states())
        };
        let noise = ChannelFault::reliable().with_drop(0.2).with_spurious(0.02);
        prop_assert_eq!(run(noise.clone()), run(noise));
        prop_assert_eq!(run(ChannelFault::reliable()), run(ChannelFault::reliable()));
    }

    #[test]
    fn algorithm2_trace_is_bit_identical_under_noise(seed in 0u64..512, n in 8usize..24) {
        let g = random::gnp(n, 0.2, seed);
        let algo = Algorithm2::new(&g, LmaxPolicy::global_delta(&g));
        let run = |channel: ChannelFault| {
            let mut sim = Simulator::new(&g, algo.clone(), vec![1; n], seed).with_channel(channel);
            let reports: Vec<RoundReport> = (0..120).map(|_| sim.step()).collect();
            (reports, sim.into_states())
        };
        let noise = ChannelFault::reliable().with_drop(0.15).with_spurious(0.05);
        prop_assert_eq!(run(noise.clone()), run(noise));
        prop_assert_eq!(run(ChannelFault::reliable()), run(ChannelFault::reliable()));
    }

    #[test]
    fn baseline_runs_are_bit_identical(seed in 0u64..512) {
        let g = random::gnp(40, 0.1, seed);
        let jsx = JsxMis::new();
        prop_assert_eq!(
            debug_repr(&jsx.run_clean(&g, seed, 100_000)),
            debug_repr(&jsx.run_clean(&g, seed, 100_000))
        );
        let afek = AfekStyleMis::new(40);
        prop_assert_eq!(
            debug_repr(&afek.run(&g, seed, 100_000)),
            debug_repr(&afek.run(&g, seed, 100_000))
        );
        prop_assert_eq!(
            debug_repr(&luby_mis(&g, seed, 100_000)),
            debug_repr(&luby_mis(&g, seed, 100_000))
        );
        let adaptive = AdaptiveMis::new();
        prop_assert_eq!(
            debug_repr(&adaptive.run_random_init(&g, seed, 100_000)),
            debug_repr(&adaptive.run_random_init(&g, seed, 100_000))
        );
    }

    #[test]
    fn generators_are_seed_deterministic(seed in 0u64..1024) {
        prop_assert_eq!(random::gnp(50, 0.1, seed), random::gnp(50, 0.1, seed));
        prop_assert_eq!(
            random::gnm(50, 100, seed).unwrap(),
            random::gnm(50, 100, seed).unwrap()
        );
        // Dense G(n, m): the complement-sampling branch.
        prop_assert_eq!(
            random::gnm(30, 400, seed).unwrap(),
            random::gnm(30, 400, seed).unwrap()
        );
        prop_assert_eq!(
            random::random_regular(50, 4, seed).unwrap(),
            random::random_regular(50, 4, seed).unwrap()
        );
        prop_assert_eq!(
            small_world::watts_strogatz(50, 4, 0.3, seed).unwrap(),
            small_world::watts_strogatz(50, 4, 0.3, seed).unwrap()
        );
    }
}
