//! Property-based tests across the baseline algorithms.

use baselines::stone_age::BeepingInStoneAge;
use baselines::{luby_mis, AfekStyleMis, JsxMis, TwoStateMis};
use graphs::{Graph, GraphBuilder};
use mis::runner::{initial_levels, RunConfig};
use mis::{Algorithm1, LmaxPolicy};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..24).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..60).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(u, v).unwrap();
                }
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// JSX from its clean start always terminates with a valid MIS.
    #[test]
    fn jsx_clean_valid(g in arb_graph(), seed in 0u64..200) {
        let mis = JsxMis::new().run_clean(&g, seed, 5_000_000).expect("terminates").mis;
        prop_assert!(graphs::mis::is_maximal_independent_set(&g, &mis));
    }

    /// The Afek-style epoch algorithm always terminates with a valid MIS.
    #[test]
    fn afek_valid(g in arb_graph(), seed in 0u64..200) {
        let algo = AfekStyleMis::new(g.len().max(2));
        let mis = algo.run(&g, seed, 10_000_000).expect("terminates").mis;
        prop_assert!(graphs::mis::is_maximal_independent_set(&g, &mis));
    }

    /// Luby always terminates with a valid MIS.
    #[test]
    fn luby_valid(g in arb_graph(), seed in 0u64..200) {
        let (mis, iters) = luby_mis(&g, seed, 1_000_000).expect("terminates");
        prop_assert!(graphs::mis::is_maximal_independent_set(&g, &mis));
        // O(log n) w.h.p.; at n ≤ 24 anything beyond 200 iterations would
        // be absurd.
        prop_assert!(iters <= 200);
    }

    /// The constant-state protocol stabilizes to a valid MIS from random
    /// states on these small graphs.
    #[test]
    fn two_state_valid(g in arb_graph(), seed in 0u64..100) {
        let algo = TwoStateMis::new();
        let mis = algo.run_random_init(&g, seed, 10_000_000).expect("stabilizes").mis;
        prop_assert!(graphs::mis::is_maximal_independent_set(&g, &mis));
    }

    /// The Stone Age embedding is bit-identical to the native beeping
    /// simulator on arbitrary graphs, seeds and initial levels.
    #[test]
    fn stone_age_embedding_equivalence(g in arb_graph(), seed in 0u64..200) {
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let config = RunConfig::new(seed);
        let init = initial_levels(&algo, &config);
        let mut native = beeping::Simulator::new(&g, algo.clone(), init.clone(), seed);
        let mut stone = BeepingInStoneAge::new(algo.clone()).into_simulator(&g, init, seed);
        for round in 1..=120u64 {
            native.step();
            stone.step();
            prop_assert_eq!(native.states(), stone.states(), "round {}", round);
        }
    }

    /// All five distributed algorithms agree with greedy on *size bounds*:
    /// every MIS size lies in [n/(Δ+1), n].
    #[test]
    fn mis_sizes_within_theoretical_bounds(g in arb_graph(), seed in 0u64..50) {
        let n = g.len();
        let delta = g.max_degree();
        let lower = n.div_ceil(delta + 1);
        let check = |mis: &[bool], name: &str| {
            let size = graphs::mis::size(mis);
            prop_assert!(size >= lower, "{name}: size {size} below n/(Δ+1) = {lower}");
            prop_assert!(size <= n);
            Ok(())
        };
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        check(&mis::runner::run(&g, &algo, RunConfig::new(seed)).unwrap().mis, "alg1")?;
        check(&JsxMis::new().run_clean(&g, seed, 5_000_000).unwrap().mis, "jsx")?;
        check(&luby_mis(&g, seed, 1_000_000).unwrap().0, "luby")?;
        check(&graphs::mis::greedy_mis(&g), "greedy")?;
    }
}
