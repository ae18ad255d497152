//! Integration tests of the extension features: the adaptive
//! knowledge-free variant, the constant-state baseline, adversarial
//! wake-up, the Stone Age embedding, and the half-duplex ablation —
//! exercised together through the facade crate.

use baselines::stone_age::BeepingInStoneAge;
use baselines::TwoStateMis;
use beeping::sim::DuplexMode;
use beeping::sleep::{Sleepy, SleepyState};
use beeping_mis::prelude::*;
use graphs::generators::{classic, composite, random};
use mis::adaptive::{AdaptiveMis, AdaptiveState};
use mis::levels::Level;
use mis::runner::initial_levels;

#[test]
fn adaptive_matches_knowledge_based_outcomes_in_validity() {
    let g = random::gnp(120, 0.08, 1);
    let adaptive = AdaptiveMis::new();
    let knowledge = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    for seed in 0..5 {
        let a_mis = adaptive.run_random_init(&g, seed, 2_000_000).expect("adaptive").mis;
        let outcome = knowledge.run(&g, RunConfig::new(seed)).expect("knowledge");
        assert!(graphs::mis::is_maximal_independent_set(&g, &a_mis));
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    }
}

#[test]
fn adaptive_survives_fault_bursts() {
    // Corrupt levels AND caps mid-run; the variant must re-stabilize.
    let g = random::gnp(80, 0.1, 2);
    let adaptive = AdaptiveMis::new();
    let init: Vec<AdaptiveState> = (0..80).map(|_| AdaptiveState::fresh()).collect();
    let stable = adaptive.run_from(&g, init, 5, 2_000_000).expect("first stabilization");
    let mut rng = beeping::rng::aux_rng(5, 0xFE);
    let corrupted: Vec<AdaptiveState> = stable
        .levels
        .iter()
        .map(|_| {
            AdaptiveState::sanitized(
                rand::Rng::gen_range(&mut rng, -100i64..100),
                rand::Rng::gen_range(&mut rng, -10i64..100),
            )
        })
        .collect();
    let recovered = adaptive
        .run_from(&g, corrupted, 6, 4_000_000)
        .expect("re-stabilization after full corruption");
    assert!(graphs::mis::is_maximal_independent_set(&g, &recovered.mis));
}

#[test]
fn two_state_and_alg1_agree_on_small_worst_cases() {
    for g in [
        classic::complete(12),
        classic::complete_bipartite(8, 8),
        composite::star_of_cliques(4, 5),
        classic::star(25),
    ] {
        let two_state = TwoStateMis::new();
        let mis2 = two_state.run_random_init(&g, 7, 10_000_000).expect("2-state").mis;
        assert!(graphs::mis::is_maximal_independent_set(&g, &mis2));
        let alg1 = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let o = alg1.run(&g, RunConfig::new(7)).expect("alg1");
        assert!(graphs::mis::is_maximal_independent_set(&g, &o.mis));
    }
}

#[test]
fn sleepy_wrapped_algorithm1_stabilizes_after_staggered_wakeup() {
    let g = random::gnp(100, 0.08, 4);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = RunConfig::new(9);
    let levels: Vec<Level> = initial_levels(&algo, &config);
    let init: Vec<SleepyState<Level>> = levels
        .iter()
        .enumerate()
        .map(|(v, &l)| SleepyState::new((v as u64 * 7) % 500, l))
        .collect();
    let mut sim = beeping::Simulator::new(&g, Sleepy::new(algo.clone()), init, 9);
    let inner = |states: &[SleepyState<Level>]| -> Vec<Level> {
        states.iter().map(|st| st.inner).collect()
    };
    while !(sim.states().iter().all(SleepyState::is_awake)
        && algo.is_stabilized(&g, &inner(sim.states())))
    {
        assert!(sim.round() < 1_000_000, "not stabilized");
        sim.step();
    }
    let ls = inner(sim.states());
    assert!(graphs::mis::is_maximal_independent_set(&g, &algo.mis_members(&g, &ls)));
}

#[test]
fn stone_age_embedding_full_pipeline() {
    // The facade-level variant of the bit-identical test: run both
    // executors to stabilization and compare the final MIS.
    let g = random::gnp(70, 0.1, 6);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let native = algo.run(&g, RunConfig::new(13)).expect("native");

    let config = RunConfig::new(13);
    let init = initial_levels(&algo, &config);
    let mut stone = BeepingInStoneAge::new(algo.clone()).into_simulator(&g, init, 13);
    let done = stone.run_until(1_000_000, |levels| algo.is_stabilized(&g, levels));
    assert_eq!(done, Some(native.stabilization_round));
    assert_eq!(algo.mis_members(&g, stone.states()), native.mis);
}

#[test]
fn half_duplex_breaks_exactly_the_join_rule() {
    // Single edge, both claiming: under full duplex the conflict resolves;
    // under half duplex both stay committed forever.
    let g = classic::path(2);
    let algo = Algorithm1::new(&g, LmaxPolicy::fixed(2, 5));

    let full = RunConfig::new(3).with_init(InitialLevels::Custom(vec![-5, -5]));
    let resolved = algo.run(&g, full.with_max_rounds(100_000));
    assert!(resolved.is_ok(), "full duplex resolves the double claim");

    let mut half =
        beeping::Simulator::new(&g, algo.clone(), vec![-5, -5], 3).with_duplex(DuplexMode::Half);
    half.run(5_000);
    assert_eq!(half.states(), &[-5, -5], "half duplex: both blind claimants stay frozen at -ℓmax");
}

#[test]
fn extensions_do_not_perturb_core_determinism() {
    // Wrapping and unwrapping through extension layers must not change the
    // core algorithm's outcomes for the same seed.
    let g = random::gnp(60, 0.1, 8);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let a = algo.run(&g, RunConfig::new(21)).unwrap();
    let b = algo.run(&g, RunConfig::new(21)).unwrap();
    assert_eq!(a.mis, b.mis);
    assert_eq!(a.stabilization_round, b.stabilization_round);
}
