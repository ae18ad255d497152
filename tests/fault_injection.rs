//! Fault-injection integration tests: the paper's transient-fault model
//! exercised end to end, plus the Byzantine layer riding on the same
//! simulator (`DESIGN.md` "Byzantine faults and containment").

use beeping::faults::{FaultPlan, FaultTarget};
use beeping_mis::prelude::*;
use graphs::generators::{classic, random};
use mis::containment::{
    byz_distances, disruption_radius, disruption_radius_with, run_contained, stabilized_except,
};
use mis::runner::{initial_levels, run_recovery};
use mis::theory::burn_in_horizon;
use proptest::prelude::*;

#[test]
fn scheduled_fault_plan_still_stabilizes() {
    let g = random::gnp(80, 0.1, 1);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let faults = FaultPlan::new()
        .with_fault(0, FaultTarget::All) // corrupt the initial configuration
        .with_fault(25, FaultTarget::RandomFraction(0.3))
        .with_fault(50, FaultTarget::RandomCount(5))
        .with_fault(75, FaultTarget::Nodes(vec![0, 1, 2]));
    let outcome = algo
        .run(&g, RunConfig::new(4).with_faults(faults))
        .expect("stabilizes after the last fault");
    assert!(outcome.rounds_run >= 75);
    assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
}

#[test]
fn fault_after_stabilization_forces_rework() {
    // A fault scheduled far in the future: the system first stabilizes,
    // then must re-stabilize. stabilization_round counts from the fault.
    let g = random::gnp(60, 0.1, 2);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    // First find the fault-free stabilization time.
    let free = algo.run(&g, RunConfig::new(9)).unwrap();
    let fault_round = free.stabilization_round + 50;
    let faults = FaultPlan::new().with_fault(fault_round, FaultTarget::All);
    let outcome = algo.run(&g, RunConfig::new(9).with_faults(faults)).unwrap();
    assert_eq!(outcome.rounds_run, fault_round + outcome.stabilization_round);
    assert!(outcome.stabilization_round > 0, "full corruption requires recovery work");
    assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
}

#[test]
fn single_node_fault_on_stable_path_recovers_locally() {
    // Deterministic micro-scenario: stable path 0-1-2 with 1 in the MIS;
    // corrupt the MIS node to ℓmax (it abandons the MIS). The system must
    // re-elect someone.
    let g = classic::path(3);
    let algo = Algorithm1::new(&g, LmaxPolicy::fixed(3, 6));
    let mut sim = beeping::Simulator::new(&g, algo.clone(), vec![6, -6, 6], 1);
    assert!(algo.is_stabilized(&g, sim.states()));
    sim.corrupt_state(1, 6);
    let recovered = sim.run_until(100_000, |s| algo.is_stabilized(s.graph(), s.states()));
    assert!(recovered.is_some());
    let mis = algo.mis_members(&g, sim.states());
    assert!(graphs::mis::is_maximal_independent_set(&g, &mis));
}

#[test]
fn corrupting_a_non_mis_node_to_claiming_state_is_detected() {
    // Corrupt a silenced neighbor to "claiming" (-ℓmax): it starts beeping
    // next to the true MIS node; the conflict must resolve to a valid MIS.
    let g = classic::path(3);
    let algo = Algorithm1::new(&g, LmaxPolicy::fixed(3, 6));
    let mut sim = beeping::Simulator::new(&g, algo.clone(), vec![6, -6, 6], 2);
    sim.corrupt_state(0, -6);
    let recovered = sim.run_until(100_000, |s| algo.is_stabilized(s.graph(), s.states()));
    assert!(recovered.is_some());
    let mis = algo.mis_members(&g, sim.states());
    assert!(graphs::mis::is_maximal_independent_set(&g, &mis));
}

#[test]
fn repeated_recovery_is_stable_across_fault_scales() {
    let g = random::gnp(100, 0.08, 3);
    for algo_policy in [LmaxPolicy::global_delta(&g), LmaxPolicy::own_degree(&g)] {
        let algo = Algorithm1::new(&g, algo_policy);
        for (seed, target) in [
            (1, FaultTarget::RandomCount(1)),
            (2, FaultTarget::RandomFraction(0.25)),
            (3, FaultTarget::RandomFraction(0.75)),
            (4, FaultTarget::All),
        ] {
            let rec = run_recovery(&g, &algo, seed, target, 1_000_000).expect("recovers");
            assert!(graphs::mis::is_maximal_independent_set(&g, &rec.mis));
            assert!(rec.recovery_rounds > 0);
        }
    }
}

#[test]
fn two_channel_recovery() {
    let g = random::gnp(100, 0.08, 5);
    let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
    let rec = run_recovery(&g, &algo, 7, FaultTarget::All, 1_000_000).expect("recovers");
    assert!(graphs::mis::is_maximal_independent_set(&g, &rec.mis));
}

#[test]
fn fault_plan_on_two_channel_algorithm() {
    let g = random::gnp(60, 0.1, 8);
    let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
    let faults = FaultPlan::new().with_fault(10, FaultTarget::RandomFraction(0.5));
    let outcome = algo.run(&g, RunConfig::new(1).with_faults(faults)).unwrap();
    assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
}

#[test]
fn corrupt_all_is_equivalent_to_arbitrary_restart() {
    // Corrupting every node to a specific configuration and continuing is
    // the same process as starting fresh from that configuration with the
    // same RNG offset — the protocol has no hidden state outside the
    // levels.
    let g = random::gnp(40, 0.1, 9);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let target = vec![3; 40];

    let mut sim_a = beeping::Simulator::new(&g, algo.clone(), vec![1; 40], 42);
    sim_a.run(10);
    sim_a.corrupt_all(|_, s| *s = 3);
    // RNG streams of sim_a have consumed 10 rounds; replicate in sim_b.
    let mut sim_b = beeping::Simulator::new(&g, algo.clone(), vec![1; 40], 42);
    sim_b.run(10);
    sim_b.corrupt_all(|_, s| *s = 3);
    assert_eq!(sim_a.states(), target.as_slice());
    for _ in 0..50 {
        sim_a.step();
        sim_b.step();
        assert_eq!(sim_a.states(), sim_b.states());
    }
}

#[test]
fn channel2_liar_never_certifies_false_mis() {
    // Path 0-1-2-3-4 with a channel-2 liar at the center: the liar's
    // persistent membership beep may silence its neighbors, but the
    // certificate on the correct subgraph must stay a real partial MIS —
    // independent, liar-free, and covering every node outside the liar's
    // radius-1 neighborhood.
    let g = classic::path(5);
    let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
    let plan = ByzantinePlan::new().with_behavior(2, ByzantineBehavior::Channel2Liar);
    let config = RunConfig::new(3).with_max_rounds(50_000).with_byzantine(plan);
    let burn_in = burn_in_horizon(algo.policy());
    let outcome = run_contained(&g, &algo, &config, 1, burn_in, false).unwrap();
    assert!(outcome.is_contained(), "final radius {}", outcome.final_radius);
    assert!(!outcome.correct_mis[2], "the liar itself is never certified");
    for (u, v) in g.edges() {
        assert!(
            !(outcome.correct_mis[u] && outcome.correct_mis[v]),
            "certified set not independent at edge ({u},{v})"
        );
    }
    for v in [0usize, 4] {
        assert!(
            outcome.correct_mis[v]
                || g.neighbors(v).iter().any(|&u| outcome.correct_mis[u as usize]),
            "correct node {v} (distance 2 from the liar) left uncovered"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn empty_byzantine_plan_is_bit_identical_to_baseline(seed in 0u64..256, n in 8usize..24) {
        // An empty plan must not perturb any RNG stream: every round
        // report and every state is bit-identical to the reliable run.
        let g = random::gnp(n, 0.15, seed ^ 0x0B12);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let mut plain = Simulator::new(&g, algo.clone(), vec![1; g.len()], seed);
        let mut byz = Simulator::new(&g, algo.clone(), vec![1; g.len()], seed)
            .with_byzantine(ByzantinePlan::new());
        for _ in 0..60 {
            let a = plain.step();
            let b = byz.step();
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            prop_assert_eq!(plain.states(), byz.states());
        }
    }

    #[test]
    fn disruption_radius_is_zero_whenever_stabilized(seed in 0u64..256, n in 8usize..24) {
        // Quantifier-restriction semantics: a fully stabilized
        // configuration has radius 0 regardless of where the (hypothetical)
        // byzantine sites sit — including nowhere.
        let g = random::gnp(n, 0.15, seed ^ 0x7E57);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let outcome = algo.run(&g, RunConfig::new(seed)).expect("stabilizes");
        let active = vec![true; g.len()];
        let site = seed as usize % g.len();
        prop_assert_eq!(disruption_radius(&algo, &g, &outcome.levels, &active, &[site]), 0);
        prop_assert_eq!(disruption_radius(&algo, &g, &outcome.levels, &active, &[]), 0);
    }

    #[test]
    fn radius_is_the_least_radius_certified_by_stabilized_except(
        seed in 0u64..256,
        n in 8usize..20,
    ) {
        // disruption_radius ≤ r ⟺ stabilized_except(r), on arbitrary
        // (random, typically unstable) configurations.
        let g = random::gnp(n, 0.2, seed);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let levels = initial_levels(
            &algo,
            &RunConfig::new(seed).with_init(InitialLevels::Random),
        );
        let active = vec![true; g.len()];
        let dist = byz_distances(&g, &[seed as usize % g.len()]);
        let r = disruption_radius_with(&algo, &g, &levels, &active, &dist);
        for radius in 0..g.len() {
            prop_assert_eq!(
                stabilized_except(&algo, &g, &levels, &active, &dist, radius),
                radius >= r
            );
        }
    }
}
