//! End-to-end integration: every algorithm on every workload family.

use beeping_mis::prelude::*;
use graphs::generators::{
    classic, composite, geometric, lattice, random, scale_free, small_world, trees,
};
use graphs::Graph;

fn workload_zoo() -> Vec<(&'static str, Graph)> {
    vec![
        ("path", classic::path(40)),
        ("cycle", classic::cycle(41)),
        ("complete", classic::complete(20)),
        ("star", classic::star(40)),
        ("wheel", classic::wheel(30)),
        ("bipartite", classic::complete_bipartite(10, 15)),
        ("grid", lattice::grid(7, 8)),
        ("torus", lattice::torus(6, 7)),
        ("hypercube", lattice::hypercube(6)),
        ("king", lattice::king_grid(6, 6)),
        ("gnp", random::gnp(120, 0.06, 1)),
        ("gnm", random::gnm(100, 300, 2).unwrap()),
        ("regular", random::random_regular(60, 4, 3).unwrap()),
        ("bip-rand", random::random_bipartite(30, 30, 0.1, 4)),
        ("geometric", geometric::random_geometric_expected_degree(150, 7.0, 5)),
        ("ba", scale_free::barabasi_albert(120, 3, 6).unwrap()),
        ("chung-lu", scale_free::chung_lu_power_law(100, 2.5, 5.0, 7).unwrap()),
        ("ws", small_world::watts_strogatz(80, 4, 0.2, 8).unwrap()),
        ("rec-tree", trees::random_recursive_tree(90, 9)),
        ("prufer", trees::random_prufer_tree(90, 10)),
        ("kary", trees::kary_tree(60, 3)),
        ("caterpillar", trees::caterpillar(12, 3)),
        ("spider", trees::spider(6, 8)),
        ("star-cliques", composite::star_of_cliques(8, 6)),
        ("clique-chain", composite::clique_chain(6, 7)),
        ("lollipop", composite::lollipop(12, 20)),
        ("broom", composite::broom(20, 15)),
        ("isolated", Graph::empty(25)),
        ("mixed", classic::path(10).disjoint_union(&classic::complete(8))),
    ]
}

#[test]
fn algorithm1_all_policies_all_workloads() {
    for (name, g) in workload_zoo() {
        for policy in [
            LmaxPolicy::global_delta(&g),
            LmaxPolicy::own_degree(&g),
            LmaxPolicy::two_hop_degree(&g),
        ] {
            let pname = policy.name().to_string();
            let algo = Algorithm1::new(&g, policy);
            let outcome = algo
                .run(&g, RunConfig::new(11).with_init(InitialLevels::Random))
                .unwrap_or_else(|e| panic!("{name}/{pname}: {e}"));
            assert!(
                graphs::mis::is_maximal_independent_set(&g, &outcome.mis),
                "{name}/{pname} produced a non-MIS"
            );
        }
    }
}

#[test]
fn algorithm2_all_workloads() {
    for (name, g) in workload_zoo() {
        let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
        let outcome = algo
            .run(&g, RunConfig::new(13).with_init(InitialLevels::Random))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            graphs::mis::is_maximal_independent_set(&g, &outcome.mis),
            "{name} produced a non-MIS"
        );
    }
}

#[test]
fn baselines_all_workloads() {
    for (name, g) in workload_zoo() {
        let jsx = baselines::JsxMis::new()
            .run_clean(&g, 17, 2_000_000)
            .unwrap_or_else(|e| panic!("jsx did not terminate on {name}: {e}"));
        assert!(graphs::mis::is_maximal_independent_set(&g, &jsx.mis), "jsx on {name}");

        let afek = baselines::AfekStyleMis::new(g.len().max(2))
            .run(&g, 17, 5_000_000)
            .unwrap_or_else(|e| panic!("afek did not terminate on {name}: {e}"));
        assert!(graphs::mis::is_maximal_independent_set(&g, &afek.mis), "afek on {name}");

        let (luby, _) = baselines::luby_mis(&g, 17, 1_000_000)
            .unwrap_or_else(|| panic!("luby did not terminate on {name}"));
        assert!(graphs::mis::is_maximal_independent_set(&g, &luby), "luby on {name}");

        let greedy = graphs::mis::greedy_mis(&g);
        assert!(graphs::mis::is_maximal_independent_set(&g, &greedy), "greedy on {name}");
    }
}

#[test]
fn deterministic_across_reconstruction() {
    // Rebuilding graph + algorithm from scratch with the same seeds gives
    // bit-identical outcomes.
    let make = || {
        let g = random::gnp(80, 0.1, 5);
        let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
        let o = algo.run(&g, RunConfig::new(23)).unwrap();
        (o.mis, o.stabilization_round, o.levels)
    };
    assert_eq!(make(), make());
}

#[test]
fn outcome_mis_matches_final_levels() {
    let g = random::gnp(60, 0.1, 6);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let outcome = algo.run(&g, RunConfig::new(3)).unwrap();
    assert_eq!(outcome.mis, algo.mis_members(&g, &outcome.levels));
    assert!(algo.is_stabilized(&g, &outcome.levels));
}

#[test]
fn all_initial_regimes_agree_on_validity() {
    let g = scale_free::barabasi_albert(100, 2, 2).unwrap();
    let algo = Algorithm1::new(&g, LmaxPolicy::own_degree(&g));
    for init in [
        InitialLevels::Random,
        InitialLevels::AllMax,
        InitialLevels::AllClaiming,
        InitialLevels::AllOne,
        InitialLevels::Custom((0..100).map(|v| v as i64 % 7 - 3).collect()),
    ] {
        let outcome = algo
            .run(&g, RunConfig::new(5).with_init(init.clone()))
            .unwrap_or_else(|e| panic!("{init:?}: {e}"));
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis), "{init:?}");
    }
}

#[test]
fn trace_round_accounting() {
    let g = classic::cycle(30);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let outcome = algo.run(&g, RunConfig::new(2)).unwrap();
    assert_eq!(outcome.trace.len() as u64, outcome.rounds_run);
    // Rounds are numbered 1..=rounds_run.
    let rounds: Vec<u64> = outcome.trace.reports().iter().map(|r| r.round).collect();
    assert_eq!(rounds, (1..=outcome.rounds_run).collect::<Vec<_>>());
    // After stabilization every MIS member beeps every round, so the last
    // round must have at least |MIS| beeps.
    let mis_size = outcome.mis.iter().filter(|&&m| m).count();
    assert!(outcome.trace.reports().last().unwrap().beeps_channel1 >= mis_size);
}

#[test]
fn facade_prelude_surface_compiles_and_runs() {
    // Exercise every name exported through the prelude.
    let g: Graph = GraphBuilder::new(3).build();
    assert!(g.is_empty() || g.len() == 3);
    let _ = Channels::One;
    let _ = BeepSignal::silent();
    let plan = FaultPlan::new().with_fault(1, beeping::faults::FaultTarget::All);
    assert_eq!(plan.events().len(), 1);
    let _ = TransientFault::new(0, beeping::faults::FaultTarget::All);
    let report = RoundReport::default();
    assert_eq!(report.round, 0);
    let err = StabilizationError { max_rounds: 1, stable_count: 0, n: 1 };
    assert!(!err.to_string().is_empty());
}
