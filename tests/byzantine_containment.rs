//! Tier-1 acceptance tests for Byzantine containment (`DESIGN.md`
//! "Byzantine faults and containment"): on every tested family and size, a
//! single stuck beeper or fair babbler disrupts at most its radius-2
//! neighborhood once the `O(ℓmax)` burn-in horizon has passed — the rest of
//! the network stabilizes and the run certifies `disruption_radius ≤ 2`.

use beeping_mis::prelude::*;
use graphs::generators::GraphFamily;
use graphs::Graph;
use mis::containment::run_contained;
use mis::theory::burn_in_horizon;

fn max_degree_node(g: &Graph) -> usize {
    g.nodes().max_by_key(|&v| g.neighbors(v).len()).unwrap_or(0)
}

fn families() -> Vec<GraphFamily> {
    vec![GraphFamily::Cycle, GraphFamily::Gnp { avg_degree: 8.0 }, GraphFamily::Regular { d: 4 }]
}

/// Asserts containment at radius ≤ 2 for one behavior on every family and
/// both acceptance sizes, with the Byzantine node at the maximum-degree
/// vertex (the placement hardest on a radius bound).
fn assert_contained(behavior: ByzantineBehavior<i32>, sim_seed: u64) {
    for n in [256usize, 1024] {
        for (i, family) in families().iter().enumerate() {
            let g = family.generate(n, 0x6000 + i as u64);
            let algo = mis::Algorithm1::new(&g, mis::LmaxPolicy::global_delta(&g));
            let site = max_degree_node(&g);
            let plan = ByzantinePlan::new().with_behavior(site, behavior.clone());
            let config = RunConfig::new(sim_seed).with_max_rounds(200_000).with_byzantine(plan);
            let burn_in = burn_in_horizon(algo.policy());
            let outcome = run_contained(&g, &algo, &config, 2, burn_in, false).unwrap();
            assert!(
                outcome.is_contained(),
                "{} not contained on {family} n={n}: final radius {} after {} rounds",
                behavior.label(),
                outcome.final_radius,
                outcome.rounds_run,
            );
            assert!(outcome.final_radius <= 2);
            assert!(outcome.contained_round.unwrap() >= burn_in_horizon(algo.policy()));
            assert!(!outcome.correct_mis[site], "the byzantine site is never certified");
        }
    }
}

#[test]
fn stuck_beeper_contained_within_radius_two() {
    assert_contained(ByzantineBehavior::StuckBeep, 11);
}

#[test]
fn babbler_contained_within_radius_two() {
    assert_contained(ByzantineBehavior::Babbler(0.5), 12);
}
