//! Deterministic micro-scenarios: hand-checkable executions on tiny graphs
//! exercising every corner of the update rules.

use beeping::protocol::BeepSignal;
use beeping::rng::node_rng;
use beeping::{BeepingProtocol, Simulator};
use graphs::generators::classic;
use graphs::Graph;
use mis::levels::Level;
use mis::runner::{InitialLevels, RunConfig};
use mis::{Algorithm1, Algorithm2, LmaxPolicy};

/// Exhaustive single-step check of Algorithm 1's `receive` against the
/// pseudocode, over the full state space of a small ℓmax.
#[test]
fn algorithm1_receive_matches_pseudocode_exhaustively() {
    let g = classic::path(2);
    let lmax = 4;
    let algo = Algorithm1::new(&g, LmaxPolicy::fixed(2, lmax));
    let mut rng = node_rng(0, 0);
    for level in -lmax..=lmax {
        for beeped in [false, true] {
            for heard in [false, true] {
                let mut l = level;
                algo.receive(
                    0,
                    &mut l,
                    if beeped { BeepSignal::channel1() } else { BeepSignal::silent() },
                    if heard { BeepSignal::channel1() } else { BeepSignal::silent() },
                    &mut rng,
                );
                let expected = if heard {
                    (level + 1).min(lmax)
                } else if beeped {
                    -lmax
                } else {
                    (level - 1).max(1)
                };
                assert_eq!(l, expected, "ℓ={level} beeped={beeped} heard={heard}");
            }
        }
    }
}

/// Exhaustive single-step check of Algorithm 2's `receive`.
#[test]
fn algorithm2_receive_matches_pseudocode_exhaustively() {
    let g = classic::path(2);
    let lmax = 4;
    let algo = Algorithm2::new(&g, LmaxPolicy::fixed(2, lmax));
    let mut rng = node_rng(0, 0);
    for level in 0..=lmax {
        for s1 in [false, true] {
            for s2 in [false, true] {
                for h1 in [false, true] {
                    for h2 in [false, true] {
                        let mut l = level;
                        algo.receive(
                            0,
                            &mut l,
                            BeepSignal::new(s1, s2),
                            BeepSignal::new(h1, h2),
                            &mut rng,
                        );
                        let expected = if h2 {
                            lmax
                        } else if h1 {
                            (level + 1).min(lmax)
                        } else if s1 {
                            0
                        } else if !s2 {
                            (level - 1).max(1)
                        } else {
                            level
                        };
                        assert_eq!(l, expected, "ℓ={level} s1={s1} s2={s2} h1={h1} h2={h2}");
                    }
                }
            }
        }
    }
}

/// On an isolated vertex, Algorithm 1 deterministically decays from ℓmax
/// to 1, then joins the MIS on its first (certain at ℓ ≤ 0 … but at ℓ = 1
/// it is a coin flip) lone beep, and never leaves.
#[test]
fn isolated_vertex_lifecycle() {
    let g = Graph::empty(1);
    let lmax = 5;
    let algo = Algorithm1::new(&g, LmaxPolicy::fixed(1, lmax));
    let mut sim = Simulator::new(&g, algo.clone(), vec![lmax], 7);
    // Decay phase: ℓmax → 1 takes ℓmax - 1 silent rounds, deterministically
    // (beep probability en route is < 1 but a beep just accelerates the
    // join; check levels stay in the corridor).
    while *sim.state(0) != -lmax {
        assert!(sim.round() < 1_000, "never joined");
        sim.step();
    }
    assert!(sim.round() >= 1);
    // Fixpoint: beeps forever, stays at -ℓmax.
    for _ in 0..20 {
        let report = sim.step();
        assert_eq!(report.beeps_channel1, 1);
        assert_eq!(*sim.state(0), -lmax);
    }
    assert!(algo.is_stabilized(&g, sim.states()));
}

/// Two isolated vertices stabilize independently and both join.
#[test]
fn disconnected_components_stabilize_independently() {
    let g = Graph::empty(2);
    let algo = Algorithm1::new(&g, LmaxPolicy::fixed(2, 4));
    let config = RunConfig::new(3).with_init(InitialLevels::Custom(vec![4, -4]));
    let outcome = algo.run(&g, config.with_max_rounds(10_000)).expect("stabilizes");
    assert_eq!(outcome.mis, vec![true, true]);
}

/// A star's stable states: either the hub alone, or all leaves.
#[test]
fn star_stable_states_are_the_two_valid_patterns() {
    let g = classic::star(5);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let lmax = algo.policy().max_lmax();
    // Hub-in-MIS pattern.
    let hub_in: Vec<Level> = std::iter::once(-lmax).chain(std::iter::repeat_n(lmax, 4)).collect();
    assert!(algo.is_stabilized(&g, &hub_in));
    assert_eq!(algo.mis_members(&g, &hub_in), vec![true, false, false, false, false]);
    // Leaves-in-MIS pattern.
    let leaves_in: Vec<Level> =
        std::iter::once(lmax).chain(std::iter::repeat_n(-lmax, 4)).collect();
    assert!(algo.is_stabilized(&g, &leaves_in));
    // Mixed invalid pattern: hub and one leaf claiming.
    let both: Vec<Level> = vec![-lmax, -lmax, lmax, lmax, lmax];
    assert!(!algo.is_stabilized(&g, &both));
}

/// The level trajectory of a silenced vertex next to a stable MIS member
/// never moves: it hears the member every round.
#[test]
fn silenced_neighbor_is_pinned_by_health_beeps() {
    let g = classic::path(2);
    let algo = Algorithm1::new(&g, LmaxPolicy::fixed(2, 6));
    let mut sim = Simulator::new(&g, algo.clone(), vec![-6, 6], 5);
    for round in 0..50 {
        sim.step();
        assert_eq!(sim.states(), &[-6, 6], "round {round}");
        // The MIS member beeped; the neighbor heard.
        assert!(sim.last_sent().get(0).on_channel1());
        assert!(sim.last_heard().get(1).on_channel1());
        assert!(!sim.last_heard().get(0).on_channel1());
    }
}

/// Triangle: exactly one vertex ends in the MIS, whichever seed.
#[test]
fn triangle_elects_exactly_one() {
    let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    for seed in 0..10 {
        let outcome = algo.run(&g, mis::RunConfig::new(seed)).expect("stabilizes");
        assert_eq!(outcome.mis.iter().filter(|&&m| m).count(), 1, "seed {seed}");
    }
}

/// Algorithm 2 on a triangle also elects exactly one, and the election is
/// visible on channel 2 forever after.
#[test]
fn triangle_two_channel_election_announces_forever() {
    let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
    let algo = Algorithm2::new(&g, LmaxPolicy::two_hop_degree(&g));
    let outcome = algo.run(&g, mis::RunConfig::new(4)).expect("stabilizes");
    let mut sim = Simulator::new(&g, algo.clone(), outcome.levels.clone(), 99);
    for _ in 0..20 {
        let report = sim.step();
        assert_eq!(report.beeps_channel2, 1, "the member announces every round");
        assert_eq!(report.beeps_channel1, 0, "everyone else is silent");
    }
}

/// Complete bipartite graphs stabilize to one full side.
#[test]
fn complete_bipartite_stabilizes_to_one_side() {
    let g = classic::complete_bipartite(4, 6);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    for seed in 0..5 {
        let outcome = algo.run(&g, mis::RunConfig::new(seed)).expect("stabilizes");
        let left = outcome.mis[..4].iter().filter(|&&m| m).count();
        let right = outcome.mis[4..].iter().filter(|&&m| m).count();
        assert!(
            (left == 4 && right == 0) || (left == 0 && right == 6),
            "seed {seed}: {left}/{right}"
        );
    }
}

/// The minimal admissible ℓmax = 2 still stabilizes (slowly) on tiny
/// sparse graphs — and the policy floor rejects the deadlocking ℓmax = 1.
#[test]
fn minimal_lmax_two_still_works_on_paths() {
    let g = classic::path(6);
    let algo = Algorithm1::new(&g, LmaxPolicy::fixed(6, 2));
    for seed in 0..3 {
        let outcome =
            algo.run(&g, mis::RunConfig::new(seed).with_max_rounds(5_000_000)).expect("stabilizes");
        assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    }
}
