//! Facade-level coverage of the remaining public surface: dynamics, theory,
//! the observer via the prelude, and documentation-level workflows a
//! downstream user would copy.

use beeping_mis::prelude::*;
use mis::dynamics;
use mis::observer::Snapshot;
use mis::runner::run_with_history;
use mis::theory;

#[test]
fn theory_preconditions_hold_for_shipped_defaults() {
    for n in [32usize, 128, 512] {
        let g = graphs::generators::random::gnp(n, 8.0 / (n as f64 - 1.0), n as u64);
        assert!(theory::satisfies_thm21_precondition(
            &g,
            &LmaxPolicy::global_delta(&g),
            mis::policy::C1_GLOBAL_DELTA
        ));
        assert!(theory::satisfies_thm22_precondition(
            &g,
            &LmaxPolicy::own_degree(&g),
            mis::policy::C1_OWN_DEGREE
        ));
        assert!(theory::satisfies_cor23_precondition(
            &g,
            &LmaxPolicy::two_hop_degree(&g),
            mis::policy::C1_TWO_HOP
        ));
        // And Thm 2.1's η bound matches the lemma threshold at c1 = 15.
        assert!(theory::eta_bound_thm21(mis::policy::C1_GLOBAL_DELTA) <= theory::ETA_THRESHOLD);
    }
}

#[test]
fn eta_bound_is_respected_by_live_executions() {
    // Observe a real run: η_t(v) never exceeds the static Thm 2.1 bound.
    let g = graphs::generators::random::gnp(80, 0.1, 4);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let outcome = run_with_history(&g, &algo, RunConfig::new(2)).expect("stabilizes");
    let history = outcome.level_history.unwrap();
    let lmax = algo.policy().lmax_values();
    let bound = theory::eta_bound_thm21(mis::policy::C1_GLOBAL_DELTA);
    for levels in history.iter().step_by(5) {
        let snap = Snapshot::new(&g, lmax, levels);
        for v in g.nodes() {
            assert!(snap.eta(v) <= bound + 1e-12);
            assert_eq!(snap.eta_prime(v), 0.0, "uniform policy ⇒ η′ = 0");
        }
    }
}

#[test]
fn burn_in_horizon_bounds_the_lemma31_invariant() {
    let g = graphs::generators::scale_free::barabasi_albert(60, 3, 9).unwrap();
    let algo = Algorithm1::new(&g, LmaxPolicy::own_degree(&g));
    let horizon = theory::burn_in_horizon(algo.policy());
    let config = RunConfig::new(1).with_init(InitialLevels::AllClaiming);
    let outcome = run_with_history(&g, &algo, config).expect("stabilizes");
    let history = outcome.level_history.unwrap();
    let lmax = algo.policy().lmax_values();
    for (t, levels) in history.iter().enumerate().skip(horizon as usize + 1) {
        let snap = Snapshot::new(&g, lmax, levels);
        for v in g.nodes() {
            assert!(snap.level(v) > 0 || snap.mu(v) > 0.0, "Lemma 3.1 violated at t={t}, v={v}");
        }
    }
}

#[test]
fn dynamics_trajectory_is_usable_from_facade() {
    let g = graphs::generators::classic::cycle(40);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let outcome = run_with_history(&g, &algo, RunConfig::new(5)).expect("stabilizes");
    let stats = dynamics::trajectory(
        &g,
        algo.policy().lmax_values(),
        outcome.level_history.as_ref().unwrap(),
    );
    // The stable count time series ends at n and the in-MIS series at the
    // outcome's MIS size.
    assert_eq!(stats.last().unwrap().stable, 40);
    assert_eq!(stats.last().unwrap().in_mis, outcome.mis.iter().filter(|&&m| m).count());
    // mean_p ∈ [0, 1] throughout.
    assert!(stats.iter().all(|s| (0.0..=1.0).contains(&s.mean_p)));
}

#[test]
fn readme_workflow_compiles_and_runs() {
    // The exact workflow advertised in the README.
    let g = graphs::generators::random::gnp(500, 8.0 / 499.0, 42);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let outcome =
        algo.run(&g, RunConfig::new(7).with_init(InitialLevels::Random)).expect("stabilizes");
    assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
    assert!(outcome.stabilization_round > 0);
}
