//! Property-based tests of the MIS crate's invariants: level arithmetic,
//! policies, observer definitions, and the update rules' state machine.

use graphs::{Graph, GraphBuilder};
use mis::levels::{
    beep_probability, clamp_level, log2_ceil, update_level, update_level_two_channel, Level,
    LevelSpace,
};
use mis::observer::Snapshot;
use mis::policy::LmaxPolicy;
use mis::recovery::{claimed_mis, independence_violations, stabilized_active};
use mis::{Algorithm1, Algorithm2};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..24).prop_flat_map(|n| {
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
    #[test]
    fn log2_ceil_is_correct(x in 1usize..1_000_000) {
        let k = log2_ceil(x);
        prop_assert!(1usize << k >= x);
        if k > 0 {
            prop_assert!(1usize << (k - 1) < x);
        }
    }

    #[test]
    fn beep_probability_in_unit_interval(lmax in 1i32..64, offset in 0i32..128) {
        let level = (-lmax + offset % (2 * lmax + 1)).clamp(-lmax, lmax);
        let p = beep_probability(level, lmax);
        prop_assert!((0.0..=1.0).contains(&p));
        // The three regions of Figure 1.
        if level <= 0 {
            prop_assert_eq!(p, 1.0);
        } else if level == lmax {
            prop_assert_eq!(p, 0.0);
        } else {
            prop_assert_eq!(p, 2f64.powi(-level));
        }
    }

    /// Update rule closure: from any in-range level, any observation leads
    /// to an in-range level, and the rule matches the pseudocode cases.
    #[test]
    fn update_rule_cases(lmax in 1i32..40, level in -40i32..40, beeped in any::<bool>(), heard in any::<bool>()) {
        let level = level.clamp(-lmax, lmax);
        let next = update_level(level, lmax, beeped, heard);
        prop_assert!((-lmax..=lmax).contains(&next));
        if heard {
            prop_assert_eq!(next, (level + 1).min(lmax));
        } else if beeped {
            prop_assert_eq!(next, -lmax);
        } else {
            prop_assert_eq!(next, (level - 1).max(1));
        }
    }

    /// Two-channel update closure over {0..ℓmax}.
    #[test]
    fn two_channel_update_closure(
        lmax in 1i32..40,
        level in 0i32..40,
        s1 in any::<bool>(),
        s2 in any::<bool>(),
        h1 in any::<bool>(),
        h2 in any::<bool>(),
    ) {
        let level = level.min(lmax);
        let next = update_level_two_channel(level, lmax, s1, s2, h1, h2);
        prop_assert!((0..=lmax).contains(&next));
        if h2 {
            prop_assert_eq!(next, lmax);
        }
    }

    #[test]
    fn clamping_is_idempotent(raw in any::<i64>(), lmax in 1i32..60) {
        let once = clamp_level(raw, lmax);
        prop_assert_eq!(clamp_level(once as i64, lmax), once);
        prop_assert!((-lmax..=lmax).contains(&once));
        let once2 = LevelSpace::NonNegative.clamp(raw, lmax);
        prop_assert!((0..=lmax).contains(&once2));
    }

    /// Policies satisfy their theorem preconditions on arbitrary graphs.
    #[test]
    fn policies_satisfy_preconditions(g in arb_graph()) {
        let global = LmaxPolicy::global_delta(&g);
        let own = LmaxPolicy::own_degree(&g);
        let two_hop = LmaxPolicy::two_hop_degree(&g);
        for v in g.nodes() {
            // Thm 2.1: ℓmax ≥ log Δ + 15 ≥ log deg(v) + 15.
            prop_assert!(global.lmax(v) as f64 >= (g.degree(v).max(1) as f64).log2() + 15.0 - 1e-9);
            // Thm 2.2: ℓmax(v) ≥ 2 log deg(v) + 30.
            prop_assert!(own.lmax(v) as f64 >= 2.0 * (g.degree(v).max(1) as f64).log2() + 30.0 - 1e-9);
            // Cor 2.3: ℓmax(v) ≥ 2 log deg₂(v) + 15.
            prop_assert!(
                two_hop.lmax(v) as f64 >= 2.0 * (g.deg2(v).max(1) as f64).log2() + 15.0 - 1e-9
            );
            // Lemma 3.5/3.6 precondition: ℓmax(w) ≥ log deg(w) + 4.
            for p in [&global, &own, &two_hop] {
                prop_assert!(p.lmax(v) as f64 >= (g.degree(v).max(1) as f64).log2() + 4.0 - 1e-9);
            }
        }
        // Global policy is uniform.
        prop_assert!(global.lmax_values().iter().all(|&l| l == global.max_lmax()));
    }

    /// Observer definitions are mutually consistent on arbitrary snapshots.
    #[test]
    fn observer_consistency(g in arb_graph(), raw in proptest::collection::vec(-50i64..50, 24)) {
        let policy = LmaxPolicy::own_degree(&g);
        let lmax = policy.lmax_values().to_vec();
        let levels: Vec<Level> = g
            .nodes()
            .map(|v| clamp_level(raw[v], lmax[v]))
            .collect();
        let snap = Snapshot::new(&g, &lmax, &levels);
        let mis = Algorithm1::new(&g, policy.clone()).mis_members(&g, &levels);
        for v in g.nodes() {
            // MIS membership matches the formal definition via μ.
            let in_mis_def = levels[v] == -lmax[v] && snap.mu(v) == 1.0;
            prop_assert_eq!(mis[v], in_mis_def, "vertex {}", v);
            prop_assert_eq!(snap.in_mis(v), mis[v]);
            // Stable = in MIS or neighbor in MIS.
            let stable_def = mis[v] || g.neighbors(v).iter().any(|&u| mis[u as usize]);
            prop_assert_eq!(snap.is_stable(v), stable_def);
            // Prominence matches ℓ ≤ 0.
            prop_assert_eq!(snap.is_prominent(v), levels[v] <= 0);
            // d is the sum of neighbor probabilities.
            let d: f64 = g
                .neighbors(v)
                .iter()
                .map(|&u| beep_probability(levels[u as usize], lmax[u as usize]))
                .sum();
            prop_assert!((snap.d(v) - d).abs() < 1e-12);
            // d_light ≤ d; η and η′ are non-negative and bounded.
            prop_assert!(snap.d_light(v) <= snap.d(v) + 1e-12);
            prop_assert!(snap.eta(v) >= 0.0);
            prop_assert!(snap.eta_prime(v) >= 0.0);
            prop_assert!(snap.eta(v) <= g.degree(v) as f64);
            // μ ∈ [-1, 1].
            prop_assert!((-1.0..=1.0).contains(&snap.mu(v)));
        }
        // The stable MIS is always independent (never dominating-violating
        // *as a set*: independence is structural).
        let independent = g
            .edges()
            .all(|(u, v)| !(mis[u] && mis[v]));
        prop_assert!(independent);
    }

    /// The recovery observer never reports a stable MIS while an
    /// MIS-validity violation is live: for *any* graph, level assignment
    /// and participation mask, `stabilized_active` and a positive
    /// `independence_violations` count are mutually exclusive, and the
    /// claimed MIS is independent on the active subgraph.
    #[test]
    fn no_stable_mis_while_violation_live(
        g in arb_graph(),
        raw in proptest::collection::vec(-50i64..50, 24),
        active_bits in proptest::collection::vec(any::<bool>(), 24),
    ) {
        let active: Vec<bool> = (0..g.len()).map(|v| active_bits[v]).collect();
        let policy = LmaxPolicy::own_degree(&g);
        let algo1 = Algorithm1::new(&g, policy.clone());
        let levels1: Vec<Level> =
            g.nodes().map(|v| clamp_level(raw[v], policy.lmax(v))).collect();
        let algo2 = Algorithm2::new(&g, policy.clone());
        let levels2: Vec<Level> =
            g.nodes().map(|v| LevelSpace::NonNegative.clamp(raw[v], policy.lmax(v))).collect();

        let violations1 = independence_violations(&algo1, &g, &levels1, &active);
        if stabilized_active(&algo1, &g, &levels1, &active) {
            prop_assert_eq!(violations1, 0, "stable MIS reported with live violation");
        }
        let violations2 = independence_violations(&algo2, &g, &levels2, &active);
        if stabilized_active(&algo2, &g, &levels2, &active) {
            prop_assert_eq!(violations2, 0, "stable MIS reported with live violation");
        }

        // The claimed set itself is always independent over active nodes.
        let mis1 = claimed_mis(&algo1, &g, &levels1, &active);
        let mis2 = claimed_mis(&algo2, &g, &levels2, &active);
        for (u, v) in g.edges() {
            prop_assert!(!(mis1[u] && mis1[v]));
            prop_assert!(!(mis2[u] && mis2[v]));
        }
        // Inactive nodes are never claimed members.
        for v in g.nodes() {
            if !active[v] {
                prop_assert!(!mis1[v] && !mis2[v]);
            }
        }
    }

    /// Two-channel stability is consistent with its definition.
    #[test]
    fn two_channel_observer_consistency(g in arb_graph(), raw in proptest::collection::vec(0i64..50, 24)) {
        let policy = LmaxPolicy::two_hop_degree(&g);
        let lmax = policy.lmax_values().to_vec();
        let levels: Vec<Level> = g
            .nodes()
            .map(|v| LevelSpace::NonNegative.clamp(raw[v], lmax[v]))
            .collect();
        let mis = Algorithm2::new(&g, policy.clone()).mis_members(&g, &levels);
        for v in g.nodes() {
            let in_mis_def = levels[v] == 0
                && g.neighbors(v).iter().all(|&u| levels[u as usize] == lmax[u as usize]);
            prop_assert_eq!(mis[v], in_mis_def);
        }
    }
}

/// Symmetric adjacency matrix built from the edge list alone, so the brute
/// force below never reads the CSR neighbour slices the sweeps use.
fn adjacency(g: &Graph) -> Vec<Vec<bool>> {
    let mut adj = vec![vec![false; g.len()]; g.len()];
    for (u, v) in g.edges() {
        adj[u][v] = true;
        adj[v][u] = true;
    }
    adj
}

/// `I_t` from the paper's definition: `v` is active, sits at its claiming
/// level `claiming(ℓmax(v))`, and every active neighbour sits at its `ℓmax`.
fn brute_mis(
    adj: &[Vec<bool>],
    lmax: &[Level],
    levels: &[Level],
    active: &[bool],
    claiming: fn(Level) -> Level,
) -> Vec<bool> {
    let n = adj.len();
    (0..n)
        .map(|v| {
            active[v]
                && levels[v] == claiming(lmax[v])
                && (0..n).all(|u| !adj[v][u] || !active[u] || levels[u] == lmax[u])
        })
        .collect()
}

/// `S_t = I_t ∪ N(I_t)` from the paper's definition, over active nodes.
fn brute_stable(adj: &[Vec<bool>], mis: &[bool], active: &[bool]) -> Vec<bool> {
    let n = adj.len();
    (0..n).map(|v| active[v] && (mis[v] || (0..n).any(|u| adj[v][u] && mis[u]))).collect()
}

/// Checks every active-aware full-sweep predicate of one algorithm against
/// the brute force, and that the invariant checker accepts the fully active
/// configuration.
fn check_active_aware<A: mis::runner::SelfStabilizingMis>(
    algo: &A,
    g: &Graph,
    levels: &[Level],
    active: &[bool],
    claiming: fn(Level) -> Level,
) -> Result<(), TestCaseError> {
    let adj = adjacency(g);
    let lmax = algo.policy().lmax_values();
    let mis = brute_mis(&adj, lmax, levels, active, claiming);
    let stable = brute_stable(&adj, &mis, active);
    let stabilized = (0..g.len()).all(|v| !active[v] || stable[v]);
    let claims = |v: usize| active[v] && levels[v] == claiming(lmax[v]);
    let violations = g.edges().filter(|&(u, v)| claims(u) && claims(v)).count();

    prop_assert_eq!(mis::recovery::claimed_mis(algo, g, levels, active), mis);
    prop_assert_eq!(mis::recovery::stabilized_active(algo, g, levels, active), stabilized);
    prop_assert_eq!(mis::recovery::independence_violations(algo, g, levels, active), violations);

    let dist = mis::containment::byz_distances(g, &[]);
    for radius in [0, 1, g.len()] {
        prop_assert_eq!(
            mis::containment::stabilized_except(algo, g, levels, active, &dist, radius),
            stabilized
        );
    }
    prop_assert_eq!(
        mis::containment::disruption_radius_with(algo, g, levels, active, &dist),
        if stabilized { 0 } else { usize::MAX }
    );
    mis::InvariantChecker::for_algorithm(algo).check_round(g, 1, levels);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every full-sweep `I_t`/`S_t` entry point agrees with a brute force of
    /// the paper's definitions, for both algorithms, with levels covering
    /// the whole state space and arbitrary participation masks.
    #[test]
    fn stability_predicates_match_the_paper_definition(
        g in arb_graph(),
        caps in proptest::collection::vec(2i32..6, 24),
        raw in proptest::collection::vec(-7i64..8, 24),
        active_bits in proptest::collection::vec(any::<bool>(), 24),
    ) {
        let n = g.len();
        let lmax: Vec<Level> = caps[..n].to_vec();
        let active: Vec<bool> = active_bits[..n].to_vec();
        let all = vec![true; n];
        let adj = adjacency(&g);
        let policy = LmaxPolicy::custom("brute", lmax.clone());
        let algo1 = Algorithm1::new(&g, policy.clone());
        let algo2 = Algorithm2::new(&g, policy);
        let levels1: Vec<Level> = (0..n)
            .map(|v| raw[v].clamp(-i64::from(lmax[v]), i64::from(lmax[v])) as Level)
            .collect();
        let levels2: Vec<Level> =
            (0..n).map(|v| raw[v].clamp(0, i64::from(lmax[v])) as Level).collect();
        let claim1: fn(Level) -> Level = |l| -l;
        let claim2: fn(Level) -> Level = |_| 0;

        let mis1 = brute_mis(&adj, &lmax, &levels1, &all, claim1);
        let stable1 = brute_stable(&adj, &mis1, &all);
        prop_assert_eq!(algo1.mis_members(&g, &levels1), mis1.clone());
        prop_assert_eq!(algo1.is_stabilized(&g, &levels1), stable1.iter().all(|&s| s));
        let snap = Snapshot::new(&g, &lmax, &levels1);
        prop_assert_eq!(snap.mis(), &mis1[..]);
        prop_assert_eq!(snap.stable_set(), &stable1[..]);
        prop_assert_eq!(snap.is_stabilized(), stable1.iter().all(|&s| s));
        prop_assert_eq!(snap.stable_count(), stable1.iter().filter(|&&s| s).count());

        let mis2 = brute_mis(&adj, &lmax, &levels2, &all, claim2);
        let stable2 = brute_stable(&adj, &mis2, &all);
        prop_assert_eq!(algo2.mis_members(&g, &levels2), mis2);
        prop_assert_eq!(algo2.is_stabilized(&g, &levels2), stable2.iter().all(|&s| s));

        for mask in [&active, &all] {
            check_active_aware(&algo1, &g, &levels1, mask, claim1)?;
            check_active_aware(&algo2, &g, &levels2, mask, claim2)?;
        }
    }
}
