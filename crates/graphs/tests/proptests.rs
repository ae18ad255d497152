//! Property-based tests for the graph substrate.

use graphs::generators::{classic, geometric, random, scale_free, small_world, trees};
use graphs::motion::{Motion, MotionModel};
use graphs::{edgelist, mis, properties, Graph, GraphBuilder};
use proptest::prelude::*;
use rand_pcg::Pcg64Mcg;

/// Strategy: an arbitrary simple graph as (n, edge list).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..120).prop_map(move |pairs| {
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

/// Strategy: unit-square points that hit the builder's edge cases — exact
/// 0.0 and 1.0 coordinates, points snapped to a coarse lattice, and exact
/// duplicates of earlier points.
fn arb_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    let coord = || {
        (0u8..6, 0.0f64..1.0).prop_map(|(kind, u)| match kind {
            0 => 0.0,
            1 => 1.0,
            2 => (u * 8.0).floor() / 8.0,
            _ => u,
        })
    };
    (proptest::collection::vec((coord(), coord()), 0..60), 0usize..60, 0usize..60).prop_map(
        |(mut points, from, to)| {
            if !points.is_empty() {
                let len = points.len();
                points[to % len] = points[from % len];
            }
            points
        },
    )
}

/// Strategy: a connection radius — zero, tiny, typical or at least √2
/// (every pair connected).
fn arb_radius() -> impl Strategy<Value = f64> {
    (0u8..7, 0.0f64..1.0).prop_map(|(kind, u)| match kind {
        0 => 0.0,
        1 => 1e-9,
        2 => 1e-5,
        3 => std::f64::consts::SQRT_2,
        4 => 2.0 + u,
        _ => 0.02 + 0.4 * u,
    })
}

/// The builder's grid width cap for `n` points: cells are never narrower
/// than `1 / ⌈√n⌉`.
fn cell_cap(n: usize) -> f64 {
    1.0 / (n as f64).sqrt().ceil()
}

/// Strategy: a crowded deployment of up to 400 points with a radius around
/// `1/√n`, so most cells hold several nodes. The radius is below the grid
/// cap (the cap sets the cell width), exactly at it, or above it (the
/// radius does). Some coordinates sit on multiples of 1/16, which are exact
/// cell edges whenever the cell width is dyadic, and one point duplicates
/// another.
fn arb_crowded() -> impl Strategy<Value = (Vec<(f64, f64)>, f64)> {
    let coord = || {
        (0u8..8, 0.0f64..1.0).prop_map(|(kind, u)| match kind {
            0 => (u * 16.0).floor() / 16.0,
            1 => 1.0,
            _ => u,
        })
    };
    (2usize..=400).prop_flat_map(move |n| {
        let radius = (0u8..3, 0.4f64..2.5).prop_map(move |(kind, f)| match kind {
            0 => cell_cap(n) * f.min(1.0),
            1 => cell_cap(n),
            _ => cell_cap(n) * f.max(1.0),
        });
        (proptest::collection::vec((coord(), coord()), n), radius, 0..n, 0..n).prop_map(
            |(mut points, radius, from, to)| {
                points[to] = points[from];
                (points, radius)
            },
        )
    })
}

/// Strategy: points on the lattice of step `1/2^k` (`k` in 2..=4), with a
/// radius of exactly one step: every coordinate is a cell edge when the
/// step sets the cell width, and lattice neighbours lie at exactly the
/// radius, where `d² = r²` and there is no edge.
fn arb_lattice_at_radius() -> impl Strategy<Value = (Vec<(f64, f64)>, f64)> {
    (2u32..=4).prop_flat_map(|k| {
        let sites = 1u32 << k;
        let site = move || (0..=sites).prop_map(move |i| f64::from(i) / f64::from(sites));
        proptest::collection::vec((site(), site()), 2..=(sites * sites) as usize)
            .prop_map(move |points| (points, 1.0 / f64::from(sites)))
    })
}

/// Strategy: a random-waypoint model fast enough that nodes arrive within
/// a few rounds, with pauses of 0–3 rounds.
fn arb_waypoint() -> impl Strategy<Value = MotionModel> {
    (0.02f64..0.5, 0u64..=3).prop_map(|(speed, pause)| MotionModel::RandomWaypoint { speed, pause })
}

/// Strategy: a drift model with large turns, fast enough to hit the walls
/// and corners often.
fn arb_drift() -> impl Strategy<Value = MotionModel> {
    (0.05f64..=1.0, 0.0f64..6.3).prop_map(|(speed, turn)| MotionModel::Drift { speed, turn })
}

/// Steps a `Motion` over `n` seeded points for 24 rounds and checks its
/// graph against the brute force after every round.
fn check_moving_graphs(
    n: usize,
    degree: f64,
    model: MotionModel,
    seed: u64,
) -> Result<(), TestCaseError> {
    let radius = geometric::radius_for_expected_degree(n, degree);
    let mut rng = Pcg64Mcg::new(u128::from(seed));
    let mut motion =
        Motion::new(geometric::random_points(n, seed), radius, model, &mut rng).unwrap();
    prop_assert_eq!(&**motion.graph(), &brute_force_geometric(motion.positions(), radius));
    for round in 0..24 {
        motion.step(&mut rng);
        let want = brute_force_geometric(motion.positions(), radius);
        prop_assert!(**motion.graph() == want, "round {} differs from the brute force", round);
    }
    Ok(())
}

/// The O(n²) definition of the geometric graph, with the builder's exact
/// distance expression.
fn brute_force_geometric(points: &[(f64, f64)], radius: f64) -> Graph {
    let mut b = GraphBuilder::new(points.len());
    for (i, &(x, y)) in points.iter().enumerate() {
        for (j, &(px, py)) in points.iter().enumerate().skip(i + 1) {
            if (x - px) * (x - px) + (y - py) * (y - py) < radius * radius {
                b.add_edge(i, j).unwrap();
            }
        }
    }
    b.build()
}

/// The sort-based reference build: sort and dedup the whole list, fill the
/// CSR, then sort every neighbour list. The differential tests hold
/// `GraphBuilder::build`, which skips both sorts on ordered input, to it.
fn sort_based_build(n: usize, pairs: &[(usize, usize)]) -> Graph {
    let mut edges: Vec<(u32, u32)> =
        pairs.iter().map(|&(u, v)| (u.min(v) as u32, u.max(v) as u32)).collect();
    edges.sort_unstable();
    edges.dedup();
    let mut offsets = vec![0usize; n + 1];
    for &(a, b) in &edges {
        offsets[a as usize + 1] += 1;
        offsets[b as usize + 1] += 1;
    }
    for v in 1..=n {
        offsets[v] += offsets[v - 1];
    }
    let mut cursor = offsets[..n].to_vec();
    let mut neighbors = vec![0u32; offsets[n]];
    for &(a, b) in &edges {
        neighbors[cursor[a as usize]] = b;
        cursor[a as usize] += 1;
        neighbors[cursor[b as usize]] = a;
        cursor[b as usize] += 1;
    }
    for v in 0..n {
        neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
    }
    Graph::from_csr(offsets, neighbors).unwrap()
}

/// Builds from `pairs` in the given order through the public builder.
fn build_in_order(n: usize, pairs: &[(usize, usize)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    b.add_edges(pairs.iter().copied()).unwrap();
    b.build()
}

/// `true` if the normalized pairs are strictly ordered by `(low, high)` or
/// by `(high, low)`: the inputs `build` takes without a sort.
fn ordered_either_way(pairs: &[(usize, usize)]) -> bool {
    let norm: Vec<(usize, usize)> = pairs.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    norm.windows(2).all(|w| w[0] < w[1])
        || norm.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0))
}

/// Flips the orientation of pair `i` when bit `i % 64` of `flips` is set.
fn orient(pairs: &[(usize, usize)], flips: u64) -> Vec<(usize, usize)> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(u, v))| if flips >> (i % 64) & 1 == 1 { (v, u) } else { (u, v) })
        .collect()
}

/// Strategy: `n` and a set of distinct edges `(low, high)` on `0..n`,
/// sorted by `(low, high)`; large `n` leaves nodes isolated.
fn arb_edge_set() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..60).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..100).prop_map(move |pairs| {
            let mut edges: Vec<(usize, usize)> = pairs
                .into_iter()
                .filter(|&(u, v)| u != v)
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            (n, edges)
        })
    })
}

proptest! {
    #[test]
    fn geometric_builder_matches_brute_force(points in arb_points(), radius in arb_radius()) {
        let g = geometric::geometric_from_points(&points, radius);
        prop_assert_eq!(&g, &brute_force_geometric(&points, radius));
        for v in g.nodes() {
            let adj = g.neighbors(v);
            prop_assert!(adj.windows(2).all(|w| w[0] < w[1]), "node {} not sorted", v);
            prop_assert!(!adj.contains(&(v as u32)), "self loop at {}", v);
            for &u in adj {
                prop_assert!(g.neighbors(u as usize).contains(&(v as u32)));
            }
        }
    }

    #[test]
    fn geometric_builder_matches_brute_force_on_crowded_cells((points, radius) in arb_crowded()) {
        prop_assert_eq!(
            &geometric::geometric_from_points(&points, radius),
            &brute_force_geometric(&points, radius)
        );
    }

    #[test]
    fn geometric_builder_drops_pairs_at_exactly_the_radius(
        (points, radius) in arb_lattice_at_radius()
    ) {
        let g = geometric::geometric_from_points(&points, radius);
        prop_assert_eq!(&g, &brute_force_geometric(&points, radius));
        for v in g.nodes() {
            for &u in g.neighbors(v) {
                prop_assert_eq!(points[v], points[u as usize], "edge {}-{} at a lattice step", v, u);
            }
        }
    }

    #[test]
    fn waypoint_graphs_match_brute_force_every_round(
        n in 2usize..200, degree in 2.0f64..12.0, model in arb_waypoint(), seed in any::<u64>()
    ) {
        check_moving_graphs(n, degree, model, seed)?;
    }

    #[test]
    fn drift_graphs_match_brute_force_every_round(
        n in 2usize..200, degree in 2.0f64..12.0, model in arb_drift(), seed in any::<u64>()
    ) {
        check_moving_graphs(n, degree, model, seed)?;
    }

    #[test]
    fn csr_adjacency_is_symmetric_sorted_dedup(g in arb_graph()) {
        for v in g.nodes() {
            let adj = g.neighbors(v);
            // Sorted and deduplicated.
            for w in adj.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            // Symmetric.
            for &u in adj {
                prop_assert!(g.neighbors(u as usize).contains(&(v as u32)));
            }
            // No self loops.
            prop_assert!(!adj.contains(&(v as u32)));
        }
    }

    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.num_edges());
        prop_assert_eq!(sum, g.degree_sum());
    }

    #[test]
    fn edges_iterator_matches_has_edge(g in arb_graph()) {
        let mut count = 0;
        for (u, v) in g.edges() {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v));
            count += 1;
        }
        prop_assert_eq!(count, g.num_edges());
    }

    #[test]
    fn deg2_bounds(g in arb_graph()) {
        let delta = g.max_degree();
        for v in g.nodes() {
            let d2 = g.deg2(v);
            prop_assert!(d2 >= g.degree(v));
            prop_assert!(d2 <= delta);
        }
    }

    #[test]
    fn edgelist_round_trip(g in arb_graph()) {
        let back = edgelist::from_str(&edgelist::to_string(&g)).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn greedy_mis_always_valid(g in arb_graph(), seed in 0u64..1000) {
        let set = mis::random_greedy_mis(&g, seed);
        prop_assert!(mis::is_maximal_independent_set(&g, &set));
    }

    #[test]
    fn greedy_mis_any_order_valid(g in arb_graph()) {
        let rev: Vec<_> = g.nodes().rev().collect();
        let set = mis::greedy_mis_in_order(&g, rev);
        prop_assert!(mis::is_maximal_independent_set(&g, &set));
    }

    #[test]
    fn components_partition_nodes(g in arb_graph()) {
        let (comp, count) = properties::connected_components(&g);
        prop_assert_eq!(comp.len(), g.len());
        for &c in &comp {
            prop_assert!(c < count);
        }
        // Adjacent nodes share a component.
        for (u, v) in g.edges() {
            prop_assert_eq!(comp[u], comp[v]);
        }
    }

    #[test]
    fn degeneracy_at_most_max_degree(g in arb_graph()) {
        let (k, order) = properties::degeneracy(&g);
        prop_assert!(k <= g.max_degree());
        prop_assert_eq!(order.len(), g.len());
    }

    #[test]
    fn gnp_determinism(n in 2usize..60, seed in 0u64..50) {
        let g1 = random::gnp(n, 0.15, seed);
        let g2 = random::gnp(n, 0.15, seed);
        prop_assert_eq!(g1, g2);
    }

    #[test]
    fn gnm_has_exact_edges(n in 4usize..30, seed in 0u64..20) {
        let max = n * (n - 1) / 2;
        let m = max / 2;
        let g = random::gnm(n, m, seed).unwrap();
        prop_assert_eq!(g.num_edges(), m);
    }

    #[test]
    fn random_regular_is_regular(seed in 0u64..20, d in 1usize..5) {
        let n = 24;
        let g = random::random_regular(n, d, seed).unwrap();
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v), d);
        }
    }

    #[test]
    fn trees_are_trees(n in 2usize..80, seed in 0u64..20) {
        for g in [trees::random_recursive_tree(n, seed), trees::random_prufer_tree(n, seed)] {
            prop_assert_eq!(g.num_edges(), n - 1);
            prop_assert!(properties::is_connected(&g));
        }
    }

    #[test]
    fn ba_graph_connected(n in 5usize..80, seed in 0u64..20) {
        let g = scale_free::barabasi_albert(n, 2, seed).unwrap();
        prop_assert!(properties::is_connected(&g));
    }

    #[test]
    fn ws_degree_sum_preserved(seed in 0u64..20, beta in 0.0f64..1.0) {
        let g = small_world::watts_strogatz(30, 4, beta, seed).unwrap();
        prop_assert_eq!(g.num_edges(), 30 * 4 / 2);
    }

    #[test]
    fn geometric_monotone_in_radius(seed in 0u64..20) {
        let small = geometric::random_geometric(60, 0.08, seed);
        let large = geometric::random_geometric(60, 0.2, seed);
        // Same points (same seed), bigger radius => superset of edges.
        for (u, v) in small.edges() {
            prop_assert!(large.has_edge(u, v));
        }
    }

    #[test]
    fn induced_subgraph_preserves_adjacency(g in arb_graph()) {
        let keep: Vec<usize> = g.nodes().filter(|v| v % 2 == 0).collect();
        let (sub, order) = g.induced_subgraph(&keep);
        for (a, b) in sub.edges() {
            prop_assert!(g.has_edge(order[a], order[b]));
        }
        // Every kept-pair edge appears.
        for (i, &u) in order.iter().enumerate() {
            for (j, &v) in order.iter().enumerate().skip(i + 1) {
                if g.has_edge(u, v) {
                    prop_assert!(sub.has_edge(i, j));
                }
            }
        }
    }

    #[test]
    fn builder_matches_sort_based_build_on_any_list(
        (n, edges) in arb_edge_set(),
        extra in proptest::collection::vec((0usize..60, 0usize..60), 0..60),
        repeats in 0usize..100,
        flips in any::<u64>(),
    ) {
        // The set, random extra pairs (repeats likely at small n), then the
        // first `repeats` pairs again in the opposite orientation.
        let mut pairs = orient(&edges, flips);
        pairs.extend(extra.into_iter().map(|(u, v)| (u % n, v % n)).filter(|&(u, v)| u != v));
        let tail: Vec<(usize, usize)> = pairs.iter().take(repeats).map(|&(u, v)| (v, u)).collect();
        pairs.extend(tail);
        prop_assert_eq!(build_in_order(n, &pairs), sort_based_build(n, &pairs));
    }

    #[test]
    fn builder_matches_sort_based_build_on_ordered_lists(
        (n, edges) in arb_edge_set(),
        flips in any::<u64>(),
    ) {
        let reference = sort_based_build(n, &edges);
        let by_low = orient(&edges, flips);
        prop_assert!(ordered_either_way(&by_low));
        prop_assert_eq!(&build_in_order(n, &by_low), &reference);
        let mut by_high = edges.clone();
        by_high.sort_unstable_by_key(|&(low, high)| (high, low));
        let by_high = orient(&by_high, flips.rotate_left(7));
        prop_assert!(ordered_either_way(&by_high));
        prop_assert_eq!(&build_in_order(n, &by_high), &reference);
    }

    #[test]
    fn builder_falls_back_on_a_duplicate_or_a_misplaced_edge(
        (n, edges) in arb_edge_set(),
        by_high in any::<bool>(),
        i in 0usize..100,
        j in 0usize..100,
        flips in any::<u64>(),
    ) {
        prop_assume!(edges.len() >= 2);
        let mut ordered = edges.clone();
        if by_high {
            ordered.sort_unstable_by_key(|&(low, high)| (high, low));
        }
        let (i, j) = (i % ordered.len(), j % ordered.len());
        // One adjacent duplicate. Neither strict order holds, so `build`
        // must sort.
        let mut duplicated = ordered.clone();
        duplicated.insert(i + 1, (ordered[i].1, ordered[i].0));
        let duplicated = orient(&duplicated, flips);
        prop_assert!(!ordered_either_way(&duplicated));
        let g = build_in_order(n, &duplicated);
        prop_assert_eq!(g.num_edges(), edges.len());
        prop_assert_eq!(&g, &sort_based_build(n, &duplicated));
        // One edge moved out of place, unless that happens to leave the
        // list ordered by the other key.
        prop_assume!(i != j);
        let mut misplaced = ordered.clone();
        let moved = misplaced.remove(i);
        misplaced.insert(j, moved);
        let misplaced = orient(&misplaced, flips);
        prop_assume!(!ordered_either_way(&misplaced));
        let g = build_in_order(n, &misplaced);
        for v in g.nodes() {
            prop_assert!(g.neighbors(v).windows(2).all(|w| w[0] < w[1]), "node {} not sorted", v);
        }
        prop_assert_eq!(&g, &sort_based_build(n, &misplaced));
    }

    #[test]
    fn classic_diameters(n in 3usize..30) {
        prop_assert_eq!(properties::diameter(&classic::path(n)), Some(n - 1));
        prop_assert_eq!(properties::diameter(&classic::cycle(n)), Some(n / 2));
        prop_assert_eq!(properties::diameter(&classic::complete(n)), Some(1));
    }
}
