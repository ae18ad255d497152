//! Classic deterministic graph families.

use crate::{Graph, GraphBuilder};

/// Path graph `P_n`: nodes `0..n` with edges `(i, i+1)`.
///
/// # Example
///
/// ```
/// let g = graphs::generators::classic::path(4);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.degree(0), 1);
/// assert_eq!(g.degree(1), 2);
/// ```
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge(i - 1, i).expect("path edges are valid");
    }
    b.build()
}

/// Cycle graph `C_n` (a path for `n < 3`).
pub fn cycle(n: usize) -> Graph {
    if n < 3 {
        return path(n);
    }
    let mut b = GraphBuilder::with_capacity(n, n);
    // The closing edge `(0, n - 1)` goes in its `(low, high)` place, so the
    // builder need not sort the list.
    b.add_edge(0, 1).expect("cycle edges are valid");
    b.add_edge(0, n - 1).expect("closing edge is valid");
    for i in 2..n {
        b.add_edge(i - 1, i).expect("cycle edges are valid");
    }
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v).expect("complete edges are valid");
        }
    }
    b.build()
}

/// Star `K_{1,n-1}`: node 0 is the hub.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        b.add_edge(0, v).expect("star edges are valid");
    }
    b.build()
}

/// Wheel `W_n`: a cycle on nodes `1..n` plus hub 0 adjacent to all of them.
///
/// Requires `n >= 4` for the outer cycle to exist; smaller `n` degrades to a
/// star.
pub fn wheel(n: usize) -> Graph {
    if n < 4 {
        return star(n);
    }
    let mut b = GraphBuilder::with_capacity(n, 2 * (n - 1));
    for v in 1..n {
        b.add_edge(0, v).expect("spokes are valid");
    }
    // The closing rim edge `(1, n - 1)` goes in its `(low, high)` place.
    b.add_edge(1, 2).expect("rim edges are valid");
    b.add_edge(1, n - 1).expect("closing rim edge is valid");
    for v in 3..n {
        b.add_edge(v - 1, v).expect("rim edges are valid");
    }
    b.build()
}

/// Complete bipartite graph `K_{a,b}`; the first `a` nodes form one side.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut builder = GraphBuilder::with_capacity(a + b, a * b);
    for u in 0..a {
        for v in a..(a + b) {
            builder.add_edge(u, v).expect("bipartite edges are valid");
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_degrees() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(4), 1);
        for v in 1..4 {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn path_tiny() {
        assert_eq!(path(0).len(), 0);
        assert_eq!(path(1).num_edges(), 0);
        assert_eq!(path(2).num_edges(), 1);
    }

    #[test]
    fn cycle_is_two_regular() {
        let g = cycle(6);
        assert_eq!(g.num_edges(), 6);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(5, 0));
    }

    #[test]
    fn cycle_small_degrades_to_path() {
        assert_eq!(cycle(2).num_edges(), 1);
        assert_eq!(cycle(1).num_edges(), 0);
    }

    #[test]
    fn complete_edge_count() {
        let g = complete(7);
        assert_eq!(g.num_edges(), 21);
        assert_eq!(g.max_degree(), 6);
        assert_eq!(g.min_degree(), 6);
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.degree(0), 5);
        for v in 1..6 {
            assert_eq!(g.degree(v), 1);
            assert!(g.has_edge(0, v));
        }
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(6);
        assert_eq!(g.degree(0), 5);
        for v in 1..6 {
            assert_eq!(g.degree(v), 3);
        }
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn wheel_small_is_star() {
        assert_eq!(wheel(3), star(3));
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(2, 3);
        assert_eq!(g.len(), 5);
        assert_eq!(g.num_edges(), 6);
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(2, 3));
        assert!(g.has_edge(0, 4));
    }
}
