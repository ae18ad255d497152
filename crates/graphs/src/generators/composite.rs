//! Structured compositions engineered for extreme degree heterogeneity.
//!
//! These families maximize the gap between `deg(v)` and `deg₂(v)` (paper §3),
//! which is exactly where the three knowledge regimes of the paper (global Δ,
//! own degree, 1-hop-neighborhood max degree) give different `ℓmax` values.

use crate::{Graph, GraphBuilder};

/// Star of cliques: `hubs` leaf-cliques of size `clique` attached to a
/// central hub (node 0). Each clique contributes one "port" node adjacent to
/// the hub. Total nodes: `1 + hubs * clique`.
///
/// The hub has degree `hubs`, port nodes have degree `clique`, and inner
/// clique nodes have degree `clique - 1` — three degree scales in one graph.
pub fn star_of_cliques(hubs: usize, clique: usize) -> Graph {
    let n = 1 + hubs * clique;
    let mut b = GraphBuilder::new(n);
    // Ports first: the hub's edges lead the `(low, high)` order.
    if clique > 0 {
        for h in 0..hubs {
            b.add_edge(0, 1 + h * clique).expect("port edges are valid");
        }
    }
    for h in 0..hubs {
        let base = 1 + h * clique;
        for i in 0..clique {
            for j in (i + 1)..clique {
                b.add_edge(base + i, base + j).expect("clique edges are valid");
            }
        }
    }
    b.build()
}

/// Chain of cliques: `count` cliques of size `clique` connected in a path by
/// single bridge edges. Total nodes: `count * clique`.
pub fn clique_chain(count: usize, clique: usize) -> Graph {
    let n = count * clique;
    let mut b = GraphBuilder::new(n);
    for c in 0..count {
        let base = c * clique;
        if c > 0 && clique > 0 {
            // Bridge from the last node of the previous clique to the first
            // node of this one, ahead of this clique's edges in `(low, high)`
            // order.
            b.add_edge(base - 1, base).expect("bridge edges are valid");
        }
        for i in 0..clique {
            for j in (i + 1)..clique {
                b.add_edge(base + i, base + j).expect("clique edges are valid");
            }
        }
    }
    b.build()
}

/// Lollipop: a clique of `clique` nodes with a pendant path of `tail` nodes.
/// Total nodes: `clique + tail`.
pub fn lollipop(clique: usize, tail: usize) -> Graph {
    let n = clique + tail;
    let mut b = GraphBuilder::new(n);
    for i in 0..clique {
        for j in (i + 1)..clique {
            b.add_edge(i, j).expect("clique edges are valid");
        }
    }
    let mut prev = clique.saturating_sub(1);
    for t in 0..tail {
        let v = clique + t;
        if v > 0 {
            b.add_edge(prev, v).expect("tail edges are valid");
        }
        prev = v;
    }
    b.build()
}

/// Hub-and-path "broom": a star hub (node 0) with `leaves` pendant leaves,
/// plus a path of `handle` nodes hanging off the hub — a single node whose
/// degree dwarfs everyone else's.
pub fn broom(leaves: usize, handle: usize) -> Graph {
    let n = 1 + leaves + handle;
    let mut b = GraphBuilder::new(n);
    for l in 0..leaves {
        b.add_edge(0, 1 + l).expect("leaf edges are valid");
    }
    let mut prev = 0usize;
    for h in 0..handle {
        let v = 1 + leaves + h;
        b.add_edge(prev, v).expect("handle edges are valid");
        prev = v;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn star_of_cliques_degrees() {
        let g = star_of_cliques(4, 5);
        assert_eq!(g.len(), 21);
        assert_eq!(g.degree(0), 4); // hub
        assert_eq!(g.degree(1), 5); // port: 4 clique mates + hub
        assert_eq!(g.degree(2), 4); // inner clique node
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn star_of_cliques_deg2_gap() {
        let g = star_of_cliques(10, 3);
        // Hub degree is 10; a port node sees the hub so deg2(port) = 10.
        assert_eq!(g.deg2(1), 10);
        // An inner clique node only sees the port (degree 3) and inner mates.
        assert_eq!(g.deg2(2), 3);
    }

    #[test]
    fn clique_chain_structure() {
        let g = clique_chain(3, 4);
        assert_eq!(g.len(), 12);
        assert!(properties::is_connected(&g));
        // 3 cliques of C(4,2)=6 edges + 2 bridges.
        assert_eq!(g.num_edges(), 20);
    }

    #[test]
    fn clique_chain_single() {
        let g = clique_chain(1, 5);
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn lollipop_structure() {
        let g = lollipop(4, 3);
        assert_eq!(g.len(), 7);
        assert_eq!(g.num_edges(), 6 + 3);
        assert!(properties::is_connected(&g));
        assert_eq!(g.degree(6), 1);
    }

    #[test]
    fn broom_structure() {
        let g = broom(6, 3);
        assert_eq!(g.len(), 10);
        assert_eq!(g.degree(0), 7);
        assert!(properties::is_connected(&g));
        // Leaf deg2 sees the hub.
        assert_eq!(g.deg2(1), 7);
    }
}
