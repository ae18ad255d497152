//! Lattice-like regular topologies: grids, tori, hypercubes.

use crate::{Graph, GraphBuilder};

/// Two-dimensional grid with `rows × cols` nodes; node `(r, c)` has id
/// `r * cols + c` and is adjacent to its 4-neighborhood.
///
/// # Example
///
/// ```
/// let g = graphs::generators::lattice::grid(3, 3);
/// assert_eq!(g.len(), 9);
/// assert_eq!(g.degree(4), 4); // center
/// assert_eq!(g.degree(0), 2); // corner
/// ```
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                b.add_edge(v, v + 1).expect("grid edges are valid");
            }
            if r + 1 < rows {
                b.add_edge(v, v + cols).expect("grid edges are valid");
            }
        }
    }
    b.build()
}

/// Two-dimensional torus (grid with wraparound); 4-regular when both sides
/// are at least 3.
pub fn torus(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if cols > 1 {
                let right = r * cols + (c + 1) % cols;
                if v != right {
                    b.add_edge(v, right).expect("torus edges are valid");
                }
            }
            if rows > 1 {
                let down = ((r + 1) % rows) * cols + c;
                if v != down {
                    b.add_edge(v, down).expect("torus edges are valid");
                }
            }
        }
    }
    b.build()
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` nodes; node ids are bit
/// vectors, nodes adjacent iff they differ in one bit.
///
/// # Panics
///
/// Panics if `d > 30` (size would overflow practical memory).
pub fn hypercube(d: u32) -> Graph {
    assert!(d <= 30, "hypercube dimension too large");
    let n = 1usize << d;
    let mut b = GraphBuilder::with_capacity(n, n * d as usize / 2);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1usize << bit);
            if v < u {
                b.add_edge(v, u).expect("hypercube edges are valid");
            }
        }
    }
    b.build()
}

/// King-move grid: the 8-neighborhood analogue of [`grid`], a denser
/// bounded-degree planar-ish topology.
pub fn king_grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 4 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                b.add_edge(v, v + 1).expect("king edges are valid");
            }
            if r + 1 < rows {
                // Ascending neighbour order keeps the list `(low, high)`
                // ordered, so the builder need not sort it.
                if c > 0 {
                    b.add_edge(v, v + cols - 1).expect("king edges are valid");
                }
                b.add_edge(v, v + cols).expect("king edges are valid");
                if c + 1 < cols {
                    b.add_edge(v, v + cols + 1).expect("king edges are valid");
                }
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_edge_count() {
        // rows*(cols-1) + cols*(rows-1)
        let g = grid(4, 5);
        assert_eq!(g.num_edges(), 4 * 4 + 5 * 3);
    }

    #[test]
    fn grid_degenerate() {
        assert_eq!(grid(1, 5), crate::generators::classic::path(5));
        assert_eq!(grid(0, 5).len(), 0);
    }

    #[test]
    fn torus_is_four_regular() {
        let g = torus(4, 5);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        assert_eq!(g.num_edges(), 2 * 20);
    }

    #[test]
    fn torus_small_sides() {
        // 2-wide torus would create doubled edges; they merge, so degree < 4.
        let g = torus(2, 4);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 3);
        }
    }

    #[test]
    fn hypercube_regular() {
        let g = hypercube(4);
        assert_eq!(g.len(), 16);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        assert!(g.has_edge(0b0000, 0b0100));
        assert!(!g.has_edge(0b0000, 0b0110));
    }

    #[test]
    fn hypercube_zero_dim() {
        let g = hypercube(0);
        assert_eq!(g.len(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn king_grid_center_degree() {
        let g = king_grid(3, 3);
        assert_eq!(g.degree(4), 8);
        assert_eq!(g.degree(0), 3);
    }
}
