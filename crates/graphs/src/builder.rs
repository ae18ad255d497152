//! Incremental construction of [`Graph`]s.

use crate::{Graph, GraphError, NodeId};

/// Incremental builder for [`Graph`].
///
/// Collects undirected edges (in any orientation, duplicates allowed — they
/// are merged at [`GraphBuilder::build`] time) and produces a validated CSR
/// graph.
///
/// # Example
///
/// ```
/// use graphs::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(2, 1)?;
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// # Ok::<(), graphs::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> GraphBuilder {
        assert!(n <= u32::MAX as usize, "graphs are limited to u32::MAX nodes");
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Creates a builder with capacity reserved for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> GraphBuilder {
        let mut b = GraphBuilder::new(n);
        b.edges.reserve(m);
        b
    }

    /// Number of nodes the built graph will have.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the builder targets a graph with no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v` and
    /// [`GraphError::NodeOutOfRange`] if either endpoint is `>= n`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut GraphBuilder, GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((crate::graph::node_id32(a), crate::graph::node_id32(b)));
        Ok(self)
    }

    /// Adds every edge from an iterator, stopping at the first error.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GraphError`] from [`GraphBuilder::add_edge`].
    pub fn add_edges<I>(&mut self, edges: I) -> Result<&mut GraphBuilder, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        for (u, v) in edges {
            self.add_edge(u, v)?;
        }
        Ok(self)
    }

    /// Finalizes the builder into an immutable [`Graph`].
    ///
    /// Duplicate edges are merged; adjacency lists come out sorted. Takes
    /// O(n + m) when the insertions are strictly ordered by their
    /// `(low, high)` or their `(high, low)` endpoints, and one comparison
    /// sort of the edge list otherwise.
    pub fn build(mut self) -> Graph {
        // A strict order also rules out duplicates.
        let ordered = self.edges.windows(2).all(|w| w[0] < w[1])
            || self.edges.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0));
        if !ordered {
            self.edges.sort_unstable();
            self.edges.dedup();
        }
        // Count each node's degree into `offsets[v]` and take inclusive
        // prefix sums, so `offsets[v]` is the end of v's slice. Placing the
        // edges from the back with a decrement then leaves it at v's start.
        let n = self.n;
        let mut offsets = vec![0usize; n + 1];
        for &(a, b) in &self.edges {
            offsets[a as usize] += 1;
            offsets[b as usize] += 1;
        }
        for v in 1..=n {
            offsets[v] += offsets[v - 1];
        }
        let mut neighbors = vec![0u32; offsets[n]];
        for &(a, b) in self.edges.iter().rev() {
            offsets[a as usize] -= 1;
            neighbors[offsets[a as usize]] = b;
            offsets[b as usize] -= 1;
            neighbors[offsets[b as usize]] = a;
        }
        // Every slice comes out sorted, with no per-node sort. The fill keeps
        // list order within a slice, and under either key node x receives
        // its lower neighbours y in ascending order before its higher
        // neighbours z, also ascending: under `(low, high)` every `(y, x)`
        // precedes `(x, z)` because y < x, and under `(high, low)` because
        // x < z.
        debug_assert!(
            (0..n).all(|v| neighbors[offsets[v]..offsets[v + 1]].windows(2).all(|w| w[0] < w[1])),
            "CSR fill of an ordered edge list must yield sorted neighbour lists"
        );
        Graph::from_csr_trusted(offsets, neighbors)
    }
}

impl Extend<(NodeId, NodeId)> for GraphBuilder {
    /// Extends with edges, panicking on invalid ones.
    ///
    /// Use [`GraphBuilder::add_edges`] for fallible insertion.
    fn extend<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) {
        self.add_edges(iter).expect("invalid edge passed to GraphBuilder::extend");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_adjacency() {
        let mut b = GraphBuilder::new(5);
        b.add_edges([(4, 0), (0, 2), (0, 1), (3, 0)]).unwrap();
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn dedups_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edges([(0, 1), (1, 0), (0, 1), (1, 2)]).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(b.add_edge(0, 0), Err(GraphError::SelfLoop(0))));
        assert!(matches!(b.add_edge(0, 2), Err(GraphError::NodeOutOfRange { node: 2, n: 2 })));
        assert!(matches!(b.add_edge(9, 1), Err(GraphError::NodeOutOfRange { node: 9, n: 2 })));
    }

    #[test]
    fn extend_trait() {
        let mut b = GraphBuilder::new(4);
        b.extend([(0, 1), (2, 3)]);
        assert_eq!(b.build().num_edges(), 2);
    }

    #[test]
    fn empty_builder() {
        let b = GraphBuilder::new(0);
        assert!(b.is_empty());
        let g = b.build();
        assert!(g.is_empty());
    }

    #[test]
    fn chaining() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap().add_edge(1, 2).unwrap();
        assert_eq!(b.build().num_edges(), 2);
    }
}
