//! Compact undirected graph in CSR form, with event-driven mutation for
//! topology churn.

/// Index of a node in a [`Graph`]; nodes are always `0..n`.
pub type NodeId = usize;

/// Converts a validated node id to its compact `u32` adjacency form.
///
/// Node ids are `< n ≤ u32::MAX` (enforced at construction by
/// [`crate::GraphBuilder::new`]), so the narrowing is lossless; the debug
/// assertion catches misuse with out-of-range ids before the cast could
/// truncate. This is the single sanctioned id-narrowing site (lint L6).
#[inline]
pub(crate) fn node_id32(v: NodeId) -> u32 {
    debug_assert!(u32::try_from(v).is_ok(), "node id {v} exceeds u32 range");
    v as u32
}

/// A simple, undirected graph stored in compressed sparse row (CSR) form.
///
/// Every node's adjacency list is a sorted slice of a single shared buffer,
/// which keeps round simulation cache-friendly: a beeping round is one linear
/// scan over `neighbors`.
///
/// Construct a `Graph` with [`crate::GraphBuilder`], [`Graph::from_edges`],
/// or one of the [`crate::generators`]. The graph is structurally immutable
/// during simulation except through the explicit churn entry points
/// [`Graph::insert_edge`], [`Graph::remove_edge`] and
/// [`Graph::isolate_node`], which preserve the CSR invariants per event.
///
/// # Example
///
/// ```
/// use graphs::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
/// assert_eq!(g.len(), 4);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated, per-node-sorted adjacency lists (as u32 for compactness).
    neighbors: Vec<u32>,
}

impl Graph {
    /// Creates a graph with `n` nodes from an iterator of undirected edges.
    ///
    /// Edges may appear in any order and in either orientation; duplicates
    /// are merged. Takes O(n + m) when the edges are strictly ordered by
    /// their `(low, high)` or their `(high, low)` endpoints, and one
    /// comparison sort of the edge list otherwise (see
    /// [`GraphBuilder::build`](crate::GraphBuilder::build)).
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError::NodeOutOfRange`] if an endpoint is
    /// `>= n` and [`crate::GraphError::SelfLoop`] for an edge `(v, v)`.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Graph, crate::GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut builder = crate::GraphBuilder::new(n);
        for (u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Creates a graph with `n` nodes and no edges.
    ///
    /// # Example
    ///
    /// ```
    /// let g = graphs::Graph::empty(5);
    /// assert_eq!(g.num_edges(), 0);
    /// assert_eq!(g.max_degree(), 0);
    /// ```
    pub fn empty(n: usize) -> Graph {
        Graph { offsets: vec![0; n + 1], neighbors: Vec::new() }
    }

    /// Builds a graph directly from CSR buffers.
    ///
    /// `offsets` must have one entry per node plus a final total-length
    /// entry; `offsets[v]..offsets[v + 1]` indexes `neighbors` for node
    /// `v`. The adjacency content itself (per-node sorted, deduplicated,
    /// symmetric) is the caller's contract — only the *structural* CSR
    /// shape is validated here, in release builds too, so a malformed
    /// buffer surfaces as a typed error instead of a later out-of-bounds
    /// panic.
    ///
    /// # Errors
    ///
    /// [`CsrError::EmptyOffsets`] if `offsets` has no entries at all,
    /// [`CsrError::NonMonotonicOffsets`] if any offset decreases (or the
    /// first is nonzero), [`CsrError::LengthMismatch`] if the final offset
    /// disagrees with `neighbors.len()`.
    pub fn from_csr(offsets: Vec<usize>, neighbors: Vec<u32>) -> Result<Graph, CsrError> {
        let Some(&last) = offsets.last() else {
            return Err(CsrError::EmptyOffsets);
        };
        if offsets[0] != 0 {
            return Err(CsrError::NonMonotonicOffsets { index: 0 });
        }
        if let Some(index) = (1..offsets.len()).find(|&i| offsets[i] < offsets[i - 1]) {
            return Err(CsrError::NonMonotonicOffsets { index });
        }
        if last != neighbors.len() {
            return Err(CsrError::LengthMismatch { last_offset: last, neighbors: neighbors.len() });
        }
        Ok(Graph { offsets, neighbors })
    }

    /// Builds a graph from CSR buffers whose structural invariants the
    /// caller upholds *by construction* — the crate-internal back door for
    /// [`GraphBuilder::build`](crate::builder::GraphBuilder::build) and
    /// the geometric builder, whose prefix-sum loops cannot produce an
    /// empty or non-monotonic offsets array. Debug builds still verify the contract; release builds skip
    /// the scan (and the panic path a fallible call would reintroduce on
    /// the hot decode route).
    pub(crate) fn from_csr_trusted(offsets: Vec<usize>, neighbors: Vec<u32>) -> Graph {
        debug_assert!(!offsets.is_empty(), "CSR offsets must have a final total-length entry");
        debug_assert!(
            offsets[0] == 0 && offsets.windows(2).all(|w| w[0] <= w[1]),
            "CSR offsets must be monotonic from 0"
        );
        debug_assert_eq!(
            offsets.last().copied(),
            Some(neighbors.len()),
            "CSR final offset must equal the neighbor buffer length"
        );
        Graph { offsets, neighbors }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// The sorted adjacency list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.len()`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[u32] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.len()`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree `Δ` over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes (0 for an empty graph).
    pub fn min_degree(&self) -> usize {
        (0..self.len()).map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Average degree `2m / n` (0.0 for an empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.neighbors.len() as f64 / self.len() as f64
        }
    }

    /// Maximum degree over the closed 1-hop neighborhood of `v`:
    /// `deg₂(v) = max_{u ∈ N(v) ∪ {v}} deg(u)` (notation of the paper, §3).
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.len()`.
    pub fn deg2(&self, v: NodeId) -> usize {
        let mut best = self.degree(v);
        for &u in self.neighbors(v) {
            best = best.max(self.degree(u as usize));
        }
        best
    }

    /// `true` if `u` and `v` are adjacent.
    ///
    /// Uses binary search over the sorted adjacency list of the lower-degree
    /// endpoint, so this is `O(log min(deg u, deg v))`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&node_id32(b)).is_ok()
    }

    /// Iterates over all nodes `0..n`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.len()
    }

    /// Iterates over each undirected edge once, as `(u, v)` with `u < v`.
    ///
    /// # Example
    ///
    /// ```
    /// let g = graphs::Graph::from_edges(3, [(2, 0), (1, 2)]).unwrap();
    /// let edges: Vec<_> = g.edges().collect();
    /// assert_eq!(edges, vec![(0, 2), (1, 2)]);
    /// ```
    pub fn edges(&self) -> Edges<'_> {
        Edges { graph: self, node: 0, idx: 0 }
    }

    /// Sum of degrees, i.e. `2m`.
    #[inline]
    pub fn degree_sum(&self) -> usize {
        self.neighbors.len()
    }

    /// Returns the degree histogram: `hist[d]` counts nodes of degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_degree() + 1];
        for v in self.nodes() {
            hist[self.degree(v)] += 1;
        }
        hist
    }

    /// Returns the subgraph induced by `keep`, together with the mapping
    /// from new node ids to original ids.
    ///
    /// Nodes are renumbered in the order they appear in `keep`; duplicate
    /// entries in `keep` are ignored after the first occurrence.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut new_id = vec![usize::MAX; self.len()];
        let mut order = Vec::with_capacity(keep.len());
        for &v in keep {
            if new_id[v] == usize::MAX {
                new_id[v] = order.len();
                order.push(v);
            }
        }
        let mut builder = crate::GraphBuilder::new(order.len());
        for (nu, &v) in order.iter().enumerate() {
            for &w in self.neighbors(v) {
                let nw = new_id[w as usize];
                if nw != usize::MAX && nu < nw {
                    builder
                        .add_edge(nu, nw)
                        .expect("induced subgraph edges are in range by construction");
                }
            }
        }
        (builder.build(), order)
    }

    /// Inserts the undirected edge `{u, v}` in place, keeping the CSR
    /// invariants (sorted, deduplicated, symmetric).
    ///
    /// Returns `Ok(true)` if the edge was inserted and `Ok(false)` if it was
    /// already present. This is the topology-churn entry point: an edge
    /// insertion is `O(n + m)` (two sorted-slice insertions plus offset
    /// shifts), intended for *event-driven* mutation, not bulk construction —
    /// use [`crate::GraphBuilder`] for that.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError::NodeOutOfRange`] if an endpoint is
    /// `>= self.len()` and [`crate::GraphError::SelfLoop`] for `u == v`.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, crate::GraphError> {
        let n = self.len();
        if u >= n {
            return Err(crate::GraphError::NodeOutOfRange { node: u, n });
        }
        if v >= n {
            return Err(crate::GraphError::NodeOutOfRange { node: v, n });
        }
        if u == v {
            return Err(crate::GraphError::SelfLoop(u));
        }
        if self.has_edge(u, v) {
            return Ok(false);
        }
        self.insert_half_edge(u, node_id32(v));
        self.insert_half_edge(v, node_id32(u));
        Ok(true)
    }

    /// Removes the undirected edge `{u, v}` in place; returns `true` if it
    /// was present. `O(n + m)`, intended for event-driven topology churn.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || !self.has_edge(u, v) {
            return false;
        }
        self.remove_half_edge(u, node_id32(v));
        self.remove_half_edge(v, node_id32(u));
        true
    }

    /// Removes every edge incident to `v` (node departure in a churn
    /// schedule); the node itself remains as an isolated vertex, so node ids
    /// stay stable. Returns the number of edges removed.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn isolate_node(&mut self, v: NodeId) -> usize {
        let incident: Vec<u32> = self.neighbors(v).to_vec();
        for &u in &incident {
            self.remove_half_edge(v, u);
            self.remove_half_edge(u as usize, node_id32(v));
        }
        incident.len()
    }

    /// Inserts `dst` into `src`'s sorted adjacency slice and shifts all
    /// later offsets. The caller guarantees `dst` is absent.
    fn insert_half_edge(&mut self, src: NodeId, dst: u32) {
        let start = self.offsets[src];
        let end = self.offsets[src + 1];
        let pos = start + self.neighbors[start..end].partition_point(|&w| w < dst);
        self.neighbors.insert(pos, dst);
        for o in &mut self.offsets[src + 1..] {
            *o += 1;
        }
    }

    /// Removes `dst` from `src`'s sorted adjacency slice and shifts all
    /// later offsets. The caller guarantees `dst` is present.
    fn remove_half_edge(&mut self, src: NodeId, dst: u32) {
        let start = self.offsets[src];
        let end = self.offsets[src + 1];
        let pos = start
            + self.neighbors[start..end]
                .binary_search(&dst)
                .expect("remove_half_edge requires a present edge");
        self.neighbors.remove(pos);
        for o in &mut self.offsets[src + 1..] {
            *o -= 1;
        }
    }

    /// Disjoint union of two graphs: nodes of `other` are shifted by
    /// `self.len()`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let shift = self.len();
        let mut builder = crate::GraphBuilder::new(shift + other.len());
        for (u, v) in self.edges() {
            builder.add_edge(u, v).expect("existing edges are valid");
        }
        for (u, v) in other.edges() {
            builder.add_edge(u + shift, v + shift).expect("shifted edges are valid");
        }
        builder.build()
    }
}

/// Why a pair of CSR buffers does not describe a graph (see
/// [`Graph::from_csr`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrError {
    /// `offsets` was empty — a CSR always has at least the final
    /// total-length entry (an empty graph is `offsets == [0]`).
    EmptyOffsets,
    /// An offset decreased relative to its predecessor (or the first offset
    /// was nonzero), so some node's adjacency range is ill-formed.
    NonMonotonicOffsets {
        /// Index of the first offending entry in `offsets`.
        index: usize,
    },
    /// The final offset does not equal the neighbor buffer's length, so the
    /// buffers disagree about how many adjacency entries exist.
    LengthMismatch {
        /// The final entry of `offsets`.
        last_offset: usize,
        /// `neighbors.len()`.
        neighbors: usize,
    },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::EmptyOffsets => write!(f, "CSR offsets buffer is empty"),
            CsrError::NonMonotonicOffsets { index } => {
                write!(f, "CSR offsets are not monotonically non-decreasing at index {index}")
            }
            CsrError::LengthMismatch { last_offset, neighbors } => write!(
                f,
                "CSR final offset {last_offset} disagrees with neighbor buffer length {neighbors}"
            ),
        }
    }
}

impl std::error::Error for CsrError {}

/// Iterator over undirected edges of a [`Graph`], produced by
/// [`Graph::edges`]. Yields each edge once as `(u, v)` with `u < v`.
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    graph: &'a Graph,
    node: NodeId,
    idx: usize,
}

impl Iterator for Edges<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        let g = self.graph;
        while self.node < g.len() {
            let adj = g.neighbors(self.node);
            while self.idx < adj.len() {
                let w = adj[self.idx] as usize;
                self.idx += 1;
                if self.node < w {
                    return Some((self.node, w));
                }
            }
            self.node += 1;
            self.idx = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_csr_accepts_a_valid_graph() {
        let g = Graph::from_csr(vec![0, 2, 3, 3], vec![1, 2, 0]).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        let empty = Graph::from_csr(vec![0], vec![]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn from_csr_rejects_empty_offsets() {
        assert_eq!(Graph::from_csr(vec![], vec![]), Err(CsrError::EmptyOffsets));
        assert_eq!(Graph::from_csr(vec![], vec![0, 1]), Err(CsrError::EmptyOffsets));
    }

    #[test]
    fn from_csr_rejects_non_monotonic_offsets() {
        assert_eq!(
            Graph::from_csr(vec![1, 2], vec![0, 0]),
            Err(CsrError::NonMonotonicOffsets { index: 0 })
        );
        assert_eq!(
            Graph::from_csr(vec![0, 3, 2], vec![0, 0, 0]),
            Err(CsrError::NonMonotonicOffsets { index: 2 })
        );
    }

    #[test]
    fn from_csr_rejects_mismatched_neighbor_length() {
        assert_eq!(
            Graph::from_csr(vec![0, 2], vec![1]),
            Err(CsrError::LengthMismatch { last_offset: 2, neighbors: 1 })
        );
        assert_eq!(
            Graph::from_csr(vec![0, 1], vec![1, 0, 2]),
            Err(CsrError::LengthMismatch { last_offset: 1, neighbors: 3 })
        );
    }

    #[test]
    fn csr_error_display_is_nonempty() {
        let errors = [
            CsrError::EmptyOffsets,
            CsrError::NonMonotonicOffsets { index: 4 },
            CsrError::LengthMismatch { last_offset: 2, neighbors: 1 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_nodes() {
        let g = Graph::empty(4);
        assert_eq!(g.len(), 4);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 0);
            assert!(g.neighbors(v).is_empty());
        }
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.len(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        for v in g.nodes() {
            assert_eq!(g.deg2(v), 2);
        }
    }

    #[test]
    fn duplicate_and_reversed_edges_merge() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn self_loop_rejected() {
        let err = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(err, crate::GraphError::SelfLoop(1));
    }

    #[test]
    fn out_of_range_rejected() {
        let err = Graph::from_edges(3, [(0, 3)]).unwrap_err();
        assert_eq!(err, crate::GraphError::NodeOutOfRange { node: 3, n: 3 });
    }

    #[test]
    fn has_edge_both_orientations() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once_sorted() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn deg2_star() {
        // Star: center 0 with 4 leaves. deg2(leaf) = deg(center) = 4.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        assert_eq!(g.deg2(0), 4);
        for leaf in 1..5 {
            assert_eq!(g.deg2(leaf), 4);
            assert_eq!(g.degree(leaf), 1);
        }
    }

    #[test]
    fn degree_histogram_star() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let hist = g.degree_histogram();
        assert_eq!(hist, vec![0, 4, 0, 0, 1]);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let (sub, order) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(sub.len(), 3);
        // Path 1-2-3 becomes 0-1-2.
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = triangle();
        let (sub, order) = g.induced_subgraph(&[2, 2, 0]);
        assert_eq!(order, vec![2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.num_edges(), 1);
    }

    #[test]
    fn disjoint_union() {
        let g = triangle().disjoint_union(&triangle());
        assert_eq!(g.len(), 6);
        assert_eq!(g.num_edges(), 6);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(3, 4));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn insert_edge_keeps_csr_invariants() {
        let mut g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(g.insert_edge(1, 2), Ok(true));
        assert_eq!(g.insert_edge(2, 1), Ok(false)); // already present
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert!(g.has_edge(1, 2));
        // Equal to the same graph built from scratch.
        let rebuilt = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn insert_edge_rejects_invalid() {
        let mut g = Graph::empty(3);
        assert_eq!(g.insert_edge(1, 1), Err(crate::GraphError::SelfLoop(1)));
        assert_eq!(g.insert_edge(0, 3), Err(crate::GraphError::NodeOutOfRange { node: 3, n: 3 }));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn remove_edge_and_absent_edge() {
        let mut g = triangle();
        assert!(g.remove_edge(0, 2));
        assert!(!g.remove_edge(0, 2)); // already gone
        assert!(!g.remove_edge(1, 1)); // self loops never exist
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g, Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap());
    }

    #[test]
    fn insert_remove_round_trip_is_identity() {
        let original = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let mut g = original.clone();
        assert_eq!(g.insert_edge(0, 2), Ok(true));
        assert_eq!(g.insert_edge(1, 4), Ok(true));
        assert!(g.remove_edge(1, 4));
        assert!(g.remove_edge(0, 2));
        assert_eq!(g, original);
    }

    #[test]
    fn isolate_node_removes_all_incident_edges() {
        let mut g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap();
        assert_eq!(g.isolate_node(0), 4);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(1, 2));
        assert_eq!(g.isolate_node(0), 0); // idempotent
        assert_eq!(g, Graph::from_edges(5, [(1, 2)]).unwrap());
    }

    #[test]
    fn graph_common_traits() {
        let g = triangle();
        let g2 = g.clone();
        assert_eq!(g, g2);
        assert!(!format!("{g:?}").is_empty());
    }
}
