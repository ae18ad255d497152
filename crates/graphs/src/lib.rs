//! Graph substrate for beeping-model simulations.
//!
//! This crate provides the graph infrastructure underlying the
//! self-stabilizing MIS reproduction:
//!
//! - [`Graph`]: a compact, immutable undirected graph in CSR (compressed
//!   sparse row) form, the representation every simulator round iterates over;
//! - [`GraphBuilder`]: incremental construction with validation (no self
//!   loops, duplicate edges merged);
//! - [`generators`]: the workload families used by the experiments — classic
//!   topologies, lattices, random graphs, trees, scale-free and geometric
//!   (wireless-sensor-like) graphs;
//! - [`motion`]: mobility models (random waypoint, drift) that animate a
//!   geometric deployment and rebuild its radius graph every round;
//! - [`properties`]: structural measurements (components, diameter,
//!   degeneracy, degree statistics) used to characterize workloads;
//! - [`dot`]: Graphviz export with MIS highlighting;
//! - [`mis`]: maximal-independent-set verification and sequential reference
//!   algorithms, the ground truth every distributed algorithm is checked
//!   against.
//!
//! # Example
//!
//! ```
//! use graphs::{generators, mis};
//!
//! let g = generators::random::gnp(200, 0.05, 42);
//! let set = mis::greedy_mis(&g);
//! assert!(mis::is_maximal_independent_set(&g, &set));
//! ```

pub mod builder;
pub mod dot;
pub mod edgelist;
pub mod generators;
pub mod graph;
pub mod mis;
pub mod motion;
pub mod properties;

pub use builder::GraphBuilder;
pub use graph::{CsrError, Graph, NodeId};

/// Errors produced while constructing or parsing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referenced a node outside `0..n`.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the graph under construction.
        n: usize,
    },
    /// A self loop `(v, v)` was supplied; the beeping model is defined on
    /// simple graphs.
    SelfLoop(usize),
    /// A parse error when reading an edge-list file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// A generator was called with parameters that define no graph
    /// (e.g. a negative probability or `k >= n` for a `k`-regular graph).
    InvalidParameter(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop(v) => write!(f, "self loop at node {v}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            GraphError::NodeOutOfRange { node: 5, n: 3 },
            GraphError::SelfLoop(2),
            GraphError::Parse { line: 7, message: "bad token".into() },
            GraphError::InvalidParameter("p must be in [0,1]".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
            assert!(!format!("{e:?}").is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
