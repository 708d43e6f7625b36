//! Error types for graph construction and IO.

use std::fmt;

/// Errors produced while building, validating, or parsing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referred to a node id that does not exist.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the graph under construction.
        num_nodes: usize,
    },
    /// A self-loop `(v, v)` was supplied; partitioning graphs are simple.
    SelfLoop {
        /// The node with the self-loop.
        node: u32,
    },
    /// An edge weight of zero was supplied; zero-weight edges would make
    /// the communication-cost metrics meaningless.
    ZeroEdgeWeight {
        /// Edge tail.
        u: u32,
        /// Edge head.
        v: u32,
    },
    /// A vertex weight of zero was supplied.
    ZeroNodeWeight {
        /// The offending node.
        node: u32,
    },
    /// The graph has more nodes than fit into `u32` node ids.
    TooManyNodes {
        /// Requested number of nodes.
        requested: usize,
    },
    /// The graph has more adjacency entries (directed half-edges) than fit
    /// into the memory-lean `u32` CSR offset array.
    AdjacencyOverflow {
        /// Number of adjacency entries requested.
        entries: usize,
    },
    /// A partition into zero parts, or into more parts than nodes, was
    /// requested.
    BadPartCount {
        /// Requested number of parts.
        num_parts: u32,
        /// Number of nodes available.
        num_nodes: usize,
    },
    /// A parse error while reading a graph file.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A partition label referred to a part that does not exist.
    PartOutOfRange {
        /// The offending part label.
        part: u32,
        /// Number of parts in the partition.
        num_parts: u32,
    },
    /// The operation requires vertex coordinates but the graph has none.
    MissingCoordinates,
    /// The coordinates lie further apart than an `f64` measures (`1e308`
    /// and `-1e308` are finite, their distance is not), so no length
    /// scale or grid fits them.
    UnboundedCoords,
    /// A coordinate set did not match the graph's node count.
    CoordsMismatch {
        /// Number of coordinates supplied.
        coords: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// The operation requires a connected graph.
    Disconnected {
        /// Number of connected components found.
        components: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node id {node} out of range (graph has {num_nodes} nodes)"
                )
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop on node {node}"),
            GraphError::ZeroEdgeWeight { u, v } => {
                write!(f, "zero edge weight on edge ({u}, {v})")
            }
            GraphError::ZeroNodeWeight { node } => write!(f, "zero weight on node {node}"),
            GraphError::TooManyNodes { requested } => {
                write!(f, "{requested} nodes exceed the u32 id space")
            }
            GraphError::AdjacencyOverflow { entries } => {
                write!(
                    f,
                    "{entries} adjacency entries exceed the u32 CSR offset space"
                )
            }
            GraphError::PartOutOfRange { part, num_parts } => {
                write!(
                    f,
                    "part label {part} out of range (partition has {num_parts} parts)"
                )
            }
            GraphError::BadPartCount {
                num_parts,
                num_nodes,
            } => {
                write!(f, "cannot split {num_nodes} nodes into {num_parts} parts")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::MissingCoordinates => write!(f, "graph has no vertex coordinates"),
            GraphError::UnboundedCoords => {
                write!(f, "coordinates span more than an f64 measures")
            }
            GraphError::CoordsMismatch { coords, nodes } => {
                write!(f, "{coords} coordinates for {nodes} nodes")
            }
            GraphError::Disconnected { components } => {
                write!(f, "graph is disconnected ({components} components)")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::NodeOutOfRange {
            node: 9,
            num_nodes: 4,
        };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("4"));
        let e = GraphError::SelfLoop { node: 3 };
        assert!(e.to_string().contains("self-loop"));
        let e = GraphError::Parse {
            line: 7,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 7"));
        let e = GraphError::Disconnected { components: 2 };
        assert!(e.to_string().contains("2 components"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            GraphError::MissingCoordinates,
            GraphError::MissingCoordinates
        );
        assert_ne!(
            GraphError::SelfLoop { node: 1 },
            GraphError::SelfLoop { node: 2 }
        );
    }
}
