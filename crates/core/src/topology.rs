//! DPGA communication topologies (§3.4).
//!
//! Subpopulations sit on the nodes of a virtual parallel architecture and
//! exchange their best individuals with topological neighbours only. The
//! paper's experiments use a 4-dimensional hypercube of 16 subpopulations.

/// A virtual interconnect between subpopulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `2^dim` nodes; neighbours differ in one address bit. The paper's
    /// configuration is `Hypercube(4)`.
    Hypercube(u32),
    /// A cycle of `n` nodes.
    Ring(usize),
    /// Every node is everyone's neighbour (panmictic migration — the
    /// degenerate control case).
    Complete(usize),
}

impl Topology {
    /// Number of nodes (subpopulations).
    pub fn size(&self) -> usize {
        match self {
            Topology::Hypercube(d) => 1usize << d,
            Topology::Ring(n) => *n,
            Topology::Complete(n) => *n,
        }
    }

    /// Neighbours of node `i`, in deterministic order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= size()`.
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        let n = self.size();
        assert!(i < n, "node {i} out of range (size {n})");
        match self {
            Topology::Hypercube(d) => (0..*d).map(|bit| i ^ (1usize << bit)).collect(),
            Topology::Ring(n) => {
                if *n == 1 {
                    vec![]
                } else if *n == 2 {
                    vec![(i + 1) % n]
                } else {
                    vec![(i + n - 1) % n, (i + 1) % n]
                }
            }
            Topology::Complete(n) => (0..*n).filter(|&j| j != i).collect(),
        }
    }

    /// The paper's configuration: 16 subpopulations on a 4-d hypercube.
    pub const PAPER: Topology = Topology::Hypercube(4);
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Topology::Hypercube(d) => write!(f, "hypercube({d})"),
            Topology::Ring(n) => write!(f, "ring({n})"),
            Topology::Complete(n) => write!(f, "complete({n})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_is_16_nodes_degree_4() {
        let t = Topology::PAPER;
        assert_eq!(t.size(), 16);
        for i in 0..16 {
            let nbrs = t.neighbors(i);
            assert_eq!(nbrs.len(), 4);
            for &j in &nbrs {
                // Hamming distance 1 in the address.
                assert_eq!((i ^ j).count_ones(), 1);
                // Symmetry.
                assert!(t.neighbors(j).contains(&i));
            }
        }
    }

    #[test]
    fn hypercube_dim0_is_singleton() {
        let t = Topology::Hypercube(0);
        assert_eq!(t.size(), 1);
        assert!(t.neighbors(0).is_empty());
    }

    #[test]
    fn ring_wraps() {
        let t = Topology::Ring(5);
        assert_eq!(t.neighbors(0), vec![4, 1]);
        assert_eq!(t.neighbors(4), vec![3, 0]);
    }

    #[test]
    fn ring_of_two_has_single_neighbor() {
        let t = Topology::Ring(2);
        assert_eq!(t.neighbors(0), vec![1]);
        assert_eq!(t.neighbors(1), vec![0]);
    }

    #[test]
    fn complete_connects_everyone() {
        let t = Topology::Complete(4);
        assert_eq!(t.neighbors(2), vec![0, 1, 3]);
    }

    #[test]
    fn all_topologies_are_symmetric() {
        for t in [
            Topology::Hypercube(3),
            Topology::Ring(7),
            Topology::Complete(5),
        ] {
            for i in 0..t.size() {
                for j in t.neighbors(i) {
                    assert!(t.neighbors(j).contains(&i), "{t}: {i} -> {j} asymmetric");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        Topology::Ring(3).neighbors(3);
    }
}
