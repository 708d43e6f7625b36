//! The graph Laplacian as an operator.

use gapart_graph::CsrGraph;

/// The weighted graph Laplacian `L = D − W` of `graph` as the operator
/// `op(x, y)` that sets `y = L x`, where `W` is the (symmetric)
/// edge-weight matrix and `D` the diagonal of weighted degrees.
///
/// `L` is positive semidefinite; on a connected graph its null space is
/// spanned by the constant vector and its second-smallest eigenvector is
/// the Fiedler vector used by spectral bisection.
///
/// The product reads `W` straight from the graph's CSR rows, so no matrix
/// is assembled. Rows are sorted by neighbour id, so row `v` adds its
/// diagonal term just before its first neighbour above `v`: each entry of
/// `y` sums its row's terms in column order, as a sorted sparse matrix of
/// `L` does, and rounds the same way.
pub fn laplacian(graph: &CsrGraph) -> impl Fn(&[f64], &mut [f64]) + '_ {
    let degrees: Vec<f64> = (0..graph.num_nodes() as u32)
        .map(|v| {
            graph
                .edge_weights(v)
                .iter()
                .fold(0.0f64, |deg, &w| deg + w as f64)
        })
        .collect();
    move |x, y| {
        for (v, yv) in y.iter_mut().enumerate() {
            let nbrs = graph.neighbors(v as u32);
            let wts = graph.edge_weights(v as u32);
            let off = |k: usize| -(wts[k] as f64) * x[nbrs[k] as usize];
            let split = nbrs.partition_point(|&u| (u as usize) < v);
            let mut acc = 0.0;
            for k in 0..split {
                acc += off(k);
            }
            acc += degrees[v] * x[v];
            for k in split..nbrs.len() {
                acc += off(k);
            }
            *yv = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapart_graph::builder::from_edges;
    use gapart_graph::GraphBuilder;

    fn apply(g: &CsrGraph, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; g.num_nodes()];
        laplacian(g)(x, &mut y);
        y
    }

    /// Entry `(i, j)` of `L`: row `i` of `L e_j`.
    fn entry(g: &CsrGraph, i: usize, j: usize) -> f64 {
        let mut e = vec![0.0; g.num_nodes()];
        e[j] = 1.0;
        apply(g, &e)[i]
    }

    #[test]
    fn path_laplacian_entries() {
        let g = from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(entry(&g, 0, 0), 1.0);
        assert_eq!(entry(&g, 1, 1), 2.0);
        assert_eq!(entry(&g, 0, 1), -1.0);
        assert_eq!(entry(&g, 0, 2), 0.0);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(entry(&g, i, j), entry(&g, j, i), "({i}, {j})");
            }
        }
    }

    #[test]
    fn weighted_laplacian() {
        let g = GraphBuilder::with_nodes(2)
            .weighted_edge(0, 1, 5)
            .build()
            .unwrap();
        assert_eq!(entry(&g, 0, 0), 5.0);
        assert_eq!(entry(&g, 0, 1), -5.0);
    }

    #[test]
    fn rows_sum_to_zero() {
        let g = gapart_graph::generators::paper_graph(78);
        let y = apply(&g, &[1.0; 78]);
        for yi in y {
            assert!(yi.abs() < 1e-12);
        }
    }

    #[test]
    fn quadratic_form_counts_cut() {
        // x ∈ {0,1}^n indicator: xᵀLx = weight of edges across the split.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let x = vec![1.0, 1.0, 0.0, 0.0];
        let lx = apply(&g, &x);
        let q: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        assert_eq!(q, 2.0); // edges 1-2 and 3-0 are cut
    }
}
