//! Fiedler vector computation via deflated Lanczos.

use crate::laplacian::laplacian;
use crate::RsbError;
use gapart_graph::CsrGraph;
use gapart_linalg::lanczos_smallest;

/// Computes the Fiedler vector of `graph`: the eigenvector of the
/// second-smallest Laplacian eigenvalue, obtained as the smallest
/// eigenpair after deflating the constant vector. `seed` draws the
/// Lanczos start vector.
///
/// On a *disconnected* graph the returned vector corresponds to a zero
/// eigenvalue and is (numerically) piecewise constant on components —
/// still a usable bisection direction, which is exactly how recursive
/// bisection wants it to behave.
///
/// # Errors
///
/// [`RsbError::Eigensolver`] if Lanczos cannot produce an eigenpair
/// (pathological inputs only); graphs with fewer than 2 nodes are also
/// rejected.
pub fn fiedler_vector(graph: &CsrGraph, seed: u64) -> Result<Vec<f64>, RsbError> {
    let n = graph.num_nodes();
    if n < 2 {
        return Err(RsbError::Eigensolver(format!(
            "graph with {n} nodes has no Fiedler vector"
        )));
    }
    let ones = vec![1.0 / (n as f64).sqrt(); n];
    let result = lanczos_smallest(laplacian(graph), n, 1, &[ones], seed)
        .map_err(|e| RsbError::Eigensolver(e.to_string()))?;
    let v = result
        .eigenvectors
        .into_iter()
        .next()
        .ok_or_else(|| RsbError::Eigensolver("no eigenvector returned".into()))?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapart_graph::builder::from_edges;
    use gapart_graph::generators::{grid2d, paper_graph, GridKind};

    #[test]
    fn path_fiedler_is_monotone() {
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let v = fiedler_vector(&g, 1).unwrap();
        let inc = v.windows(2).all(|w| w[0] <= w[1] + 1e-9);
        let dec = v.windows(2).all(|w| w[0] >= w[1] - 1e-9);
        assert!(inc || dec, "not monotone: {v:?}");
    }

    #[test]
    fn fiedler_orthogonal_to_constant() {
        let g = paper_graph(98);
        let v = fiedler_vector(&g, 2).unwrap();
        let sum: f64 = v.iter().sum();
        assert!(sum.abs() < 1e-6, "sum = {sum}");
    }

    #[test]
    fn grid_fiedler_separates_halves() {
        // On a wide grid the Fiedler vector varies along the long axis, so
        // its sign splits left from right.
        let g = grid2d(4, 12, GridKind::FourConnected);
        let v = fiedler_vector(&g, 3).unwrap();
        // Columns 0..6 should have one sign, 6..12 the other (up to global
        // sign). Compare column means.
        let col_mean = |c: usize| -> f64 { (0..4).map(|r| v[r * 12 + c]).sum::<f64>() / 4.0 };
        let left = col_mean(0);
        let right = col_mean(11);
        assert!(
            left * right < 0.0,
            "extreme columns should have opposite sign: {left} vs {right}"
        );
        // And the profile should be monotone along columns.
        let means: Vec<f64> = (0..12).map(col_mean).collect();
        let inc = means.windows(2).all(|w| w[0] <= w[1] + 1e-6);
        let dec = means.windows(2).all(|w| w[0] >= w[1] - 1e-6);
        assert!(inc || dec, "column means not monotone: {means:?}");
    }

    #[test]
    fn rejects_tiny_graphs() {
        let g = from_edges(1, &[]).unwrap();
        assert!(fiedler_vector(&g, 0).is_err());
    }

    #[test]
    fn disconnected_graph_gets_component_indicator() {
        // Two triangles, no crossing edges.
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let v = fiedler_vector(&g, 5).unwrap();
        // Vector ~constant within each component, different across.
        let spread_a = (v[0] - v[1]).abs().max((v[0] - v[2]).abs());
        let spread_b = (v[3] - v[4]).abs().max((v[3] - v[5]).abs());
        assert!(spread_a < 1e-5 && spread_b < 1e-5, "{v:?}");
        assert!((v[0] - v[3]).abs() > 1e-3, "{v:?}");
    }
}
