//! The triplet-built Laplacian: `L = D − W` listed as `(row, col, value)`
//! triplets, sorted into CSR rows and multiplied row by row. This is how
//! RSB assembled `L` at every bisection level before it applied `L`
//! straight from the graph's rows, and `gapart_rsb::laplacian` must
//! reproduce its products bit for bit.

use gapart_graph::CsrGraph;

/// `L` of one graph as sorted CSR rows.
pub struct TripletLaplacian {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl TripletLaplacian {
    /// Lists every nonzero of `L` (each row's off-diagonals, then its
    /// weighted degree), sorts the list by `(row, col)`, sums repeated
    /// positions, and lays the rows out as CSR.
    pub fn new(graph: &CsrGraph) -> Self {
        let n = graph.num_nodes();
        let mut entries: Vec<(u32, u32, f64)> = Vec::with_capacity(n + graph.adjncy().len());
        for v in 0..n as u32 {
            let mut deg = 0.0f64;
            for (&u, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                entries.push((v, u, -(w as f64)));
                deg += w as f64;
            }
            entries.push((v, v, deg));
        }
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        entries.dedup_by(|cur, prev| {
            if cur.0 == prev.0 && cur.1 == prev.1 {
                prev.2 += cur.2;
                true
            } else {
                false
            }
        });
        let mut row_ptr = vec![0usize; n + 1];
        for &(r, _, _) in &entries {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        TripletLaplacian {
            row_ptr,
            col_idx: entries.iter().map(|&(_, c, _)| c).collect(),
            values: entries.iter().map(|&(_, _, v)| v).collect(),
        }
    }

    /// `y ← L x`, each row summed in column order from `0.0`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *yi = acc;
        }
    }
}
