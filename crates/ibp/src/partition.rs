//! The full IBP pipeline: quantize → index → sort → color.

use crate::index::IndexScheme;
use gapart_graph::error::GraphError;
use gapart_graph::geometry::{density_cell, quantize};
use gapart_graph::{CsrGraph, Partition};

/// Grid resolution the coordinates are quantized onto: fine enough to
/// tell apart nearby vertices of the paper's graph sizes.
const RESOLUTION: u32 = 1024;

/// Partitions a coordinate-carrying graph into `num_parts` parts by the
/// paper's appendix algorithm: quantize vertex coordinates onto a
/// 1024 × 1024 grid, compute each vertex's shuffled row-major (Morton)
/// index, sort (ties broken by vertex id), and cut the sorted list into
/// `P` equal sublists.
///
/// # Errors
///
/// [`GraphError::BadPartCount`] if `num_parts` is zero or exceeds the
/// node count; [`GraphError::MissingCoordinates`] if the graph carries no
/// geometry; [`GraphError::UnboundedCoords`] if its coordinates span
/// more than an `f64` measures.
pub fn ibp_partition(graph: &CsrGraph, num_parts: u32) -> Result<Partition, GraphError> {
    let n = graph.num_nodes();
    if num_parts == 0 || num_parts as usize > n {
        return Err(GraphError::BadPartCount {
            num_parts,
            num_nodes: n,
        });
    }
    let coords = graph.coords_required()?;
    // No grid covers coordinates further apart than an f64 measures.
    density_cell(coords)?;

    // Phase 1: indexing.
    let cells = quantize(coords, RESOLUTION);
    let mut keyed: Vec<(u64, u32)> = cells
        .iter()
        .enumerate()
        .map(|(v, &(cx, cy))| {
            // quantize returns (x, y); the scheme takes (row, col).
            let index = IndexScheme::ShuffledRowMajor.index(cy, cx, RESOLUTION);
            (index, v as u32)
        })
        .collect();

    // Phase 2: sorting (stable order via the id tiebreak).
    keyed.sort_unstable();

    // Phase 3: coloring — P equal sublists (first `n mod P` lists get the
    // extra vertex).
    let mut labels = vec![0u32; n];
    let base = n / num_parts as usize;
    let extra = n % num_parts as usize;
    let mut pos = 0usize;
    for part in 0..num_parts {
        let take = base + usize::from((part as usize) < extra);
        for &(_, v) in &keyed[pos..pos + take] {
            labels[v as usize] = part;
        }
        pos += take;
    }
    Partition::new(labels, num_parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapart_graph::generators::{grid2d, paper_graph, GridKind};
    use gapart_graph::partition::{cut_size, PartitionMetrics};

    #[test]
    fn parts_are_equal_sized() {
        let g = paper_graph(167);
        for parts in [2u32, 4, 8] {
            let p = ibp_partition(&g, parts).unwrap();
            let sizes = p.part_sizes();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1, "parts={parts}: sizes {sizes:?}");
        }
    }

    #[test]
    fn locality_beats_round_robin() {
        let g = paper_graph(144);
        let ibp = ibp_partition(&g, 4).unwrap();
        let rr = Partition::round_robin(144, 4);
        assert!(
            cut_size(&g, &ibp) < cut_size(&g, &rr),
            "IBP {} should beat round-robin {}",
            cut_size(&g, &ibp),
            cut_size(&g, &rr)
        );
    }

    #[test]
    fn shuffled_beats_row_major_on_square_grid() {
        // On a square grid split 4 ways, row-major order produces 4
        // horizontal slabs (3 full-width cuts) — the grid's ids are
        // row-major, so those are its id blocks; Morton produces 4
        // quadrant-ish blocks (shorter total boundary).
        let g = grid2d(16, 16, GridKind::FourConnected);
        let rm = Partition::blocks(256, 4);
        let sh = ibp_partition(&g, 4).unwrap();
        assert!(
            cut_size(&g, &sh) < cut_size(&g, &rm),
            "shuffled {} vs row-major {}",
            cut_size(&g, &sh),
            cut_size(&g, &rm)
        );
    }

    #[test]
    fn row_major_on_grid_gives_slabs() {
        // Morton's leading bit is the row's, so a 2-way split of an 8 × 8
        // grid is its row-major halves: the top 4 rows in one part, the
        // bottom 4 in the other, cut = 8.
        let g = grid2d(8, 8, GridKind::FourConnected);
        let p = ibp_partition(&g, 2).unwrap();
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.total_cut, 8);
        assert_eq!(m.part_loads, vec![32, 32]);
        assert_eq!(p, Partition::blocks(64, 2));
    }

    #[test]
    fn requires_coordinates() {
        let g = gapart_graph::generators::gnp(20, 0.2, 1);
        assert_eq!(
            ibp_partition(&g, 2).unwrap_err(),
            GraphError::MissingCoordinates
        );
    }

    #[test]
    fn rejects_bad_part_count() {
        let g = paper_graph(78);
        assert!(ibp_partition(&g, 0).is_err());
        assert_eq!(
            ibp_partition(&g, 100).unwrap_err().to_string(),
            "cannot split 78 nodes into 100 parts"
        );
    }

    #[test]
    fn deterministic() {
        let g = paper_graph(213);
        let a = ibp_partition(&g, 8).unwrap();
        let b = ibp_partition(&g, 8).unwrap();
        assert_eq!(a, b);
    }
}
