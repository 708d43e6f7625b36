//! Median bisection and the recursive partitioning driver.

use crate::fiedler::fiedler_vector;
use crate::RsbError;
use gapart_graph::subgraph::induced_subgraph;
use gapart_graph::{CsrGraph, Partition};

/// The seed RSB runs under when a caller names none ("RSB").
pub const DEFAULT_SEED: u64 = 0x5253_4200;

/// Splits `graph` into `num_parts` parts by recursive spectral bisection.
///
/// Each level computes the Fiedler vector of the (sub)graph, sorts its
/// nodes by Fiedler value (ties by node id, for determinism), and cuts at
/// the weighted quantile that sends `⌊p/2⌋ / p` of the load left — so any
/// part count is supported, not just powers of two. Recursion operates on
/// induced subgraphs, exactly as in the original RSB formulation. `seed`
/// draws the Lanczos start vectors (one derived seed per recursion).
///
/// # Errors
///
/// [`RsbError::BadPartCount`] when `num_parts == 0` or exceeds the node
/// count; [`RsbError::Eigensolver`] if a Fiedler solve fails.
pub fn rsb_partition(graph: &CsrGraph, num_parts: u32, seed: u64) -> Result<Partition, RsbError> {
    let n = graph.num_nodes();
    if num_parts == 0 || num_parts as usize > n {
        return Err(RsbError::BadPartCount {
            num_parts,
            num_nodes: n,
        });
    }
    let mut labels = vec![0u32; n];
    let all: Vec<u32> = (0..n as u32).collect();
    recurse(graph, &all, 0, num_parts, seed, &mut labels)?;
    Ok(Partition::new(labels, num_parts).expect("recursion emits in-range labels"))
}

fn recurse(
    root: &CsrGraph,
    nodes: &[u32],
    first_part: u32,
    parts: u32,
    seed: u64,
    labels: &mut [u32],
) -> Result<(), RsbError> {
    debug_assert!(nodes.len() >= parts as usize);
    if parts == 1 {
        for &v in nodes {
            labels[v as usize] = first_part;
        }
        return Ok(());
    }
    let sub = induced_subgraph(root, nodes);
    let p_left = parts / 2;
    let p_right = parts - p_left;

    // Fiedler direction of the subgraph.
    let f = fiedler_vector(
        &sub.graph,
        seed ^ (nodes.len() as u64) << 8 ^ first_part as u64,
    )?;

    // Sort local ids by (fiedler value, original id) for determinism.
    let mut order: Vec<u32> = (0..nodes.len() as u32).collect();
    order.sort_by(|&a, &b| {
        f[a as usize]
            .partial_cmp(&f[b as usize])
            .expect("finite fiedler values")
            .then(sub.orig_ids[a as usize].cmp(&sub.orig_ids[b as usize]))
    });

    // Weighted split: left receives p_left/parts of the load, with counts
    // clamped so both sides keep at least as many nodes as parts.
    let total: u64 = order.iter().map(|&l| sub.graph.node_weight(l) as u64).sum();
    let target = total as f64 * p_left as f64 / parts as f64;
    let min_left = p_left as usize;
    let max_left = nodes.len() - p_right as usize;
    let mut best_k = min_left;
    let mut best_gap = f64::INFINITY;
    let mut acc = 0u64;
    for (i, &l) in order.iter().enumerate() {
        acc += sub.graph.node_weight(l) as u64;
        let k = i + 1;
        if k < min_left {
            continue;
        }
        if k > max_left {
            break;
        }
        let gap = (acc as f64 - target).abs();
        if gap < best_gap {
            best_gap = gap;
            best_k = k;
        }
    }

    let left: Vec<u32> = order[..best_k]
        .iter()
        .map(|&l| sub.orig_ids[l as usize])
        .collect();
    let right: Vec<u32> = order[best_k..]
        .iter()
        .map(|&l| sub.orig_ids[l as usize])
        .collect();
    recurse(
        root,
        &left,
        first_part,
        p_left,
        seed.wrapping_mul(0x9e37_79b9).wrapping_add(1),
        labels,
    )?;
    recurse(
        root,
        &right,
        first_part + p_left,
        p_right,
        seed.wrapping_mul(0x9e37_79b9).wrapping_add(2),
        labels,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapart_graph::generators::{grid2d, paper_graph, GridKind};
    use gapart_graph::partition::PartitionMetrics;

    #[test]
    fn bisection_of_wide_grid_cuts_short_axis() {
        // 4 x 16 grid: optimal bisection cuts across the short dimension,
        // cost 4. RSB should find exactly that.
        let g = grid2d(4, 16, GridKind::FourConnected);
        let p = rsb_partition(&g, 2, DEFAULT_SEED).unwrap();
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.part_loads, vec![32, 32]);
        assert_eq!(
            m.total_cut, 4,
            "cut {} (expected the optimal 4)",
            m.total_cut
        );
    }

    #[test]
    fn balanced_parts_on_paper_graphs() {
        for &n in &[78usize, 144, 279] {
            let g = paper_graph(n);
            for parts in [2u32, 4, 8] {
                let p = rsb_partition(&g, parts, DEFAULT_SEED).unwrap();
                let m = PartitionMetrics::compute(&g, &p);
                let ideal = n as f64 / parts as f64;
                for &load in &m.part_loads {
                    assert!(
                        (load as f64 - ideal).abs() <= 1.0 + 1e-9,
                        "n={n} parts={parts}: load {load} vs ideal {ideal}"
                    );
                }
            }
        }
    }

    #[test]
    fn cut_is_reasonable_on_mesh() {
        // A 2-D mesh of n nodes has bisection width O(√n); allow generous
        // slack but reject absurd cuts (e.g. half the edges).
        let g = paper_graph(144);
        let p = rsb_partition(&g, 2, DEFAULT_SEED).unwrap();
        let m = PartitionMetrics::compute(&g, &p);
        assert!(
            m.total_cut <= 40,
            "bisection cut {} is far above O(√144)",
            m.total_cut
        );
    }

    #[test]
    fn non_power_of_two_parts() {
        let g = paper_graph(98);
        let p = rsb_partition(&g, 3, DEFAULT_SEED).unwrap();
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.part_loads.iter().sum::<u64>(), 98);
        for &load in &m.part_loads {
            assert!((31..=34).contains(&(load as i64)), "load {load}");
        }
    }

    #[test]
    fn rejects_bad_part_counts() {
        let g = paper_graph(78);
        assert!(matches!(
            rsb_partition(&g, 0, DEFAULT_SEED),
            Err(RsbError::BadPartCount { .. })
        ));
        assert!(matches!(
            rsb_partition(&g, 100, DEFAULT_SEED),
            Err(RsbError::BadPartCount { .. })
        ));
    }

    #[test]
    fn num_parts_equal_num_nodes() {
        let g = paper_graph(78);
        let p = rsb_partition(&g, 78, DEFAULT_SEED).unwrap();
        let sizes = p.part_sizes();
        assert!(sizes.iter().all(|&s| s == 1));
    }

    #[test]
    fn deterministic() {
        let g = paper_graph(167);
        let a = rsb_partition(&g, 8, DEFAULT_SEED).unwrap();
        let b = rsb_partition(&g, 8, DEFAULT_SEED).unwrap();
        assert_eq!(a, b);
    }
}
