//! Incremental graph partitioning (§3.5, §4.2).
//!
//! After the graph grows (see [`gapart_graph::incremental`]), "the
//! previous partitioning can itself be used to generate a good
//! partitioning for the changed graph by randomly assigning new graph
//! nodes to various parts, while at the same time ensuring that balance
//! is maintained". This module provides that seeding, the paper's
//! conclusion-section deterministic baseline ("assigns new nodes to the
//! part to which most of its nearest neighbors belong"), and a one-call
//! incremental GA driver.

use crate::engine::{GaConfig, GaEngine, GaResult};
use crate::error::GaError;
use crate::population::InitStrategy;
use gapart_graph::{CsrGraph, Partition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Extends `old` (a partition of the first `old.num_nodes()` nodes of
/// `graph`) to all of `graph`'s nodes: each new node goes to a part drawn
/// uniformly among the currently *lightest* parts, so balance is
/// maintained exactly as §3.5 describes. Deterministic in `seed`.
///
/// # Errors
///
/// [`GaError::BadSeed`] if `old` covers more nodes than `graph` has.
pub fn extend_partition_balanced(
    graph: &CsrGraph,
    old: &Partition,
    seed: u64,
) -> Result<Partition, GaError> {
    let n_old = old.num_nodes();
    let n_new = graph.num_nodes();
    if n_old > n_new {
        return Err(GaError::BadSeed {
            message: format!("old partition covers {n_old} nodes, graph has {n_new}"),
        });
    }
    let num_parts = old.num_parts();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x696e_6372); // "incr"
    let mut loads = vec![0u64; num_parts as usize];
    for v in 0..n_old as u32 {
        loads[old.part(v) as usize] += graph.node_weight(v) as u64;
    }
    let mut labels = old.labels().to_vec();
    labels.reserve(n_new - n_old);
    let mut lightest: Vec<u32> = Vec::with_capacity(num_parts as usize);
    for v in n_old as u32..n_new as u32 {
        let min_load = *loads.iter().min().expect("at least one part");
        lightest.clear();
        lightest.extend(
            loads
                .iter()
                .enumerate()
                .filter(|(_, &l)| l == min_load)
                .map(|(p, _)| p as u32),
        );
        let part = lightest[rng.gen_range(0..lightest.len())];
        labels.push(part);
        loads[part as usize] += graph.node_weight(v) as u64;
    }
    Partition::new(labels, num_parts).map_err(|e| GaError::BadSeed {
        message: e.to_string(),
    })
}

/// The deterministic baseline from the paper's conclusions: each new node
/// is assigned "to the part to which most of its nearest neighbors
/// belong". New nodes are processed in id order; neighbours not yet
/// assigned are ignored; a node with no assigned neighbours (possible
/// only in degenerate graphs) goes to the lightest part. Ties break to
/// the lower part id.
///
/// # Errors
///
/// [`GaError::BadSeed`] if `old` covers more nodes than `graph` has.
pub fn greedy_neighbor_assign(graph: &CsrGraph, old: &Partition) -> Result<Partition, GaError> {
    let n_old = old.num_nodes();
    let n_new = graph.num_nodes();
    if n_old > n_new {
        return Err(GaError::BadSeed {
            message: format!("old partition covers {n_old} nodes, graph has {n_new}"),
        });
    }
    let num_parts = old.num_parts();
    let mut labels = old.labels().to_vec();
    labels.resize(n_new, u32::MAX); // MAX = unassigned sentinel
    let mut loads = vec![0u64; num_parts as usize];
    for v in 0..n_old as u32 {
        loads[old.part(v) as usize] += graph.node_weight(v) as u64;
    }
    let mut votes = vec![0u64; num_parts as usize];
    for v in n_old as u32..n_new as u32 {
        votes.iter_mut().for_each(|c| *c = 0);
        let mut any = false;
        for (&u, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
            let pu = labels[u as usize];
            if pu != u32::MAX {
                votes[pu as usize] += w as u64;
                any = true;
            }
        }
        let part = if any {
            votes
                .iter()
                .enumerate()
                .max_by_key(|&(p, &c)| (c, std::cmp::Reverse(p)))
                .map(|(p, _)| p as u32)
                .expect("at least one part")
        } else {
            loads
                .iter()
                .enumerate()
                .min_by_key(|&(_, &l)| l)
                .map(|(p, _)| p as u32)
                .expect("at least one part")
        };
        labels[v as usize] = part;
        loads[part as usize] += graph.node_weight(v) as u64;
    }
    Partition::new(labels, num_parts).map_err(|e| GaError::BadSeed {
        message: e.to_string(),
    })
}

/// Runs the incremental GA: seeds the population from the balanced
/// extension of `old` (plus the configured perturbation) and optimizes on
/// the grown graph. This is exactly the paper's §4.2 pipeline.
///
/// The provided `config`'s `init` and `num_parts` are overridden;
/// everything else (operator, boundary mutation, budget, fitness kind) is
/// honoured.
pub fn incremental_ga(
    graph: &CsrGraph,
    old: &Partition,
    mut config: GaConfig,
) -> Result<GaResult, GaError> {
    let seed_partition = extend_partition_balanced(graph, old, config.seed)?;
    config.num_parts = old.num_parts();
    config.init = InitStrategy::Seeded {
        partition: seed_partition.labels().to_vec(),
        perturbation: 0.05,
    };
    Ok(GaEngine::new(graph, config)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::{FitnessEvaluator, FitnessKind};
    use gapart_graph::generators::paper_graph;
    use gapart_graph::incremental::grow_local;

    fn grown(base: usize, extra: usize, seed: u64) -> (CsrGraph, CsrGraph) {
        let g = paper_graph(base);
        let r = grow_local(&g, extra, seed).unwrap();
        (g, r.graph)
    }

    #[test]
    fn balanced_extension_preserves_old_labels() {
        let (base, grown) = grown(118, 21, 1);
        let old = gapart_rsb::rsb_partition(&base, 4, &Default::default()).unwrap();
        let ext = extend_partition_balanced(&grown, &old, 7).unwrap();
        assert_eq!(ext.num_nodes(), 139);
        for v in 0..118u32 {
            assert_eq!(ext.part(v), old.part(v), "old node {v} moved");
        }
    }

    #[test]
    fn balanced_extension_keeps_balance() {
        let (_, grown_g) = grown(183, 60, 2);
        let old = Partition::round_robin(183, 8);
        let ext = extend_partition_balanced(&grown_g, &old, 3).unwrap();
        let sizes = ext.part_sizes();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn balanced_extension_deterministic() {
        let (_, g) = grown(78, 10, 3);
        let old = Partition::round_robin(78, 4);
        assert_eq!(
            extend_partition_balanced(&g, &old, 9).unwrap(),
            extend_partition_balanced(&g, &old, 9).unwrap()
        );
    }

    #[test]
    fn greedy_assigns_to_majority_part() {
        let (base, grown_g) = grown(98, 20, 4);
        let old = gapart_rsb::rsb_partition(&base, 4, &Default::default()).unwrap();
        let greedy = greedy_neighbor_assign(&grown_g, &old).unwrap();
        // Every new node's part must be the weighted-majority part among
        // its already-assigned (lower-id or earlier-new) neighbours.
        for v in 98u32..118 {
            let pv = greedy.part(v);
            let mut votes = std::collections::HashMap::new();
            for &u in grown_g.neighbors(v) {
                if u < v {
                    *votes.entry(greedy.part(u)).or_insert(0u32) += 1;
                }
            }
            if let Some((&max_part, &max_votes)) = votes
                .iter()
                .max_by_key(|&(&p, &c)| (c, std::cmp::Reverse(p)))
            {
                assert_eq!(
                    votes.get(&pv).copied().unwrap_or(0),
                    max_votes,
                    "node {v}: assigned {pv}, majority {max_part}"
                );
            }
        }
    }

    #[test]
    fn incremental_ga_beats_greedy_baseline() {
        // The paper's conclusion: DKNUX incremental results "could not be
        // obtained by a simple deterministic algorithm".
        let (base, grown_g) = grown(118, 41, 5);
        let old = gapart_rsb::rsb_partition(&base, 4, &Default::default()).unwrap();
        let e = FitnessEvaluator::new(&grown_g, 4, FitnessKind::TotalCut);

        let greedy = greedy_neighbor_assign(&grown_g, &old).unwrap();
        let greedy_fit = e.evaluate(greedy.labels());

        let config = GaConfig::paper_defaults(4)
            .with_population_size(80)
            .with_generations(80)
            .with_seed(13);
        let result = incremental_ga(&grown_g, &old, config).unwrap();
        assert!(
            result.best_fitness > greedy_fit,
            "GA {} vs greedy {greedy_fit}",
            result.best_fitness
        );
    }

    #[test]
    fn incremental_ga_covers_all_nodes() {
        let (base, grown_g) = grown(78, 10, 6);
        let old = Partition::round_robin(78, 4);
        let config = GaConfig::paper_defaults(4)
            .with_population_size(30)
            .with_generations(10)
            .with_seed(1);
        let r = incremental_ga(&grown_g, &old, config).unwrap();
        assert_eq!(r.best_partition.num_nodes(), 88);
        let _ = base;
    }

    #[test]
    fn rejects_shrunken_graph() {
        let g = paper_graph(78);
        let old = Partition::round_robin(100, 4);
        assert!(matches!(
            extend_partition_balanced(&g, &old, 0).unwrap_err(),
            GaError::BadSeed { .. }
        ));
        assert!(matches!(
            greedy_neighbor_assign(&g, &old).unwrap_err(),
            GaError::BadSeed { .. }
        ));
    }
}
