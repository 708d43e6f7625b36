//! Equivalence oracle for the hill climbs.
//!
//! `hill_climb` and `swap_climb` take every move gain from cached edge
//! weights: one adjacency scan per vertex in the single-move sweeps, and
//! per-part connectivity rows with part buckets in the pair-swap phase.
//! The reference climbs below are the direct implementation: they price
//! every move with `PartitionState::gain`, which rescans the vertex's
//! adjacency, and search the whole boundary for each counter-move. On
//! random weighted graphs the production climbs must return the same
//! labels and the same `ClimbStats`, bit for bit, and the fitness they
//! report must be `FitnessEvaluator::evaluate`'s.

use gapart_core::fitness::{FitnessEvaluator, FitnessKind, PartitionState};
use gapart_core::hillclimb::{hill_climb, swap_climb};
use gapart_graph::{CsrGraph, GraphBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a reference climb reports: moves, gain and passes, plus the pair
/// swaps it accepted (so the generator's coverage can be checked).
#[derive(Debug, Clone, Copy, PartialEq)]
struct RefStats {
    moves: usize,
    gain: f64,
    passes: usize,
    swaps: usize,
}

fn reference_hill_climb(
    evaluator: &FitnessEvaluator<'_>,
    genes: &mut Vec<u32>,
    max_passes: usize,
) -> RefStats {
    let graph = evaluator.graph();
    let mut state = PartitionState::new(evaluator.clone(), std::mem::take(genes));
    let mut stats = RefStats {
        moves: 0,
        gain: 0.0,
        passes: 0,
        swaps: 0,
    };
    let mut candidate_parts: Vec<u32> = Vec::with_capacity(8);
    for _ in 0..max_passes {
        stats.passes += 1;
        let mut moved = false;
        for v in 0..graph.num_nodes() as u32 {
            let pv = state.labels()[v as usize];
            candidate_parts.clear();
            for &u in graph.neighbors(v) {
                let pu = state.labels()[u as usize];
                if pu != pv && !candidate_parts.contains(&pu) {
                    candidate_parts.push(pu);
                }
            }
            if candidate_parts.is_empty() {
                continue; // interior vertex
            }
            let mut best_gain = 0.0f64;
            let mut best_part = pv;
            for &q in &candidate_parts {
                let g = state.gain(v, q);
                if g > best_gain + 1e-12 {
                    best_gain = g;
                    best_part = q;
                }
            }
            if best_part != pv {
                state.apply(v, best_part);
                stats.moves += 1;
                stats.gain += best_gain;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    *genes = state.into_labels();
    stats
}

fn reference_swap_climb(
    evaluator: &FitnessEvaluator<'_>,
    genes: &mut Vec<u32>,
    max_passes: usize,
) -> RefStats {
    let graph = evaluator.graph();
    let n = graph.num_nodes() as u32;
    let mut state = PartitionState::new(evaluator.clone(), std::mem::take(genes));
    let mut stats = RefStats {
        moves: 0,
        gain: 0.0,
        passes: 0,
        swaps: 0,
    };
    for _ in 0..max_passes {
        stats.passes += 1;
        let mut improved = false;

        // Phase 1: greedy single moves (cheap).
        for v in 0..n {
            let pv = state.labels()[v as usize];
            let mut best_gain = 1e-12;
            let mut best_part = pv;
            for &u in graph.neighbors(v) {
                let q = state.labels()[u as usize];
                if q != pv {
                    let g = state.gain(v, q);
                    if g > best_gain {
                        best_gain = g;
                        best_part = q;
                    }
                }
            }
            if best_part != pv {
                state.apply(v, best_part);
                stats.moves += 1;
                stats.gain += best_gain;
                improved = true;
            }
        }

        // Phase 2: boundary pair swaps. For each boundary vertex v with a
        // neighbouring part q, tentatively move v → q, then look for the
        // best counter-move u → p among q's boundary vertices.
        let boundary: Vec<u32> = (0..n)
            .filter(|&v| {
                let pv = state.labels()[v as usize];
                graph
                    .neighbors(v)
                    .iter()
                    .any(|&u| state.labels()[u as usize] != pv)
            })
            .collect();
        for &v in &boundary {
            let p = state.labels()[v as usize];
            let mut cand: Vec<u32> = Vec::with_capacity(4);
            for &u in graph.neighbors(v) {
                let q = state.labels()[u as usize];
                if q != p && !cand.contains(&q) {
                    cand.push(q);
                }
            }
            for q in cand {
                // v may have moved in an earlier successful swap; always
                // work relative to its current part.
                let cur = state.labels()[v as usize];
                if cur == q {
                    continue;
                }
                let g1 = state.gain(v, q);
                state.apply(v, q);
                // Best counter-move from q back to cur (exclude v itself).
                let mut best: Option<(u32, f64)> = None;
                for &u in &boundary {
                    if u == v || state.labels()[u as usize] != q {
                        continue;
                    }
                    let g2 = state.gain(u, cur);
                    if best.is_none_or(|(_, bg)| g2 > bg) {
                        best = Some((u, g2));
                    }
                }
                match best {
                    Some((u, g2)) if g1 + g2 > 1e-12 => {
                        state.apply(u, cur);
                        stats.moves += 2;
                        stats.gain += g1 + g2;
                        stats.swaps += 1;
                        improved = true;
                    }
                    _ => {
                        state.apply(v, cur); // revert the tentative move
                    }
                }
            }
        }

        if !improved {
            break;
        }
    }
    *genes = state.into_labels();
    stats
}

/// A random graph on `n` nodes: node weights 1–5, edge weights 1–4, about
/// one node in six isolated, and repeated edges (which the builder merges
/// by summing their weights).
fn random_graph(n: usize, rng: &mut StdRng) -> CsrGraph {
    let linked: Vec<u32> = (0..n as u32).filter(|_| rng.gen_range(0..6) != 0).collect();
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    if linked.len() >= 2 {
        for _ in 0..rng.gen_range(0..=3 * linked.len()) {
            if !edges.is_empty() && rng.gen_range(0..5) == 0 {
                let (u, v, _) = edges[rng.gen_range(0..edges.len())];
                edges.push((v, u, rng.gen_range(1..=4)));
                continue;
            }
            let u = linked[rng.gen_range(0..linked.len())];
            let v = linked[rng.gen_range(0..linked.len())];
            if u != v {
                edges.push((u, v, rng.gen_range(1..=4)));
            }
        }
    }
    let weights = (0..n).map(|_| rng.gen_range(1..=5)).collect();
    GraphBuilder::with_nodes(n)
        .weighted_edges(edges)
        .node_weights(weights)
        .build()
        .unwrap()
}

const KINDS: [FitnessKind; 2] = [FitnessKind::TotalCut, FitnessKind::WorstCut];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Both climbs match their reference bodies bit for bit: labels,
    /// moves, passes and the bits of the summed gain; and the fitness
    /// they report is a fresh evaluation's, bit for bit.
    #[test]
    fn climbs_match_the_rescanning_reference(
        n in 2usize..60,
        parts in 2u32..=8,
        kind in 0usize..2,
        passes in 1usize..=10,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(n, &mut rng);
        let e = FitnessEvaluator::new(&g, parts, KINDS[kind]);
        let start: Vec<u32> = (0..n).map(|_| rng.gen_range(0..parts)).collect();

        let mut want = start.clone();
        let r = reference_hill_climb(&e, &mut want, passes);
        let mut got = start.clone();
        let s = hill_climb(&e, &mut got, passes);
        prop_assert_eq!(&got, &want, "hill_climb labels");
        prop_assert_eq!((s.moves, s.passes, s.gain.to_bits()), (r.moves, r.passes, r.gain.to_bits()));
        prop_assert_eq!(s.fitness.to_bits(), e.evaluate(&got).to_bits());

        let mut want = start.clone();
        let r = reference_swap_climb(&e, &mut want, passes);
        let mut got = start;
        let s = swap_climb(&e, &mut got, passes);
        prop_assert_eq!(&got, &want, "swap_climb labels");
        prop_assert_eq!((s.moves, s.passes, s.gain.to_bits()), (r.moves, r.passes, r.gain.to_bits()));
        prop_assert_eq!(s.fitness.to_bits(), e.evaluate(&got).to_bits());
    }
}

/// The generator above reaches the pair-swap phase's accept path (and so
/// the bucket moves), not just its reverts.
#[test]
fn random_graphs_exercise_accepted_swaps() {
    let mut swaps = 0;
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(8..60);
        let g = random_graph(n, &mut rng);
        let e = FitnessEvaluator::new(&g, 4, KINDS[seed as usize % 2]);
        let mut genes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        swaps += reference_swap_climb(&e, &mut genes, 2).swaps;
    }
    assert!(swaps >= 20, "only {swaps} accepted swaps in 200 cases");
}
