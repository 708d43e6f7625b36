//! Property-based tests for coarsening.
//!
//! * The fused projection fast path (`Coarsening::project_for_fm`): the
//!   boundary *hint* it emits must be a superset of the true cut
//!   boundary of the projected partition — the contract the primed FM
//!   refiners rely on to skip boundary rediscovery — and the per-part
//!   loads / populations it tallies must be exact. (The
//!   fused-vs-separate-passes equivalence is pinned by a unit test in
//!   the coarsen module; this pins the *semantic* guarantee on random
//!   weighted graphs.)
//! * The matcher's edge order (`edge_key`): a strict total order,
//!   symmetric in the endpoints, that ranks by ω² / (c(u)·c(v)) exactly
//!   as an `f64` reference does wherever `f64` is exact.
//! * The flat contraction: every level equals what the row-merge
//!   contraction (`support/row_merge.rs`) rebuilds from the fine graph
//!   and the level's map.

#[path = "support/row_merge.rs"]
mod row_merge;

use gapart_graph::builder::GraphBuilder;
use gapart_graph::coarsen::{coarsen_hem, coarsen_to, edge_key, Coarsening, EdgeKey};
use gapart_graph::generators::jittered_mesh;
use gapart_graph::partition::{boundary_nodes, Partition, PartitionMetrics};
use gapart_graph::{CsrGraph, Point2};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use row_merge::{contract_rows, Contracted};
use std::cmp::Ordering;

/// Strategy: raw ingredients of a random simple weighted graph plus a
/// random partition (n, edges, parts, seed).
fn arb_instance() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, u32, u64)> {
    (6usize..60).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32).prop_filter("no self-loops", |(u, v)| u != v);
        (
            Just(n),
            proptest::collection::vec(edge, 0..(n * 3)),
            2u32..5,
            any::<u64>(),
        )
    })
}

fn build(n: usize, edges: &[(u32, u32)], seed: u64) -> gapart_graph::CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let weighted: Vec<(u32, u32, u32)> = edges
        .iter()
        .map(|&(u, v)| (u, v, rng.gen_range(1..20)))
        .collect();
    let vw: Vec<u32> = (0..n).map(|_| rng.gen_range(1..8)).collect();
    GraphBuilder::with_nodes(n)
        .weighted_edges(weighted)
        .node_weights(vw)
        .build()
        .unwrap()
}

fn random_partition(n: usize, parts: u32, seed: u64) -> Partition {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    Partition::new((0..n).map(|_| rng.gen_range(0..parts)).collect(), parts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At every level of a multilevel hierarchy, projecting an arbitrary
    /// coarse partition through `project_for_fm` with the coarse graph's
    /// *true* cut boundary as the mask (the tightest mask the contract
    /// allows) yields a hint covering every fine boundary vertex, and
    /// exact loads / counts.
    #[test]
    fn projected_hint_is_a_boundary_superset_with_exact_tallies(
        (n, edges, parts, seed) in arb_instance(),
    ) {
        let g = build(n, &edges, seed);
        let levels = coarsen_to(&g, (n / 3).max(2), seed);
        for (i, level) in levels.iter().enumerate() {
            let fine = if i == 0 { &g } else { &levels[i - 1].coarse };
            let coarse_partition =
                random_partition(level.coarse.num_nodes(), parts, seed ^ i as u64);
            let mut mask = vec![false; level.coarse.num_nodes()];
            for v in boundary_nodes(&level.coarse, &coarse_partition) {
                mask[v as usize] = true;
            }
            let projected = level.project_for_fm(&coarse_partition, fine, &mask);

            let hinted: std::collections::HashSet<u32> =
                projected.hint.iter().copied().collect();
            for v in boundary_nodes(fine, &projected.partition) {
                prop_assert!(
                    hinted.contains(&v),
                    "level {}: fine boundary vertex {} missing from the hint",
                    i, v
                );
            }

            let m = PartitionMetrics::compute(fine, &projected.partition);
            prop_assert_eq!(&projected.loads, &m.part_loads, "level {}: loads", i);
            let counts: Vec<usize> = projected.partition.part_sizes().to_vec();
            prop_assert_eq!(&projected.counts, &counts, "level {}: counts", i);
        }
    }
}

/// One edge as the matcher rates it: `(w, v, c(v), u, c(u))`.
type RatedEdge = (u32, u32, u32, u32, u32);

/// An edge or node weight, from the ends of the domain as often as from
/// its middle: zero, one, `u32::MAX` and its neighbours, small values (so
/// ratings tie), powers of two, or anything.
fn boundary_weight(rng: &mut StdRng) -> u32 {
    match rng.gen_range(0..8) {
        0 => 0,
        1 => 1,
        2 => u32::MAX - rng.gen_range(0..3u32),
        3 | 4 => rng.gen_range(0..8),
        5 => rng.gen_range(0..1 << 16),
        6 => 1 << rng.gen_range(0..32u32),
        _ => rng.gen(),
    }
}

/// A random edge over a few endpoints, so pairs and ties recur.
fn rated_edge(rng: &mut StdRng) -> RatedEdge {
    let v = rng.gen_range(0..6u32);
    let u = (v + rng.gen_range(1..6u32)) % 6;
    (
        boundary_weight(rng),
        v,
        boundary_weight(rng),
        u,
        boundary_weight(rng),
    )
}

fn key(seed: u64, (w, v, cv, u, cu): RatedEdge) -> EdgeKey {
    edge_key(seed, w, v, cv, u, cu)
}

/// The order of two edges under `f64` arithmetic, where it is exact:
/// `Some(Equal)` means the ratings tie. `None` where `f64` cannot tell.
fn f64_reference((wa, _, ca, _, da): RatedEdge, (wb, _, cb, _, db): RatedEdge) -> Option<Ordering> {
    const EXACT: f64 = (1u64 << 53) as f64;
    let rating = |w: u32, c: u32, d: u32| {
        (
            f64::from(w) * f64::from(w),
            f64::from(c.max(1)) * f64::from(d.max(1)),
        )
    };
    let (na, xa) = rating(wa, ca, da);
    let (nb, xb) = rating(wb, cb, db);
    if [na, xa, nb, xb].iter().any(|&x| x >= EXACT) {
        return None;
    }
    // Cross products below 2^53 are exact, ties included.
    let (l, r) = (na * xb, nb * xa);
    if l < EXACT && r < EXACT {
        return Some(l.total_cmp(&r));
    }
    // Correctly rounded quotients of exact operands are monotone: a
    // strict difference between them is a strict difference of ratings.
    let (qa, qb) = (na / xa, nb / xb);
    (qa != qb).then(|| qa.total_cmp(&qb))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Swapping two keys reverses their order; naming an edge's
    /// endpoints the other way round leaves its key unchanged; and two
    /// keys tie only on the same endpoint pair.
    #[test]
    fn edge_key_is_antisymmetric_strict_and_symmetric_in_the_endpoints(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let (a, b) = (rated_edge(&mut rng), rated_edge(&mut rng));
            let (ka, kb) = (key(seed, a), key(seed, b));
            prop_assert_eq!(ka.cmp(&kb), kb.cmp(&ka).reverse(), "{:?} vs {:?}", a, b);
            let (w, v, cv, u, cu) = a;
            prop_assert_eq!(ka.cmp(&edge_key(seed, w, u, cu, v, cv)), Ordering::Equal);
            let same_pair = (a.1.min(a.3), a.1.max(a.3)) == (b.1.min(b.3), b.1.max(b.3));
            if !same_pair {
                prop_assert!(ka.cmp(&kb) != Ordering::Equal, "{:?} ties {:?}", a, b);
            }
        }
    }

    /// `a ≤ b` and `b ≤ c` give `a ≤ c`, for every ordering of random
    /// triples drawn so that ratings often tie.
    #[test]
    fn edge_key_is_transitive(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let k = [
                key(seed, rated_edge(&mut rng)),
                key(seed, rated_edge(&mut rng)),
                key(seed, rated_edge(&mut rng)),
            ];
            for (i, j, l) in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)] {
                if k[i] <= k[j] && k[j] <= k[l] {
                    prop_assert!(k[i] <= k[l], "{:?} <= {:?} <= {:?}", k[i], k[j], k[l]);
                }
            }
        }
    }

    /// Where `f64` can tell two ratings apart exactly, the key orders the
    /// edges the same way; where the ratings tie, the key falls through
    /// to the same hash-and-endpoint order it gives the two edges at
    /// equal weights.
    #[test]
    fn edge_key_agrees_with_an_f64_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut decided = 0;
        for _ in 0..64 {
            let (a, b) = (rated_edge(&mut rng), rated_edge(&mut rng));
            let got = key(seed, a).cmp(&key(seed, b));
            match f64_reference(a, b) {
                Some(Ordering::Equal) => {
                    let (plain_a, plain_b) = ((1, a.1, 1, a.3, 1), (1, b.1, 1, b.3, 1));
                    prop_assert_eq!(got, key(seed, plain_a).cmp(&key(seed, plain_b)), "{:?} vs {:?}", a, b);
                }
                Some(want) => {
                    prop_assert_eq!(got, want, "{:?} vs {:?}", a, b);
                    decided += 1;
                }
                None => {}
            }
        }
        prop_assert!(decided > 0, "the generator never produced a decidable pair");
    }
}

/// A random weighted graph with coordinates: about a tenth of the nodes
/// isolated, node weights up to `u32::MAX`, and edge weights near
/// `u32::MAX` often enough that merged coarse edges saturate.
fn arb_weighted_graph(seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..300usize);
    let connected = (n - n / 10).max(1) as u32;
    let m = if connected < 2 {
        0
    } else {
        rng.gen_range(0..n * 3)
    };
    let mut b = GraphBuilder::with_nodes(n);
    for _ in 0..m {
        let u = rng.gen_range(0..connected);
        let v = (u + rng.gen_range(1..connected)) % connected;
        let w = match rng.gen_range(0..4) {
            0 => u32::MAX - rng.gen_range(0..1000u32),
            1 => rng.gen_range(1 << 30..1 << 31),
            _ => rng.gen_range(1..20),
        };
        b.push_edge(u, v, w);
    }
    let vweights = (0..n)
        .map(|_| match rng.gen_range(0..8) {
            0 => u32::MAX - rng.gen_range(0..3u32),
            1 => rng.gen_range(1 << 30..1 << 31),
            _ => rng.gen_range(1..8),
        })
        .collect();
    let coords = (0..n)
        .map(|_| Point2::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3)))
        .collect();
    b.node_weights(vweights).coords(coords).build().unwrap()
}

/// The coarse graph as raw arrays, coordinates as bit patterns.
fn arrays(g: &CsrGraph) -> Contracted {
    Contracted {
        xadj: g.xadj().to_vec(),
        adjncy: g.adjncy().to_vec(),
        eweights: g.eweights().to_vec(),
        vweights: g.node_weights().to_vec(),
        coords: g
            .coords()
            .map(|c| c.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()),
    }
}

/// What the row-merge contraction rebuilds from `fine` and `level.map`.
fn oracle(fine: &CsrGraph, level: &Coarsening) -> Contracted {
    let coords: Option<Vec<(f64, f64)>> = fine
        .coords()
        .map(|c| c.iter().map(|p| (p.x, p.y)).collect());
    contract_rows(
        fine.xadj(),
        fine.adjncy(),
        fine.eweights(),
        fine.node_weights(),
        coords.as_deref(),
        &level.map,
    )
}

/// Coarse ids are handed out in order of each group's lowest fine
/// vertex, and every group is a singleton or a fine edge.
fn assert_map_is_a_numbered_matching(fine: &CsrGraph, level: &Coarsening) {
    let mut next = 0u32;
    let mut seen = vec![Vec::new(); level.coarse.num_nodes()];
    for (v, &cv) in level.map.iter().enumerate() {
        assert!(cv <= next, "coarse id {cv} handed out before {next}");
        if cv == next {
            next += 1;
        }
        seen[cv as usize].push(v as u32);
    }
    assert_eq!(next as usize, level.coarse.num_nodes());
    for group in seen {
        match group[..] {
            [_] => {}
            [a, b] => assert!(fine.has_edge(a, b), "merged non-adjacent {a},{b}"),
            _ => panic!("group of {} fine vertices", group.len()),
        }
    }
}

/// Checks every level of `levels` (the first contracted from `g`)
/// against the oracle.
fn assert_levels_match_the_oracle(g: &CsrGraph, levels: &[Coarsening]) {
    let mut fine = g;
    for (i, level) in levels.iter().enumerate() {
        assert_map_is_a_numbered_matching(fine, level);
        assert_eq!(arrays(&level.coarse), oracle(fine, level), "level {i}");
        fine = &level.coarse;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every level `coarsen_to` returns, and one uncapped round (which
    /// can saturate node weights), is exactly the row-merge rebuild.
    #[test]
    fn every_level_equals_the_row_merge_contraction(seed in any::<u64>()) {
        let g = arb_weighted_graph(seed);
        let target = (g.num_nodes() / 8).max(1);
        assert_levels_match_the_oracle(&g, &coarsen_to(&g, target, seed));
        assert_levels_match_the_oracle(&g, &[coarsen_hem(&g, seed)]);
    }
}

/// A mesh whose first levels span several contraction chunks, so the
/// chunk seams are compared too.
#[test]
fn flat_contraction_matches_the_oracle_across_chunk_seams() {
    let g = jittered_mesh(20_000, 7);
    let levels = coarsen_to(&g, 64, 3);
    assert!(levels[0].coarse.num_nodes() > 2 * 4096, "one chunk only");
    assert_levels_match_the_oracle(&g, &levels);
}
