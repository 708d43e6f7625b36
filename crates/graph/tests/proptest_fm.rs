//! Property-based tests for the boundary-FM refiner's invariants
//! (ISSUE 5): on arbitrary weighted graphs and arbitrary starting
//! partitions, `BoundaryFm`
//!
//! * never worsens the cut, and reports the cut delta exactly,
//! * never violates the balance constraint it is given,
//! * never drains a part to zero population,
//! * is bit-identical across 1/2/4/8-thread worker pools.
//!
//! It also holds the quality floor FM is measured against: the frozen-gain
//! greedy sweep ([`sweep`]), which no longer exists outside this file.

use gapart_graph::builder::GraphBuilder;
use gapart_graph::fm::{refine_fm, refine_fm_local, FmRefiner};
use gapart_graph::partition::{cut_size, Partition, PartitionMetrics};
use gapart_graph::refine::{RefineOptions, RefineStats};
use gapart_graph::CsrGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Candidates per gain-scan chunk of the [`sweep`] oracle.
const SCAN_CHUNK: usize = 2048;

/// The frozen-gain greedy k-way sweep, kept verbatim as the oracle FM
/// must beat. Each pass runs a parallel gain scan over every vertex
/// against frozen labels (collected in index order), then applies the
/// strictly cut-improving winners sequentially in ascending id, each
/// re-derived against the live partition: the best balance-respecting
/// move to an adjacent part, never emptying the source part. Never
/// increases the cut; bit-identical for any worker-pool size.
fn sweep(graph: &CsrGraph, partition: &mut Partition, opts: &RefineOptions) -> RefineStats {
    assert_eq!(graph.num_nodes(), partition.num_nodes());
    let n_parts = partition.num_parts() as usize;
    let avg = graph.total_node_weight() as f64 / n_parts as f64;
    let max_load = (avg * (1.0 + opts.balance_slack)).ceil() as u64;

    let mut loads = vec![0u64; n_parts];
    let mut counts = vec![0usize; n_parts];
    for v in 0..graph.num_nodes() as u32 {
        loads[partition.part(v) as usize] += graph.node_weight(v) as u64;
        counts[partition.part(v) as usize] += 1;
    }
    let candidates: Vec<u32> = (0..graph.num_nodes() as u32).collect();

    let mut stats = RefineStats { moves: 0, gain: 0 };
    let mut conn: Vec<(u32, u64)> = Vec::with_capacity(8);
    for _ in 0..opts.max_passes {
        let winners: Vec<u32> = candidates
            .par_chunks(SCAN_CHUNK)
            .map(|chunk| {
                let mut local: Vec<u32> = Vec::new();
                let mut cw: Vec<(u32, u64)> = Vec::with_capacity(8);
                for &v in chunk {
                    let pv = partition.part(v);
                    cw.clear();
                    let mut internal = 0u64;
                    for (&u, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                        let pu = partition.part(u);
                        if pu == pv {
                            internal += w as u64;
                        } else {
                            match cw.iter_mut().find(|(p, _)| *p == pu) {
                                Some((_, c)) => *c += w as u64,
                                None => cw.push((pu, w as u64)),
                            }
                        }
                    }
                    if cw.iter().any(|&(_, c)| c > internal) {
                        local.push(v);
                    }
                }
                local
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();

        let mut moved_this_pass = false;
        for v in winners {
            let pv = partition.part(v);
            conn.clear();
            let mut internal = 0u64;
            for (&u, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                let pu = partition.part(u);
                if pu == pv {
                    internal += w as u64;
                } else {
                    match conn.iter_mut().find(|(p, _)| *p == pu) {
                        Some((_, c)) => *c += w as u64,
                        None => conn.push((pu, w as u64)),
                    }
                }
            }
            if counts[pv as usize] <= 1 {
                continue;
            }
            let wv = graph.node_weight(v) as u64;
            let mut best: Option<(u32, u64)> = None;
            for &(p, c) in &conn {
                if c > internal
                    && loads[p as usize] + wv <= max_load
                    && best.is_none_or(|(_, bc)| c > bc)
                {
                    best = Some((p, c));
                }
            }
            if let Some((p, c)) = best {
                loads[pv as usize] -= wv;
                loads[p as usize] += wv;
                counts[pv as usize] -= 1;
                counts[p as usize] += 1;
                partition.set(v, p);
                stats.moves += 1;
                stats.gain += c - internal;
                moved_this_pass = true;
            }
        }
        if !moved_this_pass {
            break;
        }
    }
    stats
}

/// Strategy: a random simple weighted graph plus a random partition of
/// it, as raw ingredients (n, edges, parts, seed).
fn arb_instance() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, u32, u64)> {
    (3usize..50).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32).prop_filter("no self-loops", |(u, v)| u != v);
        (
            Just(n),
            proptest::collection::vec(edge, 0..(n * 3)),
            2u32..5,
            any::<u64>(),
        )
    })
}

fn build(n: usize, edges: &[(u32, u32)], seed: u64) -> CsrGraph {
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

const OPTS: RefineOptions = RefineOptions {
    balance_slack: 0.15,
    max_passes: 6,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn never_worsens_the_cut_and_gain_is_exact(
        (n, edges, parts, seed) in arb_instance(),
    ) {
        let g = build(n, &edges, seed);
        let mut p = random_partition(n, parts, seed);
        let before = cut_size(&g, &p);
        let stats = refine_fm(&g, &mut p, &OPTS, seed);
        let after = cut_size(&g, &p);
        prop_assert!(after <= before, "cut worsened: {before} -> {after}");
        prop_assert_eq!(before - after, stats.gain, "reported gain is not the exact cut delta");
    }

    #[test]
    fn never_violates_the_balance_constraint(
        (n, edges, parts, seed) in arb_instance(),
    ) {
        let g = build(n, &edges, seed);
        let mut p = random_partition(n, parts, seed);
        // Loads a part starts above the cap may stay above it (FM only
        // blocks *moves into* overweight parts), so assert per-move
        // admissibility: any part that was within the cap before must
        // still be within it after.
        let cap = (g.total_node_weight() as f64 / parts as f64 * (1.0 + OPTS.balance_slack)).ceil() as u64;
        let loads_before = PartitionMetrics::compute(&g, &p).part_loads;
        refine_fm(&g, &mut p, &OPTS, seed);
        let loads_after = PartitionMetrics::compute(&g, &p).part_loads;
        for (q, (&b, &a)) in loads_before.iter().zip(&loads_after).enumerate() {
            if b <= cap {
                prop_assert!(a <= cap, "part {q} pushed past the cap: {b} -> {a} (cap {cap})");
            } else {
                prop_assert!(a <= b, "overweight part {q} gained load: {b} -> {a}");
            }
        }
    }

    #[test]
    fn never_drains_a_part_to_zero(
        (n, edges, parts, seed) in arb_instance(),
    ) {
        let g = build(n, &edges, seed);
        let mut p = random_partition(n, parts, seed);
        let populated_before: Vec<bool> =
            p.part_sizes().iter().map(|&s| s > 0).collect();
        refine_fm(&g, &mut p, &OPTS, seed);
        for (q, (&was, &now)) in populated_before
            .iter()
            .zip(p.part_sizes().iter().map(|s| *s > 0).collect::<Vec<_>>().iter())
            .enumerate()
        {
            if was {
                prop_assert!(now, "part {q} was drained to zero population");
            }
        }
    }

    #[test]
    fn bit_identical_across_thread_pools(
        (n, edges, parts, seed) in arb_instance(),
    ) {
        let g = build(n, &edges, seed);
        let base = random_partition(n, parts, seed);
        let mut reference: Option<(Partition, RefineStats)> = None;
        for threads in [1usize, 2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut p = base.clone();
            let stats = pool.install(|| refine_fm(&g, &mut p, &OPTS, seed));
            match &reference {
                None => reference = Some((p, stats)),
                Some((rp, rs)) => {
                    prop_assert_eq!(&p, rp, "{}-thread FM diverged", threads);
                    prop_assert_eq!(&stats, rs);
                }
            }
        }
    }

    /// The localized variant obeys its region contract on arbitrary
    /// inputs: non-region nodes never move, and a reused session
    /// workspace behaves exactly like a fresh one.
    #[test]
    fn local_fm_stays_in_region_and_workspace_reuse_is_exact(
        (n, edges, parts, seed) in arb_instance(),
    ) {
        let g = build(n, &edges, seed);
        let base = random_partition(n, parts, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let region: Vec<u32> =
            (0..n as u32).filter(|_| rng.gen_range(0..3u8) > 0).collect();

        let mut fresh = base.clone();
        let sf = refine_fm_local(&g, &mut fresh, &OPTS, seed, &region);
        for v in 0..n as u32 {
            if !region.contains(&v) {
                prop_assert_eq!(fresh.part(v), base.part(v), "non-region node {} moved", v);
            }
        }
        prop_assert!(cut_size(&g, &fresh) <= cut_size(&g, &base));

        // A workspace that already served a different call must give the
        // byte-identical answer (no state leaks between calls).
        let mut engine = FmRefiner::new();
        let mut warmup = base.clone();
        engine.refine(&g, &mut warmup, &OPTS, seed ^ 1);
        let mut reused = base.clone();
        let sr = engine.refine_local(&g, &mut reused, &OPTS, seed, &region);
        prop_assert_eq!(&fresh, &reused, "workspace reuse changed the result");
        prop_assert_eq!(sf, sr);
    }

}

/// Quality pin on the structured workloads the repo targets (not a
/// universal dominance theorem — on dense adversarial random graphs
/// either heuristic can win an instance): across meshes and grids with
/// random starting partitions, boundary FM beats the greedy sweep on
/// every one of these fixed, deterministic instances. If a refactor
/// makes FM lose any of them, its quality edge regressed.
#[test]
fn fm_beats_the_sweep_across_structured_instances() {
    use gapart_graph::generators::{grid2d, jittered_mesh, GridKind};
    let opts = RefineOptions {
        balance_slack: 0.1,
        max_passes: 6,
    };
    let mut wins = 0usize;
    let mut total = 0usize;
    for gseed in 0..4u64 {
        let g = if gseed % 2 == 0 {
            jittered_mesh(400, gseed)
        } else {
            grid2d(20, 20, GridKind::Triangulated)
        };
        for pseed in 0..4u64 {
            let base = random_partition(g.num_nodes(), 4, pseed * 7 + gseed);
            let mut fm = base.clone();
            let mut swept = base;
            refine_fm(&g, &mut fm, &opts, pseed);
            sweep(&g, &mut swept, &opts);
            let (cf, cs) = (cut_size(&g, &fm), cut_size(&g, &swept));
            assert!(
                cf <= cs,
                "g{gseed}/p{pseed}: FM cut {cf} worse than sweep {cs}"
            );
            total += 1;
            if cf < cs {
                wins += 1;
            }
        }
    }
    assert_eq!(
        wins, total,
        "FM should strictly win every structured instance"
    );
}

/// FM chains moves through plateaus the greedy sweep cannot cross, so
/// with an equal pass budget it must never lose — and on these fixed
/// seeds it strictly wins at least once (a determinism-backed witness
/// that the hill climbing does something).
#[test]
fn at_least_matches_the_sweep_refiner_on_random_partitions() {
    use gapart_graph::generators::paper_graph;
    let opts = RefineOptions {
        balance_slack: 0.1,
        max_passes: 8,
    };
    let g = paper_graph(213);
    let mut strict_wins = 0;
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let labels = (0..213).map(|_| rng.gen_range(0..4)).collect();
        let base = Partition::new(labels, 4).unwrap();
        let mut fm = base.clone();
        let mut swept = base;
        refine_fm(&g, &mut fm, &opts, 0x464d);
        sweep(&g, &mut swept, &opts);
        let (cf, cs) = (cut_size(&g, &fm), cut_size(&g, &swept));
        assert!(cf <= cs, "seed {seed}: FM cut {cf} worse than sweep {cs}");
        if cf < cs {
            strict_wins += 1;
        }
    }
    assert!(strict_wins > 0, "FM never beat the sweep on any seed");
}
