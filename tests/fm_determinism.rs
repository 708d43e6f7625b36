//! Adversarial determinism harness for the parallel boundary FM
//! (`fm::ParallelFm`, ISSUE 6): the parallel engine must be bit-identical
//! across forced 1/2/4/8-thread pools, must satisfy exactly the
//! invariants of the sequential `FmRefiner` (never worsen the cut, exact
//! reported gain, balance cap, never drain a part), and must match or
//! beat the sequential engine's refined cut on every *anchor scenario* —
//! the fixed structured instances below. Structured anchors pin quality;
//! proptest instances attack the invariants and the determinism claim on
//! arbitrary weighted graphs.

use gapart::graph::fm::{refine_fm, FmRefiner, ParallelFm};
use gapart::graph::generators::{grid2d, jittered_mesh, paper_graph, random_geometric, GridKind};
use gapart::graph::partition::{cut_size, Partition, PartitionMetrics};
use gapart::graph::refine::{RefineOptions, RefineScheme, RefineStats};
use gapart::graph::CsrGraph;
use gapart::partitioners;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x5046_4d21; // "PFM!"

const OPTS: RefineOptions = RefineOptions {
    balance_slack: 0.1,
    max_passes: 6,
};

/// The fixed anchor scenarios: the structured graph families the repo's
/// benchmarks target, each with its part count.
fn anchors() -> Vec<(&'static str, CsrGraph, u32)> {
    vec![
        ("paper-graph", paper_graph(150), 4),
        ("jittered-mesh", jittered_mesh(400, 11), 4),
        ("grid-4c", grid2d(24, 24, GridKind::FourConnected), 8),
        ("grid-tri", grid2d(20, 20, GridKind::Triangulated), 4),
        (
            "geometric",
            random_geometric(300, 1.5 / (300f64).sqrt(), 7),
            5,
        ),
    ]
}

fn random_partition(n: usize, parts: u32, seed: u64) -> Partition {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    Partition::new((0..n).map(|_| rng.gen_range(0..parts)).collect(), parts).unwrap()
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

/// The `mlga-pfm` pipeline matches or beats `mlga` (the sequential
/// boundary FM) on every anchor scenario — fixed (graph, parts, seed)
/// triples across the structured families the benchmarks target. This
/// is a pinned quality floor, not a dominance theorem: from an
/// arbitrary starting partition either engine can win (they commit
/// different move sets, and per-instance differences are symmetric
/// noise), so the anchors pin full pipeline runs on instances where the
/// batched engine holds the floor today. A failure here means batch
/// selection got worse, not merely different.
///
/// Each `pfm` run also repeats under forced 1/2/4/8-thread pools with
/// identical labels. In debug builds every incremental round checks its
/// evaluation table against a full frozen rescan
/// (`debug_check_eval_table`), so these runs also pin pfm's incremental
/// invariant end to end.
#[test]
fn matches_or_beats_the_sequential_cut_on_every_anchor() {
    let bench_seed = 0x5343_3934; // the benchsuite's "SC94" seed
    let cases: Vec<(&str, CsrGraph, u32, u64)> = vec![
        (
            "grid-4c-24",
            grid2d(24, 24, GridKind::FourConnected),
            8,
            bench_seed,
        ),
        (
            "grid-4c-24/99",
            grid2d(24, 24, GridKind::FourConnected),
            8,
            99,
        ),
        (
            "grid-4c-80",
            grid2d(80, 80, GridKind::FourConnected),
            8,
            bench_seed,
        ),
        ("jittered-mesh-600", jittered_mesh(600, 21), 5, 21),
        ("jittered-mesh-2000", jittered_mesh(2000, 4), 8, bench_seed),
        (
            "geometric-400",
            random_geometric(400, 1.5 / (400f64).sqrt(), bench_seed),
            8,
            bench_seed,
        ),
        (
            "geometric-400/7",
            random_geometric(400, 1.5 / (400f64).sqrt(), bench_seed),
            8,
            7,
        ),
        ("paper-graph-150", paper_graph(150), 4, 1),
        ("paper-graph-150/11", paper_graph(150), 4, 11),
    ];
    let fm = partitioners::by_name_with("mlga", RefineScheme::BoundaryFm).unwrap();
    let pfm = partitioners::by_name_with("mlga", RefineScheme::ParallelFm).unwrap();
    for (name, g, parts, seed) in &cases {
        let cs = fm
            .partition(g, *parts, *seed)
            .expect("mlga cannot fail on an anchor")
            .metrics
            .total_cut;
        let mut reference: Option<Partition> = None;
        for threads in [1usize, 2, 4, 8] {
            let report = pool(threads)
                .install(|| pfm.partition(g, *parts, *seed))
                .expect("mlga-pfm cannot fail on an anchor");
            match &reference {
                None => {
                    let cp = report.metrics.total_cut;
                    assert!(cp <= cs, "{name}: mlga-pfm cut {cp} worse than mlga's {cs}");
                    reference = Some(report.partition);
                }
                Some(rp) => assert_eq!(
                    rp, &report.partition,
                    "{name}: mlga-pfm labels diverged at {threads} threads"
                ),
            }
        }
    }
}

/// Bit-identical labels and stats across forced 1/2/4/8-thread pools on
/// every anchor, at the refiner level.
#[test]
fn refiner_is_bit_identical_across_pools_on_every_anchor() {
    for (name, g, parts) in anchors() {
        let base = random_partition(g.num_nodes(), parts, 3);
        let mut reference: Option<(Partition, RefineStats)> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut p = base.clone();
            let stats = pool(threads).install(|| ParallelFm::new().refine(&g, &mut p, &OPTS, SEED));
            match &reference {
                None => reference = Some((p, stats)),
                Some((rp, rs)) => {
                    assert_eq!(rp, &p, "{name}: labels diverged at {threads} threads");
                    assert_eq!(rs, &stats, "{name}: stats diverged at {threads} threads");
                }
            }
        }
    }
}

/// The full `mlga-pfm` pipeline (coarsen → GA → ParallelFm per level
/// through the fused projection) is bit-identical across pools — the
/// end-to-end claim the CI determinism matrix re-checks from the CLI.
#[test]
fn multilevel_pipeline_with_parallel_fm_is_bit_identical_across_pools() {
    let g = jittered_mesh(600, 21);
    let p = partitioners::by_name_with("mlga", RefineScheme::ParallelFm).unwrap();
    let mut reference: Option<Partition> = None;
    for threads in [1usize, 2, 4, 8] {
        let report = pool(threads)
            .install(|| p.partition(&g, 5, SEED))
            .expect("mlga-pfm cannot fail on a mesh");
        match &reference {
            None => reference = Some(report.partition),
            Some(rp) => assert_eq!(
                rp, &report.partition,
                "mlga-pfm labels diverged at {threads} threads"
            ),
        }
    }
}

/// Both engines reach identical invariant outcomes on the fixtures where
/// the outcome is forced: neither may commit a move that would drain a
/// part, on the exact fixture where the only improving move does so.
#[test]
fn both_engines_refuse_to_drain_a_part() {
    let g = gapart::graph::builder::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
    let loose = RefineOptions {
        balance_slack: 1.0,
        max_passes: 4,
    };
    for engine in ["fm", "pfm"] {
        let mut p = Partition::new(vec![0, 1, 1], 2).unwrap();
        let stats = match engine {
            "fm" => FmRefiner::new().refine(&g, &mut p, &loose, SEED),
            _ => ParallelFm::new().refine(&g, &mut p, &loose, SEED),
        };
        assert_eq!(stats.moves, 0, "{engine}: a committed move emptied part 0");
        assert!(p.part_sizes().iter().all(|&s| s > 0), "{engine}");
    }
}

// ---- proptest leg: arbitrary weighted graphs attack the invariants and
// the pool-independence claim.

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
    gapart::graph::builder::GraphBuilder::with_nodes(n)
        .weighted_edges(weighted)
        .node_weights(vw)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same-invariant cross-check: on arbitrary graphs both engines
    /// never worsen the cut and report the exact delta.
    #[test]
    fn both_engines_never_worsen_and_report_exact_gains(
        (n, edges, parts, seed) in arb_instance(),
    ) {
        let g = build(n, &edges, seed);
        let base = random_partition(n, parts, seed);
        let mut seq = base.clone();
        let ss = refine_fm(&g, &mut seq, &OPTS, seed);
        let mut par = base.clone();
        let sp = ParallelFm::new().refine(&g, &mut par, &OPTS, seed);
        let before = cut_size(&g, &base);
        prop_assert!(cut_size(&g, &seq) <= before);
        prop_assert_eq!(before - cut_size(&g, &seq), ss.gain);
        prop_assert!(cut_size(&g, &par) <= before, "ParallelFm worsened the cut");
        prop_assert_eq!(before - cut_size(&g, &par), sp.gain,
            "ParallelFm gain is not the exact cut delta");
    }

    /// ParallelFm keeps every part that was within the balance cap
    /// within it, and never drains a populated part.
    #[test]
    fn parallel_fm_respects_balance_and_population_invariants(
        (n, edges, parts, seed) in arb_instance(),
    ) {
        let g = build(n, &edges, seed);
        let mut p = random_partition(n, parts, seed);
        let cap = (g.total_node_weight() as f64 / parts as f64
            * (1.0 + OPTS.balance_slack)).ceil() as u64;
        let loads_before = PartitionMetrics::compute(&g, &p).part_loads;
        let populated_before: Vec<bool> = p.part_sizes().iter().map(|&s| s > 0).collect();
        ParallelFm::new().refine(&g, &mut p, &OPTS, seed);
        let loads_after = PartitionMetrics::compute(&g, &p).part_loads;
        for (q, (&b, &a)) in loads_before.iter().zip(&loads_after).enumerate() {
            if b <= cap {
                prop_assert!(a <= cap, "part {} pushed past the cap: {} -> {} (cap {})",
                    q, b, a, cap);
            } else {
                prop_assert!(a <= b, "overweight part {} gained load: {} -> {}", q, b, a);
            }
        }
        for (q, &was) in populated_before.iter().enumerate() {
            if was {
                prop_assert!(p.part_sizes()[q] > 0, "part {} drained to zero", q);
            }
        }
    }

    /// The core determinism claim on arbitrary graphs: bit-identical
    /// labels and stats for any forced pool size.
    #[test]
    fn parallel_fm_is_bit_identical_across_pools(
        (n, edges, parts, seed) in arb_instance(),
    ) {
        let g = build(n, &edges, seed);
        let base = random_partition(n, parts, seed);
        let mut reference: Option<(Partition, RefineStats)> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut p = base.clone();
            let stats = pool(threads)
                .install(|| ParallelFm::new().refine(&g, &mut p, &OPTS, seed));
            match &reference {
                None => reference = Some((p, stats)),
                Some((rp, rs)) => {
                    prop_assert_eq!(&p, rp, "{}-thread ParallelFm diverged", threads);
                    prop_assert_eq!(&stats, rs);
                }
            }
        }
    }
}
