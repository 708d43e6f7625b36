//! Cross-implementation contract tests for the unified [`Partitioner`]
//! trait: every registered algorithm must return a valid, reasonably
//! balanced partition of the same seeded mesh, deterministically — and
//! the GA engine's rayon-parallel fitness path must be bit-identical to
//! its sequential path.

use gapart::core::{DpgaConfig, DpgaPartitioner, GaConfig, GaEngine, GaPartitioner, Topology};
use gapart::graph::generators::jittered_mesh;
use gapart::graph::partitioner::{PartitionReport, Partitioner};
use gapart::graph::CsrGraph;
use gapart::partitioners;

const PARTS: u32 = 4;
const SEED: u64 = 0xC0FF_EE00;

fn mesh() -> CsrGraph {
    // Jittered mesh: connected, planar-ish, and carries coordinates, so
    // the geometry-based IBP participates too.
    jittered_mesh(96, 7)
}

/// Small-budget instances of all eight algorithms, via the same registry
/// the CLI uses (flat GA/DPGA get shrunk so the suite stays fast; the
/// multilevel GA methods already carry the coarse-level sizing).
fn all_partitioners() -> Vec<Box<dyn Partitioner>> {
    partitioners::NAMES
        .iter()
        .map(|&name| -> Box<dyn Partitioner> {
            match name {
                "ga" => Box::new(GaPartitioner::new(
                    GaConfig::paper_defaults(PARTS)
                        .with_population_size(40)
                        .with_generations(15),
                )),
                "dpga" => {
                    let mut cfg = DpgaConfig::paper(PARTS);
                    cfg.topology = Topology::Hypercube(2);
                    cfg.base = GaConfig::paper_defaults(PARTS)
                        .with_population_size(40)
                        .with_generations(15);
                    Box::new(DpgaPartitioner::new(cfg))
                }
                other => partitioners::by_name(other).expect("registered name"),
            }
        })
        .collect()
}

fn assert_contract(graph: &CsrGraph, report: &PartitionReport) {
    let name = report.algorithm;
    assert_eq!(
        report.partition.num_nodes(),
        graph.num_nodes(),
        "{name}: wrong label count"
    );
    assert_eq!(report.partition.num_parts(), PARTS, "{name}: wrong k");
    assert!(
        report.partition.labels().iter().all(|&l| l < PARTS),
        "{name}: label out of range"
    );
    // Balance: every part within ±50% of the ideal load. All five
    // algorithms balance far better than this on a uniform mesh; the
    // slack only absorbs small-budget GA noise.
    let avg = report.metrics.avg_load;
    for (q, &load) in report.metrics.part_loads.iter().enumerate() {
        assert!(
            (load as f64) > 0.5 * avg && (load as f64) < 1.5 * avg,
            "{name}: part {q} load {load} vs ideal {avg}"
        );
    }
}

#[test]
fn every_partitioner_satisfies_the_contract_on_the_same_mesh() {
    let graph = mesh();
    for p in all_partitioners() {
        let report = p.partition(&graph, PARTS, SEED).unwrap();
        assert_eq!(report.algorithm, p.name());
        assert_contract(&graph, &report);
    }
}

#[test]
fn every_partitioner_is_deterministic_under_seed() {
    // One run inside a forced 4-thread pool, one on the caller's thread:
    // the contract demands identical results regardless of pool size,
    // even on single-core CI hosts where rayon degrades to sequential.
    let graph = mesh();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    for p in all_partitioners() {
        let a = pool.install(|| p.partition(&graph, PARTS, SEED).unwrap());
        let b = p.partition(&graph, PARTS, SEED).unwrap();
        assert_eq!(
            a.partition,
            b.partition,
            "{} differs between 4-thread and direct runs",
            p.name()
        );
    }
}

#[test]
fn multilevel_methods_handle_an_edgeless_graph_without_panicking() {
    // 24 isolated nodes (with coordinates, so IBP participates): there is
    // nothing to coarsen and nothing to cut. Every ml* method must either
    // return a valid zero-cut partition or a clean error — never panic.
    let mut builder = gapart::graph::GraphBuilder::with_nodes(24);
    builder = builder.coords(
        (0..24)
            .map(|i| gapart::graph::Point2::new(f64::from(i % 6), f64::from(i / 6)))
            .collect(),
    );
    let graph = builder.build().unwrap();
    for name in ["mldpga", "mlga", "mlrsb", "mlibp"] {
        let p = partitioners::by_name(name).unwrap();
        match p.partition(&graph, PARTS, SEED) {
            Ok(report) => {
                assert_eq!(report.partition.num_nodes(), 24, "{name}");
                assert_eq!(report.metrics.total_cut, 0, "{name}");
            }
            Err(e) => assert!(!e.message().is_empty(), "{name}"),
        }
    }
}

#[test]
fn every_partitioner_rejects_zero_parts() {
    let graph = mesh();
    for p in all_partitioners() {
        assert!(p.partition(&graph, 0, SEED).is_err(), "{}", p.name());
    }
}

#[test]
fn parallel_fitness_evaluation_is_bit_identical_to_sequential() {
    let graph = mesh();
    let config = GaConfig::paper_defaults(PARTS)
        .with_population_size(48)
        .with_generations(20)
        .with_seed(SEED);
    // A 4-thread pool exercises the fan-out even on single-core CI hosts;
    // a 1-thread pool runs every parallel call inline.
    let run = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| GaEngine::new(&graph, config.clone()).unwrap().run())
    };
    let par = run(4);
    let seq = run(1);
    assert_eq!(par.best_partition, seq.best_partition);
    assert_eq!(par.best_fitness, seq.best_fitness);
    assert_eq!(par.history, seq.history, "histories must match exactly");
}
