//! Contract tests for the streaming dynamic-repartitioning subsystem:
//! replaying a mutation trace through a [`DynamicSession`] must be a pure
//! function of `(graph, trace, config)` — bit-identical across thread
//! counts, including through GA-backed escalations — and every scenario
//! generator must produce a replayable trace.

use gapart::core::dynamic::{BatchAction, BatchRecord, DynamicConfig, DynamicSession};
use gapart::core::GaConfig;
use gapart::graph::dynamic::scenario::{generate, Scenario, TraceSpec};
use gapart::graph::dynamic::trace::{parse_trace, trace_to_text};
use gapart::graph::generators::jittered_mesh;
use gapart::graph::multilevel::MultilevelPartitioner;
use gapart::graph::partitioner::Partitioner;
use gapart::graph::refine::RefineScheme;
use gapart::graph::CsrGraph;
use gapart::partitioners;

const PARTS: u32 = 4;
const SEED: u64 = 0xD15C_05E5;

fn mesh() -> CsrGraph {
    jittered_mesh(220, 13)
}

/// The intended production escalation partitioner: the multilevel GA.
fn mlga() -> Box<dyn Partitioner> {
    Box::new(MultilevelPartitioner::new(
        "mlga",
        partitioners::tuned_ga(GaConfig::coarse_defaults(PARTS)),
    ))
}

/// Replays `trace` through a fresh `mlga` session; returns the session
/// and the record of every batch.
fn replay(
    graph: &CsrGraph,
    trace: &[Vec<gapart::graph::Mutation>],
    escalate_ratio: f64,
) -> (DynamicSession, Vec<BatchRecord>) {
    let mut s = DynamicSession::new(
        graph.clone(),
        mlga(),
        DynamicConfig {
            seed: SEED,
            escalate_ratio,
            ..DynamicConfig::new(PARTS)
        },
    )
    .unwrap();
    let records = s.replay(trace).unwrap();
    (s, records)
}

#[test]
fn replay_is_bit_identical_between_a_forced_pool_and_a_direct_run() {
    let graph = mesh();
    for scenario in [
        Scenario::MeshGrowth,
        Scenario::RandomChurn,
        Scenario::HotspotDrift,
    ] {
        let trace = generate(
            &graph,
            scenario,
            &TraceSpec {
                batches: 5,
                ops_per_batch: 12,
                seed: 21,
            },
        )
        .unwrap();
        // Low threshold so at least one escalation (the GA path, whose
        // parallel evaluation is the risk surface) happens mid-replay.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let (pooled, pooled_records) = pool.install(|| replay(&graph, &trace, 1.02));
        let (direct, direct_records) = replay(&graph, &trace, 1.02);
        assert_eq!(
            pooled.partition(),
            direct.partition(),
            "{}: partitions differ between 4-thread and direct replays",
            scenario.name()
        );
        assert_eq!(
            pooled_records,
            direct_records,
            "{}: batch records differ",
            scenario.name()
        );
        assert_eq!(pooled.epoch(), direct.epoch(), "{}", scenario.name());
    }
}

/// The same pool-independence claim with the session's refiner switched
/// to the parallel colored-batch engine (`--refine pfm`): localized
/// refinement *and* GA-backed escalations (whose per-level refinement
/// also runs ParallelFm) must stay bit-identical between a forced
/// 4-thread pool and a direct run.
#[test]
fn replay_with_parallel_fm_is_bit_identical_between_a_forced_pool_and_a_direct_run() {
    let graph = mesh();
    let replay_pfm = |trace: &[Vec<gapart::graph::Mutation>]| {
        let mut s = DynamicSession::new(
            graph.clone(),
            partitioners::by_name_with("mlga", RefineScheme::ParallelFm).unwrap(),
            DynamicConfig {
                seed: SEED,
                escalate_ratio: 1.02,
                refine_scheme: RefineScheme::ParallelFm,
                ..DynamicConfig::new(PARTS)
            },
        )
        .unwrap();
        let records = s.replay(trace).unwrap();
        (s, records)
    };
    let mut escalations = 0usize;
    for scenario in [
        Scenario::MeshGrowth,
        Scenario::RandomChurn,
        Scenario::HotspotDrift,
    ] {
        let trace = generate(
            &graph,
            scenario,
            &TraceSpec {
                batches: 5,
                ops_per_batch: 12,
                seed: 21,
            },
        )
        .unwrap();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let (pooled, pooled_records) = pool.install(|| replay_pfm(&trace));
        let (direct, direct_records) = replay_pfm(&trace);
        assert_eq!(
            pooled.partition(),
            direct.partition(),
            "{}: pfm partitions differ between 4-thread and direct replays",
            scenario.name()
        );
        assert_eq!(
            pooled_records,
            direct_records,
            "{}: pfm batch records differ",
            scenario.name()
        );
        assert_eq!(pooled.epoch(), direct.epoch(), "{}", scenario.name());
        escalations += pooled_records
            .iter()
            .filter(|r| r.action == BatchAction::FullRepartition)
            .count();
    }
    // The tight threshold must force the escalation path somewhere in
    // the scenario set, otherwise the GA + per-level ParallelFm surface
    // went untested. (Not per-scenario: pfm's localized refinement keeps
    // hotspot drift under the threshold.)
    assert!(escalations > 0, "no escalation happened at ratio 1.02");
}

#[test]
fn every_scenario_maintains_a_valid_partition() {
    let graph = mesh();
    for scenario in [
        Scenario::MeshGrowth,
        Scenario::RandomChurn,
        Scenario::HotspotDrift,
    ] {
        let trace = generate(
            &graph,
            scenario,
            &TraceSpec {
                batches: 6,
                ops_per_batch: 10,
                seed: 3,
            },
        )
        .unwrap();
        let (s, records) = replay(&graph, &trace, 1.5);
        let name = scenario.name();
        s.graph().validate().unwrap();
        assert_eq!(
            s.partition().num_nodes(),
            s.graph().num_nodes(),
            "{name}: label count"
        );
        assert!(
            s.partition().labels().iter().all(|&l| l < PARTS),
            "{name}: label range"
        );
        assert!(
            s.partition().part_sizes().iter().all(|&z| z > 0),
            "{name}: a part was drained empty: {:?}",
            s.partition().part_sizes()
        );
        assert_eq!(records.len(), 6, "{name}");
    }
}

#[test]
fn trace_text_round_trip_replays_identically() {
    // Serializing a trace to text and parsing it back must not change
    // the replay outcome — the CLI `stream` subcommand rides on this.
    let graph = mesh();
    let trace = generate(
        &graph,
        Scenario::MeshGrowth,
        &TraceSpec {
            batches: 4,
            ops_per_batch: 9,
            seed: 7,
        },
    )
    .unwrap();
    let reparsed = parse_trace(&trace_to_text(&trace)).unwrap();
    assert_eq!(trace, reparsed);
    let (a, a_records) = replay(&graph, &trace, 1.5);
    let (b, b_records) = replay(&graph, &reparsed, 1.5);
    assert_eq!(a.partition(), b.partition());
    assert_eq!(a_records, b_records);
}

#[test]
fn escalations_are_recorded_as_epochs() {
    let graph = mesh();
    let trace = generate(
        &graph,
        Scenario::RandomChurn,
        &TraceSpec {
            batches: 8,
            ops_per_batch: 15,
            seed: 5,
        },
    )
    .unwrap();
    let (s, records) = replay(&graph, &trace, 1.0);
    let escalations = records
        .iter()
        .filter(|r| r.action == BatchAction::FullRepartition)
        .count();
    assert_eq!(
        s.epoch(),
        1 + escalations,
        "epoch must count the initial solve plus every escalation"
    );
    // Heavy churn at a tight threshold must escalate at least once,
    // otherwise this test exercises nothing.
    assert!(escalations > 0, "no escalation at ratio 1.0 under churn");
}
