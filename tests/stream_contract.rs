//! Contract tests for the streaming dynamic-repartitioning subsystem:
//! replaying a mutation trace through a [`DynamicSession`] must be a pure
//! function of `(graph, trace, spec)` — bit-identical across thread
//! counts, including through GA-backed escalations — and every scenario
//! generator must produce a replayable trace.

use gapart::core::dynamic::{BatchAction, BatchRecord, DynamicSession, SessionSpec, SessionState};
use gapart::graph::dynamic::scenario::{generate, Scenario, TraceSpec};
use gapart::graph::dynamic::trace::{parse_trace, trace_to_text};
use gapart::graph::generators::jittered_mesh;
use gapart::graph::partition::hash_labels;
use gapart::graph::CsrGraph;
use gapart::partitioners;

const PARTS: u32 = 4;
const SEED: u64 = 0xD15C_05E5;

fn mesh() -> CsrGraph {
    jittered_mesh(220, 13)
}

/// Replays `trace` through a fresh session escalating to the registry's
/// `mlga`, the intended production partitioner; returns the session and
/// the record of every batch.
fn replay(
    graph: &CsrGraph,
    trace: &[Vec<gapart::graph::Mutation>],
    threshold: f64,
) -> (DynamicSession, Vec<BatchRecord>) {
    let mut s = SessionSpec {
        seed: SEED,
        threshold,
        ..SessionSpec::new(PARTS)
    }
    .open(graph.clone(), partitioners::by_name)
    .unwrap();
    let records = s.replay(trace).unwrap();
    (s, records)
}

#[test]
fn replay_is_bit_identical_between_a_forced_pool_and_a_direct_run() {
    let graph = mesh();
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
        assert_eq!(pooled.state(), direct.state(), "{}", scenario.name());
        escalations += pooled_records
            .iter()
            .filter(|r| r.action == BatchAction::FullRepartition)
            .count();
    }
    // The tight threshold must force the escalation path somewhere in
    // the scenario set, otherwise the GA + per-level FM surface went
    // untested. (Not per-scenario: the localized refinement keeps
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
        s.state().epoch,
        1 + escalations,
        "epoch must count the initial solve plus every escalation"
    );
    // Heavy churn at a tight threshold must escalate at least once,
    // otherwise this test exercises nothing.
    assert!(escalations > 0, "no escalation at ratio 1.0 under churn");
}

/// One pinned replay: the scenario, its final labels hash and
/// [`SessionState`], and every batch's `(cut_seeded, cut_after, action)`.
type Pin = (
    Scenario,
    &'static str,
    SessionState,
    [(u64, u64, BatchAction); 5],
);

#[test]
fn replay_is_pinned() {
    // Absolute values of the replay at ratio 1.02 on the file's mesh:
    // a refactor of the session must reproduce them bit for bit.
    const FULL: BatchAction = BatchAction::FullRepartition;
    const INCR: BatchAction = BatchAction::Incremental;
    const PINS: [Pin; 3] = [
        (
            Scenario::MeshGrowth,
            "0d8c44ce9a64bb55",
            SessionState {
                batches: 5,
                epoch: 6,
                baseline_cut: 61,
                current_cut: 61,
            },
            [
                (90, 64, FULL),
                (92, 62, FULL),
                (88, 65, FULL),
                (82, 61, FULL),
                (89, 61, FULL),
            ],
        ),
        (
            Scenario::RandomChurn,
            "2556f276aa4df8f7",
            SessionState {
                batches: 5,
                epoch: 6,
                baseline_cut: 82,
                current_cut: 82,
            },
            [
                (70, 64, FULL),
                (76, 66, FULL),
                (70, 70, FULL),
                (81, 75, FULL),
                (85, 82, FULL),
            ],
        ),
        (
            Scenario::HotspotDrift,
            "4489cef42dc553f4",
            SessionState {
                batches: 5,
                epoch: 1,
                baseline_cut: 59,
                current_cut: 58,
            },
            [
                (59, 59, INCR),
                (59, 58, INCR),
                (58, 58, INCR),
                (58, 58, INCR),
                (58, 58, INCR),
            ],
        ),
    ];
    let graph = mesh();
    for (scenario, hash, state, cuts) in PINS {
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
        let (s, records) = replay(&graph, &trace, 1.02);
        let name = scenario.name();
        assert_eq!(hash_labels(s.partition().labels()), hash, "{name}");
        assert_eq!(s.state(), state, "{name}");
        let got: Vec<_> = records
            .iter()
            .map(|r| (r.cut_seeded, r.cut_after, r.action))
            .collect();
        assert_eq!(got, cuts, "{name}");
    }
}
