//! Byte pins for the two users of the mesh-growth step: `grow_local`
//! (the paper's one-shot §4.2 growth) and the mesh-growth trace
//! generator, plus the churn and hotspot traces beside it. The hashes
//! were recorded before the two callers came to share one step function,
//! and they must not move: every grown graph, coordinate file and trace
//! byte is part of the CLI's output.

use gapart_graph::dynamic::scenario::{generate, Scenario, TraceSpec};
use gapart_graph::dynamic::trace::trace_to_text;
use gapart_graph::generators::jittered_mesh;
use gapart_graph::incremental::grow_local;
use gapart_graph::io::{coords_to_text, to_metis};

/// FNV-1a of `bytes`, as 16 hex digits.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// `(mesh nodes, mesh seed, k, growth seed, hash of METIS + coordinates)`.
const GROWTH: [(usize, u64, usize, u64, &str); 16] = [
    (800, 42, 0, 1, "547b8f6e110c6558"),
    (800, 42, 0, 7, "547b8f6e110c6558"),
    (800, 42, 1, 1, "c2e8c9a0f8cdf67b"),
    (800, 42, 1, 7, "fc609f3e7ebacc9d"),
    (800, 42, 40, 1, "0c1059a042b62a82"),
    (800, 42, 40, 7, "5ab0609ff2d1a06b"),
    (800, 42, 500, 1, "02279119756e4df2"),
    (800, 42, 500, 7, "383619eb413f6dd8"),
    (200, 9, 0, 1, "982506b3d700e1c8"),
    (200, 9, 0, 7, "982506b3d700e1c8"),
    (200, 9, 1, 1, "92dadd4c1075b7bd"),
    (200, 9, 1, 7, "935b3f10fb42fc84"),
    (200, 9, 40, 1, "fb72a7ec3da9a3a6"),
    (200, 9, 40, 7, "6917143b55bc1852"),
    (200, 9, 500, 1, "19df878e108cfdd9"),
    (200, 9, 500, 7, "f2d06c823b84117e"),
];

#[test]
fn grow_local_output_is_pinned() {
    for (n, mesh_seed, k, seed, want) in GROWTH {
        let r = grow_local(&jittered_mesh(n, mesh_seed), k, seed).unwrap();
        let mut text = to_metis(&r.graph);
        text.push_str(&coords_to_text(r.graph.coords().unwrap()));
        assert_eq!(
            fnv1a(text.as_bytes()),
            want,
            "jittered_mesh({n}, {mesh_seed}) grown by {k} at seed {seed}"
        );
    }
}

/// `(scenario, hash of the trace text)` for 6 batches of 25 operations,
/// trace seed 4, on `jittered_mesh(800, 42)`.
const TRACES: [(Scenario, &str); 3] = [
    (Scenario::MeshGrowth, "d3e4f679a9c324de"),
    (Scenario::RandomChurn, "2acf24cf096dd40e"),
    (Scenario::HotspotDrift, "780a1a994ec1c0bf"),
];

#[test]
fn traces_are_pinned() {
    let graph = jittered_mesh(800, 42);
    let spec = TraceSpec {
        batches: 6,
        ops_per_batch: 25,
        seed: 4,
    };
    for (scenario, want) in TRACES {
        let text = trace_to_text(&generate(&graph, scenario, &spec).unwrap());
        assert_eq!(fnv1a(text.as_bytes()), want, "{}", scenario.name());
    }
}
