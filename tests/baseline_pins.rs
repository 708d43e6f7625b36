//! Pins of the paper's comparison baselines: the label hash and cut of
//! `rsb`, `mlrsb`, `ibp` and `mlibp` at 2, 5 and 8 parts on three graphs,
//! and the bytes `render_partition` draws. The values were recorded
//! before the baselines lost their option structs and RSB its assembled
//! Laplacian matrix, so any change to a label or a byte shows here.

use gapart::graph::generators::{jittered_mesh, paper_graph};
use gapart::graph::partition::hash_labels;
use gapart::graph::svg::render_partition;
use gapart::graph::{CsrGraph, GraphBuilder, Partition};
use gapart::partitioners;

const SEED: u64 = 11;

/// `(method, parts, labels hash, cut)`.
type Pin = (&'static str, u32, &'static str, u64);

/// A 600-node mesh with node weights 1–5 and edge weights 1–7.
fn weighted_mesh() -> CsrGraph {
    let g = jittered_mesh(600, 5);
    let n = g.num_nodes() as u32;
    GraphBuilder::with_nodes(g.num_nodes())
        .weighted_edges(g.edges().map(|(u, v, _)| (u, v, 1 + (u * 31 + v * 17) % 7)))
        .node_weights((0..n).map(|v| 1 + (v * 13) % 5).collect())
        .coords(g.coords().unwrap().to_vec())
        .build()
        .unwrap()
}

fn check(graph: &CsrGraph, pins: &[Pin]) {
    for &(method, parts, hash, cut) in pins {
        let report = partitioners::by_name(method)
            .unwrap()
            .partition(graph, parts, SEED)
            .unwrap();
        let got = (
            hash_labels(report.partition.labels()),
            report.metrics.total_cut,
        );
        assert_eq!(got, (hash.to_string(), cut), "{method} at {parts} parts");
    }
}

#[test]
fn paper_graph_baselines_are_pinned() {
    check(
        &paper_graph(309),
        &[
            ("rsb", 2, "1f479da4ea7daa34", 32),
            ("rsb", 5, "a708e4f7d7c8fd06", 95),
            ("rsb", 8, "685ec7eadfb7a7e3", 135),
            ("mlrsb", 2, "019074215736e7c5", 34),
            ("mlrsb", 5, "47e2877fd5491da1", 86),
            ("mlrsb", 8, "fa0b5bb9949b2356", 124),
            ("ibp", 2, "c99cded5359aa885", 47),
            ("ibp", 5, "9163dd023c654fb1", 146),
            ("ibp", 8, "a0be9155c72be3f1", 194),
            ("mlibp", 2, "ba1f44251a5bd685", 40),
            ("mlibp", 5, "17ec21df38c8fa62", 97),
            ("mlibp", 8, "82dc08c8e8217064", 157),
        ],
    );
}

// One test per part count for flat RSB on the 2000-node mesh, the
// slowest rows, so the harness runs them side by side.

#[test]
fn mesh_rsb_two_parts_is_pinned() {
    check(
        &jittered_mesh(2000, 11),
        &[("rsb", 2, "152ff425b97b06e5", 89)],
    );
}

#[test]
fn mesh_rsb_five_parts_is_pinned() {
    check(
        &jittered_mesh(2000, 11),
        &[("rsb", 5, "d662f941ae343a65", 237)],
    );
}

#[test]
fn mesh_rsb_eight_parts_is_pinned() {
    check(
        &jittered_mesh(2000, 11),
        &[("rsb", 8, "230511e9a34ab2c5", 354)],
    );
}

#[test]
fn mesh_baselines_are_pinned() {
    check(
        &jittered_mesh(2000, 11),
        &[
            ("mlrsb", 2, "ba3a385998b233e5", 85),
            ("mlrsb", 5, "4a7409f8b9492d03", 233),
            ("mlrsb", 8, "772e59ecc06d36b2", 363),
            ("ibp", 2, "d2cbb961e6ee8ab5", 96),
            ("ibp", 5, "dd1b1e74fd24ca45", 357),
            ("ibp", 8, "5aa5a5f38be4eb75", 415),
            ("mlibp", 2, "2a802c23856ec5f4", 95),
            ("mlibp", 5, "1aca6e120931a306", 238),
            ("mlibp", 8, "5375865970fb75c6", 374),
        ],
    );
}

#[test]
fn weighted_baselines_are_pinned() {
    check(
        &weighted_mesh(),
        &[
            ("rsb", 2, "0ba1c961ae6f6705", 201),
            ("rsb", 5, "ec1a9562abeda595", 528),
            ("rsb", 8, "29df9e06bcd9e277", 783),
            ("mlrsb", 2, "2fd79d8e69286bc4", 187),
            ("mlrsb", 5, "73c1a33cec6e9133", 473),
            ("mlrsb", 8, "dc12ad4ca9b98b56", 783),
            ("ibp", 2, "9f17e9aca35c1e45", 196),
            ("ibp", 5, "a8159290fb0848b5", 727),
            ("ibp", 8, "8ba333c6bcdbfd55", 832),
            ("mlibp", 2, "874279670a484cc5", 188),
            ("mlibp", 5, "3ce77960b3ae3855", 491),
            ("mlibp", 8, "db3a6ffa4b2a5611", 777),
        ],
    );
}

/// FNV-1a of `bytes`, as 16 hex digits.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

#[test]
fn svg_is_pinned() {
    let svg = render_partition(&paper_graph(144), &Partition::blocks(144, 5)).unwrap();
    assert_eq!(
        (fnv1a(svg.as_bytes()), svg.len()),
        ("ec0cad4d9a7f364a".to_string(), 54072)
    );
}
