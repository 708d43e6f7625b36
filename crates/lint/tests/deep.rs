//! Fixture tests for the cross-file analysis: call-graph
//! panic-reachability and determinism taint, finding by finding,
//! including the exact witness-path text.

use gapart_lint::callgraph::CrateDeps;
use gapart_lint::engine::scan_files;
use gapart_lint::Finding;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Scans fixture files under pretend workspace paths and keeps only the
/// named rule's findings.
fn scan_rule(files: &[(&str, &str)], rule: &str) -> Vec<Finding> {
    let inputs: Vec<(String, String)> = files
        .iter()
        .map(|(pretend, name)| (pretend.to_string(), fixture(name)))
        .collect();
    scan_files(&inputs, &CrateDeps::default())
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

#[test]
fn pub_api_reaching_a_panic_carries_the_exact_witness_path() {
    let f = scan_rule(
        &[("crates/graph/src/api.rs", "panic_reach_pub_api.rs")],
        "panic-reach",
    );
    assert_eq!(f.len(), 1);
    assert_eq!(
        (f[0].file.as_str(), f[0].line),
        ("crates/graph/src/api.rs", 3)
    );
    assert_eq!(
        f[0].excerpt,
        "graph::api::cut_cost -> graph::api::total -> graph::api::head: \
         unwrap() at crates/graph/src/api.rs:12"
    );
}

#[test]
fn clean_file_produces_no_panic_reach() {
    let f = scan_rule(
        &[("crates/graph/src/api.rs", "panic_reach_clean.rs")],
        "panic-reach",
    );
    assert!(f.is_empty(), "unexpected: {f:?}");
}

#[test]
fn recursion_and_mutual_recursion_terminate_and_report() {
    let f = scan_rule(
        &[("crates/graph/src/api.rs", "panic_reach_recursive.rs")],
        "panic-reach",
    );
    let got: Vec<(usize, &str)> = f.iter().map(|x| (x.line, x.excerpt.as_str())).collect();
    assert_eq!(
        got,
        vec![
            (
                4,
                "graph::api::collapse: indexing at crates/graph/src/api.rs:6"
            ),
            (
                12,
                "graph::api::ping -> graph::api::pong: indexing at crates/graph/src/api.rs:22"
            ),
        ]
    );
}

#[test]
fn ambiguous_trait_dispatch_is_reported_with_a_marked_hop() {
    let f = scan_rule(
        &[("crates/graph/src/api.rs", "panic_reach_ambiguous.rs")],
        "panic-reach",
    );
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].line, 23, "finding sits on pub fn run");
    assert_eq!(
        f[0].excerpt,
        "graph::api::run ~> graph::api::Exact::cost: indexing at crates/graph/src/api.rs:13"
    );
}

#[test]
fn panic_reach_is_scoped_to_the_library_crates() {
    // The same reachable panic under a bench path is not reported.
    let f = scan_rule(
        &[("crates/bench/src/api.rs", "panic_reach_pub_api.rs")],
        "panic-reach",
    );
    assert!(f.is_empty(), "unexpected: {f:?}");
}

#[test]
fn det_taint_reports_reachable_seed_with_entry_witness() {
    let f = scan_rule(
        &[
            ("crates/core/src/engine.rs", "det_taint_entry.rs"),
            ("crates/core/src/order.rs", "det_taint_order.rs"),
        ],
        "det-taint",
    );
    assert_eq!(f.len(), 1);
    assert_eq!(
        (f[0].file.as_str(), f[0].line),
        ("crates/core/src/order.rs", 4)
    );
    assert_eq!(
        f[0].excerpt,
        "HashMap (det-hash-iter) reachable from \
         core::engine::MultilevelPartitioner::partition -> core::order::seed_order"
    );
}

#[test]
fn det_seed_unreachable_from_entries_is_not_tainted() {
    // Without the entry file, nothing reaches the seeds: no det-taint,
    // while the line-level det-hash-iter findings remain.
    let inputs = vec![(
        "crates/core/src/order.rs".to_string(),
        fixture("det_taint_order.rs"),
    )];
    let all = scan_files(&inputs, &CrateDeps::default());
    assert!(
        all.iter().all(|f| f.rule != "det-taint"),
        "unexpected: {all:?}"
    );
    assert!(all.iter().any(|f| f.rule == "det-hash-iter"));
}

#[test]
fn suppressing_the_pub_fn_silences_panic_reach() {
    let mut text = fixture("panic_reach_pub_api.rs");
    text = text.replace(
        "pub fn cut_cost",
        "// gapart-lint: allow(panic-reach) -- fixture: slice is never empty here\npub fn cut_cost",
    );
    let inputs = vec![("crates/graph/src/api.rs".to_string(), text)];
    let f: Vec<Finding> = scan_files(&inputs, &CrateDeps::default())
        .into_iter()
        .filter(|f| f.rule == "panic-reach")
        .collect();
    assert!(f.is_empty(), "unexpected: {f:?}");
}
