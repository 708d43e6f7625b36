//! Streaming incremental repartitioning vs full recompute — the speed
//! case for the dynamic subsystem.
//!
//! Replays the same random-churn mutation trace two ways over a jittered
//! mesh:
//!
//! * **stream** — a `DynamicSession` (seed new nodes per §3.5, refine
//!   only the dirty frontier, escalate to a full `mlga` solve when the
//!   cut degrades past the threshold);
//! * **full**   — recompute `mlga` from scratch after every batch, the
//!   only option before this subsystem existed.
//!
//! Reports per-batch wall time and the final cut of both paths. The
//! localized path must be an order of magnitude faster per batch at an
//! equal or better final cut.
//!
//! Run: `cargo run -p gapart-bench --release --bin streambench`
//! Knobs: `GAPART_NODES` (default 5000), `GAPART_BATCHES` (default 12),
//! `GAPART_OPS` (mutations per batch, default 40), `GAPART_FAST=1`
//! (shrinks everything for smoke tests).

use gapart::partitioners;
use gapart_bench::table::TextTable;
use gapart_core::dynamic::{BatchAction, DynamicConfig, DynamicSession};
use gapart_graph::dynamic::apply_batch;
use gapart_graph::dynamic::scenario::{generate, Scenario, TraceSpec};
use gapart_graph::generators::jittered_mesh;
use gapart_graph::partition::cut_size;
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let fast = std::env::var("GAPART_FAST").is_ok_and(|v| v == "1");
    let nodes = env_usize("GAPART_NODES", if fast { 600 } else { 5000 });
    let batches = env_usize("GAPART_BATCHES", if fast { 4 } else { 16 });
    let ops = env_usize("GAPART_OPS", 40);
    let hops = env_usize("GAPART_HOPS", 3);
    // Escalate at 10% degradation: tight enough that one full solve
    // mid-stream re-anchors quality, loose enough that the amortized
    // per-batch cost stays an order of magnitude under a recompute.
    let threshold: f64 = std::env::var("GAPART_THRESHOLD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.10);
    let parts = 8u32;
    let seed = 0x5743_4253; // "WCBS"

    let graph = jittered_mesh(nodes, 17);
    let trace = generate(
        &graph,
        Scenario::RandomChurn,
        &TraceSpec {
            batches,
            ops_per_batch: ops,
            seed: 23,
        },
    )
    .expect("churn generation cannot fail on a mesh");
    let total_muts: usize = trace.iter().map(Vec::len).sum();
    println!(
        "random churn over a {nodes}-node mesh: {batches} batches × {ops} ops \
         ({total_muts} mutations), {parts} parts\n"
    );

    // Path 1: the dynamic session (localized incremental absorption).
    let mut session = DynamicSession::new(
        graph.clone(),
        partitioners::by_name("mlga").expect("mlga is registered"),
        DynamicConfig {
            seed,
            frontier_hops: hops,
            escalate_ratio: threshold,
            ..DynamicConfig::new(parts)
        },
    )
    .expect("initial solve cannot fail");
    let mut stream_batch_secs = Vec::with_capacity(batches);
    let mut escalations = 0usize;
    for batch in &trace {
        let t = Instant::now();
        let record = session
            .apply_batch(batch)
            .expect("generated trace is valid");
        stream_batch_secs.push(t.elapsed().as_secs_f64());
        if record.action == BatchAction::FullRepartition {
            escalations += 1;
        }
    }
    let stream_cut = session.current_cut();

    // Path 2: full mlga recompute after every batch.
    let mlga = partitioners::by_name("mlga").expect("mlga is registered");
    let mut g = graph.clone();
    let mut full_batch_secs = Vec::with_capacity(batches);
    let mut full_cut = 0u64;
    for (i, batch) in trace.iter().enumerate() {
        let t = Instant::now();
        let (next, _) = apply_batch(&g, batch).expect("generated trace is valid");
        g = next;
        let report = mlga
            .partition(&g, parts, seed.wrapping_add(i as u64))
            .expect("mesh partitioning cannot fail");
        full_batch_secs.push(t.elapsed().as_secs_f64());
        full_cut = cut_size(&g, &report.partition);
    }

    let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let (stream_avg, full_avg) = (avg(&stream_batch_secs), avg(&full_batch_secs));

    let mut table = TextTable::new(["path", "avg ms/batch", "total s", "final cut"]);
    table.row([
        format!("stream ({escalations} escalations)"),
        format!("{:.2}", stream_avg * 1e3),
        format!("{:.2}", stream_batch_secs.iter().sum::<f64>()),
        stream_cut.to_string(),
    ]);
    table.row([
        "full mlga each batch".to_string(),
        format!("{:.2}", full_avg * 1e3),
        format!("{:.2}", full_batch_secs.iter().sum::<f64>()),
        full_cut.to_string(),
    ]);
    println!("{}", table.render());

    let speedup = full_avg / stream_avg.max(1e-9);
    println!(
        "incremental absorption is {speedup:.1}x faster per batch; final cut {stream_cut} vs {full_cut} ({})",
        if stream_cut <= full_cut {
            "stream matches or beats the recompute"
        } else {
            "recompute wins on cut this run"
        }
    );
}
