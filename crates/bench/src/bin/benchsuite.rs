//! The persistent benchmark trajectory: a fixed scenario matrix, one
//! schema'd JSON document per PR.
//!
//! Runs large-grid / geometric / churn-stream scenarios across a sweep of
//! forced worker-pool sizes, flat and multilevel methods side by side —
//! including the refinement-engine comparison (`mlga` vs `mlga-pfm`, and
//! their `stream+` twins) — and
//! writes `BENCH_7.json` (see `--out`) with per-row wall time, cut
//! metrics, peak-RSS memory telemetry, and an FNV-1a hash of the final
//! labels — the witness that every thread count produced the
//! bit-identical partition. The schema lives in `gapart_bench::json`
//! and CI validates every emitted document against it.
//!
//! The `*-anchor` scenarios run at identical sizes in both smoke and
//! full mode, so a CI smoke run is directly comparable against the
//! newest committed full-run `BENCH_*.json` — that comparison is the
//! bench-regression gate (`--compare`), which fails when a matched row's
//! cut worsens by more than 2% or its partition hash diverges at equal
//! cut (see `gapart_bench::json::compare_trajectories`).
//!
//! Usage:
//!   benchsuite [--smoke] [--out PATH] [--max-threads N]
//!   benchsuite --validate PATH
//!   benchsuite --validate-all DIR       # every BENCH_*.json in DIR
//!   benchsuite --compare BASELINE CANDIDATE
//!
//! `--smoke` runs only the anchor scenarios (seconds, for CI); the
//! committed trajectory file is produced by a full run, which includes
//! the anchors plus the large scenarios.

use gapart::core::dynamic::{BatchAction, DynamicConfig, DynamicSession};
use gapart::core::GaConfig;
use gapart::graph::dynamic::scenario::{generate, Scenario, TraceSpec};
use gapart::graph::generators::{grid2d, random_geometric, GridKind};
use gapart::graph::multilevel::MultilevelConfig;
use gapart::graph::partition::PartitionMetrics;
use gapart::graph::partitioner::Partitioner;
use gapart::graph::refine::RefineScheme;
use gapart::graph::CsrGraph;
use gapart::partitioners;
use gapart_bench::json::{self, hash_labels, TRAJECTORY_SCHEMA};
use std::fmt::Write as _;
use std::time::Instant;

/// The PR number this trajectory file records.
const PR: u64 = 7;
const SEED: u64 = 0x5343_3934; // "SC94"
const PARTS: u32 = 8;

/// CI time budget for the million-node smoke anchor (generation plus both
/// methods). Smoke mode hard-fails past this, so a scale regression can
/// never ride a green pipeline.
const SMOKE_1M_BUDGET_S: f64 = 180.0;

struct Row {
    scenario: &'static str,
    method: String,
    mode: &'static str,
    threads: usize,
    nodes: usize,
    edges: usize,
    wall_ms: f64,
    total_cut: u64,
    max_cut: u64,
    /// Standard balance ratio `max_load / ideal_load` (1.0 = perfect).
    imbalance: f64,
    /// The pre-PR-7 raw `PartitionMetrics::imbalance` weight delta, kept
    /// under a renamed key for anyone consuming the old field.
    imbalance_weight_delta: f64,
    /// Process peak RSS (VmHWM) observed by the end of this row, bytes.
    /// A high-water mark: monotone over the run, so the 1M/10M rows show
    /// the memory ceiling of the scale path. `None` off-Linux.
    peak_rss_bytes: Option<u64>,
    partition_hash: String,
    batches: Option<usize>,
    escalations: Option<usize>,
}

/// Peak resident-set size of this process so far (`VmHWM` from
/// `/proc/self/status`), in bytes; `None` where procfs is unavailable.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .strip_prefix("VmHWM:")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// `max_load / ideal_load` from the per-part loads (1.0 when the total
/// weight is zero — an empty graph is perfectly balanced).
fn imbalance_ratio(part_loads: &[u64]) -> f64 {
    let total: u64 = part_loads.iter().sum();
    if total == 0 || part_loads.is_empty() {
        return 1.0;
    }
    let max = *part_loads.iter().max().expect("non-empty") as f64;
    max * part_loads.len() as f64 / total as f64
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pools are infallible")
}

/// The registry `mlga` with the parallel colored-batch FM — the
/// thread-scaling refinement the anchor scenarios track against `mlga`.
fn mlga_pfm() -> Box<dyn Partitioner> {
    partitioners::multilevel_with(
        "mlga-pfm",
        partitioners::tuned_ga(GaConfig::coarse_defaults(2)),
        MultilevelConfig {
            refine_scheme: RefineScheme::ParallelFm,
            ..MultilevelConfig::default()
        },
    )
}

/// One partitioner run under a forced pool: returns the row plus prints a
/// progress line. Registry methods resolve by name; ablations (trimmed
/// flat GA, `mlga-pfm`) pass their instance via `run_partitioner`.
fn run_method(
    scenario: &'static str,
    graph: &CsrGraph,
    method: &str,
    mode: &'static str,
    threads: usize,
) -> Row {
    run_partitioner(
        scenario,
        graph,
        &*partitioners::by_name(method).expect("method is registered"),
        mode,
        threads,
    )
}

fn run_partitioner(
    scenario: &'static str,
    graph: &CsrGraph,
    p: &dyn Partitioner,
    mode: &'static str,
    threads: usize,
) -> Row {
    // Best of three runs: partitioning is deterministic (asserted), so
    // repetition only de-noises the wall time.
    run_partitioner_reps(scenario, graph, p, mode, threads, 3)
}

/// [`run_partitioner`] with an explicit repetition count — the 1M/10M
/// anchors run once (each rep is seconds, and their determinism is pinned
/// by the CI matrix, not by in-process repetition).
fn run_partitioner_reps(
    scenario: &'static str,
    graph: &CsrGraph,
    p: &dyn Partitioner,
    mode: &'static str,
    threads: usize,
    reps: usize,
) -> Row {
    let method = p.name();
    let mut wall_ms = f64::INFINITY;
    let mut partition = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = pool(threads)
            .install(|| p.partition(graph, PARTS, SEED))
            .expect("benchmark scenarios cannot fail");
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        if let Some(prev) = &partition {
            assert_eq!(
                prev, &r.partition,
                "{method} is not run-to-run deterministic"
            );
        }
        partition = Some(r.partition);
    }
    let partition = partition.expect("reps ran");
    let metrics = PartitionMetrics::compute(graph, &partition);
    let row = Row {
        scenario,
        method: method.to_string(),
        mode,
        threads,
        nodes: graph.num_nodes(),
        edges: graph.num_edges(),
        wall_ms,
        total_cut: metrics.total_cut,
        max_cut: metrics.max_cut,
        imbalance: imbalance_ratio(&metrics.part_loads),
        imbalance_weight_delta: metrics.imbalance,
        peak_rss_bytes: peak_rss_bytes(),
        partition_hash: hash_labels(partition.labels()),
        batches: None,
        escalations: None,
    };
    println!(
        "  {scenario:>16} {method:>10} x{threads}: {wall_ms:9.1} ms, cut {}, hash {}",
        row.total_cut, row.partition_hash
    );
    row
}

/// A churn-stream scenario: replay a mutation trace through a dynamic
/// session (mlga escalation) under a forced pool, with the chosen
/// refinement engine on both the frontier and the escalation path.
fn run_stream(
    scenario: &'static str,
    graph: &CsrGraph,
    batches: usize,
    ops: usize,
    threads: usize,
    scheme: RefineScheme,
) -> Row {
    let method = match scheme {
        RefineScheme::BoundaryFm => "stream+mlga",
        RefineScheme::ParallelFm => "stream+mlga-pfm",
    };
    let trace = generate(
        graph,
        Scenario::RandomChurn,
        &TraceSpec {
            batches,
            ops_per_batch: ops,
            seed: SEED,
        },
    )
    .expect("churn traces generate on any graph");
    let start = Instant::now();
    let (session, records) = pool(threads)
        .install(|| {
            let full = partitioners::by_name_with("mlga", scheme).expect("mlga is registered");
            let mut s = DynamicSession::new(
                graph.clone(),
                full,
                DynamicConfig {
                    seed: SEED,
                    refine_scheme: scheme,
                    ..DynamicConfig::new(PARTS)
                },
            )?;
            let records = s.replay(&trace)?;
            Ok::<_, gapart::core::dynamic::DynamicError>((s, records))
        })
        .expect("stream replay cannot fail");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let m = PartitionMetrics::compute(session.graph(), session.partition());
    let escalations = records
        .iter()
        .filter(|r| r.action == BatchAction::FullRepartition)
        .count();
    let row = Row {
        scenario,
        method: method.into(),
        mode: "stream",
        threads,
        nodes: session.graph().num_nodes(),
        edges: session.graph().num_edges(),
        wall_ms,
        total_cut: m.total_cut,
        max_cut: m.max_cut,
        imbalance: imbalance_ratio(&m.part_loads),
        imbalance_weight_delta: m.imbalance,
        peak_rss_bytes: peak_rss_bytes(),
        partition_hash: hash_labels(session.partition().labels()),
        batches: Some(batches),
        escalations: Some(escalations),
    };
    println!(
        "  {scenario:>16} {method:>10} x{threads}: {wall_ms:9.1} ms, {batches} batches, \
         {escalations} escalation(s), cut {}, hash {}",
        row.total_cut, row.partition_hash
    );
    row
}

fn render(
    rows: &[Row],
    smoke: bool,
    speedup: Option<f64>,
    scenario_walls: &[(&'static str, f64)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{TRAJECTORY_SCHEMA}\",");
    let _ = writeln!(out, "  \"pr\": {PR},");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Per-scenario elapsed wall time (seconds), so the CI time budget of
    // each scenario — the 1M smoke anchor above all — is visible in the
    // document, not just in CI logs.
    let mut walls = String::new();
    for (i, (name, secs)) in scenario_walls.iter().enumerate() {
        let _ = write!(
            walls,
            "{}\"{}\": {:.3}",
            if i == 0 { "" } else { ", " },
            json::escape(name),
            secs
        );
    }
    let walls = format!(", \"scenario_wall_s\": {{{walls}}}");
    if cpus < 4 {
        // Speedup rows are core-bound: flag sub-4-core recordings so a
        // reader never mistakes a hardware ceiling for a code property.
        let _ = writeln!(
            out,
            "  \"host\": {{\"cpus\": {cpus}, \"note\": \"recorded on a {cpus}-core host; \
             cross-thread wall_ms ratios are bounded by the cores available, not by the \
             pipeline (which is parallel end to end)\"{walls}}},"
        );
    } else {
        let _ = writeln!(out, "  \"host\": {{\"cpus\": {cpus}{walls}}},");
    }
    match speedup {
        Some(s) => {
            let _ = writeln!(
                out,
                "  \"summary\": {{\"grid_mlga_speedup_4t_vs_1t\": {s:.3}}},"
            );
        }
        None => {
            let _ = writeln!(out, "  \"summary\": {{}},");
        }
    }
    let _ = writeln!(out, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let mut extra = String::new();
        if let Some(b) = r.batches {
            let _ = write!(extra, ", \"batches\": {b}");
        }
        if let Some(e) = r.escalations {
            let _ = write!(extra, ", \"escalations\": {e}");
        }
        if let Some(rss) = r.peak_rss_bytes {
            let _ = write!(extra, ", \"peak_rss_bytes\": {rss}");
        }
        let _ = writeln!(
            out,
            "    {{\"scenario\": \"{}\", \"method\": \"{}\", \"mode\": \"{}\", \
             \"threads\": {}, \"parts\": {PARTS}, \"seed\": {SEED}, \"nodes\": {}, \
             \"edges\": {}, \"wall_ms\": {:.3}, \"total_cut\": {}, \"max_cut\": {}, \
             \"imbalance\": {:.4}, \"imbalance_weight_delta\": {:.4}, \
             \"partition_hash\": \"{}\"{extra}}}{}",
            json::escape(r.scenario),
            json::escape(&r.method),
            r.mode,
            r.threads,
            r.nodes,
            r.edges,
            r.wall_ms,
            r.total_cut,
            r.max_cut,
            r.imbalance,
            r.imbalance_weight_delta,
            r.partition_hash,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Parses and schema-validates one trajectory document.
fn load_rows(path: &str) -> Vec<json::TrajectoryRow> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::validate_trajectory(&doc).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_7.json".to_string();
    let mut validate_path: Option<String> = None;
    let mut validate_all_dir: Option<String> = None;
    let mut compare: Option<(String, String)> = None;
    let mut max_threads = 8usize;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = it.next().expect("--out takes a path").clone(),
            "--validate" => {
                validate_path = Some(it.next().expect("--validate takes a path").clone())
            }
            "--validate-all" => {
                validate_all_dir =
                    Some(it.next().expect("--validate-all takes a directory").clone())
            }
            "--compare" => {
                let baseline = it.next().expect("--compare takes two paths").clone();
                let candidate = it
                    .next()
                    .expect("--compare takes a baseline and a candidate path")
                    .clone();
                compare = Some((baseline, candidate));
            }
            "--max-threads" => {
                max_threads = it
                    .next()
                    .expect("--max-threads takes a count")
                    .parse()
                    .expect("--max-threads takes a positive integer");
                assert!(max_threads >= 1, "--max-threads takes a positive integer");
            }
            other => panic!("unknown flag '{other}' (see the module docs)"),
        }
    }

    // Validation mode: parse + schema-check an existing document.
    if let Some(path) = validate_path {
        let rows = load_rows(&path);
        println!("{path}: valid trajectory, {} result row(s)", rows.len());
        return;
    }

    // Validate every committed trajectory in a directory from one
    // process, reporting each file so a failure names its culprit.
    if let Some(dir) = validate_all_dir {
        let mut paths: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("cannot read directory {dir}: {e}"))
            .filter_map(|entry| {
                let name = entry.expect("readable directory entry").file_name();
                let name = name.to_string_lossy().into_owned();
                (name.starts_with("BENCH_") && name.ends_with(".json"))
                    .then(|| format!("{dir}/{name}"))
            })
            .collect();
        paths.sort();
        assert!(!paths.is_empty(), "no BENCH_*.json files under {dir}");
        let mut failures = 0usize;
        for path in &paths {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            match json::parse(&text).and_then(|doc| json::validate_trajectory(&doc)) {
                Ok(rows) => println!("{path}: valid trajectory, {} result row(s)", rows.len()),
                Err(e) => {
                    println!("{path}: INVALID — {e}");
                    failures += 1;
                }
            }
        }
        if failures > 0 {
            eprintln!("{failures} of {} trajectory file(s) invalid", paths.len());
            std::process::exit(1);
        }
        return;
    }

    // The bench-regression gate: candidate vs committed baseline.
    if let Some((baseline_path, candidate_path)) = compare {
        let baseline = load_rows(&baseline_path);
        let candidate = load_rows(&candidate_path);
        let report = json::compare_trajectories(&baseline, &candidate);
        println!(
            "compared {candidate_path} against {baseline_path}: {} matched row(s)",
            report.matched
        );
        for note in &report.notes {
            println!("  note: {note}");
        }
        for failure in &report.failures {
            println!("  FAIL: {failure}");
        }
        if !report.passed() {
            eprintln!(
                "bench-regression gate failed ({} failure(s))",
                report.failures.len()
            );
            std::process::exit(1);
        }
        println!("bench-regression gate passed");
        return;
    }

    let cap =
        |ts: &[usize]| -> Vec<usize> { ts.iter().copied().filter(|&t| t <= max_threads).collect() };
    let mut rows: Vec<Row> = Vec::new();

    // Per-scenario elapsed wall time: printed as each scenario finishes
    // and recorded under `host.scenario_wall_s`, so CI time budgets are
    // visible where the budget is enforced.
    let mut scenario_walls: Vec<(&'static str, f64)> = Vec::new();
    let mut mark = Instant::now();
    let lap = |name: &'static str, walls: &mut Vec<(&'static str, f64)>, mark: &mut Instant| {
        let secs = mark.elapsed().as_secs_f64();
        println!("  [scenario {name}: {secs:.2} s]");
        walls.push((name, secs));
        *mark = Instant::now();
        secs
    };

    // ---- Anchor scenarios: identical sizes in smoke and full mode, so
    // a CI smoke document has rows directly comparable (same identity
    // keys) against the newest committed full-run trajectory.
    let anchor = grid2d(24, 24, GridKind::FourConnected);
    println!(
        "grid-anchor 24x24: {} nodes, {} edges",
        anchor.num_nodes(),
        anchor.num_edges()
    );
    for &t in &cap(&[1, 2]) {
        rows.push(run_method("grid-anchor", &anchor, "mlga", "multilevel", t));
    }
    for &t in &cap(&[1, 2]) {
        rows.push(run_partitioner(
            "grid-anchor",
            &anchor,
            &*mlga_pfm(),
            "multilevel",
            t,
        ));
    }
    rows.push(run_method("grid-anchor", &anchor, "ibp", "flat", 1));
    rows.push(run_method("grid-anchor", &anchor, "mlrsb", "multilevel", 1));
    lap("grid-anchor", &mut scenario_walls, &mut mark);

    let ga_lite = partitioners::tuned_ga(
        GaConfig::paper_defaults(PARTS)
            .with_population_size(48)
            .with_generations(15),
    );
    let small_anchor = grid2d(16, 16, GridKind::FourConnected);
    println!(
        "grid-ga-anchor 16x16: {} nodes, {} edges",
        small_anchor.num_nodes(),
        small_anchor.num_edges()
    );
    rows.push(run_partitioner(
        "grid-ga-anchor",
        &small_anchor,
        &*ga_lite,
        "flat",
        1,
    ));
    rows.push(run_method(
        "grid-ga-anchor",
        &small_anchor,
        "mlga",
        "multilevel",
        1,
    ));
    lap("grid-ga-anchor", &mut scenario_walls, &mut mark);

    let geo_anchor = random_geometric(400, 1.5 / (400f64).sqrt(), SEED);
    println!(
        "geometric-anchor 400: {} nodes, {} edges",
        geo_anchor.num_nodes(),
        geo_anchor.num_edges()
    );
    rows.push(run_method(
        "geometric-anchor",
        &geo_anchor,
        "mlga",
        "multilevel",
        1,
    ));
    rows.push(run_partitioner(
        "geometric-anchor",
        &geo_anchor,
        &*mlga_pfm(),
        "multilevel",
        1,
    ));
    rows.push(run_method(
        "geometric-anchor",
        &geo_anchor,
        "ibp",
        "flat",
        1,
    ));
    lap("geometric-anchor", &mut scenario_walls, &mut mark);

    let churn_anchor = grid2d(12, 12, GridKind::FourConnected);
    for scheme in [RefineScheme::BoundaryFm, RefineScheme::ParallelFm] {
        rows.push(run_stream("churn-anchor", &churn_anchor, 4, 20, 1, scheme));
    }
    lap("churn-anchor", &mut scenario_walls, &mut mark);

    // ---- Million-node anchor: the scale path, in both smoke and full
    // mode (identical size, so the compare gate covers it). One rep per
    // method — each run is seconds, and determinism at this size is
    // pinned by the CI matrix rather than in-process repetition. Smoke
    // mode enforces the CI time budget.
    let grid_1m = grid2d(1000, 1000, GridKind::FourConnected);
    println!(
        "grid-1m-anchor 1000x1000: {} nodes, {} edges",
        grid_1m.num_nodes(),
        grid_1m.num_edges()
    );
    rows.push(run_partitioner_reps(
        "grid-1m-anchor",
        &grid_1m,
        &*partitioners::by_name("mlga").expect("mlga is registered"),
        "multilevel",
        1,
        1,
    ));
    rows.push(run_partitioner_reps(
        "grid-1m-anchor",
        &grid_1m,
        &*mlga_pfm(),
        "multilevel",
        1,
        1,
    ));
    drop(grid_1m);
    let secs_1m = lap("grid-1m-anchor", &mut scenario_walls, &mut mark);
    if smoke {
        assert!(
            secs_1m <= SMOKE_1M_BUDGET_S,
            "grid-1m-anchor took {secs_1m:.1} s, over the {SMOKE_1M_BUDGET_S:.0} s smoke budget"
        );
    }

    // ---- Full-size scenarios (skipped in smoke mode).
    if !smoke {
        // Scenario 1 — large grid, the headline case: multilevel GA
        // across the full pool sweep, the parallel-FM variant, and flat
        // IBP / multilevel RSB as anchors.
        let grid = grid2d(320, 320, GridKind::FourConnected);
        println!(
            "grid 320x320: {} nodes, {} edges",
            grid.num_nodes(),
            grid.num_edges()
        );
        for &t in &cap(&[1, 2, 4, 8]) {
            rows.push(run_method("grid", &grid, "mlga", "multilevel", t));
        }
        for &t in &cap(&[1, 4]) {
            rows.push(run_partitioner(
                "grid",
                &grid,
                &*mlga_pfm(),
                "multilevel",
                t,
            ));
        }
        for &t in &cap(&[1, 4]) {
            rows.push(run_method("grid", &grid, "ibp", "flat", t));
        }
        for &t in &cap(&[1, 4]) {
            rows.push(run_method("grid", &grid, "mlrsb", "multilevel", t));
        }
        lap("grid", &mut scenario_walls, &mut mark);

        // Scenario 2 — flat GA vs multilevel GA head-to-head, at a size
        // where the flat GA's O(pop × gens × E) budget stays affordable.
        // The trimmed budget is recorded here, not hidden: pop 48, 15
        // gens.
        let small = grid2d(64, 64, GridKind::FourConnected);
        println!(
            "grid-ga 64x64: {} nodes, {} edges",
            small.num_nodes(),
            small.num_edges()
        );
        for &t in &cap(&[1, 4]) {
            rows.push(run_partitioner("grid-ga", &small, &*ga_lite, "flat", t));
        }
        for &t in &cap(&[1, 4]) {
            rows.push(run_method("grid-ga", &small, "mlga", "multilevel", t));
        }
        lap("grid-ga", &mut scenario_walls, &mut mark);

        // Scenario 3 — random geometric graph: coordinates make the
        // inertial method applicable, so flat IBP vs multilevel GA.
        let n_geo = 40_000;
        let geo = random_geometric(n_geo, 1.5 / (n_geo as f64).sqrt(), SEED);
        println!(
            "geometric {n_geo}: {} nodes, {} edges",
            geo.num_nodes(),
            geo.num_edges()
        );
        for &t in &cap(&[1, 4]) {
            rows.push(run_method("geometric", &geo, "mlga", "multilevel", t));
        }
        for &t in &cap(&[1, 4]) {
            rows.push(run_method("geometric", &geo, "ibp", "flat", t));
        }
        lap("geometric", &mut scenario_walls, &mut mark);

        // Scenario 4 — churn stream: localized refinement on the dirty
        // frontier (FM buckets vs parallel FM), escalating to full mlga
        // solves.
        let sgrid = grid2d(100, 100, GridKind::FourConnected);
        for &t in &cap(&[1, 4]) {
            rows.push(run_stream(
                "churn-stream",
                &sgrid,
                15,
                150,
                t,
                RefineScheme::BoundaryFm,
            ));
        }
        rows.push(run_stream(
            "churn-stream",
            &sgrid,
            15,
            150,
            1,
            RefineScheme::ParallelFm,
        ));
        lap("churn-stream", &mut scenario_walls, &mut mark);

        // Scenario 5 — ten-million-node grid, full mode only: the
        // outer edge of the scale path. One rep each; the row's
        // peak_rss_bytes is the process high-water mark, i.e. the
        // memory ceiling of the whole suite including this graph.
        let grid_10m = grid2d(3163, 3163, GridKind::FourConnected);
        println!(
            "grid-10m 3163x3163: {} nodes, {} edges",
            grid_10m.num_nodes(),
            grid_10m.num_edges()
        );
        rows.push(run_partitioner_reps(
            "grid-10m",
            &grid_10m,
            &*partitioners::by_name("mlga").expect("mlga is registered"),
            "multilevel",
            1,
            1,
        ));
        rows.push(run_partitioner_reps(
            "grid-10m",
            &grid_10m,
            &*mlga_pfm(),
            "multilevel",
            1,
            1,
        ));
        drop(grid_10m);
        lap("grid-10m", &mut scenario_walls, &mut mark);
    }

    // Headline number: mlga on the large grid, 1 thread vs 4.
    let grid_wall = |t: usize| {
        rows.iter()
            .find(|r| r.scenario == "grid" && r.method == "mlga" && r.threads == t)
            .map(|r| r.wall_ms)
    };
    let speedup = match (grid_wall(1), grid_wall(4)) {
        (Some(w1), Some(w4)) if w4 > 0.0 => Some(w1 / w4),
        _ => None,
    };
    if let Some(s) = speedup {
        println!("grid mlga speedup, 4 threads vs 1: {s:.2}x");
    }

    let text = render(&rows, smoke, speedup, &scenario_walls);
    // Never emit a document the validator would reject.
    let doc = json::parse(&text).expect("benchsuite emits parseable JSON");
    json::validate_trajectory(&doc).expect("benchsuite emits schema-valid JSON");
    std::fs::write(&out_path, &text).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}: {} result row(s)", rows.len());
}
