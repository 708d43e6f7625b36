//! Implementation of the `gapart-cli` command-line tool.
//!
//! Kept in the library (rather than the binary) so the argument parser
//! and command logic are unit-testable. The binary in `src/bin` is a
//! thin wrapper around [`run`].
//!
//! Subcommands:
//!
//! * `gen`        — generate a graph (mesh / grid / geometric / gnp) to
//!   METIS format plus an optional coordinate file.
//! * `info`       — print graph statistics.
//! * `partition`  — partition with `dpga` (default), `ga`, `rsb`, `ibp`,
//!   or a multilevel wrapper (`mldpga`, `mlga`, `mlrsb`, `mlibp`); writes
//!   one part label per line.
//! * `eval`       — score an existing partition file.
//! * `grow`       — apply the paper's incremental local growth.
//! * `trace`      — generate a mutation trace (mesh-growth / churn /
//!   hotspot scenarios) for `stream`.
//! * `stream`     — replay a mutation trace through a dynamic
//!   repartitioning session (localized refinement + escalation).
//! * `serve`      — multi-session partition daemon over stdio or a Unix
//!   socket, with durable per-session tapes and crash recovery.

use crate::core::dynamic::{parse_seed, BatchAction, DynamicError, SessionSpec};
use crate::core::incremental::incremental_ga;
use crate::core::{
    CrossoverOp, DpgaConfig, DpgaPartitioner, FitnessKind, GaConfig, GaPartitioner, HillClimbMode,
};
use crate::graph::dynamic::scenario::{generate as generate_trace, Scenario, TraceSpec};
use crate::graph::dynamic::trace::{parse_trace, trace_to_text};
use crate::graph::generators::{gnp, grid2d, jittered_mesh, random_geometric, GridKind};
use crate::graph::incremental::grow_local;
use crate::graph::io::{attach_coords, coords_from_text, coords_to_text, from_metis, to_metis};
use crate::graph::multilevel::MultilevelPartitioner;
use crate::graph::partition::{hash_labels, Partition, PartitionMetrics};
use crate::graph::partitioner::Partitioner;
use crate::graph::CsrGraph;
use crate::rsb::{rsb_partition, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed command line: positional arguments and `--key value` flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// Positional arguments in order (subcommand first).
    pub positional: Vec<String>,
    /// `--key value` options (keys without the `--`).
    pub flags: BTreeMap<String, String>,
}

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line (message explains; usage should be printed).
    Usage(String),
    /// Underlying IO failure.
    Io(std::io::Error),
    /// Anything the library layers rejected.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Parses raw arguments (excluding `argv[0]`) into [`Args`].
///
/// Grammar: anything starting with `--` is a flag and consumes the next
/// token as its value; everything else is positional.
pub fn parse_args<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, CliError> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(tok) = it.next() {
        if let Some(key) = tok.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("flag --{key} expects a value")))?;
            if args.flags.insert(key.to_string(), value).is_some() {
                return Err(CliError::Usage(format!("flag --{key} given twice")));
            }
        } else {
            args.positional.push(tok);
        }
    }
    Ok(args)
}

impl Args {
    fn flag(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn flag_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.flag(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key} {v}: cannot parse"))),
        }
    }

    /// `--seed` in the one seed grammar ([`parse_seed`]), or `default`.
    fn seed(&self, default: u64) -> Result<u64, CliError> {
        self.flag("seed").map_or(Ok(default), |v| {
            parse_seed(v).ok_or_else(|| CliError::Usage(format!("--seed {v}: cannot parse")))
        })
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.flag(key)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
    }
}

/// The usage text printed on `help` or a usage error.
pub const USAGE: &str = "\
gapart-cli — GA graph partitioning (Maini et al., SC'94)

GLOBAL FLAGS (any subcommand):
  --threads N   worker threads for the parallel phases (coarsening's
                handshake scan and contraction, GA population
                evaluation, DPGA islands; FM refinement is sequential);
                0 or absent = all cores.
                Output is bit-identical for every thread count.

USAGE:
  gapart-cli gen --kind mesh|grid|geometric|gnp --nodes N [--seed S]
             --out g.metis [--coords-out g.xy]
  gapart-cli info GRAPH.metis
  gapart-cli partition GRAPH.metis --parts P
             [--method dpga|ga|rsb|ibp|mldpga|mlga|mlrsb|mlibp]
             [--fitness total|worst] [--gens G] [--pop SIZE] [--seed S]
             [--coords G.xy] [--out labels.part] [--svg view.svg]
             (ml* methods are the multilevel V-cycle, refined by boundary
              FM at every level; mlga/mldpga honour --fitness and default
              --gens/--pop to the coarse-level sizing, applying them only
              when given explicitly)
  gapart-cli eval GRAPH.metis LABELS.part --parts P [--coords G.xy]
             [--svg view.svg]
  gapart-cli grow GRAPH.metis --coords G.xy --add K [--seed S]
             --out grown.metis [--coords-out grown.xy]
             [--repartition P] [--old-labels labels.part]
  gapart-cli trace GRAPH.metis --scenario mesh-growth|churn|hotspot
             --batches B --ops N [--seed S] [--coords G.xy]
             --out trace.txt
             (mesh-growth needs --coords; ops is mutations per batch)
  gapart-cli stream GRAPH.metis --trace trace.txt --parts P
             [--coords G.xy] [--method mlga|mldpga|mlrsb|...]
             [--threshold 1.5] [--hops 2] [--seed S]
             [--labels-out labels.part] [--graph-out final.metis]
             [--coords-out final.xy]
             (replays the trace through a dynamic session: new nodes are
              seeded per §3.5, refinement stays on the dirty frontier,
              and the cut degrading past --threshold × the epoch's
              baseline escalates to a full --method repartition)
  gapart-cli serve --tape-dir DIR [--socket PATH] [--snapshot-every N]
             (long-running daemon holding many named dynamic sessions;
              newline-delimited commands on stdin — or on a Unix socket
              with --socket — one `ok`/`err` reply line per command:
                open NAME graph=G.metis parts=P [coords=G.xy]
                          [method=..] [seed=..] [threshold=..]
                          [hops=..]
                open NAME                  # recover from DIR/NAME.tape
                mutate NAME node W | edge U V W | weight N W
                commit NAME | query NAME | snapshot NAME
                replay NAME trace=T [from=B]
                close NAME | sessions | shutdown
              every session appends to a durable tape in DIR with a
              snapshot every N batches (default 8); after a crash,
              `open NAME` replays the tail and lands on a labelling
              bit-identical to the uninterrupted run)
";

/// Executes a parsed command, returning the text to print.
///
/// The global `--threads N` flag bounds the worker pool every parallel
/// phase (coarsening's handshake scan and contraction, the GA's
/// population evaluation, the DPGA islands) runs under; FM refinement is
/// sequential. `0` or absent means one worker per hardware core. Results are bit-identical
/// for any thread count — the flag trades wall time, never output.
pub fn run(args: &Args) -> Result<String, CliError> {
    let threads: usize = args.flag_parse("threads", 0usize)?;
    if threads == 0 {
        return dispatch(args);
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| CliError::Failed(format!("thread pool: {e}")))?;
    pool.install(|| dispatch(args))
}

/// Subcommand dispatch, running inside the pool [`run`] installed.
fn dispatch(args: &Args) -> Result<String, CliError> {
    let Some(cmd) = args.positional.first() else {
        return Err(CliError::Usage("no subcommand given".into()));
    };
    match cmd.as_str() {
        "gen" => cmd_gen(args),
        "info" => cmd_info(args),
        "partition" => cmd_partition(args),
        "eval" => cmd_eval(args),
        "grow" => cmd_grow(args),
        "trace" => cmd_trace(args),
        "stream" => cmd_stream(args),
        "serve" => cmd_serve(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
    }
}

fn load_graph(path: &str, coords_path: Option<&str>) -> Result<CsrGraph, CliError> {
    let text = std::fs::read_to_string(path)?;
    let mut g = from_metis(&text).map_err(|e| CliError::Failed(format!("{path}: {e}")))?;
    if let Some(cp) = coords_path {
        let ctext = std::fs::read_to_string(cp)?;
        let coords =
            coords_from_text(&ctext).map_err(|e| CliError::Failed(format!("{cp}: {e}")))?;
        g = attach_coords(&g, coords).map_err(|e| CliError::Failed(format!("{cp}: {e}")))?;
    }
    Ok(g)
}

fn save_labels(path: &str, p: &Partition) -> Result<(), CliError> {
    let mut out = String::with_capacity(p.num_nodes() * 2);
    for &l in p.labels() {
        let _ = writeln!(out, "{l}");
    }
    std::fs::write(path, out)?;
    Ok(())
}

/// Parses a partition file: one label per line, `%` comments allowed.
pub fn labels_from_text(text: &str, num_parts: u32) -> Result<Partition, CliError> {
    let mut labels = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let l: u32 = line
            .parse()
            .map_err(|_| CliError::Failed(format!("line {}: bad label '{line}'", i + 1)))?;
        labels.push(l);
    }
    Partition::new(labels, num_parts).map_err(|e| CliError::Failed(e.to_string()))
}

/// Checks the `--refine` flag. Boundary FM is the only refiner, so the
/// flag accepts only `fm`, which changes nothing; any other engine name
/// is a usage error.
fn check_refine(args: &Args) -> Result<(), CliError> {
    match args.flag("refine") {
        None | Some("fm") => Ok(()),
        Some(s) => Err(CliError::Usage(format!("--refine {s}: expected fm"))),
    }
}

fn cmd_gen(args: &Args) -> Result<String, CliError> {
    let kind = args.require("kind")?;
    let n: usize = args.flag_parse("nodes", 0)?;
    if n == 0 {
        return Err(CliError::Usage("--nodes must be positive".into()));
    }
    let seed = args.seed(42)?;
    let graph = match kind {
        "mesh" => jittered_mesh(n, seed),
        "grid" => {
            let side = (n as f64).sqrt().round() as usize;
            grid2d(side.max(1), side.max(1), GridKind::Triangulated)
        }
        "geometric" => {
            let radius: f64 = args.flag_parse("radius", 1.5 / (n as f64).sqrt())?;
            random_geometric(n, radius, seed)
        }
        "gnp" => {
            let p: f64 = args.flag_parse("p", 0.05)?;
            gnp(n, p, seed)
        }
        other => {
            return Err(CliError::Usage(format!(
                "--kind {other}: expected mesh|grid|geometric|gnp"
            )))
        }
    };
    let out = args.require("out")?;
    std::fs::write(out, to_metis(&graph))?;
    let mut report = format!(
        "wrote {out}: {} nodes, {} edges\n",
        graph.num_nodes(),
        graph.num_edges()
    );
    if let Some(coords_out) = args.flag("coords-out") {
        match graph.coords() {
            Some(c) => {
                std::fs::write(coords_out, coords_to_text(c))?;
                let _ = writeln!(report, "wrote {coords_out}: {} coordinates", c.len());
            }
            None => {
                let _ = writeln!(
                    report,
                    "note: {kind} graphs have no coordinates; skipped {coords_out}"
                );
            }
        }
    }
    Ok(report)
}

fn cmd_info(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::Usage("info needs a graph file".into()))?;
    let g = load_graph(path, args.flag("coords"))?;
    let (_, components) = crate::graph::traversal::connected_components(&g);
    let mut out = String::new();
    let _ = writeln!(out, "file        : {path}");
    let _ = writeln!(out, "nodes       : {}", g.num_nodes());
    let _ = writeln!(out, "edges       : {}", g.num_edges());
    let _ = writeln!(out, "avg degree  : {:.2}", g.avg_degree());
    let _ = writeln!(out, "max degree  : {}", g.max_degree());
    let _ = writeln!(out, "components  : {components}");
    let _ = writeln!(out, "total weight: {}", g.total_node_weight());
    let _ = writeln!(
        out,
        "coordinates : {}",
        if g.coords().is_some() { "yes" } else { "no" }
    );
    Ok(out)
}

fn cmd_partition(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::Usage("partition needs a graph file".into()))?;
    let parts: u32 = args.flag_parse("parts", 0u32)?;
    if parts == 0 {
        return Err(CliError::Usage("--parts must be positive".into()));
    }
    let graph = load_graph(path, args.flag("coords"))?;
    let method = args.flag("method").unwrap_or("dpga");
    let fitness = match args.flag("fitness").unwrap_or("total") {
        "total" => FitnessKind::TotalCut,
        "worst" => FitnessKind::WorstCut,
        other => {
            return Err(CliError::Usage(format!(
                "--fitness {other}: expected total|worst"
            )))
        }
    };
    let gens: usize = args.flag_parse("gens", 150usize)?;
    let pop: usize = args.flag_parse("pop", 320usize)?;
    let seed = args.seed(0x5343_3934)?;
    check_refine(args)?;
    // `--refine` names the V-cycle's per-level refinement; flat methods
    // have no refinement stage, so silently accepting the flag there
    // would misreport what ran.
    if args.flag("refine").is_some() && !method.starts_with("ml") {
        return Err(CliError::Usage(format!(
            "--refine applies only to the multilevel (ml*) methods, not {method}"
        )));
    }

    // Every method goes through the one `Partitioner` abstraction; the
    // match only configures which implementation (and with what budget).
    // The multilevel GA methods honour --fitness like their flat twins
    // but use the coarse-level sizing — the V-cycle, not --gens/--pop,
    // sets their budget.
    let partitioner: Box<dyn Partitioner> = match method {
        "rsb" | "ibp" | "mlrsb" | "mlibp" => crate::partitioners::by_name(method)
            .ok_or_else(|| CliError::Failed(format!("method {method} is not registered")))?,
        "mlga" => {
            let mut config = GaConfig::coarse_defaults(parts).with_fitness(fitness);
            // Coarse-level sizing is the default, but an explicit budget
            // request wins — silently discarding a flag would be worse.
            if args.flag("pop").is_some() {
                config.population_size = pop;
            }
            if args.flag("gens").is_some() {
                config.generations = gens;
            }
            let inner = Box::new(GaPartitioner::new(config));
            Box::new(MultilevelPartitioner::new("mlga", inner))
        }
        "mldpga" => {
            let mut cfg = DpgaConfig::coarse(parts);
            cfg.base = cfg.base.with_fitness(fitness);
            if args.flag("pop").is_some() {
                cfg.base.population_size = pop;
            }
            if args.flag("gens").is_some() {
                cfg.base.generations = gens;
            }
            let inner = Box::new(DpgaPartitioner::new(cfg));
            Box::new(MultilevelPartitioner::new("mldpga", inner))
        }
        "ga" => {
            let mut config = GaConfig::paper_defaults(parts)
                .with_fitness(fitness)
                .with_population_size(pop)
                .with_generations(gens)
                .with_hill_climb(HillClimbMode::Offspring { passes: 1 });
            config.boundary_mutation_rate = 0.05;
            config.crossover = CrossoverOp::Dknux;
            Box::new(GaPartitioner::new(config))
        }
        "dpga" => {
            let mut base = GaConfig::paper_defaults(parts)
                .with_fitness(fitness)
                .with_population_size(pop)
                .with_generations(gens)
                .with_hill_climb(HillClimbMode::Offspring { passes: 1 });
            base.boundary_mutation_rate = 0.05;
            let config = DpgaConfig::paper(parts).with_base(base);
            Box::new(DpgaPartitioner::new(config))
        }
        other => {
            return Err(CliError::Usage(format!(
                "--method {other}: expected dpga|ga|rsb|ibp|mldpga|mlga|mlrsb|mlibp"
            )))
        }
    };
    let report = partitioner
        .partition(&graph, parts, seed)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let partition = report.partition;

    let mut out = render_report(&report.metrics, partition.num_parts(), method);
    if let Some(out_path) = args.flag("out") {
        save_labels(out_path, &partition)?;
        let _ = writeln!(out, "labels written to {out_path}");
    }
    if let Some(svg_path) = args.flag("svg") {
        save_svg(svg_path, &graph, &partition)?;
        let _ = writeln!(out, "svg written to {svg_path}");
    }
    Ok(out)
}

fn save_svg(path: &str, graph: &CsrGraph, partition: &Partition) -> Result<(), CliError> {
    let svg = crate::graph::svg::render_partition(graph, partition)
        .map_err(|e| CliError::Failed(format!("svg: {e} (pass --coords for METIS inputs)")))?;
    std::fs::write(path, svg)?;
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<String, CliError> {
    let gpath = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::Usage("eval needs a graph file".into()))?;
    let lpath = args
        .positional
        .get(2)
        .ok_or_else(|| CliError::Usage("eval needs a labels file".into()))?;
    let parts: u32 = args.flag_parse("parts", 0u32)?;
    if parts == 0 {
        return Err(CliError::Usage("--parts must be positive".into()));
    }
    let graph = load_graph(gpath, args.flag("coords"))?;
    let ltext = std::fs::read_to_string(lpath)?;
    let partition = labels_from_text(&ltext, parts)?;
    if partition.num_nodes() != graph.num_nodes() {
        return Err(CliError::Failed(format!(
            "{lpath}: {} labels for {} nodes",
            partition.num_nodes(),
            graph.num_nodes()
        )));
    }
    let mut out = render_metrics(&graph, &partition, "eval");
    if let Some(svg_path) = args.flag("svg") {
        save_svg(svg_path, &graph, &partition)?;
        let _ = writeln!(out, "svg written to {svg_path}");
    }
    Ok(out)
}

fn cmd_grow(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::Usage("grow needs a graph file".into()))?;
    let coords = args.require("coords")?;
    let k: usize = args.flag_parse("add", 0usize)?;
    let seed = args.seed(7)?;
    let graph = load_graph(path, Some(coords))?;
    let result = grow_local(&graph, k, seed).map_err(|e| CliError::Failed(e.to_string()))?;

    let out = args.require("out")?;
    std::fs::write(out, to_metis(&result.graph))?;
    let mut report = format!(
        "grew {} -> {} nodes (anchor {}), wrote {out}\n",
        graph.num_nodes(),
        result.graph.num_nodes(),
        result.anchor
    );
    if let Some(co) = args.flag("coords-out") {
        let coords = result.graph.coords().ok_or_else(|| {
            CliError::Failed("grown graph carries no coordinates; cannot write --coords-out".into())
        })?;
        std::fs::write(co, coords_to_text(coords))?;
        let _ = writeln!(report, "coordinates written to {co}");
    }

    // Optional: incrementally repartition the grown graph.
    if let Some(p) = args.flag("repartition") {
        let parts: u32 = p
            .parse()
            .map_err(|_| CliError::Usage(format!("--repartition {p}: bad part count")))?;
        let old = match args.flag("old-labels") {
            Some(lp) => {
                let text = std::fs::read_to_string(lp)?;
                labels_from_text(&text, parts)?
            }
            None => rsb_partition(&graph, parts, DEFAULT_SEED)
                .map_err(|e| CliError::Failed(e.to_string()))?,
        };
        let config = GaConfig::paper_defaults(parts)
            .with_generations(args.flag_parse("gens", 120usize)?)
            .with_population_size(args.flag_parse("pop", 160usize)?)
            .with_seed(seed);
        let res = incremental_ga(&result.graph, &old, config)
            .map_err(|e| CliError::Failed(e.to_string()))?;
        report.push_str(&render_metrics(
            &result.graph,
            &res.best_partition,
            "incremental-ga",
        ));
        if let Some(out_labels) = args.flag("labels-out") {
            save_labels(out_labels, &res.best_partition)?;
            let _ = writeln!(report, "new labels written to {out_labels}");
        }
    }
    Ok(report)
}

fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::Usage("trace needs a graph file".into()))?;
    let scenario_name = args.require("scenario")?;
    let scenario = Scenario::by_name(scenario_name).ok_or_else(|| {
        CliError::Usage(format!(
            "--scenario {scenario_name}: expected {}",
            Scenario::NAMES.join("|")
        ))
    })?;
    let batches: usize = args.flag_parse("batches", 10usize)?;
    let ops: usize = args.flag_parse("ops", 20usize)?;
    if batches == 0 || ops == 0 {
        return Err(CliError::Usage(
            "--batches and --ops must be positive".into(),
        ));
    }
    let seed = args.seed(7)?;
    let graph = load_graph(path, args.flag("coords"))?;
    let trace = generate_trace(
        &graph,
        scenario,
        &TraceSpec {
            batches,
            ops_per_batch: ops,
            seed,
        },
    )
    .map_err(|e| CliError::Failed(e.to_string()))?;
    let out = args.require("out")?;
    std::fs::write(out, trace_to_text(&trace))?;
    let mutations: usize = trace.iter().map(Vec::len).sum();
    Ok(format!(
        "wrote {out}: {} {} batches, {mutations} mutations\n",
        trace.len(),
        scenario.name()
    ))
}

/// Builds a [`SessionSpec`] from the `--parts/--method/--refine/--seed/
/// --threshold/--hops` flags. The flag names ARE the spec keys, and the
/// values go through [`SessionSpec::set`] — the same validation path the
/// serve protocol's `open` command and the session tape use, so every
/// surface accepts and rejects identically.
fn spec_from_flags(args: &Args) -> Result<SessionSpec, CliError> {
    let mut spec = SessionSpec::new(0);
    let mut saw_parts = false;
    for key in ["parts", "method", "refine", "seed", "threshold", "hops"] {
        if let Some(v) = args.flag(key) {
            spec.set(key, v)
                .map_err(|e| CliError::Usage(format!("--{key} {v}: {e}")))?;
            saw_parts |= key == "parts";
        }
    }
    if !saw_parts {
        return Err(CliError::Usage("--parts must be set".into()));
    }
    Ok(spec)
}

/// Maps a session-open failure to the CLI's exit discipline: an unknown
/// method is a usage error (the user typed it), everything else failed
/// work.
fn open_error(e: DynamicError) -> CliError {
    match e {
        DynamicError::UnknownMethod(m) => CliError::Usage(format!(
            "--method {m}: expected one of {}",
            crate::partitioners::NAMES.join("|")
        )),
        other => CliError::Failed(other.to_string()),
    }
}

fn cmd_stream(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| CliError::Usage("stream needs a graph file".into()))?;
    let spec = spec_from_flags(args)?;
    let trace_path = args.require("trace")?;

    let graph = load_graph(path, args.flag("coords"))?;
    let trace_text = std::fs::read_to_string(trace_path)?;
    let trace =
        parse_trace(&trace_text).map_err(|e| CliError::Failed(format!("{trace_path}: {e}")))?;
    let mut session = spec
        .open(graph, crate::partitioners::by_name)
        .map_err(open_error)?;

    let mut out = format!(
        "opened session: {} nodes, {} parts, method {}, baseline cut {}\n",
        session.graph().num_nodes(),
        spec.parts,
        spec.method,
        session.state().baseline_cut
    );
    let _ = writeln!(
        out,
        "{:>5} {:>6} {:>9} {:>9} {:>8} {:>7} {:>6}  action",
        "batch", "muts", "frontier", "cut-seed", "cut", "moves", "epoch"
    );
    let mut escalations = 0usize;
    for batch in &trace {
        let rec = session
            .apply_batch(batch)
            .map_err(|e| CliError::Failed(e.to_string()))?;
        let action = match rec.action {
            BatchAction::Incremental => "incremental",
            BatchAction::FullRepartition => {
                escalations += 1;
                "FULL"
            }
        };
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>9} {:>9} {:>8} {:>7} {:>6}  {action}",
            rec.batch,
            rec.mutations,
            rec.frontier,
            rec.cut_seeded,
            rec.cut_after,
            rec.refine.moves,
            rec.epoch,
        );
    }
    let _ = writeln!(
        out,
        "replayed {} batches: {escalations} escalation(s), final graph {} nodes",
        trace.len(),
        session.graph().num_nodes()
    );
    out.push_str(&render_metrics(
        session.graph(),
        session.partition(),
        &format!("stream/{}", spec.method),
    ));
    // The determinism witness: the same hash `serve`'s query/replay
    // paths report, so CI can diff live and recovered runs directly.
    let _ = writeln!(
        out,
        "labels hash: {}",
        hash_labels(session.partition().labels())
    );
    if let Some(lp) = args.flag("labels-out") {
        save_labels(lp, session.partition())?;
        let _ = writeln!(out, "labels written to {lp}");
    }
    if let Some(gp) = args.flag("graph-out") {
        std::fs::write(gp, to_metis(session.graph()))?;
        let _ = writeln!(out, "final graph written to {gp}");
    }
    if let Some(cp) = args.flag("coords-out") {
        let coords = session.graph().coords().ok_or_else(|| {
            CliError::Failed(
                "streamed graph carries no coordinates; cannot write --coords-out".into(),
            )
        })?;
        std::fs::write(cp, coords_to_text(coords))?;
        let _ = writeln!(out, "coordinates written to {cp}");
    }
    Ok(out)
}

/// `gapart-cli serve`: the multi-session partition daemon. Commands
/// come from stdin (or a Unix socket with `--socket`); replies go to
/// stdout, one line each, flushed per command. Session tapes live under
/// `--tape-dir`, one `<name>.tape` per session, so a later `serve` run
/// recovers any session by name with a bare `open <name>`.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let tape_dir = args.require("tape-dir")?;
    let snapshot_every: usize = args.flag_parse("snapshot-every", 8usize)?;
    let config = crate::serve::ServeConfig {
        tape_dir: tape_dir.into(),
        snapshot_every,
    };
    let mut daemon = crate::serve::Daemon::new(config, crate::partitioners::by_name)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let summary = match args.flag("socket") {
        Some(path) => crate::serve::serve_unix(&mut daemon, std::path::Path::new(path))
            .map_err(|e| CliError::Failed(e.to_string()))?,
        None => {
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            crate::serve::serve(&mut daemon, stdin.lock(), &mut stdout)?
        }
    };
    // EOF without a shutdown command still ends the process: leave every
    // tape with a final snapshot so the next open recovers instantly.
    daemon
        .close_all()
        .map_err(|e| CliError::Failed(e.to_string()))?;
    if summary.errors > 0 {
        return Err(CliError::Failed(format!(
            "{} of {} commands failed (see err replies above)",
            summary.errors, summary.commands
        )));
    }
    Ok(format!(
        "served {} commands ({})\n",
        summary.commands,
        if summary.shutdown { "shutdown" } else { "eof" }
    ))
}

fn render_metrics(graph: &CsrGraph, partition: &Partition, method: &str) -> String {
    let m = PartitionMetrics::compute(graph, partition);
    render_report(&m, partition.num_parts(), method)
}

fn render_report(m: &PartitionMetrics, num_parts: u32, method: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "method     : {method}");
    let _ = writeln!(out, "parts      : {num_parts}");
    let _ = writeln!(out, "total cut  : {}", m.total_cut);
    let _ = writeln!(out, "worst cut  : {}", m.max_cut);
    let _ = writeln!(out, "imbalance  : {:.2}", m.imbalance);
    let _ = writeln!(out, "part loads : {:?}", m.part_loads);
    let _ = writeln!(out, "part cuts  : {:?}", m.part_cuts);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Args {
        parse_args(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn parser_splits_flags_and_positionals() {
        let a = argv("partition g.metis --parts 4 --method rsb");
        assert_eq!(a.positional, vec!["partition", "g.metis"]);
        assert_eq!(a.flag("parts"), Some("4"));
        assert_eq!(a.flag("method"), Some("rsb"));
    }

    #[test]
    fn parser_rejects_missing_value() {
        let err = parse_args(["gen".into(), "--kind".into()]).unwrap_err();
        assert!(err.to_string().contains("--kind"));
    }

    #[test]
    fn parser_rejects_duplicate_flags() {
        let err = parse_args("x --a 1 --a 2".split_whitespace().map(String::from)).unwrap_err();
        assert!(err.to_string().contains("twice"));
    }

    #[test]
    fn unknown_subcommand_is_usage_error() {
        let err = run(&argv("frobnicate")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv("help")).unwrap();
        assert!(out.contains("gapart-cli"));
        assert!(out.contains("partition"));
    }

    #[test]
    fn threads_flag_is_validated_and_installs_a_pool() {
        let err = run(&argv("help --threads nope")).unwrap_err();
        assert!(err.to_string().contains("--threads"));
        // A bounded pool wraps the whole dispatch.
        let out = run(&argv("help --threads 2")).unwrap();
        assert!(out.contains("--threads"), "usage must document the flag");
    }

    #[test]
    fn labels_parse_and_validate() {
        let p = labels_from_text("0\n1\n% comment\n2\n", 3).unwrap();
        assert_eq!(p.labels(), &[0, 1, 2]);
        assert!(labels_from_text("0\n7\n", 3).is_err());
        assert!(labels_from_text("zebra\n", 3).is_err());
    }

    #[test]
    fn end_to_end_gen_info_partition_eval() {
        let dir = std::env::temp_dir().join(format!("gapart-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.metis");
        let xy = dir.join("g.xy");
        let labels = dir.join("g.part");
        let gs = g.to_str().unwrap();
        let xys = xy.to_str().unwrap();
        let ls = labels.to_str().unwrap();

        // gen
        let out = run(&argv(&format!(
            "gen --kind mesh --nodes 60 --seed 5 --out {gs} --coords-out {xys}"
        )))
        .unwrap();
        assert!(out.contains("60 nodes"));

        // info
        let out = run(&argv(&format!("info {gs}"))).unwrap();
        assert!(out.contains("nodes       : 60"));
        assert!(out.contains("components  : 1"));

        // partition with RSB (fast, deterministic), with an SVG view
        let svg = dir.join("g.svg");
        let out = run(&argv(&format!(
            "partition {gs} --parts 4 --method rsb --coords {xys} --out {ls} --svg {}",
            svg.to_str().unwrap()
        )))
        .unwrap();
        assert!(out.contains("total cut"));
        assert!(out.contains("svg written"));
        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.starts_with("<svg"));
        assert_eq!(svg_text.matches("<circle").count(), 60);

        // eval the written labels
        let out = run(&argv(&format!("eval {gs} {ls} --parts 4"))).unwrap();
        assert!(out.contains("part loads"));

        // ibp needs coordinates
        let out = run(&argv(&format!(
            "partition {gs} --parts 4 --method ibp --coords {xys}"
        )))
        .unwrap();
        assert!(out.contains("method     : ibp"));

        // grow
        let g2 = dir.join("g2.metis");
        let xy2 = dir.join("g2.xy");
        let out = run(&argv(&format!(
            "grow {gs} --coords {xys} --add 10 --out {} --coords-out {}",
            g2.to_str().unwrap(),
            xy2.to_str().unwrap()
        )))
        .unwrap();
        assert!(out.contains("60 -> 70 nodes"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_trace_and_stream() {
        let dir = std::env::temp_dir().join(format!("gapart-cli-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.metis");
        let xy = dir.join("g.xy");
        let trace = dir.join("churn.trace");
        let labels = dir.join("final.part");
        let g2 = dir.join("final.metis");
        let (gs, xys) = (g.to_str().unwrap(), xy.to_str().unwrap());
        let (ts, ls, g2s) = (
            trace.to_str().unwrap(),
            labels.to_str().unwrap(),
            g2.to_str().unwrap(),
        );

        run(&argv(&format!(
            "gen --kind mesh --nodes 120 --seed 3 --out {gs} --coords-out {xys}"
        )))
        .unwrap();

        // Generate a churn trace...
        let out = run(&argv(&format!(
            "trace {gs} --scenario churn --batches 3 --ops 6 --seed 9 --coords {xys} --out {ts}"
        )))
        .unwrap();
        assert!(out.contains("3 churn batches"), "{out}");

        // ...and replay it with a fast deterministic escalation method.
        let out = run(&argv(&format!(
            "stream {gs} --coords {xys} --trace {ts} --parts 4 --method mlrsb \
             --threshold 1.3 --labels-out {ls} --graph-out {g2s}"
        )))
        .unwrap();
        assert!(out.contains("replayed 3 batches"), "{out}");
        assert!(out.contains("stream/mlrsb"), "{out}");
        assert!(out.contains("labels written"), "{out}");

        // The written labels must cover the *final* (churned) graph.
        let final_nodes = std::fs::read_to_string(&g2)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse::<usize>()
            .unwrap();
        let label_count = std::fs::read_to_string(&labels).unwrap().lines().count();
        assert_eq!(label_count, final_nodes);
        assert!(final_nodes > 120, "churn should have grown the graph");

        // Streaming is deterministic: a second replay writes identical labels.
        let first = std::fs::read_to_string(&labels).unwrap();
        run(&argv(&format!(
            "stream {gs} --coords {xys} --trace {ts} --parts 4 --method mlrsb \
             --threshold 1.3 --labels-out {ls}"
        )))
        .unwrap();
        assert_eq!(first, std::fs::read_to_string(&labels).unwrap());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_seed_flag_reads_hex_like_a_session_spec() {
        let dir = std::env::temp_dir().join(format!("gapart-cli-seed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (g, xy, t, out) = (path("g.metis"), path("g.xy"), path("g.trace"), path("out"));
        run(&argv(&format!(
            "gen --kind mesh --nodes 80 --seed 3 --out {g} --coords-out {xy}"
        )))
        .unwrap();
        run(&argv(&format!(
            "trace {g} --coords {xy} --scenario churn --batches 2 --ops 5 --out {t}"
        )))
        .unwrap();
        for cmd in [
            format!("gen --kind gnp --nodes 50 --out {out}"),
            format!("partition {g} --parts 4 --method ga --gens 3 --pop 16 --out {out}"),
            format!("grow {g} --coords {xy} --add 9 --out {out}"),
            format!(
                "trace {g} --coords {xy} --scenario mesh-growth --batches 2 --ops 4 --out {out}"
            ),
            format!("stream {g} --coords {xy} --trace {t} --parts 4 --labels-out {out}"),
        ] {
            let with = |seed: &str| {
                let report = run(&argv(&format!("{cmd} --seed {seed}"))).unwrap();
                (report, std::fs::read(&out).unwrap())
            };
            assert_eq!(with("0x2a"), with("42"), "{cmd}");
            assert_ne!(with("0X2A"), with("43"), "{cmd}");
            let err = run(&argv(&format!("{cmd} --seed zz"))).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{cmd}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_and_stream_failures_are_typed_errors_not_panics() {
        let dir = std::env::temp_dir().join(format!("gapart-cli-stream2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.metis");
        let gs = g.to_str().unwrap();
        run(&argv(&format!("gen --kind gnp --nodes 30 --out {gs}"))).unwrap();

        // Unknown scenario: usage error.
        let err = run(&argv(&format!(
            "trace {gs} --scenario lava --batches 2 --ops 2 --out /tmp/x"
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");

        // mesh-growth on a coordinate-less graph: clean failure.
        let err = run(&argv(&format!(
            "trace {gs} --scenario mesh-growth --batches 2 --ops 2 --out /tmp/x"
        )))
        .unwrap_err();
        assert!(err.to_string().contains("coordinates"), "{err}");

        // Unknown stream method: usage error listing the registry.
        let trace = dir.join("t.trace");
        std::fs::write(&trace, "weight 0 2\ncommit\n").unwrap();
        let err = run(&argv(&format!(
            "stream {gs} --trace {} --parts 2 --method frob",
            trace.to_str().unwrap()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("mlga"), "{err}");

        // Malformed trace: failure naming the file and line.
        std::fs::write(&trace, "edge 0 1 1\nzap\n").unwrap();
        let err = run(&argv(&format!(
            "stream {gs} --trace {} --parts 2",
            trace.to_str().unwrap()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");

        // Structurally invalid trace (node out of range): failure, not panic.
        std::fs::write(&trace, "edge 0 999 1\ncommit\n").unwrap();
        let err = run(&argv(&format!(
            "stream {gs} --trace {} --parts 2",
            trace.to_str().unwrap()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");

        // grow without --coords: usage error (the old panic-adjacent path).
        let err = run(&argv(&format!("grow {gs} --add 5 --out /tmp/x"))).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eval_rejects_wrong_label_count() {
        let dir = std::env::temp_dir().join(format!("gapart-cli-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.metis");
        let l = dir.join("bad.part");
        run(&argv(&format!(
            "gen --kind mesh --nodes 20 --out {}",
            g.to_str().unwrap()
        )))
        .unwrap();
        std::fs::write(&l, "0\n1\n").unwrap();
        let err = run(&argv(&format!(
            "eval {} {} --parts 2",
            g.to_str().unwrap(),
            l.to_str().unwrap()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("labels for"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refine_flag_selects_the_engine_and_rejects_misuse() {
        let dir = std::env::temp_dir().join(format!("gapart-cli-refine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.metis");
        let gs = g.to_str().unwrap();
        run(&argv(&format!(
            "gen --kind mesh --nodes 80 --seed 2 --out {gs}"
        )))
        .unwrap();

        // The default (no flag) equals --refine fm bit for bit.
        let labels = dir.join("a.part");
        let ls = labels.to_str().unwrap();
        run(&argv(&format!(
            "partition {gs} --parts 4 --method mlrsb --out {ls}"
        )))
        .unwrap();
        let default_labels = std::fs::read_to_string(&labels).unwrap();
        run(&argv(&format!(
            "partition {gs} --parts 4 --method mlrsb --refine fm --out {ls}"
        )))
        .unwrap();
        assert_eq!(default_labels, std::fs::read_to_string(&labels).unwrap());

        // Unknown and retired engines and flat-method misuse are usage
        // errors.
        for scheme in ["turbo", "sweep", "pfm"] {
            let err = run(&argv(&format!(
                "partition {gs} --parts 4 --method mlrsb --refine {scheme}"
            )))
            .unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{scheme}: {err}");
        }
        let err = run(&argv(&format!(
            "partition {gs} --parts 4 --method rsb --refine fm"
        )))
        .unwrap_err();
        assert!(err.to_string().contains("ml*"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_rejects_bad_kind_and_missing_nodes() {
        assert!(run(&argv("gen --kind blob --nodes 5 --out /tmp/x")).is_err());
        assert!(run(&argv("gen --kind mesh --out /tmp/x")).is_err());
    }
}
