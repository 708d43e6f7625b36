//! The gapart benchmark: three workloads driven in-process through the
//! entry points the CLI and the daemon use, each in its own process under
//! an explicit pool of `available_parallelism` threads.
//!
//! ```text
//! perfbench --workload grid-1m|paper-dpga|serve-growth
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing at all.
//! `--trace 1` alternates untraced and traced passes and reports the
//! per-layer metrics, the tracing overhead and the share of request time
//! the layer spans cover. Every line but the last is for people; the last
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/README.md` for why each workload exists.

mod dpga;
mod grid;
mod inputs;
mod serve;
mod stats;
mod trace;
mod vcycle;

use gapart::graph::{CsrGraph, PartitionReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workload seed when `--seed` is absent ("SC94", the repository's
/// default seed).
const DEFAULT_SEED: u64 = 0x5343_3934;

const WORKLOADS: [&str; 3] = ["grid-1m", "paper-dpga", "serve-growth"];

/// End-to-end metrics: every workload reports every one, untraced.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("request_ms_p50", "ms"),
    ("cut", "weight"),
    ("imbalance", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload never calls
/// reports 0: it did no work there.
const PER_LAYER: [(&str, &str); 31] = [
    ("io.parse_s", "s"),
    ("io.bytes", "bytes"),
    ("coarsen.s", "s"),
    ("coarsen.levels", "count"),
    ("coarsen.coarsest_nodes", "count"),
    ("coarsen.project_s", "s"),
    ("engine.s", "s"),
    ("engine.generations", "count"),
    ("engine.converged_gen", "count"),
    ("fm.s", "s"),
    ("fm.moves", "count"),
    ("fm.gain", "weight"),
    ("dpga.init_s", "s"),
    ("dpga.run_s", "s"),
    ("dpga.generations", "count"),
    ("dpga.converged_gen", "count"),
    ("protocol.s", "s"),
    ("dynamic.apply_s", "s"),
    ("dynamic.rebuild_s", "s"),
    ("dynamic.frontier_nodes", "count"),
    ("dynamic.moves", "count"),
    ("dynamic.escalations", "count"),
    ("tape.batch_s", "s"),
    ("tape.snapshot_s", "s"),
    ("tape.bytes", "bytes"),
    ("tape.read_s", "s"),
    ("serve.commit_ms_p99", "ms"),
    ("serve.recover_s", "s"),
    ("serve.disk_mb", "MB"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// What every workload gets.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    pub trace: bool,
    /// This run's private directory: inputs, tapes.
    pub dir: PathBuf,
}

impl Ctx {
    /// Whether another unit of work as long as the last one (`last`
    /// seconds) still ends inside the measured phase begun at `start`. A
    /// run always does at least one unit and never starts one it cannot
    /// finish in time, so its length stays close to `seconds`.
    pub fn fits(&self, start: Instant, last: f64) -> bool {
        start.elapsed().as_secs_f64() + last <= self.seconds.as_secs_f64()
    }
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// The traced passes, written out after the run.
    pub tracers: Vec<trace::Tracer>,
    /// A traced re-composition diverged from the untraced run, so its
    /// layer numbers would describe a computation the program never made.
    withheld: bool,
}

impl Outcome {
    /// Records one operation; a failed check makes it a failed one.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = result {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(problem);
            }
        }
    }

    /// Reports a diverged re-composition and withholds the layer numbers.
    pub fn withhold(&mut self, problem: String) {
        self.withheld = true;
        self.op(Err(format!("per-layer numbers withheld: {problem}")));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Prints the quartiles of a run's samples, for people reading the run.
pub fn show_quartiles(label: &str, values: &[f64]) {
    if let Some((q1, q2, q3)) = stats::quartiles(values) {
        println!("{label} n={} q1={q1} median={q2} q3={q3}", values.len());
    }
}

/// Median of `values`; workloads call it only on non-empty samples.
pub fn median(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(f64::NAN)
}

/// One hash standing for several labels hashes, in order.
pub fn combined_hash<'a>(hashes: impl IntoIterator<Item = &'a str>) -> String {
    let bytes: Vec<u32> = hashes
        .into_iter()
        .flat_map(|h| h.bytes().map(u32::from))
        .collect();
    gapart::graph::partition::hash_labels(&bytes)
}

/// `max_load / ideal_load`.
pub fn imbalance_ratio(part_loads: &[u64]) -> f64 {
    let total: u64 = part_loads.iter().sum();
    let max = part_loads.iter().copied().max().unwrap_or(0);
    if total == 0 {
        return 1.0;
    }
    max as f64 * part_loads.len() as f64 / total as f64
}

/// The output check every solve passes: the labels cover the graph with
/// in-range parts, and the cut and loads recomputed with
/// `PartitionMetrics::compute` equal what the entry point reported.
pub fn check_report(graph: &CsrGraph, parts: u32, report: &PartitionReport) -> Result<(), String> {
    let p = &report.partition;
    if p.num_nodes() != graph.num_nodes() || p.num_parts() != parts {
        return Err(format!(
            "labels cover {} nodes in {} parts, expected {} in {parts}",
            p.num_nodes(),
            p.num_parts(),
            graph.num_nodes()
        ));
    }
    if let Some(bad) = p.labels().iter().find(|&&l| l >= parts) {
        return Err(format!("label {bad} out of range"));
    }
    let recomputed = gapart::graph::PartitionMetrics::compute(graph, p);
    if recomputed != report.metrics {
        return Err(format!(
            "reported cut {} / loads {:?}, recomputed cut {} / loads {:?}",
            report.metrics.total_cut,
            report.metrics.part_loads,
            recomputed.total_cut,
            recomputed.part_loads
        ));
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Filesystem type of `path`, from the longest matching mount point.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: write the inputs into this directory and exit.
    gen_dir: Option<PathBuf>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
        gen_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_seed(&value).ok_or(format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or(format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}: expected 0 or 1")),
                }
            }
            "--gen" => args.gen_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Removes the run directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes the inputs in a child process, so that this process's peak RSS
/// covers only the workload.
fn generate_inputs(args: &Args, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--gen")
        .arg(dir)
        .status()
        .map_err(|e| format!("input generator: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("input generator failed: {status}"))
    }
}

fn run(args: &Args) -> Result<(Outcome, String), String> {
    let root = PathBuf::from(".bench_work");
    let dir = root.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let guard = RunDir(dir.clone());
    generate_inputs(args, &dir)?;

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| e.to_string())?;
    let info = format!(
        "info workload={} seed={} nproc={threads} pool={} run_seconds={} trace={} \
         tape_fs={}",
        args.workload,
        args.seed,
        pool.current_num_threads(),
        args.seconds,
        u8::from(args.trace),
        filesystem_of(&dir)
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        dir,
    };
    let mut outcome = pool.install(|| match args.workload.as_str() {
        "grid-1m" => grid::run(&ctx),
        "paper-dpga" => dpga::run(&ctx),
        _ => serve::run(&ctx),
    })?;
    if !args.trace {
        outcome.set(
            "peak_rss_mb",
            peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
        );
    }
    drop(guard);

    if !outcome.tracers.is_empty() {
        let spans = root.join("spans");
        std::fs::create_dir_all(&spans).map_err(|e| e.to_string())?;
        for (i, t) in outcome.tracers.iter().enumerate() {
            let path = spans.join(format!("{}-seed{}-pass{i}.tsv", args.workload, args.seed));
            std::fs::write(&path, t.to_tsv()).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok((outcome, info))
}

/// Renders the result line and the human table; problems go to stderr.
fn report(args: &Args, mut outcome: Outcome) -> String {
    let mut expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = outcome.failed == 0;
    if outcome.withheld {
        expected = &[];
    } else if args.trace {
        for (name, _) in PER_LAYER {
            outcome.metrics.entry(name).or_insert(0.0);
        }
    }
    let mut json = String::new();
    let mut table = String::new();
    for (name, unit) in expected {
        assert!(stats::is_metric_name(name), "bad metric name {name}");
        let Some(value) = outcome.metrics.get(name) else {
            correct = false;
            eprintln!("missing metric {name}");
            continue;
        };
        if !value.is_finite() {
            correct = false;
            eprintln!("metric {name} is not finite");
            continue;
        }
        let _ = writeln!(table, "{} {name} {value} {unit}", args.workload);
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if json.is_empty() { "" } else { ", " }
        );
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    format!(
        "{table}{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted, outcome.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.gen_dir {
        return match inputs::write(&args.workload, args.seed, dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok((outcome, info)) => {
            println!("{info}");
            println!("{}", report(&args, outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
