//! paper-dpga: `dpga`, the CLI's default method at its default budget, on
//! the paper's 13 graphs × {2, 4, 8} parts — 39 requests from one client
//! in a closed loop.

use crate::inputs::paper_file;
use crate::trace::Tracer;
use crate::vcycle::converged_gen;
use crate::{check_report, combined_hash, imbalance_ratio, median, Ctx, Outcome};
use gapart::core::{DpgaConfig, DpgaEngine, DpgaPartitioner, GaConfig, HillClimbMode};
use gapart::graph::generators::PAPER_SIZES;
use gapart::graph::io::from_metis;
use gapart::graph::partition::hash_labels;
use gapart::graph::{CsrGraph, Partitioner};
use std::time::Instant;

const PARTS: [u32; 3] = [2, 4, 8];

/// The `partition` subcommand's `dpga` at its defaults: 16 islands on a
/// 4-d hypercube, population 320, 150 generations, DKNUX, offspring hill
/// climbing and boundary mutation 0.05.
fn cli_default(parts: u32) -> DpgaConfig {
    let mut base = GaConfig::paper_defaults(parts)
        .with_population_size(320)
        .with_generations(150)
        .with_hill_climb(HillClimbMode::Offspring { passes: 1 });
    base.boundary_mutation_rate = 0.05;
    DpgaConfig::paper(parts).with_base(base)
}

/// One cell's result: labels, cut, imbalance.
type Cell = (Vec<u32>, u64, f64);

fn read_inputs(ctx: &Ctx) -> Result<Vec<String>, String> {
    PAPER_SIZES
        .iter()
        .map(|&n| std::fs::read_to_string(paper_file(&ctx.dir, n)).map_err(|e| e.to_string()))
        .collect()
}

fn parse_inputs(texts: &[String]) -> Result<Vec<CsrGraph>, String> {
    texts
        .iter()
        .map(|s| from_metis(s).map_err(|e| format!("paper input: {e}")))
        .collect()
}

/// Set-up: read and parse the 13 graphs. Returns them and adds the time
/// to `setup`.
fn setup(ctx: &Ctx, setup: &mut Vec<f64>) -> Result<Vec<CsrGraph>, String> {
    let start = Instant::now();
    let graphs = parse_inputs(&read_inputs(ctx)?)?;
    setup.push(start.elapsed().as_secs_f64());
    Ok(graphs)
}

/// One pass over the 39 cells through the `Partitioner` entry point.
/// Returns the summed solve time, per-request times and cells. An
/// untraced run also samples the set-up before each cell: it takes
/// milliseconds, and 39 samples across the pass keep its median steady.
fn untraced_pass(
    ctx: &Ctx,
    graphs: &[CsrGraph],
    setup_times: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(f64, Vec<f64>, Vec<Cell>), String> {
    let mut requests = Vec::new();
    let mut cells = Vec::new();
    let mut solving = 0.0;
    for graph in graphs {
        for k in PARTS {
            if !ctx.trace {
                setup(ctx, setup_times)?;
            }
            let p = DpgaPartitioner::new(cli_default(k));
            let t0 = Instant::now();
            let result = p.partition(graph, k, ctx.seed);
            let secs = t0.elapsed().as_secs_f64();
            requests.push(secs);
            solving += secs;
            match result {
                Ok(r) => {
                    out.op(check_report(graph, k, &r));
                    let imbalance = imbalance_ratio(&r.metrics.part_loads);
                    cells.push((r.partition.into_labels(), r.metrics.total_cut, imbalance));
                }
                Err(e) => {
                    out.op(Err(format!(
                        "dpga on {} nodes, {k} parts: {e}",
                        graph.num_nodes()
                    )));
                    cells.push((Vec::new(), 0, 0.0));
                }
            }
        }
    }
    Ok((solving, requests, cells))
}

/// The same pass rebuilt from `DpgaEngine::new` and `DpgaEngine::run`,
/// as `DpgaPartitioner::partition` calls them. Returns the labels.
fn traced_pass(ctx: &Ctx, graphs: &[CsrGraph], t: &mut Tracer) -> Result<Vec<Vec<u32>>, String> {
    let mut labels = Vec::new();
    for graph in graphs {
        for k in PARTS {
            let mut config = cli_default(k);
            config.base.num_parts = k;
            config.base.seed = ctx.seed;
            let root = t.begin_request("dpga.request");
            let engine = t.time("dpga.init", || DpgaEngine::new(graph, config));
            let result = engine.map(|e| t.time("dpga.run", || e.run()));
            t.end(root);
            let result = result.map_err(|e| e.to_string())?;
            t.sample("dpga.generations", (result.history.len() - 1) as f64);
            t.sample(
                "dpga.converged_gen",
                converged_gen(&result.history.best_cut) as f64,
            );
            labels.push(result.best_partition.into_labels());
        }
    }
    Ok(labels)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let graphs = setup(ctx, &mut setup_times)?;
    let mut tracer = ctx.trace.then(Tracer::default);
    if let Some(t) = tracer.as_mut() {
        let texts = read_inputs(ctx)?;
        t.count(
            "io.bytes",
            texts.iter().map(String::len).sum::<usize>() as f64,
        );
        t.time("io.parse", || parse_inputs(&texts))?;
    }

    let mut passes = Vec::new();
    let mut requests = Vec::new();
    let mut traced = Vec::new();
    let mut first: Option<Vec<Cell>> = None;
    let start = Instant::now();
    loop {
        let unit = Instant::now();
        let (secs, times, cells) = untraced_pass(ctx, &graphs, &mut setup_times, &mut out)?;
        passes.push(secs);
        requests.extend(times);
        if let Some(prev) = &first {
            let same = prev.iter().zip(&cells).all(|(a, b)| a.0 == b.0);
            out.op(same
                .then_some(())
                .ok_or("a pass gave other labels than the first".into()));
        } else {
            let hashes: Vec<String> = cells.iter().map(|c| hash_labels(&c.0)).collect();
            println!(
                "paper-dpga hash {}",
                combined_hash(hashes.iter().map(String::as_str))
            );
            first = Some(cells);
        }
        if let (Some(t), Some(cells)) = (tracer.as_mut(), &first) {
            let t0 = Instant::now();
            let labels = traced_pass(ctx, &graphs, t);
            traced.push(t0.elapsed().as_secs_f64());
            match labels {
                Ok(l) if l.iter().zip(cells).all(|(a, b)| *a == b.0) => out.op(Ok(())),
                Ok(_) => out.withhold("traced DPGA cells differ from the partitioner's".into()),
                Err(e) => out.op(Err(e)),
            }
        }
        if !ctx.fits(start, unit.elapsed().as_secs_f64()) {
            break;
        }
    }
    let cells = first.ok_or("no pass ran")?;
    crate::show_quartiles("paper-dpga request_s", &requests);
    crate::show_quartiles("paper-dpga setup_s", &setup_times);

    let Some(t) = tracer else {
        out.set("setup_s", median(&setup_times));
        out.set("solve_s", median(&passes));
        out.set("request_ms_p50", median(&requests) * 1e3);
        out.set("cut", cells.iter().map(|c| c.1 as f64).sum());
        out.set("imbalance", cells.iter().map(|c| c.2).fold(0.0, f64::max));
        return Ok(out);
    };
    let n = traced.len() as f64;
    out.set("io.parse_s", t.seconds("io.parse"));
    out.set("io.bytes", t.counted("io.bytes"));
    out.set("dpga.init_s", t.seconds("dpga.init") / n);
    out.set("dpga.run_s", t.seconds("dpga.run") / n);
    out.set("dpga.generations", t.sampled("dpga.generations"));
    out.set("dpga.converged_gen", t.sampled("dpga.converged_gen"));
    out.set("trace.overhead", median(&traced) / median(&passes) - 1.0);
    out.set("trace.coverage", t.coverage("dpga.request", &[]));
    out.tracers.push(t);
    Ok(out)
}
