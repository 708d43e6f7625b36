//! grid-1m: the 1000×1000 4-connected grid into 8 parts with `mlga` and
//! the default FM refiner — the scale path.

use crate::inputs::grid_file;
use crate::trace::Tracer;
use crate::{check_report, imbalance_ratio, median, vcycle, Ctx, Outcome};
use gapart::graph::io::from_metis;
use gapart::graph::partition::hash_labels;
use gapart::graph::CsrGraph;
use gapart::partitioners;
use std::time::Instant;

const PARTS: u32 = 8;
/// Set-up samples; the median is reported.
const SETUP_SAMPLES: usize = 5;
/// BENCH_7's `grid-1m-anchor` row at the default seed: hash and cut.
const ANCHOR: (&str, u64) = ("3c85d2a936d2a5e3", 14576);

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let path = grid_file(&ctx.dir);
    let read = || std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()));

    // Set-up: what a user pays before the first request. All samples are
    // taken before the first solve: a parse after a solve lands on a
    // fragmented heap and would raise the peak RSS above the workload's.
    let mut setup = Vec::new();
    let parse = |setup: &mut Vec<f64>| -> Result<CsrGraph, String> {
        let start = Instant::now();
        let graph = from_metis(&read()?).map_err(|e| format!("grid input: {e}"))?;
        setup.push(start.elapsed().as_secs_f64());
        Ok(graph)
    };
    for _ in 1..SETUP_SAMPLES {
        parse(&mut setup)?;
    }
    let graph = parse(&mut setup)?;

    let mut tracer = ctx.trace.then(Tracer::default);
    if let Some(t) = tracer.as_mut() {
        let text = read()?;
        t.time("io.parse", || from_metis(&text))
            .map_err(|e| e.to_string())?;
        t.count("io.bytes", text.len() as f64);
    }

    let mlga = partitioners::by_name("mlga").expect("mlga is registered");
    let mut solves = Vec::new();
    let mut traced = Vec::new();
    // Labels, cut and imbalance of the first request.
    let mut first: Option<(Vec<u32>, u64, f64)> = None;
    let start = Instant::now();
    loop {
        // Every request, traced or not, runs at the workload seed, so every
        // request does the same work: the timing median varies only with
        // the host, and the traced counts repeat exactly at a seed.
        let unit = Instant::now();
        let result = mlga.partition(&graph, PARTS, ctx.seed);
        solves.push(unit.elapsed().as_secs_f64());
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                out.op(Err(format!("mlga failed: {e}")));
                break;
            }
        };
        out.op(check_report(&graph, PARTS, &report));
        let labels = report.partition.labels();
        let hash = hash_labels(labels);
        let cut = report.metrics.total_cut;
        if let Some((first_labels, ..)) = &first {
            out.op((first_labels.as_slice() == labels)
                .then_some(())
                .ok_or_else(|| format!("a request gave hash {hash}, unlike the first")));
        } else {
            println!("grid-1m hash {hash}");
            if ctx.seed == crate::DEFAULT_SEED && (hash.as_str(), cut) != ANCHOR {
                out.op(Err(format!(
                    "default seed gave hash {hash} cut {cut}; the anchor is {} cut {}",
                    ANCHOR.0, ANCHOR.1
                )));
            }
            let imbalance = imbalance_ratio(&report.metrics.part_loads);
            first = Some((labels.to_vec(), cut, imbalance));
        }

        if let Some(t) = tracer.as_mut() {
            let t0 = Instant::now();
            let root = t.begin_request("grid.request");
            let result = vcycle::traced_mlga(&graph, PARTS, ctx.seed, t);
            t.end(root);
            traced.push(t0.elapsed().as_secs_f64());
            match result {
                Ok(p) if p.labels() == labels => out.op(Ok(())),
                Ok(p) => out.withhold(format!(
                    "traced V-cycle gave hash {}, mlga gave {hash}",
                    hash_labels(p.labels())
                )),
                Err(e) => out.op(Err(e)),
            }
        }
        if !ctx.fits(start, unit.elapsed().as_secs_f64()) {
            break;
        }
    }
    let (_, cut, imbalance) = first.ok_or("no request succeeded")?;
    crate::show_quartiles("grid-1m request_s", &solves);
    crate::show_quartiles("grid-1m setup_s", &setup);

    let Some(t) = tracer else {
        out.set("setup_s", median(&setup));
        out.set("solve_s", median(&solves));
        out.set("request_ms_p50", median(&solves) * 1e3);
        out.set("cut", cut as f64);
        out.set("imbalance", imbalance);
        return Ok(out);
    };
    // Per-request layer figures: every traced request does the same work,
    // so the counts do not depend on how many requests fit in the run.
    let n = traced.len() as f64;
    out.set("io.parse_s", t.seconds("io.parse"));
    out.set("io.bytes", t.counted("io.bytes"));
    out.set("coarsen.s", t.seconds("coarsen") / n);
    out.set("coarsen.levels", t.sampled("coarsen.levels"));
    out.set(
        "coarsen.coarsest_nodes",
        t.sampled("coarsen.coarsest_nodes"),
    );
    out.set("coarsen.project_s", t.seconds("coarsen.project") / n);
    out.set("engine.s", t.seconds("engine") / n);
    out.set("engine.generations", t.sampled("engine.generations"));
    out.set("engine.converged_gen", t.sampled("engine.converged_gen"));
    out.set("fm.s", t.seconds("fm") / n);
    out.set("fm.moves", t.counted("fm.moves") / n);
    out.set("fm.gain", t.counted("fm.gain") / n);
    out.set("trace.overhead", median(&traced) / median(&solves) - 1.0);
    out.set("trace.coverage", t.coverage("grid.request", &[]));
    out.tracers.push(t);
    Ok(out)
}
