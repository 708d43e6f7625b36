//! serve-growth: one `Daemon`, four tenant sessions, each fed its
//! mesh-growth trace round-robin by one client in a closed loop, then a
//! crash (the daemon is dropped without `close`) and a timed recovery.

use crate::inputs::{tenant_files, TENANTS, TENANT_BATCHES};
use crate::stats::{highest_supported_percentile, percentile};
use crate::trace::Tracer;
use crate::{combined_hash, imbalance_ratio, median, vcycle, Ctx, Outcome};
use gapart::core::dynamic::{BatchAction, DynamicSession, SessionSpec};
use gapart::graph::dynamic::trace::parse_trace;
use gapart::graph::dynamic::{apply_batch, wire, Mutation};
use gapart::graph::io::{attach_coords, coords_from_text, coords_to_text, from_metis, to_metis};
use gapart::graph::partition::hash_labels;
use gapart::graph::PartitionMetrics;
use gapart::partitioners::by_name_with;
use gapart::serve::protocol::{parse_command, Command};
use gapart::serve::session::ManagedSession;
use gapart::serve::tape::{read_tape, Record, Snapshot, TapeWriter};
use gapart::serve::{Daemon, ServeConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

const PARTS: u32 = 8;
/// The shadow call the traced run adds inside each commit.
const SHADOWS: [&str; 1] = ["dynamic.rebuild"];

/// The client's command lines, generated before any timer starts.
struct Script {
    opens: Vec<String>,
    /// One batch cycle per entry: tenant, then its `mutate` lines, the
    /// `commit` and the `query`.
    cycles: Vec<(usize, Vec<String>)>,
}

fn name(i: usize) -> String {
    format!("tenant-{i}")
}

fn build_script(ctx: &Ctx) -> Result<Script, String> {
    let mut opens = Vec::new();
    let mut traces = Vec::new();
    for i in 0..TENANTS {
        let [metis, xy, trace] = tenant_files(&ctx.dir, i);
        opens.push(format!(
            "open {} graph={} coords={} parts={PARTS} seed={}",
            name(i),
            metis.display(),
            xy.display(),
            ctx.seed
        ));
        let text =
            std::fs::read_to_string(&trace).map_err(|e| format!("{}: {e}", trace.display()))?;
        traces.push(parse_trace(&text).map_err(|e| format!("tenant trace: {e}"))?);
    }
    let mut cycles = Vec::new();
    for b in 0..TENANT_BATCHES {
        for (i, trace) in traces.iter().enumerate() {
            let n = name(i);
            let batch = trace.get(b).ok_or("trace is shorter than its spec")?;
            let mut lines: Vec<String> = batch
                .iter()
                .map(|m| format!("mutate {n} {}", wire::format_mutation(m)))
                .collect();
            lines.push(format!("commit {n}"));
            lines.push(format!("query {n}"));
            cycles.push((i, lines));
        }
    }
    Ok(Script { opens, cycles })
}

/// The value of `key=` in a reply.
fn kv<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

fn tape_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("{}.tape", name(i)))
}

fn dir_bytes(dir: &Path) -> u64 {
    (0..TENANTS)
        .filter_map(|i| std::fs::metadata(tape_path(dir, i)).ok())
        .map(|m| m.len())
        .sum()
}

/// What one untraced pass measured and saw.
struct Pass {
    setup: f64,
    solve: f64,
    commits: Vec<f64>,
    recover: f64,
    disk_bytes: u64,
    commit_cuts: Vec<u64>,
    /// Final `query` hash and cut per tenant.
    finals: Vec<(String, u64)>,
}

/// Checks an `ok` reply and returns it.
fn ok<'a>(out: &mut Outcome, line: &str, reply: &'a str, errored: bool) -> &'a str {
    out.op(if errored {
        Err(format!("'{line}' -> {reply}"))
    } else {
        Ok(())
    });
    reply
}

/// Recovers the sessions with a fresh daemon and checks each comes back
/// with the hash and cut the client last saw. Returns the wall time.
fn recover(dir: &Path, finals: &[(String, u64)], out: &mut Outcome) -> Result<f64, String> {
    let start = Instant::now();
    let mut daemon = Daemon::new(ServeConfig::new(dir), by_name_with).map_err(|e| e.to_string())?;
    for (i, (hash, cut)) in finals.iter().enumerate() {
        let line = format!("open {}", name(i));
        let (reply, errored, _) = daemon.execute(&line);
        let reply = ok(out, &line, &reply, errored);
        let same = kv(reply, "recovered") == Some("1")
            && kv(reply, "hash") == Some(hash.as_str())
            && kv(reply, "cut") == Some(cut.to_string().as_str());
        out.op(same
            .then_some(())
            .ok_or_else(|| format!("recovered {reply}, before the crash hash={hash} cut={cut}")));
    }
    Ok(start.elapsed().as_secs_f64())
}

fn untraced_pass(script: &Script, dir: &Path, out: &mut Outcome) -> Result<Pass, String> {
    let mut daemon = Daemon::new(ServeConfig::new(dir), by_name_with).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for line in &script.opens {
        let (reply, errored, _) = daemon.execute(line);
        ok(out, line, &reply, errored);
    }
    let setup = start.elapsed().as_secs_f64();

    let mut commits = Vec::with_capacity(script.cycles.len());
    let mut commit_cuts = Vec::with_capacity(script.cycles.len());
    let mut finals = vec![(String::new(), 0u64); TENANTS];
    let mut seqs = [0usize; TENANTS];
    let start = Instant::now();
    for (i, lines) in &script.cycles {
        for line in lines {
            if line.starts_with("commit") {
                let t0 = Instant::now();
                let (reply, errored, _) = daemon.execute(line);
                commits.push(t0.elapsed().as_secs_f64());
                let reply = ok(out, line, &reply, errored);
                if kv(reply, "batch") != Some(seqs[*i].to_string().as_str()) {
                    out.op(Err(format!(
                        "'{line}' -> {reply}: expected batch={}",
                        seqs[*i]
                    )));
                }
                seqs[*i] += 1;
                commit_cuts.push(kv(reply, "cut").and_then(|c| c.parse().ok()).unwrap_or(0));
            } else if line.starts_with("query") {
                let (reply, errored, _) = daemon.execute(line);
                let reply = ok(out, line, &reply, errored);
                let hash = kv(reply, "hash").unwrap_or_default().to_string();
                let cut = kv(reply, "cut").and_then(|c| c.parse().ok()).unwrap_or(0);
                finals[*i] = (hash, cut);
            } else {
                let (reply, errored, _) = daemon.execute(line);
                ok(out, line, &reply, errored);
            }
        }
    }
    let solve = start.elapsed().as_secs_f64();
    // The crash: no `close`, no final snapshot.
    drop(daemon);
    let recover = recover(dir, &finals, out)?;
    Ok(Pass {
        setup,
        solve,
        commits,
        recover,
        disk_bytes: dir_bytes(dir),
        commit_cuts,
        finals,
    })
}

/// Validates the final labels of every tenant, read back from its tape:
/// they cover the graph, their recomputed cut is the cut the client saw
/// and their hash is the hash it saw. Returns the largest imbalance.
fn validate_final_labels(dir: &Path, pass: &Pass, out: &mut Outcome) -> f64 {
    let mut worst: f64 = 0.0;
    for (i, (hash, cut)) in pass.finals.iter().enumerate() {
        let result = ManagedSession::recover(&tape_path(dir, i), by_name_with)
            .map_err(|e| e.to_string())
            .and_then(|(s, _)| {
                let (g, p) = (s.inner().graph(), s.inner().partition());
                if p.num_nodes() != g.num_nodes() || p.labels().iter().any(|&l| l >= PARTS) {
                    return Err(format!("{} labels do not cover its graph", name(i)));
                }
                let m = PartitionMetrics::compute(g, p);
                worst = worst.max(imbalance_ratio(&m.part_loads));
                if m.total_cut != *cut || hash_labels(p.labels()) != *hash {
                    return Err(format!(
                        "{}: recomputed cut {} hash {}, the daemon said cut {cut} hash {hash}",
                        name(i),
                        m.total_cut,
                        hash_labels(p.labels())
                    ));
                }
                Ok(())
            });
        out.op(result);
    }
    worst
}

/// A tenant of the traced run: the commit path rebuilt from the public
/// calls `ManagedSession` makes.
struct Tenant {
    session: DynamicSession,
    tape: TapeWriter,
    pending: Vec<Mutation>,
    last_snapshot: usize,
}

fn open_traced(line: &str, dir: &Path, t: &mut Tracer) -> Result<(Tenant, Vec<u32>), String> {
    let cmd = t
        .time("protocol", || parse_command(line))
        .map_err(|e| e.to_string())?;
    let Command::Open { name, params } = cmd else {
        return Err(format!("not an open: {line}"));
    };
    let mut spec = SessionSpec::new(0);
    let (mut graph_path, mut coords_path) = (String::new(), String::new());
    for (k, v) in &params {
        match k.as_str() {
            "graph" => graph_path.clone_from(v),
            "coords" => coords_path.clone_from(v),
            _ => spec.set(k, v).map_err(|e| e.to_string())?,
        }
    }
    let text = std::fs::read_to_string(&graph_path).map_err(|e| e.to_string())?;
    t.count("io.bytes", text.len() as f64);
    let graph = t
        .time("io.parse", || from_metis(&text))
        .map_err(|e| e.to_string())?;
    let ctext = std::fs::read_to_string(&coords_path).map_err(|e| e.to_string())?;
    let coords = coords_from_text(&ctext).map_err(|e| e.to_string())?;
    let graph = attach_coords(&graph, coords).map_err(|e| e.to_string())?;

    // Shadow call: the opening solve's V-cycle, repeated layer by layer.
    let shadow = vcycle::traced_mlga(&graph, spec.parts, spec.seed, t)?;

    let metis = to_metis(&graph);
    let coords = graph.coords().map(coords_to_text);
    let session = spec.open(graph, by_name_with).map_err(|e| e.to_string())?;
    let mut tape =
        TapeWriter::create(&dir.join(format!("{name}.tape"))).map_err(|e| e.to_string())?;
    tape.append(&Record::Open {
        spec: spec.to_kv(),
        metis,
        coords,
    })
    .map_err(|e| e.to_string())?;
    let tenant = Tenant {
        session,
        tape,
        pending: Vec::new(),
        last_snapshot: 0,
    };
    Ok((tenant, shadow.into_labels()))
}

/// `ManagedSession::snapshot`: the full checkpoint record.
fn snapshot_record(session: &DynamicSession) -> Record {
    let state = session.state();
    let labels: Vec<String> = session
        .partition()
        .labels()
        .iter()
        .map(u32::to_string)
        .collect();
    Record::Snapshot(Snapshot {
        batches: state.batches,
        epoch: state.epoch,
        baseline_cut: state.baseline_cut,
        cut: state.current_cut,
        labels: labels.join(" "),
        metis: to_metis(session.graph()),
        coords: session.graph().coords().map(coords_to_text),
    })
}

/// `ManagedSession::commit` with each layer in its own span, plus the
/// shadow rebuild. Returns the batch's cut.
fn commit_traced(
    tenant: &mut Tenant,
    snapshot_every: usize,
    t: &mut Tracer,
) -> Result<u64, String> {
    let batch = std::mem::take(&mut tenant.pending);
    let seq = tenant.session.state().batches;
    t.time("dynamic.rebuild", || {
        apply_batch(tenant.session.graph(), &batch)
    })
    .map_err(|e| e.to_string())?;
    let rec = t
        .time("dynamic.apply", || tenant.session.apply_batch(&batch))
        .map_err(|e| e.to_string())?;
    t.count("dynamic.frontier_nodes", rec.frontier as f64);
    t.count("dynamic.moves", rec.refine.moves as f64);
    t.count(
        "dynamic.escalations",
        f64::from(u8::from(rec.action == BatchAction::FullRepartition)),
    );
    t.time("tape.batch", || {
        let muts = wire::format_batch(&batch);
        tenant.tape.append(&Record::Batch { seq, muts })
    })
    .map_err(|e| e.to_string())?;
    let batches = tenant.session.state().batches;
    if batches - tenant.last_snapshot >= snapshot_every {
        let session = &tenant.session;
        let tape = &mut tenant.tape;
        t.time("tape.snapshot", || tape.append(&snapshot_record(session)))
            .map_err(|e| e.to_string())?;
        tenant.last_snapshot = batches;
    }
    Ok(rec.cut_after)
}

/// One traced pass, checked against the untraced `reference` pass made in
/// `reference_dir`. Returns the traced request seconds.
fn traced_pass(
    script: &Script,
    dir: &Path,
    reference: &Pass,
    reference_dir: &Path,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<f64, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let snapshot_every = ServeConfig::new(dir).snapshot_every;
    let mut tenants = Vec::new();
    for line in &script.opens {
        let (tenant, shadow) = open_traced(line, dir, t)?;
        if tenant.session.partition().labels() != shadow.as_slice() {
            out.withhold("the traced V-cycle of an open differs from the session's solve".into());
        }
        tenants.push(tenant);
    }

    let mut cuts = Vec::with_capacity(script.cycles.len());
    for (i, lines) in &script.cycles {
        let root = t.begin_request("serve.request");
        for line in lines {
            let tenant = &mut tenants[*i];
            match t
                .time("protocol", || parse_command(line))
                .map_err(|e| e.to_string())?
            {
                Command::Mutate { mutation, .. } => {
                    tenant
                        .pending
                        .push(wire::parse_mutation(&mutation).map_err(|e| e.0)?);
                }
                Command::Commit { .. } => cuts.push(commit_traced(tenant, snapshot_every, t)?),
                Command::Query { .. } => {}
                other => return Err(format!("unexpected command {other:?}")),
            }
        }
        t.end(root);
    }
    let solve = t.request_seconds("serve.request", &SHADOWS);

    let finals: Vec<(String, u64)> = tenants
        .iter()
        .map(|x| {
            (
                hash_labels(x.session.partition().labels()),
                x.session.current_cut(),
            )
        })
        .collect();
    for x in &tenants {
        let m = PartitionMetrics::compute(x.session.graph(), x.session.partition());
        out.op((m.total_cut == x.session.current_cut())
            .then_some(())
            .ok_or_else(|| {
                format!(
                    "traced session cut {} != recomputed {}",
                    x.session.current_cut(),
                    m.total_cut
                )
            }))
    }
    if cuts != reference.commit_cuts || finals != reference.finals {
        out.withhold("traced commits gave other cuts or labels than the daemon's".into());
    }
    drop(tenants);
    for i in 0..TENANTS {
        let (a, b) = (tape_path(dir, i), tape_path(reference_dir, i));
        let same = std::fs::read(&a).map_err(|e| e.to_string())?
            == std::fs::read(&b).map_err(|e| e.to_string())?;
        if !same {
            out.withhold(format!(
                "traced tape {} differs from the daemon's",
                a.display()
            ));
        }
    }
    t.count("tape.bytes", dir_bytes(dir) as f64);

    // Recovery through a fresh daemon, with `read_tape` shadowed.
    recover(dir, &finals, out)?;
    for i in 0..TENANTS {
        t.time("tape.read", || read_tape(&tape_path(dir, i)))
            .map_err(|e| e.to_string())?;
    }
    Ok(solve)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let script = build_script(ctx)?;
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced = Vec::new();
    let mut tracers = Vec::new();
    let mut imbalance = 0.0;
    let start = Instant::now();
    loop {
        let unit = Instant::now();
        let dir = ctx.dir.join(format!("tapes-{}", passes.len()));
        let pass = untraced_pass(&script, &dir, &mut out)?;
        if let Some(first) = passes.first() {
            out.op((first.finals == pass.finals)
                .then_some(())
                .ok_or("a pass ended with other labels than the first".into()));
        } else {
            imbalance = validate_final_labels(&dir, &pass, &mut out);
            let hash = combined_hash(pass.finals.iter().map(|f| f.0.as_str()));
            println!("serve-growth hash {hash}");
        }
        if ctx.trace {
            let tdir = ctx.dir.join(format!("traced-{}", passes.len()));
            let mut t = Tracer::default();
            traced.push(traced_pass(&script, &tdir, &pass, &dir, &mut t, &mut out)?);
            tracers.push(t);
            let _ = std::fs::remove_dir_all(&tdir);
        }
        let _ = std::fs::remove_dir_all(&dir);
        passes.push(pass);
        if !ctx.fits(start, unit.elapsed().as_secs_f64()) {
            break;
        }
    }

    let commits: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.commits.iter().copied())
        .collect();
    crate::show_quartiles("serve-growth commit_s", &commits);
    crate::show_quartiles(
        "serve-growth solve_s",
        &passes.iter().map(|p| p.solve).collect::<Vec<_>>(),
    );
    let p = highest_supported_percentile(commits.len()).unwrap_or(50.0);
    let tail_ms = percentile(&commits, p).unwrap_or(f64::NAN) * 1e3;
    println!(
        "serve-growth commit latency p{p} {tail_ms} ms over {} commits",
        commits.len()
    );
    let of = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    if !ctx.trace {
        out.set("setup_s", of(|p| p.setup));
        out.set("solve_s", of(|p| p.solve));
        out.set("request_ms_p50", median(&commits) * 1e3);
        out.set("cut", passes[0].finals.iter().map(|f| f.1 as f64).sum());
        out.set("imbalance", imbalance);
        return Ok(out);
    }
    // Per-pass layer figures; the median over traced passes is reported.
    let layer = |name: &'static str, f: &dyn Fn(&Tracer) -> f64| {
        (name, median(&tracers.iter().map(f).collect::<Vec<_>>()))
    };
    let figures = [
        layer("io.parse_s", &|t| t.seconds("io.parse")),
        layer("io.bytes", &|t| t.counted("io.bytes")),
        layer("coarsen.s", &|t| t.seconds("coarsen")),
        layer("coarsen.levels", &|t| t.sampled("coarsen.levels")),
        layer("coarsen.coarsest_nodes", &|t| {
            t.sampled("coarsen.coarsest_nodes")
        }),
        layer("coarsen.project_s", &|t| t.seconds("coarsen.project")),
        layer("engine.s", &|t| t.seconds("engine")),
        layer("engine.generations", &|t| t.sampled("engine.generations")),
        layer("engine.converged_gen", &|t| {
            t.sampled("engine.converged_gen")
        }),
        layer("fm.s", &|t| t.seconds("fm")),
        layer("fm.moves", &|t| t.counted("fm.moves")),
        layer("fm.gain", &|t| t.counted("fm.gain")),
        layer("protocol.s", &|t| t.seconds("protocol")),
        layer("dynamic.apply_s", &|t| t.seconds("dynamic.apply")),
        layer("dynamic.rebuild_s", &|t| t.seconds("dynamic.rebuild")),
        layer("dynamic.frontier_nodes", &|t| {
            t.counted("dynamic.frontier_nodes")
        }),
        layer("dynamic.moves", &|t| t.counted("dynamic.moves")),
        layer("dynamic.escalations", &|t| t.counted("dynamic.escalations")),
        layer("tape.batch_s", &|t| t.seconds("tape.batch")),
        layer("tape.snapshot_s", &|t| t.seconds("tape.snapshot")),
        layer("tape.bytes", &|t| t.counted("tape.bytes")),
        layer("tape.read_s", &|t| t.seconds("tape.read")),
        layer("trace.coverage", &|t| t.coverage("serve.request", &SHADOWS)),
    ];
    for (name, value) in figures {
        out.set(name, value);
    }
    if p >= 99.0 {
        out.set("serve.commit_ms_p99", tail_ms);
    }
    out.set("serve.recover_s", of(|p| p.recover));
    out.set("serve.disk_mb", of(|p| p.disk_bytes as f64) / 1e6);
    out.set("trace.overhead", median(&traced) / of(|p| p.solve) - 1.0);
    out.tracers = tracers;
    Ok(out)
}
