//! Process-level tests of the `gapart-cli` binary: failing invocations
//! must exit non-zero with a one-line diagnostic (usage errors exit 2,
//! everything else exits 1) and never panic.

use std::io::Write;
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gapart-cli"))
}

#[test]
fn usage_errors_exit_2() {
    // No subcommand at all.
    let out = cli().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    // grow without its required --coords flag (the old unwrap territory).
    let out = cli()
        .args(["grow", "g.metis", "--add", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--coords"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn retired_refine_engines_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("gapart-exit-refine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let g = dir.join("g.metis");
    let gs = g.to_str().unwrap();
    let trace = dir.join("g.trace");
    let ok = cli()
        .args(["gen", "--kind", "mesh", "--nodes", "40", "--out", gs])
        .output()
        .unwrap();
    assert!(ok.status.success());
    std::fs::write(&trace, "commit\n").unwrap();
    let ts = trace.to_str().unwrap();

    // The parallel FM, the sweep refiner and pfm's full-rescan
    // reference mode are gone from both surfaces that take --refine.
    for engine in ["pfm", "sweep", "pfm-rescan"] {
        for args in [
            vec!["partition", gs, "--parts", "2", "--method", "mlga"],
            vec!["stream", gs, "--trace", ts, "--parts", "2"],
        ] {
            let out = cli()
                .args(&args)
                .args(["--refine", engine])
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(2), "{args:?} --refine {engine}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(&format!("--refine {engine}")), "{err}");
            assert!(err.contains("USAGE"), "{err}");
            assert!(!err.contains("panicked"), "{err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_operations_exit_1_without_panicking() {
    let dir = std::env::temp_dir().join(format!("gapart-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let g = dir.join("g.metis");
    let gs = g.to_str().unwrap();
    let ok = cli()
        .args(["gen", "--kind", "gnp", "--nodes", "20", "--out", gs])
        .output()
        .unwrap();
    assert!(ok.status.success());

    // A structurally invalid stream trace: library error, exit 1.
    let trace = dir.join("bad.trace");
    std::fs::write(&trace, "edge 0 999 1\ncommit\n").unwrap();
    let out = cli()
        .args([
            "stream",
            gs,
            "--trace",
            trace.to_str().unwrap(),
            "--parts",
            "2",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("out of range"), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    // mesh-growth trace generation on a coordinate-less graph: exit 1
    // with the typed MissingCoordinates message.
    let out = cli()
        .args([
            "trace",
            gs,
            "--scenario",
            "mesh-growth",
            "--batches",
            "1",
            "--ops",
            "1",
            "--out",
            dir.join("t.trace").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("coordinates"), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    // Headers that claim far more vertices than the file holds: the
    // missing-rows error, not an allocation of the claimed size (2⁶⁰
    // vertices once aborted the process).
    for (i, header) in OVERSIZED_HEADERS.iter().enumerate() {
        let huge = dir.join(format!("huge-{i}.metis"));
        std::fs::write(&huge, header).unwrap();
        let out = cli()
            .args(["info", huge.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{header:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.contains("vertex lines, got 0"), "{err}");
    }

    // A population no memory holds: the typed population error, not an
    // allocation of the requested size (it once panicked on "capacity
    // overflow"), naming the size typed, not one island's share.
    for method in ["ga", "dpga", "mlga", "mldpga"] {
        let out = cli()
            .args([
                "partition",
                gs,
                "--parts",
                "2",
                "--method",
                method,
                "--pop",
                "18446744073709551615",
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{method}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{method}: {err}");
        assert!(err.contains("bad population"), "{method}: {err}");
        assert!(err.contains("18446744073709551615"), "{method}: {err}");
        assert!(!err.contains("panicked"), "{method}: {err}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A 60-node mesh and its coordinate file in a fresh directory.
fn mesh60(tag: &str) -> (std::path::PathBuf, String, String) {
    let dir = std::env::temp_dir().join(format!("gapart-exit-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let g = dir.join("g.metis").to_str().unwrap().to_string();
    let xy = dir.join("g.xy").to_str().unwrap().to_string();
    let ok = cli()
        .args(["gen", "--kind", "mesh", "--nodes", "60", "--seed", "5"])
        .args(["--out", &g, "--coords-out", &xy])
        .output()
        .unwrap();
    assert!(ok.status.success());
    (dir, g, xy)
}

#[test]
fn coordinate_files_without_a_finite_extent_exit_1() {
    let (dir, g, xy) = mesh60("coords");
    let text = std::fs::read_to_string(&xy).unwrap();
    // One line replaced: an infinite value, two finite values whose
    // span overflows f64, and a NaN.
    for (i, line) in ["0.5 inf", "1e308 -1e308", "NaN 0.5"].iter().enumerate() {
        let mut lines: Vec<&str> = text.lines().collect();
        lines[6] = line;
        let bad = dir.join(format!("bad-{i}.xy"));
        std::fs::write(&bad, lines.join("\n") + "\n").unwrap();
        let bad = bad.to_str().unwrap();
        let grown = dir.join("grown.metis");
        let trace = dir.join("t.trace");
        let (grown, trace) = (grown.to_str().unwrap(), trace.to_str().unwrap());
        for args in [
            vec!["grow", &g, "--coords", bad, "--add", "5", "--out", grown],
            vec![
                "trace",
                &g,
                "--coords",
                bad,
                "--scenario",
                "mesh-growth",
                "--batches",
                "1",
                "--ops",
                "3",
                "--out",
                trace,
            ],
            vec![
                "partition",
                &g,
                "--coords",
                bad,
                "--method",
                "ibp",
                "--parts",
                "4",
            ],
        ] {
            let out = cli().args(&args).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{line:?} {args:?}: {err}");
            assert_eq!(err.lines().count(), 1, "{line:?} {args:?}: {err}");
            assert!(!err.contains("panicked"), "{line:?} {args:?}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_graphs_make_grow_and_trace_exit_1() {
    let dir = std::env::temp_dir().join(format!("gapart-exit-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (g, xy, out) = (path("g.metis"), path("g.xy"), path("out"));
    std::fs::write(&g, "0 0\n").unwrap();
    std::fs::write(&xy, "").unwrap();
    let trace = |scenario: &'static str, coords: bool| {
        let mut args = vec!["trace", &g, "--scenario", scenario];
        args.extend(["--batches", "2", "--ops", "3", "--out", &out]);
        if coords {
            args.extend(["--coords", &xy]);
        }
        args
    };
    for args in [
        vec!["grow", &g, "--coords", &xy, "--add", "3", "--out", &out],
        trace("mesh-growth", true),
        trace("churn", true),
        trace("hotspot", true),
        trace("churn", false),
        trace("hotspot", false),
    ] {
        let out = cli().args(&args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.contains("graph has no nodes"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn too_many_parts_names_the_node_count_for_every_method() {
    let (dir, g, xy) = mesh60("parts");
    for method in gapart::partitioners::NAMES {
        let out = cli()
            .args(["partition", &g, "--coords", &xy, "--method", method])
            .args(["--parts", "61"])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{method}: {err}");
        assert_eq!(err.lines().count(), 1, "{method}: {err}");
        assert!(err.contains("60 nodes into 61 parts"), "{method}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// METIS headers whose vertex counts no file of theirs can back.
const OVERSIZED_HEADERS: [&str; 2] = ["1152921504606846976 0\n", "100000000 0\n"];

#[test]
fn serve_without_tape_dir_is_a_usage_error() {
    let out = cli().args(["serve"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--tape-dir"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn serve_protocol_errors_reply_err_and_exit_1() {
    let dir = std::env::temp_dir().join(format!("gapart-serve-exit-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let mut script =
        String::from("frobnicate x\nopen bad/name graph=g parts=2\nquery nosuch\nopen s parts=2\n");
    for (i, header) in OVERSIZED_HEADERS.iter().enumerate() {
        let huge = dir.join(format!("huge-{i}.metis"));
        std::fs::write(&huge, header).unwrap();
        script += &format!("open huge{i} graph={} parts=2\n", huge.display());
    }
    script += "sessions\n";

    // The daemon answers every bad command with an `err` line (it keeps
    // serving), then exits 1 at EOF because errors occurred.
    let mut child = cli()
        .args(["serve", "--tape-dir", dir.join("tapes").to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let replies: Vec<&str> = stdout.lines().collect();
    assert!(replies[0].starts_with("err protocol"), "{stdout}");
    assert!(replies[1].starts_with("err protocol"), "{stdout}");
    assert!(replies[2].starts_with("err protocol"), "{stdout}");
    assert!(replies[3].starts_with("err protocol"), "{stdout}"); // no tape, no graph=
    for reply in &replies[4..6] {
        assert!(reply.starts_with("err state"), "{stdout}");
        assert!(reply.contains("vertex lines, got 0"), "{stdout}");
    }
    assert_eq!(replies[6], "ok sessions=0 names=");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
