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

    // The sweep refiner and pfm's full-rescan reference mode are gone
    // from both surfaces that take --refine.
    for engine in ["sweep", "pfm-rescan"] {
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

    std::fs::remove_dir_all(&dir).ok();
}

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
        .write_all(b"frobnicate x\nopen bad/name graph=g parts=2\nquery nosuch\nopen s parts=2\nsessions\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let replies: Vec<&str> = stdout.lines().collect();
    assert!(replies[0].starts_with("err protocol"), "{stdout}");
    assert!(replies[1].starts_with("err protocol"), "{stdout}");
    assert!(replies[2].starts_with("err protocol"), "{stdout}");
    assert!(replies[3].starts_with("err protocol"), "{stdout}"); // no tape, no graph=
    assert_eq!(replies[4], "ok sessions=0 names=");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
