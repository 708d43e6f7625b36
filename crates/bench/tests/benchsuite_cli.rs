//! Process-level tests of the `benchsuite` binary's command line: usage
//! errors exit 2 with the usage lines, unreadable or invalid documents and
//! gate failures exit 1 with one line, and nothing panics. None of these
//! runs the scenario matrix itself.

use std::path::PathBuf;
use std::process::{Command, Output};

fn benchsuite(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchsuite"))
        .args(args)
        .output()
        .unwrap()
}

/// A committed trajectory at the repository root.
fn committed(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    path.to_str().unwrap().to_string()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_exit(out: &Output, code: i32, args: &[&str]) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
}

#[test]
fn usage_errors_exit_2_with_the_usage_lines() {
    for args in [
        &["--bogus"][..],
        &["--out"],
        &["--max-threads", "0"],
        &["--max-threads", "many"],
        &["--compare", "only-one.json"],
    ] {
        let out = benchsuite(args);
        assert_exit(&out, 2, args);
        assert!(stderr(&out).contains("usage: benchsuite"), "{args:?}");
    }
}

#[test]
fn unreadable_and_invalid_documents_exit_1_with_one_line() {
    let dir = std::env::temp_dir().join(format!("benchsuite-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let missing = dir.join("missing.json");
    let truncated = dir.join("truncated.json");
    let full = std::fs::read_to_string(committed("BENCH_8.json")).unwrap();
    std::fs::write(&truncated, &full[..full.len() / 2]).unwrap();

    for path in [&missing, &truncated] {
        let args = ["--validate", path.to_str().unwrap()];
        let out = benchsuite(&args);
        assert_exit(&out, 1, &args);
        let err = stderr(&out);
        assert_eq!(err.trim_end().lines().count(), 1, "{err}");
        assert!(err.contains(path.to_str().unwrap()), "{err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_committed_baseline_validates() {
    let bench_8 = committed("BENCH_8.json");
    let args = ["--validate", &bench_8];
    let out = benchsuite(&args);
    assert_exit(&out, 0, &args);
    assert!(String::from_utf8_lossy(&out.stdout).contains("valid trajectory"));
}

#[test]
fn the_gate_exits_1_on_a_regression_and_0_on_identical_documents() {
    let (bench_7, bench_8) = (committed("BENCH_7.json"), committed("BENCH_8.json"));

    // BENCH_8's matching rating moved grid-ga-anchor's mlga cut 67 -> 70.
    let args = ["--compare", &bench_7, &bench_8];
    let out = benchsuite(&args);
    assert_exit(&out, 1, &args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("FAIL") && l.contains("grid-ga-anchor")),
        "{stdout}"
    );

    let args = ["--compare", &bench_8, &bench_8];
    let out = benchsuite(&args);
    assert_exit(&out, 0, &args);
    assert!(String::from_utf8_lossy(&out.stdout).contains("gate passed"));
}
