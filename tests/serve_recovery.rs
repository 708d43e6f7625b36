//! Process-level crash recovery for `gapart-cli serve`: a daemon killed
//! with SIGKILL mid-session (after acknowledging some commits) must,
//! on the next `serve` run, recover from its tape and — after replaying
//! the remaining workload — land on the exact labelling hash of both an
//! uninterrupted `serve` run and the `stream` subcommand over the same
//! trace. This is the serve leg of the workspace determinism matrix,
//! exercised the way an operator would hit it: across real processes.
//! The socket daemon must also survive clients that break their own
//! connection, keeping every in-memory session.

use gapart::graph::dynamic::trace::trace_to_text;
use gapart::graph::dynamic::{wire, Mutation};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

const SEED: &str = "9";
const PARTS: &str = "4";

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gapart-cli"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gapart-serve-recovery-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic coordinate-free workload: edges, weight changes, and a
/// few added nodes per batch.
fn workload(start_nodes: u32) -> Vec<Vec<Mutation>> {
    let mut nodes = start_nodes;
    (0..6u32)
        .map(|b| {
            (0..5u32)
                .map(|i| match (b + i) % 3 {
                    0 => {
                        nodes += 1;
                        Mutation::AddNode {
                            weight: 1 + i,
                            pos: None,
                        }
                    }
                    1 => Mutation::AddEdge {
                        u: (b * 13 + i) % nodes,
                        v: (b * 29 + i * 7 + 1) % nodes,
                        weight: 1 + (i % 3),
                    },
                    _ => Mutation::SetNodeWeight {
                        node: (b * 17 + i * 3) % start_nodes,
                        weight: 1 + i,
                    },
                })
                .collect()
        })
        .collect()
}

/// An interactive handle on a running `serve` daemon.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(tape_dir: &Path) -> Self {
        let mut child = cli()
            .args(["serve", "--tape-dir", tape_dir.to_str().unwrap()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Daemon {
            child,
            stdin,
            stdout,
        }
    }

    /// Sends one command and reads its (flushed) reply line.
    fn exec(&mut self, command: &str) -> String {
        writeln!(self.stdin, "{command}").unwrap();
        self.stdin.flush().unwrap();
        let mut reply = String::new();
        self.stdout.read_line(&mut reply).unwrap();
        assert!(
            reply.starts_with("ok "),
            "'{command}' failed: {}",
            reply.trim_end()
        );
        reply.trim_end().to_string()
    }

    fn kill(mut self) {
        self.child.kill().unwrap();
        self.child.wait().unwrap();
    }

    /// Closes stdin (EOF) and waits for a clean exit.
    fn finish(self) -> String {
        drop(self.stdin);
        let out = self.child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "serve exited {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    }
}

fn kv(reply: &str, key: &str) -> String {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in '{reply}'"))
        .to_string()
}

#[test]
fn killed_daemon_recovers_to_the_uninterrupted_hash() {
    let dir = temp_dir("kill");
    let graph = dir.join("g.metis");
    let gs = graph.to_str().unwrap();
    assert!(cli()
        .args(["gen", "--kind", "mesh", "--nodes", "110", "--seed", "7", "--out", gs])
        .status()
        .unwrap()
        .success());
    let batches = workload(110);
    let trace = dir.join("t.trace");
    let ts = trace.to_str().unwrap();
    std::fs::write(&trace, trace_to_text(&batches)).unwrap();

    // Leg 1 — `stream` over the whole trace, the in-process reference.
    let out = cli()
        .args([
            "stream", gs, "--trace", ts, "--parts", PARTS, "--seed", SEED,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let want_hash = stdout
        .lines()
        .find_map(|l| l.strip_prefix("labels hash: "))
        .unwrap_or_else(|| panic!("no hash line in:\n{stdout}"))
        .to_string();

    // Leg 2 — uninterrupted serve replaying the same trace.
    let mut d = Daemon::spawn(&dir.join("tapes-clean"));
    d.exec(&format!("open s graph={gs} parts={PARTS} seed={SEED}"));
    let reply = d.exec(&format!("replay s trace={ts}"));
    assert_eq!(kv(&reply, "hash"), want_hash, "serve diverged from stream");
    d.finish();

    // Leg 3 — serve killed with SIGKILL after half the batches
    // (committed one mutate at a time, the interactive path), then a
    // fresh process recovers the tape and replays the rest.
    let tapes = dir.join("tapes-crash");
    let mut d = Daemon::spawn(&tapes);
    d.exec(&format!("open s graph={gs} parts={PARTS} seed={SEED}"));
    for batch in &batches[..3] {
        for m in batch {
            d.exec(&format!("mutate s {}", wire::format_mutation(m)));
        }
        d.exec("commit s");
    }
    d.kill(); // no close record, no final snapshot — a real crash

    let mut d = Daemon::spawn(&tapes);
    let reply = d.exec("open s");
    assert_eq!(kv(&reply, "recovered"), "1");
    assert_eq!(kv(&reply, "batches"), "3");
    let reply = d.exec(&format!("replay s trace={ts}"));
    assert_eq!(kv(&reply, "applied"), "3");
    assert_eq!(kv(&reply, "batches"), "6");
    assert_eq!(
        kv(&reply, "hash"),
        want_hash,
        "recovered serve diverged from the uninterrupted runs"
    );
    d.exec("close s");
    d.finish();

    // The closed tape recovers instantly (snapshot at the tip).
    let mut d = Daemon::spawn(&tapes);
    let reply = d.exec("open s");
    assert_eq!(kv(&reply, "replayed"), "0");
    assert_eq!(kv(&reply, "hash"), want_hash);
    d.finish();

    std::fs::remove_dir_all(&dir).ok();
}

/// A client that hangs up before reading its reply (the reply write hits
/// EPIPE), and one that sends a line that is not UTF-8, each end only
/// their own connection: the socket daemon keeps its sessions in memory
/// and serves the next client.
#[test]
fn socket_daemon_outlives_clients_that_drop_their_connection() {
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    let dir = temp_dir("hangup");
    let graph = dir.join("g.metis");
    let gs = graph.to_str().unwrap();
    assert!(cli()
        .args(["gen", "--kind", "mesh", "--nodes", "110", "--seed", "7", "--out", gs])
        .status()
        .unwrap()
        .success());
    let socket = dir.join("d.sock");
    let daemon = cli()
        .args([
            "serve",
            "--tape-dir",
            dir.join("tapes").to_str().unwrap(),
            "--socket",
            socket.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let connect = || {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match UnixStream::connect(&socket) {
                Ok(stream) => return stream,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("daemon not accepting on {}: {e}", socket.display()),
            }
        }
    };

    // Client 1 opens a session and hangs up without reading the reply.
    // Shutting its read side first makes the daemon's reply write fail
    // with EPIPE however the two processes are scheduled.
    let mut hangup = connect();
    hangup.shutdown(std::net::Shutdown::Read).unwrap();
    writeln!(hangup, "open s graph={gs} parts={PARTS} seed={SEED}").unwrap();
    drop(hangup);

    // Client 2 sends bytes that are not UTF-8, and waits for the daemon
    // to end the connection (EOF, or a reset if it left bytes unread).
    let mut garbage = connect();
    garbage.write_all(b"query \xff\xfe s\n").unwrap();
    let mut rest = Vec::new();
    let _ = std::io::Read::read_to_end(&mut garbage, &mut rest);
    assert!(rest.is_empty(), "no reply to a line that is not UTF-8");

    // Client 3 finds client 1's session.
    let client = connect();
    let mut replies = BufReader::new(client.try_clone().unwrap());
    let mut ask = |command: &str| {
        writeln!(&client, "{command}").unwrap();
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };
    let reply = ask("query s");
    assert!(reply.starts_with("ok "), "session lost: {reply}");
    assert_eq!(kv(&reply, "nodes"), "110");
    assert_eq!(kv(&reply, "batches"), "0");
    assert!(ask("shutdown").starts_with("ok"));

    let out = daemon.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "serve exited {:?}: {stderr}",
        out.status.code()
    );
    assert_eq!(
        stderr.matches("dropped a connection").count(),
        2,
        "both broken connections reported:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
