//! `gapart-serve` — the multi-session partition daemon.
//!
//! The ROADMAP's "partition-as-a-service" direction, concretely: a
//! long-running process that keeps many named
//! [`gapart_core::DynamicSession`]s warm (one per tenant graph),
//! accepts commands over a newline-delimited protocol
//! ([`protocol`]) on stdio or a Unix socket, and records every
//! session's life as an append-only JSONL tape with periodic snapshots
//! ([`tape`]). Crash recovery is "load snapshot, replay tail" — and
//! because the session's batch counter (which feeds the per-batch
//! sub-seed) is part of the snapshot, a recovered session's labelling
//! is bit-identical to the uninterrupted run at any thread count.
//!
//! The crate sits between `gapart-core` (sessions) and the facade CLI
//! (the `gapart serve` subcommand): it never names concrete
//! partitioners, taking a [`gapart_core::MethodResolver`] instead, so
//! the method registry stays in one place (the facade) without a
//! dependency cycle.
//!
//! Layering:
//!
//! * [`tape`] — durable record format and reader/writer.
//! * [`session`] — one managed session: engine + tape + pending buffer.
//! * [`protocol`] — command grammar.
//! * this module — the daemon: session map, command execution, the
//!   serve loops (any `BufRead`/`Write` pair, or a Unix socket).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gapart_core::dynamic::{BatchAction, DynamicError, MethodResolver, SessionSpec, SpecError};
use gapart_graph::dynamic::trace::parse_trace;
use gapart_graph::dynamic::wire;
use gapart_graph::io::{attach_coords, coords_from_text, from_metis};
use gapart_graph::CsrGraph;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};

pub mod protocol;
pub mod session;
pub mod tape;

use protocol::{parse_command, Command};
use session::ManagedSession;

/// Anything the daemon can report to a client or its operator.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem failure, with the path involved.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying IO error, rendered.
        message: String,
    },
    /// A malformed tape (1-based line number).
    Tape {
        /// Line of the offending record.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A malformed or unknown protocol command.
    Protocol(String),
    /// An invalid session parameter (shared grammar with the CLI).
    Spec(SpecError),
    /// The session engine rejected an operation.
    Session(DynamicError),
    /// Inconsistent persisted state (tape gaps, bad snapshots).
    State(String),
}

impl ServeError {
    fn io(path: &Path, e: std::io::Error) -> Self {
        ServeError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        }
    }

    /// Stable one-word classification, the second token of `err` replies.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Io { .. } => "io",
            ServeError::Tape { .. } => "tape",
            ServeError::Protocol(_) => "protocol",
            ServeError::Spec(_) => "spec",
            ServeError::Session(_) => "session",
            ServeError::State(_) => "state",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { path, message } => write!(f, "{}: {message}", path.display()),
            ServeError::Tape { line, message } => write!(f, "tape line {line}: {message}"),
            ServeError::Protocol(m) => write!(f, "{m}"),
            ServeError::Spec(e) => write!(f, "{e}"),
            ServeError::Session(e) => write!(f, "{e}"),
            ServeError::State(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory holding one `<name>.tape` per session (created on
    /// daemon startup).
    pub tape_dir: PathBuf,
    /// Snapshot cadence: a checkpoint record is appended after every
    /// this-many committed batches (plus one on close). `0` disables
    /// periodic snapshots (close still writes one).
    pub snapshot_every: usize,
}

impl ServeConfig {
    /// Default configuration over `tape_dir` (snapshot every 8 batches).
    pub fn new(tape_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            tape_dir: tape_dir.into(),
            snapshot_every: 8,
        }
    }
}

/// What a serve loop did, for the CLI's exit-code mapping: any `err`
/// reply makes the run exit non-zero even though the daemon kept
/// serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Commands executed (excluding blank/comment lines).
    pub commands: usize,
    /// Commands that produced an `err` reply.
    pub errors: usize,
    /// Whether a `shutdown` command ended the loop (vs input EOF).
    pub shutdown: bool,
}

/// The daemon: named sessions over one tape directory.
pub struct Daemon {
    config: ServeConfig,
    resolver: MethodResolver,
    sessions: BTreeMap<String, ManagedSession>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("tape_dir", &self.config.tape_dir)
            .field("sessions", &self.sessions.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Daemon {
    /// Creates a daemon over `config.tape_dir` (created if absent).
    /// `resolver` maps method names to partitioners — pass the facade's
    /// `partitioners::by_name`.
    pub fn new(config: ServeConfig, resolver: MethodResolver) -> Result<Self, ServeError> {
        std::fs::create_dir_all(&config.tape_dir)
            .map_err(|e| ServeError::io(&config.tape_dir, e))?;
        Ok(Daemon {
            config,
            resolver,
            sessions: BTreeMap::new(),
        })
    }

    /// Open session names, in order.
    pub fn session_names(&self) -> Vec<&str> {
        self.sessions.keys().map(String::as_str).collect()
    }

    /// Closes every open session cleanly (final snapshot + close
    /// marker). The `shutdown` command's other half; the CLI also calls
    /// it when stdin reaches EOF without a `shutdown`.
    pub fn close_all(&mut self) -> Result<usize, ServeError> {
        let mut closed = 0usize;
        while let Some((_, session)) = self.sessions.pop_first() {
            session.close()?;
            closed += 1;
        }
        Ok(closed)
    }

    fn tape_path(&self, name: &str) -> PathBuf {
        self.config.tape_dir.join(format!("{name}.tape"))
    }

    fn session_mut(&mut self, name: &str) -> Result<&mut ManagedSession, ServeError> {
        self.sessions
            .get_mut(name)
            .ok_or_else(|| ServeError::Protocol(format!("no open session '{name}'")))
    }

    fn load_graph(&self, graph: &str, coords: Option<&str>) -> Result<CsrGraph, ServeError> {
        let graph_path = Path::new(graph);
        let text =
            std::fs::read_to_string(graph_path).map_err(|e| ServeError::io(graph_path, e))?;
        let g = from_metis(&text).map_err(|e| ServeError::State(format!("{graph}: {e}")))?;
        match coords {
            None => Ok(g),
            Some(cp) => {
                let coords_path = Path::new(cp);
                let ctext = std::fs::read_to_string(coords_path)
                    .map_err(|e| ServeError::io(coords_path, e))?;
                let cs = coords_from_text(&ctext)
                    .map_err(|e| ServeError::State(format!("{cp}: {e}")))?;
                attach_coords(&g, cs).map_err(|e| ServeError::State(format!("{cp}: {e}")))
            }
        }
    }

    fn cmd_open(&mut self, name: &str, params: &[(String, String)]) -> Result<String, ServeError> {
        if self.sessions.contains_key(name) {
            return Err(ServeError::Protocol(format!(
                "session '{name}' is already open"
            )));
        }
        let tape_path = self.tape_path(name);
        if tape_path.exists() {
            if !params.is_empty() {
                return Err(ServeError::Protocol(format!(
                    "session '{name}' has a tape; recovery takes no parameters"
                )));
            }
            let (session, replayed) = ManagedSession::recover(&tape_path, self.resolver)?;
            let reply = format!(
                "name={name} recovered=1 replayed={replayed} {}",
                status_kv(&session)
            );
            self.sessions.insert(name.to_string(), session);
            return Ok(reply);
        }

        // Fresh session: graph= plus session-spec keys.
        let mut graph_path = None;
        let mut coords_path = None;
        let mut spec = SessionSpec::new(0);
        let mut saw_parts = false;
        for (k, v) in params {
            match k.as_str() {
                "graph" => graph_path = Some(v.as_str()),
                "coords" => coords_path = Some(v.as_str()),
                _ => {
                    spec.set(k, v).map_err(ServeError::Spec)?;
                    saw_parts |= k == "parts";
                }
            }
        }
        let Some(graph_path) = graph_path else {
            return Err(ServeError::Protocol(format!(
                "no tape for '{name}': opening a new session needs graph=<path>"
            )));
        };
        if !saw_parts {
            return Err(ServeError::Spec(SpecError::MissingParts));
        }
        let graph = self.load_graph(graph_path, coords_path)?;
        let session = ManagedSession::open(spec, graph, &tape_path, self.resolver)?;
        let reply = format!("name={name} recovered=0 replayed=0 {}", status_kv(&session));
        self.sessions.insert(name.to_string(), session);
        Ok(reply)
    }

    /// Executes one already-parsed command; `Ok` is the payload after
    /// `ok `.
    fn run_command(&mut self, cmd: &Command) -> Result<String, ServeError> {
        match cmd {
            Command::Open { name, params } => self.cmd_open(name, params),
            Command::Mutate { name, mutation } => {
                let m = wire::parse_mutation(mutation).map_err(|e| ServeError::Protocol(e.0))?;
                let session = self.session_mut(name)?;
                let id = session.push_mutation(m);
                let mut reply = format!("pending={}", session.pending());
                if let Some(id) = id {
                    let _ = write!(reply, " id={id}");
                }
                Ok(reply)
            }
            Command::Commit { name } => {
                let snapshot_every = self.config.snapshot_every;
                let session = self.session_mut(name)?;
                let rec = session.commit(snapshot_every)?;
                Ok(format!(
                    "batch={} cut={} epoch={} action={}",
                    rec.batch,
                    rec.cut_after,
                    rec.epoch,
                    match rec.action {
                        BatchAction::Incremental => "incremental",
                        BatchAction::FullRepartition => "full",
                    }
                ))
            }
            Command::Query { name } => {
                let session = self.session_mut(name)?;
                Ok(status_kv(session))
            }
            Command::Snapshot { name } => {
                let session = self.session_mut(name)?;
                session.snapshot()?;
                Ok(format!("batches={}", session.inner().state().batches))
            }
            Command::Replay { name, trace, from } => {
                let trace_path = Path::new(trace.as_str());
                let text = std::fs::read_to_string(trace_path)
                    .map_err(|e| ServeError::io(trace_path, e))?;
                let batches =
                    parse_trace(&text).map_err(|e| ServeError::State(format!("{trace}: {e}")))?;
                let snapshot_every = self.config.snapshot_every;
                let session = self.session_mut(name)?;
                let from = from.unwrap_or(session.inner().state().batches);
                let applied = session.replay(&batches, from, snapshot_every)?;
                Ok(format!("applied={applied} {}", status_kv(session)))
            }
            Command::Close { name } => {
                let session = self
                    .sessions
                    .remove(name)
                    .ok_or_else(|| ServeError::Protocol(format!("no open session '{name}'")))?;
                session.close()?;
                Ok(format!("closed={name}"))
            }
            Command::Sessions => Ok(format!(
                "sessions={} names={}",
                self.sessions.len(),
                self.session_names().join(",")
            )),
            Command::Shutdown => {
                let closed = self.close_all()?;
                Ok(format!("closed={closed}"))
            }
        }
    }

    /// Executes one protocol line and renders the reply (without
    /// newline). Returns the reply plus whether it was a shutdown.
    pub fn execute(&mut self, line: &str) -> (String, bool, bool) {
        match parse_command(line) {
            Err(e) => (format!("err {} {e}", e.kind()), true, false),
            Ok(cmd) => {
                let is_shutdown = cmd == Command::Shutdown;
                match self.run_command(&cmd) {
                    Ok(payload) => (format!("ok {payload}"), false, is_shutdown),
                    Err(e) => (format!("err {} {e}", e.kind()), true, false),
                }
            }
        }
    }
}

/// The common status payload: size, cut, counters, pending buffer, and
/// the determinism-witness hash (same function as the CLI's
/// `labels hash` line and the bench schema's `partition_hash`).
fn status_kv(session: &ManagedSession) -> String {
    let inner = session.inner();
    let state = inner.state();
    format!(
        "nodes={} edges={} cut={} epoch={} batches={} pending={} hash={}",
        inner.graph().num_nodes(),
        inner.graph().num_edges(),
        state.current_cut,
        state.epoch,
        state.batches,
        session.pending(),
        session.labels_hash()
    )
}

/// The longest protocol line the daemon reads, in bytes, newline
/// excluded. The longest legal command, an `open` with two paths, is far
/// below it; a longer line is a transport error, so a stream without
/// newlines cannot make the daemon buffer without bound.
pub const MAX_LINE: usize = 64 * 1024;

/// Runs the daemon over any line stream: one command per input line,
/// one reply per command. Blank lines and `#` comments are skipped
/// without a reply. Every reply is flushed before the next command is
/// read, so interleaved process-level clients see replies promptly.
///
/// # Errors
///
/// Only transport IO errors; command failures become `err` replies and
/// are tallied in the summary. A line that is not UTF-8 or is longer
/// than [`MAX_LINE`] is an [`std::io::ErrorKind::InvalidData`] error.
pub fn serve<R: BufRead, W: Write>(
    daemon: &mut Daemon,
    input: R,
    output: &mut W,
) -> Result<ServeSummary, std::io::Error> {
    let mut summary = ServeSummary::default();
    serve_into(daemon, input, output, &mut summary)?;
    Ok(summary)
}

/// [`serve`]'s loop, tallying into `summary` so that the commands a
/// connection ran before a transport error still count.
fn serve_into<R: BufRead, W: Write>(
    daemon: &mut Daemon,
    mut input: R,
    output: &mut W,
    summary: &mut ServeSummary,
) -> Result<(), std::io::Error> {
    let invalid = |why: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, why);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells a full-length line from a longer one.
        input
            .by_ref()
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut buf)?;
        if buf.is_empty() {
            break; // EOF
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_LINE {
            return Err(invalid(&format!(
                "protocol line longer than {MAX_LINE} bytes"
            )));
        }
        let line = std::str::from_utf8(&buf).map_err(|_| invalid("protocol line is not UTF-8"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (reply, errored, shutdown) = daemon.execute(trimmed);
        summary.commands += 1;
        summary.errors += usize::from(errored);
        writeln!(output, "{reply}")?;
        output.flush()?;
        if shutdown {
            summary.shutdown = true;
            break;
        }
    }
    Ok(())
}

/// Serves connections on a Unix socket at `socket_path`, sequentially
/// (one session protocol stream at a time — determinism over
/// throughput). Each connection runs [`serve`]; the daemon (and its
/// open sessions) persists across connections. A transport error on a
/// connection, such as a client that hangs up before reading its reply,
/// a line that is not UTF-8 or one longer than [`MAX_LINE`], ends only
/// that connection: it is
/// reported on stderr and the daemon goes on accepting. A `shutdown`
/// command ends the accept loop and removes the socket file.
///
/// # Errors
///
/// [`ServeError::Io`] on bind/accept failures.
pub fn serve_unix(daemon: &mut Daemon, socket_path: &Path) -> Result<ServeSummary, ServeError> {
    use std::os::unix::net::UnixListener;
    // A stale socket file from a previous run blocks bind.
    if socket_path.exists() {
        std::fs::remove_file(socket_path).map_err(|e| ServeError::io(socket_path, e))?;
    }
    let listener = UnixListener::bind(socket_path).map_err(|e| ServeError::io(socket_path, e))?;
    let mut total = ServeSummary::default();
    loop {
        let (stream, _) = listener
            .accept()
            .map_err(|e| ServeError::io(socket_path, e))?;
        let served = stream.try_clone().and_then(|reader| {
            let mut writer = stream;
            serve_into(
                daemon,
                std::io::BufReader::new(reader),
                &mut writer,
                &mut total,
            )
        });
        if let Err(e) = served {
            eprintln!("serve: dropped a connection: {e}");
        }
        if total.shutdown {
            break;
        }
    }
    std::fs::remove_file(socket_path).ok();
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapart_core::engine::GaConfig;
    use gapart_core::partitioner_impl::GaPartitioner;
    use gapart_graph::generators::jittered_mesh;
    use gapart_graph::io::to_metis;
    use gapart_graph::multilevel::MultilevelPartitioner;
    use gapart_graph::Partitioner;

    fn resolve(name: &str) -> Option<Box<dyn Partitioner>> {
        (name == "mlga").then(|| {
            Box::new(MultilevelPartitioner::new(Box::new(GaPartitioner::new(
                GaConfig::coarse_defaults(4),
            )))) as Box<dyn Partitioner>
        })
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gapart-serve-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn kv(reply: &str, key: &str) -> String {
        reply
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("no {key}= in '{reply}'"))
            .to_string()
    }

    #[test]
    fn full_protocol_session_lifecycle() {
        let dir = temp_dir("lifecycle");
        let g = jittered_mesh(120, 11);
        let gp = dir.join("g.metis");
        std::fs::write(&gp, to_metis(&g)).unwrap();

        let mut d = Daemon::new(ServeConfig::new(dir.join("tapes")), resolve).unwrap();
        let script = format!(
            "# comment, then a blank line\n\n\
             open mesh graph={} parts=4 seed=9 threshold=inf\n\
             mutate mesh edge 0 5 2\n\
             mutate mesh node 3\n\
             mutate mesh edge 0 120 1\n\
             commit mesh\n\
             query mesh\n\
             sessions\n\
             snapshot mesh\n\
             close mesh\n\
             query mesh\n\
             shutdown\n",
            gp.display()
        );
        let mut out = Vec::new();
        let summary = serve(&mut d, script.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();

        assert_eq!(summary.commands, 11);
        assert_eq!(summary.errors, 1, "query after close errs:\n{out}");
        assert!(summary.shutdown);

        assert!(lines[0].starts_with("ok name=mesh recovered=0"), "{out}");
        assert_eq!(kv(lines[0], "nodes"), "120");
        assert_eq!(lines[1], "ok pending=1");
        assert_eq!(lines[2], "ok pending=2 id=120", "new node id is predicted");
        assert_eq!(lines[3], "ok pending=3");
        assert!(kv(lines[4], "action") == "incremental", "{out}");
        assert_eq!(kv(lines[5], "nodes"), "121");
        assert_eq!(kv(lines[5], "batches"), "1");
        assert_eq!(kv(lines[5], "pending"), "0");
        assert_eq!(lines[6], "ok sessions=1 names=mesh");
        assert_eq!(lines[7], "ok batches=1");
        assert_eq!(lines[8], "ok closed=mesh");
        assert!(lines[9].starts_with("err protocol"), "{out}");
        assert_eq!(lines[10], "ok closed=0");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_to_the_same_hash() {
        let dir = temp_dir("reopen");
        let g = jittered_mesh(120, 11);
        let gp = dir.join("g.metis");
        std::fs::write(&gp, to_metis(&g)).unwrap();
        let tapes = dir.join("tapes");

        // First run: open, one batch, then drop the daemon WITHOUT
        // closing (simulating a crash after the commit ack).
        let mut d = Daemon::new(ServeConfig::new(&tapes), resolve).unwrap();
        let script = format!(
            "open mesh graph={} parts=4 seed=9\nmutate mesh edge 0 5 2\ncommit mesh\nquery mesh\n",
            gp.display()
        );
        let mut out = Vec::new();
        serve(&mut d, script.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let live_hash = kv(out.lines().last().unwrap(), "hash");
        drop(d);

        // Second daemon recovers from the tape alone.
        let mut d = Daemon::new(ServeConfig::new(&tapes), resolve).unwrap();
        let mut out = Vec::new();
        serve(&mut d, "open mesh\nquery mesh\n".as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("ok name=mesh recovered=1"), "{out}");
        assert_eq!(kv(lines[0], "replayed"), "1");
        assert_eq!(kv(lines[1], "hash"), live_hash, "{out}");

        // Opening an existing tape with parameters is an error.
        let (reply, errored, _) = d.execute("open mesh graph=g parts=4");
        assert!(errored, "{reply}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_bad_specs_and_missing_graphs() {
        let dir = temp_dir("badopen");
        let mut d = Daemon::new(ServeConfig::new(dir.join("tapes")), resolve).unwrap();
        for (line, kind) in [
            ("open s1 parts=4", "protocol"),              // no graph=, no tape
            ("open s1 graph=nope.metis parts=4", "io"),   // graph file missing
            ("open s1 graph=nope.metis", "spec"),         // parts missing
            ("open s1 graph=nope.metis parts=0", "spec"), // parts invalid
            ("open s1 graph=nope.metis parts=2 frob=1", "spec"),
            ("mutate s1 edge 0 1 1", "protocol"), // not open
            ("mutate s1 frob 1", "protocol"),     // bad wire op
        ] {
            let (reply, errored, _) = d.execute(line);
            assert!(errored, "{line} -> {reply}");
            assert_eq!(
                reply.split_whitespace().nth(1),
                Some(kind),
                "{line} -> {reply}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_line_past_the_cap_is_a_transport_error_with_no_reply() {
        let dir = temp_dir("longline");
        let mut d = Daemon::new(ServeConfig::new(dir.join("tapes")), resolve).unwrap();
        // A MiB without a newline: the reader stops one byte past the cap.
        let flood = std::io::BufReader::new(std::io::repeat(b'a').take(1 << 20));
        let mut out = Vec::new();
        let err = serve(&mut d, flood, &mut out).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(out.is_empty(), "replied to an over-long line");

        // A line of exactly MAX_LINE bytes is still read and answered,
        // and so is a last line without a newline.
        let mut script = vec![b'x'; MAX_LINE];
        script.extend_from_slice(b"\nsessions");
        let mut out = Vec::new();
        let summary = serve(&mut d, &script[..], &mut out).unwrap();
        assert_eq!(summary.commands, 2);
        let out = String::from_utf8(out).unwrap();
        let replies: Vec<&str> = out.lines().collect();
        assert!(replies[0].starts_with("err protocol"), "{out}");
        assert_eq!(replies[1], "ok sessions=0 names=");
        std::fs::remove_dir_all(&dir).ok();
    }
}
