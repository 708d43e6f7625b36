//! The durable session tape: append-only JSONL, one record per line.
//!
//! Every session the daemon manages writes its whole life to one tape
//! file (`<tape-dir>/<name>.tape`):
//!
//! ```text
//! {"t":"open","v":"1","spec":"parts=4 method=mlga ...","metis":"...","coords":"..."}
//! {"t":"batch","seq":"0","muts":"node 1 0.5 0.5;edge 0 1 1"}
//! {"t":"snapshot","batches":"8","epoch":"1","baseline_cut":"41","cut":"44","labels":"0 1 ...","metis":"...","coords":"..."}
//! {"t":"close","seq":"8"}
//! ```
//!
//! * The `open` record (always first) carries the canonical
//!   [`gapart_core::SessionSpec`] `key=value` string and the initial
//!   graph, so a recovery reconstructs the exact configuration.
//! * One `batch` record per committed batch, written *after* the batch
//!   applied successfully; `muts` is the single-line
//!   [`gapart_graph::dynamic::wire`] batch form. `seq` is the batch's
//!   0-based index — replay checks continuity.
//! * `snapshot` records (periodic, plus one on close) carry the full
//!   graph, labels, and the [`gapart_core::SessionState`] counters;
//!   recovery loads the latest snapshot and replays only the batch
//!   records after it.
//! * A torn final line (the record a crash interrupted) is tolerated
//!   and dropped; corruption anywhere else is an error.
//!
//! Records are flat JSON objects whose values are all strings — the
//! scanner below handles exactly that shape, keeping the format
//! greppable and diffable without pulling in a JSON dependency. Every
//! append is flushed before the daemon replies, so an acknowledged
//! commit survives a `SIGKILL`.
//!
//! Writing and reading run at memory speed without changing a byte of
//! the format. A line is rendered into one buffer sized before the first
//! byte is written; string values are escaped, and parsed back, by
//! copying each run of bytes that needs no escape in one piece. The
//! daemon's snapshots render straight from the live session
//! (`LiveSnapshot`): digits are written without `fmt`, the graph goes
//! through [`write_metis`] with a JSON-escaped line end, and no field is
//! built as a string of its own first. Reading streams one line at a
//! time (`scan_tape`), so recovery holds the latest snapshot and the
//! batches after it, never the whole tape.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead as _, BufReader, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use gapart_core::dynamic::SessionState;
use gapart_graph::io::{decimal_len, metis_len_bound, push_decimal, write_metis};
use gapart_graph::CsrGraph;

use crate::ServeError;

/// One tape record, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// First record of every tape: the session's spec and initial graph.
    Open {
        /// Canonical `key=value` spec string
        /// ([`gapart_core::SessionSpec::to_kv`]).
        spec: String,
        /// The initial graph in METIS text form.
        metis: String,
        /// Vertex coordinates (`x y` per line), when the graph has them.
        coords: Option<String>,
    },
    /// One committed mutation batch.
    Batch {
        /// 0-based batch index in the session.
        seq: usize,
        /// Single-line wire form of the batch
        /// ([`gapart_graph::dynamic::wire::format_batch`]).
        muts: String,
    },
    /// A full checkpoint of the session.
    Snapshot(Snapshot),
    /// Clean shutdown marker; `seq` is the number of batches absorbed.
    Close {
        /// Batches absorbed when the session closed.
        seq: usize,
    },
}

/// The payload of a [`Record::Snapshot`]: everything
/// [`gapart_core::SessionSpec::resume`] needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Batches absorbed at snapshot time.
    pub batches: usize,
    /// Epoch counter (full solves so far).
    pub epoch: usize,
    /// The epoch's baseline cut.
    pub baseline_cut: u64,
    /// The maintained cut (doubles as a resume integrity check).
    pub cut: u64,
    /// Space-separated part labels, one per node.
    pub labels: String,
    /// The graph at snapshot time, METIS text form.
    pub metis: String,
    /// Vertex coordinates, when the graph has them.
    pub coords: Option<String>,
}

/// Whether `b` must be escaped inside a JSON string: the quote, the
/// backslash and the control bytes. Every other byte, multi-byte UTF-8
/// included, is copied as it is.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Length of `s` once [`escape_into`] has escaped it.
fn escaped_len(s: &str) -> usize {
    let extra: usize = s
        .bytes()
        .filter(|&b| needs_escape(b))
        .map(|b| match b {
            b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 1,
            _ => 5,
        })
        .sum();
    s.len() + extra
}

/// Appends `s` to `out` as the body of a JSON string, copying each run of
/// bytes that needs no escape in one piece.
fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut rest = s;
    while let Some(i) = rest.bytes().position(needs_escape) {
        out.push_str(&rest[..i]);
        let b = rest.as_bytes()[i];
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        // The escaped byte is ASCII, so the next one starts a character.
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Writes one flat JSON object with string values, field by field, into
/// a buffer the caller sized.
struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, first: true }
    }

    /// Writes `"key":"…"`, where `value` appends the escaped body.
    fn field_with(&mut self, key: &str, value: impl FnOnce(&mut String)) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":\"");
        value(self.out);
        self.out.push('"');
    }

    fn field(&mut self, key: &str, value: &str) {
        self.field_with(key, |out| escape_into(value, out));
    }

    fn finish(self) {
        self.out.push('}');
    }
}

/// Bytes a field adds to an object line besides its value: the quotes
/// around key and value, the colon and a separating comma.
fn field_overhead(key: &str) -> usize {
    key.len() + 6
}

/// Renders `fields` as one JSON object line followed by `end`, into a
/// buffer of exactly the rendered length. Keys are the fixed field names,
/// which need no escape.
fn render(fields: &[(&str, Cow<'_, str>)], end: &str) -> String {
    let len = 1
        + end.len()
        + fields
            .iter()
            .map(|(k, v)| field_overhead(k) + escaped_len(v))
            .sum::<usize>();
    let mut out = String::with_capacity(len);
    let mut object = ObjectWriter::new(&mut out);
    for (k, v) in fields {
        object.field(k, v);
    }
    object.finish();
    out.push_str(end);
    out
}

/// A snapshot rendered from borrowed session state: the bytes of the
/// [`Record::Snapshot`] holding the space-joined labels, [`to_metis`] of
/// the graph and the coordinate text, written into one line sized up
/// front instead of through those intermediate strings.
///
/// [`to_metis`]: gapart_graph::io::to_metis
pub(crate) struct LiveSnapshot<'a> {
    /// The session's counters.
    pub(crate) state: SessionState,
    /// One part label per node.
    pub(crate) labels: &'a [u32],
    /// The session's graph.
    pub(crate) graph: &'a CsrGraph,
    /// The graph's coordinate text, when it has coordinates.
    pub(crate) coords: Option<&'a str>,
}

impl LiveSnapshot<'_> {
    const KEYS: [&'static str; 8] = [
        "t",
        "batches",
        "epoch",
        "baseline_cut",
        "cut",
        "labels",
        "metis",
        "coords",
    ];

    /// The record's tape line, trailing newline included.
    fn line(&self) -> String {
        let counters = [
            ("batches", self.state.batches as u64),
            ("epoch", self.state.epoch as u64),
            ("baseline_cut", self.state.baseline_cut),
            ("cut", self.state.current_cut),
        ];
        let label_width = self
            .labels
            .iter()
            .max()
            .map_or(0, |&l| decimal_len(l.into()) + 1);
        let len = 2
            + Self::KEYS.iter().map(|k| field_overhead(k)).sum::<usize>()
            + "snapshot".len()
            + counters.iter().map(|&(_, v)| decimal_len(v)).sum::<usize>()
            + self.labels.len() * label_width
            + metis_len_bound(self.graph, "\\n")
            + self.coords.map_or(0, escaped_len);
        let mut out = String::with_capacity(len);
        let mut object = ObjectWriter::new(&mut out);
        object.field("t", "snapshot");
        for (key, value) in counters {
            object.field_with(key, |out| push_decimal(out, value));
        }
        // Labels and METIS text are digits, spaces and line ends: only
        // the line ends need escaping, and `write_metis` writes them
        // escaped.
        object.field_with("labels", |out| {
            let mut sep = "";
            for &l in self.labels {
                out.push_str(sep);
                push_decimal(out, l.into());
                sep = " ";
            }
        });
        object.field_with("metis", |out| write_metis(self.graph, out, "\\n"));
        if let Some(coords) = self.coords {
            object.field("coords", coords);
        }
        object.finish();
        out.push('\n');
        debug_assert!(out.len() <= len, "the line outgrew its bound");
        out
    }
}

/// Scans one flat `{"k":"v",...}` object (string values only). String
/// values are copied run by run between escapes; a later duplicate key
/// replaces an earlier one.
fn parse_object(line: &str) -> Result<BTreeMap<String, String>, String> {
    let mut scan = Scanner {
        text: line.trim(),
        pos: 0,
    };
    let mut fields = BTreeMap::new();
    if scan.next_char() != Some('{') {
        return Err("expected '{'".into());
    }
    scan.skip_ws();
    if scan.rest().starts_with('}') {
        scan.pos += 1;
    } else {
        loop {
            scan.skip_ws();
            let key = scan.string()?;
            scan.skip_ws();
            if scan.next_char() != Some(':') {
                return Err(format!("expected ':' after key '{key}'"));
            }
            scan.skip_ws();
            let value = scan.string()?;
            fields.insert(key, value);
            scan.skip_ws();
            match scan.next_char() {
                Some(',') => continue,
                Some('}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    scan.skip_ws();
    if !scan.rest().is_empty() {
        return Err("trailing characters after object".into());
    }
    Ok(fields)
}

/// A cursor over one tape line. `pos` only ever advances past whole
/// characters, so every slice taken at it is on a character boundary.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn next_char(&mut self) -> Option<char> {
        let c = self.rest().chars().next()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        let rest = self.rest();
        self.pos += rest.len() - rest.trim_start().len();
    }

    /// Reads one JSON string, unescaping it.
    fn string(&mut self) -> Result<String, String> {
        if self.next_char() != Some('"') {
            return Err("expected '\"'".into());
        }
        let mut out = String::new();
        loop {
            let rest = self.rest();
            let Some(i) = rest.bytes().position(|b| b == b'"' || b == b'\\') else {
                return Err("unterminated string".into());
            };
            out.push_str(&rest[..i]);
            // Both stops are ASCII, so the byte after one is a boundary.
            self.pos += i + 1;
            if rest.as_bytes()[i] == b'"' {
                return Ok(out);
            }
            match self.next_char() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = self
                            .next_char()
                            .and_then(|c| c.to_digit(16))
                            .ok_or("bad \\u escape")?;
                        code = code * 16 + d;
                    }
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            }
        }
    }
}

/// Removes field `key`, which the record type requires.
fn take(fields: &mut BTreeMap<String, String>, key: &str) -> Result<String, String> {
    fields
        .remove(key)
        .ok_or_else(|| format!("missing field '{key}'"))
}

/// Removes and parses the required numeric field `key`.
fn take_num<T: std::str::FromStr>(
    fields: &mut BTreeMap<String, String>,
    key: &str,
) -> Result<T, String> {
    take(fields, key)?
        .parse()
        .map_err(|_| format!("bad number in '{key}'"))
}

impl Record {
    /// The record's fields in tape order, values unescaped.
    fn fields(&self) -> Vec<(&'static str, Cow<'_, str>)> {
        match self {
            Record::Open {
                spec,
                metis,
                coords,
            } => {
                let mut fields = vec![
                    ("t", "open".into()),
                    ("v", "1".into()),
                    ("spec", spec.into()),
                    ("metis", metis.into()),
                ];
                if let Some(c) = coords {
                    fields.push(("coords", c.into()));
                }
                fields
            }
            Record::Batch { seq, muts } => vec![
                ("t", "batch".into()),
                ("seq", seq.to_string().into()),
                ("muts", muts.into()),
            ],
            Record::Snapshot(s) => {
                let mut fields = vec![
                    ("t", "snapshot".into()),
                    ("batches", s.batches.to_string().into()),
                    ("epoch", s.epoch.to_string().into()),
                    ("baseline_cut", s.baseline_cut.to_string().into()),
                    ("cut", s.cut.to_string().into()),
                    ("labels", (&s.labels).into()),
                    ("metis", (&s.metis).into()),
                ];
                if let Some(c) = &s.coords {
                    fields.push(("coords", c.into()));
                }
                fields
            }
            Record::Close { seq } => vec![("t", "close".into()), ("seq", seq.to_string().into())],
        }
    }

    /// Serializes the record to its one-line tape form (no newline).
    pub fn to_line(&self) -> String {
        render(&self.fields(), "")
    }

    /// Parses one tape line. The message omits the line number; the
    /// caller adds it.
    pub fn parse_line(line: &str) -> Result<Record, String> {
        let mut fields = parse_object(line)?;
        let fields = &mut fields;
        match take(fields, "t")?.as_str() {
            "open" => {
                let v = take(fields, "v")?;
                if v != "1" {
                    return Err(format!("unsupported tape version '{v}'"));
                }
                Ok(Record::Open {
                    spec: take(fields, "spec")?,
                    metis: take(fields, "metis")?,
                    coords: fields.remove("coords"),
                })
            }
            "batch" => Ok(Record::Batch {
                seq: take_num(fields, "seq")?,
                muts: take(fields, "muts")?,
            }),
            "snapshot" => Ok(Record::Snapshot(Snapshot {
                batches: take_num(fields, "batches")?,
                epoch: take_num(fields, "epoch")?,
                baseline_cut: take_num(fields, "baseline_cut")?,
                cut: take_num(fields, "cut")?,
                labels: take(fields, "labels")?,
                metis: take(fields, "metis")?,
                coords: fields.remove("coords"),
            })),
            "close" => Ok(Record::Close {
                seq: take_num(fields, "seq")?,
            }),
            other => Err(format!("unknown record type '{other}'")),
        }
    }
}

/// Append-side handle on a session tape. Every [`TapeWriter::append`]
/// flushes before returning, so a record the daemon acknowledged is in
/// the page cache — a killed *process* loses nothing acknowledged
/// (tolerating torn final lines covers the mid-write kill).
#[derive(Debug)]
pub struct TapeWriter {
    path: PathBuf,
    file: File,
}

impl TapeWriter {
    /// Creates a fresh tape (the file must not exist yet).
    pub fn create(path: &Path) -> Result<Self, ServeError> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| ServeError::io(path, e))?;
        Ok(TapeWriter {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Opens an existing tape for appending (the recovery path). A torn
    /// final line — the crash artifact [`read_tape`] tolerates — is
    /// truncated away first, so the next append starts a fresh line
    /// instead of concatenating onto the fragment. The fragment is found
    /// by reading backwards from the end of the file.
    pub fn append_to(path: &Path) -> Result<Self, ServeError> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| ServeError::io(path, e))?;
        let len = file.metadata().map_err(|e| ServeError::io(path, e))?.len();
        let keep = complete_lines_len(&mut file, len).map_err(|e| ServeError::io(path, e))?;
        if keep < len {
            file.set_len(keep).map_err(|e| ServeError::io(path, e))?;
        }
        Ok(TapeWriter {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one record and flushes.
    pub fn append(&mut self, record: &Record) -> Result<(), ServeError> {
        self.write_line(&render(&record.fields(), "\n"))
    }

    /// Appends a snapshot rendered from live session state and flushes.
    pub(crate) fn append_snapshot(
        &mut self,
        snapshot: &LiveSnapshot<'_>,
    ) -> Result<(), ServeError> {
        self.write_line(&snapshot.line())
    }

    fn write_line(&mut self, line: &str) -> Result<(), ServeError> {
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| ServeError::io(&self.path, e))
    }
}

/// Length of the longest prefix of the first `len` bytes of `file` that
/// ends with a newline (all of them when the last byte is one), found by
/// reading backwards in fixed-size chunks.
fn complete_lines_len(file: &mut File, len: u64) -> std::io::Result<u64> {
    const CHUNK: u64 = 64 * 1024;
    let mut buf = vec![0u8; CHUNK as usize];
    let mut end = len;
    while end > 0 {
        let start = end.saturating_sub(CHUNK);
        let chunk = &mut buf[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(chunk)?;
        if let Some(i) = chunk.iter().rposition(|&b| b == b'\n') {
            return Ok(start + i as u64 + 1);
        }
        end = start;
    }
    Ok(0)
}

/// The text of one line read with its terminator: a trailing `\n`, and a
/// `\r` before it, are stripped, as [`str::lines`] does.
fn line_text(raw: &[u8]) -> std::io::Result<&str> {
    let raw = match raw.strip_suffix(b"\n") {
        Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
        None => raw,
    };
    std::str::from_utf8(raw).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })
}

/// Streams the records of the tape at `path` to `visit`, in order,
/// holding one line in memory at a time. Returns whether a torn final
/// line (a record interrupted by a crash) was dropped.
///
/// A line that does not parse is held back until the next line arrives:
/// if none does it was the torn tail, otherwise the tape is corrupt.
///
/// # Errors
///
/// [`ServeError::Io`] on read failure; [`ServeError::Tape`] when any
/// line but the last is malformed, or the tape does not start with an
/// `open` record (no record is visited then); whatever `visit` returns.
pub(crate) fn scan_tape(
    path: &Path,
    mut visit: impl FnMut(Record) -> Result<(), ServeError>,
) -> Result<bool, ServeError> {
    let file = File::open(path).map_err(|e| ServeError::io(path, e))?;
    let mut reader = BufReader::with_capacity(1 << 16, file);
    let mut raw = Vec::new();
    let mut line_no = 0usize;
    let mut unparsed: Option<ServeError> = None;
    // Whether the first record is an `open`, once one was read.
    let mut opens: Option<bool> = None;
    loop {
        raw.clear();
        let read = reader
            .read_until(b'\n', &mut raw)
            .map_err(|e| ServeError::io(path, e))?;
        if read == 0 {
            break;
        }
        if let Some(error) = unparsed.take() {
            return Err(error);
        }
        line_no += 1;
        let line = line_text(&raw).map_err(|e| ServeError::io(path, e))?;
        if line.trim().is_empty() {
            continue;
        }
        match Record::parse_line(line) {
            Ok(record) => {
                if *opens.get_or_insert(matches!(record, Record::Open { .. })) {
                    visit(record)?;
                }
            }
            Err(message) => {
                unparsed = Some(ServeError::Tape {
                    line: line_no,
                    message,
                })
            }
        }
    }
    match opens {
        Some(true) => Ok(unparsed.is_some()),
        Some(false) => Err(ServeError::Tape {
            line: 1,
            message: "tape does not start with an open record".into(),
        }),
        None => Err(ServeError::Tape {
            line: 1,
            message: "tape is empty".into(),
        }),
    }
}

/// Reads a whole tape. Returns the records plus whether a torn final
/// line (a record interrupted by a crash) was dropped.
///
/// # Errors
///
/// [`ServeError::Io`] on read failure; [`ServeError::Tape`] when any
/// line but the last is malformed, or the tape does not start with an
/// `open` record.
pub fn read_tape(path: &Path) -> Result<(Vec<Record>, bool), ServeError> {
    let mut records = Vec::new();
    let dropped_tail = scan_tape(path, |record| {
        records.push(record);
        Ok(())
    })?;
    Ok((records, dropped_tail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_their_line_form() {
        let records = [
            Record::Open {
                spec: "parts=4 method=mlga refine=fm seed=7 threshold=1.5 hops=2".into(),
                metis: "3 2\n2 3\n1 3\n1 2\n".into(),
                coords: Some("0.5 0.5\n1 2\n3 4\n".into()),
            },
            Record::Open {
                spec: "parts=2".into(),
                metis: "1 0\n".into(),
                coords: None,
            },
            Record::Batch {
                seq: 12,
                muts: "node 1 0.25 0.75;edge 0 1 1;weight 2 5".into(),
            },
            Record::Snapshot(Snapshot {
                batches: 8,
                epoch: 2,
                baseline_cut: 41,
                cut: 44,
                labels: "0 1 2 1".into(),
                metis: "4 3\n2\n1 3\n2 4\n3\n".into(),
                coords: None,
            }),
            Record::Close { seq: 9 },
        ];
        for r in &records {
            let line = r.to_line();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(&Record::parse_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn escapes_survive_hostile_strings() {
        let spec = "quote\" backslash\\ newline\n tab\t nul\u{0} unicode\u{00e9}";
        let r = Record::Open {
            spec: spec.into(),
            metis: String::new(),
            coords: None,
        };
        assert_eq!(Record::parse_line(&r.to_line()).unwrap(), r);
    }

    #[test]
    fn malformed_lines_are_named_errors() {
        assert!(Record::parse_line("not json").is_err());
        assert!(
            Record::parse_line("{\"t\":\"open\"}").is_err(),
            "missing fields"
        );
        assert!(
            Record::parse_line("{\"t\":\"frob\"}").is_err(),
            "unknown type"
        );
        assert!(Record::parse_line("{\"t\":\"batch\",\"seq\":\"x\",\"muts\":\"\"}").is_err());
        assert!(
            Record::parse_line("{\"t\":\"close\",\"seq\":\"1\"} extra").is_err(),
            "trailing garbage"
        );
    }

    #[test]
    fn read_tape_tolerates_only_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("gapart-tape-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let open = Record::Open {
            spec: "parts=2".into(),
            metis: "1 0\n".into(),
            coords: None,
        };
        let batch = Record::Batch {
            seq: 0,
            muts: "weight 0 2".into(),
        };

        // Torn tail: dropped, flagged.
        let torn = dir.join("torn.tape");
        std::fs::write(
            &torn,
            format!("{}\n{}\n{{\"t\":\"ba", open.to_line(), batch.to_line()),
        )
        .unwrap();
        let (records, dropped) = read_tape(&torn).unwrap();
        assert_eq!(records, vec![open.clone(), batch.clone()]);
        assert!(dropped);

        // Corruption mid-tape: hard error with the line number.
        let corrupt = dir.join("corrupt.tape");
        std::fs::write(
            &corrupt,
            format!("{}\ngarbage\n{}\n", open.to_line(), batch.to_line()),
        )
        .unwrap();
        assert!(matches!(
            read_tape(&corrupt).unwrap_err(),
            ServeError::Tape { line: 2, .. }
        ));

        // A tape that does not open with an open record is invalid.
        let headless = dir.join("headless.tape");
        std::fs::write(&headless, format!("{}\n", batch.to_line())).unwrap();
        assert!(matches!(
            read_tape(&headless).unwrap_err(),
            ServeError::Tape { line: 1, .. }
        ));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A malformed line is the torn tail only when nothing follows it —
    /// not even a blank line — exactly as with `str::lines` over the
    /// whole text; `\r\n` line ends read like `\n`.
    #[test]
    fn streaming_reader_keeps_the_line_contract() {
        let dir = std::env::temp_dir().join(format!("gapart-tapes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let open = Record::Open {
            spec: "parts=2".into(),
            metis: "1 0\n".into(),
            coords: None,
        };
        let close = Record::Close { seq: 0 };
        let (o, c) = (open.to_line(), close.to_line());
        let read = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            read_tape(&path)
        };

        let (records, dropped) =
            read("crlf.tape", &format!("{o}\r\n\r\n{c}\r\n{{\"t\":\"cl")).unwrap();
        assert_eq!(records, vec![open.clone(), close.clone()]);
        assert!(dropped);

        // Followed by a blank line, a malformed line is corruption.
        assert!(matches!(
            read("blank-after.tape", &format!("{o}\n{{\"t\":\"cl\n\n")).unwrap_err(),
            ServeError::Tape { line: 2, .. }
        ));
        // A complete but malformed last line is still the tail.
        let (records, dropped) = read("bad-last.tape", &format!("{o}\n{c}\ngarbage\n")).unwrap();
        assert_eq!(records, vec![open.clone(), close]);
        assert!(dropped);
        // A headless tape is rejected even when a later line is torn.
        assert!(matches!(
            read(
                "headless-torn.tape",
                "{\"t\":\"close\",\"seq\":\"0\"}\n{\"t"
            )
            .unwrap_err(),
            ServeError::Tape { line: 1, .. }
        ));
        assert!(matches!(
            read("empty.tape", "\n\n").unwrap_err(),
            ServeError::Tape { line: 1, .. }
        ));

        let path = dir.join("binary.tape");
        std::fs::write(&path, [o.as_bytes(), b"\n\xff\xfe\n"].concat()).unwrap();
        assert!(matches!(
            read_tape(&path).unwrap_err(),
            ServeError::Io { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The backwards search finds the last newline across chunk
    /// boundaries, and truncates a tape with none to nothing.
    #[test]
    fn append_to_truncates_a_torn_tail_of_any_length() {
        let dir = std::env::temp_dir().join(format!("gapart-tapet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tape");
        let head = "{\"t\":\"close\",\"seq\":\"0\"}\n".repeat(3);
        for torn in [0usize, 1, 65_535, 65_536, 200_000] {
            let text = format!("{head}{}", "x".repeat(torn));
            std::fs::write(&path, &text).unwrap();
            drop(TapeWriter::append_to(&path).unwrap());
            assert_eq!(std::fs::read_to_string(&path).unwrap(), head, "torn {torn}");
        }
        std::fs::write(&path, "x".repeat(70_000)).unwrap();
        let mut w = TapeWriter::append_to(&path).unwrap();
        w.append(&Record::Close { seq: 1 }).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"t\":\"close\",\"seq\":\"1\"}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_appends_flushed_lines() {
        let dir = std::env::temp_dir().join(format!("gapart-tapew-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.tape");

        let open = Record::Open {
            spec: "parts=2".into(),
            metis: "1 0\n".into(),
            coords: None,
        };
        let mut w = TapeWriter::create(&path).unwrap();
        w.append(&open).unwrap();
        assert!(
            TapeWriter::create(&path).is_err(),
            "create refuses to clobber"
        );

        // Reopen for append, add a record, and read everything back.
        drop(w);
        let mut w = TapeWriter::append_to(&path).unwrap();
        let close = Record::Close { seq: 0 };
        w.append(&close).unwrap();
        drop(w);
        let (records, dropped) = read_tape(&path).unwrap();
        assert_eq!(records, vec![open, close]);
        assert!(!dropped);

        std::fs::remove_dir_all(&dir).ok();
    }
}
