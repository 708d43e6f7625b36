//! Byte-identity oracles for the tape's writer and reader.
//!
//! Records are rendered into buffers sized up front, escaped and parsed
//! by copying whole runs of bytes, and the daemon's snapshots render
//! straight from live session state. The straightforward versions they
//! replaced are preserved below as references: the char-by-char escaper
//! and scanner, and the snapshot built from space-joined label strings,
//! `to_metis` and the formatted coordinates. The new code must match
//! them byte for byte, and error for error.

use gapart_core::dynamic::SessionSpec;
use gapart_core::engine::GaConfig;
use gapart_core::partitioner_impl::GaPartitioner;
use gapart_graph::dynamic::scenario::{generate, Scenario, TraceSpec};
use gapart_graph::generators::jittered_mesh;
use gapart_graph::io::{coords_to_text, from_metis, to_metis};
use gapart_graph::multilevel::MultilevelPartitioner;
use gapart_graph::Partitioner;
use gapart_serve::session::ManagedSession;
use gapart_serve::tape::{Record, Snapshot};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The char-by-char JSON escaper.
fn reference_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn reference_object_line(fields: &[(&str, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        reference_escape_into(k, &mut out);
        out.push_str("\":\"");
        reference_escape_into(v, &mut out);
        out.push('"');
    }
    out.push('}');
    out
}

/// `Record::to_line` as it was: field strings formatted, then escaped
/// char by char.
fn reference_to_line(record: &Record) -> String {
    match record {
        Record::Open {
            spec,
            metis,
            coords,
        } => {
            let mut fields = vec![("t", "open"), ("v", "1"), ("spec", spec), ("metis", metis)];
            if let Some(c) = coords {
                fields.push(("coords", c));
            }
            reference_object_line(&fields)
        }
        Record::Batch { seq, muts } => {
            let seq = seq.to_string();
            reference_object_line(&[("t", "batch"), ("seq", &seq), ("muts", muts)])
        }
        Record::Snapshot(s) => {
            let batches = s.batches.to_string();
            let epoch = s.epoch.to_string();
            let baseline = s.baseline_cut.to_string();
            let cut = s.cut.to_string();
            let mut fields = vec![
                ("t", "snapshot"),
                ("batches", batches.as_str()),
                ("epoch", epoch.as_str()),
                ("baseline_cut", baseline.as_str()),
                ("cut", cut.as_str()),
                ("labels", s.labels.as_str()),
                ("metis", s.metis.as_str()),
            ];
            if let Some(c) = &s.coords {
                fields.push(("coords", c));
            }
            reference_object_line(&fields)
        }
        Record::Close { seq } => {
            let seq = seq.to_string();
            reference_object_line(&[("t", "close"), ("seq", &seq)])
        }
    }
}

type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

fn reference_skip_ws(chars: &mut Chars<'_>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn reference_string(chars: &mut Chars<'_>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .and_then(|c| c.to_digit(16))
                            .ok_or("bad \\u escape")?;
                        code = code * 16 + d;
                    }
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

/// The char-by-char object scanner.
fn reference_parse_object(line: &str) -> Result<BTreeMap<String, String>, String> {
    let mut chars = line.trim().chars().peekable();
    let mut fields = BTreeMap::new();
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    reference_skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            reference_skip_ws(&mut chars);
            let key = reference_string(&mut chars)?;
            reference_skip_ws(&mut chars);
            if chars.next() != Some(':') {
                return Err(format!("expected ':' after key '{key}'"));
            }
            reference_skip_ws(&mut chars);
            let value = reference_string(&mut chars)?;
            fields.insert(key, value);
            reference_skip_ws(&mut chars);
            match chars.next() {
                Some(',') => continue,
                Some('}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    reference_skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after object".into());
    }
    Ok(fields)
}

/// `Record::parse_line` as it was, over the char-by-char scanner.
fn reference_parse_line(line: &str) -> Result<Record, String> {
    let fields = reference_parse_object(line)?;
    let get = |k: &str| -> Result<&String, String> {
        fields.get(k).ok_or_else(|| format!("missing field '{k}'"))
    };
    let num = |k: &str| -> Result<usize, String> {
        get(k)?.parse().map_err(|_| format!("bad number in '{k}'"))
    };
    let num64 = |k: &str| -> Result<u64, String> {
        get(k)?.parse().map_err(|_| format!("bad number in '{k}'"))
    };
    match get("t")?.as_str() {
        "open" => {
            if get("v")? != "1" {
                return Err(format!("unsupported tape version '{}'", get("v")?));
            }
            Ok(Record::Open {
                spec: get("spec")?.clone(),
                metis: get("metis")?.clone(),
                coords: fields.get("coords").cloned(),
            })
        }
        "batch" => Ok(Record::Batch {
            seq: num("seq")?,
            muts: get("muts")?.clone(),
        }),
        "snapshot" => Ok(Record::Snapshot(Snapshot {
            batches: num("batches")?,
            epoch: num("epoch")?,
            baseline_cut: num64("baseline_cut")?,
            cut: num64("cut")?,
            labels: get("labels")?.clone(),
            metis: get("metis")?.clone(),
            coords: fields.get("coords").cloned(),
        })),
        "close" => Ok(Record::Close { seq: num("seq")? }),
        other => Err(format!("unknown record type '{other}'")),
    }
}

/// A hostile string: quotes, backslashes, every control byte, DEL,
/// multi-byte UTF-8 (2, 3 and 4 bytes), JSON-looking fragments and
/// plain runs, in random order.
fn hostile(picks: &[u32]) -> String {
    const PIECES: [&str; 12] = [
        "\"",
        "\\",
        "\u{7f}",
        "é",
        "€",
        "😀",
        "\\u0041",
        "\":\"",
        "}{",
        "plain run of text ",
        " ",
        "0 1 2\n",
    ];
    let mut s = String::new();
    for &p in picks {
        match p % 3 {
            // Every control character.
            0 => s.push(char::from_u32(p / 3 % 0x20).unwrap()),
            1 => s.push_str(PIECES[(p / 3) as usize % PIECES.len()]),
            _ => s.push(char::from_u32(0x20 + p / 3 % 0x5f).unwrap()),
        }
    }
    s
}

fn arb_record() -> impl Strategy<Value = Record> {
    (
        0u8..4,
        (vec(any::<u32>(), 0..40), vec(any::<u32>(), 0..40)),
        vec(any::<u32>(), 0..40),
        (any::<usize>(), any::<u64>(), any::<bool>()),
    )
        .prop_map(|(kind, (a, b), c, (n, m, coords))| {
            let (a, b, c) = (hostile(&a), hostile(&b), hostile(&c));
            match kind {
                0 => Record::Open {
                    spec: a,
                    metis: b,
                    coords: coords.then_some(c),
                },
                1 => Record::Batch { seq: n, muts: a },
                2 => Record::Snapshot(Snapshot {
                    batches: n,
                    epoch: n / 3,
                    baseline_cut: m,
                    cut: m / 7,
                    labels: a,
                    metis: b,
                    coords: coords.then_some(c),
                }),
                _ => Record::Close { seq: n },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn lines_match_the_char_by_char_writer(record in arb_record()) {
        let line = record.to_line();
        prop_assert_eq!(&line, &reference_to_line(&record));
        prop_assert_eq!(line.capacity(), line.len(), "the line was sized exactly");
        prop_assert_eq!(Record::parse_line(&line), Ok(record));
    }

    /// Damaged lines — cut short, a byte replaced, or padded — parse to
    /// the same record or fail with the same message as the old scanner.
    #[test]
    fn damaged_lines_fail_like_the_char_by_char_scanner(
        record in arb_record(),
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in 0u8..0x80,
        damage in 0u8..4,
    ) {
        let line = record.to_line();
        let mut end = cut % (line.len() + 1);
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        let mut pos = at % line.len().max(1);
        while !line.is_char_boundary(pos) {
            pos -= 1;
        }
        let damaged = match damage {
            0 => line[..end].to_string(),
            1 => format!("{}{}{}", &line[..pos], char::from(byte), &line[pos..]),
            2 => {
                let next = line[pos..].chars().next().map_or(pos, |c| pos + c.len_utf8());
                format!("{}{}{}", &line[..pos], char::from(byte), &line[next..])
            }
            _ => format!(" \u{2003}{line}\u{a0} \t"),
        };
        prop_assert_eq!(Record::parse_line(&damaged), reference_parse_line(&damaged));
    }
}

fn resolve(name: &str) -> Option<Box<dyn Partitioner>> {
    (name == "mlga").then(|| {
        Box::new(MultilevelPartitioner::new(Box::new(GaPartitioner::new(
            GaConfig::coarse_defaults(4),
        )))) as Box<dyn Partitioner>
    })
}

/// The snapshot line as it was built: labels formatted one by one and
/// joined with spaces, the graph through `to_metis`, the coordinates
/// formatted again.
fn reference_snapshot_line(session: &ManagedSession) -> String {
    let inner = session.inner();
    let state = inner.state();
    let labels: Vec<String> = inner
        .partition()
        .labels()
        .iter()
        .map(u32::to_string)
        .collect();
    reference_to_line(&Record::Snapshot(Snapshot {
        batches: state.batches,
        epoch: state.epoch,
        baseline_cut: state.baseline_cut,
        cut: state.current_cut,
        labels: labels.join(" "),
        metis: to_metis(inner.graph()),
        coords: inner.graph().coords().map(coords_to_text),
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A snapshot after every commit, each compared with the reference
    /// rendering of the session state it was taken from; with and
    /// without coordinates, and with weighted graphs.
    #[test]
    fn live_snapshots_match_the_joined_label_snapshot(
        nodes in 40usize..120,
        seed in any::<u64>(),
        with_coords in any::<bool>(),
        batches in 1usize..6,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "gapart-tape-bytes-{}-{seed}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mesh = jittered_mesh(nodes, seed);
        let spec = TraceSpec { batches, ops_per_batch: 4, seed };
        let trace = generate(&mesh, Scenario::MeshGrowth, &spec).unwrap();
        let graph = if with_coords { mesh } else { from_metis(&to_metis(&mesh)).unwrap() };
        let spec = SessionSpec::parse_kv("parts=4 seed=5").unwrap();
        let tape = dir.join("s.tape");
        let mut session = ManagedSession::open(spec, graph, &tape, resolve).unwrap();
        for batch in &trace {
            for m in batch {
                session.push_mutation(m.clone());
            }
            session.commit(1).unwrap();
            let text = std::fs::read_to_string(&tape).unwrap();
            let last = text.lines().last().unwrap();
            prop_assert!(last.starts_with("{\"t\":\"snapshot\""));
            let want = reference_snapshot_line(&session);
            prop_assert_eq!(last, want.as_str());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
