//! The METIS reader against the reader it replaced, and under arbitrary
//! input.
//!
//! * Oracle: on valid documents, decorated the ways outside files are
//!   (comments, blank lines, `\r\n`, tabs and runs of spaces, `+` signs,
//!   leading zeros, unsorted rows, doubled entries, lines after the last
//!   row), and on mutated ones (truncation, token edits, one-sided and
//!   weight-mismatched entries, zero weights, wrong counts and formats),
//!   `io::from_metis` returns exactly what the old reader
//!   (`support/metis_reference.rs`) returns: the same graph or the same
//!   error.
//! * Fuzz: on arbitrary strings and character-flipped documents the
//!   reader returns instead of panicking, every graph it returns is a
//!   valid CSR graph, and writing it back reads back the same graph.

#[path = "support/metis_reference.rs"]
mod metis_reference;

use gapart_graph::io::{from_metis, to_metis};
use gapart_graph::GraphError;
use metis_reference::from_metis_reference;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One vertex row before rendering: its weight and its (0-based
/// neighbour, edge weight) entries in listed order.
#[derive(Clone, Debug)]
struct Row {
    weight: u32,
    entries: Vec<(u32, u32)>,
}

/// A document before rendering.
#[derive(Clone, Debug)]
struct Doc {
    n: usize,
    m: usize,
    fmt: Option<&'static str>,
    has_vw: bool,
    has_ew: bool,
    rows: Vec<Row>,
    /// Lines after the n-th row, which the reader never looks at.
    trailing: Vec<&'static str>,
}

/// A random graph with and without vertex and edge weights, isolated
/// vertices included, some edges listed two to four times on both rows,
/// and rows shuffled or sorted.
fn random_doc(rng: &mut StdRng) -> Doc {
    let n = rng.gen_range(0..24usize);
    let (has_vw, has_ew) = (rng.gen_bool(0.4), rng.gen_bool(0.5));
    let mut rows: Vec<Row> = (0..n)
        .map(|_| Row {
            weight: if has_vw { rng.gen_range(1..20) } else { 1 },
            entries: Vec::new(),
        })
        .collect();
    let mut pairs = BTreeSet::new();
    if n >= 2 {
        for _ in 0..rng.gen_range(0..n * 2) {
            let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if u != v {
                pairs.insert((u.min(v), u.max(v)));
            }
        }
    }
    let double = rng.gen_bool(0.3);
    for &(u, v) in &pairs {
        let copies = if double && rng.gen_bool(0.3) {
            rng.gen_range(2..5)
        } else {
            1
        };
        for _ in 0..copies {
            let w = if has_ew { rng.gen_range(1..40) } else { 1 };
            rows[u as usize].entries.push((v, w));
            rows[v as usize].entries.push((u, w));
        }
    }
    if rng.gen_bool(0.4) {
        for row in &mut rows {
            row.entries.shuffle(rng);
        }
    }
    let fmts: &[Option<&'static str>] = match (has_vw, has_ew) {
        (false, false) => &[None, Some("0"), Some("00"), Some("000")],
        (false, true) => &[Some("1"), Some("01"), Some("001")],
        (true, false) => &[Some("10"), Some("010")],
        (true, true) => &[Some("11"), Some("011")],
    };
    let fmt = *fmts.choose(rng).unwrap();
    let trailing = if rng.gen_bool(0.3) {
        vec!["1 2 3", "", "garbage é here", "% late comment"]
    } else {
        Vec::new()
    };
    Doc {
        n,
        m: pairs.len(),
        fmt,
        has_vw,
        has_ew,
        rows,
        trailing,
    }
}

/// How a document is written out.
struct Style {
    crlf: bool,
    comments: bool,
    blanks_before: bool,
    pad: bool,
    plus: bool,
    zeros: bool,
    /// Separator palette: plain, tabs and runs, ASCII controls, or
    /// Unicode spaces.
    seps: &'static [&'static str],
}

fn random_style(rng: &mut StdRng) -> Style {
    const SEPS: [&[&str]; 4] = [
        &[" "],
        &[" ", "  ", "\t", " \t  "],
        &[" ", "\u{b}", "\u{c}", "\r"],
        &[" ", "\u{a0}", "\u{3000}", "\u{2003}"],
    ];
    Style {
        crlf: rng.gen_bool(0.3),
        comments: rng.gen_bool(0.4),
        blanks_before: rng.gen_bool(0.3),
        pad: rng.gen_bool(0.3),
        plus: rng.gen_bool(0.2),
        zeros: rng.gen_bool(0.2),
        seps: SEPS.choose(rng).unwrap(),
    }
}

fn render(doc: &Doc, style: &Style, rng: &mut StdRng) -> String {
    let eol = if style.crlf { "\r\n" } else { "\n" };
    let num = |rng: &mut StdRng, x: u64| {
        let mut s = String::new();
        if style.plus && rng.gen_bool(0.3) {
            s.push('+');
        }
        if style.zeros && rng.gen_bool(0.3) {
            s.push_str(&"0".repeat(rng.gen_range(1..4)));
        }
        s + &x.to_string()
    };
    let line = |rng: &mut StdRng, toks: Vec<String>, out: &mut String| {
        if style.pad && rng.gen_bool(0.3) {
            out.push_str(" \t");
        }
        for (i, tok) in toks.iter().enumerate() {
            if i > 0 {
                out.push_str(style.seps.choose(rng).unwrap());
            }
            out.push_str(tok);
        }
        if style.pad && rng.gen_bool(0.3) {
            out.push_str("  ");
        }
        out.push_str(eol);
    };
    let mut out = String::new();
    if style.blanks_before {
        out.push_str(eol);
        out.push_str("   ");
        out.push_str(eol);
    }
    if style.comments {
        out.push_str("% a METIS graph, résumé");
        out.push_str(eol);
    }
    let mut header = vec![num(rng, doc.n as u64), num(rng, doc.m as u64)];
    header.extend(doc.fmt.map(str::to_string));
    line(rng, header, &mut out);
    for row in &doc.rows {
        if style.comments && rng.gen_bool(0.15) {
            out.push_str(if rng.gen_bool(0.5) {
                "%"
            } else {
                "  % indented 1 2"
            });
            out.push_str(eol);
        }
        let mut toks = Vec::new();
        if doc.has_vw {
            toks.push(num(rng, row.weight.into()));
        }
        for &(u, w) in &row.entries {
            toks.push(num(rng, u64::from(u) + 1));
            if doc.has_ew {
                toks.push(num(rng, w.into()));
            }
        }
        line(rng, toks, &mut out);
    }
    for t in &doc.trailing {
        out.push_str(t);
        out.push_str(eol);
    }
    out
}

/// One structural edit that makes most documents wrong in one way.
fn mutate_doc(doc: &mut Doc, rng: &mut StdRng) {
    // Rows stay as generated while an earlier edit may have moved `doc.n`.
    let n = doc.rows.len();
    let some_row = |rng: &mut StdRng, doc: &Doc| {
        let with_entries: Vec<usize> = (0..doc.rows.len())
            .filter(|&v| !doc.rows[v].entries.is_empty())
            .collect();
        with_entries.choose(rng).copied()
    };
    match rng.gen_range(0..9) {
        // One-sided removal.
        0 => {
            if let Some(v) = some_row(rng, doc) {
                let i = rng.gen_range(0..doc.rows[v].entries.len());
                doc.rows[v].entries.remove(i);
            }
        }
        // One-sided addition, possibly a self-loop or out of range.
        1 => {
            if n > 0 {
                let v = rng.gen_range(0..n);
                let u = rng.gen_range(0..n as u32 + 2);
                let w = rng.gen_range(1..40);
                doc.rows[v].entries.push((u, w));
            }
        }
        // One copy's weight changes.
        2 => {
            if let Some(v) = some_row(rng, doc) {
                let i = rng.gen_range(0..doc.rows[v].entries.len());
                doc.rows[v].entries[i].1 = rng.gen_range(0..40);
            }
        }
        // Both copies of one edge weigh zero.
        3 => {
            if let Some(v) = some_row(rng, doc) {
                let u = doc.rows[v].entries[0].0;
                for (row, other) in [(v, u), (u as usize, v as u32)] {
                    let Some(row) = doc.rows.get_mut(row) else {
                        continue;
                    };
                    for e in &mut row.entries {
                        if e.0 == other {
                            e.1 = 0;
                        }
                    }
                }
            }
        }
        // A vertex weighs zero.
        4 => {
            if n > 0 {
                doc.rows[rng.gen_range(0..n)].weight = 0;
            }
        }
        // Wrong edge count.
        5 => {
            doc.m = if rng.gen_bool(0.5) {
                doc.m + 1
            } else {
                rng.gen_range(0..50)
            }
        }
        // Wrong node count.
        6 => doc.n = (doc.n + rng.gen_range(0..3usize)).saturating_sub(1),
        // Wrong or unsupported format.
        7 => {
            doc.fmt = [
                None,
                Some("1"),
                Some("010"),
                Some("11"),
                Some("2"),
                Some("0011"),
            ]
            .choose(rng)
            .copied()
            .unwrap();
        }
        // A row lists one neighbour twice, the other row once.
        _ => {
            if let Some(v) = some_row(rng, doc) {
                let e = doc.rows[v].entries[0];
                doc.rows[v].entries.push(e);
            }
        }
    }
}

/// Tokens an edit may put in: numbers in and out of range, signs,
/// leading zeros past 19 digits, overflowing and non-numeric words.
const TOKENS: [&str; 15] = [
    "0",
    "1",
    "2",
    "3",
    "+",
    "-1",
    "x",
    "1.5",
    "é1",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "00000000000000000000002",
    "+07",
];

/// One textual edit: truncation, or a token deleted, doubled or replaced.
fn mutate_text(text: &str, rng: &mut StdRng) -> String {
    let spans: Vec<(usize, usize)> = {
        let mut spans = Vec::new();
        let mut start = None;
        for (i, c) in text.char_indices() {
            match (c.is_whitespace(), start) {
                (false, None) => start = Some(i),
                (true, Some(s)) => {
                    spans.push((s, i));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            spans.push((s, text.len()));
        }
        spans
    };
    let cut = |at: usize| {
        text.char_indices()
            .map(|(i, _)| i)
            .find(|&i| i >= at)
            .unwrap_or(text.len())
    };
    match (rng.gen_range(0..4), spans.choose(rng)) {
        (0, _) | (_, None) => text[..cut(rng.gen_range(0..=text.len()))].to_string(),
        (1, Some(&(s, e))) => format!("{}{}", &text[..s], &text[e..]),
        (2, Some(&(s, e))) => format!("{} {}", &text[..e], &text[s..]),
        (_, Some(&(s, e))) => format!(
            "{}{}{}",
            &text[..s],
            TOKENS.choose(rng).unwrap(),
            &text[e..]
        ),
    }
}

/// Whether the old reader can be run on `text`: it allocates the header's
/// node count before reading a row, so a huge count would abort the test.
fn reference_can_read(text: &str) -> bool {
    let header = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.starts_with('%'))
        .find(|l| !l.is_empty());
    match header.and_then(|h| h.split_whitespace().next()) {
        Some(tok) => tok.parse::<usize>().map_or(true, |n| n <= 1 << 16),
        None => true,
    }
}

fn valid_text(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let doc = random_doc(&mut rng);
    let style = random_style(&mut rng);
    render(&doc, &style, &mut rng)
}

fn mutated_text(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut doc = random_doc(&mut rng);
    let style = random_style(&mut rng);
    for _ in 0..rng.gen_range(0..3) {
        mutate_doc(&mut doc, &mut rng);
    }
    let mut text = render(&doc, &style, &mut rng);
    if rng.gen_bool(0.5) {
        text = mutate_text(&text, &mut rng);
    }
    text
}

/// Characters an arbitrary document is drawn from: digits, every kind
/// of whitespace the reader meets, signs, comment marks and non-ASCII.
const PALETTE: [char; 22] = [
    '0', '1', '2', '3', '4', '9', ' ', ' ', '\n', '\n', '\r', '\t', '\u{b}', '%', '+', '-', 'x',
    '\u{a0}', '\u{3000}', 'é', '\u{1c}', '\u{0}',
];

fn arbitrary_text(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    if rng.gen_bool(0.5) {
        let len = rng.gen_range(0..120);
        return (0..len)
            .map(|_| *PALETTE.choose(&mut rng).unwrap())
            .collect();
    }
    // A valid document with characters flipped, inserted or deleted, and
    // sometimes a huge node count.
    let mut chars: Vec<char> = valid_text(rng.gen()).chars().collect();
    for _ in 0..rng.gen_range(1..5) {
        let at = rng.gen_range(0..=chars.len());
        let c = *PALETTE.choose(&mut rng).unwrap();
        match rng.gen_range(0..3) {
            0 if at < chars.len() => chars[at] = c,
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, c),
        }
    }
    let text: String = chars.into_iter().collect();
    if rng.gen_bool(0.2) {
        let huge = rng.gen_range(1u64 << 20..=u64::MAX);
        return format!("{huge} 3\n{text}");
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn valid_documents_read_as_the_old_reader_read_them(seed in any::<u64>()) {
        let text = valid_text(seed);
        let got = from_metis(&text);
        prop_assert!(got.is_ok(), "{got:?} on {text:?}");
        prop_assert_eq!(got, from_metis_reference(&text), "on {:?}", text);
    }

    #[test]
    fn mutated_documents_fail_as_the_old_reader_failed(seed in any::<u64>()) {
        let text = mutated_text(seed);
        prop_assume!(reference_can_read(&text));
        prop_assert_eq!(from_metis(&text), from_metis_reference(&text), "on {:?}", text);
    }

    #[test]
    fn arbitrary_text_returns_valid_graphs_or_errors(seed in any::<u64>()) {
        let text = arbitrary_text(seed);
        let got = from_metis(&text);
        if let Ok(g) = &got {
            prop_assert!(g.validate().is_ok(), "invalid graph from {text:?}");
            let again = from_metis(&to_metis(g));
            prop_assert_eq!(again.as_ref(), Ok(g));
        }
        if reference_can_read(&text) {
            prop_assert_eq!(got, from_metis_reference(&text), "on {:?}", text);
        }
    }
}

/// The mutations reach every error the reader can give on a small
/// document, so the oracle above compares every error path.
#[test]
fn mutations_reach_every_error() {
    let mut seen = BTreeSet::new();
    for seed in 0..3000 {
        let text = mutated_text(seed);
        if !reference_can_read(&text) {
            continue;
        }
        let kind = match from_metis(&text) {
            Ok(_) => "ok",
            Err(GraphError::ZeroNodeWeight { .. }) => "zero node weight",
            Err(GraphError::ZeroEdgeWeight { .. }) => "zero edge weight",
            Err(GraphError::Parse { message, .. }) => [
                "empty document",
                "missing node count",
                "bad node count",
                "missing edge count",
                "bad edge count",
                "unsupported fmt",
                "vertex lines",
                "missing vertex weight",
                "bad vertex weight",
                "bad neighbour",
                "out of 1..=",
                "missing edge weight",
                "bad edge weight",
                "lists itself",
                "adjacency must be symmetric",
                "has weight",
                "header claims",
            ]
            .into_iter()
            .find(|k| message.contains(k))
            .unwrap_or("other parse error"),
            Err(_) => "other error",
        };
        seen.insert(kind);
    }
    // "missing node count" cannot happen: the header is the first line
    // with a token.
    for kind in [
        "ok",
        "zero node weight",
        "zero edge weight",
        "empty document",
        "bad node count",
        "missing edge count",
        "bad edge count",
        "unsupported fmt",
        "vertex lines",
        "missing vertex weight",
        "bad vertex weight",
        "bad neighbour",
        "out of 1..=",
        "missing edge weight",
        "bad edge weight",
        "lists itself",
        "adjacency must be symmetric",
        "has weight",
        "header claims",
    ] {
        assert!(
            seen.contains(kind),
            "no mutated document gave {kind:?}: {seen:?}"
        );
    }
    assert!(
        !seen.contains("other parse error") && !seen.contains("other error"),
        "{seen:?}"
    );
}
