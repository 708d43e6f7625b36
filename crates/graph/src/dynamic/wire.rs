//! The one wire codec for mutation streams.
//!
//! Every surface that moves mutations around — the `trace` text format
//! ([`super::trace`]), the CLI `stream` replay path, the `gapart serve`
//! protocol's `mutate` command, and the daemon's JSONL session tape —
//! speaks this grammar. One mutation is one line (or one `;`-separated
//! segment inside a single-line batch):
//!
//! ```text
//! node <weight> [<x> <y>]
//! edge <u> <v> <weight>
//! weight <node> <weight>
//! ```
//!
//! The codec round-trips exactly: [`parse_mutation`] ∘ [`format_mutation`]
//! and [`parse_batch`] ∘ [`format_batch`] are identities (pinned by
//! proptests in `crates/graph/tests/proptest_wire.rs`). Coordinates use
//! Rust's shortest-round-trip float formatting, so positions survive the
//! text crossing bit for bit.
//!
//! Structural validity (ids in range, nonzero weights) is *not* checked
//! here — that is [`super::apply_batch`]'s job, exactly as for mutations
//! built in memory.

use super::Mutation;
use crate::geometry::Point2;
use std::fmt::Write as _;

/// A malformed wire line. Carries only the message; framing layers (the
/// trace parser, the tape reader, the serve protocol) wrap it with their
/// own location information (line number, record index, command name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

fn num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, WireError> {
    tok.parse()
        .map_err(|_| WireError(format!("bad {what} '{tok}'")))
}

/// Renders one mutation in the wire grammar (no trailing newline).
pub fn format_mutation(m: &Mutation) -> String {
    let mut out = String::new();
    let _ = match m {
        Mutation::AddNode { weight, pos: None } => write!(out, "node {weight}"),
        Mutation::AddNode {
            weight,
            pos: Some(p),
        } => write!(out, "node {weight} {} {}", p.x, p.y),
        Mutation::AddEdge { u, v, weight } => write!(out, "edge {u} {v} {weight}"),
        Mutation::SetNodeWeight { node, weight } => write!(out, "weight {node} {weight}"),
    };
    out
}

/// Parses one wire line into a [`Mutation`].
///
/// # Errors
///
/// [`WireError`] naming the offending token or op; the input line is
/// never partially consumed.
pub fn parse_mutation(line: &str) -> Result<Mutation, WireError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    match toks.as_slice() {
        ["node", w] => Ok(Mutation::AddNode {
            weight: num(w, "node weight")?,
            pos: None,
        }),
        ["node", w, x, y] => Ok(Mutation::AddNode {
            weight: num(w, "node weight")?,
            pos: Some(Point2::new(
                num(x, "x coordinate")?,
                num(y, "y coordinate")?,
            )),
        }),
        ["edge", u, v, w] => Ok(Mutation::AddEdge {
            u: num(u, "node id")?,
            v: num(v, "node id")?,
            weight: num(w, "edge weight")?,
        }),
        ["weight", n, w] => Ok(Mutation::SetNodeWeight {
            node: num(n, "node id")?,
            weight: num(w, "node weight")?,
        }),
        [] => Err(WireError("empty mutation".into())),
        [op, rest @ ..] => Err(WireError(format!(
            "unknown or malformed op '{op}' with {} operand(s)",
            rest.len()
        ))),
    }
}

/// Renders a whole batch on a single line: mutations in order, joined by
/// `;`. An empty batch renders as the empty string.
pub fn format_batch(batch: &[Mutation]) -> String {
    let mut out = String::new();
    for (i, m) in batch.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(&format_mutation(m));
    }
    out
}

/// Parses a single-line `;`-separated batch. A blank line is the empty
/// batch.
///
/// # Errors
///
/// [`WireError`] from the first malformed segment (a trailing or doubled
/// `;` counts — segments may not be empty).
pub fn parse_batch(line: &str) -> Result<Vec<Mutation>, WireError> {
    if line.trim().is_empty() {
        return Ok(Vec::new());
    }
    line.split(';').map(parse_mutation).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_round_trips() {
        let muts = [
            Mutation::AddNode {
                weight: 3,
                pos: None,
            },
            Mutation::AddNode {
                weight: 1,
                pos: Some(Point2::new(0.31, -0.70)),
            },
            Mutation::AddEdge {
                u: 12,
                v: 240,
                weight: 1,
            },
            Mutation::SetNodeWeight { node: 7, weight: 3 },
        ];
        for m in &muts {
            assert_eq!(&parse_mutation(&format_mutation(m)).unwrap(), m);
        }
        assert_eq!(parse_batch(&format_batch(&muts)).unwrap(), muts);
        assert_eq!(parse_batch(&format_batch(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn floats_survive_the_text_crossing_exactly() {
        let m = Mutation::AddNode {
            weight: 1,
            pos: Some(Point2::new(0.1 + 0.2, 1.0 / 3.0)),
        };
        assert_eq!(parse_mutation(&format_mutation(&m)).unwrap(), m);
    }

    #[test]
    fn malformed_lines_are_named_errors() {
        assert!(parse_mutation("frob 1 2").unwrap_err().0.contains("frob"));
        assert!(parse_mutation("node x").unwrap_err().0.contains("'x'"));
        assert!(parse_mutation("edge 0 1").unwrap_err().0.contains("edge"));
        assert!(parse_mutation("").unwrap_err().0.contains("empty"));
        // Doubled separator inside a batch is an empty segment: error.
        assert!(parse_batch("node 1;;edge 0 1 1").is_err());
        assert!(parse_batch("node 1;").is_err());
    }

    #[test]
    fn whitespace_is_forgiven_within_a_line() {
        assert_eq!(
            parse_mutation("  edge   3  4   5 ").unwrap(),
            Mutation::AddEdge {
                u: 3,
                v: 4,
                weight: 5
            }
        );
    }
}
