//! METIS-compatible text serialization.
//!
//! Format: header `N M [fmt]`, then one line per vertex listing its
//! (1-indexed) neighbours. `fmt` is the METIS 3-digit flag word: `010`
//! adds a vertex weight before the neighbour list, `001` adds an edge
//! weight after each neighbour, `011` both. Comment lines start with `%`.
//! Coordinates travel in a separate `x y` per-line document (one per
//! vertex), matching common mesh tool conventions.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::geometry::Point2;
use std::fmt::Write as _;
use std::str::FromStr;

/// Serializes the graph in METIS format. Emits vertex weights iff any is
/// non-unit and edge weights iff any is non-unit.
pub fn to_metis(graph: &CsrGraph) -> String {
    let mut out = String::with_capacity(metis_len_bound(graph, "\n"));
    write_metis(graph, &mut out, "\n");
    out
}

/// Appends the METIS text of `graph` (the exact bytes of [`to_metis`]) to
/// `out`, ending every line with `eol` instead of `"\n"`. The serve tape
/// passes the JSON escape `"\\n"` and so writes a graph straight into a
/// record's string value. Size `out` with [`metis_len_bound`] first and
/// the call never reallocates.
pub fn write_metis(graph: &CsrGraph, out: &mut String, eol: &str) {
    let has_vw = graph.node_weights().iter().any(|&w| w != 1);
    let has_ew = graph.eweights().iter().any(|&w| w != 1);
    push_decimal(out, graph.num_nodes() as u64);
    out.push(' ');
    push_decimal(out, graph.num_edges() as u64);
    out.push_str(match (has_vw, has_ew) {
        (false, false) => "",
        (false, true) => " 001",
        (true, false) => " 010",
        (true, true) => " 011",
    });
    out.push_str(eol);
    let (adjncy, eweights) = (graph.adjncy(), graph.eweights());
    let mut start = 0usize;
    for (&end, &vw) in graph.xadj().iter().skip(1).zip(graph.node_weights()) {
        let end = end as usize;
        let nbrs = adjncy.get(start..end).unwrap_or_default();
        let ws = eweights.get(start..end).unwrap_or_default();
        start = end;
        let mut sep = "";
        if has_vw {
            push_decimal(out, vw.into());
            sep = " ";
        }
        for (&u, &w) in nbrs.iter().zip(ws) {
            out.push_str(sep);
            push_decimal(out, u64::from(u) + 1);
            if has_ew {
                out.push(' ');
                push_decimal(out, w.into());
            }
            sep = " ";
        }
        out.push_str(eol);
    }
}

/// An upper bound on the bytes [`write_metis`] appends for `graph` and
/// `eol`: every id and weight is counted at the width of the largest.
pub fn metis_len_bound(graph: &CsrGraph, eol: &str) -> usize {
    let n = graph.num_nodes();
    let counts = decimal_len(n as u64) + 1 + decimal_len(graph.num_edges() as u64);
    let header = counts + " 011".len() + eol.len();
    let row = weight_width(graph.node_weights()) + eol.len();
    let entry = decimal_len(n as u64) + 1 + weight_width(graph.eweights());
    header + n * row + graph.adjncy().len() * entry
}

/// Bytes one written weight of `weights` takes at most, its separator
/// included: 0 when all are 1, because unit weights are not written.
fn weight_width(weights: &[u32]) -> usize {
    let written = weights.iter().any(|&w| w != 1);
    match weights.iter().max() {
        Some(&w) if written => decimal_len(w.into()) + 1,
        _ => 0,
    }
}

/// Number of decimal digits of `value`: the bytes [`push_decimal`] appends.
pub fn decimal_len(value: u64) -> usize {
    value.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Appends the decimal digits of `value` to `out` without going through
/// `fmt`: the writer behind [`to_metis`] and the serve tape's numbers.
pub fn push_decimal(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut len = 0usize;
    for slot in digits.iter_mut() {
        *slot = b'0' + (value % 10) as u8;
        len += 1;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend(digits.iter().take(len).rev().map(|&d| char::from(d)));
}

/// Parses a METIS-format document produced by [`to_metis`] (or by METIS
/// itself, for the `000`/`001`/`010`/`011` formats).
///
/// Rows may list their neighbours in any order. An edge listed more than
/// once on a row becomes one edge whose weight is the saturating sum of
/// the repeats. Every undirected edge must appear on **both** endpoint
/// rows with the same weight (and the same multiplicity, for repeated
/// entries); a document whose rows disagree — an adjacency entry present
/// on one row only, or mismatched duplicate edge weights — is rejected
/// rather than silently half-read.
///
/// The header's counts are checked against the document before anything
/// is sized by them: the arrays reserve at most a constant multiple of
/// the text's length, so a header that claims more vertices or edges than
/// the document holds allocates nothing of its claim, and fails with the
/// missing-rows or edge-count error.
///
/// The reader makes one pass over the rows and writes the CSR arrays
/// straight from them; symmetry is then checked in one sweep with a
/// cursor per row (see `Rows::agree`).
///
/// # Errors
///
/// [`GraphError::Parse`] for malformed input, including asymmetric
/// adjacency rows; [`GraphError::ZeroNodeWeight`] /
/// [`GraphError::ZeroEdgeWeight`] for zero weights;
/// [`GraphError::TooManyNodes`] / [`GraphError::AdjacencyOverflow`] past
/// the `u32` id and offset spaces. Row errors come first, in document
/// order, then asymmetry, then zero weights, then the header's edge count.
pub fn from_metis(text: &str) -> Result<CsrGraph, GraphError> {
    let mut lines = metis_lines(text);
    let (hline, header) = lines
        .by_ref()
        .find(|(_, l)| !l.is_empty())
        .ok_or(GraphError::Parse {
            line: 1,
            message: "empty document".into(),
        })?;
    let mut it = header.split_whitespace();
    let count = |tok: Option<&str>, what: &str| -> Result<usize, GraphError> {
        let tok = tok.ok_or_else(|| parse_error(hline, format!("missing {what}")))?;
        usize::from_str(tok).map_err(|_| parse_error(hline, format!("bad {what}")))
    };
    let n = count(it.next(), "node count")?;
    let m = count(it.next(), "edge count")?;
    let (has_vw, has_ew) = match it.next().unwrap_or("000") {
        "0" | "00" | "000" => (false, false),
        "1" | "01" | "001" => (false, true),
        "10" | "010" => (true, false),
        "11" | "011" => (true, true),
        other => return Err(parse_error(hline, format!("unsupported fmt '{other}'"))),
    };
    let format = RowFormat { n, has_vw, has_ew };

    // Sized by the text, not by the header alone: every row takes a line
    // (at least its '\n'), and every entry at least two bytes, four with
    // its edge weight. So no array reserves more slots than the text has
    // bytes, whatever the header claims.
    let rows_cap = n.min(text.len());
    let entries_cap = m
        .saturating_mul(2)
        .min(text.len() / if has_ew { 4 } else { 2 } + 1);
    let mut xadj = Vec::with_capacity(rows_cap + 1);
    xadj.push(0u32);
    let mut vweights = Vec::with_capacity(rows_cap);
    let mut adjncy = Vec::with_capacity(entries_cap);
    let mut eweights = Vec::with_capacity(entries_cap);
    let mut scratch = Vec::new();
    let mut repeats = false;
    for v in 0..n {
        let (lno, line) = lines
            .next()
            .ok_or_else(|| parse_error(hline, format!("expected {n} vertex lines, got {v}")))?;
        let start = adjncy.len();
        let vw = read_row(line, format, (v, lno), &mut adjncy, &mut eweights)?;
        vweights.push(vw);
        repeats |= order_row(
            adjncy.get_mut(start..).unwrap_or_default(),
            eweights.get_mut(start..).unwrap_or_default(),
            &mut scratch,
        );
        // Only a document of more than 8 GiB can pass the u32 offset space.
        let entries = adjncy.len();
        xadj.push(u32::try_from(entries).map_err(|_| GraphError::AdjacencyOverflow { entries })?);
    }
    // Ids are u32 from here on. Only a document of 2³² lines or more gets
    // here with a larger count.
    if u32::try_from(n).is_err() {
        return Err(GraphError::TooManyNodes { requested: n });
    }

    let rows = Rows {
        xadj: &xadj,
        adjncy: &adjncy,
        eweights: &eweights,
    };
    if !rows.agree() {
        if let Some(pair) = rows.first_asymmetry() {
            return Err(rows.asymmetry_error(text, pair));
        }
    }
    if let Some(node) = vweights.iter().position(|&w| w == 0) {
        return Err(GraphError::ZeroNodeWeight { node: node as u32 });
    }
    // Edge weights the format does not carry are all 1.
    if let Some((u, v)) = has_ew.then(|| rows.first_zero_edge()).flatten() {
        return Err(GraphError::ZeroEdgeWeight { u, v });
    }
    if repeats {
        merge_repeats(&mut xadj, &mut adjncy, &mut eweights);
    }
    if adjncy.len() / 2 != m {
        return Err(parse_error(
            hline,
            format!("header claims {m} edges, document has {}", adjncy.len() / 2),
        ));
    }
    Ok(CsrGraph {
        xadj,
        adjncy,
        eweights,
        vweights,
        coords: None,
    })
}

/// The lines a METIS reader sees: 1-based line numbers with trimmed text,
/// `%` comment lines dropped. Blank lines stay; the reader skips them
/// before the header and reads them as isolated vertices after it.
fn metis_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.starts_with('%'))
}

/// The line number of vertex `v`'s row, for naming it in an error.
fn row_line(text: &str, v: u32) -> usize {
    let mut lines = metis_lines(text);
    let _header = lines.by_ref().find(|(_, l)| !l.is_empty());
    lines.nth(v as usize).map_or(0, |(lno, _)| lno)
}

fn parse_error(line: usize, message: String) -> GraphError {
    GraphError::Parse { line, message }
}

/// What the header says every row holds.
#[derive(Clone, Copy)]
struct RowFormat {
    n: usize,
    has_vw: bool,
    has_ew: bool,
}

/// Reads vertex `v`'s row, line `lno`: appends each neighbour (0-based)
/// and edge weight to `adjncy` and `eweights`, and returns the vertex
/// weight (1 when the format carries none).
fn read_row(
    line: &str,
    format: RowFormat,
    (v, lno): (usize, usize),
    adjncy: &mut Vec<u32>,
    eweights: &mut Vec<u32>,
) -> Result<u32, GraphError> {
    let n = format.n;
    let mut toks = line.split_whitespace();
    let weight = |tok: Option<&str>, what: &str| -> Result<u32, GraphError> {
        let tok = tok.ok_or_else(|| parse_error(lno, format!("missing {what}")))?;
        u32::from_str(tok).map_err(|_| parse_error(lno, format!("bad {what}")))
    };
    let vw = if format.has_vw {
        weight(toks.next(), "vertex weight")?
    } else {
        1
    };
    while let Some(tok) = toks.next() {
        let nbr =
            usize::from_str(tok).map_err(|_| parse_error(lno, format!("bad neighbour '{tok}'")))?;
        if nbr == 0 || nbr > n {
            return Err(parse_error(lno, format!("neighbour {nbr} out of 1..={n}")));
        }
        let w = if format.has_ew {
            weight(toks.next(), "edge weight")?
        } else {
            1
        };
        if nbr - 1 == v {
            return Err(parse_error(
                lno,
                format!("vertex {nbr} lists itself as a neighbour"),
            ));
        }
        // Only a header past the u32 id space, which ends in an error
        // before any id is read back, lets this fail.
        adjncy.push(u32::try_from(nbr - 1).unwrap_or(u32::MAX));
        eweights.push(w);
    }
    Ok(vw)
}

/// Keeps a strictly increasing row as it is and sorts any other by
/// (neighbour, weight) through `scratch`. Returns whether the row lists
/// a neighbour more than once.
fn order_row(nbrs: &mut [u32], weights: &mut [u32], scratch: &mut Vec<(u32, u32)>) -> bool {
    if nbrs.is_sorted_by(|a, b| a < b) {
        return false;
    }
    scratch.clear();
    scratch.extend(nbrs.iter().copied().zip(weights.iter().copied()));
    scratch.sort_unstable();
    for ((u, w), &(su, sw)) in nbrs.iter_mut().zip(weights.iter_mut()).zip(scratch.iter()) {
        (*u, *w) = (su, sw);
    }
    nbrs.windows(2).any(|p| matches!(p, [a, b] if a == b))
}

/// Merges each row's repeated neighbours, adjacent once the row is
/// sorted, into one entry whose weight is their saturating sum, and
/// closes the gaps in place.
fn merge_repeats(xadj: &mut [u32], adjncy: &mut Vec<u32>, eweights: &mut Vec<u32>) {
    let mut len = 0usize;
    let mut start = 0usize;
    for end in xadj.iter_mut().skip(1) {
        let row_start = len;
        for i in start..*end as usize {
            let (Some(&u), Some(&w)) = (adjncy.get(i), eweights.get(i)) else {
                break;
            };
            let prev = len
                .checked_sub(1)
                .filter(|&p| p >= row_start && adjncy.get(p) == Some(&u));
            if let Some(acc) = prev.and_then(|p| eweights.get_mut(p)) {
                *acc = acc.saturating_add(w);
            } else {
                if let (Some(x), Some(y)) = (adjncy.get_mut(len), eweights.get_mut(len)) {
                    (*x, *y) = (u, w);
                }
                len += 1;
            }
        }
        start = *end as usize;
        // The merged prefix never outgrows the offset it replaces.
        *end = len as u32;
    }
    adjncy.truncate(len);
    eweights.truncate(len);
}

/// The CSR arrays as read, before repeats merge: every row sorted by
/// (neighbour, weight).
#[derive(Clone, Copy)]
struct Rows<'a> {
    xadj: &'a [u32],
    adjncy: &'a [u32],
    eweights: &'a [u32],
}

impl<'a> Rows<'a> {
    /// Every row as (vertex, neighbours, weights), in vertex order.
    fn each(self) -> impl Iterator<Item = (u32, &'a [u32], &'a [u32])> {
        let spans = self.xadj.iter().zip(self.xadj.iter().skip(1));
        spans.zip(0u32..).map(move |((&s, &e), v)| {
            let span = s as usize..e as usize;
            let nbrs = self.adjncy.get(span.clone()).unwrap_or_default();
            (v, nbrs, self.eweights.get(span).unwrap_or_default())
        })
    }

    /// The sorted weights with which row `v` lists neighbour `u`.
    fn weights_of(self, v: u32, u: u32) -> &'a [u32] {
        let v = v as usize;
        let (Some(&s), Some(&e)) = (self.xadj.get(v), self.xadj.get(v + 1)) else {
            return &[];
        };
        let span = s as usize..e as usize;
        let nbrs = self.adjncy.get(span.clone()).unwrap_or_default();
        let (lo, hi) = (
            nbrs.partition_point(|&x| x < u),
            nbrs.partition_point(|&x| x <= u),
        );
        let weights = self.eweights.get(span).unwrap_or_default();
        weights.get(lo..hi).unwrap_or_default()
    }

    /// Whether every row lists each neighbour with the same sorted weights
    /// as that neighbour's row lists it, in one sweep. Rows are visited in
    /// ascending order, and `cursor[b]` is row b's first entry that no
    /// lower row has matched yet. Each entry a→b with b > a must match
    /// row b's next unmatched entry, which must be b→a with the same
    /// weight; at row a, the entries left unmatched must all point up.
    fn agree(self) -> bool {
        let mut cursor: Vec<u32> = self
            .xadj
            .split_last()
            .map_or_else(Vec::new, |(_, starts)| starts.to_vec());
        for (&end, a) in self.xadj.iter().skip(1).zip(0u32..) {
            // Lower rows have matched every entry before `first`; the
            // entries left must point up.
            let first = cursor.get(a as usize).map_or(end, |&c| c);
            let span = first as usize..end as usize;
            let (Some(up), Some(weights)) =
                (self.adjncy.get(span.clone()), self.eweights.get(span))
            else {
                return false;
            };
            if up.first().is_some_and(|&b| b < a) {
                return false;
            }
            for (&b, &w) in up.iter().zip(weights) {
                let b = b as usize;
                let (Some(next), Some(&b_end)) = (cursor.get_mut(b), self.xadj.get(b + 1)) else {
                    return false;
                };
                let at = *next as usize;
                if *next >= b_end
                    || self.adjncy.get(at) != Some(&a)
                    || self.eweights.get(at) != Some(&w)
                {
                    return false;
                }
                *next += 1;
            }
        }
        true
    }

    /// The lowest (lower, higher) endpoint pair whose two rows list it
    /// with different weights or different multiplicities: the pair the
    /// error names.
    fn first_asymmetry(self) -> Option<(u32, u32)> {
        let mut first: Option<(u32, u32)> = None;
        for (v, nbrs, _) in self.each() {
            // One comparison per distinct neighbour, so a pair listed k
            // times costs O(k), not O(k²).
            for &u in nbrs.chunk_by(|x, y| x == y).filter_map(<[u32]>::first) {
                let pair = (v.min(u), v.max(u));
                if first.is_none_or(|f| pair < f) && self.weights_of(v, u) != self.weights_of(u, v)
                {
                    first = Some(pair);
                }
            }
        }
        first
    }

    /// The error for asymmetric pair `(a, b)`, at the line of row `b` when
    /// it lists `a` and of row `a` otherwise.
    fn asymmetry_error(self, text: &str, (a, b): (u32, u32)) -> GraphError {
        let (lower, upper) = (self.weights_of(a, b), self.weights_of(b, a));
        let line = row_line(text, if upper.is_empty() { a } else { b });
        let message = if lower.len() != upper.len() {
            let (present, missing) = if upper.len() > lower.len() {
                (b, a)
            } else {
                (a, b)
            };
            format!(
                "edge {}-{} appears {} time(s) on vertex {}'s row but {} on vertex {}'s row \
                 (adjacency must be symmetric)",
                a + 1,
                b + 1,
                lower.len().max(upper.len()),
                present + 1,
                lower.len().min(upper.len()),
                missing + 1
            )
        } else {
            let (wl, wu) = lower
                .iter()
                .zip(upper)
                .find(|(l, u)| l != u)
                .map_or((0, 0), |(&l, &u)| (l, u));
            format!(
                "edge {}-{} has weight {wl} on vertex {}'s row but {wu} on vertex {}'s row",
                a + 1,
                b + 1,
                a + 1,
                b + 1
            )
        };
        parse_error(line, message)
    }

    /// The lowest (lower, higher) endpoint pair listed with a zero weight.
    /// The rows agree, so the first zero met in row order points up.
    fn first_zero_edge(self) -> Option<(u32, u32)> {
        self.each().find_map(|(a, nbrs, weights)| {
            let zero = nbrs.iter().zip(weights).find(|&(_, &w)| w == 0);
            zero.map(|(&b, _)| (a, b))
        })
    }
}

/// Returns a copy of `graph` with `coords` attached (METIS files carry
/// no positions, so coordinate-needing callers — the CLI's `--coords`
/// flag, the serve daemon's tape recovery — re-attach them after
/// [`from_metis`]).
///
/// # Errors
///
/// [`GraphError::CoordsMismatch`] when the coordinate count does not
/// match the node count.
pub fn attach_coords(graph: &CsrGraph, coords: Vec<Point2>) -> Result<CsrGraph, GraphError> {
    if coords.len() != graph.num_nodes() {
        return Err(GraphError::CoordsMismatch {
            coords: coords.len(),
            nodes: graph.num_nodes(),
        });
    }
    Ok(CsrGraph {
        xadj: graph.xadj.clone(),
        adjncy: graph.adjncy.clone(),
        eweights: graph.eweights.clone(),
        vweights: graph.vweights.clone(),
        coords: Some(coords),
    })
}

/// Serializes vertex coordinates, one `x y` pair per line.
pub fn coords_to_text(coords: &[Point2]) -> String {
    // `x y\n` with both axes at full f64 precision: a typical line.
    const TYPICAL_LINE: usize = 40;
    let mut out = String::with_capacity(coords.len() * TYPICAL_LINE);
    write_coords(&mut out, coords);
    out
}

/// Appends the [`coords_to_text`] lines of `coords` to `out`. The text is
/// a concatenation of per-point lines, so a growing point set can extend
/// its text instead of formatting every point again; the serve daemon
/// keeps each session's coordinate text this way.
pub fn write_coords(out: &mut String, coords: &[Point2]) {
    for p in coords {
        let _ = writeln!(out, "{} {}", p.x, p.y);
    }
}

/// Parses a coordinate document produced by [`coords_to_text`].
///
/// # Errors
///
/// [`GraphError::Parse`], naming the line, for a missing, malformed or
/// non-finite (`inf`, `NaN`) coordinate.
pub fn coords_from_text(text: &str) -> Result<Vec<Point2>, GraphError> {
    let mut coords = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let mut axis = |what: &str| -> Result<f64, GraphError> {
            let value: f64 = it
                .next()
                .ok_or_else(|| GraphError::Parse {
                    line: i + 1,
                    message: format!("missing {what}"),
                })?
                .parse()
                .map_err(|_| GraphError::Parse {
                    line: i + 1,
                    message: format!("bad {what}"),
                })?;
            if value.is_finite() {
                Ok(value)
            } else {
                Err(GraphError::Parse {
                    line: i + 1,
                    message: format!("non-finite {what}"),
                })
            }
        };
        let x = axis("x coordinate")?;
        let y = axis("y coordinate")?;
        coords.push(Point2::new(x, y));
    }
    Ok(coords)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::generators::paper_graph;

    #[test]
    fn unit_graph_round_trip() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let text = to_metis(&g);
        assert!(text.starts_with("4 4\n"));
        let g2 = from_metis(&text).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(g.adjncy(), g2.adjncy());
    }

    #[test]
    fn weighted_round_trip() {
        let g = GraphBuilder::with_nodes(3)
            .weighted_edge(0, 1, 4)
            .weighted_edge(1, 2, 9)
            .node_weights(vec![2, 3, 5])
            .build()
            .unwrap();
        let text = to_metis(&g);
        assert!(text.starts_with("3 2 011\n"));
        let g2 = from_metis(&text).unwrap();
        assert_eq!(g2.edge_weight(0, 1), Some(4));
        assert_eq!(g2.edge_weight(1, 2), Some(9));
        assert_eq!(g2.node_weights(), &[2, 3, 5]);
    }

    #[test]
    fn paper_graph_round_trip() {
        let g = paper_graph(78);
        let g2 = from_metis(&to_metis(&g)).unwrap();
        assert_eq!(g.num_nodes(), g2.num_nodes());
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(g.xadj(), g2.xadj());
        assert_eq!(g.adjncy(), g2.adjncy());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "% a comment\n\n3 2\n2\n1 3\n2\n";
        let g = from_metis(text).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn rejects_neighbour_out_of_range() {
        let text = "2 1\n2\n5\n";
        let err = from_metis(text).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }), "{err}");
    }

    #[test]
    fn rejects_one_sided_adjacency() {
        // Regression: vertex 1 lists 3 as a neighbour but vertex 3's row
        // is empty. The old parser kept only the `v < u` copy, so this
        // parsed "successfully" (with a misleading edge-count error at
        // best, silently wrong data at worst).
        let text = "3 2\n2 3\n1\n\n";
        let err = from_metis(text).unwrap_err();
        assert!(err.to_string().contains("symmetric"), "wrong error: {err}");
        // The mirror case — present only on the higher row — is caught
        // too, even though the old parser simply ignored that copy.
        let text = "3 1\n2\n1 3\n\n";
        let err = from_metis(text).unwrap_err();
        assert!(err.to_string().contains("symmetric"), "wrong error: {err}");
        // Vertices 1 and 2 list each other 10⁵ times before the one-sided
        // entry. Comparing the pair's weights once per repeat, rather than
        // once per pair, took time quadratic in the repeats.
        let k = 100_000;
        let text = format!("4 2\n{}\n{}\n4\n\n", "2 ".repeat(k), "1 ".repeat(k));
        let message = "edge 3-4 appears 1 time(s) on vertex 3's row but 0 on vertex 4's row \
                       (adjacency must be symmetric)"
            .to_string();
        assert_eq!(
            from_metis(&text),
            Err(GraphError::Parse { line: 4, message })
        );
    }

    #[test]
    fn rejects_mismatched_duplicate_edge_weights() {
        // Regression: the two endpoint rows disagree on the edge weight;
        // the old parser silently took vertex 1's copy.
        let text = "2 1 001\n2 7\n1 9\n";
        let err = from_metis(text).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("weight 7") && msg.contains('9'),
            "wrong error: {msg}"
        );
        // Doubled edges must match as a multiset: 1 lists {4, 5}, 2
        // lists {4, 6} — same count, different weights.
        let text = "2 1 001\n2 4 2 5\n1 4 1 6\n";
        let err = from_metis(text).unwrap_err();
        assert!(err.to_string().contains("weight"), "wrong error: {err}");
        // Symmetric doubled edges still merge by summing, as before.
        let g = from_metis("2 1 001\n2 4 2 5\n1 4 1 5\n").unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(9));
    }

    #[test]
    fn rejects_self_reference() {
        let err = from_metis("2 1\n1 2\n1\n").unwrap_err();
        assert!(err.to_string().contains("itself"), "wrong error: {err}");
    }

    #[test]
    fn rejects_wrong_edge_count() {
        let text = "3 5\n2\n1 3\n2\n";
        let err = from_metis(text).unwrap_err();
        assert!(err.to_string().contains("5 edges"));
        // An edge count the rows do not back sizes nothing by itself.
        let err = from_metis("2 1152921504606846976\n2\n1\n").unwrap_err();
        assert!(err.to_string().contains("1152921504606846976 edges"));
    }

    #[test]
    fn rejects_truncated_document() {
        let text = "3 2\n2\n";
        assert!(from_metis(text).is_err());
        // A vertex count the rows do not back sizes nothing either: 2⁶⁰
        // once aborted the process on a 4 EiB allocation, and 10⁸ cost
        // 383 MB before the error.
        for n in ["1152921504606846976", "100000000", "18446744073709551615"] {
            let err = from_metis(&format!("{n} 0\n")).unwrap_err();
            let message = format!("expected {n} vertex lines, got 0");
            assert_eq!(err, GraphError::Parse { line: 1, message });
        }
    }

    #[test]
    fn rejects_garbage_tokens() {
        assert!(from_metis("x y\n").is_err());
        assert!(from_metis("2 1\n2\nzzz\n").is_err());
    }

    #[test]
    fn coords_round_trip() {
        let coords = vec![Point2::new(0.25, -1.5), Point2::new(3.0, 0.0)];
        let parsed = coords_from_text(&coords_to_text(&coords)).unwrap();
        assert_eq!(parsed, coords);
    }

    #[test]
    fn coords_reject_garbage() {
        assert!(coords_from_text("1.0\n").is_err());
        assert!(coords_from_text("a b\n").is_err());
    }

    #[test]
    fn coords_reject_non_finite_values_naming_the_line() {
        for (text, what) in [
            ("0 0\n0.5 inf\n", "y"),
            ("0 0\nNaN 0.5\n", "x"),
            ("0 0\n-infinity 1\n", "x"),
        ] {
            assert_eq!(
                coords_from_text(text).unwrap_err(),
                GraphError::Parse {
                    line: 2,
                    message: format!("non-finite {what} coordinate"),
                }
            );
        }
        // Finite values far apart still parse; their span is the
        // consumers' to judge.
        assert!(coords_from_text("1e308 -1e308\n").is_ok());
    }

    use crate::builder::GraphBuilder;
}
