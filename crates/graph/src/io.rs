//! METIS-compatible text serialization.
//!
//! Format: header `N M [fmt]`, then one line per vertex listing its
//! (1-indexed) neighbours. `fmt` is the METIS 3-digit flag word: `010`
//! adds a vertex weight before the neighbour list, `001` adds an edge
//! weight after each neighbour, `011` both. Comment lines start with `%`.
//! Coordinates travel in a separate `x y` per-line document (one per
//! vertex), matching common mesh tool conventions.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::geometry::Point2;
use std::fmt::Write as _;

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
/// Every undirected edge must appear on **both** endpoint rows with the
/// same weight (and the same multiplicity, for repeated entries); a
/// document whose rows disagree — an adjacency entry present on one row
/// only, or mismatched duplicate edge weights — is rejected rather than
/// silently half-read.
///
/// # Errors
///
/// [`GraphError::Parse`] for malformed input, including asymmetric
/// adjacency rows; builder errors for structurally invalid graphs
/// (out-of-range ids, zero weights, …).
pub fn from_metis(text: &str) -> Result<CsrGraph, GraphError> {
    // Comments are always skipped; empty lines are significant *after*
    // the header (an isolated vertex serializes as an empty line) but
    // skipped before it.
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.starts_with('%'));

    let (hline, header) = lines
        .by_ref()
        .find(|(_, l)| !l.is_empty())
        .ok_or(GraphError::Parse {
            line: 1,
            message: "empty document".into(),
        })?;
    let mut it = header.split_whitespace();
    let parse_usize = |tok: Option<&str>, line: usize, what: &str| -> Result<usize, GraphError> {
        tok.ok_or_else(|| GraphError::Parse {
            line,
            message: format!("missing {what}"),
        })?
        .parse()
        .map_err(|_| GraphError::Parse {
            line,
            message: format!("bad {what}"),
        })
    };
    let n = parse_usize(it.next(), hline, "node count")?;
    let m = parse_usize(it.next(), hline, "edge count")?;
    let fmt = it.next().unwrap_or("000");
    let (has_vw, has_ew) = match fmt {
        "0" | "00" | "000" => (false, false),
        "1" | "01" | "001" => (false, true),
        "10" | "010" => (true, false),
        "11" | "011" => (true, true),
        other => {
            return Err(GraphError::Parse {
                line: hline,
                message: format!("unsupported fmt '{other}'"),
            })
        }
    };

    let mut b = GraphBuilder::with_nodes(n);
    let mut vweights = vec![1u32; n];
    let mut rows = 0usize;
    // Every directed adjacency entry, as (min, max, from_lower_row, w,
    // line): after parsing, each {a, b} group must carry the same weight
    // multiset from both rows — the symmetry check below.
    let mut entries: Vec<(u32, u32, bool, u32, usize)> = Vec::new();
    #[allow(clippy::needless_range_loop, clippy::explicit_counter_loop)]
    for v in 0..n {
        let (lno, line) = lines.next().ok_or(GraphError::Parse {
            line: hline,
            message: format!("expected {n} vertex lines, got {rows}"),
        })?;
        rows += 1;
        let mut toks = line.split_whitespace();
        if has_vw {
            let w: u32 = toks
                .next()
                .ok_or_else(|| GraphError::Parse {
                    line: lno,
                    message: "missing vertex weight".into(),
                })?
                .parse()
                .map_err(|_| GraphError::Parse {
                    line: lno,
                    message: "bad vertex weight".into(),
                })?;
            vweights[v] = w;
        }
        while let Some(tok) = toks.next() {
            let nbr1: usize = tok.parse().map_err(|_| GraphError::Parse {
                line: lno,
                message: format!("bad neighbour '{tok}'"),
            })?;
            if nbr1 == 0 || nbr1 > n {
                return Err(GraphError::Parse {
                    line: lno,
                    message: format!("neighbour {nbr1} out of 1..={n}"),
                });
            }
            let w: u32 = if has_ew {
                toks.next()
                    .ok_or_else(|| GraphError::Parse {
                        line: lno,
                        message: "missing edge weight".into(),
                    })?
                    .parse()
                    .map_err(|_| GraphError::Parse {
                        line: lno,
                        message: "bad edge weight".into(),
                    })?
            } else {
                1
            };
            let u = (nbr1 - 1) as u32;
            let v = v as u32;
            if u == v {
                return Err(GraphError::Parse {
                    line: lno,
                    message: format!("vertex {nbr1} lists itself as a neighbour"),
                });
            }
            entries.push((v.min(u), v.max(u), v < u, w, lno));
        }
    }
    // Symmetry of presence and weight: each undirected edge appears once
    // per endpoint row (twice for a deliberately doubled edge, and so
    // on), with identical weights. The old parser kept only the `v < u`
    // copy, so a document whose two rows disagreed parsed "successfully"
    // with silently wrong data.
    entries.sort_unstable();
    let mut i = 0usize;
    while i < entries.len() {
        let (a, bb, _, _, _) = entries[i];
        let mut j = i;
        while j < entries.len() && entries[j].0 == a && entries[j].1 == bb {
            j += 1;
        }
        let group = &entries[i..j];
        let lower: Vec<u32> = group.iter().filter(|e| e.2).map(|e| e.3).collect();
        let upper: Vec<u32> = group.iter().filter(|e| !e.2).map(|e| e.3).collect();
        let line = group[0].4;
        if lower.len() != upper.len() {
            let (present, missing) = if lower.is_empty() || upper.len() > lower.len() {
                (bb, a)
            } else {
                (a, bb)
            };
            return Err(GraphError::Parse {
                line,
                message: format!(
                    "edge {}-{} appears {} time(s) on vertex {}'s row but {} on vertex {}'s \
                     row (adjacency must be symmetric)",
                    a + 1,
                    bb + 1,
                    lower.len().max(upper.len()),
                    present + 1,
                    lower.len().min(upper.len()),
                    missing + 1
                ),
            });
        }
        // Both sides sorted (the entry sort includes the weight), so a
        // positional comparison checks multiset equality.
        if let Some((&wl, &wu)) = lower.iter().zip(&upper).find(|(l, u)| l != u) {
            return Err(GraphError::Parse {
                line,
                message: format!(
                    "edge {}-{} has weight {} on vertex {}'s row but {} on vertex {}'s row",
                    a + 1,
                    bb + 1,
                    wl,
                    a + 1,
                    wu,
                    bb + 1
                ),
            });
        }
        for &w in &lower {
            b.push_edge(a, bb, w);
        }
        i = j;
    }
    let g = b.node_weights(vweights).build()?;
    if g.num_edges() != m {
        return Err(GraphError::Parse {
            line: hline,
            message: format!("header claims {m} edges, document has {}", g.num_edges()),
        });
    }
    Ok(g)
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
        topo: graph.topo.clone(),
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
pub fn coords_from_text(text: &str) -> Result<Vec<Point2>, GraphError> {
    let mut coords = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let mut axis = |what: &str| -> Result<f64, GraphError> {
            it.next()
                .ok_or_else(|| GraphError::Parse {
                    line: i + 1,
                    message: format!("missing {what}"),
                })?
                .parse()
                .map_err(|_| GraphError::Parse {
                    line: i + 1,
                    message: format!("bad {what}"),
                })
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
    }

    #[test]
    fn rejects_truncated_document() {
        let text = "3 2\n2\n";
        assert!(from_metis(text).is_err());
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

    use crate::builder::GraphBuilder;
}
