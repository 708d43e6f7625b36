//! The METIS reader as it was before the one-pass reader: every directed
//! entry becomes a `(min, max, from_lower_row, weight, line)` tuple, the
//! tuples are sorted and grouped per undirected pair to check symmetry,
//! and the surviving edges go through `GraphBuilder`. `io::from_metis`
//! must return exactly what this returns, `Ok` graph or `Err`, for every
//! document.
//!
//! The body is kept as it was; only the paths name the crate from
//! outside. It allocates `n` node weights before reading a row, so a
//! test must not hand it a header whose node count is huge.

use gapart_graph::builder::GraphBuilder;
use gapart_graph::{CsrGraph, GraphError};

/// Parses a METIS-format document the old way.
pub fn from_metis_reference(text: &str) -> Result<CsrGraph, GraphError> {
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
