//! Byte-identity oracles for the graph crate's fast writers and its
//! span-copy batch rebuild.
//!
//! `to_metis` writes digits without `fmt`, `coords_to_text` is a
//! concatenation of per-point lines that a caller may extend, and
//! `apply_batch` copies untouched rows as spans. Each must produce
//! exactly what its straightforward predecessor produced, preserved
//! below as a reference: the serve tape stores these texts, and its
//! bytes are pinned.

use gapart_graph::dynamic::{apply_batch, Mutation};
use gapart_graph::io::{
    coords_to_text, decimal_len, metis_len_bound, push_decimal, to_metis, write_coords, write_metis,
};
use gapart_graph::{CsrGraph, GraphBuilder, GraphError, Point2};
use proptest::collection::vec;
use proptest::prelude::*;
use std::fmt::Write as _;

/// The `write!`-based METIS writer.
fn reference_to_metis(graph: &CsrGraph) -> String {
    let has_vw = graph.node_weights().iter().any(|&w| w != 1);
    let has_ew = graph.eweights().iter().any(|&w| w != 1);
    let mut out = String::new();
    let fmt = match (has_vw, has_ew) {
        (false, false) => "",
        (false, true) => " 001",
        (true, false) => " 010",
        (true, true) => " 011",
    };
    let _ = writeln!(out, "{} {}{}", graph.num_nodes(), graph.num_edges(), fmt);
    for v in 0..graph.num_nodes() as u32 {
        let mut first = true;
        if has_vw {
            let _ = write!(out, "{}", graph.node_weight(v));
            first = false;
        }
        for (&u, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{}", u + 1);
            if has_ew {
                let _ = write!(out, " {}", w);
            }
            first = false;
        }
        out.push('\n');
    }
    out
}

/// The `writeln!`-based coordinate writer.
fn reference_coords_to_text(coords: &[Point2]) -> String {
    let mut out = String::new();
    for p in coords {
        let _ = writeln!(out, "{} {}", p.x, p.y);
    }
    out
}

/// What the per-vertex-merge rebuild produced, as raw arrays; the
/// coordinates as bit patterns, so NaN compares equal to itself.
#[derive(Debug, PartialEq)]
struct Rebuilt {
    xadj: Vec<u32>,
    adjncy: Vec<u32>,
    eweights: Vec<u32>,
    vweights: Vec<u32>,
    coords: Option<Vec<(u64, u64)>>,
    dirty: Vec<u32>,
}

fn coord_bits(coords: &[Point2]) -> Vec<(u64, u64)> {
    coords
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

impl Rebuilt {
    fn of(graph: &CsrGraph, dirty: &[u32]) -> Self {
        Rebuilt {
            xadj: graph.xadj().to_vec(),
            adjncy: graph.adjncy().to_vec(),
            eweights: graph.eweights().to_vec(),
            vweights: graph.node_weights().to_vec(),
            coords: graph.coords().map(coord_bits),
            dirty: dirty.to_vec(),
        }
    }
}

/// The per-vertex-merge `apply_batch`: one insert list per node, every
/// row visited and merged on its own.
fn reference_apply_batch(graph: &CsrGraph, batch: &[Mutation]) -> Result<Rebuilt, GraphError> {
    let n_old = graph.num_nodes();
    let has_coords = graph.coords().is_some();

    let mut n_cur = n_old;
    let mut new_weights: Vec<u32> = Vec::new();
    let mut new_coords: Vec<Point2> = Vec::new();
    let mut weight_sets: Vec<(u32, u32)> = Vec::new();
    let mut added_edges: Vec<(u32, u32, u32)> = Vec::new();
    let mut dirty: Vec<u32> = Vec::new();
    for m in batch {
        match *m {
            Mutation::AddNode { weight, pos } => {
                if weight == 0 {
                    return Err(GraphError::ZeroNodeWeight { node: n_cur as u32 });
                }
                if n_cur + 1 > u32::MAX as usize {
                    return Err(GraphError::TooManyNodes {
                        requested: n_cur + 1,
                    });
                }
                if has_coords {
                    match pos {
                        Some(p) => new_coords.push(p),
                        None => return Err(GraphError::MissingCoordinates),
                    }
                }
                dirty.push(n_cur as u32);
                new_weights.push(weight);
                n_cur += 1;
            }
            Mutation::AddEdge { u, v, weight } => {
                if u as usize >= n_cur {
                    return Err(GraphError::NodeOutOfRange {
                        node: u,
                        num_nodes: n_cur,
                    });
                }
                if v as usize >= n_cur {
                    return Err(GraphError::NodeOutOfRange {
                        node: v,
                        num_nodes: n_cur,
                    });
                }
                if u == v {
                    return Err(GraphError::SelfLoop { node: u });
                }
                if weight == 0 {
                    return Err(GraphError::ZeroEdgeWeight { u, v });
                }
                added_edges.push((u.min(v), u.max(v), weight));
                dirty.push(u);
                dirty.push(v);
            }
            Mutation::SetNodeWeight { node, weight } => {
                if node as usize >= n_cur {
                    return Err(GraphError::NodeOutOfRange {
                        node,
                        num_nodes: n_cur,
                    });
                }
                if weight == 0 {
                    return Err(GraphError::ZeroNodeWeight { node });
                }
                weight_sets.push((node, weight));
                dirty.push(node);
            }
        }
    }

    added_edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    added_edges.dedup_by(|cur, prev| {
        if cur.0 == prev.0 && cur.1 == prev.1 {
            prev.2 = prev.2.saturating_add(cur.2);
            true
        } else {
            false
        }
    });

    let mut bumps: Vec<(u32, u32, u32)> = Vec::new();
    let mut inserts_at: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_cur];
    for &(u, v, w) in &added_edges {
        if (v as usize) < n_old && graph.has_edge(u, v) {
            bumps.push((u, v, w));
        } else {
            inserts_at[u as usize].push((v, w));
            inserts_at[v as usize].push((u, w));
        }
    }

    let total_adj = graph.adjncy().len() + added_edges.len() * 2 - bumps.len() * 2;
    let mut xadj = Vec::with_capacity(n_cur + 1);
    let mut adjncy = Vec::with_capacity(total_adj);
    let mut eweights = Vec::with_capacity(total_adj);
    xadj.push(0usize);
    for vtx in 0..n_cur as u32 {
        let inserts = &mut inserts_at[vtx as usize];
        if (vtx as usize) < n_old {
            let nbrs = graph.neighbors(vtx);
            let ws = graph.edge_weights(vtx);
            if inserts.is_empty() {
                adjncy.extend_from_slice(nbrs);
                eweights.extend_from_slice(ws);
            } else {
                inserts.sort_unstable_by_key(|&(nbr, _)| nbr);
                let mut i = 0usize;
                for (&nbr, &w) in nbrs.iter().zip(ws) {
                    while i < inserts.len() && inserts[i].0 < nbr {
                        adjncy.push(inserts[i].0);
                        eweights.push(inserts[i].1);
                        i += 1;
                    }
                    adjncy.push(nbr);
                    eweights.push(w);
                }
                for &(nbr, w) in &inserts[i..] {
                    adjncy.push(nbr);
                    eweights.push(w);
                }
            }
        } else {
            inserts.sort_unstable_by_key(|&(nbr, _)| nbr);
            for &(nbr, w) in inserts.iter() {
                adjncy.push(nbr);
                eweights.push(w);
            }
        }
        xadj.push(adjncy.len());
    }

    for &(u, v, w) in &bumps {
        for (a, b) in [(u, v), (v, u)] {
            let row = &adjncy[xadj[a as usize]..xadj[a as usize + 1]];
            let idx = row.binary_search(&b).expect("bumped edge exists");
            let slot = xadj[a as usize] + idx;
            eweights[slot] = eweights[slot].saturating_add(w);
        }
    }

    let mut vweights = graph.node_weights().to_vec();
    vweights.extend_from_slice(&new_weights);
    for &(node, w) in &weight_sets {
        vweights[node as usize] = w;
    }
    let coords = graph.coords().map(|c| {
        let mut all = c.to_vec();
        all.extend_from_slice(&new_coords);
        all
    });

    let entries = *xadj.last().expect("offset array is never empty");
    if entries > u32::MAX as usize {
        return Err(GraphError::AdjacencyOverflow { entries });
    }
    dirty.sort_unstable();
    dirty.dedup();
    Ok(Rebuilt {
        xadj: xadj.into_iter().map(|x| x as u32).collect(),
        adjncy,
        eweights,
        vweights,
        coords: coords.as_deref().map(coord_bits),
        dirty,
    })
}

/// A weight: small (1..=9) or drawn from most of the `u32` range, so
/// every digit width occurs.
fn weight(raw: u32, wide: bool) -> u32 {
    if wide {
        raw % 1_000_000_000 + 1
    } else {
        raw % 9 + 1
    }
}

/// A coordinate from raw bits: every finite value, the infinities, NaN
/// and negative zero all occur, plus short decimals.
fn coordinate(bits: u64) -> f64 {
    match bits % 8 {
        0 => f64::from_bits(bits),
        1 => [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1e-7,
            1e21,
            5e-324,
        ][(bits >> 3) as usize % 8],
        2 => (bits >> 3) as f64 / 1000.0,
        _ => (bits >> 11) as f64 / (1u64 << 53) as f64,
    }
}

/// Raw material of a random graph: node count, trailing isolated nodes,
/// edge tuples, the METIS fmt flags (bit 0: edge weights, bit 1: node
/// weights), whether weights are wide, and coordinate bits.
type RawGraph = (
    usize,
    usize,
    Vec<(u32, u32, u32)>,
    u8,
    bool,
    Option<Vec<u64>>,
);

fn arb_raw_graph() -> impl Strategy<Value = RawGraph> {
    (
        1usize..30,
        0usize..4,
        vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..60),
        0u8..4,
        any::<bool>(),
        (any::<bool>(), vec(any::<u64>(), 34)),
    )
        .prop_map(|(n, isolated, edges, flags, wide, (with_coords, bits))| {
            (n, isolated, edges, flags, wide, with_coords.then_some(bits))
        })
}

/// Builds the graph: edges only among the first `n` nodes, so the
/// `isolated` nodes after them have none.
fn build(raw: &RawGraph) -> CsrGraph {
    let (n, isolated, edges, flags, wide, coords) = raw;
    let total = n + isolated;
    let mut b = GraphBuilder::with_nodes(total);
    for &(a, c, w) in edges {
        let (u, v) = (a % *n as u32, c % *n as u32);
        if u != v {
            let w = if flags & 1 == 1 { weight(w, *wide) } else { 1 };
            b.push_edge(u, v, w);
        }
    }
    let node_weights = (0..total as u32)
        .map(|v| {
            if flags & 2 == 2 {
                weight(v.wrapping_mul(2_654_435_761), *wide)
            } else {
                1
            }
        })
        .collect();
    let mut b = b.node_weights(node_weights);
    if let Some(bits) = coords {
        let pts = (0..total)
            .map(|i| Point2::new(coordinate(bits[i % 34]), coordinate(bits[(i + 17) % 34])))
            .collect();
        b = b.coords(pts);
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn to_metis_matches_the_formatting_writer(raw in arb_raw_graph()) {
        let g = build(&raw);
        let text = to_metis(&g);
        prop_assert_eq!(&text, &reference_to_metis(&g));
        prop_assert!(text.len() <= metis_len_bound(&g, "\n"));
        // Another line end changes only the line ends.
        let mut escaped = String::with_capacity(metis_len_bound(&g, "\\n"));
        let capacity = escaped.capacity();
        write_metis(&g, &mut escaped, "\\n");
        prop_assert_eq!(escaped.replace("\\n", "\n"), text);
        prop_assert_eq!(escaped.capacity(), capacity, "the bound sized the buffer");
    }

    #[test]
    fn coords_text_matches_the_formatting_writer(bits in vec(any::<u64>(), 0..40), split in any::<usize>()) {
        let coords: Vec<Point2> = bits
            .chunks(2)
            .map(|c| Point2::new(coordinate(c[0]), coordinate(*c.last().unwrap())))
            .collect();
        let text = coords_to_text(&coords);
        prop_assert_eq!(&text, &reference_coords_to_text(&coords));
        // Extending the text of a prefix gives the text of the whole.
        let at = if coords.is_empty() { 0 } else { split % (coords.len() + 1) };
        let mut grown = coords_to_text(&coords[..at]);
        write_coords(&mut grown, &coords[at..]);
        prop_assert_eq!(grown, text);
    }

    #[test]
    fn push_decimal_matches_display(x in any::<u64>(), shift in 0u32..64) {
        for value in [x, x >> shift, 0, u64::MAX] {
            let mut out = String::from("#");
            push_decimal(&mut out, value);
            prop_assert_eq!(&out[1..], value.to_string());
            prop_assert_eq!(decimal_len(value), value.to_string().len());
        }
    }
}

/// Raw material of one mutation; `tag` picks the kind.
type RawOp = (u8, u32, u32, u32, u64);

/// Turns raw tuples into a batch against a graph of `nodes` nodes with
/// `edges` as its edge list. Mostly valid; `faults` > 0 sprinkles in
/// every invalid kind (out-of-range ids, self loops, zero weights, a
/// missing position), one of which must stop both rebuilds alike.
fn concretize(
    raw: &[RawOp],
    nodes: usize,
    edges: &[(u32, u32, u32)],
    positioned: bool,
    faults: u8,
) -> Vec<Mutation> {
    let mut n = nodes as u32;
    let first_new = n;
    let mut batch: Vec<Mutation> = Vec::new();
    for &(tag, a, b, w, bits) in raw {
        let w = w % 50 + 1;
        let pos = || positioned.then(|| Point2::new(coordinate(bits), coordinate(!bits)));
        let m = match tag % 12 {
            // A new node, positioned when the graph carries coordinates.
            0 | 1 => {
                n += 1;
                Mutation::AddNode {
                    weight: w,
                    pos: pos(),
                }
            }
            // An edge between any two nodes.
            2 | 3 if n >= 2 => {
                let (u, mut v) = (a % n, b % n);
                if u == v {
                    v = (v + 1) % n;
                }
                Mutation::AddEdge { u, v, weight: w }
            }
            // Reinforce an existing edge.
            4 if !edges.is_empty() => {
                let (u, v, _) = edges[a as usize % edges.len()];
                Mutation::AddEdge {
                    u: v,
                    v: u,
                    weight: w,
                }
            }
            // Repeat an earlier edge of this batch.
            5 => match batch
                .iter()
                .rev()
                .find(|m| matches!(m, Mutation::AddEdge { .. }))
            {
                Some(&Mutation::AddEdge { u, v, .. }) => Mutation::AddEdge { u, v, weight: w },
                _ => continue,
            },
            // An edge between two nodes this batch added.
            6 if n >= first_new + 2 => {
                let span = n - first_new;
                let u = first_new + a % span;
                let v = first_new + (a % span + 1 + b % (span - 1)) % span;
                Mutation::AddEdge { u, v, weight: w }
            }
            7 | 8 if n >= 1 => Mutation::SetNodeWeight {
                node: a % n,
                weight: w,
            },
            // Faults.
            9 if faults > 0 => match faults % 7 {
                1 => Mutation::AddEdge {
                    u: a % n.max(1),
                    v: n + b % 3,
                    weight: w,
                },
                2 => Mutation::AddEdge {
                    u: n + a % 3,
                    v: 0,
                    weight: w,
                },
                3 => Mutation::AddEdge {
                    u: a % n.max(1),
                    v: a % n.max(1),
                    weight: w,
                },
                4 => Mutation::AddEdge {
                    u: 0,
                    v: 1 % n.max(2),
                    weight: 0,
                },
                5 => Mutation::SetNodeWeight {
                    node: a % (n + 2),
                    weight: w * (b % 2),
                },
                6 => Mutation::AddNode {
                    weight: 0,
                    pos: pos(),
                },
                _ => Mutation::AddNode {
                    weight: w,
                    pos: None,
                },
            },
            _ => continue,
        };
        batch.push(m);
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn span_copy_rebuild_matches_the_per_vertex_merge(
        raw in arb_raw_graph(),
        batches in vec((vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u64>()), 0..12), 0u8..8), 1..5),
    ) {
        let mut g = build(&raw);
        for (ops, faults) in &batches {
            let edges: Vec<(u32, u32, u32)> = g.edges().collect();
            // Faults in one batch of four; the rest stay valid.
            let faults = if faults % 4 == 0 { faults / 4 + 1 } else { 0 };
            let batch = concretize(ops, g.num_nodes(), &edges, g.coords().is_some(), faults);
            let want = reference_apply_batch(&g, &batch);
            match apply_batch(&g, &batch) {
                Ok((next, dirty)) => {
                    prop_assert_eq!(Ok(Rebuilt::of(&next, dirty.nodes())), want);
                    prop_assert!(next.validate().is_ok());
                    g = next;
                }
                Err(e) => prop_assert_eq!(Err(e), want),
            }
        }
    }
}

/// Each fault kind stops both rebuilds with the same error.
#[test]
fn every_error_case_is_the_reference_error() {
    let positioned = build(&(
        6,
        1,
        vec![(0, 1, 3), (1, 2, 4), (2, 3, 5)],
        3,
        false,
        Some(vec![7; 34]),
    ));
    let plain = build(&(6, 1, vec![(0, 1, 3), (1, 2, 4), (2, 3, 5)], 0, false, None));
    let p = Some(Point2::new(0.5, 0.5));
    let cases: Vec<(&CsrGraph, Vec<Mutation>, GraphError)> = vec![
        (
            &plain,
            vec![Mutation::AddEdge {
                u: 0,
                v: 9,
                weight: 1,
            }],
            GraphError::NodeOutOfRange {
                node: 9,
                num_nodes: 7,
            },
        ),
        (
            &plain,
            vec![Mutation::AddEdge {
                u: 8,
                v: 0,
                weight: 1,
            }],
            GraphError::NodeOutOfRange {
                node: 8,
                num_nodes: 7,
            },
        ),
        (
            &plain,
            vec![Mutation::SetNodeWeight { node: 7, weight: 1 }],
            GraphError::NodeOutOfRange {
                node: 7,
                num_nodes: 7,
            },
        ),
        (
            &plain,
            vec![Mutation::AddEdge {
                u: 2,
                v: 2,
                weight: 1,
            }],
            GraphError::SelfLoop { node: 2 },
        ),
        (
            &plain,
            vec![Mutation::AddEdge {
                u: 4,
                v: 2,
                weight: 0,
            }],
            GraphError::ZeroEdgeWeight { u: 4, v: 2 },
        ),
        (
            &plain,
            vec![Mutation::SetNodeWeight { node: 3, weight: 0 }],
            GraphError::ZeroNodeWeight { node: 3 },
        ),
        (
            &plain,
            vec![
                Mutation::AddNode {
                    weight: 1,
                    pos: None,
                },
                Mutation::AddNode {
                    weight: 0,
                    pos: None,
                },
            ],
            GraphError::ZeroNodeWeight { node: 8 },
        ),
        (
            &positioned,
            vec![
                Mutation::AddNode { weight: 1, pos: p },
                Mutation::AddNode {
                    weight: 1,
                    pos: None,
                },
            ],
            GraphError::MissingCoordinates,
        ),
    ];
    for (g, batch, want) in cases {
        assert_eq!(
            reference_apply_batch(g, &batch).unwrap_err(),
            want,
            "{batch:?}"
        );
        assert_eq!(apply_batch(g, &batch).unwrap_err(), want, "{batch:?}");
    }
}
