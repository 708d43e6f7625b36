//! SVG rendering of partitioned (coordinate-carrying) graphs.
//!
//! A partitioning library lives or dies by whether you can *see* the
//! partitions: this renders the mesh with one fill colour per part and
//! cut edges emphasized, so a `gapart-cli partition … --svg out.svg`
//! result can be eyeballed in any browser.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::geometry::bounding_box;
use crate::partition::Partition;
use std::fmt::Write as _;

/// Canvas width in pixels (height follows the aspect ratio).
const WIDTH: f64 = 640.0;

/// Vertex radius in pixels.
const NODE_RADIUS: f64 = 4.0;

/// A qualitative palette with enough contrast for up to 16 parts; labels
/// beyond 16 wrap around.
const PALETTE: [&str; 16] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf", "#aec7e8", "#ffbb78", "#98df8a", "#ff9896", "#c5b0d5", "#c49c94",
];

/// Colour assigned to `part`.
pub fn part_color(part: u32) -> &'static str {
    PALETTE[(part as usize) % PALETTE.len()]
}

/// Renders `graph` coloured by `partition` as an SVG document, 640 px
/// wide: internal edges thin and part-coloured, cut edges dark, dashed
/// and drawn above them.
///
/// # Errors
///
/// [`GraphError::MissingCoordinates`] if the graph carries no geometry.
///
/// # Panics
///
/// Panics if the partition covers a different number of nodes than the
/// graph has.
pub fn render_partition(graph: &CsrGraph, partition: &Partition) -> Result<String, GraphError> {
    assert_eq!(
        graph.num_nodes(),
        partition.num_nodes(),
        "partition/graph size mismatch"
    );
    let coords = graph.coords_required()?;
    let (lo, hi) = bounding_box(coords).unwrap_or((
        crate::geometry::Point2::ORIGIN,
        crate::geometry::Point2::new(1.0, 1.0),
    ));
    let span_x = (hi.x - lo.x).max(1e-9);
    let span_y = (hi.y - lo.y).max(1e-9);
    let margin = NODE_RADIUS * 3.0;
    let inner_w = WIDTH - 2.0 * margin;
    let inner_h = inner_w * span_y / span_x;
    let height = inner_h + 2.0 * margin;
    // SVG's y axis grows downward; flip so plots match math convention.
    let px = |x: f64| margin + (x - lo.x) / span_x * inner_w;
    let py = |y: f64| margin + (hi.y - y) / span_y * inner_h;

    let mut out = String::with_capacity(graph.num_nodes() * 96);
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.0} {:.0}">"#,
        WIDTH, height, WIDTH, height
    );
    let _ = writeln!(out, r#"<rect width="100%" height="100%" fill="white"/>"#);

    // Edges first (under the nodes): internal thin, cut emphasized.
    let labels = partition.labels();
    let mut cut_edges = String::new();
    for (u, v, _) in graph.edges() {
        let (pu, pv) = (labels[u as usize], labels[v as usize]);
        let (a, b) = (coords[u as usize], coords[v as usize]);
        if pu == pv {
            let _ = writeln!(
                out,
                r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="{}" stroke-width="1" stroke-opacity="0.5"/>"#,
                px(a.x),
                py(a.y),
                px(b.x),
                py(b.y),
                part_color(pu)
            );
        } else {
            let _ = writeln!(
                cut_edges,
                r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#222222" stroke-width="2" stroke-dasharray="4 2"/>"##,
                px(a.x),
                py(a.y),
                px(b.x),
                py(b.y)
            );
        }
    }
    out.push_str(&cut_edges); // cut edges drawn above internal ones

    for v in 0..graph.num_nodes() as u32 {
        let p = coords[v as usize];
        let _ = writeln!(
            out,
            r#"<circle cx="{:.1}" cy="{:.1}" r="{:.1}" fill="{}" stroke="black" stroke-width="0.5"/>"#,
            px(p.x),
            py(p.y),
            NODE_RADIUS,
            part_color(labels[v as usize])
        );
    }
    out.push_str("</svg>\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gnp, paper_graph};

    #[test]
    fn renders_well_formed_svg() {
        let g = paper_graph(78);
        let p = Partition::round_robin(78, 4);
        let svg = render_partition(&g, &p).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // One circle per node.
        assert_eq!(svg.matches("<circle").count(), 78);
        // One line per edge.
        assert_eq!(svg.matches("<line").count(), g.num_edges());
    }

    #[test]
    fn cut_edges_are_dashed_and_counted() {
        let g = paper_graph(98);
        let p = Partition::blocks(98, 2);
        let svg = render_partition(&g, &p).unwrap();
        let cut = crate::partition::cut_size(&g, &p) as usize;
        assert_eq!(svg.matches("stroke-dasharray").count(), cut);
    }

    #[test]
    fn palette_wraps() {
        assert_eq!(part_color(0), part_color(16));
        assert_ne!(part_color(0), part_color(1));
    }

    #[test]
    fn requires_coordinates() {
        let g = gnp(10, 0.3, 1);
        let p = Partition::round_robin(10, 2);
        assert_eq!(
            render_partition(&g, &p).unwrap_err(),
            GraphError::MissingCoordinates
        );
    }

    #[test]
    fn coordinates_are_scaled_into_canvas() {
        let g = paper_graph(78);
        let p = Partition::round_robin(78, 4);
        let svg = render_partition(&g, &p).unwrap();
        for cap in svg.split("cx=\"").skip(1) {
            let x: f64 = cap.split('"').next().unwrap().parse().unwrap();
            assert!((0.0..=WIDTH).contains(&x), "cx {x} outside canvas");
        }
    }
}
