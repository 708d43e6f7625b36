//! Plane geometry helpers for coordinate-carrying graphs.
//!
//! The paper's test graphs represent 2-D physical domains, and the
//! index-based partitioner (appendix) maps coordinates to space-filling
//! indices, so graphs optionally carry one [`Point2`] per vertex.

use crate::error::GraphError;

/// A point in the plane. Coordinates are `f64` in arbitrary units; the
/// generators in this crate place vertices inside the unit square.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2::new(0.0, 0.0);

    /// Squared Euclidean distance to `other` (avoids the `sqrt` when only
    /// comparisons are needed, e.g. nearest-neighbour queries).
    pub fn dist2(&self, other: &Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    pub fn dist(&self, other: &Point2) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Componentwise translation.
    pub fn offset(&self, dx: f64, dy: f64) -> Point2 {
        Point2::new(self.x + dx, self.y + dy)
    }

    /// Clamps both coordinates into `[lo, hi]`.
    pub fn clamp(&self, lo: f64, hi: f64) -> Point2 {
        Point2::new(self.x.clamp(lo, hi), self.y.clamp(lo, hi))
    }
}

/// Axis-aligned bounding box of a non-empty point set.
///
/// Returns `None` for an empty slice.
pub fn bounding_box(points: &[Point2]) -> Option<(Point2, Point2)> {
    let first = points.first()?;
    let mut lo = *first;
    let mut hi = *first;
    for p in &points[1..] {
        lo.x = lo.x.min(p.x);
        lo.y = lo.y.min(p.y);
        hi.x = hi.x.max(p.x);
        hi.y = hi.y.max(p.y);
    }
    Some((lo, hi))
}

/// Quantizes points onto a `resolution × resolution` integer grid covering
/// their bounding box. Used by the index-based partitioner, which operates
/// on integer grid coordinates.
///
/// Degenerate boxes (all points on a vertical or horizontal line) map the
/// flat dimension to cell 0. `resolution` must be at least 1.
pub fn quantize(points: &[Point2], resolution: u32) -> Vec<(u32, u32)> {
    assert!(resolution >= 1, "resolution must be at least 1");
    let Some((lo, hi)) = bounding_box(points) else {
        return Vec::new();
    };
    let span_x = hi.x - lo.x;
    let span_y = hi.y - lo.y;
    let max_cell = (resolution - 1) as f64;
    points
        .iter()
        .map(|p| {
            let cx = if span_x > 0.0 {
                (((p.x - lo.x) / span_x) * max_cell).round() as u32
            } else {
                0
            };
            let cy = if span_y > 0.0 {
                (((p.y - lo.y) / span_y) * max_cell).round() as u32
            } else {
                0
            };
            (cx.min(resolution - 1), cy.min(resolution - 1))
        })
        .collect()
}

/// A [`NearestGrid`] cell size matched to the density of `points`: the
/// edge length of a square holding one point on average over the
/// bounding box — approximately the typical nearest-neighbour spacing,
/// which is the sweet spot for ring-search queries. Unlike a fixed
/// `1/√n`, this stays correct for coordinates on any scale (user-supplied
/// `.xy` files are not confined to the unit square).
///
/// Degenerate sets fall back sanely: collinear points use their span
/// divided by the count; empty or single-point sets return 1.0.
///
/// # Errors
///
/// [`GraphError::UnboundedCoords`] when the cell is not finite: finite
/// coordinates can still lie further apart than an `f64` measures.
pub fn density_cell(points: &[Point2]) -> Result<f64, GraphError> {
    let Some((lo, hi)) = bounding_box(points) else {
        return Ok(1.0);
    };
    let (w, h) = (hi.x - lo.x, hi.y - lo.y);
    let area = w * h;
    let cell = if area > 0.0 {
        (area / points.len() as f64).sqrt()
    } else if w.max(h) > 0.0 {
        w.max(h) / points.len() as f64
    } else {
        1.0
    };
    if cell.is_finite() {
        Ok(cell)
    } else {
        Err(GraphError::UnboundedCoords)
    }
}

/// Bucket index for [`NearestGrid`]. Deliberately a hash map: queries
/// probe O(k) cells by key on the hot incremental-growth path, and the
/// map is **never iterated** — every read goes through `get`, and ring
/// enumeration order comes from cell geometry — so its randomized
/// iteration order cannot reach any result.
// gapart-lint: allow(det-hash-iter) -- probe-only: read via get() exclusively, never iterated, so hash order cannot leak into query results
type BucketGrid = std::collections::HashMap<(i64, i64), Vec<u32>>;

/// Exact k-nearest-neighbour index over a growing 2-D point set, backed
/// by a uniform bucket grid.
///
/// Queries expand square rings of cells outward from the query's cell and
/// stop once the k-th best squared distance is provably closer than any
/// unvisited cell, so results are *exact*, not approximate. Ties in
/// distance break toward the lower point id, making every query a pure
/// function of the inserted point sequence — the determinism contract the
/// incremental-growth model relies on.
///
/// For points spread over a bounded domain with cell size on the order of
/// the typical point spacing, a query inspects `O(k)` cells, replacing
/// the `O(n log n)` full sort of a brute-force scan.
#[derive(Debug, Clone)]
pub struct NearestGrid {
    cell: f64,
    buckets: BucketGrid,
    points: Vec<Point2>,
}

impl NearestGrid {
    /// Creates an index with the given `cell` edge length and inserts
    /// `points` in order (point ids are their positions in the slice).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite.
    pub fn new(points: &[Point2], cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "bad cell size {cell}");
        let mut grid = NearestGrid {
            cell,
            buckets: BucketGrid::new(),
            points: Vec::with_capacity(points.len()),
        };
        for &p in points {
            grid.insert(p);
        }
        grid
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Inserts a point, returning its id (insertion order).
    pub fn insert(&mut self, p: Point2) -> u32 {
        let id = self.points.len() as u32;
        self.points.push(p);
        self.buckets.entry(self.cell_of(&p)).or_default().push(id);
        id
    }

    fn cell_of(&self, p: &Point2) -> (i64, i64) {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    /// The `k` nearest indexed points to `query`, ordered by
    /// `(squared distance, id)` ascending. Returns fewer than `k` ids only
    /// when the index holds fewer than `k` points.
    pub fn nearest(&self, query: &Point2, k: usize) -> Vec<u32> {
        let k = k.min(self.points.len());
        if k == 0 {
            return Vec::new();
        }
        let (cx, cy) = self.cell_of(query);
        let mut found: Vec<(f64, u32)> = Vec::with_capacity(k * 4);
        let mut ring: i64 = 0;
        loop {
            // Visit the cells whose Chebyshev index distance is exactly
            // `ring`, in a deterministic row-major order over the ring's
            // perimeter only (O(ring) cells, not O(ring²)).
            let visit = |dx: i64, dy: i64, found: &mut Vec<(f64, u32)>| {
                if let Some(ids) = self.buckets.get(&(cx + dx, cy + dy)) {
                    for &id in ids {
                        found.push((self.points[id as usize].dist2(query), id));
                    }
                }
            };
            for dy in -ring..=ring {
                if dy.abs() == ring {
                    for dx in -ring..=ring {
                        visit(dx, dy, &mut found);
                    }
                } else {
                    // |dy| < ring implies ring > 0, so the two columns
                    // are distinct cells.
                    visit(-ring, dy, &mut found);
                    visit(ring, dy, &mut found);
                }
            }
            if found.len() >= k {
                // Any point in an unvisited cell (index distance > ring)
                // is at least `ring × cell` away from anywhere in the
                // query's cell, hence from the query itself.
                let bound = ring as f64 * self.cell;
                found.sort_unstable_by(|a, b| {
                    a.0.partial_cmp(&b.0)
                        .expect("finite distances")
                        .then(a.1.cmp(&b.1))
                });
                if found[k - 1].0 <= bound * bound {
                    found.truncate(k);
                    return found.into_iter().map(|(_, id)| id).collect();
                }
            }
            ring += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.dist2(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point2::new(-1.5, 2.0);
        let b = Point2::new(4.0, -0.5);
        assert_eq!(a.dist(&b), b.dist(&a));
    }

    #[test]
    fn offset_and_clamp() {
        let p = Point2::new(0.5, 0.5).offset(1.0, -2.0);
        assert_eq!(p, Point2::new(1.5, -1.5));
        assert_eq!(p.clamp(0.0, 1.0), Point2::new(1.0, 0.0));
    }

    #[test]
    fn bounding_box_of_empty_is_none() {
        assert!(bounding_box(&[]).is_none());
    }

    #[test]
    fn bounding_box_covers_all_points() {
        let pts = [
            Point2::new(0.2, 0.9),
            Point2::new(-1.0, 0.3),
            Point2::new(0.7, -0.4),
        ];
        let (lo, hi) = bounding_box(&pts).unwrap();
        assert_eq!(lo, Point2::new(-1.0, -0.4));
        assert_eq!(hi, Point2::new(0.7, 0.9));
    }

    #[test]
    fn quantize_corners_map_to_grid_corners() {
        let pts = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.5, 0.5),
        ];
        let q = quantize(&pts, 8);
        assert_eq!(q[0], (0, 0));
        assert_eq!(q[1], (7, 7));
        // midpoint lands in the middle cells
        assert!(q[2].0 == 3 || q[2].0 == 4);
        assert!(q[2].1 == 3 || q[2].1 == 4);
    }

    #[test]
    fn quantize_degenerate_line() {
        // All x equal: the x dimension collapses to cell 0.
        let pts = [Point2::new(0.5, 0.0), Point2::new(0.5, 1.0)];
        let q = quantize(&pts, 4);
        assert_eq!(q[0], (0, 0));
        assert_eq!(q[1], (0, 3));
    }

    #[test]
    fn quantize_single_point() {
        let q = quantize(&[Point2::new(0.3, 0.3)], 16);
        assert_eq!(q, vec![(0, 0)]);
    }

    #[test]
    fn quantize_resolution_one_maps_everything_to_origin_cell() {
        let pts = [Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)];
        assert_eq!(quantize(&pts, 1), vec![(0, 0), (0, 0)]);
    }

    /// Brute-force reference: ids ordered by `(dist2, id)`.
    fn brute_nearest(points: &[Point2], query: &Point2, k: usize) -> Vec<u32> {
        let mut all: Vec<(f64, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (p.dist2(query), i as u32))
            .collect();
        all.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        all.truncate(k);
        all.into_iter().map(|(_, id)| id).collect()
    }

    #[test]
    fn nearest_grid_matches_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let points: Vec<Point2> = (0..400)
            .map(|_| Point2::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();
        let grid = NearestGrid::new(&points, 0.05);
        assert_eq!(grid.len(), 400);
        for _ in 0..50 {
            let q = Point2::new(rng.gen_range(-0.2..1.2), rng.gen_range(-0.2..1.2));
            for k in [1, 3, 7] {
                assert_eq!(grid.nearest(&q, k), brute_nearest(&points, &q, k));
            }
        }
    }

    #[test]
    fn nearest_grid_handles_growth_and_small_sets() {
        let mut grid = NearestGrid::new(&[], 0.1);
        assert!(grid.is_empty());
        assert!(grid.nearest(&Point2::ORIGIN, 3).is_empty());
        assert_eq!(grid.insert(Point2::new(0.0, 0.0)), 0);
        assert_eq!(grid.insert(Point2::new(5.0, 5.0)), 1);
        // More requested than indexed: all points, nearest first.
        assert_eq!(grid.nearest(&Point2::new(0.1, 0.0), 9), vec![0, 1]);
        assert_eq!(grid.nearest(&Point2::new(4.9, 5.0), 1), vec![1]);
    }

    #[test]
    fn nearest_grid_breaks_exact_ties_by_id() {
        // Two coincident points: lower id wins.
        let pts = [Point2::new(1.0, 1.0), Point2::new(1.0, 1.0)];
        let grid = NearestGrid::new(&pts, 0.5);
        assert_eq!(grid.nearest(&Point2::new(1.2, 1.0), 2), vec![0, 1]);
    }

    #[test]
    fn density_cell_tracks_the_coordinate_scale() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        // 100 points over [0, 1000]²: the density cell must be ~100, not
        // the unit-square 1/√n = 0.1 (which would make every ring search
        // probe millions of empty cells).
        let points: Vec<Point2> = (0..100)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let cell = density_cell(&points).unwrap();
        assert!((50.0..200.0).contains(&cell), "cell {cell}");
        let grid = NearestGrid::new(&points, cell);
        let q = Point2::new(500.0, 500.0);
        assert_eq!(grid.nearest(&q, 5), brute_nearest(&points, &q, 5));
        // Degenerate sets stay positive and finite.
        assert_eq!(density_cell(&[]), Ok(1.0));
        assert_eq!(density_cell(&[Point2::ORIGIN]), Ok(1.0));
        let line = [Point2::new(0.0, 3.0), Point2::new(8.0, 3.0)];
        assert_eq!(density_cell(&line), Ok(4.0));
        // Finite points whose span is not: an error, not a cell the
        // grid's constructor would reject.
        for far in [
            [Point2::new(1e308, 0.0), Point2::new(-1e308, 1.0)],
            [Point2::new(0.0, 0.0), Point2::new(1e200, 1e200)],
        ] {
            assert_eq!(density_cell(&far), Err(GraphError::UnboundedCoords));
        }
    }

    #[test]
    fn nearest_grid_finds_far_points_across_many_rings() {
        // Tiny cells relative to spread: the query must expand many rings
        // before finding anything, and must still be exact.
        let pts = [Point2::new(10.0, 10.0), Point2::new(-10.0, -10.0)];
        let grid = NearestGrid::new(&pts, 0.01);
        assert_eq!(grid.nearest(&Point2::new(9.0, 9.0), 1), vec![0]);
        assert_eq!(
            grid.nearest(&Point2::ORIGIN, 2),
            brute_nearest(&pts, &Point2::ORIGIN, 2)
        );
    }
}
