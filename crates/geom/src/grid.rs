//! A uniform spatial hash grid for fast range queries over node positions.

use crate::{Circle, Point, Rect};
use std::error::Error;
use std::fmt;

/// [`SpatialGrid`]'s cell index of an id that is not in the grid. The grid
/// refuses more cells than this, so no cell index can equal it.
const ABSENT: u32 = u32::MAX;

/// Error returned when constructing a [`SpatialGrid`] with an invalid cell size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError {
    kind: &'static str,
}

impl GridError {
    /// Creates an error with the given description (shared with the other
    /// grid-like structures in this crate, e.g. [`crate::Lattice`]).
    pub(crate) fn new(kind: &'static str) -> Self {
        GridError { kind }
    }
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid spatial grid parameter: {}", self.kind)
    }
}

impl Error for GridError {}

/// A uniform grid (spatial hash) over a rectangular region that buckets
/// items by position.
///
/// The wireless channel model asks "which nodes are within communication
/// range of node *n*?" for every transmission; with 200 nodes a linear scan
/// would be acceptable, but the grid keeps the simulator comfortably fast for
/// the larger deployments exercised in the benchmarks (thousands of nodes).
///
/// Items are identified by a caller-chosen `usize` id. Ids index a dense
/// vector of cell indices (four bytes per id up to the largest id
/// inserted), so they must be small and dense, like the slot indices of
/// a deployment; [`insert`](Self::insert) refuses `usize::MAX`.
///
/// Each cell keeps its items in insertion order: an insert appends, a move
/// (re-insert) takes the item out of its old cell and appends it to its new
/// one, and a remove closes the gap. Range queries and [`iter`](Self::iter)
/// visit cells in row-major order, so they yield ids ordered by cell, then
/// by when each id was last inserted or moved.
///
/// ```
/// use wsn_geom::{Point, Rect, SpatialGrid};
///
/// let mut grid = SpatialGrid::new(Rect::square(450.0), 105.0)?;
/// grid.insert(0, Point::new(10.0, 10.0));
/// grid.insert(1, Point::new(50.0, 10.0));
/// grid.insert(2, Point::new(400.0, 400.0));
/// let near: Vec<usize> = grid.query_range(Point::new(0.0, 0.0), 100.0).collect();
/// assert!(near.contains(&0) && near.contains(&1) && !near.contains(&2));
/// # Ok::<(), wsn_geom::GridError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    region: Rect,
    cell: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<(usize, Point)>>,
    /// The cell holding each id, or [`ABSENT`]; indexed by id.
    cell_of: Vec<u32>,
    len: usize,
}

impl SpatialGrid {
    /// Creates an empty grid over `region` with square cells of side `cell_size`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError`] if `cell_size` is not strictly positive and
    /// finite, or if the region needs more cells than a `u32` can index.
    pub fn new(region: Rect, cell_size: f64) -> Result<Self, GridError> {
        if !(cell_size.is_finite() && cell_size > 0.0) {
            return Err(GridError {
                kind: "cell size must be positive and finite",
            });
        }
        let cols = (region.width() / cell_size).ceil().max(1.0) as usize;
        let rows = (region.height() / cell_size).ceil().max(1.0) as usize;
        let Some(n_cells) = cols.checked_mul(rows).filter(|&n| n <= ABSENT as usize) else {
            return Err(GridError {
                kind: "region needs more cells than a u32 can index",
            });
        };
        Ok(SpatialGrid {
            region,
            cell: cell_size,
            cols,
            rows,
            cells: vec![Vec::new(); n_cells],
            cell_of: Vec::new(),
            len: 0,
        })
    }

    /// Number of items stored in the grid.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the grid holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The region this grid covers.
    pub fn region(&self) -> Rect {
        self.region
    }

    fn cell_index(&self, p: Point) -> usize {
        let clamped = self.region.clamp(p);
        let cx = (((clamped.x - self.region.min_x) / self.cell) as usize).min(self.cols - 1);
        let cy = (((clamped.y - self.region.min_y) / self.cell) as usize).min(self.rows - 1);
        cy * self.cols + cx
    }

    /// Reserves room in the id index for `additional` more ids past the
    /// largest inserted so far, so a bulk load of ids `0..n` (one insert per
    /// node of a deployment) allocates it once.
    pub fn reserve(&mut self, additional: usize) {
        self.cell_of.reserve(additional);
    }

    /// The cell holding `id`, if the grid holds it.
    fn cell_holding(&self, id: usize) -> Option<usize> {
        self.cell_of
            .get(id)
            .filter(|&&c| c != ABSENT)
            .map(|&c| c as usize)
    }

    /// Takes `id` out of cell `idx`, keeping the order of the rest, and
    /// returns its position.
    fn take_from_cell(&mut self, idx: usize, id: usize) -> Point {
        let cell = &mut self.cells[idx];
        let at = cell
            .iter()
            .position(|&(other, _)| other == id)
            .expect("an indexed id sits in its cell");
        cell.remove(at).1
    }

    /// Inserts an item, or moves it if it is already present.
    ///
    /// Ids index a dense vector: inserting id `n` grows the id index to
    /// `n + 1` entries of four bytes each, so a sparse id costs memory in
    /// proportion to its value.
    ///
    /// # Panics
    ///
    /// Panics if `id` is `usize::MAX`, or if the id index cannot grow to
    /// `id + 1` entries.
    pub fn insert(&mut self, id: usize, position: Point) {
        match self.cell_holding(id) {
            Some(prev) => {
                self.take_from_cell(prev, id);
            }
            None => {
                if id >= self.cell_of.len() {
                    let entries = id
                        .checked_add(1)
                        .expect("grid ids index a dense vector; usize::MAX is not an id");
                    self.cell_of.resize(entries, ABSENT);
                }
                self.len += 1;
            }
        }
        let idx = self.cell_index(position);
        self.cells[idx].push((id, position));
        // `new` caps the cell count at `ABSENT`, so every index fits.
        self.cell_of[id] = idx as u32;
    }

    /// Removes an item. Returns its last position if it was present.
    pub fn remove(&mut self, id: usize) -> Option<Point> {
        let idx = self.cell_holding(id)?;
        self.cell_of[id] = ABSENT;
        self.len -= 1;
        Some(self.take_from_cell(idx, id))
    }

    /// Position of an item, if present: a scan of the item's cell.
    pub fn position(&self, id: usize) -> Option<Point> {
        let idx = self.cell_holding(id)?;
        self.cells[idx]
            .iter()
            .find(|&&(other, _)| other == id)
            .map(|&(_, p)| p)
    }

    /// Iterator over the ids of all items within `radius` of `center`
    /// (inclusive of the boundary).
    pub fn query_range(&self, center: Point, radius: f64) -> impl Iterator<Item = usize> + '_ {
        self.query_range_with_pos(center, radius).map(|(id, _)| id)
    }

    /// Iterator over `(id, position)` of all items within `radius` of `center`.
    pub fn query_range_with_pos(
        &self,
        center: Point,
        radius: f64,
    ) -> impl Iterator<Item = (usize, Point)> + '_ {
        let r = radius.max(0.0);
        let min_cx = (((center.x - r - self.region.min_x) / self.cell)
            .floor()
            .max(0.0)) as usize;
        let max_cx = (((center.x + r - self.region.min_x) / self.cell)
            .floor()
            .max(0.0) as usize)
            .min(self.cols - 1);
        let min_cy = (((center.y - r - self.region.min_y) / self.cell)
            .floor()
            .max(0.0)) as usize;
        let max_cy = (((center.y + r - self.region.min_y) / self.cell)
            .floor()
            .max(0.0) as usize)
            .min(self.rows - 1);
        let min_cx = min_cx.min(self.cols - 1);
        let min_cy = min_cy.min(self.rows - 1);
        // The shared coverage predicate (same threshold as Circle::contains
        // and the wsn-power coverage raster), hoisted out of the loop.
        let r2e = crate::coverage_threshold(r);
        (min_cy..=max_cy)
            .flat_map(move |cy| (min_cx..=max_cx).map(move |cx| cy * self.cols + cx))
            .flat_map(move |idx| self.cells[idx].iter().copied())
            .filter(move |(_, p)| center.distance_sq_to(*p) <= r2e)
    }

    /// Iterator over the ids of all items inside the given circle.
    pub fn query_circle(&self, circle: Circle) -> impl Iterator<Item = usize> + '_ {
        self.query_range(circle.center, circle.radius)
    }

    /// Id and position of the item nearest to `target`, if any.
    ///
    /// Ties (identical squared distance) resolve to the smallest id, so the
    /// result is deterministic regardless of insertion order. Cost is an
    /// expanding-ring search over grid cells: O(items near `target`) instead
    /// of O(all items), which is what keeps per-query lookups flat as
    /// deployments grow to tens of thousands of nodes.
    pub fn nearest(&self, target: Point) -> Option<(usize, Point)> {
        self.nearest_filtered(target, |_| true)
    }

    /// Id and position of the nearest item for which `filter` returns `true`,
    /// if any. Same tie-break contract as [`nearest`](Self::nearest):
    /// smallest squared distance, then smallest id.
    ///
    /// The search visits cells in expanding Chebyshev rings around the
    /// target's cell and stops as soon as no unvisited ring can contain a
    /// closer item, so a filter that accepts items near `target` makes the
    /// lookup effectively O(1) in the total item count.
    pub fn nearest_filtered(
        &self,
        target: Point,
        mut filter: impl FnMut(usize) -> bool,
    ) -> Option<(usize, Point)> {
        if self.is_empty() {
            return None;
        }
        // Cell containing the target (clamped into the region). For targets
        // outside the region the clamped point is no farther from any stored
        // item than the target is, so ring lower bounds below remain valid.
        let clamped = self.region.clamp(target);
        let tcx = (((clamped.x - self.region.min_x) / self.cell) as usize).min(self.cols - 1);
        let tcy = (((clamped.y - self.region.min_y) / self.cell) as usize).min(self.rows - 1);

        let mut best: Option<(usize, Point)> = None;
        let mut best_d = f64::INFINITY;
        // Enough rings to cover every cell from any starting cell.
        let max_ring = self.cols.max(self.rows);
        for ring in 0..=max_ring {
            if best.is_some() {
                // Any item in an unvisited cell of this ring sits at least
                // (ring - 1) whole cells away along some axis.
                let ring_min = (ring as f64 - 1.0).max(0.0) * self.cell;
                if ring_min * ring_min > best_d {
                    break;
                }
            }
            self.scan_ring(tcx, tcy, ring, |id, pos| {
                if !filter(id) {
                    return;
                }
                let d = target.distance_sq_to(pos);
                let better = match best {
                    None => true,
                    Some((best_id, _)) => d < best_d || (d == best_d && id < best_id),
                };
                if better {
                    best_d = d;
                    best = Some((id, pos));
                }
            });
        }
        best
    }

    /// Calls `visit` for every item in the cells at Chebyshev distance `ring`
    /// from cell `(tcx, tcy)`, skipping cells outside the grid. Rings are
    /// disjoint, so repeated calls with increasing `ring` visit each item at
    /// most once.
    fn scan_ring(&self, tcx: usize, tcy: usize, ring: usize, mut visit: impl FnMut(usize, Point)) {
        let (tcx, tcy, r) = (tcx as isize, tcy as isize, ring as isize);
        let mut scan_cell = |cx: isize, cy: isize| {
            if cx < 0 || cy < 0 || cx >= self.cols as isize || cy >= self.rows as isize {
                return;
            }
            for &(id, pos) in &self.cells[cy as usize * self.cols + cx as usize] {
                visit(id, pos);
            }
        };
        if ring == 0 {
            scan_cell(tcx, tcy);
            return;
        }
        for cx in (tcx - r)..=(tcx + r) {
            scan_cell(cx, tcy - r);
            scan_cell(cx, tcy + r);
        }
        for cy in (tcy - r + 1)..=(tcy + r - 1) {
            scan_cell(tcx - r, cy);
            scan_cell(tcx + r, cy);
        }
    }

    /// Iterator over every `(id, position)` pair in the grid, by cell in
    /// row-major order, then by when each id was last inserted or moved.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Point)> + '_ {
        self.cells.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_with_points(points: &[(usize, Point)]) -> SpatialGrid {
        let mut g = SpatialGrid::new(Rect::square(450.0), 105.0).unwrap();
        for &(id, p) in points {
            g.insert(id, p);
        }
        g
    }

    #[test]
    fn invalid_cell_size_is_an_error() {
        assert!(SpatialGrid::new(Rect::square(10.0), 0.0).is_err());
        assert!(SpatialGrid::new(Rect::square(10.0), f64::NAN).is_err());
        assert!(SpatialGrid::new(Rect::square(10.0), -5.0).is_err());
        // 10⁸ × 10⁸ cells, and a count that overflows `usize` itself.
        assert!(SpatialGrid::new(Rect::square(1.0e6), 0.01).is_err());
        assert!(SpatialGrid::new(Rect::square(1.0e300), 1.0e-300).is_err());
    }

    #[test]
    fn insert_query_remove_round_trip() {
        let mut g = grid_with_points(&[(7, Point::new(10.0, 10.0))]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.position(7), Some(Point::new(10.0, 10.0)));
        assert_eq!(g.remove(7), Some(Point::new(10.0, 10.0)));
        assert!(g.is_empty());
        assert_eq!(g.remove(7), None);
    }

    #[test]
    #[should_panic(expected = "usize::MAX is not an id")]
    fn the_largest_usize_is_not_an_id() {
        grid_with_points(&[(usize::MAX, Point::new(10.0, 10.0))]);
    }

    #[test]
    fn reinsert_moves_item() {
        let mut g = grid_with_points(&[(3, Point::new(10.0, 10.0))]);
        g.insert(3, Point::new(400.0, 400.0));
        assert_eq!(g.len(), 1);
        let found: Vec<_> = g.query_range(Point::new(400.0, 400.0), 5.0).collect();
        assert_eq!(found, vec![3]);
        assert_eq!(g.query_range(Point::new(10.0, 10.0), 5.0).count(), 0);
    }

    #[test]
    fn range_query_matches_brute_force() {
        // Deterministic pseudo-random points via a simple LCG so this test
        // does not need the rand crate at build time.
        let mut state: u64 = 0x1234_5678;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 450.0
        };
        let pts: Vec<(usize, Point)> = (0..300).map(|i| (i, Point::new(next(), next()))).collect();
        let g = grid_with_points(&pts);
        let center = Point::new(200.0, 220.0);
        let radius = 105.0;
        let mut from_grid: Vec<usize> = g.query_range(center, radius).collect();
        from_grid.sort_unstable();
        let mut brute: Vec<usize> = pts
            .iter()
            .filter(|(_, p)| center.distance_to(*p) <= radius)
            .map(|(i, _)| *i)
            .collect();
        brute.sort_unstable();
        assert_eq!(from_grid, brute);
    }

    #[test]
    fn query_outside_region_is_safe() {
        let g = grid_with_points(&[(0, Point::new(5.0, 5.0))]);
        // Query centred far outside the region must not panic and still finds
        // nothing (or the clamped cell's contents filtered by distance).
        assert_eq!(g.query_range(Point::new(-1000.0, -1000.0), 10.0).count(), 0);
        assert_eq!(
            g.query_range(Point::new(10_000.0, 10_000.0), 10.0).count(),
            0
        );
    }

    #[test]
    fn nearest_returns_closest() {
        let g = grid_with_points(&[
            (0, Point::new(10.0, 10.0)),
            (1, Point::new(100.0, 100.0)),
            (2, Point::new(440.0, 440.0)),
        ]);
        assert_eq!(g.nearest(Point::new(95.0, 95.0)).unwrap().0, 1);
        assert_eq!(g.nearest(Point::new(0.0, 0.0)).unwrap().0, 0);
    }

    #[test]
    fn nearest_on_empty_grid_is_none() {
        let g = SpatialGrid::new(Rect::square(10.0), 1.0).unwrap();
        assert!(g.nearest(Point::ORIGIN).is_none());
    }

    #[test]
    fn nearest_breaks_exact_ties_by_smallest_id() {
        // Two items at the same position, and a symmetric pair equidistant
        // from the probe: the smaller id must win in both cases.
        let g = grid_with_points(&[
            (9, Point::new(100.0, 100.0)),
            (4, Point::new(100.0, 100.0)),
            (7, Point::new(200.0, 210.0)),
            (2, Point::new(200.0, 190.0)),
        ]);
        assert_eq!(g.nearest(Point::new(101.0, 101.0)).unwrap().0, 4);
        assert_eq!(g.nearest(Point::new(200.0, 200.0)).unwrap().0, 2);
    }

    #[test]
    fn nearest_crosses_cell_boundaries() {
        // With 105 m cells, id 0 lives in the probe's cell and id 1 in the
        // next cell over. A probe near the shared boundary is closer to id 1,
        // so the search must keep expanding past a ring that already holds a
        // candidate.
        let g = grid_with_points(&[(0, Point::new(100.0, 10.0)), (1, Point::new(106.0, 10.0))]);
        assert_eq!(g.nearest(Point::new(5.0, 10.0)).unwrap().0, 0);
        assert_eq!(g.nearest(Point::new(104.99, 10.0)).unwrap().0, 1);
    }

    #[test]
    fn nearest_far_outside_region_still_finds_items() {
        let g = grid_with_points(&[(3, Point::new(10.0, 10.0)), (5, Point::new(440.0, 440.0))]);
        assert_eq!(g.nearest(Point::new(-5000.0, -5000.0)).unwrap().0, 3);
        assert_eq!(g.nearest(Point::new(9000.0, 9000.0)).unwrap().0, 5);
    }

    #[test]
    fn nearest_filtered_skips_rejected_items() {
        let g = grid_with_points(&[
            (0, Point::new(50.0, 50.0)),
            (1, Point::new(60.0, 50.0)),
            (2, Point::new(400.0, 400.0)),
        ]);
        let p = Point::new(49.0, 50.0);
        assert_eq!(g.nearest_filtered(p, |_| true).unwrap().0, 0);
        assert_eq!(g.nearest_filtered(p, |id| id != 0).unwrap().0, 1);
        assert_eq!(g.nearest_filtered(p, |id| id == 2).unwrap().0, 2);
        assert!(g.nearest_filtered(p, |_| false).is_none());
    }

    #[test]
    fn query_circle_equivalent_to_query_range() {
        let g = grid_with_points(&[(0, Point::new(50.0, 50.0)), (1, Point::new(300.0, 300.0))]);
        let c = Circle::new(Point::new(40.0, 40.0), 30.0);
        let a: Vec<_> = g.query_circle(c).collect();
        let b: Vec<_> = g.query_range(c.center, c.radius).collect();
        assert_eq!(a, b);
    }
}
