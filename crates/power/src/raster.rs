//! Incremental coverage raster: dense per-sample-point coverage counts for
//! the CCP-style backbone election.
//!
//! The reference election re-runs a spatial-grid range query for every sample
//! point of every candidate's sensing disk — O(n · disk-points · query) over
//! the whole election, which made deployment setup ~50× slower than the event
//! loop at 20 000 nodes. The raster inverts that: build the per-point
//! coverage counts **once** in O(n · disk-points), then a tentative demotion
//! is a pass over the candidate's own disk points with O(1) lookups and no
//! grid queries at all.
//!
//! The design follows the multiresolution-aggregation idea (maintain
//! precomputed per-cell aggregates instead of recomputing from raw points):
//! the lattice cell aggregate here is "how many active nodes cover this
//! sample point", and demoting a node is a local decrement of its disk's
//! cells.
//!
//! ## Equality contract with the reference
//!
//! [`CoverageRaster`] is bit-identical to the reference per-point
//! implementation (`ccp::elect_backbone_reference`) by construction:
//!
//! * Sample points come from the shared [`wsn_geom::Lattice`], so both paths
//!   evaluate predicates at the exact same coordinates (index-multiplied,
//!   never accumulated).
//! * A node covers a sample point under the **same predicate** the reference
//!   grid query uses: `point.distance_sq_to(node) ≤ r² + 1e-9`. That is also
//!   exactly [`wsn_geom::Circle::contains`] for the node's sensing disk,
//!   which is what guarantees the count delta of removing a node is 1 on
//!   precisely the points the reference checks.
//! * Therefore `counts[p] - 1 ≥ k` on every disk point ⇔ the reference's
//!   "remaining actives still k-cover the disk", point for point.
//!
//! ## The span walker
//!
//! Within one lattice row, `dx² + dy² ≤ r² + 1e-9` is monotone in `|dx|`
//! even as evaluated in floating point (subtraction, squaring and adding a
//! row-constant are all monotone maps), so the covered columns of a row form
//! an exact interval around the column nearest the disk centre; and because
//! the per-column predicate is monotone in `dy²`, those intervals are nested
//! between rows. The internal `DiskSpans` walker exploits both facts: it walks the disk's rows
//! keeping the interval's endpoints up to date with a few predicate probes
//! per row (expand or shrink from the previous row's endpoints), clipped to
//! the disk's bounding-box columns exactly like the reference. Every column
//! inside the reported span is covered — the interior of a disk row is
//! processed as one branch-free slice operation with no per-point test at
//! all.

use wsn_geom::{Circle, DenseRaster, Lattice, Point, Rect};

/// Dense lattice of "how many active sensing disks cover this sample point"
/// counts, supporting O(disk-points) incremental updates.
#[derive(Debug, Clone)]
pub struct CoverageRaster {
    counts: DenseRaster<u32>,
    /// Cached x coordinate of every lattice column (`lattice.point(ix, 0).x`).
    xs: Vec<f64>,
    /// Cached y coordinate of every lattice row (`lattice.point(0, iy).y`).
    ys: Vec<f64>,
    sensing_range: f64,
    /// The shared coverage threshold [`wsn_geom::coverage_threshold`]
    /// (`sensing_range² + ε`), exactly the `Circle::contains` / grid
    /// `query_range` comparison value.
    r2e: f64,
}

impl CoverageRaster {
    /// Creates an empty raster (no active nodes) over `region` with the given
    /// sensing range and lattice spacing.
    ///
    /// # Panics
    ///
    /// Panics if `sensing_range` or `spacing` is not strictly positive and
    /// finite (the election validates its config before building a raster).
    pub fn new(region: Rect, sensing_range: f64, spacing: f64) -> Self {
        assert!(
            sensing_range.is_finite() && sensing_range > 0.0,
            "sensing range must be positive and finite"
        );
        let lattice = Lattice::new(region, spacing).expect("validated spacing");
        let xs = (0..lattice.cols())
            .map(|ix| lattice.point(ix, 0).x)
            .collect();
        let ys = (0..lattice.rows())
            .map(|iy| lattice.point(0, iy).y)
            .collect();
        CoverageRaster {
            counts: DenseRaster::new(lattice),
            xs,
            ys,
            sensing_range,
            r2e: wsn_geom::coverage_threshold(sensing_range),
        }
    }

    /// Builds the raster with every node in `positions` active:
    /// O(n · disk-points) total.
    pub fn build(positions: &[Point], region: Rect, sensing_range: f64, spacing: f64) -> Self {
        let mut raster = CoverageRaster::new(region, sensing_range, spacing);
        // Integer adds commute bit-for-bit, so the counts do not depend on
        // insertion order — sweep the disks bottom-to-top so consecutive
        // disks write overlapping row bands instead of jumping across the
        // whole raster (the build is memory-bound at deployment scale).
        let mut order: Vec<u32> = (0..positions.len() as u32).collect();
        order
            .sort_unstable_by(|&a, &b| positions[a as usize].y.total_cmp(&positions[b as usize].y));
        for i in order {
            raster.add(positions[i as usize]);
        }
        raster
    }

    /// The sample-point lattice the counts live on.
    pub fn lattice(&self) -> &Lattice {
        self.counts.lattice()
    }

    /// Coverage count at sample point `(ix, iy)`.
    pub fn count(&self, ix: usize, iy: usize) -> u32 {
        self.counts.get(ix, iy)
    }

    /// Marks a node at `center` active: increments every lattice point its
    /// sensing disk covers.
    pub fn add(&mut self, center: Point) {
        self.update_covered(center, 1);
    }

    /// Marks a node at `center` inactive: decrements every lattice point its
    /// sensing disk covers.
    ///
    /// # Panics
    ///
    /// Debug builds panic on underflow, i.e. removing a node that was never
    /// added.
    pub fn remove(&mut self, center: Point) {
        self.update_covered(center, 1u32.wrapping_neg());
    }

    /// Demotes the active node at `center` if the remaining actives still
    /// `k`-cover its sensing disk — the CCP sleep eligibility rule — and
    /// returns whether it was demoted. On success the raster is decremented;
    /// on failure it is left untouched.
    ///
    /// The node's disk covers exactly the lattice points its removal would
    /// decrement, so eligibility is `count ≥ k + 1` on every covered point.
    /// A disk lying entirely outside the region covers no lattice point and
    /// is vacuously eligible, matching the reference.
    ///
    /// Check and decrement are fused row by row — each disk row is verified
    /// (`count ≥ k + 1` throughout) and immediately decremented while still
    /// cache-hot, so a successful demotion walks the disk once instead of
    /// twice. A failing row stops the walk before being modified, and the
    /// rows already decremented are rolled back by re-walking the same
    /// (deterministic) spans.
    pub fn try_demote(&mut self, center: Point, k: usize) -> bool {
        let threshold = u32::try_from(k).unwrap_or(u32::MAX).saturating_add(1);
        let CoverageRaster {
            counts,
            xs,
            ys,
            sensing_range,
            r2e,
        } = self;
        let Some(spans) = DiskSpans::over(xs, ys, center, *r2e, *sensing_range) else {
            return true;
        };
        let mut failed_row = None;
        for (iy, lo, hi) in spans {
            let row = &mut counts.row_mut(iy)[lo..=hi];
            if row.iter().any(|&c| c < threshold) {
                failed_row = Some(iy);
                break;
            }
            for c in row {
                *c -= 1;
            }
        }
        let Some(stop) = failed_row else {
            return true;
        };
        let rollback = DiskSpans::over(xs, ys, center, *r2e, *sensing_range).expect("walked above");
        for (iy, lo, hi) in rollback {
            if iy == stop {
                break;
            }
            for c in &mut counts.row_mut(iy)[lo..=hi] {
                *c += 1;
            }
        }
        false
    }

    /// Iterates `(y, column xs, coverage counts)` over every lattice row the
    /// sensing disk at `center` covers — the row's y coordinate, then the x
    /// coordinates and counts of its covered columns, in step — or `None`
    /// when the disk misses the lattice entirely. The incremental repair
    /// walks this to settle whole rows by their smallest count, looking
    /// further only at the points of rows that fall short.
    pub(crate) fn disk_rows(
        &self,
        center: Point,
    ) -> Option<impl Iterator<Item = (f64, &[f64], &[u32])> + '_> {
        let spans = DiskSpans::over(&self.xs, &self.ys, center, self.r2e, self.sensing_range)?;
        Some(spans.map(move |(iy, lo, hi)| {
            (
                self.ys[iy],
                &self.xs[lo..=hi],
                &self.counts.row(iy)[lo..=hi],
            )
        }))
    }

    /// Adds `delta` (wrapping; ±1 in practice) to every lattice point covered
    /// by the sensing disk at `center`.
    fn update_covered(&mut self, center: Point, delta: u32) {
        let CoverageRaster {
            counts,
            xs,
            ys,
            sensing_range,
            r2e,
        } = self;
        let Some(spans) = DiskSpans::over(xs, ys, center, *r2e, *sensing_range) else {
            return;
        };
        for (iy, lo, hi) in spans {
            for c in &mut counts.row_mut(iy)[lo..=hi] {
                debug_assert!(
                    delta != 1u32.wrapping_neg() || *c > 0,
                    "coverage count underflow: removing a node that was never added"
                );
                *c = c.wrapping_add(delta);
            }
        }
    }
}

/// Tracks which lattice cells' coverage changed across a churn batch: the
/// dirty region of the incremental backbone repair.
///
/// Every death or join marks the disk of the affected node; the repair then
/// keeps only the seeded nodes whose sensing disk touches a dirty cell
/// ([`DirtyRegion::touches`]) — "re-run the election only over lattice cells
/// whose coverage actually changed". Marks are counted per cell (`u8`,
/// saturating) so overlapping events stack, and [`DirtyRegion::clear`]
/// resets the tracker between batches.
///
/// Uses the same lattice, disk-span walker and shared coverage predicate as
/// [`CoverageRaster`], so "the cells a node's death would decrement" and
/// "the cells its disk marks dirty" are the same set by construction.
#[derive(Debug, Clone)]
pub struct DirtyRegion {
    marks: DenseRaster<u8>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    radius: f64,
    r2e: f64,
    dirty: usize,
}

impl DirtyRegion {
    /// Creates a clean tracker over `region` for disks of `radius`, sampled
    /// at `spacing`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` or `spacing` is not strictly positive and finite.
    pub fn new(region: Rect, radius: f64, spacing: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "dirty-region radius must be positive and finite"
        );
        let lattice = Lattice::new(region, spacing).expect("validated spacing");
        let xs = (0..lattice.cols())
            .map(|ix| lattice.point(ix, 0).x)
            .collect();
        let ys = (0..lattice.rows())
            .map(|iy| lattice.point(0, iy).y)
            .collect();
        DirtyRegion {
            marks: DenseRaster::new(lattice),
            xs,
            ys,
            radius,
            r2e: wsn_geom::coverage_threshold(radius),
            dirty: 0,
        }
    }

    /// Marks every lattice cell covered by the disk at `center` as dirty.
    pub fn mark_disk(&mut self, center: Point) {
        let DirtyRegion {
            marks,
            xs,
            ys,
            radius,
            r2e,
            dirty,
        } = self;
        let Some(spans) = DiskSpans::over(xs, ys, center, *r2e, *radius) else {
            return;
        };
        for (iy, lo, hi) in spans {
            for m in &mut marks.row_mut(iy)[lo..=hi] {
                if *m == 0 {
                    *dirty += 1;
                }
                *m = m.saturating_add(1);
            }
        }
    }

    /// Returns `true` when the disk at `center` covers at least one dirty
    /// cell — i.e. when a node there could have had its election decision
    /// perturbed by the changes recorded so far.
    pub fn touches(&self, center: Point) -> bool {
        let Some(spans) = DiskSpans::over(&self.xs, &self.ys, center, self.r2e, self.radius) else {
            return false;
        };
        for (iy, lo, hi) in spans {
            if self.marks.row(iy)[lo..=hi].iter().any(|&m| m > 0) {
                return true;
            }
        }
        false
    }

    /// Number of cells currently marked dirty.
    pub fn dirty_cells(&self) -> usize {
        self.dirty
    }

    /// Resets every mark; the tracker is clean again.
    pub fn clear(&mut self) {
        if self.dirty > 0 {
            for iy in 0..self.marks.lattice().rows() {
                self.marks.row_mut(iy).fill(0);
            }
        }
        self.dirty = 0;
    }
}

/// Iterator over `(row, first_col, last_col)` of the exact covered column
/// interval of every non-empty lattice row of one sensing disk, clipped to
/// the disk's bounding box like the reference implementation. See the module
/// docs for why the intervals are exact and nested.
struct DiskSpans<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
    center: Point,
    r2e: f64,
    /// Bounding-box column clip (inclusive).
    bx: (usize, usize),
    /// The in-box columns flanking `center.x` (inclusive range of at most
    /// three columns, found by exact binary search): a row's covered
    /// interval is centred on the disk centre, so a non-empty row always
    /// covers one of them — probing these decides row emptiness exactly and
    /// re-anchors the walk after an empty row.
    seed: (usize, usize),
    /// Next row to report and the last row of the disk (inclusive).
    iy: usize,
    iy_hi: usize,
    /// Covered interval of the previously visited row, if non-empty: the
    /// starting point for the next row's endpoint adjustment.
    prev: Option<(usize, usize)>,
}

impl<'a> DiskSpans<'a> {
    /// Sets up the walk for the disk at `center`; `None` when the disk's
    /// bounding box misses the lattice entirely.
    fn over(xs: &'a [f64], ys: &'a [f64], center: Point, r2e: f64, radius: f64) -> Option<Self> {
        let bb = Circle::new(center, radius).bounding_box();
        let (iy, iy_hi) = axis_range(ys, bb.min_y, bb.max_y)?;
        let bx = axis_range(xs, bb.min_x, bb.max_x)?;
        let above = xs.partition_point(|&x| x < center.x).min(bx.1);
        let seed = (above.saturating_sub(1).max(bx.0), (above + 1).min(bx.1));
        Some(DiskSpans {
            xs,
            ys,
            center,
            r2e,
            bx,
            seed,
            iy,
            iy_hi,
            prev: None,
        })
    }

    /// The exact coverage predicate at column `ix` for a row at squared
    /// vertical offset `dy2`: bit-for-bit the `Circle::contains` /
    /// `query_range` comparison.
    #[inline]
    fn covers(&self, ix: usize, dy2: f64) -> bool {
        let dx = self.xs[ix] - self.center.x;
        dx * dx + dy2 <= self.r2e
    }
}

impl Iterator for DiskSpans<'_> {
    type Item = (usize, usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let (bx_lo, bx_hi) = self.bx;
        while self.iy <= self.iy_hi {
            let iy = self.iy;
            self.iy += 1;
            let dy = self.ys[iy] - self.center.y;
            let dy2 = dy * dy;
            // The covered columns of this row form an exact interval (the
            // predicate is monotone in |dx| even in floating point), and the
            // intervals of successive rows are nested (the predicate is
            // monotone in dy² too). Each endpoint therefore only needs a few
            // exact-predicate steps from the previous row's interval: expand
            // while the next column outward is covered, then shrink past
            // uncovered columns. Total endpoint movement over the whole disk
            // is O(perimeter).
            let span = match self.prev {
                Some((mut lo, mut hi)) => {
                    while lo > bx_lo && self.covers(lo - 1, dy2) {
                        lo -= 1;
                    }
                    while lo <= hi && !self.covers(lo, dy2) {
                        lo += 1;
                    }
                    if lo > hi {
                        None
                    } else {
                        while hi < bx_hi && self.covers(hi + 1, dy2) {
                            hi += 1;
                        }
                        while hi > lo && !self.covers(hi, dy2) {
                            hi -= 1;
                        }
                        Some((lo, hi))
                    }
                }
                None => {
                    // No previous interval: probe the seed columns around the
                    // disk centre and expand outward from the first hit.
                    (self.seed.0..=self.seed.1)
                        .find(|&ix| self.covers(ix, dy2))
                        .map(|hit| {
                            let mut lo = hit;
                            let mut hi = hit;
                            while lo > bx_lo && self.covers(lo - 1, dy2) {
                                lo -= 1;
                            }
                            while hi < bx_hi && self.covers(hi + 1, dy2) {
                                hi += 1;
                            }
                            (lo, hi)
                        })
                }
            };
            self.prev = span;
            if let Some((lo, hi)) = span {
                return Some((iy, lo, hi));
            }
        }
        None
    }
}

/// Inclusive index range of the sorted coordinate array `coords` whose
/// values lie in `[min_v, max_v]`; `None` when the interval misses them all.
///
/// Equivalent to [`Lattice::col_range`]/[`Lattice::row_range`] (the lattice
/// coordinates are strictly increasing), but binary-searched over the cached
/// coordinates so the walker performs no per-disk divisions.
fn axis_range(coords: &[f64], min_v: f64, max_v: f64) -> Option<(usize, usize)> {
    let lo = coords.partition_point(|&v| v < min_v);
    let hi = coords.partition_point(|&v| v <= max_v);
    if lo >= hi {
        None
    } else {
        Some((lo, hi - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_range_matches_lattice_col_range() {
        let lattice = Lattice::new(Rect::square(100.0), 2.5).unwrap();
        let xs: Vec<f64> = (0..lattice.cols())
            .map(|ix| lattice.point(ix, 0).x)
            .collect();
        let mut state: u64 = 7;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 130.0 - 15.0
        };
        for _ in 0..300 {
            let (a, b) = (next(), next());
            let (min_v, max_v) = if a <= b { (a, b) } else { (b, a) };
            assert_eq!(
                axis_range(&xs, min_v, max_v),
                lattice.col_range(min_v, max_v),
                "interval [{min_v}, {max_v}]"
            );
        }
    }

    #[test]
    fn add_then_remove_restores_all_counts() {
        let mut r = CoverageRaster::new(Rect::square(200.0), 50.0, 5.0);
        let p = Point::new(73.0, 121.0);
        r.add(p);
        r.remove(p);
        let lat = *r.lattice();
        for iy in 0..lat.rows() {
            for ix in 0..lat.cols() {
                assert_eq!(r.count(ix, iy), 0);
            }
        }
    }

    #[test]
    fn counts_match_brute_force_per_point() {
        let positions = [
            Point::new(10.0, 10.0),
            Point::new(60.0, 40.0),
            Point::new(60.0, 40.0), // duplicate: counts stack
            Point::new(199.0, 199.0),
            Point::new(-30.0, 100.0), // outside the region: clipped disk
        ];
        let region = Rect::square(200.0);
        let r = CoverageRaster::build(&positions, region, 50.0, 5.0);
        let lat = *r.lattice();
        for iy in 0..lat.rows() {
            for ix in 0..lat.cols() {
                let p = lat.point(ix, iy);
                let expected = positions
                    .iter()
                    .filter(|&&q| p.distance_sq_to(q) <= 50.0 * 50.0 + 1e-9)
                    .count() as u32;
                assert_eq!(r.count(ix, iy), expected, "at {p}");
            }
        }
    }

    #[test]
    fn counts_match_brute_force_at_awkward_spacings_and_offsets() {
        // Non-round spacing and centres sitting exactly on lattice points or
        // exactly one sensing range apart exercise the span walker's seeding
        // and boundary handling.
        let region = Rect::square(100.0);
        for spacing in [1.7, 2.5, 3.3, 60.0] {
            let positions = [
                Point::new(50.0, 50.0),
                Point::new(50.0 + 25.0, 50.0), // boundary of the first disk
                Point::new(0.0, 0.0),
                Point::new(33.3, 66.6),
                Point::new(120.0, 50.0), // bounding box clipped at the edge
            ];
            let r = CoverageRaster::build(&positions, region, 25.0, spacing);
            let lat = *r.lattice();
            for iy in 0..lat.rows() {
                for ix in 0..lat.cols() {
                    let p = lat.point(ix, iy);
                    let expected = positions
                        .iter()
                        .filter(|&&q| p.distance_sq_to(q) <= 25.0 * 25.0 + 1e-9)
                        .count() as u32;
                    assert_eq!(r.count(ix, iy), expected, "spacing {spacing}, at {p}");
                }
            }
        }
    }

    #[test]
    fn lone_node_is_not_eligible_but_colocated_pair_is() {
        let region = Rect::square(100.0);
        let p = Point::new(50.0, 50.0);
        let mut r = CoverageRaster::build(&[p], region, 50.0, 5.0);
        assert!(!r.try_demote(p, 1), "sole cover must stay active");
        r.add(p);
        assert!(r.try_demote(p, 1), "a colocated twin makes it redundant");
        assert!(
            !r.try_demote(p, 1),
            "after one demotion the survivor is again the sole cover"
        );
    }

    #[test]
    fn disk_outside_region_is_vacuously_eligible() {
        let region = Rect::square(100.0);
        let far = Point::new(1000.0, 1000.0);
        let mut r = CoverageRaster::new(region, 50.0, 5.0);
        r.add(far); // covers no lattice point
        assert!(r.try_demote(far, 3));
    }

    #[test]
    fn dirty_region_marks_touch_and_clear() {
        let region = Rect::square(200.0);
        let mut d = DirtyRegion::new(region, 50.0, 5.0);
        assert_eq!(d.dirty_cells(), 0);
        let event = Point::new(60.0, 60.0);
        assert!(!d.touches(event), "clean tracker touches nothing");
        d.mark_disk(event);
        assert!(d.dirty_cells() > 0);
        // A disk overlapping the event's disk touches; a far one does not.
        assert!(d.touches(Point::new(140.0, 60.0)), "overlapping disk");
        assert!(!d.touches(Point::new(180.0, 180.0)), "disjoint disk");
        // Marks match exactly the cells a CoverageRaster add would touch.
        let mut r = CoverageRaster::new(region, 50.0, 5.0);
        r.add(event);
        let lat = *r.lattice();
        let mut marked = 0;
        for iy in 0..lat.rows() {
            for ix in 0..lat.cols() {
                if r.count(ix, iy) > 0 {
                    marked += 1;
                }
            }
        }
        assert_eq!(d.dirty_cells(), marked);
        d.clear();
        assert_eq!(d.dirty_cells(), 0);
        assert!(!d.touches(event));
    }

    #[test]
    fn dirty_region_overlapping_marks_stack() {
        let mut d = DirtyRegion::new(Rect::square(100.0), 30.0, 5.0);
        d.mark_disk(Point::new(50.0, 50.0));
        let once = d.dirty_cells();
        d.mark_disk(Point::new(50.0, 50.0));
        assert_eq!(d.dirty_cells(), once, "re-marking adds no new dirty cells");
        d.mark_disk(Point::new(60.0, 50.0));
        assert!(d.dirty_cells() > once, "a shifted disk dirties new cells");
    }

    #[test]
    fn clear_zeroes_every_mark() {
        // Overlapping and repeated disks (stacked marks), one clipped at the
        // region edge and one missing the lattice entirely.
        let region = Rect::square(200.0);
        let mut d = DirtyRegion::new(region, 50.0, 5.0);
        let centers = [
            Point::new(60.0, 60.0),
            Point::new(80.0, 70.0),
            Point::new(80.0, 70.0),
            Point::new(195.0, 10.0),
            Point::new(1100.0, 900.0),
        ];
        for &c in &centers {
            d.mark_disk(c);
        }
        assert!(d.dirty_cells() > 0);
        d.clear();
        assert_eq!(d.dirty_cells(), 0);
        let lat = *d.marks.lattice();
        for iy in 0..lat.rows() {
            for ix in 0..lat.cols() {
                assert_eq!(d.marks.get(ix, iy), 0, "mark left at ({ix}, {iy})");
            }
        }
        // The cleared tracker counts fresh marks from zero again.
        d.mark_disk(centers[0]);
        let mut once = DirtyRegion::new(region, 50.0, 5.0);
        once.mark_disk(centers[0]);
        assert_eq!(d.dirty_cells(), once.dirty_cells());
    }

    #[test]
    fn failed_demotion_leaves_counts_untouched() {
        let region = Rect::square(100.0);
        let a = Point::new(30.0, 50.0);
        let b = Point::new(70.0, 50.0);
        let mut r = CoverageRaster::build(&[a, b], region, 50.0, 5.0);
        let before = r.clone();
        assert!(!r.try_demote(a, 1), "b does not cover a's whole disk");
        let lat = *r.lattice();
        for iy in 0..lat.rows() {
            for ix in 0..lat.cols() {
                assert_eq!(r.count(ix, iy), before.count(ix, iy));
            }
        }
    }
}
