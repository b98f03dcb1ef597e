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

use std::error::Error;
use std::fmt;
use wsn_geom::{Circle, DenseRaster, Lattice, Point, Rect};

/// The most sensing disks that may cover one sample point: the largest
/// count a [`CoverageRaster`] cell holds.
pub const MAX_COVERAGE_COUNT: u16 = u16::MAX;

/// Error of a [`CoverageRaster::add`] that would push a sample point's
/// coverage count past [`MAX_COVERAGE_COUNT`]: more sensing disks cover
/// one point than the raster counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageOverflow;

impl fmt::Display for CoverageOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "more than {MAX_COVERAGE_COUNT} sensing disks cover one coverage sample point, \
             the limit of the CCP coverage raster's 16-bit counts"
        )
    }
}

impl Error for CoverageOverflow {}

/// Dense lattice of "how many active sensing disks cover this sample point"
/// counts, supporting O(disk-points) incremental updates.
///
/// Counts are `u16`, two bytes per lattice cell: the election and the
/// repair only compare them against `k + 1` for small coverage degrees `k`.
/// [`add`](Self::add) tests each increment for a wrap in the same pass; a
/// wrap undoes the add and returns [`CoverageOverflow`].
#[derive(Debug, Clone)]
pub struct CoverageRaster {
    counts: DenseRaster<u16>,
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
    ///
    /// # Errors
    ///
    /// Returns [`CoverageOverflow`] when more than [`MAX_COVERAGE_COUNT`]
    /// of the disks cover one sample point.
    pub fn build(
        positions: &[Point],
        region: Rect,
        sensing_range: f64,
        spacing: f64,
    ) -> Result<Self, CoverageOverflow> {
        let mut raster = CoverageRaster::new(region, sensing_range, spacing);
        // Integer adds commute bit-for-bit, so the counts do not depend on
        // insertion order — sweep the disks bottom-to-top so consecutive
        // disks write overlapping row bands instead of jumping across the
        // whole raster (the build is memory-bound at deployment scale).
        let mut order: Vec<u32> = (0..positions.len() as u32).collect();
        order
            .sort_unstable_by(|&a, &b| positions[a as usize].y.total_cmp(&positions[b as usize].y));
        for i in order {
            raster.add(positions[i as usize])?;
        }
        Ok(raster)
    }

    /// The sample-point lattice the counts live on.
    pub fn lattice(&self) -> &Lattice {
        self.counts.lattice()
    }

    /// Coverage count at sample point `(ix, iy)`.
    pub fn count(&self, ix: usize, iy: usize) -> u32 {
        u32::from(self.counts.get(ix, iy))
    }

    /// Marks a node at `center` active: increments every lattice point its
    /// sensing disk covers.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageOverflow`], leaving every count as it was, when a
    /// covered point already counts [`MAX_COVERAGE_COUNT`] disks.
    pub fn add(&mut self, center: Point) -> Result<(), CoverageOverflow> {
        // The wrap test rides in the increment pass; a wrapping row ends the
        // walk, and every row counted so far, that one included, is undone.
        let Some(stop) = self.walk_rows(center, |_, row| {
            let mut wrapped = false;
            for c in row {
                *c = c.wrapping_add(1);
                wrapped |= *c == 0;
            }
            wrapped
        }) else {
            return Ok(());
        };
        self.walk_rows(center, |iy, row| {
            for c in row {
                *c = c.wrapping_sub(1);
            }
            iy == stop
        });
        Err(CoverageOverflow)
    }

    /// Marks a node at `center` inactive: decrements every lattice point its
    /// sensing disk covers.
    ///
    /// # Panics
    ///
    /// Debug builds panic on underflow, i.e. removing a node that was never
    /// added.
    pub fn remove(&mut self, center: Point) {
        self.walk_rows(center, |_, row| {
            for c in row {
                debug_assert!(
                    *c > 0,
                    "coverage count underflow: removing a node that was never added"
                );
                *c = c.wrapping_sub(1);
            }
            false
        });
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
        // Compared in u32, where `k + 1` saturates only far above any count.
        let threshold = u32::try_from(k).unwrap_or(u32::MAX).saturating_add(1);
        let Some(stop) = self.walk_rows(center, |_, row| {
            if row.iter().any(|&c| u32::from(c) < threshold) {
                return true;
            }
            for c in row {
                *c -= 1;
            }
            false
        }) else {
            return true;
        };
        self.walk_rows(center, |iy, row| {
            if iy == stop {
                return true;
            }
            for c in row {
                *c += 1;
            }
            false
        });
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
    ) -> Option<impl Iterator<Item = (f64, &[f64], &[u16])> + '_> {
        let spans = DiskSpans::over(&self.xs, &self.ys, center, self.r2e, self.sensing_range)?;
        Some(spans.map(move |(iy, lo, hi)| {
            (
                self.ys[iy],
                &self.xs[lo..=hi],
                &self.counts.row(iy)[lo..=hi],
            )
        }))
    }

    /// Hands `visit` the covered counts of each lattice row of the sensing
    /// disk at `center`, bottom to top, until it returns `true`; returns the
    /// row it stopped at, or `None` when it visited every row.
    fn walk_rows(
        &mut self,
        center: Point,
        mut visit: impl FnMut(usize, &mut [u16]) -> bool,
    ) -> Option<usize> {
        let spans = DiskSpans::over(&self.xs, &self.ys, center, self.r2e, self.sensing_range)?;
        for (iy, lo, hi) in spans {
            if visit(iy, &mut self.counts.row_mut(iy)[lo..=hi]) {
                return Some(iy);
            }
        }
        None
    }
}

/// Tracks which lattice cells' coverage changed across a churn batch: the
/// dirty region of the incremental backbone repair.
///
/// Every death or join marks the disk of the affected node; the repair then
/// keeps only the seeded nodes whose sensing disk touches a dirty cell
/// ([`DirtyRegion::touches`]) — "re-run the election only over lattice cells
/// whose coverage actually changed". A cell is marked or not: one bit per
/// lattice cell, packed into `u64` words per lattice row, so marking a
/// disk row or testing it is a few masked word operations, and
/// [`DirtyRegion::clear`] resets the tracker between batches by zeroing
/// an eighth of a byte per cell.
///
/// Uses the same lattice, disk-span walker and shared coverage predicate as
/// [`CoverageRaster`], so "the cells a node's death would decrement" and
/// "the cells its disk marks dirty" are the same set by construction.
#[derive(Debug, Clone)]
pub struct DirtyRegion {
    /// Bit `ix % 64` of word `iy * words_per_row + ix / 64` marks cell
    /// `(ix, iy)`.
    marks: Vec<u64>,
    words_per_row: usize,
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
        let xs: Vec<f64> = (0..lattice.cols())
            .map(|ix| lattice.point(ix, 0).x)
            .collect();
        let ys: Vec<f64> = (0..lattice.rows())
            .map(|iy| lattice.point(0, iy).y)
            .collect();
        let words_per_row = xs.len().div_ceil(64);
        DirtyRegion {
            marks: vec![0; words_per_row * ys.len()],
            words_per_row,
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
            words_per_row,
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
            let row = &mut marks[iy * *words_per_row..][..*words_per_row];
            for (w, mask) in span_words(lo, hi) {
                *dirty += (mask & !row[w]).count_ones() as usize;
                row[w] |= mask;
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
            let row = &self.marks[iy * self.words_per_row..][..self.words_per_row];
            if span_words(lo, hi).any(|(w, mask)| row[w] & mask != 0) {
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
            self.marks.fill(0);
        }
        self.dirty = 0;
    }

    /// Whether cell `(ix, iy)` is marked.
    #[cfg(test)]
    fn is_marked(&self, ix: usize, iy: usize) -> bool {
        self.marks[iy * self.words_per_row + ix / 64] >> (ix % 64) & 1 == 1
    }
}

/// The words of one packed bit row that hold columns `lo..=hi`, each with
/// the mask of those columns' bits.
fn span_words(lo: usize, hi: usize) -> impl Iterator<Item = (usize, u64)> {
    (lo / 64..=hi / 64).map(move |w| {
        let first = lo.max(w * 64) - w * 64;
        let last = hi.min(w * 64 + 63) - w * 64;
        (w, (u64::MAX >> (63 - (last - first))) << first)
    })
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
        r.add(p).unwrap();
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
        let r = CoverageRaster::build(&positions, region, 50.0, 5.0).unwrap();
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
            let r = CoverageRaster::build(&positions, region, 25.0, spacing).unwrap();
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
        let mut r = CoverageRaster::build(&[p], region, 50.0, 5.0).unwrap();
        assert!(!r.try_demote(p, 1), "sole cover must stay active");
        r.add(p).unwrap();
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
        r.add(far).unwrap(); // covers no lattice point
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
        r.add(event).unwrap();
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
    fn dirty_region_counts_overlapping_marks_once() {
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
        for iy in 0..d.ys.len() {
            for ix in 0..d.xs.len() {
                assert!(!d.is_marked(ix, iy), "mark left at ({ix}, {iy})");
            }
        }
        // The cleared tracker counts fresh marks from zero again.
        d.mark_disk(centers[0]);
        let mut once = DirtyRegion::new(region, 50.0, 5.0);
        once.mark_disk(centers[0]);
        assert_eq!(d.dirty_cells(), once.dirty_cells());
    }

    #[test]
    fn a_count_at_the_limit_refuses_one_more_disk() {
        // Every disk covers all 25 points of the 20 m square.
        let p = Point::new(10.0, 10.0);
        let mut r = CoverageRaster::new(Rect::square(20.0), 50.0, 5.0);
        for _ in 0..MAX_COVERAGE_COUNT {
            r.add(p).unwrap();
        }
        let lat = *r.lattice();
        let all_counts = |r: &CoverageRaster| {
            (0..lat.rows())
                .flat_map(|iy| (0..lat.cols()).map(move |ix| (ix, iy)))
                .map(|(ix, iy)| r.count(ix, iy))
                .collect::<Vec<u32>>()
        };
        assert_eq!(all_counts(&r), vec![65_535; 25]);
        assert_eq!(r.add(p), Err(CoverageOverflow));
        assert_eq!(
            all_counts(&r),
            vec![65_535; 25],
            "a refused add changes nothing"
        );
        // A degree above 65 534 needs a count of 65 536: nobody demotes.
        assert!(!r.try_demote(p, 65_535));
        assert!(!r.try_demote(p, usize::MAX));
        assert!(r.try_demote(p, 65_534));
        assert_eq!(all_counts(&r), vec![65_534; 25]);
        r.add(p).unwrap();
        assert_eq!(all_counts(&r), vec![65_535; 25]);
    }

    #[test]
    fn a_refused_add_undoes_the_rows_it_already_counted() {
        // 65 535 disks at the top edge count the limit on the upper rows;
        // one more disk lower down walks its lower rows first, then wraps.
        let region = Rect::new(0.0, 0.0, 200.0, 20.0);
        let (top, low) = (Point::new(100.0, 20.0), Point::new(100.0, 10.0));
        let mut r = CoverageRaster::new(region, 10.0, 5.0);
        for _ in 0..MAX_COVERAGE_COUNT {
            r.add(top).unwrap();
        }
        let before = r.clone();
        assert_eq!(r.add(low), Err(CoverageOverflow));
        let lat = *r.lattice();
        for iy in 0..lat.rows() {
            for ix in 0..lat.cols() {
                assert_eq!(r.count(ix, iy), before.count(ix, iy), "at ({ix}, {iy})");
            }
        }
        // The lower disk alone fits once a top disk leaves.
        r.remove(top);
        r.add(low).unwrap();
        assert_eq!(r.count(20, 0), 1);
    }

    #[test]
    fn dirty_bits_match_a_per_cell_model_across_word_edges() {
        // 63, 64, 65 and 129 columns: spans inside one word, ending on its
        // last bit, crossing into the next word, and ending at the last
        // column of a row whose last word is nearly empty.
        let mut state: u64 = 11;
        let mut next = |lo: f64, hi: f64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + ((state >> 33) as f64 / (1u64 << 31) as f64) * (hi - lo)
        };
        for cols in [63usize, 64, 65, 129] {
            let width = (cols - 1) as f64;
            let region = Rect::new(0.0, 0.0, width, 12.0);
            let radius = 7.5;
            let lattice = Lattice::new(region, 1.0).unwrap();
            assert_eq!(lattice.cols(), cols);
            let covered = |c: Point, ix: usize, iy: usize| {
                let bb = Circle::new(c, radius).bounding_box();
                let p = lattice.point(ix, iy);
                bb.contains(p) && Circle::new(c, radius).contains(p)
            };
            let mut d = DirtyRegion::new(region, radius, 1.0);
            let mut model = vec![false; lattice.len()];
            let edges = [63.5, 64.0, width, width + 3.0, -2.0];
            for round in 0..3 {
                for i in 0..12 {
                    let x = edges
                        .get(i)
                        .copied()
                        .unwrap_or_else(|| next(-9.0, width + 9.0));
                    let c = Point::new(x, next(-9.0, 21.0));
                    d.mark_disk(c);
                    for iy in 0..lattice.rows() {
                        for ix in 0..cols {
                            model[lattice.index(ix, iy)] |= covered(c, ix, iy);
                        }
                    }
                    let marked = model.iter().filter(|&&m| m).count();
                    assert_eq!(d.dirty_cells(), marked, "{cols} cols, round {round}");
                    for iy in 0..lattice.rows() {
                        for ix in 0..cols {
                            assert_eq!(d.is_marked(ix, iy), model[lattice.index(ix, iy)]);
                        }
                    }
                    for _ in 0..8 {
                        let probe = Point::new(next(-9.0, width + 9.0), next(-9.0, 21.0));
                        let want = (0..lattice.rows()).any(|iy| {
                            (0..cols)
                                .any(|ix| model[lattice.index(ix, iy)] && covered(probe, ix, iy))
                        });
                        assert_eq!(d.touches(probe), want, "{cols} cols, probe {probe}");
                    }
                }
                d.clear();
                model.fill(false);
                assert_eq!(d.dirty_cells(), 0);
                assert!((0..lattice.rows()).all(|iy| (0..cols).all(|ix| !d.is_marked(ix, iy))));
            }
        }
    }

    #[test]
    fn failed_demotion_leaves_counts_untouched() {
        let region = Rect::square(100.0);
        let a = Point::new(30.0, 50.0);
        let b = Point::new(70.0, 50.0);
        let mut r = CoverageRaster::build(&[a, b], region, 50.0, 5.0).unwrap();
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
