//! A small point set sorted by `x`, for nearest-within-range lookups.

use crate::Point;

/// Relative widening of the scanned strip. It sits far above f64 rounding
/// error, so every item that passes the final `distance_to <= range` check
/// also passes the strip test, whatever the coordinates' magnitude.
const STRIP_SLACK: f64 = 1e-9;

/// A set of `(id, position)` items sorted by `x`, answering "the nearest
/// item within `range` of this point" by walking outwards from the point's
/// `x` inside the vertical strip `2 × range` wide, and stopping once no
/// item left can be nearer.
///
/// It serves sets of tens to hundreds of items that are queried many times
/// each — one query tree's members, asked for the relay of every node in an
/// area — where a [`SpatialGrid`](crate::SpatialGrid) over the whole
/// deployment would walk every deployed node in the cells around the target
/// and filter each one. A lookup here touches only the set's own items, so
/// its cost depends on the set, not on the deployment. The buffer is reused
/// by [`rebuild`](Self::rebuild), so a long-lived owner allocates nothing
/// once warm.
///
/// ```
/// use wsn_geom::{Point, StripIndex};
///
/// let mut strip = StripIndex::new();
/// strip.rebuild([(4, Point::new(0.0, 0.0)), (9, Point::new(50.0, 0.0))]);
/// assert_eq!(strip.nearest_within(Point::new(40.0, 0.0), 20.0).map(|(id, _)| id), Some(9));
/// assert_eq!(strip.nearest_within(Point::new(25.0, 30.0), 20.0), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StripIndex {
    /// `(position, id)` of every item, ascending by `x`.
    items: Vec<(Point, usize)>,
}

impl StripIndex {
    /// An empty index; its buffer grows on first use.
    pub fn new() -> Self {
        StripIndex::default()
    }

    /// Replaces the indexed set with `items`, keeping the buffer's capacity.
    pub fn rebuild(&mut self, items: impl IntoIterator<Item = (usize, Point)>) {
        self.items.clear();
        self.items.extend(items.into_iter().map(|(id, p)| (p, id)));
        self.items.sort_unstable_by(|a, b| a.0.x.total_cmp(&b.0.x));
    }

    /// Id and position of the item nearest to `target` — smallest squared
    /// distance, exact ties to the smallest id — if it lies within `range`
    /// (`distance_to(target) <= range`); `None` when no item does.
    ///
    /// This is exactly [`SpatialGrid::nearest_filtered`] over any grid that
    /// holds these items, restricted to them and followed by the same range
    /// check: the nearest item is in range iff some item is, and then it is
    /// the nearest of the items in range, which all lie in the strip.
    ///
    /// [`SpatialGrid::nearest_filtered`]: crate::SpatialGrid::nearest_filtered
    pub fn nearest_within(&self, target: Point, range: f64) -> Option<(usize, Point)> {
        let pad = range * (1.0 + STRIP_SLACK);
        let items = &self.items;
        // Walk outwards from `target.x`, always taking the side whose next
        // item is closer in x, so items come in non-decreasing |dx| order.
        // |dx| is the rounded difference `distance_sq_to` squares, and its
        // square never exceeds the squared distance, so the walk stops as
        // soon as the next |dx|² beats the best squared distance (no item
        // left can be nearer or tie) or |dx| leaves the strip (no item left
        // is in range).
        let (mut left, mut right) = {
            let split = items.partition_point(|&(p, _)| p.x < target.x);
            (split, split)
        };
        let mut best: Option<(usize, Point)> = None;
        let mut best_d = f64::INFINITY;
        loop {
            let dl = left.checked_sub(1).map(|i| (i, target.x - items[i].0.x));
            let dr = items.get(right).map(|&(p, _)| (right, p.x - target.x));
            let (i, dx) = match (dl, dr) {
                (Some(l), Some(r)) => {
                    if l.1 <= r.1 {
                        l
                    } else {
                        r
                    }
                }
                (Some(l), None) => l,
                (None, Some(r)) => r,
                (None, None) => break,
            };
            if dx > pad || dx * dx > best_d {
                break;
            }
            if i < left {
                left = i;
            } else {
                right = i + 1;
            }
            let (p, id) = items[i];
            let d = target.distance_sq_to(p);
            let better = match best {
                None => true,
                Some((best_id, _)) => d < best_d || (d == best_d && id < best_id),
            };
            if better {
                best_d = d;
                best = Some((id, p));
            }
        }
        best.filter(|&(_, p)| p.distance_to(target) <= range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rect, SpatialGrid};

    fn strip(points: &[(usize, Point)]) -> StripIndex {
        let mut s = StripIndex::new();
        s.rebuild(points.iter().copied());
        s
    }

    #[test]
    fn empty_index_finds_nothing() {
        let s = StripIndex::new();
        assert_eq!(s.nearest_within(Point::ORIGIN, 1e9), None);
    }

    #[test]
    fn nearest_in_range_wins_and_out_of_range_is_none() {
        let s = strip(&[
            (0, Point::new(10.0, 10.0)),
            (1, Point::new(100.0, 100.0)),
            (2, Point::new(104.0, 100.0)),
        ]);
        assert_eq!(
            s.nearest_within(Point::new(103.0, 100.0), 5.0).unwrap().0,
            2
        );
        assert_eq!(s.nearest_within(Point::new(11.0, 10.0), 5.0).unwrap().0, 0);
        assert_eq!(s.nearest_within(Point::new(50.0, 50.0), 5.0), None);
    }

    #[test]
    fn exact_ties_resolve_to_the_smallest_id() {
        let s = strip(&[
            (9, Point::new(100.0, 100.0)),
            (4, Point::new(100.0, 100.0)),
            (7, Point::new(200.0, 210.0)),
            (2, Point::new(200.0, 190.0)),
        ]);
        assert_eq!(
            s.nearest_within(Point::new(101.0, 101.0), 50.0).unwrap().0,
            4
        );
        assert_eq!(
            s.nearest_within(Point::new(200.0, 200.0), 50.0).unwrap().0,
            2
        );
    }

    #[test]
    fn an_item_at_exactly_range_is_in_range() {
        for p in [
            Point::new(30.0, 40.0),
            Point::new(50.0, 0.0),
            Point::new(-50.0, 0.0),
        ] {
            let s = strip(&[(3, p)]);
            assert_eq!(s.nearest_within(Point::ORIGIN, 50.0).unwrap().0, 3);
            assert_eq!(s.nearest_within(Point::ORIGIN, 49.999), None);
        }
    }

    #[test]
    fn rebuild_replaces_the_set() {
        let mut s = strip(&[(0, Point::new(0.0, 0.0))]);
        s.rebuild([(5, Point::new(300.0, 0.0))]);
        assert_eq!(s.nearest_within(Point::ORIGIN, 10.0), None);
        assert_eq!(s.nearest_within(Point::new(299.0, 0.0), 10.0).unwrap().0, 5);
    }

    #[test]
    fn matches_the_filtered_grid_walk() {
        // Deterministic pseudo-random points via a simple LCG; every third
        // point is in the indexed set, the rest are the grid's other nodes.
        let mut state: u64 = 0x9E37_79B9;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 450.0
        };
        let pts: Vec<Point> = (0..300).map(|_| Point::new(next(), next())).collect();
        let mut grid = SpatialGrid::new(Rect::square(450.0), 105.0).unwrap();
        for (i, &p) in pts.iter().enumerate() {
            grid.insert(i, p);
        }
        let member = |i: usize| i % 3 == 0;
        let mut s = StripIndex::new();
        s.rebuild(
            pts.iter()
                .enumerate()
                .filter(|&(i, _)| member(i))
                .map(|(i, &p)| (i, p)),
        );
        for &target in &pts {
            for range in [20.0, 60.0, 105.0] {
                let walked = grid
                    .nearest_filtered(target, member)
                    .filter(|&(_, p)| p.distance_to(target) <= range);
                assert_eq!(s.nearest_within(target, range), walked);
            }
        }
    }
}
