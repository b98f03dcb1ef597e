//! Property-based tests for the geometry primitives.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wsn_geom::{covers, Circle, Point, Rect, SpatialGrid, StripIndex, Vector};

fn finite_coord() -> impl Strategy<Value = f64> {
    -1.0e4..1.0e4
}

fn arb_point() -> impl Strategy<Value = Point> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_vector() -> impl Strategy<Value = Vector> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Vector::new(x, y))
}

proptest! {
    #[test]
    fn distance_triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        let ab = a.distance_to(b);
        let bc = b.distance_to(c);
        let ac = a.distance_to(c);
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn distance_symmetry(a in arb_point(), b in arb_point()) {
        prop_assert!((a.distance_to(b) - b.distance_to(a)).abs() < 1e-9);
    }

    #[test]
    fn vector_add_commutes(a in arb_vector(), b in arb_vector()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn point_plus_minus_vector_round_trips(p in arb_point(), v in arb_vector()) {
        let q = (p + v) - v;
        prop_assert!((q.x - p.x).abs() < 1e-6);
        prop_assert!((q.y - p.y).abs() < 1e-6);
    }

    #[test]
    fn normalized_length_is_one_or_zero(v in arb_vector()) {
        let n = v.normalized();
        let len = n.length();
        prop_assert!(len < 1e-9 || (len - 1.0).abs() < 1e-9);
    }

    #[test]
    fn circle_contains_center(c in arb_point(), r in 0.0f64..500.0) {
        prop_assert!(Circle::new(c, r).contains(c));
    }

    #[test]
    fn rect_clamp_idempotent(x in -2000.0f64..2000.0, y in -2000.0f64..2000.0) {
        let region = Rect::square(450.0);
        let once = region.clamp(Point::new(x, y));
        let twice = region.clamp(once);
        prop_assert_eq!(once, twice);
        prop_assert!(region.contains(once));
    }

    #[test]
    fn grid_range_query_matches_brute_force(
        pts in proptest::collection::vec((0.0f64..450.0, 0.0f64..450.0), 1..120),
        qx in 0.0f64..450.0,
        qy in 0.0f64..450.0,
        r in 1.0f64..200.0,
    ) {
        let mut grid = SpatialGrid::new(Rect::square(450.0), 50.0).unwrap();
        for (i, &(x, y)) in pts.iter().enumerate() {
            grid.insert(i, Point::new(x, y));
        }
        let center = Point::new(qx, qy);
        let mut got: Vec<usize> = grid.query_range(center, r).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| center.distance_to(Point::new(x, y)) <= r)
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn grid_nearest_matches_brute_force(
        pts in proptest::collection::vec((0.0f64..450.0, 0.0f64..450.0), 1..120),
        qx in -100.0f64..550.0,
        qy in -100.0f64..550.0,
    ) {
        let mut grid = SpatialGrid::new(Rect::square(450.0), 50.0).unwrap();
        for (i, &(x, y)) in pts.iter().enumerate() {
            grid.insert(i, Point::new(x, y));
        }
        let target = Point::new(qx, qy);
        let got = grid.nearest(target).map(|(id, _)| id);
        prop_assert_eq!(got, brute_force_nearest(&pts, target, |_| true));
    }

    #[test]
    fn grid_nearest_handles_exact_ties_deterministically(
        cells in proptest::collection::vec((0usize..16, 0usize..16), 1..80),
        qcx in 0usize..16,
        qcy in 0usize..16,
    ) {
        // Snapping every coordinate to a 30 m lattice makes duplicate
        // positions and exactly equidistant symmetric pairs common, so the
        // smallest-distance-then-smallest-id tie-break is actually exercised.
        let pts: Vec<(f64, f64)> = cells
            .iter()
            .map(|&(cx, cy)| (cx as f64 * 30.0, cy as f64 * 30.0))
            .collect();
        let mut grid = SpatialGrid::new(Rect::square(450.0), 50.0).unwrap();
        for (i, &(x, y)) in pts.iter().enumerate() {
            grid.insert(i, Point::new(x, y));
        }
        let target = Point::new(qcx as f64 * 30.0, qcy as f64 * 30.0);
        let got = grid.nearest(target).map(|(id, _)| id);
        prop_assert_eq!(got, brute_force_nearest(&pts, target, |_| true));
    }

    #[test]
    fn grid_nearest_filtered_matches_brute_force(
        cells in proptest::collection::vec((0usize..16, 0usize..16), 1..80),
        qcx in 0usize..16,
        qcy in 0usize..16,
        keep_mod in 1usize..5,
    ) {
        let pts: Vec<(f64, f64)> = cells
            .iter()
            .map(|&(cx, cy)| (cx as f64 * 30.0, cy as f64 * 30.0))
            .collect();
        let mut grid = SpatialGrid::new(Rect::square(450.0), 50.0).unwrap();
        for (i, &(x, y)) in pts.iter().enumerate() {
            grid.insert(i, Point::new(x, y));
        }
        let target = Point::new(qcx as f64 * 30.0, qcy as f64 * 30.0);
        let keep = |id: usize| id % keep_mod == 0;
        let got = grid.nearest_filtered(target, keep).map(|(id, _)| id);
        prop_assert_eq!(got, brute_force_nearest(&pts, target, keep));
    }

    /// The grid against a `BTreeMap` model under random inserts, moves and
    /// removes of out-of-order, reused ids, some placed outside the region
    /// (they live in the clamped edge cells). Each insert or move takes a
    /// fresh stamp, so the model knows the order every cell must keep.
    #[test]
    fn grid_matches_a_model_under_inserts_moves_and_removes(
        ops in proptest::collection::vec(
            (0u8..3, 0usize..24, -60.0f64..510.0, -60.0f64..510.0),
            1..160,
        ),
        probes in proptest::collection::vec(
            (-60.0f64..510.0, -60.0f64..510.0, 0.0f64..160.0),
            1..6,
        ),
    ) {
        let mut grid = SpatialGrid::new(Rect::square(450.0), 50.0).unwrap();
        let mut model = GridModel::default();
        for &(op, id, x, y) in &ops {
            if op == 0 {
                // Remove, whether or not the id is present.
                let want = model.items.remove(&id).map(|(p, _)| p);
                prop_assert_eq!(grid.remove(id), want);
            } else {
                let p = Point::new(x, y);
                grid.insert(id, p);
                model.items.insert(id, (p, model.stamp));
                model.stamp += 1;
            }
            prop_assert_eq!(grid.len(), model.items.len());
        }
        prop_assert_eq!(grid.is_empty(), model.items.is_empty());
        for id in 0..24 {
            prop_assert_eq!(grid.position(id), model.items.get(&id).map(|&(p, _)| p));
        }
        let mut listed: Vec<(usize, Point)> = grid.iter().collect();
        listed.sort_unstable_by_key(|&(id, _)| id);
        let want: Vec<(usize, Point)> = model.items.iter().map(|(&id, &(p, _))| (id, p)).collect();
        prop_assert_eq!(listed, want);
        for &(x, y, r) in &probes {
            let center = Point::new(x, y);
            let got: Vec<usize> = grid.query_range(center, r).collect();
            prop_assert_eq!(got, model.in_range(center, r));
            let nearest = grid.nearest(center).map(|(id, _)| id);
            prop_assert_eq!(nearest, model.nearest(center));
        }
    }

    #[test]
    fn strip_nearest_within_matches_brute_force(
        pts in proptest::collection::vec((finite_coord(), finite_coord()), 0..80),
        target in arb_point(),
        range in 1.0f64..5.0e3,
        keep_mod in 1usize..5,
    ) {
        let keep = |id: usize| id % keep_mod == 0;
        let mut strip = StripIndex::new();
        strip.rebuild(
            pts.iter()
                .enumerate()
                .filter(|&(i, _)| keep(i))
                .map(|(i, &(x, y))| (i, Point::new(x, y))),
        );
        let expected = brute_force_nearest(&pts, target, keep)
            .filter(|&i| Point::new(pts[i].0, pts[i].1).distance_to(target) <= range);
        let got = strip.nearest_within(target, range).map(|(id, _)| id);
        prop_assert_eq!(got, expected);
    }
}

/// Reference implementation for the nearest queries: linear scan with the
/// grid's documented tie-break (smallest squared distance, then smallest id).
fn brute_force_nearest(
    pts: &[(f64, f64)],
    target: Point,
    mut keep: impl FnMut(usize) -> bool,
) -> Option<usize> {
    pts.iter()
        .enumerate()
        .filter(|(i, _)| keep(*i))
        .min_by(|(i, &(ax, ay)), (j, &(bx, by))| {
            let da = target.distance_sq_to(Point::new(ax, ay));
            let db = target.distance_sq_to(Point::new(bx, by));
            da.total_cmp(&db).then(i.cmp(j))
        })
        .map(|(i, _)| i)
}

/// What a [`SpatialGrid`] over `Rect::square(450.0)` with 50 m cells must
/// hold: each id's position and the stamp of its last insert or move.
#[derive(Default)]
struct GridModel {
    items: BTreeMap<usize, (Point, u64)>,
    stamp: u64,
}

impl GridModel {
    /// The grid's cell of `p`: clamped into the region, 9 × 9 cells.
    fn cell(p: Point) -> usize {
        let c = Rect::square(450.0).clamp(p);
        let cx = ((c.x / 50.0) as usize).min(8);
        let cy = ((c.y / 50.0) as usize).min(8);
        cy * 9 + cx
    }

    /// Ids within `r` of `center`, ordered by cell, then by last insert or
    /// move: the order the grid's range query must yield.
    fn in_range(&self, center: Point, r: f64) -> Vec<usize> {
        let mut hits: Vec<(usize, u64, usize)> = self
            .items
            .iter()
            .filter(|(_, &(p, _))| covers(center, r, p))
            .map(|(&id, &(p, stamp))| (Self::cell(p), stamp, id))
            .collect();
        hits.sort_unstable();
        hits.into_iter().map(|(_, _, id)| id).collect()
    }

    /// The nearest id to `target`, ties to the smallest id.
    fn nearest(&self, target: Point) -> Option<usize> {
        self.items
            .iter()
            .min_by(|(i, &(a, _)), (j, &(b, _))| {
                let (da, db) = (target.distance_sq_to(a), target.distance_sq_to(b));
                da.total_cmp(&db).then(i.cmp(j))
            })
            .map(|(&id, _)| id)
    }
}
