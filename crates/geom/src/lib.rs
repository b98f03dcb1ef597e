//! # wsn-geom
//!
//! Two-dimensional geometry primitives used throughout the MobiQuery
//! reproduction: points, vectors, circles (query areas and radio ranges),
//! rectangles (deployment regions), a uniform spatial grid used for fast neighbour queries over sensor deployments and
//! a strip index for nearest-within-range lookups over small point sets.
//!
//! All quantities are in metres unless stated otherwise. The types are small
//! `Copy` value types implementing the common traits recommended by the Rust
//! API guidelines so that they compose well with the rest of the workspace.
//!
//! ```
//! use wsn_geom::{Point, Circle};
//!
//! let user = Point::new(100.0, 50.0);
//! let query_area = Circle::new(user, 150.0);
//! assert!(query_area.contains(Point::new(120.0, 60.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circle;
mod grid;
mod lattice;
mod point;
mod rect;
mod strip;
mod vector;

pub use circle::Circle;
pub use grid::{GridError, SpatialGrid};
pub use lattice::{DenseRaster, Lattice};
pub use point::Point;
pub use rect::Rect;
pub use strip::StripIndex;
pub use vector::Vector;

/// The epsilon added to squared-distance comparisons against a squared
/// radius, absorbing the rounding of one f64 multiply-add so that points
/// sitting exactly on a boundary (lattice samples at a disk edge, nodes at
/// exactly `radius` from a query centre) classify consistently everywhere.
///
/// Every range predicate in the workspace — [`Circle::contains`], the
/// [`SpatialGrid`] range queries and the coverage raster in `wsn-power` —
/// must compare through [`coverage_threshold`] so this value can never drift
/// between implementations (a drift of one ULP is enough to flip a lattice
/// point between "covered" and "uncovered" and desynchronise the incremental
/// backbone repair from the reference election).
pub const COVERAGE_EPSILON: f64 = 1e-9;

/// The comparison value of the shared coverage predicate:
/// `radius² + COVERAGE_EPSILON`, the exact right-hand side every range check
/// in the workspace compares a squared distance against.
#[inline]
pub fn coverage_threshold(radius: f64) -> f64 {
    radius * radius + COVERAGE_EPSILON
}

/// The shared coverage predicate: is `point` within `radius` of `center`,
/// boundary inclusive up to [`COVERAGE_EPSILON`]?
///
/// This is the single definition of "a node at `center` covers `point`"
/// used by [`Circle::contains`], the [`SpatialGrid`] range queries and the
/// CCP coverage machinery in `wsn-power`; all of them are bit-identical by
/// construction because they all evaluate exactly this expression.
///
/// ```
/// use wsn_geom::{covers, Point};
///
/// assert!(covers(Point::new(0.0, 0.0), 50.0, Point::new(30.0, 40.0)));
/// assert!(!covers(Point::new(0.0, 0.0), 50.0, Point::new(30.1, 40.0)));
/// ```
#[inline]
pub fn covers(center: Point, radius: f64, point: Point) -> bool {
    center.distance_sq_to(point) <= coverage_threshold(radius)
}

/// Convenience constant: metres per second corresponding to one mile per hour.
pub const MPH_TO_MPS: f64 = 0.44704;

/// Converts a speed in metres per second to miles per hour.
///
/// The paper quotes prefetch-message speeds and the contention threshold `v*`
/// in miles per hour, so the analysis module needs this conversion.
///
/// ```
/// let mph = wsn_geom::mps_to_mph(4.0);
/// assert!((mph - 8.9477).abs() < 1e-3);
/// ```
pub fn mps_to_mph(mps: f64) -> f64 {
    mps / MPH_TO_MPS
}

/// Converts a speed in miles per hour to metres per second.
///
/// ```
/// let mps = wsn_geom::mph_to_mps(469.0);
/// assert!((mps - 209.66).abs() < 0.1);
/// ```
pub fn mph_to_mps(mph: f64) -> f64 {
    mph * MPH_TO_MPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_predicate_agrees_with_circle_and_grid() {
        let center = Point::new(10.0, 20.0);
        let r = 50.0;
        let circle = Circle::new(center, r);
        let mut grid = SpatialGrid::new(Rect::square(200.0), r).unwrap();
        // Probe points straddling the boundary, including the exact radius.
        for (i, p) in [
            Point::new(60.0, 20.0),               // exactly r away
            Point::new(60.0 + 1e-7, 20.0),        // just outside
            Point::new(59.999_999, 20.0),         // just inside
            Point::new(10.0 + 30.0, 20.0 + 40.0), // 3-4-5 on the boundary
            Point::new(10.0, 70.000_001),
        ]
        .into_iter()
        .enumerate()
        {
            grid.insert(i, p);
            let by_fn = covers(center, r, p);
            assert_eq!(by_fn, circle.contains(p), "circle disagrees at {p}");
            let by_grid = grid.query_range(center, r).any(|id| id == i);
            assert_eq!(by_fn, by_grid, "grid disagrees at {p}");
            grid.remove(i);
        }
    }

    #[test]
    fn mph_round_trip() {
        for v in [0.0, 1.0, 4.0, 20.0, 469.0] {
            assert!((mph_to_mps(mps_to_mph(v)) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn walking_speed_is_about_nine_mph() {
        // The paper's example: a human walking at 4 m/s.
        assert!((mps_to_mph(4.0) - 8.95).abs() < 0.01);
    }
}
