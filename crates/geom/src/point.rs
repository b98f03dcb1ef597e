//! Points in the 2-D plane.

use crate::Vector;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A location in the 2-D plane, in metres.
///
/// Points are the positions of sensor nodes, the mobile user, pickup points
/// and GPS fixes. Subtraction of two points yields a [`Vector`]; adding a
/// [`Vector`] to a point translates it.
///
/// ```
/// use wsn_geom::{Point, Vector};
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b), 5.0);
/// assert_eq!(b - a, Vector::new(3.0, 4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in metres.
    pub x: f64,
    /// Vertical coordinate in metres.
    pub y: f64,
}

impl Point {
    /// The origin, `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance_to(self, other: Point) -> f64 {
        (self - other).length()
    }

    /// Squared Euclidean distance to another point.
    ///
    /// Cheaper than [`Point::distance_to`] when only comparisons are needed
    /// (e.g. nearest-neighbour searches in routing).
    pub fn distance_sq_to(self, other: Point) -> f64 {
        (self - other).length_sq()
    }

    /// Translates the point by a velocity vector applied for `dt` seconds.
    pub fn advance(self, velocity: Vector, dt: f64) -> Point {
        self + velocity * dt
    }

    /// Returns `true` when both coordinates are finite (not NaN or infinite).
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl Sub for Point {
    type Output = Vector;

    fn sub(self, rhs: Point) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vector> for Point {
    type Output = Point;

    fn add(self, rhs: Vector) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vector> for Point {
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vector> for Point {
    type Output = Point;

    fn sub(self, rhs: Vector) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign<Vector> for Point {
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-4.0, 7.5);
        assert!((a.distance_to(b) - b.distance_to(a)).abs() < 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Point::new(12.5, -3.0);
        assert_eq!(a.distance_to(a), 0.0);
    }

    #[test]
    fn advance_moves_along_velocity() {
        let p = Point::new(0.0, 0.0);
        let v = Vector::new(3.0, -4.0);
        let q = p.advance(v, 2.0);
        assert_eq!(q, Point::new(6.0, -8.0));
    }

    #[test]
    fn add_sub_round_trip() {
        let p = Point::new(2.0, 3.0);
        let v = Vector::new(-1.0, 4.0);
        assert_eq!((p + v) - v, p);
    }

    #[test]
    fn tuple_conversions() {
        let p: Point = (1.5, 2.5).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.5, 2.5));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Point::ORIGIN).is_empty());
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY).is_finite());
    }
}
