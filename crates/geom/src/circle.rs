//! Circles: query areas, radio ranges and sensing ranges.

use crate::{Point, Rect};
use std::fmt;

/// A circle defined by its centre and radius, in metres.
///
/// MobiQuery query areas `A(Pu(t))` are circles of radius `Rq` centred on the
/// user's position; radio and sensing ranges are circles around nodes.
///
/// ```
/// use wsn_geom::{Circle, Point};
///
/// let area = Circle::new(Point::new(0.0, 0.0), 150.0);
/// assert!(area.contains(Point::new(100.0, 100.0)));
/// assert!(!area.contains(Point::new(150.0, 150.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Centre of the circle.
    pub center: Point,
    /// Radius in metres. Always non-negative.
    pub radius: f64,
}

impl Circle {
    /// Creates a circle from a centre and radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "circle radius must be finite and non-negative, got {radius}"
        );
        Circle { center, radius }
    }

    /// Returns `true` when `point` lies inside or on the boundary.
    ///
    /// Evaluates the shared [`crate::covers`] predicate, so circle
    /// containment, grid range queries and the coverage raster classify
    /// boundary points identically.
    pub fn contains(&self, point: Point) -> bool {
        crate::covers(self.center, self.radius, point)
    }

    /// Area of the circle in square metres.
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// The axis-aligned bounding box of the circle.
    pub fn bounding_box(&self) -> Rect {
        Rect::new(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )
    }
}

impl fmt::Display for Circle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circle(center={}, r={:.2})", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_center_and_boundary() {
        let c = Circle::new(Point::new(1.0, 1.0), 2.0);
        assert!(c.contains(c.center));
        assert!(c.contains(Point::new(3.0, 1.0)));
        assert!(!c.contains(Point::new(3.1, 1.0)));
    }

    #[test]
    #[should_panic]
    fn negative_radius_panics() {
        let _ = Circle::new(Point::ORIGIN, -1.0);
    }

    #[test]
    fn area_of_unit_circle() {
        let c = Circle::new(Point::ORIGIN, 1.0);
        assert!((c.area() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn bounding_box_encloses_circle() {
        let c = Circle::new(Point::new(5.0, -3.0), 2.0);
        let bb = c.bounding_box();
        assert_eq!(bb.min_x, 3.0);
        assert_eq!(bb.max_x, 7.0);
        assert_eq!(bb.min_y, -5.0);
        assert_eq!(bb.max_y, -1.0);
    }
}
