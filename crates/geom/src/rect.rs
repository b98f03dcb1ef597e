//! Axis-aligned rectangles: deployment regions.

use crate::Point;
use std::fmt;

/// An axis-aligned rectangle, in metres.
///
/// The sensor deployment region of the paper's evaluation is a
/// 450 m × 450 m square; [`Rect`] also serves as the bounding region that the
/// mobile user's path is reflected inside.
///
/// ```
/// use wsn_geom::{Point, Rect};
///
/// let region = Rect::square(450.0);
/// assert!(region.contains(Point::new(225.0, 10.0)));
/// assert_eq!(region.area(), 450.0 * 450.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Smallest x coordinate.
    pub min_x: f64,
    /// Smallest y coordinate.
    pub min_y: f64,
    /// Largest x coordinate.
    pub max_x: f64,
    /// Largest y coordinate.
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its extreme coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `min_x > max_x` or `min_y > max_y`, or if any bound is not
    /// finite.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        assert!(
            min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite(),
            "rectangle bounds must be finite"
        );
        assert!(
            min_x <= max_x && min_y <= max_y,
            "rectangle must have non-negative extent: \
             [{min_x}, {max_x}] x [{min_y}, {max_y}]"
        );
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// A square of the given side length with its lower-left corner at the origin.
    pub fn square(side: f64) -> Self {
        Rect::new(0.0, 0.0, side, side)
    }

    /// Width of the rectangle.
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height of the rectangle.
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area of the rectangle.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre of the rectangle.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Returns `true` when `point` is inside or on the boundary.
    pub fn contains(&self, point: Point) -> bool {
        point.x >= self.min_x
            && point.x <= self.max_x
            && point.y >= self.min_y
            && point.y <= self.max_y
    }

    /// Clamps a point to lie within the rectangle.
    pub fn clamp(&self, point: Point) -> Point {
        Point::new(
            point.x.clamp(self.min_x, self.max_x),
            point.y.clamp(self.min_y, self.max_y),
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rect[{:.1}..{:.1}] x [{:.1}..{:.1}]",
            self.min_x, self.max_x, self.min_y, self.max_y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_has_expected_dimensions() {
        let r = Rect::square(450.0);
        assert_eq!(r.width(), 450.0);
        assert_eq!(r.height(), 450.0);
        assert_eq!(r.center(), Point::new(225.0, 225.0));
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        let _ = Rect::new(10.0, 0.0, 0.0, 10.0);
    }

    #[test]
    fn contains_boundary() {
        let r = Rect::square(10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.0, 10.1)));
    }

    #[test]
    fn clamp_moves_outside_points_to_boundary() {
        let r = Rect::square(10.0);
        assert_eq!(r.clamp(Point::new(-5.0, 20.0)), Point::new(0.0, 10.0));
        assert_eq!(r.clamp(Point::new(3.0, 4.0)), Point::new(3.0, 4.0));
    }
}
