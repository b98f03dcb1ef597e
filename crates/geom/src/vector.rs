//! Displacement / velocity vectors in the 2-D plane.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D displacement or velocity vector.
///
/// Used to represent user velocities in motion profiles (metres per second)
/// and displacements between points (metres).
///
/// ```
/// use wsn_geom::Vector;
///
/// let v = Vector::new(3.0, 4.0);
/// assert_eq!(v.length(), 5.0);
/// assert!((v.normalized().length() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Vector {
    /// The zero vector.
    pub const ZERO: Vector = Vector { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vector { x, y }
    }

    /// Creates a unit vector pointing in direction `angle` (radians,
    /// measured counter-clockwise from the positive x-axis).
    pub fn from_angle(angle: f64) -> Self {
        Vector::new(angle.cos(), angle.sin())
    }

    /// Creates a velocity vector with the given speed and heading.
    pub fn from_speed_angle(speed: f64, angle: f64) -> Self {
        Vector::from_angle(angle) * speed
    }

    /// Euclidean length (magnitude).
    pub fn length(self) -> f64 {
        self.length_sq().sqrt()
    }

    /// Squared Euclidean length.
    pub fn length_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Returns a vector with the same direction and unit length.
    ///
    /// Returns [`Vector::ZERO`] when the vector has (near-)zero length so that
    /// callers never receive NaN components.
    pub fn normalized(self) -> Vector {
        let len = self.length();
        if len <= f64::EPSILON {
            Vector::ZERO
        } else {
            self / len
        }
    }

    /// Returns `true` when both components are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.2}, {:.2}>", self.x, self.y)
    }
}

impl Add for Vector {
    type Output = Vector;
    fn add(self, rhs: Vector) -> Vector {
        Vector::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vector {
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vector {
    type Output = Vector;
    fn sub(self, rhs: Vector) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vector {
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        Vector::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vector {
    type Output = Vector;
    fn div(self, rhs: f64) -> Vector {
        Vector::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        Vector::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Vector {
    fn from((x, y): (f64, f64)) -> Self {
        Vector::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_of_345_triangle() {
        assert_eq!(Vector::new(3.0, 4.0).length(), 5.0);
    }

    #[test]
    fn normalized_has_unit_length() {
        let v = Vector::new(-7.0, 2.5).normalized();
        assert!((v.length() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_zero_is_zero() {
        assert_eq!(Vector::ZERO.normalized(), Vector::ZERO);
    }

    #[test]
    fn from_speed_angle_has_requested_speed() {
        let v = Vector::from_speed_angle(4.0, 1.2345);
        assert!((v.length() - 4.0).abs() < 1e-12);
        assert!((v.y.atan2(v.x) - 1.2345).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Vector::new(1.0, 2.0);
        let b = Vector::new(-3.0, 0.5);
        assert_eq!(a + b - b, a);
        assert_eq!(-(-a), a);
        assert_eq!(a * 2.0 / 2.0, a);
    }
}
