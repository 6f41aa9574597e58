//! Planar points with Euclidean metrics.

use core::fmt;

/// A point in the plane. Coordinates are in miles across the workspace.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (miles).
    pub x: f64,
    /// Vertical coordinate (miles).
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to `other` (the paper's `‖a, b‖`).
    #[inline]
    pub fn distance(&self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`. Prefer this for comparisons;
    /// it avoids the square root.
    #[inline]
    pub fn distance_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Component-wise addition.
    #[inline]
    pub fn offset(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Vector from `self` to `other`.
    #[inline]
    pub fn vector_to(&self, other: Point) -> (f64, f64) {
        (other.x - self.x, other.y - self.y)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(&self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Both coordinates are finite (not NaN / infinite).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Dot product of the vectors `self` and `other` viewed as vectors
    /// from the origin.
    #[inline]
    pub fn dot(&self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component) of `self × other`.
    #[inline]
    pub fn cross(&self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm of the point viewed as a vector.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.x.hypot(self.y)
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn distance_is_symmetric_and_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!(approx_eq(a.distance(b), 5.0));
        assert!(approx_eq(b.distance(a), 5.0));
        assert!(approx_eq(a.distance_sq(b), 25.0));
    }

    #[test]
    fn lerp_hits_endpoints_and_midpoint() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert!(approx_eq(mid.x, 2.0) && approx_eq(mid.y, 4.0));
    }

    #[test]
    fn cross_orientation_sign() {
        let e1 = Point::new(1.0, 0.0);
        let e2 = Point::new(0.0, 1.0);
        assert!(e1.cross(e2) > 0.0);
        assert!(e2.cross(e1) < 0.0);
    }

    #[test]
    fn finite_detects_nan() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY).is_finite());
    }
}
