//! Axis-aligned boundary segments.
//!
//! The boundary of a union of MBRs consists solely of horizontal and
//! vertical segments, so the region code represents boundary edges with
//! the compact [`Segment`] type rather than general line segments.

use crate::Point;

/// Orientation of an axis-aligned segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Varies in `x` at a fixed `y`.
    Horizontal,
    /// Varies in `y` at a fixed `x`.
    Vertical,
}

/// An axis-aligned segment: at coordinate `at` on the fixed axis, spanning
/// `[lo, hi]` on the free axis.
///
/// A `Vertical` segment is `{(at, t) : lo ≤ t ≤ hi}`; a `Horizontal`
/// segment is `{(t, at) : lo ≤ t ≤ hi}`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Orientation.
    pub axis: Axis,
    /// Fixed-axis coordinate.
    pub at: f64,
    /// Lower bound on the free axis.
    pub lo: f64,
    /// Upper bound on the free axis.
    pub hi: f64,
}

impl Segment {
    /// Vertical segment at `x = at` from `y = lo` to `y = hi`.
    #[inline]
    pub fn vertical(at: f64, lo: f64, hi: f64) -> Self {
        debug_assert!(lo <= hi);
        Self {
            axis: Axis::Vertical,
            at,
            lo,
            hi,
        }
    }

    /// Horizontal segment at `y = at` from `x = lo` to `x = hi`.
    #[inline]
    pub fn horizontal(at: f64, lo: f64, hi: f64) -> Self {
        debug_assert!(lo <= hi);
        Self {
            axis: Axis::Horizontal,
            at,
            lo,
            hi,
        }
    }

    /// Segment length on the free axis.
    #[inline]
    pub fn len(&self) -> f64 {
        self.hi - self.lo
    }

    /// The segment is degenerate: a point, of zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() <= 0.0
    }

    /// Minimum Euclidean distance from `p` to the segment.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        match self.axis {
            Axis::Vertical => {
                let dy = (self.lo - p.y).max(0.0).max(p.y - self.hi);
                (self.at - p.x).hypot(dy)
            }
            Axis::Horizontal => {
                let dx = (self.lo - p.x).max(0.0).max(p.x - self.hi);
                (self.at - p.y).hypot(dx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn vertical_distance_perpendicular_and_endpoint() {
        let s = Segment::vertical(2.0, 0.0, 4.0);
        // Perpendicular projection hits the segment.
        assert!(approx_eq(s.distance_to_point(Point::new(5.0, 2.0)), 3.0));
        // Beyond the top endpoint: distance to (2, 4).
        assert!(approx_eq(s.distance_to_point(Point::new(5.0, 8.0)), 5.0));
    }

    #[test]
    fn horizontal_distance_perpendicular_and_endpoint() {
        let s = Segment::horizontal(1.0, -1.0, 1.0);
        assert!(approx_eq(s.distance_to_point(Point::new(0.0, 3.0)), 2.0));
        assert!(approx_eq(s.distance_to_point(Point::new(4.0, 5.0)), 5.0));
    }

    #[test]
    fn degenerate_segment_is_empty() {
        assert!(Segment::vertical(0.0, 1.0, 1.0).is_empty());
        assert!(!Segment::vertical(0.0, 1.0, 1.1).is_empty());
        assert!(!Segment::vertical(0.0, 1.0, 1.0 + 5e-10).is_empty());
    }
}
