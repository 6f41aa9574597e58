//! Axis-aligned rectangles (minimum bounding rectangles).

use crate::Point;
use core::fmt;

/// An axis-aligned rectangle `[x1, x2] × [y1, y2]`, the workspace's MBR
/// type. Rectangles are closed sets; degenerate (zero-width or
/// zero-height) rectangles are permitted and have zero area.
///
/// Invariant: `x1 <= x2 && y1 <= y2` (enforced by constructors).
#[derive(Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x1: f64,
    /// Bottom edge.
    pub y1: f64,
    /// Right edge.
    pub x2: f64,
    /// Top edge.
    pub y2: f64,
}

impl Rect {
    /// Creates a rectangle from two opposite corners given in any order.
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Self {
            x1: a.x.min(b.x),
            y1: a.y.min(b.y),
            x2: a.x.max(b.x),
            y2: a.y.max(b.y),
        }
    }

    /// Creates a rectangle from edge coordinates; panics in debug builds
    /// if `x1 > x2` or `y1 > y2`.
    #[inline]
    pub fn from_coords(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        debug_assert!(x1 <= x2 && y1 <= y2, "malformed rect: {x1},{y1},{x2},{y2}");
        Self { x1, y1, x2, y2 }
    }

    /// The axis-aligned square of half-side `half` centred on `c`.
    #[inline]
    pub fn centered_square(c: Point, half: f64) -> Self {
        debug_assert!(half >= 0.0);
        Self::from_coords(c.x - half, c.y - half, c.x + half, c.y + half)
    }

    /// The minimum bounding rectangle of a non-empty point set.
    /// Returns `None` for an empty iterator.
    pub fn bounding<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect::from_coords(first.x, first.y, first.x, first.y);
        for p in it {
            r.x1 = r.x1.min(p.x);
            r.y1 = r.y1.min(p.y);
            r.x2 = r.x2.max(p.x);
            r.y2 = r.y2.max(p.y);
        }
        Some(r)
    }

    /// Width (`x` extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.x2 - self.x1
    }

    /// Height (`y` extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.y2 - self.y1
    }

    /// Area. Zero for degenerate rectangles.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Geometric centre.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.x1 + self.x2) * 0.5, (self.y1 + self.y2) * 0.5)
    }

    /// The rectangle is degenerate: a segment or a point, of zero width
    /// or zero height.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.width() <= 0.0 || self.height() <= 0.0
    }

    /// Closed containment: boundary points count as inside.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x1 && p.x <= self.x2 && p.y >= self.y1 && p.y <= self.y2
    }

    /// `other` lies entirely within `self` (closed semantics).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x1 >= self.x1 && other.x2 <= self.x2 && other.y1 >= self.y1 && other.y2 <= self.y2
    }

    /// The rectangles share at least a boundary point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x1 <= other.x2 && other.x1 <= self.x2 && self.y1 <= other.y2 && other.y1 <= self.y2
    }

    /// The rectangles share interior points (not merely boundaries).
    #[inline]
    pub fn intersects_interior(&self, other: &Rect) -> bool {
        self.x1 < other.x2 && other.x1 < self.x2 && self.y1 < other.y2 && other.y1 < self.y2
    }

    /// Intersection rectangle, or `None` if disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
            x2: self.x2.min(other.x2),
            y2: self.y2.min(other.y2),
        })
    }

    /// Smallest rectangle containing both inputs.
    pub fn union_mbr(&self, other: &Rect) -> Rect {
        Rect {
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
            x2: self.x2.max(other.x2),
            y2: self.y2.max(other.y2),
        }
    }

    /// Minimum distance from `p` to the rectangle (zero when inside).
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.distance_sq_to_point(p).sqrt()
    }

    /// Squared minimum distance from `p` to the rectangle (the R-tree
    /// `MINDIST` metric).
    pub fn distance_sq_to_point(&self, p: Point) -> f64 {
        let dx = (self.x1 - p.x).max(0.0).max(p.x - self.x2);
        let dy = (self.y1 - p.y).max(0.0).max(p.y - self.y2);
        dx * dx + dy * dy
    }

    /// Maximum distance from `p` to any point of the rectangle.
    pub fn max_distance_to_point(&self, p: Point) -> f64 {
        let dx = (p.x - self.x1).abs().max((p.x - self.x2).abs());
        let dy = (p.y - self.y1).abs().max((p.y - self.y2).abs());
        dx.hypot(dy)
    }

    /// Corners in counter-clockwise order starting at `(x1, y1)`.
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.x1, self.y1),
            Point::new(self.x2, self.y1),
            Point::new(self.x2, self.y2),
            Point::new(self.x1, self.y2),
        ]
    }

    /// Clamps `p` to the closest point inside the rectangle.
    pub fn clamp_point(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.x1, self.x2), p.y.clamp(self.y1, self.y2))
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.6},{:.6}]x[{:.6},{:.6}]",
            self.x1, self.x2, self.y1, self.y2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn r(x1: f64, y1: f64, x2: f64, y2: f64) -> Rect {
        Rect::from_coords(x1, y1, x2, y2)
    }

    #[test]
    fn new_normalizes_corner_order() {
        let a = Rect::new(Point::new(3.0, 4.0), Point::new(1.0, 2.0));
        assert_eq!(a, r(1.0, 2.0, 3.0, 4.0));
    }

    #[test]
    fn area_is_width_times_height() {
        let a = r(0.0, 0.0, 2.0, 3.0);
        assert!(approx_eq(a.area(), 6.0));
    }

    #[test]
    fn containment_closed_vs_strict() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let edge = Point::new(0.0, 0.5);
        assert!(a.contains(edge));
        assert!(a.contains(Point::new(0.5, 0.5)));
        assert!(!a.contains(Point::new(1.5, 0.5)));
    }

    #[test]
    fn intersection_of_overlapping_rects() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        assert!(a.intersects_interior(&b));
    }

    #[test]
    fn touching_rects_intersect_but_not_interior() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects_interior(&b));
        let i = a.intersection(&b).unwrap();
        assert!(approx_eq(i.area(), 0.0));
        assert!(i.is_degenerate());
        // Only zero width is degenerate: a sliver of any width is not.
        assert!(!r(1.0, 0.0, 1.0 + 5e-10, 1.0).is_degenerate());
    }

    #[test]
    fn disjoint_rects_do_not_intersect() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 2.0, 3.0, 3.0);
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection(&b), None);
    }

    #[test]
    fn mindist_zero_inside_and_euclidean_outside() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert!(approx_eq(a.distance_to_point(Point::new(1.0, 1.0)), 0.0));
        assert!(approx_eq(a.distance_to_point(Point::new(5.0, 2.0)), 3.0));
        assert!(approx_eq(a.distance_to_point(Point::new(5.0, 6.0)), 5.0));
    }

    #[test]
    fn max_distance_reaches_farthest_corner() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert!(approx_eq(
            a.max_distance_to_point(Point::new(0.0, 0.0)),
            8f64.sqrt()
        ));
    }

    #[test]
    fn bounding_of_points() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 0.5),
            Point::new(3.0, 2.0),
        ];
        let b = Rect::bounding(pts).unwrap();
        assert_eq!(b, r(-2.0, 0.5, 3.0, 5.0));
        assert_eq!(Rect::bounding(std::iter::empty()), None);
    }

    #[test]
    fn union_mbr_absorbs_contained_rect() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        let b = r(1.0, 1.0, 2.0, 2.0);
        // Covering a contained rectangle grows nothing.
        assert_eq!(a.union_mbr(&b), a);
        assert!(b.union_mbr(&a).area() > b.area());
    }

    #[test]
    fn centered_constructors() {
        let c = Point::new(1.0, 2.0);
        assert_eq!(Rect::centered_square(c, 1.0), r(0.0, 1.0, 2.0, 3.0));
    }

    #[test]
    fn clamp_point_projects_onto_rect() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.clamp_point(Point::new(5.0, -3.0)), Point::new(1.0, 0.0));
        assert_eq!(a.clamp_point(Point::new(0.3, 0.7)), Point::new(0.3, 0.7));
    }
}
