//! Exact disk intersection areas.
//!
//! Lemma 3.2 of the paper estimates the probability that an unverified POI
//! `o_j` is the true j-th nearest neighbor as `e^{-λu}`, where `u` is the
//! area of the *unverified region*: the part of the disk centred on the
//! query point with radius `‖q, o_j‖` that is **not** covered by the
//! merged verified region. Computing `u` exactly requires the area of a
//! disk ∩ rectangle-union intersection, which this module provides in
//! closed form via circular-segment integrals (Green's theorem over the
//! polygon edges, clamped to the disk).

use crate::{Point, Rect, RectUnion, RegionScratch};

/// A disk (filled circle).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Disk {
    /// Centre.
    pub center: Point,
    /// Radius (≥ 0).
    pub radius: f64,
}

impl Disk {
    /// Creates a disk; negative radii are clamped to zero.
    pub fn new(center: Point, radius: f64) -> Self {
        Self {
            center,
            radius: radius.max(0.0),
        }
    }

    /// Disk area `πr²`.
    pub fn area(&self) -> f64 {
        disk_area(self.radius)
    }

    /// Closed containment.
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius
    }

    /// MBR of the disk.
    pub fn mbr(&self) -> Rect {
        Rect::centered_square(self.center, self.radius)
    }
}

/// Area of a disk of radius `r`.
#[inline]
pub fn disk_area(r: f64) -> f64 {
    std::f64::consts::PI * r * r
}

/// Exact area of `disk ∩ polygon` for a simple polygon given as a vertex
/// list (either orientation; the result is unsigned).
///
/// Implementation: the signed intersection area equals the sum over
/// directed polygon edges of the area of the "circular triangle" spanned
/// by the disk centre and the edge, where sub-spans of the edge inside
/// the disk contribute straight triangles and sub-spans outside
/// contribute circular sectors. Each edge is split at its (up to two)
/// circle crossings.
pub fn disk_polygon_area(disk: Disk, polygon: &[Point]) -> f64 {
    let n = polygon.len();
    if n < 3 || disk.radius == 0.0 {
        return 0.0;
    }
    let r = disk.radius;
    let mut signed = 0.0;
    for i in 0..n {
        let a = Point::new(polygon[i].x - disk.center.x, polygon[i].y - disk.center.y);
        let b = Point::new(
            polygon[(i + 1) % n].x - disk.center.x,
            polygon[(i + 1) % n].y - disk.center.y,
        );
        signed += edge_contribution(a, b, r);
    }
    signed.abs()
}

/// Signed contribution of the directed edge `a → b` (relative to a disk
/// centred at the origin with radius `r`) to the disk∩polygon area.
fn edge_contribution(a: Point, b: Point, r: f64) -> f64 {
    // Split parameter range [0,1] at circle crossings.
    let d = Point::new(b.x - a.x, b.y - a.y);
    let qa = d.dot(d);
    if qa == 0.0 {
        return 0.0; // zero-length edge
    }
    let qb = 2.0 * a.dot(d);
    let qc = a.dot(a) - r * r;
    let mut ts = [0.0_f64, 1.0, 1.0, 1.0];
    let mut nts = 1; // ts[0] = 0 always present; collect interior crossings
    let disc = qb * qb - 4.0 * qa * qc;
    if disc > 0.0 {
        let sqrt_disc = disc.sqrt();
        for t in [
            (-qb - sqrt_disc) / (2.0 * qa),
            (-qb + sqrt_disc) / (2.0 * qa),
        ] {
            if t > 0.0 && t < 1.0 {
                ts[nts] = t;
                nts += 1;
            }
        }
    }
    ts[nts] = 1.0;
    nts += 1;
    ts[..nts].sort_by(f64::total_cmp);

    let point_at = |t: f64| Point::new(a.x + d.x * t, a.y + d.y * t);
    let mut area = 0.0;
    for w in ts[..nts].windows(2) {
        let (t0, t1) = (w[0], w[1]);
        if t1 - t0 <= 0.0 {
            continue;
        }
        let p0 = point_at(t0);
        let p1 = point_at(t1);
        let mid = point_at(0.5 * (t0 + t1));
        if mid.dot(mid) <= r * r {
            // Inside: straight triangle (origin, p0, p1).
            area += 0.5 * p0.cross(p1);
        } else {
            // Outside: circular sector between the endpoint directions.
            // A straight segment subtends < π at any point, so atan2 of
            // (cross, dot) gives the correct signed sweep.
            let ang = p0.cross(p1).atan2(p0.dot(p1));
            area += 0.5 * r * r * ang;
        }
    }
    area
}

/// Exact area of `disk ∩ rect`.
pub fn disk_rect_area(disk: Disk, rect: &Rect) -> f64 {
    if rect.is_degenerate() || disk.radius == 0.0 {
        return 0.0;
    }
    // Quick rejects/accepts.
    if rect.distance_sq_to_point(disk.center) >= disk.radius * disk.radius {
        return 0.0;
    }
    let max_d = rect.max_distance_to_point(disk.center);
    if max_d <= disk.radius {
        return rect.area();
    }
    disk_polygon_area(disk, &rect.corners())
}

/// Exact area of `disk ∩ region` for a rectangle union, via the region's
/// disjoint decomposition (tiles only share borders, so areas add).
pub fn disk_region_area(disk: Disk, region: &RectUnion) -> f64 {
    (region.disjoint_rects(&mut RegionScratch::default()).iter())
        .map(|r| disk_rect_area(disk, r))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::PI;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn disk_fully_inside_rect() {
        let d = Disk::new(Point::new(5.0, 5.0), 1.0);
        let r = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        assert!(close(disk_rect_area(d, &r), PI, 1e-12));
    }

    #[test]
    fn rect_fully_inside_disk() {
        let d = Disk::new(Point::new(0.0, 0.0), 10.0);
        let r = Rect::from_coords(-1.0, -1.0, 1.0, 1.0);
        assert!(close(disk_rect_area(d, &r), 4.0, 1e-12));
    }

    #[test]
    fn disjoint_disk_and_rect() {
        let d = Disk::new(Point::new(0.0, 0.0), 1.0);
        let r = Rect::from_coords(5.0, 5.0, 6.0, 6.0);
        assert!(approx_eq(disk_rect_area(d, &r), 0.0));
    }

    #[test]
    fn half_disk_against_half_plane_like_rect() {
        // Rect covers exactly the right half of the disk.
        let d = Disk::new(Point::new(0.0, 0.0), 2.0);
        let r = Rect::from_coords(0.0, -10.0, 10.0, 10.0);
        assert!(close(disk_rect_area(d, &r), 0.5 * PI * 4.0, 1e-9));
    }

    #[test]
    fn quarter_disk() {
        let d = Disk::new(Point::new(0.0, 0.0), 1.0);
        let r = Rect::from_coords(0.0, 0.0, 5.0, 5.0);
        assert!(close(disk_rect_area(d, &r), 0.25 * PI, 1e-9));
    }

    #[test]
    fn circular_segment_formula_agrees() {
        // Rect clips the disk at x >= h: area = r² acos(h/r) − h √(r²−h²).
        let (r_, h) = (3.0_f64, 1.25_f64);
        let d = Disk::new(Point::new(0.0, 0.0), r_);
        let rect = Rect::from_coords(h, -10.0, 10.0, 10.0);
        let expect = r_ * r_ * (h / r_).acos() - h * (r_ * r_ - h * h).sqrt();
        assert!(close(disk_rect_area(d, &rect), expect, 1e-9));
    }

    #[test]
    fn corner_overlap_monte_carlo() {
        // Disk overlapping a rect corner; validate against dense sampling.
        let d = Disk::new(Point::new(1.0, 1.0), 1.5);
        let rect = Rect::from_coords(0.0, 0.0, 1.2, 0.8);
        let exact = disk_rect_area(d, &rect);
        let n = 2000;
        let mut hits = 0u64;
        for i in 0..n {
            for j in 0..n {
                let p = Point::new(
                    rect.x1 + rect.width() * (i as f64 + 0.5) / n as f64,
                    rect.y1 + rect.height() * (j as f64 + 0.5) / n as f64,
                );
                if d.contains(p) {
                    hits += 1;
                }
            }
        }
        let approx = rect.area() * hits as f64 / (n * n) as f64;
        assert!(close(exact, approx, 2e-3), "exact={exact} approx={approx}");
    }

    #[test]
    fn polygon_orientation_does_not_matter() {
        let d = Disk::new(Point::new(0.3, 0.4), 1.0);
        let ccw = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ];
        let cw: Vec<Point> = ccw.iter().rev().copied().collect();
        assert!(close(
            disk_polygon_area(d, &ccw),
            disk_polygon_area(d, &cw),
            1e-12
        ));
    }

    #[test]
    fn triangle_intersection() {
        // Disk centered at triangle centroid, tiny radius: area = disk.
        let tri = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 4.0),
        ];
        let d = Disk::new(Point::new(1.0, 1.0), 0.25);
        assert!(close(disk_polygon_area(d, &tri), PI * 0.0625, 1e-9));
        // Huge radius: area = triangle area = 8.
        let d2 = Disk::new(Point::new(1.0, 1.0), 100.0);
        assert!(close(disk_polygon_area(d2, &tri), 8.0, 1e-9));
    }

    #[test]
    fn region_area_splits_across_tiles() {
        // Two abutting unit squares; disk centered on the seam.
        let region = RectUnion::from_rects([
            Rect::from_coords(0.0, 0.0, 1.0, 2.0),
            Rect::from_coords(1.0, 0.0, 2.0, 2.0),
        ]);
        let d = Disk::new(Point::new(1.0, 1.0), 0.5);
        assert!(close(disk_region_area(d, &region), PI * 0.25, 1e-9));
    }

    #[test]
    fn region_area_zero_for_empty_region() {
        let d = Disk::new(Point::ORIGIN, 1.0);
        assert!(approx_eq(disk_region_area(d, &RectUnion::new()), 0.0));
    }

    #[test]
    fn zero_radius_disk_has_no_area() {
        let d = Disk::new(Point::ORIGIN, 0.0);
        let r = Rect::from_coords(-1.0, -1.0, 1.0, 1.0);
        assert!(approx_eq(disk_rect_area(d, &r), 0.0));
        assert!(approx_eq(d.area(), 0.0));
    }

    #[test]
    fn disk_mbr_is_bounding_square() {
        let d = Disk::new(Point::new(2.0, 3.0), 1.5);
        assert_eq!(d.mbr(), Rect::from_coords(0.5, 1.5, 3.5, 4.5));
    }
}
