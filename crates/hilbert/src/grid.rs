//! Mapping between continuous world coordinates and Hilbert cells.

use crate::{CellRect, HilbertCurve};
use airshare_geom::{Point, Rect};

/// A Hilbert curve laid over a rectangular world region.
///
/// The world rectangle is divided into `2^k × 2^k` equal cells; points are
/// mapped to cells by truncation (points on the far edges land in the last
/// cell). This is how the broadcast server assigns each POI its air-index
/// value, and how clients convert Euclidean search regions into curve
/// intervals.
#[derive(Clone, Copy, Debug)]
pub struct Grid {
    world: Rect,
    curve: HilbertCurve,
}

impl Grid {
    /// Creates a grid of the given curve order over `world`.
    /// Panics when `world` is degenerate.
    pub fn new(world: Rect, order: u32) -> Self {
        assert!(!world.is_degenerate(), "world rect must have positive area");
        Self {
            world,
            curve: HilbertCurve::new(order),
        }
    }

    /// The world rectangle.
    pub fn world(&self) -> Rect {
        self.world
    }

    /// The underlying curve.
    pub fn curve(&self) -> &HilbertCurve {
        &self.curve
    }

    /// Cell side lengths in world units.
    pub fn cell_size(&self) -> (f64, f64) {
        let n = self.curve.side() as f64;
        (self.world.width() / n, self.world.height() / n)
    }

    /// The cell containing `p`. Points outside the world are clamped to
    /// the nearest cell.
    pub fn cell_of(&self, p: Point) -> (u32, u32) {
        let n = self.curve.side();
        let fx = (p.x - self.world.x1) / self.world.width();
        let fy = (p.y - self.world.y1) / self.world.height();
        let cx = ((fx * n as f64).floor() as i64).clamp(0, (n - 1) as i64) as u32;
        let cy = ((fy * n as f64).floor() as i64).clamp(0, (n - 1) as i64) as u32;
        (cx, cy)
    }

    /// Curve position of the cell containing `p` — the POI's air-index
    /// value.
    pub fn value_of(&self, p: Point) -> u64 {
        let (cx, cy) = self.cell_of(p);
        self.curve.encode(cx, cy)
    }

    /// World rectangle covered by cell `(cx, cy)`.
    pub fn cell_rect(&self, cx: u32, cy: u32) -> Rect {
        let (w, h) = self.cell_size();
        let x1 = self.world.x1 + cx as f64 * w;
        let y1 = self.world.y1 + cy as f64 * h;
        Rect::from_coords(x1, y1, x1 + w, y1 + h)
    }

    /// The cell rectangle covering a world rectangle (clipped to the
    /// world): every cell the closed rectangle touches, found by the
    /// same floor that places POIs ([`Grid::cell_of`]), so a POI inside
    /// `r` lies in a covered cell even on `r`'s far edges. Returns `None`
    /// when `r` lies entirely outside.
    pub fn cell_rect_for(&self, r: &Rect) -> Option<CellRect> {
        let clipped = r.intersection(&self.world)?;
        let (x1, y1) = self.cell_of(Point::new(clipped.x1, clipped.y1));
        let (x2, y2) = self.cell_of(Point::new(clipped.x2, clipped.y2));
        Some(CellRect::new(x1, y1, x2, y2))
    }

    /// Curve intervals (inclusive) covering a world rectangle — the set of
    /// air-index ranges a client must listen to for a window query —
    /// written into `out` (cleared first) so a reused buffer makes the
    /// call allocation-free. Leaves `out` empty when `r` lies entirely
    /// outside the world.
    pub fn intervals_for_world_rect_into(&self, r: &Rect, out: &mut Vec<(u64, u64)>) {
        match self.cell_rect_for(r) {
            Some(cr) => self.curve.intervals_for_rect_into(&cr, out),
            None => out.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(Rect::from_coords(0.0, 0.0, 16.0, 16.0), 3)
    }

    #[test]
    fn cell_mapping_and_back() {
        let g = grid();
        // 8x8 cells of 2x2 world units.
        assert_eq!(g.cell_of(Point::new(0.5, 0.5)), (0, 0));
        assert_eq!(g.cell_of(Point::new(15.9, 15.9)), (7, 7));
        assert_eq!(g.cell_of(Point::new(4.0, 6.0)), (2, 3));
        let r = g.cell_rect(2, 3);
        assert_eq!(r, Rect::from_coords(4.0, 6.0, 6.0, 8.0));
    }

    #[test]
    fn out_of_world_points_clamp() {
        let g = grid();
        assert_eq!(g.cell_of(Point::new(-5.0, 100.0)), (0, 7));
        assert_eq!(g.cell_of(Point::new(16.0, 16.0)), (7, 7));
    }

    #[test]
    fn value_roundtrip_via_cell_rect() {
        let g = grid();
        let p = Point::new(7.3, 2.9);
        let d = g.value_of(p);
        let (cx, cy) = g.curve.decode(d);
        assert!(g.cell_rect(cx, cy).contains(p));
    }

    #[test]
    fn cell_rect_for_covers_query() {
        let g = grid();
        let q = Rect::from_coords(3.0, 3.0, 9.0, 5.0);
        let cr = g.cell_rect_for(&q).unwrap();
        // Covering cells: x in [1,4], y in [1,2].
        assert_eq!(cr, CellRect::new(1, 1, 4, 2));
        // Query entirely outside the world: no cells.
        assert!(g
            .cell_rect_for(&Rect::from_coords(20.0, 20.0, 30.0, 30.0))
            .is_none());
    }

    #[test]
    fn cell_rect_for_exact_cell_boundaries() {
        let g = grid();
        // A closed window equal to one cell touches the next row and
        // column, where `cell_of` places a POI on its far edges.
        let q = g.cell_rect(3, 4);
        let cr = g.cell_rect_for(&q).unwrap();
        assert_eq!(cr, CellRect::new(3, 4, 4, 5));
        for p in [
            Point::new(q.x2, q.y2),
            Point::new(q.x2, q.y1),
            Point::new(q.x1, q.y2),
        ] {
            let (cx, cy) = g.cell_of(p);
            assert!(
                cr.contains(cx, cy),
                "{p:?} in cell ({cx}, {cy}) outside {cr:?}"
            );
        }
        // Inside the world's far edge nothing spills: the last cell holds it.
        let last = g.cell_rect(7, 7);
        assert_eq!(g.cell_rect_for(&last).unwrap(), CellRect::new(7, 7, 7, 7));
    }

    #[test]
    fn intervals_match_point_membership() {
        let g = grid();
        let q = Rect::from_coords(1.0, 1.0, 7.0, 7.0);
        let mut ivs = Vec::new();
        g.intervals_for_world_rect_into(&q, &mut ivs);
        let inside = |d: u64| ivs.iter().any(|&(lo, hi)| d >= lo && d <= hi);
        // Every cell whose rect intersects q's covering cells is listed.
        let cr = g.cell_rect_for(&q).unwrap();
        for cx in 0..8 {
            for cy in 0..8 {
                let d = g.curve().encode(cx, cy);
                assert_eq!(inside(d), cr.contains(cx, cy));
            }
        }
    }

    #[test]
    fn negative_world_origin() {
        let g = Grid::new(Rect::from_coords(-8.0, -8.0, 8.0, 8.0), 2);
        assert_eq!(g.cell_of(Point::new(-8.0, -8.0)), (0, 0));
        assert_eq!(g.cell_of(Point::new(7.9, 7.9)), (3, 3));
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), (2, 2));
    }

    #[test]
    #[should_panic]
    fn degenerate_world_rejected() {
        Grid::new(Rect::from_coords(0.0, 0.0, 0.0, 5.0), 3);
    }
}
