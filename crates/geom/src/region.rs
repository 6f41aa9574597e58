//! Unions of axis-aligned rectangles — the *merged verified region*.
//!
//! Each peer contributes its verified region as an MBR; SBNN/SBWQ operate
//! on the union `MVR = VR₁ ∪ … ∪ VRⱼ`. The paper invokes the general
//! `MapOverlay` algorithm of de Berg et al.; because every input is an
//! axis-aligned rectangle, the overlay specializes to a grid cut along
//! the members' own edges, each cell wholly inside the union or wholly
//! outside it. Every question below is read off that one grid:
//!
//! * [`RectUnion::contains`] — is the query host inside the MVR?
//!   (precondition of Lemma 3.1)
//! * [`RectUnion::distance_to_boundary_within`] /
//!   [`RectUnion::distance_to_boundary`] — the distance `‖q, e_s‖` to the
//!   nearest boundary edge `e_s`, the verification radius of Lemma 3.1:
//!   the minimum over [`RectUnion::boundary_edges`], the runs of each cut
//!   line along which the cells on its two sides differ.
//! * [`RectUnion::disjoint_rects`] / [`RectUnion::area`] — the covered
//!   runs of each column of cells, a disjoint tiling, which also powers
//!   the exact disk∩region areas behind Lemma 3.2.
//! * [`RectUnion::rect_difference`] — window coverage (an empty
//!   difference) and window reduction `w → w′` for SBWQ: the uncovered
//!   runs of each column of the window's own cut.
//!
//! The union and the windows are closed sets, and every test compares
//! member coordinates exactly: a gap between two members, however
//! narrow, is a column or row of uncovered cells, with boundary on both
//! sides of it.

use crate::{Point, Rect, Segment};

/// A union of axis-aligned rectangles in the plane.
///
/// The rectangle list is kept as provided (minus degenerate members);
/// all queries are answered by cutting the list into cells afresh, so
/// construction is O(n) and nothing is cached — peers number in the
/// tens, and the region NNV asks about is pruned afresh for every query.
#[derive(Clone, Debug, Default)]
pub struct RectUnion {
    rects: Vec<Rect>,
}

/// A window cut into cells along member edges, with the members over
/// each cell. `xs` and `ys` are sorted and distinct, and cell `(i, j)`
/// spans `[xs[i − 1], xs[i]] × [ys[j − 1], ys[j]]`: the first and last
/// cell of each axis lie off the cut, and no member covers them.
#[derive(Clone, Debug, Default)]
struct Cells {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Members over each cell, `x` outer: cell `(i, j)` is at
    /// `i · (ys.len() + 1) + j`, so a column of cells is contiguous.
    count: Vec<i32>,
}

impl Cells {
    fn covered(&self, i: usize, j: usize) -> bool {
        self.count[i * (self.ys.len() + 1) + j] > 0
    }

    /// Every boundary edge, in [`RectUnion::boundary_edges`] order: on
    /// each cut line, the runs whose cells on its two sides differ.
    fn edges(&self, mut f: impl FnMut(Segment)) {
        for (k, &x) in self.xs.iter().enumerate() {
            let differs = |j| self.covered(k, j) != self.covered(k + 1, j);
            runs(&self.ys, differs, |lo, hi| f(Segment::vertical(x, lo, hi)));
        }
        for (k, &y) in self.ys.iter().enumerate() {
            let differs = |i| self.covered(i, k) != self.covered(i, k + 1);
            runs(&self.xs, differs, |lo, hi| {
                f(Segment::horizontal(y, lo, hi))
            });
        }
    }
}

/// Calls `f(lo, hi)` on each maximal run of cells along `coords` — cell
/// `t` spans `coords[t − 1]..coords[t]` — on which `keep(t)` holds, in
/// ascending order.
fn runs(coords: &[f64], keep: impl Fn(usize) -> bool, mut f: impl FnMut(f64, f64)) {
    let mut start = None;
    for t in 1..=coords.len() {
        match (start, t < coords.len() && keep(t)) {
            (None, true) => start = Some(coords[t - 1]),
            (Some(lo), false) => {
                f(lo, coords[t - 1]);
                start = None;
            }
            _ => {}
        }
    }
}

/// The working buffers of [`RectUnion`]'s queries — boundary distance,
/// tiling and window difference. They carry no state between calls, so
/// one value per worker, reused across queries, makes those queries
/// allocation-free once its buffers reach their high-water marks.
#[derive(Clone, Debug, Default)]
pub struct RegionScratch {
    cells: Cells,
    /// Difference rectangles still being extended across columns, keyed
    /// by `y` run (`(ylo, yhi, index in out)`), this column's and the
    /// next's.
    open: Vec<(f64, f64, usize)>,
    next_open: Vec<(f64, f64, usize)>,
    /// The tiling or difference a call returns.
    out: Vec<Rect>,
}

impl RectUnion {
    /// The empty region.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a region from rectangles, dropping degenerate ones.
    pub fn from_rects<I: IntoIterator<Item = Rect>>(rects: I) -> Self {
        Self {
            rects: rects.into_iter().filter(|r| !r.is_degenerate()).collect(),
        }
    }

    /// Empties the region, keeping its buffer for the next build.
    pub fn clear(&mut self) {
        self.rects.clear();
    }

    /// Adds one rectangle to the union (no-op when degenerate).
    pub fn push(&mut self, r: Rect) {
        if !r.is_degenerate() {
            self.rects.push(r);
        }
    }

    /// The member rectangles (possibly overlapping).
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// The region covers no area.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// MBR of the whole region, `None` when empty.
    pub fn mbr(&self) -> Option<Rect> {
        let mut it = self.rects.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.union_mbr(r)))
    }

    /// Closed containment: `p` lies in at least one member rectangle.
    pub fn contains(&self, p: Point) -> bool {
        self.rects.iter().any(|r| r.contains(p))
    }

    /// Strict containment in the *interior* of the union. A point on the
    /// shared border of two abutting rectangles is interior to the union
    /// even though it is on the boundary of both members, so this cannot
    /// be answered per-rectangle: `p` is interior when it lies in the
    /// union off its boundary.
    pub fn contains_interior(&self, p: Point) -> bool {
        self.contains(p) && self.distance_to_boundary(p).is_some_and(|(d, _)| d > 0.0)
    }

    /// Cuts `window` into `cells` along its own sides and the edges that
    /// lie strictly inside it of the members that meet its interior; the
    /// window defaults to the union's MBR, which gives every member edge.
    /// Each member adds ±1 at its four corners of a difference array, and
    /// two prefix-sum passes total the members over each cell. With no
    /// window and no member, the cut is empty.
    fn cut(&self, window: Option<&Rect>, cells: &mut Cells) {
        let Cells { xs, ys, count } = cells;
        xs.clear();
        ys.clear();
        count.clear();
        let Some(w) = window.copied().or_else(|| self.mbr()) else {
            return;
        };
        let members = || self.rects.iter().filter(|r| r.intersects_interior(&w));
        xs.reserve(2 * self.rects.len() + 2);
        ys.reserve(2 * self.rects.len() + 2);
        xs.extend([w.x1, w.x2]);
        ys.extend([w.y1, w.y2]);
        for r in members() {
            xs.extend([r.x1, r.x2].into_iter().filter(|&x| w.x1 < x && x < w.x2));
            ys.extend([r.y1, r.y2].into_iter().filter(|&y| w.y1 < y && y < w.y2));
        }
        // Equal floats are bit-identical, so the unstable sort is exact.
        for v in [&mut *xs, &mut *ys] {
            v.sort_unstable_by(f64::total_cmp);
            v.dedup();
        }
        let stride = ys.len() + 1;
        count.resize((xs.len() + 1) * stride, 0);
        // A member over `[xs[a], xs[b]]` covers cells `a + 1 ..= b`.
        let after = |v: &[f64], c: f64| v.partition_point(|&e| e < c) + 1;
        for r in members() {
            let (i0, i1) = (after(xs, r.x1.max(w.x1)), after(xs, r.x2.min(w.x2)));
            let (j0, j1) = (after(ys, r.y1.max(w.y1)), after(ys, r.y2.min(w.y2)));
            count[i0 * stride + j0] += 1;
            count[i0 * stride + j1] -= 1;
            count[i1 * stride + j0] -= 1;
            count[i1 * stride + j1] += 1;
        }
        for column in count.chunks_exact_mut(stride) {
            for j in 1..stride {
                column[j] += column[j - 1];
            }
        }
        for k in stride..count.len() {
            count[k] += count[k - stride];
        }
    }

    // ------------------------------------------------------------------
    // Boundary extraction
    // ------------------------------------------------------------------

    /// All boundary edges of the union, as axis-aligned segments: the
    /// vertical ones by ascending `x`, then the horizontal ones by
    /// ascending `y`, each line's runs in ascending order.
    ///
    /// An edge portion lies on the union boundary iff exactly one of its
    /// two sides is interior to the union: on each cut line, the runs
    /// whose cells on either side differ in coverage.
    pub fn boundary_edges(&self) -> Vec<Segment> {
        let (mut cells, mut out) = (Cells::default(), Vec::new());
        self.cut(None, &mut cells);
        cells.edges(|e| out.push(e));
        out
    }

    /// Distance from `p` to the nearest boundary edge, together with that
    /// edge (the paper's `e_s`). `None` when the region is empty.
    ///
    /// When `p` is inside the union this is the verification radius of
    /// Lemma 3.1: every POI closer to `p` than this distance is a
    /// guaranteed (verified) nearest neighbor. Of several nearest edges,
    /// the one returned is the first in [`RectUnion::boundary_edges`]
    /// order.
    pub fn distance_to_boundary(&self, p: Point) -> Option<(f64, Segment)> {
        let (d, edge) = self.nearest_boundary(p, f64::INFINITY, &mut RegionScratch::default());
        Some((d, edge?))
    }

    /// `min(‖p, e_s‖, cap)`, the minimum over
    /// [`RectUnion::boundary_edges`] capped at `cap`; `None` when the
    /// region is empty. The cut is made in `scratch`'s buffers.
    pub fn distance_to_boundary_within(
        &self,
        p: Point,
        cap: f64,
        scratch: &mut RegionScratch,
    ) -> Option<f64> {
        (!self.is_empty()).then(|| self.nearest_boundary(p, cap, scratch).0)
    }

    /// The scan behind both distance queries.
    fn nearest_boundary(
        &self,
        p: Point,
        cap: f64,
        scratch: &mut RegionScratch,
    ) -> (f64, Option<Segment>) {
        self.cut(None, &mut scratch.cells);
        let (mut best, mut edge) = (f64::INFINITY, None);
        scratch.cells.edges(|e| {
            let d = e.distance_to_point(p);
            if d < best {
                (best, edge) = (d, Some(e));
            }
        });
        (best.min(cap), edge)
    }

    // ------------------------------------------------------------------
    // Disjoint decomposition / area
    // ------------------------------------------------------------------

    /// Decomposes the union into disjoint rectangles: the covered runs of
    /// each column of cells, column by column. The output rectangles tile
    /// the union exactly (shared borders only) and are convenient for
    /// exact area integrals. The tiling is left in (and borrowed from)
    /// `scratch`.
    pub fn disjoint_rects<'s>(&self, scratch: &'s mut RegionScratch) -> &'s [Rect] {
        let RegionScratch { cells, out, .. } = scratch;
        self.cut(None, cells);
        out.clear();
        for (i, x) in cells.xs.windows(2).enumerate() {
            let covered = |j| cells.covered(i + 1, j);
            runs(&cells.ys, covered, |lo, hi| {
                out.push(Rect::from_coords(x[0], lo, x[1], hi));
            });
        }
        out
    }

    /// Exact area of the union.
    pub fn area(&self) -> f64 {
        (self.disjoint_rects(&mut RegionScratch::default()).iter())
            .map(Rect::area)
            .sum()
    }

    // ------------------------------------------------------------------
    // Coverage and difference (SBWQ)
    // ------------------------------------------------------------------

    /// The uncovered parts `w \ union`, as disjoint closed rectangles —
    /// SBWQ's reduced query windows `w′`; empty exactly when the union
    /// covers `w`. They are the uncovered runs of each column of `w`'s
    /// cut; adjacent columns with identical runs are coalesced so the
    /// output stays small. A degenerate `w` (a segment or a point) is
    /// covered only when one member contains it, and is otherwise its
    /// own reduced window. The rectangles are left in (and borrowed from)
    /// `scratch`.
    pub fn rect_difference<'s>(&self, w: &Rect, scratch: &'s mut RegionScratch) -> &'s [Rect] {
        let RegionScratch {
            cells,
            open,
            next_open,
            out,
        } = scratch;
        out.clear();
        if w.is_degenerate() {
            if !self.rects.iter().any(|r| r.contains_rect(w)) {
                out.push(*w);
            }
            return out;
        }
        self.cut(Some(w), cells);
        open.clear();
        for (i, x) in cells.xs.windows(2).enumerate() {
            let (xa, xb) = (x[0], x[1]);
            next_open.clear();
            let uncovered = |j| !cells.covered(i + 1, j);
            runs(&cells.ys, uncovered, |lo, hi| {
                // Extend an open rect with the same y-run, else start one.
                if let Some(&(_, _, idx)) = open.iter().find(|o| (o.0, o.1) == (lo, hi)) {
                    out[idx].x2 = xb;
                    next_open.push((lo, hi, idx));
                } else {
                    out.push(Rect::from_coords(xa, lo, xb, hi));
                    next_open.push((lo, hi, out.len() - 1));
                }
            });
            std::mem::swap(open, next_open);
        }
        out
    }

    /// Intersection of the union with `w`, as disjoint rectangles.
    pub fn rect_intersection(&self, w: &Rect) -> Vec<Rect> {
        (self.disjoint_rects(&mut RegionScratch::default()).iter())
            .filter_map(|r| r.intersection(w))
            .filter(|r| !r.is_degenerate())
            .collect()
    }
}

impl From<Rect> for RectUnion {
    fn from(r: Rect) -> Self {
        RectUnion::from_rects([r])
    }
}

impl FromIterator<Rect> for RectUnion {
    fn from_iter<T: IntoIterator<Item = Rect>>(iter: T) -> Self {
        RectUnion::from_rects(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, IntervalSet};

    fn r(x1: f64, y1: f64, x2: f64, y2: f64) -> Rect {
        Rect::from_coords(x1, y1, x2, y2)
    }

    #[test]
    fn empty_region_answers_trivially() {
        let u = RectUnion::new();
        assert!(u.is_empty());
        assert!(!u.contains(Point::ORIGIN));
        assert_eq!(u.mbr(), None);
        assert!(approx_eq(u.area(), 0.0));
        assert!(u.boundary_edges().is_empty());
        assert_eq!(u.distance_to_boundary(Point::ORIGIN), None);
    }

    #[test]
    fn single_rect_area_and_boundary() {
        let u = RectUnion::from(r(0.0, 0.0, 2.0, 1.0));
        assert!(approx_eq(u.area(), 2.0));
        let edges = u.boundary_edges();
        assert_eq!(edges.len(), 4);
        let total: f64 = edges.iter().map(Segment::len).sum();
        assert!(approx_eq(total, 6.0)); // perimeter
    }

    #[test]
    fn overlapping_rects_area_by_inclusion_exclusion() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 2.0, 2.0), r(1.0, 1.0, 3.0, 3.0)]);
        // 4 + 4 - 1 = 7
        assert!(approx_eq(u.area(), 7.0));
    }

    #[test]
    fn boundary_of_plus_shape_excludes_internal_edges() {
        // Horizontal bar and vertical bar crossing: union boundary is the
        // plus outline; internal shared edges must not appear.
        let u = RectUnion::from_rects([r(0.0, 1.0, 3.0, 2.0), r(1.0, 0.0, 2.0, 3.0)]);
        let perimeter: f64 = u.boundary_edges().iter().map(Segment::len).sum();
        // Plus sign of arm width 1, arm length 1 each side: 12 unit edges.
        assert!(approx_eq(perimeter, 12.0));
        assert!(approx_eq(u.area(), 3.0 + 3.0 - 1.0));
    }

    #[test]
    fn abutting_rects_fuse_their_shared_edge() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 1.0, 1.0), r(1.0, 0.0, 2.0, 1.0)]);
        let perimeter: f64 = u.boundary_edges().iter().map(Segment::len).sum();
        assert!(approx_eq(perimeter, 6.0)); // 2x1 box
        assert!(approx_eq(u.area(), 2.0));
        // The shared border x=1 is interior to the union.
        assert!(u.contains_interior(Point::new(1.0, 0.5)));
        // A true boundary point is not interior.
        assert!(!u.contains_interior(Point::new(0.0, 0.5)));
    }

    #[test]
    fn distance_to_boundary_inside_l_shape() {
        // L-shape: the near edge from (0.5, 0.5) is left/bottom at 0.5,
        // but also the inner corner edges of the L.
        let u = RectUnion::from_rects([r(0.0, 0.0, 2.0, 1.0), r(0.0, 0.0, 1.0, 2.0)]);
        let (d, _) = u.distance_to_boundary(Point::new(0.5, 0.5)).unwrap();
        assert!(approx_eq(d, 0.5));
        // Point deeper in the horizontal arm: nearest boundary is y=1 above.
        let (d2, seg) = u.distance_to_boundary(Point::new(1.5, 0.6)).unwrap();
        assert!(approx_eq(d2, 0.4), "d2 = {d2}");
        assert_eq!(seg.axis, crate::Axis::Horizontal);
    }

    #[test]
    fn disjoint_rects_tile_without_overlap() {
        let u = RectUnion::from_rects([
            r(0.0, 0.0, 2.0, 2.0),
            r(1.0, 1.0, 3.0, 3.0),
            r(2.5, 0.0, 4.0, 1.5),
        ]);
        let tiles = u.disjoint_rects(&mut RegionScratch::default()).to_vec();
        let total: f64 = tiles.iter().map(Rect::area).sum();
        assert!(approx_eq(total, u.area()));
        for (i, a) in tiles.iter().enumerate() {
            for b in &tiles[i + 1..] {
                assert!(!a.intersects_interior(b), "tiles overlap: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn covers_rect_full_partial_none() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 2.0, 2.0), r(2.0, 0.0, 4.0, 2.0)]);
        let covers = |w: Rect| {
            u.rect_difference(&w, &mut RegionScratch::default())
                .is_empty()
        };
        assert!(covers(r(0.5, 0.5, 3.5, 1.5))); // spans the seam
        assert!(!covers(r(1.0, 1.0, 5.0, 1.5))); // hangs off the right
        assert!(!covers(r(10.0, 10.0, 11.0, 11.0)));
    }

    #[test]
    fn rect_difference_computes_reduced_windows() {
        let u = RectUnion::from(r(0.0, 0.0, 2.0, 2.0));
        let w = r(1.0, 1.0, 3.0, 3.0);
        let diff = u
            .rect_difference(&w, &mut RegionScratch::default())
            .to_vec();
        let area: f64 = diff.iter().map(Rect::area).sum();
        // w has area 4, covered quarter is 1x1 = 1.
        assert!(approx_eq(area, 3.0));
        for d in &diff {
            // Every difference piece is inside w and outside the union interior.
            assert!(w.contains_rect(d));
            assert!(!u.contains_interior(d.center()));
        }
    }

    #[test]
    fn rect_difference_empty_when_covered() {
        let u = RectUnion::from(r(0.0, 0.0, 4.0, 4.0));
        assert!(u
            .rect_difference(&r(1.0, 1.0, 2.0, 2.0), &mut RegionScratch::default())
            .to_vec()
            .is_empty());
    }

    #[test]
    fn rect_difference_is_whole_window_when_disjoint() {
        let u = RectUnion::from(r(0.0, 0.0, 1.0, 1.0));
        let w = r(5.0, 5.0, 6.0, 7.0);
        let diff = u
            .rect_difference(&w, &mut RegionScratch::default())
            .to_vec();
        assert_eq!(diff.len(), 1);
        assert!(approx_eq(diff[0].area(), w.area()));
    }

    #[test]
    fn rect_difference_coalesces_slabs() {
        // Union carves a notch out of the middle; left and right slabs of
        // the remainder share y-runs and should merge horizontally.
        let u = RectUnion::from(r(1.0, 0.0, 2.0, 1.0));
        let w = r(0.0, 0.0, 3.0, 2.0);
        let diff = u
            .rect_difference(&w, &mut RegionScratch::default())
            .to_vec();
        let area: f64 = diff.iter().map(Rect::area).sum();
        assert!(approx_eq(area, 6.0 - 1.0));
        // Slab coalescing keeps the piece count minimal for this shape
        // (left column, notch top, right column — not five raw slabs).
        assert!(diff.len() <= 3, "pieces: {diff:?}");
        for (i, a) in diff.iter().enumerate() {
            for b in &diff[i + 1..] {
                assert!(!a.intersects_interior(b));
            }
        }
    }

    #[test]
    fn rect_intersection_pieces_lie_in_both() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 2.0, 2.0), r(3.0, 0.0, 5.0, 2.0)]);
        let w = r(1.0, 0.5, 4.0, 1.5);
        let pieces = u.rect_intersection(&w);
        let area: f64 = pieces.iter().map(Rect::area).sum();
        assert!(approx_eq(area, 1.0 + 1.0)); // 1x1 from each rect
        for p in &pieces {
            assert!(w.contains_rect(p));
            assert!(u.contains(p.center()));
        }
    }

    #[test]
    fn boundary_distance_sees_through_seams() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 2.0, 4.0), r(2.0, 0.0, 4.0, 4.0)]);
        // The seam x = 2 is interior: from the centre the rim is 2 away.
        let (d, _) = u.distance_to_boundary(Point::new(2.0, 2.0)).unwrap();
        assert!(approx_eq(d, 2.0), "d = {d}");
        assert!(u.contains_interior(Point::new(2.0, 2.0)));
    }

    #[test]
    fn boundary_edges_follow_push() {
        let mut u = RectUnion::from(r(0.0, 0.0, 1.0, 1.0));
        let perimeter: f64 = u.boundary_edges().iter().map(Segment::len).sum();
        assert!(approx_eq(perimeter, 4.0));
        // The fused shape is a 2x1 box with perimeter 6, not two unit boxes.
        u.push(r(1.0, 0.0, 2.0, 1.0));
        let perimeter: f64 = u.boundary_edges().iter().map(Segment::len).sum();
        assert!(approx_eq(perimeter, 6.0));
        assert_eq!(u.clone().boundary_edges(), u.boundary_edges());
    }

    #[test]
    fn distance_within_is_capped_and_exact_below_the_cap() {
        // L-shape; q deep in the wide arm: true boundary distance 0.5.
        let u = RectUnion::from_rects([r(0.0, 0.0, 4.0, 1.0), r(0.0, 0.0, 1.0, 4.0)]);
        let q = Point::new(2.0, 0.5);
        let d = u
            .distance_to_boundary_within(q, 10.0, &mut RegionScratch::default())
            .unwrap();
        assert_eq!(d, u.distance_to_boundary(q).unwrap().0);
        assert!(approx_eq(d, 0.5), "d = {d}");
        assert_eq!(
            u.distance_to_boundary_within(q, 0.2, &mut RegionScratch::default()),
            Some(0.2)
        );
        assert_eq!(
            u.distance_to_boundary_within(q, 0.0, &mut RegionScratch::default()),
            Some(0.0)
        );
        // Outside the region the distance is still to the nearest edge.
        assert_eq!(
            u.distance_to_boundary_within(Point::new(6.0, 0.5), 9.0, &mut RegionScratch::default()),
            Some(2.0)
        );
        assert_eq!(
            RectUnion::new().distance_to_boundary_within(q, 1.0, &mut RegionScratch::default()),
            None
        );
    }

    /// Member lists on snapped coordinates, so shared, nested and
    /// sliver-apart sides are common, each with a window drawn the same
    /// way.
    fn snapped_cases() -> impl Iterator<Item = (Vec<Rect>, Rect)> {
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        let mut rect = move || {
            let (x, y) = (next(8) as f64, next(8) as f64);
            let jitter = [0.0, 5e-10, 0.25][next(3) as usize];
            let (w, h) = (1.0 + next(4) as f64, 1.0 + next(4) as f64);
            (r(x, y, x + w + jitter, y + h), next(8))
        };
        (0..200).map(move |_| {
            let (first, more) = rect();
            let mut rects = vec![first];
            rects.extend((0..more).map(|_| rect().0));
            (rects, rect().0)
        })
    }

    /// The members' distinct coordinates on one axis, ascending.
    fn sides(rects: &[Rect], vertical: bool) -> Vec<f64> {
        let mut v: Vec<f64> = (rects.iter())
            .flat_map(|r| if vertical { [r.x1, r.x2] } else { [r.y1, r.y2] })
            .collect();
        v.sort_by(f64::total_cmp);
        v.dedup();
        v
    }

    /// The `y` extents of the members spanning the slab `[xa, xb]`.
    fn slab_cover(rects: &[Rect], xa: f64, xb: f64) -> IntervalSet {
        IntervalSet::from_intervals(
            (rects.iter())
                .filter(|r| r.x1 <= xa && r.x2 >= xb)
                .map(|r| (r.y1, r.y2)),
        )
    }

    #[test]
    fn line_runs_are_interval_set_symmetric_difference() {
        for (rects, _) in snapped_cases() {
            let u = RectUnion::from_rects(rects.iter().copied());
            let mut expect = Vec::new();
            for vertical in [true, false] {
                for c in sides(&rects, vertical) {
                    let side = |before: bool| {
                        IntervalSet::from_intervals(rects.iter().filter_map(|r| {
                            let (lo, hi, free) = if vertical {
                                (r.x1, r.x2, (r.y1, r.y2))
                            } else {
                                (r.y1, r.y2, (r.x1, r.x2))
                            };
                            let hit = if before {
                                lo < c && hi >= c
                            } else {
                                hi > c && lo <= c
                            };
                            hit.then_some(free)
                        }))
                    };
                    let line = side(true).symmetric_difference(&side(false));
                    expect.extend(line.runs().iter().map(|&(lo, hi)| {
                        if vertical {
                            Segment::vertical(c, lo, hi)
                        } else {
                            Segment::horizontal(c, lo, hi)
                        }
                    }));
                }
            }
            assert_eq!(u.boundary_edges(), expect, "{rects:?}");
        }
    }

    #[test]
    fn tile_runs_are_the_interval_set_union_of_spanning_members() {
        let mut scratch = RegionScratch::default();
        for (rects, _) in snapped_cases() {
            let u = RectUnion::from_rects(rects.iter().copied());
            let mut expect = Vec::new();
            for x in sides(&rects, true).windows(2) {
                let covered = slab_cover(&rects, x[0], x[1]);
                expect.extend((covered.runs().iter()).map(|&(lo, hi)| r(x[0], lo, x[1], hi)));
            }
            assert_eq!(u.disjoint_rects(&mut scratch), expect, "{rects:?}");
        }
    }

    #[test]
    fn difference_runs_are_the_window_less_the_covered_runs() {
        let mut scratch = RegionScratch::default();
        for (rects, w) in snapped_cases() {
            let u = RectUnion::from_rects(rects.iter().copied());
            let diff = u.rect_difference(&w, &mut scratch);
            // Slabs of the window cut along every member side inside it:
            // each piece spans whole slabs, and in each slab the pieces
            // over it are `single(w) \ covered`, in order.
            let mut xs = vec![w.x1, w.x2];
            xs.extend(
                sides(&rects, true)
                    .into_iter()
                    .filter(|&x| w.x1 < x && x < w.x2),
            );
            xs.sort_by(f64::total_cmp);
            for d in diff {
                assert!(
                    xs.contains(&d.x1) && xs.contains(&d.x2),
                    "{d:?} of {rects:?} \\ {w:?}"
                );
            }
            for x in xs.windows(2) {
                let mut pieces: Vec<(f64, f64)> = (diff.iter())
                    .filter(|d| d.x1 <= x[0] && d.x2 >= x[1])
                    .map(|d| (d.y1, d.y2))
                    .collect();
                pieces.sort_by(|a, b| a.0.total_cmp(&b.0));
                let expect =
                    IntervalSet::single(w.y1, w.y2).difference(&slab_cover(&rects, x[0], x[1]));
                assert_eq!(pieces, expect.runs(), "slab {x:?} of {rects:?} \\ {w:?}");
            }
        }
    }

    #[test]
    fn sliver_gaps_are_boundary() {
        // Two members 5e-10 apart: the gap is not part of the union, so
        // its sides are boundary and a window across it is uncovered.
        let u = RectUnion::from_rects([r(0.0, 0.0, 1.0, 1.0), r(1.0 + 5e-10, 0.0, 2.0, 1.0)]);
        let (d, e) = u.distance_to_boundary(Point::new(0.9, 0.5)).unwrap();
        assert!(approx_eq(d, 0.1), "d = {d}");
        assert_eq!((e.axis, e.at), (crate::Axis::Vertical, 1.0));
        assert!(!u.contains(Point::new(1.0 + 2.5e-10, 0.5)));
        assert!(!u.contains_interior(Point::new(1.0, 0.5)));
        let w = r(0.5, 0.25, 1.5, 0.75);
        let diff = u
            .rect_difference(&w, &mut RegionScratch::default())
            .to_vec();
        assert_eq!(diff, [r(1.0, 0.25, 1.0 + 5e-10, 0.75)]);
        // A window reaching 5e-10 past a member's edge is uncovered too.
        let v = RectUnion::from(r(0.0, 0.0, 1.0, 1.0));
        let w = r(0.5, 0.25, 1.0 + 5e-10, 0.75);
        let diff = v
            .rect_difference(&w, &mut RegionScratch::default())
            .to_vec();
        assert_eq!(diff, [r(1.0, 0.25, 1.0 + 5e-10, 0.75)]);
        // The tiling leaves the gap's slab empty.
        let tiles = u.disjoint_rects(&mut RegionScratch::default()).to_vec();
        assert_eq!(
            tiles,
            [r(0.0, 0.0, 1.0, 1.0), r(1.0 + 5e-10, 0.0, 2.0, 1.0)]
        );
    }

    #[test]
    fn degenerate_windows_are_covered_by_a_containing_member() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 1.0, 1.0), r(1.0, 0.0, 2.0, 1.0)]);
        let diff = |w: Rect| {
            u.rect_difference(&w, &mut RegionScratch::default())
                .to_vec()
        };
        // A point, and a segment, inside one member (its edge included).
        assert!(diff(r(0.5, 0.5, 0.5, 0.5)).is_empty());
        assert!(diff(r(1.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(diff(r(0.25, 1.0, 0.75, 1.0)).is_empty());
        // Outside the union, or across a seam no one member spans: the
        // window is its own reduced window.
        for w in [
            r(3.0, 0.5, 3.0, 0.5),
            r(0.5, 0.5, 1.5, 0.5),
            r(0.5, 0.5, 0.5, 1.5),
        ] {
            assert_eq!(diff(w), [w]);
        }
    }

    #[test]
    fn degenerate_rects_are_ignored() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 0.0, 5.0), r(1.0, 1.0, 2.0, 2.0)]);
        assert_eq!(u.rects().len(), 1);
    }
}
