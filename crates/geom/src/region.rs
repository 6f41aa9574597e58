//! Unions of axis-aligned rectangles — the *merged verified region*.
//!
//! Each peer contributes its verified region as an MBR; SBNN/SBWQ operate
//! on the union `MVR = VR₁ ∪ … ∪ VRⱼ`. The paper invokes the general
//! `MapOverlay` algorithm of de Berg et al.; because every input is an
//! axis-aligned rectangle, the overlay specializes to exact sweep-line
//! interval algebra, which is what this module implements:
//!
//! * [`RectUnion::contains`] — is the query host inside the MVR?
//!   (precondition of Lemma 3.1)
//! * [`RectUnion::distance_to_boundary_within`] /
//!   [`RectUnion::distance_to_boundary`] — the distance `‖q, e_s‖` to the
//!   nearest boundary edge `e_s`, the verification radius of Lemma 3.1,
//!   found by sweeping candidate lines nearest first and stopping at the
//!   bound. [`RectUnion::boundary_edges`] is the whole edge set `E`, the
//!   reference both are checked against.
//! * [`RectUnion::disjoint_rects`] / [`RectUnion::area`] — a disjoint slab
//!   decomposition, which also powers the exact disk∩region areas behind
//!   Lemma 3.2.
//! * [`RectUnion::rect_difference`] — window coverage (an empty
//!   difference) and window reduction `w → w′` for SBWQ.
//!
//! The union and the windows are closed sets, and every test compares
//! member coordinates exactly: a gap between two members, however
//! narrow, is a gap, with boundary on both sides of it.

use crate::intervals::{canonicalize, difference_into};
use crate::{Point, Rect, Segment};

/// A union of axis-aligned rectangles in the plane.
///
/// The rectangle list is kept as provided (minus degenerate members);
/// all queries are answered by sweeps over the list, so construction is
/// O(n) and nothing is cached — peers number in the tens, and the region
/// NNV asks about is pruned afresh for every query.
#[derive(Clone, Debug, Default)]
pub struct RectUnion {
    rects: Vec<Rect>,
}

/// The buffers one boundary sweep reuses across its lines, sized up front
/// so that no line reallocates: each member adds at most one interval per
/// side, and `a \ b` has at most `|a| + |b|` runs.
#[derive(Clone, Debug, Default)]
struct LineScratch {
    before: Vec<(f64, f64)>,
    after: Vec<(f64, f64)>,
    runs: Vec<(f64, f64)>,
}

impl LineScratch {
    /// Room for a sweep over `rects` members (no-op once warm).
    fn reserve(&mut self, rects: usize) {
        self.before.reserve(rects);
        self.after.reserve(rects);
        self.runs.reserve(4 * rects);
    }
}

/// The working buffers of [`RectUnion`]'s sweeps — boundary distance,
/// tiling and window difference. They carry no state between calls, so
/// one value per worker, reused across queries, makes those sweeps
/// allocation-free once its buffers reach their high-water marks.
#[derive(Clone, Debug, Default)]
pub struct RegionScratch {
    /// Candidate lines, nearest first: `(gap, vertical, coordinate)`.
    lines: Vec<(f64, bool, f64)>,
    /// One sweep direction's sorted, deduplicated member coordinates.
    coords: Vec<f64>,
    line: LineScratch,
    /// One slab's covered `y` runs, and the window's uncovered ones.
    covered: Vec<(f64, f64)>,
    uncovered: Vec<(f64, f64)>,
    /// Rectangles still being extended across slabs, keyed by `y` run
    /// (`(ylo, yhi, index in out)`), this slab's and the next's.
    open: Vec<(f64, f64, usize)>,
    next_open: Vec<(f64, f64, usize)>,
    /// The tiling or difference a call returns.
    out: Vec<Rect>,
}

fn segment_on(vertical: bool, c: f64, lo: f64, hi: f64) -> Segment {
    if vertical {
        Segment::vertical(c, lo, hi)
    } else {
        Segment::horizontal(c, lo, hi)
    }
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

    // ------------------------------------------------------------------
    // Boundary extraction
    // ------------------------------------------------------------------

    /// All boundary edges of the union, as axis-aligned segments: the
    /// vertical ones by ascending `x`, then the horizontal ones by
    /// ascending `y`, each line's runs in ascending order.
    ///
    /// An edge portion lies on the union boundary iff exactly one of its
    /// two sides is interior to the union. For each candidate grid line we
    /// build the interval sets covered on either side and keep their
    /// symmetric difference. Computed on demand: this is the reference
    /// oracle; the distance queries sweep only the lines they need.
    pub fn boundary_edges(&self) -> Vec<Segment> {
        let mut out = Vec::new();
        let (mut coords, mut s) = (Vec::new(), LineScratch::default());
        s.reserve(self.rects.len());
        self.for_each_edge(&mut coords, &mut s, |e| out.push(e));
        out
    }

    /// Every boundary edge, in [`RectUnion::boundary_edges`] order.
    fn for_each_edge(
        &self,
        coords: &mut Vec<f64>,
        s: &mut LineScratch,
        mut f: impl FnMut(Segment),
    ) {
        for vertical in [true, false] {
            self.lines(vertical, coords);
            for &c in coords.iter() {
                self.line_runs(vertical, c, s);
                for &(lo, hi) in &s.runs {
                    f(segment_on(vertical, c, lo, hi));
                }
            }
        }
    }

    /// The candidate lines of one sweep direction, into `coords`: the
    /// members' sorted, deduplicated `x` coordinates when `vertical`,
    /// else their `y`s. (Equal floats are bit-identical, so the unstable
    /// sort is exact.)
    fn lines(&self, vertical: bool, coords: &mut Vec<f64>) {
        let sides = |r: &Rect| if vertical { [r.x1, r.x2] } else { [r.y1, r.y2] };
        coords.clear();
        coords.extend(self.rects.iter().flat_map(sides));
        coords.sort_unstable_by(f64::total_cmp);
        coords.dedup();
    }

    /// The boundary runs on line `c` (vertical: `x = c`), left in
    /// `s.runs`: the spans covered on exactly one side of the line. The
    /// arithmetic is [`crate::IntervalSet`]'s — canonical sides, then
    /// `(before \ after) ∪ (after \ before)` — done in `s`'s buffers.
    fn line_runs(&self, vertical: bool, c: f64, s: &mut LineScratch) {
        // Interior just below / left of the line, and just above / right:
        // each member is written, and kept if it touches (no branch).
        let (mut below, mut above) = (0, 0);
        s.before.resize(self.rects.len(), (0.0, 0.0));
        s.after.resize(self.rects.len(), (0.0, 0.0));
        for r in &self.rects {
            let (fixed_lo, fixed_hi, free) = if vertical {
                (r.x1, r.x2, (r.y1, r.y2))
            } else {
                (r.y1, r.y2, (r.x1, r.x2))
            };
            s.before[below] = free;
            below += usize::from(fixed_lo < c && fixed_hi >= c);
            s.after[above] = free;
            above += usize::from(fixed_hi > c && fixed_lo <= c);
        }
        s.before.truncate(below);
        s.after.truncate(above);
        canonicalize(&mut s.before);
        canonicalize(&mut s.after);
        s.runs.clear();
        difference_into(&s.before, &s.after, &mut s.runs);
        difference_into(&s.after, &s.before, &mut s.runs);
        canonicalize(&mut s.runs);
    }

    /// Distance from `p` to the nearest boundary edge, together with that
    /// edge (the paper's `e_s`). `None` when the region is empty.
    ///
    /// When `p` is inside the union this is the verification radius of
    /// Lemma 3.1: every POI closer to `p` than this distance is a
    /// guaranteed (verified) nearest neighbor. Of several nearest edges,
    /// the one returned is the first met by the sweep of
    /// [`RectUnion::distance_to_boundary_within`]: lines by ascending gap
    /// `|c − p|` (ties: vertical first, then by `c`), runs along a line
    /// by ascending position.
    pub fn distance_to_boundary(&self, p: Point) -> Option<(f64, Segment)> {
        let (d, edge) = self.nearest_boundary(p, f64::INFINITY, &mut RegionScratch::default());
        Some((d, edge?))
    }

    /// `min(‖p, e_s‖, cap)`; `None` when the region is empty.
    ///
    /// Candidate lines of both axes are swept nearest first, stopping at
    /// the first whose gap `|c − p|` reaches `min(best so far, cap)`: an
    /// edge on line `c` lies `hypot(c − p, ·) ≥ |c − p|` away, so no later
    /// line can lower the answer — the same `f64` as the minimum over
    /// [`RectUnion::boundary_edges`], capped (debug builds check this).
    /// When every line lies beyond `cap`, nothing is swept. The sweep
    /// works in `scratch`'s buffers.
    pub fn distance_to_boundary_within(
        &self,
        p: Point,
        cap: f64,
        scratch: &mut RegionScratch,
    ) -> Option<f64> {
        (!self.is_empty()).then(|| self.nearest_boundary(p, cap, scratch).0)
    }

    /// The nearest-first sweep behind both distance queries. Every
    /// buffer is sized once up front, so a fresh scratch costs a fixed
    /// number of allocations and a warm one none.
    fn nearest_boundary(
        &self,
        p: Point,
        cap: f64,
        scratch: &mut RegionScratch,
    ) -> (f64, Option<Segment>) {
        let RegionScratch {
            lines,
            coords,
            line: s,
            ..
        } = scratch;
        let n = self.rects.len();
        lines.clear();
        lines.reserve(4 * n);
        coords.reserve(2 * n);
        s.reserve(n);
        for vertical in [true, false] {
            let at = if vertical { p.x } else { p.y };
            self.lines(vertical, coords);
            lines.extend(coords.iter().map(|&c| ((c - at).abs(), vertical, c)));
        }
        lines.sort_unstable_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(b.1.cmp(&a.1))
                .then(a.2.total_cmp(&b.2))
        });
        let (mut best, mut edge) = (f64::INFINITY, None);
        for &(gap, vertical, c) in lines.iter() {
            if gap >= best.min(cap) {
                break;
            }
            self.line_runs(vertical, c, s);
            for &(lo, hi) in &s.runs {
                let e = segment_on(vertical, c, lo, hi);
                let d = e.distance_to_point(p);
                if d < best {
                    (best, edge) = (d, Some(e));
                }
            }
        }
        let d = best.min(cap);
        debug_assert_eq!(
            d.to_bits(),
            {
                let mut full = f64::INFINITY;
                self.for_each_edge(coords, s, |e| full = full.min(e.distance_to_point(p)));
                full.min(cap).to_bits()
            },
            "nearest-first boundary distance {d} from {p:?} (cap {cap}) differs from the full sweep"
        );
        (d, edge)
    }

    // ------------------------------------------------------------------
    // Disjoint decomposition / area
    // ------------------------------------------------------------------

    /// Decomposes the union into disjoint rectangles via a vertical-slab
    /// sweep. The output rectangles tile the union exactly (shared borders
    /// only) and are convenient for exact area integrals; slab by slab.
    /// The tiling is left in (and borrowed from) `scratch`.
    pub fn disjoint_rects<'s>(&self, scratch: &'s mut RegionScratch) -> &'s [Rect] {
        let RegionScratch {
            coords,
            covered,
            out,
            ..
        } = scratch;
        out.clear();
        self.lines(true, coords);
        for w in coords.windows(2) {
            let (xa, xb) = (w[0], w[1]);
            self.slab_cover(xa, xb, covered);
            out.extend(
                covered
                    .iter()
                    .map(|&(lo, hi)| Rect::from_coords(xa, lo, xb, hi)),
            );
        }
        out
    }

    /// The canonical `y` runs covered across the whole slab `[xa, xb]`,
    /// into `covered`: each member spanning the slab contributes its
    /// `y` extent.
    fn slab_cover(&self, xa: f64, xb: f64, covered: &mut Vec<(f64, f64)>) {
        covered.clear();
        covered.extend(
            (self.rects.iter())
                .filter(|r| r.x1 <= xa && r.x2 >= xb)
                .map(|r| (r.y1, r.y2)),
        );
        canonicalize(covered);
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
    /// covers `w`. Adjacent slabs with identical uncovered spans are
    /// coalesced so the output stays small. A degenerate `w` (a segment
    /// or a point) is covered only when one member contains it, and is
    /// otherwise its own reduced window. The rectangles are left in (and
    /// borrowed from) `scratch`.
    pub fn rect_difference<'s>(&self, w: &Rect, scratch: &'s mut RegionScratch) -> &'s [Rect] {
        let RegionScratch {
            coords: xs,
            covered,
            uncovered,
            open,
            next_open,
            out,
            ..
        } = scratch;
        out.clear();
        if w.is_degenerate() {
            if !self.rects.iter().any(|r| r.contains_rect(w)) {
                out.push(*w);
            }
            return out;
        }
        xs.clear();
        xs.extend([w.x1, w.x2]);
        for r in &self.rects {
            if r.intersects_interior(w) {
                if r.x1 > w.x1 && r.x1 < w.x2 {
                    xs.push(r.x1);
                }
                if r.x2 > w.x1 && r.x2 < w.x2 {
                    xs.push(r.x2);
                }
            }
        }
        // Equal floats are bit-identical, so the unstable sort is exact.
        xs.sort_unstable_by(f64::total_cmp);
        xs.dedup();

        // `IntervalSet::single(w.y1, w.y2)`'s runs, without its buffer.
        let full = [(w.y1, w.y2)];
        open.clear();
        for win in xs.windows(2) {
            let (xa, xb) = (win[0], win[1]);
            self.slab_cover(xa, xb, covered);
            uncovered.clear();
            difference_into(&full, covered, uncovered);
            next_open.clear();
            for &(lo, hi) in uncovered.iter() {
                // Extend an open rect with the same y-run, else start one.
                if let Some(&(_, _, idx)) = open.iter().find(|o| (o.0, o.1) == (lo, hi)) {
                    out[idx].x2 = xb;
                    next_open.push((lo, hi, idx));
                } else {
                    out.push(Rect::from_coords(xa, lo, xb, hi));
                    next_open.push((lo, hi, out.len() - 1));
                }
            }
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

    #[test]
    fn line_runs_are_interval_set_symmetric_difference() {
        // Snapped coordinates make shared, nested and sliver-apart sides
        // common.
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        for _ in 0..200 {
            let rects: Vec<Rect> = (0..1 + next(8))
                .map(|_| {
                    let (x, y) = (next(8) as f64, next(8) as f64);
                    let jitter = [0.0, 5e-10, 0.25][next(3) as usize];
                    r(
                        x,
                        y,
                        x + 1.0 + next(4) as f64 + jitter,
                        y + 1.0 + next(4) as f64,
                    )
                })
                .collect();
            let u = RectUnion::from_rects(rects.iter().copied());
            let (mut s, mut coords) = (LineScratch::default(), Vec::new());
            for vertical in [true, false] {
                u.lines(vertical, &mut coords);
                for &c in &coords {
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
                    u.line_runs(vertical, c, &mut s);
                    let expect = side(true).symmetric_difference(&side(false));
                    assert_eq!(
                        s.runs,
                        expect.runs(),
                        "{rects:?} line {c} vertical {vertical}"
                    );
                }
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
