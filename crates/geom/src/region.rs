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
//! * [`RectUnion::covers_rect`] / [`RectUnion::rect_difference`] — window
//!   coverage and window reduction `w → w′` for SBWQ.

use crate::intervals::{canonicalize, difference_into};
use crate::{IntervalSet, Point, Rect, Segment, EPSILON};

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
struct LineScratch {
    before: Vec<(f64, f64)>,
    after: Vec<(f64, f64)>,
    runs: Vec<(f64, f64)>,
}

impl LineScratch {
    fn new(rects: usize) -> Self {
        Self {
            before: Vec::with_capacity(rects),
            after: Vec::with_capacity(rects),
            runs: Vec::with_capacity(4 * rects),
        }
    }
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
    /// be answered per-rectangle; we test a ball of radius ε via the
    /// boundary distance (capped at 2ε: only that near a line is swept).
    pub fn contains_interior(&self, p: Point) -> bool {
        self.contains(p)
            && self
                .distance_to_boundary_within(p, 2.0 * EPSILON)
                .is_some_and(|d| d > EPSILON)
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
        self.for_each_edge(&mut LineScratch::new(self.rects.len()), |e| out.push(e));
        out
    }

    /// Every boundary edge, in [`RectUnion::boundary_edges`] order.
    fn for_each_edge(&self, s: &mut LineScratch, mut f: impl FnMut(Segment)) {
        for vertical in [true, false] {
            for c in self.lines(vertical) {
                self.line_runs(vertical, c, s);
                for &(lo, hi) in &s.runs {
                    f(segment_on(vertical, c, lo, hi));
                }
            }
        }
    }

    /// The candidate lines of one sweep direction: the members' sorted,
    /// ε-deduplicated `x` coordinates when `vertical`, else their `y`s.
    /// (Equal floats are bit-identical, so the unstable sort is exact.)
    fn lines(&self, vertical: bool) -> Vec<f64> {
        let sides = |r: &Rect| if vertical { [r.x1, r.x2] } else { [r.y1, r.y2] };
        let mut coords: Vec<f64> = self.rects.iter().flat_map(sides).collect();
        coords.sort_unstable_by(f64::total_cmp);
        coords.dedup_by(|a, b| (*a - *b).abs() <= EPSILON);
        coords
    }

    /// The boundary runs on line `c` (vertical: `x = c`), left in
    /// `s.runs`: the spans covered on exactly one side of the line. The
    /// arithmetic is [`IntervalSet`]'s — canonical sides, then
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
            below += usize::from(fixed_lo + EPSILON < c && fixed_hi >= c - EPSILON);
            s.after[above] = free;
            above += usize::from(fixed_hi - EPSILON > c && fixed_lo <= c + EPSILON);
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
        let (d, edge) = self.nearest_boundary(p, f64::INFINITY);
        Some((d, edge?))
    }

    /// `min(‖p, e_s‖, cap)`; `None` when the region is empty.
    ///
    /// Candidate lines of both axes are swept nearest first, stopping at
    /// the first whose gap `|c − p|` reaches `min(best so far, cap)`: an
    /// edge on line `c` lies `hypot(c − p, ·) ≥ |c − p|` away, so no later
    /// line can lower the answer — the same `f64` as the minimum over
    /// [`RectUnion::boundary_edges`], capped (debug builds check this).
    /// When every line lies beyond `cap`, nothing is swept.
    pub fn distance_to_boundary_within(&self, p: Point, cap: f64) -> Option<f64> {
        (!self.is_empty()).then(|| self.nearest_boundary(p, cap).0)
    }

    /// The nearest-first sweep behind both distance queries.
    fn nearest_boundary(&self, p: Point, cap: f64) -> (f64, Option<Segment>) {
        let mut lines: Vec<(f64, bool, f64)> = Vec::with_capacity(4 * self.rects.len());
        for vertical in [true, false] {
            let at = if vertical { p.x } else { p.y };
            lines.extend(
                self.lines(vertical)
                    .into_iter()
                    .map(|c| ((c - at).abs(), vertical, c)),
            );
        }
        lines.sort_unstable_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(b.1.cmp(&a.1))
                .then(a.2.total_cmp(&b.2))
        });
        let mut s = LineScratch::new(self.rects.len());
        let (mut best, mut edge) = (f64::INFINITY, None);
        for (gap, vertical, c) in lines {
            if gap >= best.min(cap) {
                break;
            }
            self.line_runs(vertical, c, &mut s);
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
                self.for_each_edge(&mut s, |e| full = full.min(e.distance_to_point(p)));
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
    pub fn disjoint_rects(&self) -> Vec<Rect> {
        let mut out = Vec::new();
        let mut covered = Vec::with_capacity(self.rects.len());
        for w in self.lines(true).windows(2) {
            let (xa, xb) = (w[0], w[1]);
            if xb - xa <= EPSILON {
                continue;
            }
            covered.clear();
            covered.extend(
                self.rects
                    .iter()
                    .filter(|r| r.x1 <= xa + EPSILON && r.x2 >= xb - EPSILON)
                    .map(|r| (r.y1, r.y2)),
            );
            canonicalize(&mut covered);
            out.extend(
                covered
                    .iter()
                    .map(|&(lo, hi)| Rect::from_coords(xa, lo, xb, hi)),
            );
        }
        out
    }

    /// Exact area of the union.
    pub fn area(&self) -> f64 {
        self.disjoint_rects().iter().map(Rect::area).sum()
    }

    // ------------------------------------------------------------------
    // Coverage and difference (SBWQ)
    // ------------------------------------------------------------------

    /// `w` is entirely covered by the union (up to ε slivers). When this
    /// holds, an SBWQ window query is fully answerable from peer caches.
    pub fn covers_rect(&self, w: &Rect) -> bool {
        self.rect_difference(w).is_empty()
    }

    /// The uncovered parts `w \ union`, as disjoint rectangles — SBWQ's
    /// reduced query windows `w′`. Adjacent slabs with identical uncovered
    /// spans are coalesced so the output stays small.
    pub fn rect_difference(&self, w: &Rect) -> Vec<Rect> {
        if w.is_degenerate() {
            return Vec::new();
        }
        let mut xs: Vec<f64> = vec![w.x1, w.x2];
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
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() <= EPSILON);

        let full = IntervalSet::single(w.y1, w.y2);
        let mut out: Vec<Rect> = Vec::new();
        // Open rectangles being extended across slabs, keyed by y-run.
        let mut open: Vec<(f64, f64, usize)> = Vec::new(); // (ylo, yhi, index in out)
        for win in xs.windows(2) {
            let (xa, xb) = (win[0], win[1]);
            if xb - xa <= EPSILON {
                continue;
            }
            let covered = IntervalSet::from_intervals(
                self.rects
                    .iter()
                    .filter(|r| r.x1 <= xa + EPSILON && r.x2 >= xb - EPSILON)
                    .map(|r| (r.y1, r.y2)),
            );
            let uncovered = full.difference(&covered);
            let mut next_open = Vec::with_capacity(uncovered.runs().len());
            for &(lo, hi) in uncovered.runs() {
                // Extend an open rect with the same y-run, else start one.
                if let Some(&(plo, phi, idx)) = open
                    .iter()
                    .find(|&&(plo, phi, _)| (plo - lo).abs() <= EPSILON && (phi - hi).abs() <= EPSILON)
                {
                    out[idx].x2 = xb;
                    next_open.push((plo, phi, idx));
                } else {
                    out.push(Rect::from_coords(xa, lo, xb, hi));
                    next_open.push((lo, hi, out.len() - 1));
                }
            }
            open = next_open;
        }
        out
    }

    /// Intersection of the union with `w`, as disjoint rectangles.
    pub fn rect_intersection(&self, w: &Rect) -> Vec<Rect> {
        self.disjoint_rects()
            .into_iter()
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
    use crate::approx_eq;

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
        let tiles = u.disjoint_rects();
        let total: f64 = tiles.iter().map(Rect::area).sum();
        assert!(approx_eq(total, u.area()));
        for (i, a) in tiles.iter().enumerate() {
            for b in &tiles[i + 1..] {
                assert!(
                    !a.intersects_interior(b),
                    "tiles overlap: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn covers_rect_full_partial_none() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 2.0, 2.0), r(2.0, 0.0, 4.0, 2.0)]);
        assert!(u.covers_rect(&r(0.5, 0.5, 3.5, 1.5))); // spans the seam
        assert!(!u.covers_rect(&r(1.0, 1.0, 5.0, 1.5))); // hangs off the right
        assert!(!u.covers_rect(&r(10.0, 10.0, 11.0, 11.0)));
    }

    #[test]
    fn rect_difference_computes_reduced_windows() {
        let u = RectUnion::from(r(0.0, 0.0, 2.0, 2.0));
        let w = r(1.0, 1.0, 3.0, 3.0);
        let diff = u.rect_difference(&w);
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
        assert!(u.rect_difference(&r(1.0, 1.0, 2.0, 2.0)).is_empty());
    }

    #[test]
    fn rect_difference_is_whole_window_when_disjoint() {
        let u = RectUnion::from(r(0.0, 0.0, 1.0, 1.0));
        let w = r(5.0, 5.0, 6.0, 7.0);
        let diff = u.rect_difference(&w);
        assert_eq!(diff.len(), 1);
        assert!(approx_eq(diff[0].area(), w.area()));
    }

    #[test]
    fn rect_difference_coalesces_slabs() {
        // Union carves a notch out of the middle; left and right slabs of
        // the remainder share y-runs and should merge horizontally.
        let u = RectUnion::from(r(1.0, 0.0, 2.0, 1.0));
        let w = r(0.0, 0.0, 3.0, 2.0);
        let diff = u.rect_difference(&w);
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
        let d = u.distance_to_boundary_within(q, 10.0).unwrap();
        assert_eq!(d, u.distance_to_boundary(q).unwrap().0);
        assert!(approx_eq(d, 0.5), "d = {d}");
        assert_eq!(u.distance_to_boundary_within(q, 0.2), Some(0.2));
        assert_eq!(u.distance_to_boundary_within(q, 0.0), Some(0.0));
        // Outside the region the distance is still to the nearest edge.
        assert_eq!(
            u.distance_to_boundary_within(Point::new(6.0, 0.5), 9.0),
            Some(2.0)
        );
        assert_eq!(RectUnion::new().distance_to_boundary_within(q, 1.0), None);
    }

    #[test]
    fn line_runs_are_interval_set_symmetric_difference() {
        // Snapped coordinates make shared, nested and ε-close sides common.
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
                    let jitter = [0.0, EPSILON / 2.0, 0.25][next(3) as usize];
                    r(
                        x,
                        y,
                        x + 1.0 + next(4) as f64 + jitter,
                        y + 1.0 + next(4) as f64,
                    )
                })
                .collect();
            let u = RectUnion::from_rects(rects.iter().copied());
            let mut s = LineScratch::new(rects.len());
            for vertical in [true, false] {
                for c in u.lines(vertical) {
                    let side = |before: bool| {
                        IntervalSet::from_intervals(rects.iter().filter_map(|r| {
                            let (lo, hi, free) = if vertical {
                                (r.x1, r.x2, (r.y1, r.y2))
                            } else {
                                (r.y1, r.y2, (r.x1, r.x2))
                            };
                            let hit = if before {
                                lo + EPSILON < c && hi >= c - EPSILON
                            } else {
                                hi - EPSILON > c && lo <= c + EPSILON
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
    fn degenerate_rects_are_ignored() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 0.0, 5.0), r(1.0, 1.0, 2.0, 2.0)]);
        assert_eq!(u.rects().len(), 1);
    }
}
