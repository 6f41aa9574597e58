//! The merged verified region and the peer data behind it.

use airshare_broadcast::{Poi, PoiId, PoiTable};
use airshare_geom::{Point, Rect, RectUnion, Segment};
use airshare_p2p::{PeerReply, ReplyArena};

/// Peer knowledge merged for one query: the region union
/// `MVR = p₁.VR ∪ … ∪ pⱼ.VR` plus the deduplicated POIs inside it.
///
/// By the cache invariant every POI located inside the MVR is present in
/// `pois` — the completeness that Lemma 3.1 and the §3.3.3 search bounds
/// rely on. Replies and cache entries carry [`PoiId`] handles, resolved
/// once against the canonical [`PoiTable`] (a peer's while its claims
/// were checked, the host's own here), so all the geometry below works
/// on materialized positions.
///
/// The default value is the empty region. A query's merged region is
/// refilled in place ([`MergedRegion::refill`]), so one value kept per
/// worker builds every query's MVR in reused buffers.
#[derive(Clone, Debug, Default)]
pub struct MergedRegion {
    region: RectUnion,
    /// Sorted by id, unique.
    pois: Vec<Poi>,
    /// One bit per [`PoiTable`] slot, marking the POIs a merge has
    /// seen; all clear between merges.
    seen: Vec<u64>,
}

impl MergedRegion {
    /// Merges peer replies (the `MapOverlay` step of Algorithm 1,
    /// specialized to MBRs), resolving POI handles through `table`.
    /// POIs are deduplicated by id; handles the table cannot resolve
    /// are dropped (sanitation upstream already rejects such regions).
    /// The owned form of [`MergedRegion::refill`], for replies kept as
    /// [`PeerReply`]s.
    pub fn from_replies(replies: &[PeerReply], table: &PoiTable) -> Self {
        let mut m = Self::default();
        let regions = replies.iter().flat_map(|r| &r.regions);
        m.merge(table, regions.map(|(vr, ids)| (*vr, ids.as_slice())), []);
        m
    }

    /// Rebuilds in place from the replies a share exchange left in its
    /// arena (the `MapOverlay` step of Algorithm 1, specialized to MBRs)
    /// followed by `own` handle regions — the querier's own cache. All
    /// handles are resolved through `table`; unresolvable ones are
    /// dropped. POIs are deduplicated by id. Reuses this value's buffers:
    /// allocation-free once they reach their high-water marks.
    pub fn refill<'a>(
        &mut self,
        replies: &ReplyArena,
        table: &PoiTable,
        own: impl IntoIterator<Item = (Rect, &'a [PoiId])>,
    ) {
        self.merge(table, replies.regions(), own);
    }

    /// Replaces the region with the rectangles of `peers`, then `own`,
    /// and the POIs with the table entries their handles name, each
    /// once, in id order: a handle marks its table slot in `seen`, and
    /// the POIs are read off the marked slots, which ascend with ids.
    fn merge<'p, 'o>(
        &mut self,
        table: &PoiTable,
        peers: impl IntoIterator<Item = (Rect, &'p [PoiId])>,
        own: impl IntoIterator<Item = (Rect, &'o [PoiId])>,
    ) {
        self.region.clear();
        self.pois.clear();
        let words = table.len().div_ceil(64);
        if self.seen.len() < words {
            self.seen.resize(words, 0);
        }
        // The marked words lie in `lo..hi`.
        let (mut lo, mut hi) = (words, 0);
        let mut mark = |vr: Rect, ids: &[PoiId]| {
            self.region.push(vr);
            for &id in ids {
                if let Some(slot) = table.slot(id) {
                    let w = slot / 64;
                    self.seen[w] |= 1 << (slot % 64);
                    lo = lo.min(w);
                    hi = hi.max(w + 1);
                }
            }
        };
        for (vr, ids) in peers {
            mark(vr, ids);
        }
        for (vr, ids) in own {
            mark(vr, ids);
        }
        let slots = table.as_slice();
        for w in lo..hi {
            let mut bits = std::mem::take(&mut self.seen[w]);
            while bits != 0 {
                self.pois
                    .push(slots[w * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
    }

    /// Builds directly from `(VR, POIs)` pairs (used in tests and by
    /// hosts merging their *own* cache with peer data).
    pub fn from_regions(regions: impl IntoIterator<Item = (Rect, Vec<Poi>)>) -> Self {
        let mut rects = Vec::new();
        let mut pois = Vec::new();
        for (vr, ps) in regions {
            rects.push(vr);
            pois.extend(ps);
        }
        pois.sort_by_key(|p: &Poi| p.id);
        pois.dedup_by_key(|p| p.id);
        Self {
            region: RectUnion::from_rects(rects),
            pois,
            seen: Vec::new(),
        }
    }

    /// The union geometry.
    pub fn region(&self) -> &RectUnion {
        &self.region
    }

    /// All known POIs, deduplicated, in id order.
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// No peer contributed any region.
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// `q` lies inside the MVR — the precondition of Lemma 3.1.
    pub fn contains(&self, q: Point) -> bool {
        self.region.contains(q)
    }

    /// Distance from `q` to the nearest MVR boundary edge `e_s`, with the
    /// edge itself. `None` when the MVR is empty.
    pub fn nearest_edge(&self, q: Point) -> Option<(f64, Segment)> {
        self.region.distance_to_boundary(q)
    }

    /// POIs within `rect`, by reference.
    pub fn pois_in_rect<'a>(&'a self, rect: &'a Rect) -> impl Iterator<Item = &'a Poi> + 'a {
        self.pois.iter().filter(move |p| rect.contains(p.pos))
    }

    /// Restricts the merged region to the rectangles intersecting the
    /// disk `D(q, radius)` and the POIs within `radius` of `q`, written
    /// into `into` (whose buffers are reused).
    ///
    /// This is *exact* for every question confined to the disk: for any
    /// ball `B(q, r)` with `r ≤ radius`, `B ⊆ full-union ⟺ B ⊆
    /// pruned-union` (any member rectangle covering part of `B`
    /// intersects the disk and is therefore kept). Hence the Lemma-3.1
    /// boundary distance (capped at `radius`), candidate verification,
    /// and Lemma-3.2 unverified areas for candidates within `radius` are
    /// unchanged — while the geometry shrinks from *all* peer regions to
    /// the handful near the query, which is what keeps NNV fast when
    /// peers carry dozens of cached regions each.
    pub(crate) fn prune_into(&self, q: Point, radius: f64, into: &mut MergedRegion) {
        into.region.clear();
        into.pois.clear();
        // An infinite radius keeps everything.
        let (all, r_sq) = (!radius.is_finite(), radius * radius);
        for r in self.region.rects() {
            if all || r.distance_sq_to_point(q) <= r_sq {
                into.region.push(*r);
            }
        }
        // Every POI lives inside some member rectangle; POIs within the
        // radius therefore lie in kept rectangles.
        (into.pois).extend(
            (self.pois.iter())
                .filter(|p| all || p.pos.distance_sq(q) <= r_sq)
                .copied(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshare_geom::RegionScratch;

    /// [`MergedRegion::prune_into`] a fresh region.
    fn pruned_to_disk(m: &MergedRegion, q: Point, radius: f64) -> MergedRegion {
        let mut into = MergedRegion::default();
        m.prune_into(q, radius, &mut into);
        into
    }

    fn reply(peer: usize, vr: Rect, ids: Vec<PoiId>) -> PeerReply {
        PeerReply {
            peer,
            regions: vec![(vr, ids)],
        }
    }

    #[test]
    fn merge_dedups_pois_across_peers() {
        let table = PoiTable::from_pois([
            Poi::new(1, Point::new(0.5, 0.5)),
            Poi::new(2, Point::new(0.2, 0.2)),
        ]);
        let a = reply(
            0,
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            vec![PoiId(1), PoiId(2)],
        );
        let b = reply(1, Rect::from_coords(0.0, 0.0, 2.0, 2.0), vec![PoiId(1)]);
        let m = MergedRegion::from_replies(&[a, b], &table);
        assert_eq!(m.pois().len(), 2);
        assert!(m.contains(Point::new(1.5, 1.5)));
        assert!(!m.contains(Point::new(3.0, 3.0)));
    }

    #[test]
    fn empty_when_no_replies() {
        let m = MergedRegion::from_replies(&[], &PoiTable::new());
        assert!(m.is_empty());
        assert_eq!(m.nearest_edge(Point::ORIGIN), None);
    }

    #[test]
    fn nearest_edge_across_merged_regions() {
        // Two abutting squares: from the seam, the nearest boundary is
        // the outer rim, not the (interior) shared edge.
        let a = reply(0, Rect::from_coords(0.0, 0.0, 1.0, 2.0), vec![]);
        let b = reply(1, Rect::from_coords(1.0, 0.0, 2.0, 2.0), vec![]);
        let m = MergedRegion::from_replies(&[a, b], &PoiTable::new());
        let (d, _) = m.nearest_edge(Point::new(1.0, 1.0)).unwrap();
        assert!((d - 1.0).abs() < 1e-9, "expected 1.0, got {d}");
    }

    #[test]
    fn boundary_distance_capped_is_exact_below_cap() {
        // L-shape; q deep in the wide arm: true boundary distance 0.5.
        let a = reply(0, Rect::from_coords(0.0, 0.0, 4.0, 1.0), vec![]);
        let b = reply(1, Rect::from_coords(0.0, 0.0, 1.0, 4.0), vec![]);
        let m = MergedRegion::from_replies(&[a, b], &PoiTable::new());
        let q = Point::new(2.0, 0.5);
        let d = m
            .region()
            .distance_to_boundary_within(q, 10.0, &mut RegionScratch::default())
            .unwrap();
        assert!((d - 0.5).abs() < 1e-9, "d = {d}");
        // Cap below the true distance: returns the cap (ball of that
        // radius is proven covered).
        assert_eq!(
            m.region()
                .distance_to_boundary_within(q, 0.2, &mut RegionScratch::default()),
            Some(0.2)
        );
        // The pruned region answers the same below the prune radius.
        let pruned = pruned_to_disk(&m, q, 0.75);
        assert_eq!(
            pruned
                .region()
                .distance_to_boundary_within(q, 0.75, &mut RegionScratch::default()),
            Some(d)
        );
    }

    #[test]
    fn boundary_distance_capped_agrees_with_full_sweep() {
        // Random-ish cluster; compare against the exhaustive boundary.
        let rects = [
            Rect::from_coords(0.0, 0.0, 3.0, 2.0),
            Rect::from_coords(2.0, 1.0, 5.0, 4.0),
            Rect::from_coords(1.0, 1.5, 2.5, 3.5),
        ];
        let m = MergedRegion::from_regions(rects.iter().map(|r| (*r, Vec::<Poi>::new())));
        let edges = m.region().boundary_edges();
        for q in [
            Point::new(1.0, 1.0),
            Point::new(2.5, 2.0),
            Point::new(4.0, 3.0),
            Point::new(2.2, 1.7),
        ] {
            let slow = edges
                .iter()
                .map(|e| e.distance_to_point(q))
                .fold(f64::INFINITY, f64::min);
            for cap in [0.1, 0.5, 100.0] {
                let fast = m
                    .region()
                    .distance_to_boundary_within(q, cap, &mut RegionScratch::default())
                    .unwrap();
                assert_eq!(fast, slow.min(cap), "{q:?} cap {cap}");
            }
        }
    }

    #[test]
    fn pruned_region_answers_match_full_within_radius() {
        let rects = [
            Rect::from_coords(0.0, 0.0, 2.0, 2.0),
            Rect::from_coords(1.5, 0.0, 4.0, 2.0),
            Rect::from_coords(20.0, 20.0, 22.0, 22.0), // far away
        ];
        let pois = [
            Poi::new(0, Point::new(1.0, 1.0)),
            Poi::new(1, Point::new(3.0, 1.0)),
            Poi::new(2, Point::new(21.0, 21.0)),
        ];
        let m = MergedRegion::from_regions(rects.iter().map(|r| {
            (
                *r,
                pois.iter().filter(|p| r.contains(p.pos)).copied().collect(),
            )
        }));
        let q = Point::new(1.2, 1.0);
        let pruned = pruned_to_disk(&m, q, 2.5);
        // The far rect and its POI are gone…
        assert_eq!(pruned.pois().len(), 2);
        assert_eq!(pruned.region().rects().len(), 2);
        // …but near-field geometry is identical.
        let (d_full, _) = m.nearest_edge(q).unwrap();
        let (d_pruned, _) = pruned.nearest_edge(q).unwrap();
        assert!((d_full - d_pruned).abs() < 1e-9);
        // Infinite radius is a no-op clone.
        let all = pruned_to_disk(&m, q, f64::INFINITY);
        assert_eq!(all.pois().len(), 3);
    }

    #[test]
    fn adoptable_region_is_inside_mvr() {
        // A peer-answered query adopts the square inscribed in its
        // verified ball, which NNV proved lies inside the MVR.
        let table = PoiTable::from_pois([
            Poi::new(1, Point::new(2.2, 2.0)),
            Poi::new(2, Point::new(2.0, 2.9)),
        ]);
        let a = reply(
            0,
            Rect::from_coords(0.0, 0.0, 4.0, 4.0),
            vec![PoiId(1), PoiId(2)],
        );
        let m = MergedRegion::from_replies(&[a], &table);
        let cfg = crate::SbnnConfig::paper_defaults(2, 0.1);
        let mut scratch = airshare_broadcast::QueryScratch::new();
        let rec = &mut airshare_obs::NoopRecorder;
        let res = crate::sbnn_rec(Point::new(2.0, 2.0), &cfg, &m, None, &mut scratch, rec)
            .resolved()
            .unwrap();
        assert_eq!(res.resolved_by, crate::ResolvedBy::PeersVerified);
        let (vr, pois) = res.adoptable.unwrap();
        assert!(
            m.region()
                .rect_difference(&vr, &mut RegionScratch::default())
                .is_empty(),
            "{vr:?} leaves the MVR"
        );
        assert!(vr.contains(Point::new(2.0, 2.0)));
        assert_eq!(pois.len(), m.pois_in_rect(&vr).count());
    }
}
