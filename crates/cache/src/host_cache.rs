//! The per-host cache.
//!
//! A host's cache is two flat buffers: an entry list holding one
//! verified region per entry, every category's entries side by side,
//! and a buffer of the 4-byte [`PoiId`] handles those entries' spans
//! point into. POI *payloads* live once in the workspace-wide
//! [`PoiTable`]. A region comes in one way, [`HostCache::insert_ids`],
//! as `(region, POI handles)` checked against the table; it goes out as
//! handles ([`HostCache::entries`], [`HostCache::share_regions`]), which
//! a reader resolves with [`PoiTable::get`]. A peer reading a reply
//! follows three pointers: the cache, its entry list, its handle buffer.
//!
//! A removal closes its gap in the handle buffer at once. A category
//! holds at most its capacity in handles, so the shift is short, and a
//! warm cache neither allocates nor keeps dead handles.

use crate::ReplacementPolicy;
use airshare_broadcast::{PoiCategory, PoiId, PoiTable};
use airshare_geom::{Point, Rect};
use std::ops::Range;

/// What [`HostCache::insert_ids`] did with the offered region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The entry (possibly shrunk to capacity) is now cached.
    Stored,
    /// The entry violated the containment invariant and was refused.
    RejectedInconsistent,
    /// The cache has zero capacity for this category.
    RejectedNoCapacity,
}

/// Host state a replacement decision depends on.
#[derive(Clone, Copy, Debug)]
pub struct CacheContext {
    /// The host's current position.
    pub pos: Point,
    /// Unit heading, `None` while paused.
    pub heading: Option<(f64, f64)>,
    /// Simulation time (minutes).
    pub now: f64,
}

/// A borrowed view of one cache entry: the verified region, its
/// last-use time, and the POI membership as handles into the canonical
/// [`PoiTable`].
#[derive(Clone, Copy, Debug)]
pub struct EntryView<'a> {
    /// The verified region.
    pub vr: Rect,
    /// Last time this entry served a query (for LRU).
    pub last_used: f64,
    /// Handles of the POIs inside `vr`, in stored order.
    pub poi_ids: &'a [PoiId],
}

impl<'a> EntryView<'a> {
    /// Number of POIs carried.
    pub fn len(&self) -> usize {
        self.poi_ids.len()
    }

    /// The entry carries no POIs.
    pub fn is_empty(&self) -> bool {
        self.poi_ids.is_empty()
    }

    /// Whether the entry honors the containment invariant *against the
    /// canonical table*: well-formed finite region, every handle
    /// resolvable, every resolved position inside the region.
    pub fn is_consistent(&self, table: &PoiTable) -> bool {
        let r = &self.vr;
        r.x1.is_finite()
            && r.y1.is_finite()
            && r.x2.is_finite()
            && r.y2.is_finite()
            && r.x1 <= r.x2
            && r.y1 <= r.y2
            && self
                .poi_ids
                .iter()
                .all(|&id| table.get(id).is_some_and(|p| r.contains(p.pos)))
    }
}

/// One stored verified region: its POI membership is the
/// `[start, start + len)` span of the cache's handle buffer.
#[derive(Clone, Copy, Debug)]
struct Entry {
    cat: PoiCategory,
    vr: Rect,
    last_used: f64,
    start: u32,
    len: u32,
}

impl Entry {
    fn span(&self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A mobile host's query-result cache.
///
/// Storage is organized per POI category ("data type"); the capacity
/// (`CSize` of Table 4) bounds the number of *POIs* cached per category.
/// Entries are whole verified regions and are evicted whole, so the
/// verified-region invariant can never be broken by partial eviction.
#[derive(Debug)]
pub struct HostCache {
    /// The per-category bound on cached POIs, and on cached regions.
    capacity_per_category: usize,
    /// Fraction of an existing region that must be covered by an
    /// incoming region for the old entry to be dropped as redundant.
    /// 1.0 = only full containment (strict subsumption).
    subsume_overlap: f64,
    policy: ReplacementPolicy,
    /// Every category's entries in one list. A category's storage order
    /// is its entries' order here: an insert appends, subsumption keeps
    /// the order of the rest, and eviction moves the category's last
    /// entry into the victim's place.
    entries: Vec<Entry>,
    /// The entries' POI handles, one contiguous span per entry.
    ids: Vec<PoiId>,
}

// The peer loop reads one of these per peer out of the fleet's cache
// column; a regrowth should fail the build, not only the memory budget.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<HostCache>() <= 72);

impl Clone for HostCache {
    /// A cache that never held an entry has no buffers, and its clone
    /// allocates nothing: a fleet hands such clones of one template to
    /// hosts that have no cache of their own yet.
    fn clone(&self) -> Self {
        Self {
            capacity_per_category: self.capacity_per_category,
            subsume_overlap: self.subsume_overlap,
            policy: self.policy,
            entries: self.entries.clone(),
            ids: self.ids.clone(),
        }
    }

    /// Buffer-reusing clone. Its one caller is `LiveWorld::take_cache`
    /// in `airshare-sim`, copying a writer's epoch-start state into a
    /// retired buffer for its peers: a warm buffer allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.capacity_per_category = source.capacity_per_category;
        self.subsume_overlap = source.subsume_overlap;
        self.policy = source.policy;
        self.entries.clone_from(&source.entries);
        self.ids.clone_from(&source.ids);
    }
}

impl HostCache {
    /// Creates a cache with the given per-category POI capacity. The
    /// number of cached *regions* per category is also bounded (by the
    /// same figure): verified regions that happen to contain zero POIs
    /// are useful knowledge but must not accumulate without limit.
    pub fn new(capacity_per_category: usize, policy: ReplacementPolicy) -> Self {
        Self {
            capacity_per_category,
            subsume_overlap: 1.0,
            policy,
            entries: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Enables *anti-fragmentation* subsumption: an existing entry is
    /// dropped when the incoming region covers at least `fraction` of its
    /// area (always sound — dropping an entry only forgets knowledge).
    /// Hosts that query the same neighborhood repeatedly otherwise
    /// accumulate stacks of near-identical regions that bloat share
    /// replies without adding coverage.
    pub fn with_subsume_overlap(mut self, fraction: f64) -> Self {
        self.subsume_overlap = fraction.clamp(0.0, 1.0);
        self
    }

    /// The entries of one category, in storage order.
    fn of(&self, category: PoiCategory) -> impl Iterator<Item = &Entry> + '_ {
        self.entries.iter().filter(move |e| e.cat == category)
    }

    /// Whether the cache holds no region at all: it never stored one,
    /// or was cleared since.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cached POI count for a category.
    pub fn poi_count(&self, category: PoiCategory) -> usize {
        self.of(category).map(|e| e.len as usize).sum()
    }

    /// Number of verified regions cached for a category.
    pub fn region_count(&self, category: PoiCategory) -> usize {
        self.of(category).count()
    }

    /// Views of the verified regions cached for a category, in storage
    /// order.
    pub fn entries(&self, category: PoiCategory) -> impl Iterator<Item = EntryView<'_>> + '_ {
        self.of(category).map(|e| EntryView {
            vr: e.vr,
            last_used: e.last_used,
            poi_ids: &self.ids[e.span()],
        })
    }

    /// The share reply a peer receives on request: every verified region
    /// with the handles of its POIs (the paper's `⟨p.VR, p.O⟩`, with
    /// `p.O` as [`PoiId`]s to be resolved against the receiver's own
    /// [`PoiTable`]).
    pub fn share_regions(
        &self,
        category: PoiCategory,
    ) -> impl Iterator<Item = (Rect, &[PoiId])> + '_ {
        self.entries(category).map(|v| (v.vr, v.poi_ids))
    }

    /// Inserts a verified region for `category`, given as `(vr, POI
    /// handles)` and checked against the canonical `table`, evicting per
    /// policy until the capacity holds. A region carrying more POIs than
    /// the whole capacity is shrunk around the host position first.
    ///
    /// Entries whose region is contained in the new region are dropped
    /// (subsumed: their POIs are a subset by the completeness
    /// invariant).
    ///
    /// A region that violates the containment invariant — malformed, or
    /// claiming a POI the table does not know or places outside it — is
    /// rejected: a cache holding it would certify wrong answers and
    /// poison every peer it shares with. The outcome reports which path
    /// was taken; a caller that traces turns a refusal into its reject
    /// event.
    ///
    /// Allocation-free once the cache is warm — this is the path the
    /// zero-steady-state-allocation guarantee is measured on.
    pub fn insert_ids(
        &mut self,
        table: &PoiTable,
        category: PoiCategory,
        vr: Rect,
        ids: &[PoiId],
        now: f64,
        ctx: &CacheContext,
    ) -> InsertOutcome {
        let offered = EntryView {
            vr,
            last_used: now,
            poi_ids: ids,
        };
        if !offered.is_consistent(table) {
            return InsertOutcome::RejectedInconsistent;
        }
        if self.capacity_per_category == 0 {
            return InsertOutcome::RejectedNoCapacity;
        }
        let count_in = |r: &Rect| {
            ids.iter()
                .filter(|&&id| table.get(id).is_some_and(|p| r.contains(p.pos)))
                .count()
        };
        let (vr, len) = if ids.len() > self.capacity_per_category {
            let r = shrink_around(vr, ctx.pos, |r| count_in(r) <= self.capacity_per_category);
            (r, count_in(&r))
        } else {
            (vr, ids.len())
        };
        self.make_room(category, &vr, len, ctx);
        self.push(
            category,
            vr,
            now,
            ids.iter()
                .copied()
                .filter(|&id| table.get(id).is_some_and(|p| vr.contains(p.pos))),
        );
        InsertOutcome::Stored
    }

    /// Appends an entry, its handles at the end of the handle buffer.
    fn push(
        &mut self,
        cat: PoiCategory,
        vr: Rect,
        last_used: f64,
        ids: impl IntoIterator<Item = PoiId>,
    ) {
        let start = self.ids.len();
        self.ids.extend(ids);
        self.entries.push(Entry {
            cat,
            vr,
            last_used,
            start: start as u32,
            len: (self.ids.len() - start) as u32,
        });
    }

    /// Removes the entry at `i`, keeping the others in order, and closes
    /// its gap in the handle buffer.
    fn remove(&mut self, i: usize) {
        let gone = self.entries.remove(i);
        self.ids.drain(gone.span());
        for e in &mut self.entries {
            if e.start > gone.start {
                e.start -= gone.len;
            }
        }
    }

    /// Drops subsumed entries, then evicts worst-scored entries until an
    /// incoming entry of `len` POIs fits both budgets. The incoming entry
    /// itself is never a victim: it answers the query in flight.
    fn make_room(&mut self, category: PoiCategory, new_vr: &Rect, len: usize, ctx: &CacheContext) {
        let threshold = self.subsume_overlap;
        let subsumed = |evr: &Rect| {
            new_vr.contains_rect(evr)
                || (threshold < 1.0
                    && evr.area() > 0.0
                    && new_vr
                        .intersection(evr)
                        .is_some_and(|i| i.area() >= threshold * evr.area()))
        };
        let mut i = 0;
        while i < self.entries.len() {
            let e = &self.entries[i];
            if e.cat == category && subsumed(&e.vr) {
                self.remove(i);
            } else {
                i += 1;
            }
        }
        let budget = self.capacity_per_category.saturating_sub(len);
        loop {
            let (regions, pois) =
                (self.of(category)).fold((0, 0), |(r, p), e| (r + 1, p + e.len as usize));
            if regions == 0 || (pois <= budget && regions < self.capacity_per_category) {
                return;
            }
            // `max_by` keeps the last of equal scores, in storage order.
            let (worst, _) = (self.entries.iter().enumerate())
                .filter(|(_, e)| e.cat == category)
                .map(|(i, e)| {
                    let score =
                        self.policy
                            .score_parts(&e.vr, e.last_used, ctx.pos, ctx.heading, ctx.now);
                    (i, score)
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty category");
            // A `swap_remove` within the category: its last entry takes
            // the victim's place, whatever other categories sit between.
            let last = (self.entries.iter())
                .rposition(|e| e.cat == category)
                .expect("non-empty category");
            self.entries.swap(worst, last);
            self.remove(last);
        }
    }

    /// Inserts a region *without* consistency validation, capacity
    /// enforcement, or subsumption. Exists so fault-injection tests can
    /// model a buggy or byzantine peer whose cache holds an invariant-
    /// violating entry; production code paths must use
    /// [`Self::insert_ids`].
    ///
    /// Only *claims* (region and POI ids) are stored: positions resolve
    /// through the canonical table, so a byzantine entry can claim the
    /// wrong POIs for a region but cannot forge POI coordinates.
    pub fn insert_unchecked(&mut self, category: PoiCategory, vr: Rect, ids: &[PoiId], now: f64) {
        self.push(category, vr, now, ids.iter().copied());
    }

    /// Marks entries intersecting `area` as used at `now` (LRU upkeep).
    pub fn touch(&mut self, category: PoiCategory, area: &Rect, now: f64) {
        for e in &mut self.entries {
            if e.cat == category && e.vr.intersects(area) {
                e.last_used = now;
            }
        }
    }

    /// Drops everything (e.g. on simulation reset).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.ids.clear();
    }
}

/// Shrinks `vr` toward `focus` (clamped into it first) by the largest
/// scale in `[0, 1]` that `fits`, found by a 40-step binary search: the
/// POI count inside the scaled region is monotone in the scale. The
/// result is a subset of `vr`, so soundness holds once the POI set is
/// re-filtered to it.
fn shrink_around(vr: Rect, focus: Point, fits: impl Fn(&Rect) -> bool) -> Rect {
    let anchor = vr.clamp_point(focus);
    let scaled = |s: f64| {
        Rect::from_coords(
            anchor.x + (vr.x1 - anchor.x) * s,
            anchor.y + (vr.y1 - anchor.y) * s,
            anchor.x + (vr.x2 - anchor.x) * s,
            anchor.y + (vr.y2 - anchor.y) * s,
        )
    };
    let mut lo = 0.0_f64;
    let mut hi = 1.0_f64;
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if fits(&scaled(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    scaled(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshare_broadcast::Poi;

    const CAT: PoiCategory = PoiCategory::GAS_STATION;

    fn ctx(x: f64, y: f64) -> CacheContext {
        CacheContext {
            pos: Point::new(x, y),
            heading: Some((1.0, 0.0)),
            now: 0.0,
        }
    }

    /// A square of half-side 1 at `(cx, cy)` with `n` POIs along its
    /// horizontal midline, ids from `id0`.
    fn entry(cx: f64, cy: f64, n: u32, id0: u32) -> (Rect, Vec<Poi>) {
        let vr = Rect::centered_square(Point::new(cx, cy), 1.0);
        let pois = (0..n)
            .map(|i| {
                Poi::new(
                    id0 + i,
                    Point::new(cx - 0.5 + i as f64 * 0.9 / n.max(1) as f64, cy),
                )
            })
            .collect();
        (vr, pois)
    }

    /// Offers a region through the one admission path, checked against a
    /// table of exactly its POIs, at `ctx.now`.
    fn offer(
        c: &mut HostCache,
        category: PoiCategory,
        (vr, pois): (Rect, Vec<Poi>),
        ctx: &CacheContext,
    ) -> InsertOutcome {
        let table = PoiTable::from_pois(pois.iter().copied());
        let ids: Vec<PoiId> = pois.iter().map(Poi::handle).collect();
        c.insert_ids(&table, category, vr, &ids, ctx.now, ctx)
    }

    /// The single region a `capacity`-POI cache keeps of `(vr, pois)`
    /// offered from `focus`, with its POI handles.
    fn stored_after_offer(
        capacity: usize,
        vr: Rect,
        pois: &[Poi],
        focus: Point,
    ) -> (Rect, Vec<PoiId>) {
        let mut c = HostCache::new(capacity, ReplacementPolicy::default());
        let mut at = ctx(focus.x, focus.y);
        at.heading = None;
        assert_eq!(
            offer(&mut c, CAT, (vr, pois.to_vec()), &at),
            InsertOutcome::Stored
        );
        assert_eq!(c.region_count(CAT), 1);
        let (r, ids) = c.share_regions(CAT).next().unwrap();
        (r, ids.to_vec())
    }

    fn covers(c: &HostCache, x: f64, y: f64) -> bool {
        c.entries(CAT).any(|e| e.vr.contains(Point::new(x, y)))
    }

    #[test]
    fn insert_within_capacity_keeps_everything() {
        let mut c = HostCache::new(10, ReplacementPolicy::default());
        offer(&mut c, CAT, entry(0.0, 0.0, 4, 0), &ctx(0.0, 0.0));
        offer(&mut c, CAT, entry(5.0, 0.0, 4, 10), &ctx(0.0, 0.0));
        assert_eq!(c.poi_count(CAT), 8);
        assert_eq!(c.region_count(CAT), 2);
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut c = HostCache::new(6, ReplacementPolicy::DistanceOnly);
        offer(&mut c, CAT, entry(0.0, 0.0, 4, 0), &ctx(0.0, 0.0));
        offer(&mut c, CAT, entry(10.0, 0.0, 4, 10), &ctx(0.0, 0.0));
        assert!(c.poi_count(CAT) <= 6);
        // The far region was evicted? No: the far region was just
        // inserted (protected); the near one got evicted instead.
        assert_eq!(c.region_count(CAT), 1);
        assert!(covers(&c, 10.0, 0.0));
    }

    #[test]
    fn direction_policy_evicts_region_behind() {
        let mut c = HostCache::new(8, ReplacementPolicy::DirectionDistance);
        // Host at origin heading east.
        offer(&mut c, CAT, entry(5.0, 0.0, 4, 0), &ctx(0.0, 0.0)); // ahead
        offer(&mut c, CAT, entry(-5.0, 0.0, 4, 10), &ctx(0.0, 0.0)); // behind
                                                                     // Third insert forces eviction of one old entry.
        offer(&mut c, CAT, entry(0.0, 3.0, 4, 20), &ctx(0.0, 0.0));
        assert!(c.poi_count(CAT) <= 8);
        assert!(covers(&c, 5.0, 0.0) && !covers(&c, -5.0, 0.0));
    }

    #[test]
    fn oversized_entry_is_shrunk_not_rejected() {
        let mut c = HostCache::new(5, ReplacementPolicy::default());
        offer(&mut c, CAT, entry(0.0, 0.0, 20, 0), &ctx(0.0, 0.0));
        assert!(c.poi_count(CAT) <= 5);
        assert_eq!(c.region_count(CAT), 1);
        // The shrunk region still covers the host's position (clamped).
        assert!(covers(&c, 0.0, 0.0));
    }

    #[test]
    fn shrink_keeps_nearest_and_stays_inside() {
        let vr = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let pois: Vec<Poi> = (0..100)
            .map(|i| Poi::new(i, Point::new((i % 10) as f64 + 0.5, (i / 10) as f64 + 0.5)))
            .collect();
        let focus = Point::new(5.0, 5.0);
        let (shrunk, ids) = stored_after_offer(10, vr, &pois, focus);
        assert!(ids.len() <= 10);
        assert!(vr.contains_rect(&shrunk), "shrunk region escaped");
        assert!(shrunk.contains(focus));
        // The stored POIs are exactly the offered ones inside the shrunk
        // region, in offered order.
        let inside: Vec<PoiId> = (pois.iter())
            .filter(|p| shrunk.contains(p.pos))
            .map(Poi::handle)
            .collect();
        assert_eq!(ids, inside);
    }

    #[test]
    fn shrink_noop_when_fitting() {
        let vr = Rect::from_coords(0.0, 0.0, 4.0, 4.0);
        let poi = Poi::new(0, Point::new(1.0, 1.0));
        let (kept, ids) = stored_after_offer(5, vr, &[poi], Point::new(2.0, 2.0));
        assert_eq!(kept, vr);
        assert_eq!(ids, [poi.handle()]);
    }

    #[test]
    fn shrink_with_focus_outside_region_clamps() {
        let vr = Rect::from_coords(0.0, 0.0, 10.0, 1.0);
        let pois: Vec<Poi> = (0..20)
            .map(|i| Poi::new(i, Point::new(i as f64 * 0.5 + 0.1, 0.5)))
            .collect();
        let (kept, ids) = stored_after_offer(4, vr, &pois, Point::new(50.0, 0.5));
        assert!(ids.len() <= 4);
        assert!(vr.contains_rect(&kept));
        // The kept POIs are the ones nearest the clamped anchor (right edge).
        assert!(ids.iter().all(|id| pois[id.index()].pos.x > 7.0), "{ids:?}");
    }

    #[test]
    fn empty_region_is_stored() {
        // Knowing an area holds no POI is useful knowledge.
        let vr = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let mut c = HostCache::new(4, ReplacementPolicy::default());
        let mut at = ctx(0.5, 0.5);
        at.now = 3.0;
        assert_eq!(
            offer(&mut c, CAT, (vr, Vec::new()), &at),
            InsertOutcome::Stored
        );
        let e = c.entries(CAT).next().unwrap();
        assert!(e.is_empty());
        assert_eq!((e.vr, e.last_used), (vr, 3.0));
    }

    #[test]
    fn subsumed_regions_are_dropped() {
        let mut c = HostCache::new(20, ReplacementPolicy::default());
        let small = (
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            vec![Poi::new(0, Point::new(0.5, 0.5))],
        );
        let big = (
            Rect::from_coords(-1.0, -1.0, 2.0, 2.0),
            vec![
                Poi::new(0, Point::new(0.5, 0.5)),
                Poi::new(1, Point::new(1.5, 1.5)),
            ],
        );
        offer(&mut c, CAT, small, &ctx(0.0, 0.0));
        offer(&mut c, CAT, big, &ctx(0.0, 0.0));
        assert_eq!(c.region_count(CAT), 1);
        assert_eq!(c.poi_count(CAT), 2);
    }

    #[test]
    fn categories_are_isolated() {
        let mut c = HostCache::new(4, ReplacementPolicy::default());
        offer(
            &mut c,
            PoiCategory(0),
            entry(0.0, 0.0, 4, 0),
            &ctx(0.0, 0.0),
        );
        offer(
            &mut c,
            PoiCategory(1),
            entry(5.0, 5.0, 4, 10),
            &ctx(0.0, 0.0),
        );
        assert_eq!(c.poi_count(PoiCategory(0)), 4);
        assert_eq!(c.poi_count(PoiCategory(1)), 4);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = HostCache::new(0, ReplacementPolicy::default());
        let out = offer(&mut c, CAT, entry(0.0, 0.0, 3, 0), &ctx(0.0, 0.0));
        assert_eq!(out, InsertOutcome::RejectedNoCapacity);
        assert_eq!(c.poi_count(CAT), 0);
        assert_eq!(c.share_regions(CAT).count(), 0);
    }

    #[test]
    fn inconsistent_entries_are_rejected() {
        let table = PoiTable::from_pois([
            Poi::new(0, Point::new(5.0, 5.0)),
            Poi::new(1, Point::new(0.5, 0.5)),
        ]);
        let unit = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let mut c = HostCache::new(10, ReplacementPolicy::default());
        let mut offer_ids =
            |vr: Rect, ids: &[PoiId]| c.insert_ids(&table, CAT, vr, ids, 0.0, &ctx(0.0, 0.0));
        // A POI the table places outside the claimed region, and a
        // handle the table never interned.
        for ids in [[PoiId(0)], [PoiId(7)]] {
            assert_eq!(offer_ids(unit, &ids), InsertOutcome::RejectedInconsistent);
        }
        // Malformed (NaN) region: same fate.
        let nan = Rect {
            x1: f64::NAN,
            y1: 0.0,
            x2: 1.0,
            y2: 1.0,
        };
        assert_eq!(offer_ids(nan, &[]), InsertOutcome::RejectedInconsistent);
        // A proper region still stores fine.
        assert_eq!(offer_ids(unit, &[PoiId(1)]), InsertOutcome::Stored);
        assert_eq!(c.region_count(CAT), 1);
    }

    #[test]
    fn snapshot_matches_contents() {
        let (vr, pois) = entry(2.0, 2.0, 3, 0);
        let table = PoiTable::from_pois(pois.iter().copied());
        let mut c = HostCache::new(10, ReplacementPolicy::default());
        offer(&mut c, CAT, (vr, pois), &ctx(2.0, 2.0));
        let shared: Vec<(Rect, &[PoiId])> = c.share_regions(CAT).collect();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].0, vr);
        assert_eq!(shared[0].1.len(), 3);
        for &id in shared[0].1 {
            assert!(shared[0].0.contains(table.get(id).expect("interned").pos));
        }
        // The entry view carries the same membership.
        assert_eq!(c.entries(CAT).next().unwrap().poi_ids, shared[0].1);
    }

    #[test]
    fn shared_handles_resolve_to_what_was_stored() {
        let pois = [
            Poi::new(0, Point::new(0.25, 0.25)),
            Poi::new(1, Point::new(0.75, 0.75)),
        ];
        let table = PoiTable::from_pois(pois);
        let mut c = HostCache::new(10, ReplacementPolicy::default());
        let mut at = ctx(0.5, 0.5);
        at.heading = None;
        let vr = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        offer(&mut c, CAT, (vr, pois.to_vec()), &at);
        assert_eq!(c.region_count(CAT), 1);
        assert_eq!(c.poi_count(CAT), 2);
        // Resolving the shared handles through the table recovers
        // exactly the offered POIs, in order.
        let (shared_vr, ids) = c.share_regions(CAT).next().unwrap();
        assert_eq!(shared_vr, vr);
        let resolved: Vec<Poi> = (ids.iter())
            .map(|&id| *table.get(id).expect("interned"))
            .collect();
        assert_eq!(resolved, pois.to_vec());
    }

    #[test]
    fn insert_ids_matches_insert_on_same_data() {
        // On consistent data that fits, the checked admission stores
        // exactly what the unchecked insert stores.
        let pois: Vec<Poi> = (0..12)
            .map(|i| Poi::new(i, Point::new(i as f64 * 0.1, 0.5)))
            .collect();
        let table = PoiTable::from_pois(pois.iter().copied());
        let ids: Vec<PoiId> = pois.iter().map(Poi::handle).collect();
        let vr = Rect::from_coords(0.0, 0.0, 1.2, 1.0);

        let mut a = HostCache::new(12, ReplacementPolicy::default());
        a.insert_unchecked(CAT, vr, &ids, 3.0);
        let mut b = HostCache::new(12, ReplacementPolicy::default());
        let out = b.insert_ids(&table, CAT, vr, &ids, 3.0, &ctx(0.6, 0.5));
        assert_eq!(out, InsertOutcome::Stored);

        assert_eq!(a.region_count(CAT), b.region_count(CAT));
        let va = a.entries(CAT).next().unwrap();
        let vb = b.entries(CAT).next().unwrap();
        assert_eq!(va.vr, vb.vr);
        assert_eq!(va.poi_ids, vb.poi_ids);
        assert_eq!(va.last_used, vb.last_used);
    }

    #[test]
    fn view_consistency_checks_against_table() {
        let table = PoiTable::from_pois([Poi::new(0, Point::new(0.5, 0.5))]);
        let view = |vr: Rect, poi_ids: &[PoiId]| {
            EntryView {
                vr,
                last_used: 0.0,
                poi_ids,
            }
            .is_consistent(&table)
        };
        let unit = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert!(view(unit, &[PoiId(0)]));
        assert!(!view(unit, &[PoiId(7)]), "unresolvable handle");
        let quarter = Rect::from_coords(0.0, 0.0, 0.25, 0.25);
        assert!(!view(quarter, &[PoiId(0)]), "POI outside the region");
        let nan = Rect {
            x1: 0.0,
            y1: 0.0,
            x2: f64::NAN,
            y2: 1.0,
        };
        assert!(!view(nan, &[]), "malformed region");
    }

    #[test]
    fn steady_state_churn_does_not_grow_pool_unboundedly() {
        // 1,000 disjoint 10-POI regions through an 80-POI cache: every
        // insert past the eighth evicts, and removals close their gaps,
        // so both buffers stay within one doubling of the live set.
        let at = |i: u32| Point::new((i / 10) as f64 * 3.0 + 0.05 * (i % 10) as f64, 0.0);
        let pois: Vec<Poi> = (0..10_000).map(|i| Poi::new(i, at(i))).collect();
        let table = PoiTable::from_pois(pois.iter().copied());
        let mut c = HostCache::new(80, ReplacementPolicy::DistanceOnly);
        for round in 0..1000u32 {
            let x = round as f64 * 3.0;
            let vr = Rect::from_coords(x - 0.5, -0.5, x + 1.0, 0.5);
            let ids: Vec<PoiId> = (round * 10..round * 10 + 10).map(PoiId).collect();
            let out = c.insert_ids(&table, CAT, vr, &ids, round as f64, &ctx(x, 0.0));
            assert_eq!(out, InsertOutcome::Stored);
        }
        assert_eq!((c.region_count(CAT), c.poi_count(CAT)), (8, 80));
        let grown = (c.entries.capacity(), c.ids.capacity());
        assert!(grown.0 <= 16 && grown.1 <= 160, "buffers grew to {grown:?}");
        // Every surviving span still names its own region's POIs.
        for e in c.entries(CAT) {
            assert!(e.is_consistent(&table) && e.len() == 10);
        }
    }

    #[test]
    fn lru_touch_protects_hot_entries() {
        let mut c = HostCache::new(8, ReplacementPolicy::Lru);
        offer(&mut c, CAT, entry(0.0, 0.0, 4, 0), &ctx(0.0, 0.0));
        offer(&mut c, CAT, entry(10.0, 10.0, 4, 10), &ctx(0.0, 0.0));
        // Touch the first region, then overflow: second should go.
        let hot = Rect::centered_square(Point::new(0.0, 0.0), 0.5);
        c.touch(CAT, &hot, 5.0);
        let mut ctx2 = ctx(0.0, 0.0);
        ctx2.now = 6.0;
        offer(&mut c, CAT, entry(20.0, 20.0, 4, 20), &ctx2);
        assert!(
            covers(&c, 0.0, 0.0),
            "recently touched entry evicted under LRU"
        );
    }
}
