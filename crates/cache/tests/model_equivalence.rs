//! Flat-storage equivalence against the pre-refactor cache.
//!
//! Cache entries live in two flat buffers per host — one entry list
//! shared by every category, one buffer of POI handles — and POI
//! payloads live once in the canonical [`PoiTable`]. These properties
//! pin that the layout is *invisible*: a reference implementation of
//! the pre-refactor cache — one owned `Vec<Poi>`-entry list per
//! category, its own copy of the shrink/subsume/evict arithmetic on
//! carried positions — is driven with the identical operation sequence,
//! and [`HostCache`], fed the same regions as handles through
//! [`HostCache::insert_ids`], must match it entry for entry (regions,
//! timestamps, POI membership and order) in every category at every
//! step. The operations interleave three categories, so an eviction's
//! in-category `swap_remove` is checked with other categories' entries
//! sitting between the victim and its replacement. After every step a
//! `clone_from` into a dirty destination must reproduce the cache.
use airshare_broadcast::{Poi, PoiCategory, PoiId, PoiTable};
use airshare_cache::{CacheContext, HostCache, ReplacementPolicy};
use airshare_geom::{Point, Rect};
use proptest::prelude::*;

/// The categories the operations interleave.
const CATS: [PoiCategory; 3] = [PoiCategory(0), PoiCategory(1), PoiCategory(2)];

/// One owned cache entry of the reference: a region and exactly the
/// POIs inside it, payloads and all.
#[derive(Clone, Debug)]
struct OwnedEntry {
    vr: Rect,
    pois: Vec<Poi>,
    last_used: f64,
}

impl OwnedEntry {
    /// The containment half of the verified-region invariant, on the
    /// carried positions.
    fn is_consistent(&self) -> bool {
        let r = &self.vr;
        [r.x1, r.y1, r.x2, r.y2].iter().all(|v| v.is_finite())
            && r.x1 <= r.x2
            && r.y1 <= r.y2
            && self.pois.iter().all(|p| r.contains(p.pos))
    }

    /// The entry scaled toward `focus` (clamped into the region) until
    /// it carries at most `max_pois`, the POIs re-filtered to the
    /// smaller region. Written apart from the production shrink, on
    /// owned positions, so the two can disagree.
    fn shrink_to_fit(&self, focus: Point, max_pois: usize) -> OwnedEntry {
        if self.pois.len() <= max_pois {
            return self.clone();
        }
        let a = self.vr.clamp_point(focus);
        let scaled = |s: f64| {
            Rect::from_coords(
                a.x + (self.vr.x1 - a.x) * s,
                a.y + (self.vr.y1 - a.y) * s,
                a.x + (self.vr.x2 - a.x) * s,
                a.y + (self.vr.y2 - a.y) * s,
            )
        };
        let count = |r: Rect| self.pois.iter().filter(|p| r.contains(p.pos)).count();
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if count(scaled(mid)) <= max_pois {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let vr = scaled(lo);
        OwnedEntry {
            vr,
            pois: self
                .pois
                .iter()
                .copied()
                .filter(|p| vr.contains(p.pos))
                .collect(),
            ..*self
        }
    }
}

/// One category of the cache as it was before handles and flat storage:
/// one owned entry per region, no handles, no interning. Mirrors the
/// production admission and touch paths operation for operation (same
/// shrink search, same subsumption test, same `score_parts` eviction
/// scan, same `swap_remove`), so any divergence is the flat layout's or
/// the handle path's fault.
struct ReferenceCache {
    capacity: usize,
    subsume_overlap: f64,
    policy: ReplacementPolicy,
    entries: Vec<OwnedEntry>,
}

impl ReferenceCache {
    fn new(capacity: usize, policy: ReplacementPolicy, subsume_overlap: f64) -> Self {
        Self {
            capacity,
            subsume_overlap,
            policy,
            entries: Vec::new(),
        }
    }

    fn insert(&mut self, entry: OwnedEntry, ctx: &CacheContext) {
        if !entry.is_consistent() || self.capacity == 0 {
            return;
        }
        let entry = entry.shrink_to_fit(ctx.pos, self.capacity);
        let threshold = self.subsume_overlap;
        let new_vr = entry.vr;
        self.entries.retain(|e| {
            let subsumed = new_vr.contains_rect(&e.vr)
                || (threshold < 1.0
                    && e.vr.area() > 0.0
                    && new_vr
                        .intersection(&e.vr)
                        .is_some_and(|i| i.area() >= threshold * e.vr.area()));
            !subsumed
        });
        let budget = self.capacity.saturating_sub(entry.pois.len());
        while !self.entries.is_empty()
            && (self.entries.iter().map(|e| e.pois.len()).sum::<usize>() > budget
                || self.entries.len() + 1 > self.capacity)
        {
            let (worst, _) = self
                .entries
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    let score =
                        self.policy
                            .score_parts(&e.vr, e.last_used, ctx.pos, ctx.heading, ctx.now);
                    (i, score)
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            self.entries.swap_remove(worst);
        }
        self.entries.push(entry);
    }

    fn touch(&mut self, area: &Rect, now: f64) {
        for e in &mut self.entries {
            if e.vr.intersects(area) {
                e.last_used = now;
            }
        }
    }
}

/// One generated step: `kind` selects insert (most draws) vs touch;
/// the geometry fields are interpreted per kind.
type OpTuple = (
    (u8, usize),        // kind (0 = touch, else insert), index into `CATS`
    f64,                // cx
    f64,                // cy
    f64,                // half-extent
    Vec<(f64, f64)>,    // POI offsets inside the region (inserts)
    f64,                // host x
    f64,                // host y
    Option<(f64, f64)>, // raw heading (normalized before use)
);

fn arb_op() -> impl Strategy<Value = OpTuple> {
    (
        (0u8..5, 0..CATS.len()),
        0.0..20.0f64,
        0.0..20.0f64,
        0.2..3.0f64,
        prop::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 0..12),
        0.0..20.0f64,
        0.0..20.0f64,
        prop::option::of((-1.0..1.0f64, -1.0..1.0f64)),
    )
}

/// POIs of one insertion, with ids unique across the whole sequence so
/// the canonical table resolves each handle to its carried position.
fn pois_of(cx: f64, cy: f64, half: f64, offs: &[(f64, f64)], id0: u32) -> Vec<Poi> {
    offs.iter()
        .enumerate()
        .map(|(i, &(fx, fy))| Poi::new(id0 + i as u32, Point::new(cx + fx * half, cy + fy * half)))
        .collect()
}

fn normalize(h: Option<(f64, f64)>) -> Option<(f64, f64)> {
    h.and_then(|(x, y)| {
        let n = x.hypot(y);
        (n > 1e-6).then(|| (x / n, y / n))
    })
}

/// Every category's entries, in storage order, as owned values.
fn contents(cache: &HostCache) -> Vec<Vec<(Rect, f64, Vec<PoiId>)>> {
    (CATS.iter())
        .map(|&cat| {
            (cache.entries(cat))
                .map(|e| (e.vr, e.last_used, e.poi_ids.to_vec()))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The flat cache equals one owned-storage reference per category
    /// at every step of an arbitrary insert/touch sequence over three
    /// interleaved categories: same regions in the same order, same
    /// timestamps, same POI membership in the same stored order. Every
    /// eviction and subsumption closes a gap in the shared handle
    /// buffer, so span bookkeeping is exercised under the equivalence
    /// check. After each step, `clone_from` into a destination still
    /// holding an older state (and, before the first step, foreign
    /// entries and settings) must reproduce the cache exactly.
    #[test]
    fn arena_cache_matches_prerefactor_reference(
        ops in prop::collection::vec(arb_op(), 1..60),
        capacity in 1usize..25,
        policy_idx in 0usize..3,
        subsume_raw in 0.5..1.5f64,
    ) {
        let policy = [
            ReplacementPolicy::DirectionDistance,
            ReplacementPolicy::DistanceOnly,
            ReplacementPolicy::Lru,
        ][policy_idx];
        // Half the draws land on 1.0 (subsumption = strict containment
        // only), half on a fractional-overlap threshold.
        let subsume = if subsume_raw >= 1.0 { 1.0 } else { subsume_raw };
        let table = PoiTable::from_pois(ops.iter().enumerate().flat_map(
            |(i, ((kind, _), cx, cy, half, offs, ..))| {
                if *kind == 0 {
                    Vec::new()
                } else {
                    pois_of(*cx, *cy, *half, offs, (i * 100) as u32)
                }
            },
        ));
        let mut cache = HostCache::new(capacity, policy).with_subsume_overlap(subsume);
        let mut reference: Vec<ReferenceCache> = (0..CATS.len())
            .map(|_| ReferenceCache::new(capacity, policy, subsume))
            .collect();
        let mut copy = HostCache::new(capacity + 3, ReplacementPolicy::Lru);
        for (n, cat) in [(4, CATS[2]), (0, PoiCategory(9)), (2, CATS[0])] {
            let vr = Rect::from_coords(-5.0, -5.0, -4.0, -4.0);
            let ids: Vec<PoiId> = (0..n).map(PoiId).collect();
            copy.insert_unchecked(cat, vr, &ids, -1.0);
        }

        for (i, ((kind, ci), cx, cy, half, offs, host_x, host_y, heading)) in
            ops.iter().enumerate()
        {
            let now = i as f64;
            let (cat, reference_cat) = (CATS[*ci], &mut reference[*ci]);
            if *kind == 0 {
                let area = Rect::centered_square(Point::new(*cx, *cy), *half);
                cache.touch(cat, &area, now);
                reference_cat.touch(&area, now);
            } else {
                let vr = Rect::centered_square(Point::new(*cx, *cy), *half);
                let pois = pois_of(*cx, *cy, *half, offs, (i * 100) as u32);
                let ctx = CacheContext {
                    pos: Point::new(*host_x, *host_y),
                    heading: normalize(*heading),
                    now,
                };
                let ids: Vec<PoiId> = pois.iter().map(Poi::handle).collect();
                cache.insert_ids(&table, cat, vr, &ids, now, &ctx);
                reference_cat.insert(
                    OwnedEntry {
                        vr,
                        pois,
                        last_used: now,
                    },
                    &ctx,
                );
            }

            // Entry-for-entry equality, in storage order, in every
            // category, after every op.
            for (&cat, reference) in CATS.iter().zip(&reference) {
                prop_assert_eq!(cache.region_count(cat), reference.entries.len());
                prop_assert_eq!(
                    cache.poi_count(cat),
                    reference.entries.iter().map(|e| e.pois.len()).sum::<usize>()
                );
                for (got, want) in cache.entries(cat).zip(&reference.entries) {
                    prop_assert_eq!(got.vr, want.vr);
                    prop_assert_eq!(got.last_used, want.last_used);
                    let want_ids: Vec<PoiId> = want.pois.iter().map(Poi::handle).collect();
                    prop_assert_eq!(got.poi_ids, want_ids.as_slice());
                    // And interning round-trips: resolving the handles
                    // through the canonical table recovers the owned POIs.
                    for (&id, wp) in got.poi_ids.iter().zip(&want.pois) {
                        prop_assert_eq!(table.get(id), Some(wp));
                    }
                }
            }

            // A dirty destination becomes the cache, entries in order;
            // and the copy behaves as the cache: its next admission
            // follows the original's settings.
            copy.clone_from(&cache);
            prop_assert_eq!(contents(&copy), contents(&cache));
            prop_assert_eq!(copy.region_count(PoiCategory(9)), 0);
            prop_assert_eq!(copy.is_empty(), cache.is_empty());
        }
    }
}
