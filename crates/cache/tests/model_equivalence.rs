//! Arena/interning equivalence against the pre-refactor cache.
//!
//! The fleet-scale refactor moved cache entries into an [`EntryArena`]
//! (generational handles, shared POI pool, amortized in-place
//! compaction) and POI payloads into the canonical [`PoiTable`]. These
//! properties pin that the move is *invisible*: a reference
//! implementation of the pre-refactor cache — owned `Vec<Poi>` entries,
//! its own copy of the shrink/subsume/evict arithmetic on carried
//! positions — is driven with the identical operation sequence, and the
//! arena-backed [`HostCache`], fed the same regions as handles through
//! [`HostCache::insert_ids`], must match it entry for entry (regions,
//! timestamps, POI membership and order) at every step. A second
//! property drives the arena itself through insert/remove/compact/clone
//! churn against a shadow list and checks that every live handle
//! round-trips exactly and every dead handle stays dead.

use airshare_broadcast::{Poi, PoiCategory, PoiId, PoiTable};
use airshare_cache::{CacheContext, EntryArena, EntryId, HostCache, ReplacementPolicy};
use airshare_geom::{Point, Rect};
use proptest::prelude::*;

const CAT: PoiCategory = PoiCategory::GAS_STATION;

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
            pois: self.pois.iter().copied().filter(|p| vr.contains(p.pos)).collect(),
            ..*self
        }
    }
}

/// The cache as it was before the arena refactor: one owned entry per
/// region, no handles, no interning. Mirrors the production admission
/// and touch paths operation for operation (same shrink search, same
/// subsumption test, same `score_parts` eviction scan, same
/// `swap_remove`), so any divergence is the arena's or the handle
/// path's fault.
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
                    let score = self.policy.score_parts(
                        &e.vr,
                        e.last_used,
                        ctx.pos,
                        ctx.heading,
                        ctx.now,
                    );
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
    u8,                  // kind: 0 = touch, else insert
    f64,                 // cx
    f64,                 // cy
    f64,                 // half-extent
    Vec<(f64, f64)>,     // POI offsets inside the region (inserts)
    f64,                 // host x
    f64,                 // host y
    Option<(f64, f64)>,  // raw heading (normalized before use)
);

fn arb_op() -> impl Strategy<Value = OpTuple> {
    (
        0u8..5,
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
        .map(|(i, &(fx, fy))| {
            Poi::new(id0 + i as u32, Point::new(cx + fx * half, cy + fy * half))
        })
        .collect()
}

fn normalize(h: Option<(f64, f64)>) -> Option<(f64, f64)> {
    h.and_then(|(x, y)| {
        let n = x.hypot(y);
        (n > 1e-6).then(|| (x / n, y / n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The arena-backed cache equals the owned-storage reference at
    /// every step of an arbitrary insert/touch sequence: same regions
    /// in the same order, same timestamps, same POI membership in the
    /// same stored order. Eviction churn keeps the arena compacting
    /// (garbage crosses the half-pool threshold constantly at these
    /// capacities), so pool compaction is exercised under the
    /// equivalence check, not just in isolation.
    #[test]
    fn arena_cache_matches_prerefactor_reference(
        ops in prop::collection::vec(arb_op(), 1..50),
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
            |(i, (kind, cx, cy, half, offs, ..))| {
                if *kind == 0 {
                    Vec::new()
                } else {
                    pois_of(*cx, *cy, *half, offs, (i * 100) as u32)
                }
            },
        ));
        let mut cache = HostCache::new(capacity, policy).with_subsume_overlap(subsume);
        let mut reference = ReferenceCache::new(capacity, policy, subsume);

        for (i, (kind, cx, cy, half, offs, host_x, host_y, heading)) in
            ops.iter().enumerate()
        {
            let now = i as f64;
            if *kind == 0 {
                let area = Rect::centered_square(Point::new(*cx, *cy), *half);
                cache.touch(CAT, &area, now);
                reference.touch(&area, now);
            } else {
                let vr = Rect::centered_square(Point::new(*cx, *cy), *half);
                let pois = pois_of(*cx, *cy, *half, offs, (i * 100) as u32);
                let ctx = CacheContext {
                    pos: Point::new(*host_x, *host_y),
                    heading: normalize(*heading),
                    now,
                };
                let ids: Vec<PoiId> = pois.iter().map(Poi::handle).collect();
                cache.insert_ids(&table, CAT, vr, &ids, now, &ctx);
                reference.insert(
                    OwnedEntry {
                        vr,
                        pois,
                        last_used: now,
                    },
                    &ctx,
                );
            }

            // Entry-for-entry equality, in storage order, after every op.
            prop_assert_eq!(cache.region_count(CAT), reference.entries.len());
            for (got, want) in cache.entries(CAT).zip(&reference.entries) {
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
    }

    /// Arena handles round-trip exactly through arbitrary
    /// insert/remove/compact/clone churn: every live handle resolves to
    /// the values it was inserted with (compaction moves pool spans but
    /// must not change them), every removed handle stays dead even
    /// after its slot is reused, and `clone`/`clone_from` reproduce the
    /// arena handle-for-handle.
    #[test]
    fn arena_compaction_round_trips(
        steps in prop::collection::vec((0u8..10, 0usize..64, 0u32..16), 1..120),
    ) {
        let mut arena = EntryArena::new();
        let mut live: Vec<(EntryId, Rect, Vec<PoiId>, f64)> = Vec::new();
        let mut dead: Vec<EntryId> = Vec::new();
        let mut next_id = 0u32;

        for (i, &(kind, pick, n)) in steps.iter().enumerate() {
            match kind {
                // Remove a live entry (pool span becomes garbage).
                0 | 1 if !live.is_empty() => {
                    let (id, ..) = live.remove(pick % live.len());
                    prop_assert!(arena.remove(id));
                    dead.push(id);
                }
                // Explicit compaction on top of the automatic ones.
                2 => arena.compact(),
                // Clone round-trip: handles stay valid in the copy.
                3 => {
                    let copy = arena.clone();
                    for (id, vr, ids, used) in &live {
                        let v = copy.get(*id).expect("live handle lost by clone");
                        prop_assert_eq!(v.vr, *vr);
                        prop_assert_eq!(v.poi_ids, ids.as_slice());
                        prop_assert_eq!(v.last_used, *used);
                    }
                    // clone_from into a dirty destination too.
                    let mut dst = EntryArena::new();
                    dst.insert(Rect::from_coords(0.0, 0.0, 1.0, 1.0), 0.0, [PoiId(0)]);
                    dst.clone_from(&arena);
                    for (id, _, ids, ..) in &live {
                        prop_assert_eq!(
                            dst.get(*id).expect("clone_from lost handle").poi_ids,
                            ids.as_slice()
                        );
                    }
                }
                // Insert a fresh entry.
                _ => {
                    let t = i as f64;
                    let vr = Rect::from_coords(0.0, 0.0, 1.0 + t, 2.0 + t);
                    let ids: Vec<PoiId> = (next_id..next_id + n).map(PoiId).collect();
                    next_id += n;
                    let id = arena.insert(vr, t + 0.5, ids.iter().copied());
                    live.push((id, vr, ids, t + 0.5));
                }
            }

            prop_assert_eq!(arena.len(), live.len());
            prop_assert_eq!(
                arena.pool_live(),
                live.iter().map(|(_, _, ids, ..)| ids.len()).sum::<usize>()
            );
            for (id, vr, ids, used) in &live {
                let v = arena.get(*id).expect("live handle must resolve");
                prop_assert_eq!(v.vr, *vr);
                prop_assert_eq!(v.poi_ids, ids.as_slice());
                prop_assert_eq!(v.last_used, *used);
            }
            for id in &dead {
                prop_assert!(arena.get(*id).is_none(), "dead handle resurrected");
            }
        }
    }
}
