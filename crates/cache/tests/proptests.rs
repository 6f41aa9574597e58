//! Property tests for the host cache: the capacity and soundness
//! invariants must survive arbitrary insertion sequences under every
//! replacement policy.

use airshare_broadcast::{Poi, PoiCategory, PoiId, PoiTable};
use airshare_cache::{CacheContext, HostCache, ReplacementPolicy};
use airshare_geom::{Point, Rect};
use proptest::prelude::*;

const CAT: PoiCategory = PoiCategory::GAS_STATION;

#[derive(Clone, Debug)]
struct Insertion {
    cx: f64,
    cy: f64,
    half: f64,
    pois: Vec<(f64, f64)>, // offsets inside the region
    host_x: f64,
    host_y: f64,
    heading: Option<(f64, f64)>,
}

fn arb_insertion() -> impl Strategy<Value = Insertion> {
    (
        0.0..20.0f64,
        0.0..20.0f64,
        0.2..3.0f64,
        prop::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 0..12),
        0.0..20.0f64,
        0.0..20.0f64,
        prop::option::of((-1.0..1.0f64, -1.0..1.0f64)),
    )
        .prop_map(|(cx, cy, half, pois, host_x, host_y, heading)| Insertion {
            cx,
            cy,
            half,
            pois,
            host_x,
            host_y,
            heading: heading.and_then(|(x, y)| {
                let n = x.hypot(y);
                (n > 1e-6).then(|| (x / n, y / n))
            }),
        })
}

fn pois_of(ins: &Insertion, id0: u32) -> Vec<Poi> {
    ins.pois
        .iter()
        .enumerate()
        .map(|(i, &(fx, fy))| {
            Poi::new(
                id0 + i as u32,
                Point::new(ins.cx + fx * ins.half, ins.cy + fy * ins.half),
            )
        })
        .collect()
}

fn table_for(inserts: &[Insertion]) -> PoiTable {
    PoiTable::from_pois(
        inserts
            .iter()
            .enumerate()
            .flat_map(|(i, ins)| pois_of(ins, (i * 100) as u32)),
    )
}

fn apply(cache: &mut HostCache, table: &PoiTable, ins: &Insertion, id0: u32, now: f64) {
    let vr = Rect::centered_square(Point::new(ins.cx, ins.cy), ins.half);
    let ids: Vec<PoiId> = pois_of(ins, id0).iter().map(Poi::handle).collect();
    cache.insert_ids(
        table,
        CAT,
        vr,
        &ids,
        now,
        &CacheContext {
            pos: Point::new(ins.host_x, ins.host_y),
            heading: ins.heading,
            now,
        },
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn capacity_and_region_bounds_always_hold(
        inserts in prop::collection::vec(arb_insertion(), 1..40),
        capacity in 0usize..30,
        policy_idx in 0usize..3,
    ) {
        let policy = [
            ReplacementPolicy::DirectionDistance,
            ReplacementPolicy::DistanceOnly,
            ReplacementPolicy::Lru,
        ][policy_idx];
        let mut cache = HostCache::new(capacity, policy);
        let table = table_for(&inserts);
        for (i, ins) in inserts.iter().enumerate() {
            apply(&mut cache, &table, ins, (i * 100) as u32, i as f64);
            prop_assert!(cache.poi_count(CAT) <= capacity);
            // The region bound is the POI capacity.
            prop_assert!(cache.region_count(CAT) <= capacity);
            // Entry-local soundness: every cached POI is inside its region.
            for e in cache.entries(CAT) {
                prop_assert!(e.is_consistent(&table));
            }
        }
    }

    #[test]
    fn newest_entry_always_survives_its_own_insert(
        inserts in prop::collection::vec(arb_insertion(), 1..20),
        capacity in 1usize..20,
    ) {
        let mut cache = HostCache::new(capacity, ReplacementPolicy::default());
        let table = table_for(&inserts);
        for (i, ins) in inserts.iter().enumerate() {
            apply(&mut cache, &table, ins, (i * 100) as u32, i as f64);
            // The just-inserted region (possibly shrunk) must be present:
            // it answered the query in flight.
            let host = Point::new(ins.host_x, ins.host_y);
            let orig = Rect::centered_square(Point::new(ins.cx, ins.cy), ins.half);
            let grown = Rect::centered_square(Point::new(ins.cx, ins.cy), ins.half + 1e-9);
            let found = cache
                .entries(CAT)
                .any(|e| grown.contains_rect(&e.vr)
                    && (e.vr.contains(orig.clamp_point(host))));
            prop_assert!(found, "fresh entry evicted at step {i}");
        }
    }

    #[test]
    fn subsumption_never_loses_reachable_pois(
        a in arb_insertion(),
        capacity in 10usize..40,
    ) {
        // Insert an entry, then a strictly larger one centred the same:
        // the union of cached POI ids must cover everything the larger
        // region carried.
        let mut cache = HostCache::new(capacity, ReplacementPolicy::default());
        let mut big = a.clone();
        big.half *= 2.0;
        let table = PoiTable::from_pois(pois_of(&a, 0).into_iter().chain(pois_of(&big, 1000)));
        apply(&mut cache, &table, &a, 0, 0.0);
        apply(&mut cache, &table, &big, 1000, 1.0);
        // The small region was subsumed: only one region remains (the
        // big one), carrying its own POIs.
        prop_assert_eq!(cache.region_count(CAT), 1);
        let kept = cache.entries(CAT).next().unwrap();
        prop_assert!(kept.len() <= capacity);
    }

    #[test]
    fn share_snapshot_reflects_contents(
        inserts in prop::collection::vec(arb_insertion(), 1..10),
        capacity in 1usize..30,
    ) {
        let mut cache = HostCache::new(capacity, ReplacementPolicy::default());
        let table = table_for(&inserts);
        for (i, ins) in inserts.iter().enumerate() {
            apply(&mut cache, &table, ins, (i * 100) as u32, i as f64);
        }
        // What a peer receives, resolved against its own table.
        let snap: Vec<(Rect, Vec<Poi>)> = cache
            .share_regions(CAT)
            .map(|(vr, ids)| (vr, ids.iter().filter_map(|&id| table.get(id).copied()).collect()))
            .collect();
        prop_assert_eq!(snap.len(), cache.region_count(CAT));
        let snap_pois: usize = snap.iter().map(|(_, p)| p.len()).sum();
        prop_assert_eq!(snap_pois, cache.poi_count(CAT));
        for (vr, pois) in &snap {
            for p in pois {
                prop_assert!(vr.contains(p.pos));
            }
        }
    }
}
