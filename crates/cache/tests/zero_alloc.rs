//! The fleet-scale memory claim, measured: once a 10,000-host fleet of
//! caches (each one flat entry list and one handle buffer) is warm, a
//! full epoch of steady-state cache traffic — handle-native inserts
//! (with eviction closing its gap in the handle buffer), LRU touches,
//! and the per-epoch snapshot refresh — performs **zero**
//! heap allocations. A counting global allocator makes the claim
//! checkable instead of an audit comment.
//!
//! This is the cache-layer half of the streaming-epoch memory model
//! (DESIGN.md §15): the simulator's per-epoch costs are bounded by
//! buffers that reach their high-water marks during warm-up and are
//! reused forever after. The test lives in an integration test because
//! the library is `#![forbid(unsafe_code)]` and implementing
//! [`GlobalAlloc`] requires `unsafe`.

use airshare_broadcast::{Poi, PoiCategory, PoiId, PoiTable};
use airshare_cache::{CacheContext, HostCache, ReplacementPolicy};
use airshare_geom::{Point, Rect};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`], with every allocation counted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const HOSTS: usize = 10_000;
const CAT: PoiCategory = PoiCategory::GAS_STATION;
const CAPACITY: usize = 12;
/// Distinct regions a host rotates through; > capacity in POIs, so
/// every steady-state insert evicts and closes a gap in the handle buffer.
const VARIANTS: usize = 5;
const POIS_PER_REGION: u32 = 6;

/// A deterministic world of `VARIANTS` disjoint regions, each carrying
/// `POIS_PER_REGION` POIs.
fn world() -> (PoiTable, Vec<(Rect, Vec<PoiId>)>) {
    let mut pois = Vec::new();
    let mut regions = Vec::new();
    for v in 0..VARIANTS {
        let x0 = v as f64 * 10.0;
        let vr = Rect::from_coords(x0, 0.0, x0 + 8.0, 8.0);
        let ids: Vec<PoiId> = (0..POIS_PER_REGION)
            .map(|i| {
                let id = v as u32 * 100 + i;
                pois.push(Poi::new(
                    id,
                    Point::new(x0 + 1.0 + i as f64, 1.0 + i as f64),
                ));
                PoiId(id)
            })
            .collect();
        regions.push((vr, ids));
    }
    (PoiTable::from_pois(pois), regions)
}

/// One epoch of cache traffic for the whole fleet: every host inserts
/// its next region variant (forcing eviction once warm), touches an
/// area for LRU upkeep, then the epoch snapshot is refreshed in place.
fn run_epoch(
    epoch: usize,
    fleet: &mut [HostCache],
    snapshot: &mut [HostCache],
    table: &PoiTable,
    regions: &[(Rect, Vec<PoiId>)],
) -> usize {
    let now = epoch as f64;
    let mut stored = 0usize;
    for (h, cache) in fleet.iter_mut().enumerate() {
        let (vr, ids) = &regions[(h + epoch) % VARIANTS];
        let ctx = CacheContext {
            pos: Point::new((h % 50) as f64, (h % 8) as f64),
            heading: Some((1.0, 0.0)),
            now,
        };
        cache.insert_ids(table, CAT, *vr, ids, now, &ctx);
        cache.touch(CAT, vr, now + 0.5);
        stored += cache.region_count(CAT);
    }
    // The engine's per-epoch snapshot refresh: buffer-reusing clones.
    for (s, c) in snapshot.iter_mut().zip(fleet.iter()) {
        s.clone_from(c);
    }
    stored
}

#[test]
fn warm_fleet_epoch_does_not_allocate() {
    let (table, regions) = world();
    let mut fleet: Vec<HostCache> = (0..HOSTS)
        .map(|_| HostCache::new(CAPACITY, ReplacementPolicy::DirectionDistance))
        .collect();
    let mut snapshot: Vec<HostCache> = fleet.clone();

    // Warm-up: entry lists, handle buffers and snapshot buffers all
    // grow to their high-water marks. Several epochs so every host
    // cycles through all region variants (worst-case handle-buffer
    // occupancy).
    let mut expected = 0;
    for epoch in 0..2 * VARIANTS {
        expected = run_epoch(epoch, &mut fleet, &mut snapshot, &table, &regions);
    }
    assert!(expected > 0, "fleet cached nothing; test is vacuous");

    // Steady state: one more full epoch, zero allocations.
    let before = allocations();
    let got = run_epoch(2 * VARIANTS, &mut fleet, &mut snapshot, &table, &regions);
    let after = allocations();
    assert_eq!(got, expected, "steady state drifted");
    assert_eq!(
        after - before,
        0,
        "a warm {HOSTS}-host epoch allocated {} times",
        after - before
    );
}
