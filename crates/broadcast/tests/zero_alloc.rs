//! Asserts the hot-path claim directly: once a [`QueryScratch`]'s
//! buffers are warm, the index-path query methods of both backends, and
//! a bound-filtered on-air retrieval whose vectors go back to the
//! scratch, perform **zero heap allocations**. A counting global allocator makes
//! the claim checkable instead of an audit comment.
//!
//! This lives in an integration test because the library itself is
//! `#![forbid(unsafe_code)]`; implementing [`GlobalAlloc`] requires
//! `unsafe`, and an integration test is its own crate.

use airshare_broadcast::{
    AirIndex, AirIndexBackend, BuildParams, OnAirClient, Poi, PoiTable, QueryScratch,
    RtreeAirIndex, Schedule,
};
use airshare_geom::{Point, Rect};
use airshare_obs::NoopRecorder;
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

/// A deterministic pseudo-random world, no RNG crate needed.
fn world_pois(n: u32, side: f64) -> Vec<Poi> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
            let x = (h & 0xFFFF) as f64 / 65536.0 * side;
            let y = ((h >> 16) & 0xFFFF) as f64 / 65536.0 * side;
            Poi::new(i, Point::new(x, y))
        })
        .collect()
}

/// The allocations one backend's second, warm pass over the query set
/// made.
fn warm_query_allocations<B: AirIndexBackend>() -> u64 {
    let side = 16.0;
    let world = Rect::from_coords(0.0, 0.0, side, side);
    let params = BuildParams {
        world,
        hilbert_order: 8,
        bucket_capacity: 8,
    };
    let pois = world_pois(500, side);
    let index = B::try_build(&PoiTable::from_pois(pois.clone()), &params).unwrap();
    let schedule = Schedule::try_new(index.data_buckets(), index.index_buckets(), 2).unwrap();
    let client = OnAirClient::new(&index, &schedule);

    let mut scratch = QueryScratch::new();
    let queries: Vec<(Point, Rect)> = (0..32)
        .map(|i| {
            let t = i as f64 / 32.0;
            let q = Point::new(0.3 + t * 14.0 * 0.97 % 14.0, 0.7 + t * 13.0 * 0.89 % 13.0);
            let w = Rect::from_coords(
                t * 10.0,
                (1.0 - t) * 9.0,
                t * 10.0 + 1.5 + t,
                (1.0 - t) * 9.0 + 2.0,
            );
            (q, w)
        })
        .collect();
    let window_pairs: Vec<[Rect; 2]> = queries
        .iter()
        .map(|&(q, w)| [w, Rect::centered_square(q, 1.0)])
        .collect();
    // Each kNN query's inner bound is half its search radius, and the
    // client knows every POI within it.
    let bounds: Vec<(f64, Vec<Poi>)> = queries
        .iter()
        .map(|&(q, _)| {
            let radius = index.knn_search_radius(q, 5).unwrap();
            let known = pois.iter().filter(|p| p.distance_to(q) <= radius * 0.5);
            (radius, known.copied().collect())
        })
        .collect();

    let run_all = |scratch: &mut QueryScratch| {
        let mut sink = 0usize;
        for ((&(q, w), pair), (radius, known)) in queries.iter().zip(&window_pairs).zip(&bounds) {
            index.buckets_for_window_scratch(&w, scratch);
            sink += scratch.buckets().len();
            index.buckets_for_knn_scratch(q, *radius, scratch);
            sink += scratch.buckets().len();
            let inner = Some(radius * 0.5);
            let res = client
                .knn_filtered_rec(0, q, 5, known, inner, None, scratch, &mut NoopRecorder)
                .unwrap();
            sink += scratch.buckets().len() + res.neighbors.len();
            scratch.recycle(res.neighbors);
            scratch.recycle(res.retrieved);
            index.buckets_for_windows_scratch(pair, scratch);
            sink += scratch.buckets().len();
        }
        sink
    };

    // Warm-up: the scratch buffers grow to their high-water marks here.
    let expected = run_all(&mut scratch);
    assert!(expected > 0, "queries found no buckets; test is vacuous");

    // Steady state: the exact same work, zero allocations.
    let before = allocations();
    let got = run_all(&mut scratch);
    let after = allocations();
    assert_eq!(got, expected);
    after - before
}

/// One test for both backends: the allocation counter is process-wide,
/// so a second test running beside this one would land in its window.
#[test]
fn warm_scratch_queries_do_not_allocate() {
    let curve = warm_query_allocations::<AirIndex>();
    let rtree = warm_query_allocations::<RtreeAirIndex>();
    assert_eq!(
        (curve, rtree),
        (0, 0),
        "warm index-path queries allocated (Hilbert, R-tree) times"
    );
}
