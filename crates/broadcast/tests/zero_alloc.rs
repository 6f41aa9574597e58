//! Asserts the hot-path claim directly: once a [`QueryScratch`]'s
//! buffers are warm, the index-path query methods perform **zero heap
//! allocations**. A counting global allocator makes the claim checkable
//! instead of an audit comment.
//!
//! This lives in an integration test because the library itself is
//! `#![forbid(unsafe_code)]`; implementing [`GlobalAlloc`] requires
//! `unsafe`, and an integration test is its own crate.

use airshare_broadcast::{AirIndex, AirIndexBackend, Poi, QueryScratch};
use airshare_geom::{Point, Rect};
use airshare_hilbert::Grid;
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

#[test]
fn warm_scratch_queries_do_not_allocate() {
    let side = 16.0;
    let world = Rect::from_coords(0.0, 0.0, side, side);
    let grid = Grid::new(world, 8);
    let index = AirIndex::try_build(world_pois(500, side), grid, 8).unwrap();

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

    let run_all = |scratch: &mut QueryScratch| {
        let mut sink = 0usize;
        for (&(q, w), pair) in queries.iter().zip(&window_pairs) {
            index.buckets_for_window_scratch(&w, scratch);
            sink += scratch.buckets().len();
            let radius = index.knn_search_radius(q, 5).unwrap();
            index.buckets_for_knn_scratch(q, radius, scratch);
            sink += scratch.buckets().len();
            index.buckets_for_knn_filtered_scratch(q, radius, Some(radius * 0.5), scratch);
            sink += scratch.buckets().len();
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
    assert_eq!(
        after - before,
        0,
        "warm index-path queries allocated {} times",
        after - before
    );
}
