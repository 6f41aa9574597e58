//! One boundary-distance query allocates a fixed number of buffers,
//! however many member rectangles — and so cells — it cuts: the cut's
//! buffers are sized once per call. A count that grows with the union
//! means per-line or per-column allocation came back. And a warm
//! `RegionScratch` serves the distance, the tiling and the window
//! difference with no allocation at all.
//!
//! The test lives in a binary of its own because it installs a global
//! allocator, and implementing [`GlobalAlloc`] requires `unsafe`.

use airshare_geom::{Point, Rect, RectUnion, RegionScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`], counting the allocations made by the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn counted() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A 100×100 square with `n − 1` thin teeth standing 10 out of its top,
/// right of centre: every tooth side is a line nearer the centre than
/// the rim, with a boundary run where it leaves the square, so a query
/// from the centre sweeps all of them and each yields runs.
fn comb(n: usize) -> RectUnion {
    let mut u = RectUnion::from(Rect::from_coords(0.0, 0.0, 100.0, 100.0));
    for i in 1..n {
        let x = 50.0 + i as f64;
        u.push(Rect::from_coords(x, 0.0, x + 0.5, 110.0));
    }
    u
}

fn allocations_of_one_query(u: &RectUnion) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let (d, _) = u.distance_to_boundary(Point::new(50.0, 50.0)).unwrap();
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(d, 50.0);
    after - before
}

#[test]
fn boundary_distance_allocations_do_not_grow_with_the_union() {
    let (small, large) = (comb(4), comb(40));
    assert_eq!(large.rects().len(), 40);
    assert_eq!(
        allocations_of_one_query(&small),
        allocations_of_one_query(&large),
        "allocations per query grew with the member count"
    );
}

#[test]
fn a_warm_scratch_allocates_nothing() {
    let u = comb(40);
    let w = Rect::from_coords(25.0, 90.0, 75.0, 120.0);
    let mut scratch = RegionScratch::default();
    let round = |scratch: &mut RegionScratch| {
        let before = ALLOCATIONS.with(Cell::get);
        let d = u.distance_to_boundary_within(Point::new(50.0, 50.0), 80.0, scratch);
        let tiles = u.disjoint_rects(scratch).len();
        let pieces = u.rect_difference(&w, scratch).len();
        let after = ALLOCATIONS.with(Cell::get);
        assert_eq!((d, tiles, pieces), (Some(50.0), 79, 49));
        after - before
    };
    assert!(round(&mut scratch) > 0, "a fresh scratch sizes its buffers");
    assert_eq!(round(&mut scratch), 0, "a warm scratch allocated");
}
