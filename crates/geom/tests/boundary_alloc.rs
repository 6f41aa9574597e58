//! One boundary-distance query allocates a fixed number of buffers,
//! however many member rectangles — and so candidate lines — it sweeps:
//! the per-line work runs in buffers sized once per call. A count that
//! grows with the union means per-line allocation came back.
//!
//! The test lives in a binary of its own because it installs a global
//! allocator, and implementing [`GlobalAlloc`] requires `unsafe`.

use airshare_geom::{Point, Rect, RectUnion};
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
