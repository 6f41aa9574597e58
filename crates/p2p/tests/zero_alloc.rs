//! The neighbor grid's memory claim, measured: a grid made by
//! `with_bounds` refreshes a fleet that stays inside those bounds —
//! from the first refresh on, directly indexed or past the cell cap —
//! without a single heap allocation. A counting global allocator makes
//! the claim checkable; it lives in an integration test because
//! implementing [`GlobalAlloc`] requires `unsafe`.

use airshare_geom::{Point, Rect};
use airshare_p2p::NeighborGrid;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`], with every allocation counted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
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

#[test]
fn refreshes_inside_the_declared_bounds_do_not_allocate() {
    const HOSTS: usize = 20_000;
    let world = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
    let mut state = 5u64;
    let mut unit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let epochs: Vec<Vec<Point>> = (0..4)
        .map(|_| {
            (0..HOSTS)
                .map(|_| Point::new(unit() * 10.0, unit() * 10.0))
                .collect()
        })
        .collect();
    let online: Vec<bool> = (0..HOSTS).map(|i| i % 9 != 0).collect();

    // 0.1: 10,000 cells, indexed directly. 0.001: 10^8 cells under
    // 20,000 hosts, indexed by sorted occupied keys.
    for cell in [0.1, 0.001] {
        let mut grid = NeighborGrid::with_bounds(&world, cell, HOSTS);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for positions in &epochs {
            grid.refresh_active(positions, &online);
        }
        let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            during, 0,
            "cell {cell}: {during} allocations in 4 refreshes"
        );
        // The refreshes did their work.
        assert!(!grid
            .neighbors_within(Point::new(5.0, 5.0), 0.5, None)
            .is_empty());
    }
}
