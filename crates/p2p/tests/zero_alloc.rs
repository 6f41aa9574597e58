//! The neighbor grid's memory claim, measured: a grid made by
//! `with_bounds` refreshes a fleet that stays inside those bounds —
//! from the first refresh on, directly indexed or past the cell cap —
//! without a single heap allocation, and a marked refresh allocates
//! nothing once warm — a fleet this size is binned on the caller even
//! when a multi-thread pool is offered. A counting global allocator makes
//! the claim checkable; it lives in an integration test because
//! implementing [`GlobalAlloc`] requires `unsafe`.

use airshare_exec::ExecPool;
use airshare_geom::{Point, Rect};
use airshare_p2p::NeighborGrid;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`], with every allocation counted on the thread making it.
struct CountingAlloc;

thread_local! {
    /// This thread's allocations so far. Per thread, because the
    /// harness runs tests concurrently and allocates on its own thread
    /// whenever one finishes: a process-wide count would charge that to
    /// whichever test was measuring.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: a thread's exit may allocate after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
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
        let before = allocations();
        for positions in &epochs {
            grid.refresh_active(positions, &online);
        }
        let during = allocations() - before;
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

#[test]
fn warm_marked_refreshes_do_not_allocate() {
    const HOSTS: usize = 20_000;
    let world = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
    let mut state = 9u64;
    let mut unit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut scatter = |n: usize| -> Vec<Point> {
        (0..n)
            .map(|_| Point::new(unit() * 10.0, unit() * 10.0))
            .collect()
    };
    // Each epoch: the fleet, and a few hundred queriers among it.
    let epochs: Vec<(Vec<Point>, Vec<Point>)> =
        (0..4).map(|_| (scatter(HOSTS), scatter(300))).collect();
    let online: Vec<bool> = (0..HOSTS).map(|i| i % 9 != 0).collect();
    let pool = ExecPool::fixed(2);

    // 0.1: marks inside a directly indexed box. 0.001: marks spanning
    // too many cells, so every refresh falls back to the full rebuild.
    for cell in [0.1, 0.001] {
        let mut grid = NeighborGrid::with_bounds(&world, cell, HOSTS);
        // The first round sizes the marks; the second must reuse them.
        for round in 0..2 {
            let before = allocations();
            for (positions, centers) in &epochs {
                grid.refresh_near(positions, &online, centers, 2, &pool);
            }
            let during = allocations() - before;
            assert!(
                round == 0 || during == 0,
                "cell {cell}: {during} allocations in 4 warm marked refreshes"
            );
        }
        // The refreshes did their work.
        let (_, centers) = &epochs[3];
        let range = cell.max(0.05);
        assert!(centers
            .iter()
            .any(|&c| !grid.neighbors_within(c, range, None).is_empty()));
    }
}
