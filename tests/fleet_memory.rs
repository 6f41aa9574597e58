//! The fleet-scale memory budget, measured per host: a world at LA-City
//! densities stretched to 20,000 hosts, run for a few epochs through
//! `run_parallel`, must peak below 2,684 bytes of live heap per host.
//! Fleet state is columnar and arena-backed (DESIGN.md §15); a return
//! to owned per-host `Vec` storage blows through the budget.
//!
//! The test lives in a binary of its own because it installs a global
//! allocator, and implementing [`GlobalAlloc`] requires `unsafe`.

use airshare::prelude::*;
use airshare::sim::ParamSet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`], tracking live bytes and their high-water mark.
struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

const HOSTS: usize = 20_000;

/// 256 MiB at 100,000 hosts — four times what that fleet peaked at when
/// the budget was set — restated per host. Measured here: 603 B/host.
const BUDGET_BYTES_PER_HOST: usize = 2_684;

/// LA-City densities with the area grown to hold [`HOSTS`] hosts, under
/// a light query load: the budget is about fleet storage, not queries.
fn fleet_params() -> ParamSet {
    let base = params::la_city();
    let area = HOSTS as f64 / base.mh_density();
    ParamSet {
        poi_number: (base.poi_density() * area).round() as usize,
        mh_number: HOSTS,
        cache_size: 30,
        query_rate: 50.0,
        world_mi: area.sqrt(),
        ..base
    }
}

#[test]
fn peak_live_heap_per_host_stays_inside_the_fleet_budget() {
    let mut cfg = SimConfig::paper_defaults(fleet_params(), QueryKind::Knn, 42);
    cfg.warmup_min = 0.5;
    cfg.measure_min = 1.0;

    let before = LIVE.load(Ordering::Relaxed);
    let report = Simulation::try_new(cfg)
        .expect("valid config")
        .run_parallel(&ExecPool::fixed(4));
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert!(report.queries.total > 0, "nothing measured");
    let per_host = peak / HOSTS;
    assert!(
        per_host <= BUDGET_BYTES_PER_HOST,
        "peak live heap {per_host} B/host over the {BUDGET_BYTES_PER_HOST} B/host budget"
    );
}
