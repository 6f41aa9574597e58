//! The fleet-scale memory budget, measured per host: a world at LA-City
//! densities stretched to 20,000 hosts, run for a few epochs through
//! `run_parallel`, must peak below 290 bytes of live heap per host.
//! Fleet state is columnar and each cache is two flat buffers, there is
//! one cache column (DESIGN.md §15), and a host's mobility stream holds
//! only its own state (§16): a return to owned per-host `Vec` storage, a
//! second `HostCache` per host (72 B of inline struct), a per-host copy of
//! the shared `MobilityConfig` (64 B) or of the quarantine policy (24 B)
//! blows through the budget. And a barrier costs what its writers cost, not
//! what the population does: a fresh world's first `begin_epoch` must
//! not allocate per host.
//!
//! The test lives in a binary of its own because it installs a global
//! allocator, and implementing [`GlobalAlloc`] requires `unsafe`.

use airshare::prelude::*;
use airshare::sim::{LiveWorld, ParamSet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

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

/// `LIVE` and `PEAK` are process-wide and the harness runs this
/// binary's tests concurrently: one test allocates at a time. (A test
/// that failed holding the lock must not fail the other by poison.)
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const HOSTS: usize = 20_000;

/// Measured here: 270 B/host. A per-host copy of the quarantine policy
/// in every ledger adds 24 B (294), and one of the shared mobility
/// config as well 88 B (358); this budget is set to refuse both.
const BUDGET_BYTES_PER_HOST: usize = 290;

/// LA-City densities with the area grown to hold `hosts` hosts, under
/// a light query load: the budget is about fleet storage, not queries.
fn fleet_params(hosts: usize) -> ParamSet {
    let base = params::la_city();
    let area = hosts as f64 / base.mh_density();
    ParamSet {
        poi_number: (base.poi_density() * area).round() as usize,
        mh_number: hosts,
        cache_size: 30,
        query_rate: 50.0,
        world_mi: area.sqrt(),
        ..base
    }
}

#[test]
fn peak_live_heap_per_host_stays_inside_the_fleet_budget() {
    let _one_at_a_time = measuring();
    let mut cfg = SimConfig::paper_defaults(fleet_params(HOSTS), QueryKind::Knn, 42);
    cfg.warmup_min = 0.5;
    cfg.measure_min = 1.0;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = Simulation::try_new(cfg)
        .expect("valid config")
        .run_parallel(&ExecPool::fixed(4));
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert!(report.queries.total > 0, "nothing measured");
    let per_host = peak / HOSTS;
    assert!(
        per_host <= BUDGET_BYTES_PER_HOST,
        "peak live heap {per_host} B/host ({peak} B) over the {BUDGET_BYTES_PER_HOST} B/host budget"
    );
}

#[test]
fn the_first_barrier_allocates_nothing_per_host() {
    const IDLE_HOSTS: usize = 200_000;
    let _one_at_a_time = measuring();
    let cfg = SimConfig::paper_defaults(fleet_params(IDLE_HOSTS), QueryKind::Knn, 42);
    let mut world = LiveWorld::try_new(cfg).expect("valid config");

    let before = LIVE.load(Ordering::Relaxed);
    world.begin_epoch(0);
    let grown = LIVE.load(Ordering::Relaxed).saturating_sub(before);

    // A per-host copy of the cache column would be 13.7 MiB here.
    assert!(
        grown < 1 << 20,
        "begin_epoch(0) on {IDLE_HOSTS} idle hosts left {grown} more bytes live"
    );
}
