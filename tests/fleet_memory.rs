//! The fleet-scale memory budget, measured per host: a world at LA-City
//! densities stretched to 20,000 hosts, run for a few epochs through
//! `run_parallel`, must peak below 172 bytes of live heap per host.
//! Fleet state is columnar, each cache is two flat buffers, and a host
//! holds a cache or a quarantine ledger only once it has one (DESIGN.md
//! §15); a host's mobility state is one 56 B leg and one 40 B stream
//! (RNG and clock, §16). The budget refuses an eager cache column coming
//! back (72 B of inline `HostCache` per host), an eager ledger column
//! (32 B), a second `HostCache` per host, a return to owned per-host
//! `Vec` storage, a per-host copy of the shared `MobilityConfig` (64 B)
//! and a return to the 104 B per-host mobility stream that the leg and
//! stream columns replaced. An idle world keeps no more per host than its scalar columns and cache slot, beside
//! its POIs and the grid's reservation. And a barrier costs what its
//! writers cost, not what the population does: a fresh world's first
//! `begin_epoch` must not allocate per host.
//!
//! The test lives in a binary of its own because it installs a global
//! allocator, and implementing [`GlobalAlloc`] requires `unsafe`.

use airshare::geom::meters_to_miles;
use airshare::prelude::*;
use airshare::sim::{LiveWorld, ParamSet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
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

/// Measured here: 167–168 B/host (172 while each host's mobility was one
/// 104 B stream and the grid kept no slot column; 270 with eager cache
/// and ledger columns as well). Either column back adds 72 B (~240) or
/// 32 B (~200) a host, and the 104 B stream 8 B (~176); this budget is
/// set to refuse all three.
const BUDGET_BYTES_PER_HOST: usize = 172;

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

/// Live bytes a freshly built world keeps.
fn world_bytes(cfg: SimConfig) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    let world = LiveWorld::try_new(cfg).expect("valid config");
    let kept = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    drop(world);
    kept
}

/// What a built world keeps per host before any host queries: the
/// online flag, position, sync minute, resync flag and cache slot.
const IDLE_COLUMN_BYTES: usize =
    2 * size_of::<bool>() + size_of::<Point>() + size_of::<f64>() + size_of::<u32>();

#[test]
fn an_idle_world_holds_no_cache_or_ledger_per_host() {
    const IDLE_HOSTS: usize = 200_000;
    let _one_at_a_time = measuring();
    let cfg = SimConfig::paper_defaults(fleet_params(IDLE_HOSTS), QueryKind::Knn, 42);
    let idle = world_bytes(cfg.clone());
    // The same POIs, index and oracle with one host: what the world
    // keeps besides its hosts.
    let mut lone = cfg.clone();
    lone.params.mh_number = 1;
    let shared = world_bytes(lone);
    // The neighbor grid's buffers, reserved for the whole fleet.
    let side = cfg.params.world_mi;
    let before = LIVE.load(Ordering::Relaxed);
    let grid = NeighborGrid::with_bounds(
        &Rect::from_coords(0.0, 0.0, side, side),
        meters_to_miles(cfg.params.tx_range_m),
        IDLE_HOSTS,
    );
    let reserved = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    drop(grid);

    // Measured here: 28.9 B/host (the lone world's grid reserves some
    // of the big one's cells). An eager cache column would add 72 B a
    // host, an eager ledger column 32 B; the 8 B of slack refuses both.
    let per_host = idle.saturating_sub(shared + reserved) as f64 / IDLE_HOSTS as f64;
    assert!(
        per_host <= (IDLE_COLUMN_BYTES + 8) as f64,
        "an idle world keeps {per_host:.1} B/host besides its POIs and grid \
         ({idle} B in all), over {IDLE_COLUMN_BYTES} B of columns and 8 B of slack"
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
