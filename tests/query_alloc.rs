//! What a warm query costs the heap, measured end to end: a counting
//! global allocator wraps `Simulation::run_parallel` on LA City at 5 %
//! of its area (4,665 hosts), seed 7, once with 30 and once with 60
//! measured minutes after the same 30-minute warm-up. The difference
//! between the two runs is what the extra 30 minutes — 9,319 warm queries
//! over 120 epochs — cost. Both simulations are still alive when their
//! counts are read, so teardown is not in them.
//!
//! Pinned, for kNN and window queries, with `NoopRecorder` and inert
//! faults:
//!
//! * **Nothing is freed.** One thread: zero deallocations in the extra
//!   30 minutes. No query, no epoch barrier, no fault-free path makes a
//!   transient allocation — the peer exchange writes into the scratch's
//!   reply arena, the merged region and NNV refill retained buffers,
//!   result vectors come from and go back to the scratch's pools, and the
//!   epoch loop keeps its batch, tasks and outcome lists. Two threads:
//!   exactly what spawning the extra worker frees, once per parallel
//!   dispatch (one per epoch: the query batch; the mobility advance of
//!   so small a fleet runs inline).
//! * **What is allocated is kept.** With nothing freed, every allocation
//!   left is a buffer growing to a new high-water mark: mostly per-host
//!   cache storage filling toward its capacity (a host here poses about
//!   four queries an hour, so caches are still filling at 90 minutes),
//!   plus the spare copies peers read. A vector allocated on every warm
//!   query would alone read 1.0 per query; measured here 0.89 (kNN) and
//!   0.90 (window).
//!
//! The chaos variant turns on reply drops, malformed replies, bucket
//! loss and a base-station outage inside the measured window: still
//! nothing is freed, and the only extra allocations are the quarantine
//! records that strikes book — at most one per strike.
//!
//! Allocations count `alloc` and `realloc` calls; frees count `dealloc`.
//! The counters are process-wide, so this binary holds one test: the
//! harness allocates whenever a test finishes, and would otherwise do so
//! inside another test's window. It lives in a binary of its own because
//! it installs a global allocator, and implementing [`GlobalAlloc`]
//! requires `unsafe`.

use airshare::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`], counting allocations (`alloc` + `realloc`) and frees.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap traffic between two moments.
#[derive(Clone, Copy, Debug)]
struct Heap {
    allocations: u64,
    frees: u64,
}

fn heap() -> Heap {
    Heap {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
    }
}

impl std::ops::Sub for Heap {
    type Output = Heap;
    fn sub(self, earlier: Heap) -> Heap {
        Heap {
            allocations: self.allocations - earlier.allocations,
            frees: self.frees - earlier.frees,
        }
    }
}

/// Epochs in the extra 30 minutes (epochs are 0.25 min).
const EXTRA_EPOCHS: u64 = 120;
/// Parallel dispatches per epoch on a 2-thread pool: the query batch
/// alone (the mobility advance of 4,665 hosts runs inline, under its
/// 32,768-host cut).
const DISPATCHES_PER_EPOCH: u64 = 1;

fn city(kind: QueryKind) -> SimConfig {
    let mut cfg = SimConfig::paper_defaults(params::la_city().scaled(0.05), kind, 7);
    cfg.warmup_min = 30.0;
    cfg
}

/// One run's heap traffic and report, read before the simulation drops.
fn run(cfg: &SimConfig, threads: usize, measure_min: f64) -> (Heap, SimReport) {
    let cfg = SimConfig {
        measure_min,
        ..cfg.clone()
    };
    let pool = ExecPool::fixed(threads);
    let mut sim = Simulation::try_new(cfg).expect("valid config");
    let before = heap();
    let report = sim.run_parallel(&pool);
    let traffic = heap() - before;
    drop(sim);
    (traffic, report)
}

/// The extra 30 minutes: heap traffic, warm queries, and the reports of
/// both runs (shorter first).
fn marginal(cfg: &SimConfig, threads: usize) -> (Heap, u64, SimReport, SimReport) {
    let (short_heap, short) = run(cfg, threads, 30.0);
    let (long_heap, long) = run(cfg, threads, 60.0);
    let queries = long.queries.total - short.queries.total;
    assert!(queries > 9_000, "{queries} warm queries");
    (long_heap - short_heap, queries, short, long)
}

/// What one 2-worker dispatch of the pool costs the heap: the scoped
/// spawn of its second worker.
fn spawn_cost() -> Heap {
    let pool = ExecPool::fixed(2);
    let mut tasks = [0u32; 4];
    let before = heap();
    pool.for_each_with(&mut [(), ()], tasks.iter_mut(), |(), _, t| *t += 1);
    heap() - before
}

#[test]
fn a_warm_query_frees_nothing_and_keeps_what_it_allocates() {
    let spawn = spawn_cost();
    assert!(spawn.frees > 0, "a spawn frees its bookkeeping");
    let dispatches = DISPATCHES_PER_EPOCH * EXTRA_EPOCHS;

    let mut inert = Vec::new();
    for kind in [QueryKind::Knn, QueryKind::Window] {
        let cfg = city(kind);
        let (one, queries, ..) = marginal(&cfg, 1);
        inert.push(one);
        let per_query = one.allocations as f64 / queries as f64;
        eprintln!(
            "{kind:?}, 1 thread: {one:?} over {queries} warm queries ({per_query:.3} per query)"
        );
        assert_eq!(one.frees, 0, "{kind:?}: a warm epoch freed memory");
        assert!(
            per_query < 1.0,
            "{kind:?}: {per_query:.3} allocations per warm query"
        );

        let (two, queries, ..) = marginal(&cfg, 2);
        eprintln!("{kind:?}, 2 threads: {two:?} over {queries} warm queries");
        assert_eq!(
            two.frees,
            dispatches * spawn.frees,
            "{kind:?}: 2 threads freed more than {dispatches} worker spawns"
        );
        let own = two.allocations - dispatches * spawn.allocations;
        assert!(
            (own as f64) < queries as f64,
            "{kind:?}: {own} allocations besides worker spawns over {queries} warm queries"
        );
    }

    // Chaos: every fault layer that can fire on a warm query, and an
    // outage over epochs 250..270 (minutes 62.5..67.5, inside the window).
    for (kind, inert) in [QueryKind::Knn, QueryKind::Window].into_iter().zip(inert) {
        let mut cfg = city(kind);
        cfg.faults.peer_drop_prob = 0.05;
        cfg.faults.peer_malform_prob = 0.1;
        cfg.faults.bucket_loss_prob = 0.05;
        cfg.faults.retry_budget = 2;
        cfg.outages = vec![(250, 270)];
        let (chaos, queries, short, long) = marginal(&cfg, 1);
        let strikes = long.faults.quarantine_strikes - short.faults.quarantine_strikes;
        let fired = [
            long.faults.replies_dropped - short.faults.replies_dropped,
            long.faults.retries_total - short.faults.retries_total,
            long.quality.stale - short.quality.stale,
            strikes,
        ];
        eprintln!("{kind:?}, chaos: {chaos:?} over {queries} warm queries; dropped, retries, stale, strikes {fired:?}");
        assert!(
            fired.iter().all(|&n| n > 0),
            "{kind:?}: a fault never fired: {fired:?}"
        );
        assert_eq!(chaos.frees, 0, "{kind:?}: a faulty warm epoch freed memory");
        assert!(
            chaos.allocations <= inert.allocations + strikes,
            "{kind:?}: {} allocations under chaos, {} inert, {strikes} strikes",
            chaos.allocations,
            inert.allocations
        );
    }
}
