//! The service's wake protocol (DESIGN.md §14): the scheduler thread
//! parks when it has nothing to do and every client call that can make
//! it runnable unparks it. These tests pin the two ways that can go
//! wrong — a scheduler that polls, and a wake-up that is lost — plus the
//! one sleep the scheduler times by itself (the admission-budget refill)
//! and the thread's lifetime when nobody calls `drain`.

use airshare_geom::Point;
use airshare_serve::{QueryRequest, QueryTag, ServeConfig, ServeError, Service};
use airshare_sim::{params, QueryKind, QuerySpec, SimConfig};
use std::time::{Duration, Instant};

const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

fn small_world(seed: u64) -> SimConfig {
    let mut p = params::la_city().scaled(0.005);
    p.cache_size = 30;
    let mut cfg = SimConfig::paper_defaults(p, QueryKind::Knn, seed);
    cfg.warmup_min = 0.0;
    cfg.hilbert_order = 6;
    cfg
}

fn knn_at(host: usize, tag: Option<QueryTag>) -> QueryRequest {
    QueryRequest {
        host,
        pos: Point::new(0.5 + host as f64 * 0.01, 0.5),
        heading: None,
        spec: QuerySpec::Knn { k: 3 },
        tag,
    }
}

#[test]
fn dropped_service_answers_and_stops() {
    // No fence and no drain: before `Drop` joined the scheduler, this
    // thread outlived the service; parked, it would now sleep forever.
    let service = Service::start(ServeConfig::lockstep(small_world(5))).unwrap();
    let handle = service.handle();
    handle.register(0, None).unwrap();
    let tag = QueryTag {
        nonce: 0,
        at_min: 0.1,
        epoch: 0,
    };
    let rx = handle.submit(knn_at(0, Some(tag))).unwrap();
    drop(service);
    let answer = rx
        .recv_timeout(REPLY_TIMEOUT)
        .expect("drop flushes admitted queries");
    assert_eq!(answer.nonce, 0);
    assert_eq!(
        handle.submit(knn_at(0, Some(tag))).err(),
        Some(ServeError::Stopped)
    );
}

#[test]
fn idle_scaled_service_does_not_poll() {
    // 0.25 simulated minutes per 20 ms of wall time.
    const EPOCH: Duration = Duration::from_millis(20);
    let t = Instant::now();
    let service = Service::start(ServeConfig::scaled(small_world(6), 750.0)).unwrap();
    std::thread::sleep(10 * EPOCH);
    let report = service.drain();
    let epochs = t.elapsed().as_secs_f64() / EPOCH.as_secs_f64();
    // One pass per boundary plus the drain's; a 200 µs nap made ~1,000.
    assert!(
        report.scheduler_passes as f64 <= 3.0 * epochs.ceil(),
        "{} passes over {epochs:.1} idle epochs",
        report.scheduler_passes
    );
    // Barriers kept committing without a client to prompt them.
    assert!(report.scheduler_passes >= 5, "{}", report.scheduler_passes);
}

#[test]
fn no_wakeup_is_lost_under_concurrent_round_trips() {
    const CLIENTS: usize = 4;
    const ROUND_TRIPS: usize = 2_000;
    let mut sc = ServeConfig::scaled(small_world(7), 750.0);
    sc.queue_capacity = 8;
    sc.threads = 1;
    let service = Service::start(sc).unwrap();
    let handle = service.handle();
    for h in 0..CLIENTS {
        handle.register(h, None).unwrap();
        handle
            .update_position(h, knn_at(h, None).pos, None)
            .unwrap();
    }
    // Each client waits for its reply before submitting again, so the
    // scheduler goes idle — and must be woken — thousands of times, with
    // submissions racing its decision to park.
    std::thread::scope(|s| {
        for h in 0..CLIENTS {
            let handle = handle.clone();
            s.spawn(move || {
                for i in 0..ROUND_TRIPS {
                    let rx = loop {
                        match handle.submit(knn_at(h, None)) {
                            Ok(rx) => break rx,
                            Err(ServeError::QueueFull { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("client {h}: {e}"),
                        }
                    };
                    rx.recv_timeout(REPLY_TIMEOUT)
                        .unwrap_or_else(|e| panic!("client {h}, round trip {i}: {e}"));
                }
            });
        }
    });
    let report = service.drain();
    assert_eq!(report.accepted, (CLIENTS * ROUND_TRIPS) as u64);
}

#[test]
fn budget_starved_queue_is_admitted_in_order_as_the_budget_refills() {
    // One admission per 5 ms tick, an epoch every 75 ms: the scheduler
    // parks with a non-empty queue and has to wake itself for each
    // refill, and for the barriers that fall in between.
    let mut cfg = small_world(8);
    cfg.ticks_per_min = 60;
    let mut sc = ServeConfig::scaled(cfg, 200.0);
    sc.admit_per_tick = 1;
    sc.threads = 1;
    let service = Service::start(sc).unwrap();
    let handle = service.handle();
    handle.register(0, None).unwrap();
    let rxs: Vec<_> = (0..50)
        .map(|_| handle.submit(knn_at(0, None)).expect("1024-deep queue"))
        .collect();
    for (i, rx) in rxs.into_iter().enumerate() {
        let answer = rx
            .recv_timeout(REPLY_TIMEOUT)
            .expect("starved query answered");
        assert_eq!(
            answer.nonce, i as u64,
            "admission order is submission order"
        );
    }
    let report = service.drain();
    assert_eq!(report.accepted, 50);
}
