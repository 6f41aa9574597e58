//! Serve quickstart: the base station as a live service.
//!
//! Starts `airshare-serve` in scaled wall-clock mode over a small world,
//! registers a handful of mobile-host sessions, submits live kNN queries
//! through the bounded admission queue, and drains. Shows the whole
//! session → admission → epoch batch → reply-channel → drain loop in
//! ~40 lines.
//!
//! Run with: `cargo run --release --example serve_quickstart`

use airshare::prelude::*;
use std::time::Duration;

fn main() {
    // A scaled-down LA-county world, no warm-up: this is a live service,
    // every answer counts from the first barrier.
    let mut p = params::la_city().scaled(0.005);
    p.cache_size = 30;
    let mut cfg = SimConfig::paper_defaults(p, QueryKind::Knn, 42);
    cfg.warmup_min = 0.0;
    cfg.hilbert_order = 6;
    let hosts = cfg.params.mh_number.min(16);
    let k = cfg.params.knn_k;

    // One simulated minute per 10 ms of wall time; epoch barriers
    // (0.25 sim-min) commit every 2.5 ms.
    let service = Service::start(ServeConfig::scaled(cfg, 6_000.0)).unwrap();
    let handle = service.handle();

    // Sessions: register + report a position. Both apply at the next
    // epoch barrier, like everything else the scheduler commits.
    for h in 0..hosts {
        handle.register(h, None).unwrap();
        let pos = Point::new(0.3 + 0.05 * h as f64, 0.5);
        handle.update_position(h, pos, None).unwrap();
    }
    std::thread::sleep(Duration::from_millis(20)); // a few barriers

    // Live queries: submit returns a reply channel immediately; the
    // answer arrives once the query's batch executes at a barrier. A
    // full queue would return ServeError::QueueFull { retry_after_ticks }.
    let mut pending = Vec::new();
    for h in 0..hosts {
        let req = QueryRequest {
            host: h,
            pos: Point::new(0.3 + 0.05 * h as f64, 0.5),
            heading: None,
            spec: QuerySpec::Knn { k },
            tag: None, // scaled mode stamps time/nonce at admission
        };
        pending.push((h, handle.submit(req).unwrap()));
    }
    for (h, rx) in pending {
        let answer = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        println!(
            "host {h}: {}-NN answered with quality {:?} → POIs {:?}",
            k, answer.quality, answer.ids
        );
    }

    // Drain: flush every admitted query, stop the scheduler, and fold
    // the worker recorders into one report.
    let report = service.drain();
    println!(
        "drained: {} accepted, {} rejected, {} epochs committed, p95 tuning {} ticks",
        report.accepted,
        report.rejected,
        report.metrics.epochs_committed_total,
        report.metrics.tuning.percentiles().p95
    );
}
