//! Observability guarantees (DESIGN.md §9):
//!
//! 1. Tracing is deterministic — two same-seed runs produce byte-identical
//!    JSONL event streams.
//! 2. Recording is zero-cost on results — a run with the inert
//!    [`NoopRecorder`] returns a report equal to a plain `run()`.
//! 3. A metrics run (`run_parallel_metrics`, here on a sequential pool)
//!    fills the snapshot, and the trace records every fact the report
//!    counts (folded by a test-side ledger, with equality), one on-air
//!    access per broadcast-resolved query included.
//! 4. A live world driven from outside reports where its barrier time
//!    went, as the simulator does.

mod common;

use airshare::prelude::*;
use airshare::sim::{LiveQuery, LiveWorld};
use common::TraceLedger;

fn tiny(seed: u64) -> SimConfig {
    let p = params::synthetic_suburbia().scaled(0.004);
    let mut cfg = SimConfig::paper_defaults(p, QueryKind::Knn, seed);
    cfg.warmup_min = 10.0;
    cfg.measure_min = 10.0;
    cfg.hilbert_order = 6;
    cfg
}

fn faulty(seed: u64) -> SimConfig {
    let mut cfg = tiny(seed);
    cfg.faults.bucket_loss_prob = 0.1;
    cfg.faults.peer_drop_prob = 0.1;
    cfg.faults.retry_budget = 4;
    cfg
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let run_trace = || {
        let mut rec = JsonlTraceRecorder::new();
        let report = Simulation::try_new(faulty(5))
            .expect("valid config")
            .run_with(&mut rec);
        (rec.into_string(), report)
    };
    let (a, ra) = run_trace();
    let (b, rb) = run_trace();
    assert!(!a.is_empty(), "trace captured no events");
    assert_eq!(a, b, "same seed produced different traces");
    assert_eq!(ra, rb, "same seed produced different reports");
    // Every line is a JSON object carrying the query id and event name.
    for line in a.lines() {
        assert!(
            line.starts_with("{\"query\":") && line.ends_with('}'),
            "malformed trace line: {line}"
        );
        assert!(line.contains("\"event\":\""), "missing event field: {line}");
    }
}

#[test]
fn noop_recorder_changes_nothing() {
    let plain = Simulation::try_new(faulty(6)).expect("valid config").run();
    let mut noop = NoopRecorder;
    let traced = Simulation::try_new(faulty(6))
        .expect("valid config")
        .run_with(&mut noop);
    assert_eq!(plain, traced, "NoopRecorder perturbed the simulation");

    // A *recording* recorder must not perturb it either: tracing only
    // observes, it never steers.
    let mut rec = JsonlTraceRecorder::new();
    let observed = Simulation::try_new(faulty(6))
        .expect("valid config")
        .run_with(&mut rec);
    assert_eq!(
        plain, observed,
        "JsonlTraceRecorder perturbed the simulation"
    );
}

#[test]
fn run_metrics_fills_a_consistent_snapshot() {
    let report = Simulation::try_new(faulty(7))
        .expect("valid config")
        .run_parallel_metrics(&ExecPool::sequential());
    let m = report
        .metrics
        .as_ref()
        .expect("run_parallel_metrics sets metrics");

    // The snapshot also sees warm-up queries, so it can only count
    // more than the report's measured window. With no outage every
    // query resolves, and each resolution is one histogram sample.
    assert!(m.queries_total >= report.queries.total);
    assert_eq!(m.tuning.count(), m.queries_total);
    assert_eq!(m.latency.count(), m.queries_total);
    assert!(m.probes_total >= report.queries.by_broadcast);
    let latency = m.latency.percentiles();
    assert!(latency.p50 <= latency.p95 && latency.p95 <= latency.p99);
    assert!(latency.p99 <= latency.max);

    // The plain report part matches an untraced run of the same seed.
    let mut plain = Simulation::try_new(faulty(7)).expect("valid config").run();
    plain.metrics = report.metrics.clone();
    assert_eq!(plain, report);

    // Resolutions, grades, peer contacts, dropped replies and lost
    // frames are the report's to count; the trace records each of them.
    let mut ledger = TraceLedger::default();
    let traced = Simulation::try_new(faulty(7))
        .expect("valid config")
        .run_with(&mut ledger);
    assert!(traced.faults.replies_dropped > 0 && traced.faults.retries_total > 0);
    ledger.assert_matches(&traced, "faulty(7)");

    // A single-shot lossy channel: a kNN query that loses buckets is
    // still one access, and the report counts that access.
    let mut lossy = tiny(7);
    lossy.faults.bucket_loss_prob = 0.3;
    lossy.faults.retry_budget = 0;
    let mut ledger = TraceLedger::default();
    let traced = Simulation::try_new(lossy)
        .expect("valid config")
        .run_with(&mut ledger);
    assert!(traced.faults.buckets_lost_total > 0);
    ledger.assert_matches(&traced, "tiny(7), loss 0.3, budget 0");
}

#[test]
fn a_live_world_times_its_grid_and_query_phases() {
    let mut world = LiveWorld::try_new(tiny(3)).expect("valid config");
    let side = world.config().params.world_mi;
    let hosts = world.hosts();
    let pool = ExecPool::fixed(2);
    let mut ctxs = vec![(NoopRecorder, QueryScratch::new()); 2];
    assert_eq!(world.phase_times().total_ns(), 0, "nothing ran yet");
    let mut nonce = 0;
    for epoch in 0..4u64 {
        let at = |h: usize| {
            let f = (h as f64 + epoch as f64 * 0.37) / hosts as f64;
            Point::new(side * f.fract(), side * (3.0 * f).fract())
        };
        for h in 0..hosts {
            world.connect(h);
            world.update_position(h, at(h));
        }
        world.begin_epoch(epoch);
        let batch: Vec<LiveQuery> = (0..hosts)
            .map(|h| {
                nonce += 1;
                LiveQuery {
                    nonce,
                    host: h,
                    at_min: epoch as f64 * 0.25,
                    pos: at(h),
                    heading: None,
                    spec: QuerySpec::Knn { k: 3 },
                }
            })
            .collect();
        assert_eq!(world.execute_epoch(batch, &pool, &mut ctxs).len(), hosts);
    }
    let phases = world.phase_times();
    assert!(phases.grid_ns > 0, "{phases:?}");
    assert!(phases.query_ns > 0, "{phases:?}");
    assert_eq!(phases.advance_ns, 0, "the world moved no host: {phases:?}");
}
