//! Observability guarantees (DESIGN.md §9):
//!
//! 1. Tracing is deterministic — two same-seed runs produce byte-identical
//!    JSONL event streams.
//! 2. Recording is zero-cost on results — a run with the inert
//!    [`NoopRecorder`] returns a report equal to a plain `run()`.
//! 3. A metrics run (`run_parallel_metrics`, here on a sequential pool)
//!    fills the snapshot, and its counters agree with the report's own
//!    accounting.

use airshare::prelude::*;

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
    assert_eq!(plain, observed, "JsonlTraceRecorder perturbed the simulation");
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

    // Resolution counters agree with the report's QueryStats for the
    // measured window (the snapshot also sees warm-up queries, so it can
    // only be larger).
    assert!(m.queries_total >= report.queries.total);
    assert_eq!(
        m.queries_total,
        m.resolved_peers_verified + m.resolved_peers_approximate + m.resolved_broadcast,
        "resolution kinds must partition resolved queries"
    );
    assert!(m.probes_total >= m.resolved_broadcast);
    assert!(m.frames_lost_total >= report.faults.buckets_lost_total);
    assert!(m.tuning.count > 0 && m.latency.count > 0);
    assert!(m.latency.p50 <= m.latency.p95 && m.latency.p95 <= m.latency.p99);
    assert!(m.latency.p99 <= m.latency.max);

    // The plain report part matches an untraced run of the same seed.
    let mut plain = Simulation::try_new(faulty(7)).expect("valid config").run();
    plain.metrics = report.metrics.clone();
    assert_eq!(plain, report);
}
