//! Parallel-runtime guarantees (DESIGN.md §10):
//!
//! 1. `run_parallel` is bit-identical to the sequential `run()` for any
//!    thread count — metrics and fault counters included.
//! 2. `Histogram` / `MetricsSnapshot` merges are associative and agree
//!    with recording everything into a single recorder.
//! 3. Epoch snapshot semantics: a cache insert made in epoch `e` is
//!    invisible to peers until epoch `e + 1`.

use airshare::obs::ResolutionKind;
use airshare::prelude::*;
use proptest::prelude::*;

fn tiny(seed: u64) -> SimConfig {
    let p = params::synthetic_suburbia().scaled(0.004);
    let mut cfg = SimConfig::paper_defaults(p, QueryKind::Knn, seed);
    cfg.warmup_min = 10.0;
    cfg.measure_min = 10.0;
    cfg.hilbert_order = 6;
    cfg.validate = true;
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
fn run_parallel_is_byte_identical_across_thread_counts() {
    let sequential = Simulation::try_new(faulty(3)).expect("valid config").run();
    assert!(sequential.queries.total > 0, "nothing measured");
    assert!(
        sequential.faults.retries_total > 0,
        "fault path never exercised — the equality below would be vacuous"
    );
    for threads in [1usize, 4, 7] {
        let parallel = Simulation::try_new(faulty(3))
            .expect("valid config")
            .run_parallel(&ExecPool::fixed(threads));
        assert_eq!(parallel, sequential, "report diverged at {threads} threads");
        // Belt and braces: the Debug rendering covers every field too,
        // so a future field missed by PartialEq would still be caught.
        assert_eq!(
            format!("{parallel:?}"),
            format!("{sequential:?}"),
            "debug rendering diverged at {threads} threads"
        );
    }
}

#[test]
fn run_parallel_metrics_merges_to_the_sequential_snapshot() {
    let sequential = Simulation::try_new(faulty(8))
        .expect("valid config")
        .run_metrics();
    let expected = sequential.metrics.as_ref().expect("run_metrics fills this");
    assert!(expected.queries_total > 0);
    for threads in [1usize, 4, 7] {
        let parallel = Simulation::try_new(faulty(8))
            .expect("valid config")
            .run_parallel_metrics(&ExecPool::fixed(threads));
        assert_eq!(
            parallel.metrics.as_ref().expect("parallel metrics filled"),
            expected,
            "merged snapshot diverged at {threads} threads"
        );
        assert_eq!(parallel, sequential, "report diverged at {threads} threads");
    }
}

#[test]
fn window_workload_is_thread_count_invariant() {
    let cfg = || {
        let mut c = faulty(11);
        c.query_kind = QueryKind::Window;
        c
    };
    let sequential = Simulation::try_new(cfg()).expect("valid config").run();
    assert!(sequential.queries.total > 0);
    for threads in [1usize, 4, 7] {
        let parallel = Simulation::try_new(cfg())
            .expect("valid config")
            .run_parallel(&ExecPool::fixed(threads));
        assert_eq!(parallel, sequential, "window report diverged at {threads} threads");
    }
}

#[test]
fn chunked_fleet_advance_is_thread_count_invariant() {
    // The parallel fleet-advance pass (chunked churn application +
    // mobility stepping) only engages past its 4096-host threshold, so
    // this config runs a fleet large enough to split into real chunks,
    // with heavy churn so crash wipes, cold restarts, and late joins
    // all land inside the chunked pass. The report must stay
    // byte-identical to the sequential column walk at every thread
    // count.
    let cfg = |seed| {
        let mut c = tiny(seed);
        c.params.mh_number = 6000;
        c.warmup_min = 2.0;
        c.measure_min = 4.0;
        c.validate = false;
        c.churn.crash_prob = 0.05;
        c.churn.restart_prob = 0.4;
        c.churn.late_join_frac = 0.2;
        c
    };
    let sequential = Simulation::try_new(cfg(5)).expect("valid config").run();
    assert!(sequential.queries.total > 0, "nothing measured");
    assert!(
        sequential.hosts_crashed > 0 && sequential.hosts_restarted > 0,
        "churn never fired — the chunked churn application went untested"
    );
    for threads in [1usize, 2, 4, 8] {
        let parallel = Simulation::try_new(cfg(5))
            .expect("valid config")
            .run_parallel(&ExecPool::fixed(threads));
        assert_eq!(parallel, sequential, "report diverged at {threads} threads");
        assert_eq!(
            format!("{parallel:?}"),
            format!("{sequential:?}"),
            "debug rendering diverged at {threads} threads"
        );
    }
}

#[test]
fn phase_times_are_populated_without_touching_the_report() {
    // Phase timers are measurement, not simulation output: the report
    // (and its metrics snapshot) must stay byte-identical whether or
    // not anyone reads them, and the accessor must show real time
    // after a run.
    let mut sim = Simulation::try_new(tiny(13)).expect("valid config");
    assert_eq!(sim.phase_times().total_ns(), 0, "phases start zeroed");
    let report = sim.run_metrics();
    let phases = sim.phase_times();
    assert!(phases.total_ns() > 0, "a run must accumulate phase time");
    assert!(phases.query_ns > 0, "queries ran, so query time is nonzero");
    let snapshot = report.metrics.as_ref().expect("run_metrics fills this");
    assert!(snapshot.phases.total_ns() > 0, "snapshot carries the phases");
    // PhaseTimes comparison is identity-blind by design, so two runs
    // with different wall clocks still produce equal snapshots.
    let second = Simulation::try_new(tiny(13)).expect("valid config").run_metrics();
    assert_eq!(second, report);
}

// ---------------------------------------------------------------------
// Epoch snapshot semantics
// ---------------------------------------------------------------------

#[test]
fn epoch_snapshot_hides_inserts_from_peers_until_the_next_epoch() {
    // One giant epoch spanning the whole run: every peer read observes
    // the initial (empty) cache snapshot, so nothing can resolve via
    // peers — inserts made during the epoch stay invisible until a next
    // epoch that never comes. Own-cache reads are excluded to isolate
    // the peer path.
    let frozen = || {
        let mut c = tiny(33);
        c.use_own_cache = false;
        c.epoch_min = c.warmup_min + c.measure_min + 1.0;
        c
    };
    let one_epoch = Simulation::try_new(frozen()).expect("valid config").run();
    assert!(one_epoch.queries.total > 0);
    assert_eq!(
        one_epoch.queries.by_peers + one_epoch.queries.by_approx,
        0,
        "peers saw cache state committed inside the same epoch"
    );

    // Same world with ordinary epochs: commits become visible at each
    // barrier and peers start answering queries.
    let refreshed = || {
        let mut c = tiny(33);
        c.use_own_cache = false;
        c
    };
    let many_epochs = Simulation::try_new(refreshed()).expect("valid config").run();
    assert!(
        many_epochs.queries.by_peers + many_epochs.queries.by_approx > 0,
        "epoch barriers never published any cache state"
    );

    // The parallel runtime agrees in both regimes.
    for cfg in [frozen(), refreshed()] {
        let seq = Simulation::try_new(cfg.clone()).expect("valid config").run();
        let par = Simulation::try_new(cfg)
            .expect("valid config")
            .run_parallel(&ExecPool::fixed(4));
        assert_eq!(par, seq);
    }
}

// ---------------------------------------------------------------------
// Merge properties
// ---------------------------------------------------------------------

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_merge_is_associative_and_matches_single_recording(
        a in prop::collection::vec(0u64..1_000_000, 0..80),
        b in prop::collection::vec(0u64..1_000_000, 0..80),
        c in prop::collection::vec(0u64..1_000_000, 0..80),
    ) {
        // (a ⊕ b) ⊕ c
        let mut left = hist_of(&a);
        left.merge(&hist_of(&b));
        left.merge(&hist_of(&c));
        // a ⊕ (b ⊕ c)
        let mut bc = hist_of(&b);
        bc.merge(&hist_of(&c));
        let mut right = hist_of(&a);
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // Both equal one histogram fed every value in any order.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let single = hist_of(&all);
        prop_assert_eq!(&left, &single);
        prop_assert_eq!(left.percentiles(), single.percentiles());
    }

    #[test]
    fn snapshot_merge_is_associative_and_matches_single_recorder(
        a in prop::collection::vec((0u32..4, 0u64..5_000, 0u64..5_000), 0..60),
        b in prop::collection::vec((0u32..4, 0u64..5_000, 0u64..5_000), 0..60),
        c in prop::collection::vec((0u32..4, 0u64..5_000, 0u64..5_000), 0..60),
    ) {
        // Decode each sampled triple into a short query trace.
        let feed = |rec: &mut MetricsRecorder, events: &[(u32, u64, u64)]| {
            for (i, &(kind, tuning, latency)) in events.iter().enumerate() {
                rec.begin_query(i as u64, tuning);
                match kind {
                    0 => rec.record(TraceEvent::ProbeStarted { tick: tuning }),
                    1 => rec.record(TraceEvent::IndexBucketTuned {
                        count: (tuning % 7) as u32 + 1,
                    }),
                    2 => rec.record(TraceEvent::FrameLost {
                        bucket: (latency % 13) as u32,
                        retry: 0,
                    }),
                    _ => rec.record(TraceEvent::PeerContacted {
                        peer: (latency % 31) as u32,
                    }),
                }
                rec.record(TraceEvent::QueryResolved {
                    by: if kind == 3 {
                        ResolutionKind::PeersVerified
                    } else {
                        ResolutionKind::Broadcast
                    },
                    tuning,
                    latency,
                });
            }
        };
        let snap = |events: &[(u32, u64, u64)]| {
            let mut rec = MetricsRecorder::new();
            feed(&mut rec, events);
            rec.snapshot()
        };

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = snap(&a);
        left.merge(&snap(&b));
        left.merge(&snap(&c));
        let mut bc = snap(&b);
        bc.merge(&snap(&c));
        let mut right = snap(&a);
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // Both equal one recorder that saw every event.
        let mut whole = MetricsRecorder::new();
        feed(&mut whole, &a);
        feed(&mut whole, &b);
        feed(&mut whole, &c);
        prop_assert_eq!(&left, &whole.snapshot());
    }
}
