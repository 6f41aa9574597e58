//! Fleet-level chaos guarantees (DESIGN.md §12):
//!
//! 1. Host churn, outage windows, and peer quarantine never break the
//!    parallel runtime: chaos runs are bit-identical across 1/2/4/8
//!    threads.
//! 2. An all-zero chaos config is byte-identical to the pre-chaos
//!    baseline — the chaos layers are free when disabled.
//! 3. The chaos oracle holds: exact answers match ground truth, stale
//!    answers respect their staleness bound, and every measured query
//!    gets exactly one quality grade.
//! 4. Under chaos the trace still records every fact the report counts,
//!    and an outage answer counts in no resolution series.

mod common;

use airshare::prelude::*;
use airshare::sim::ChurnConfig;
use common::TraceLedger;
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

/// Everything at once: churn, two outage windows inside the measured
/// phase (epochs are 0.25 min, warm-up ends at epoch 40), lossy
/// channel, dropped and malformed peer replies.
fn chaotic(seed: u64) -> SimConfig {
    let mut cfg = tiny(seed);
    cfg.churn = ChurnConfig {
        crash_prob: 0.04,
        restart_prob: 0.4,
        late_join_frac: 0.2,
    };
    cfg.outages = vec![(44, 52), (64, 70)];
    cfg.faults.bucket_loss_prob = 0.05;
    cfg.faults.retry_budget = 2;
    cfg.faults.peer_drop_prob = 0.05;
    cfg.faults.peer_malform_prob = 0.1;
    cfg
}

#[test]
fn chaos_oracle_holds_under_full_fault_mix() {
    for kind in [QueryKind::Knn, QueryKind::Window] {
        let mut cfg = chaotic(5);
        cfg.query_kind = kind;
        let r = Simulation::try_new(cfg).expect("valid config").run();
        assert!(r.queries.total > 0, "{kind:?}: nothing measured");
        // Every measured query got exactly one quality grade.
        assert_eq!(r.quality.total(), r.queries.total, "{kind:?}");
        // The chaos actually happened.
        assert!(r.hosts_crashed > 0, "{kind:?}: churn crashed nobody");
        assert!(r.hosts_restarted > 0, "{kind:?}: nobody came back");
        assert!(
            r.quality.stale + r.quality.failed > 0,
            "{kind:?}: outages never forced a degraded answer"
        );
        assert!(r.outage_resyncs > 0, "{kind:?}: nobody resynchronized");
        assert!(
            r.faults.quarantine_strikes > 0,
            "{kind:?}: malforming peers were never struck"
        );
        // ...and correctness survived it: exact answers are exact, and
        // non-exact answers stayed within their declared bound.
        assert_eq!(r.exact_mismatches, 0, "{kind:?}");
        assert_eq!(r.bound_violations, 0, "{kind:?}");
        if r.quality.stale > 0 {
            assert!(r.stale_age_min_max >= r.mean_stale_age_min());
            assert!(r.mean_stale_age_min() >= 0.0);
        }
    }
}

#[test]
fn fault_free_runs_answer_everything_exactly() {
    let r = Simulation::try_new(tiny(9)).expect("valid config").run();
    assert!(r.queries.total > 0);
    assert_eq!(r.quality.exact, r.queries.total);
    assert_eq!(r.quality.stale + r.quality.failed + r.quality.degraded, 0);
    assert_eq!(r.hosts_crashed, 0);
    assert_eq!(r.outage_resyncs, 0);
    assert_eq!(r.faults.peers_quarantined, 0);
}

#[test]
fn zeroed_chaos_config_is_byte_identical_to_baseline() {
    // The baseline config never mentions chaos; the "zeroed" one spells
    // every knob out at its inert value. Both reports must agree on
    // every byte of their Debug rendering.
    let baseline = Simulation::try_new(tiny(17)).expect("valid config").run();
    let mut cfg = tiny(17);
    cfg.churn = ChurnConfig {
        crash_prob: 0.0,
        restart_prob: 0.0,
        late_join_frac: 0.0,
    };
    cfg.outages = Vec::new();
    cfg.faults.peer_malform_prob = 0.0;
    let zeroed = Simulation::try_new(cfg).expect("valid config").run();
    assert_eq!(zeroed, baseline);
    assert_eq!(format!("{zeroed:?}"), format!("{baseline:?}"));
}

#[test]
fn chaos_metrics_reach_the_trace_snapshot() {
    for kind in [QueryKind::Knn, QueryKind::Window] {
        let mut cfg = chaotic(23);
        cfg.query_kind = kind;
        let mut ledger = TraceLedger::default();
        let r = Simulation::try_new(cfg.clone())
            .expect("valid config")
            .run_with(&mut ledger);
        assert!(r.faults.quarantine_strikes > 0, "{kind:?}: nobody struck");
        ledger.assert_matches(&r, &format!("{kind:?}"));

        let m = Simulation::try_new(cfg)
            .expect("valid config")
            .run_parallel_metrics(&ExecPool::sequential())
            .metrics
            .expect("run_parallel_metrics fills this");
        assert!(
            m.outages_blocked_total > 0,
            "{kind:?}: no OutageBlocked traced"
        );
    }
}

#[test]
fn outage_answers_count_in_no_resolution_series() {
    for kind in [QueryKind::Knn, QueryKind::Window] {
        let mut cfg = chaotic(23);
        cfg.query_kind = kind;
        let r = Simulation::try_new(cfg).expect("valid config").run();
        let q = &r.queries;
        assert!(
            r.quality.stale + r.quality.failed > 0,
            "{kind:?}: no outage answer"
        );
        // Only channel answers are broadcast answers...
        assert_eq!(q.by_broadcast, r.broadcast_latency.count, "{kind:?}");
        // ...and every measured query is in one series or is an outage
        // answer.
        assert_eq!(
            q.by_peers + q.by_approx + q.by_broadcast + r.quality.stale + r.quality.failed,
            q.total,
            "{kind:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn chaos_runs_are_bit_identical_across_thread_counts(seed in 0u64..1_000) {
        let sequential = Simulation::try_new(chaotic(seed))
            .expect("valid config")
            .run();
        prop_assert!(sequential.queries.total > 0);
        for threads in [1usize, 2, 4, 8] {
            let parallel = Simulation::try_new(chaotic(seed))
                .expect("valid config")
                .run_parallel(&ExecPool::fixed(threads));
            prop_assert_eq!(&parallel, &sequential, "diverged at {} threads", threads);
            // Debug covers every field, including ones a future
            // PartialEq might miss.
            prop_assert_eq!(
                format!("{:?}", parallel),
                format!("{:?}", sequential),
                "debug rendering diverged at {} threads", threads
            );
        }
    }
}
