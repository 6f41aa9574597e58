//! Simulator bookkeeping invariants on micro configurations — fast
//! checks that hold for *every* parameter combination, complementing the
//! scenario tests in `engine.rs` and the trend tests in the umbrella
//! crate.

use airshare_cache::ReplacementPolicy;
use airshare_exec::ExecPool;
use airshare_sim::{params, BackendKind, MobilityModel, QueryKind, SimConfig, Simulation};

fn micro(kind: QueryKind, seed: u64) -> SimConfig {
    let p = params::synthetic_suburbia().scaled(0.004);
    let mut cfg = SimConfig::paper_defaults(p, kind, seed);
    cfg.warmup_min = 10.0;
    cfg.measure_min = 10.0;
    cfg.hilbert_order = 6;
    cfg
}

#[test]
fn resolution_counters_partition_totals() {
    for kind in [QueryKind::Knn, QueryKind::Window] {
        for seed in [1, 2, 3] {
            let r = Simulation::try_new(micro(kind, seed)).unwrap().run();
            assert_eq!(
                r.queries.total,
                r.queries.by_peers + r.queries.by_approx + r.queries.by_broadcast,
                "{kind:?} seed {seed}"
            );
            let pct_sum =
                r.queries.pct_peers() + r.queries.pct_approx() + r.queries.pct_broadcast();
            if r.queries.total > 0 {
                assert!((pct_sum - 100.0).abs() < 1e-9, "{pct_sum}");
            }
            // Broadcast accounting matches the counter.
            assert_eq!(r.broadcast_latency.count, r.queries.by_broadcast);
            assert_eq!(r.broadcast_tuning.count, r.queries.by_broadcast);
        }
    }
}

#[test]
fn latency_identity_holds() {
    let r = Simulation::try_new(micro(QueryKind::Knn, 7)).unwrap().run();
    // overall mean latency = (broadcast latency sum) / total.
    if r.queries.total > 0 {
        let expect = r.broadcast_latency.sum as f64 / r.queries.total as f64;
        assert!((r.overall_mean_latency() - expect).abs() < 1e-12);
    }
    // The baseline is recorded once per measured query.
    assert_eq!(r.baseline_latency.count, r.queries.total);
}

#[test]
fn every_policy_and_mobility_combination_runs() {
    for policy in [
        ReplacementPolicy::DirectionDistance,
        ReplacementPolicy::DistanceOnly,
        ReplacementPolicy::Lru,
    ] {
        for mobility in [
            MobilityModel::RandomWaypoint,
            MobilityModel::GridRoads {
                spacing_milli_mi: 200,
            },
        ] {
            let mut cfg = micro(QueryKind::Knn, 4);
            cfg.policy = policy;
            cfg.mobility = mobility;
            cfg.validate = true;
            let r = Simulation::try_new(cfg).unwrap().run();
            assert_eq!(r.exact_mismatches, 0, "{policy:?}/{mobility:?}");
        }
    }
}

#[test]
fn clip_domain_only_raises_approximate_acceptance() {
    let pcts = |clip: bool| {
        let mut cfg = micro(QueryKind::Knn, 9);
        cfg.warmup_min = 30.0;
        cfg.clip_domain = clip;
        let r = Simulation::try_new(cfg).unwrap().run();
        (r.queries.pct_approx(), r.queries.pct_peers())
    };
    let (approx_off, peers_off) = pcts(false);
    let (approx_on, peers_on) = pcts(true);
    // Clipping never lowers a correctness estimate, so acceptance can
    // only grow; verification (Lemma 3.1) is untouched.
    assert!(
        approx_on + 1e-9 >= approx_off,
        "clipping reduced approx: {approx_on} < {approx_off}"
    );
    // Verified fractions may drift through cache feedback but stay close.
    assert!((peers_on - peers_off).abs() < 15.0);
}

#[test]
fn zero_queries_yield_empty_report() {
    let mut cfg = micro(QueryKind::Knn, 5);
    cfg.warmup_min = 5.0;
    cfg.measure_min = 0.0;
    let r = Simulation::try_new(cfg).unwrap().run();
    assert_eq!(r.queries.total, 0);
    assert_eq!(r.overall_mean_latency(), 0.0);
    assert_eq!(r.mean_peers_contacted(), 0.0);
}

#[test]
fn rtree_backend_runs_exactly_and_deterministically() {
    for kind in [QueryKind::Knn, QueryKind::Window] {
        let mut cfg = micro(kind, 11);
        cfg.backend = BackendKind::Rtree;
        cfg.validate = true;
        let serial = Simulation::try_new(cfg.clone()).unwrap().run();
        // The R-tree backend must answer every broadcast query exactly:
        // the engine cross-checks each result against brute force.
        assert_eq!(serial.exact_mismatches, 0, "{kind:?}");
        assert_eq!(
            serial.queries.total,
            serial.queries.by_peers + serial.queries.by_approx + serial.queries.by_broadcast
        );
        assert!(
            serial.queries.by_broadcast > 0,
            "{kind:?} exercised the air index"
        );
        // Epoch-sharded parallel execution is bit-identical for this
        // backend too, at every pool width.
        for threads in [2, 4] {
            let parallel = Simulation::try_new(cfg.clone())
                .unwrap()
                .run_parallel(&ExecPool::fixed(threads));
            assert_eq!(
                (parallel.queries.total, parallel.broadcast_latency.sum),
                (serial.queries.total, serial.broadcast_latency.sum),
                "{kind:?} at {threads} threads"
            );
        }
    }
}

#[test]
fn seeds_change_outcomes_but_not_structure() {
    let a = Simulation::try_new(micro(QueryKind::Knn, 100))
        .unwrap()
        .run();
    let b = Simulation::try_new(micro(QueryKind::Knn, 200))
        .unwrap()
        .run();
    // Different seeds → different workloads (almost surely).
    assert_ne!(
        (a.queries.total, a.broadcast_latency.sum),
        (b.queries.total, b.broadcast_latency.sum)
    );
}
