//! End-to-end service replay parity: a workload recorded by the
//! deterministic simulator, driven through the full `airshare-serve`
//! stack — sessions, bounded admission, lockstep barriers, worker pool,
//! reply channels — must produce identical answers (POI ids +
//! `AnswerQuality` per nonce) *and* a field-for-field identical
//! `SimReport` after drain. The engine-level version of this contract
//! lives in `crates/sim/tests/record_replay.rs`; this one adds the
//! whole service between the client and the world.

use airshare_serve::{replay, QueryRequest, QueryTag, ServeConfig, ServeError, Service};
use airshare_sim::{params, ChurnConfig, FaultConfig, QueryKind, QuerySpec, SimConfig, Simulation};

fn base_cfg(kind: QueryKind, seed: u64) -> SimConfig {
    let mut p = params::la_city().scaled(0.005);
    p.cache_size = 30;
    let mut cfg = SimConfig::paper_defaults(p, kind, seed);
    cfg.warmup_min = 5.0;
    cfg.measure_min = 10.0;
    cfg.validate = true;
    cfg.hilbert_order = 6;
    cfg
}

fn assert_service_parity(cfg: SimConfig, serve_cfg: impl FnOnce(SimConfig) -> ServeConfig) {
    let (sim_report, trace) = Simulation::try_new(cfg.clone()).unwrap().run_recording();
    assert!(!trace.queries.is_empty());

    let service = Service::start(serve_cfg(cfg)).unwrap();
    let outcome = replay(&service.handle(), &trace).unwrap();
    let report = service.drain();

    assert!(outcome.is_clean(), "replay diverged: {outcome:?}");
    assert_eq!(outcome.answered, trace.queries.len() as u64);
    assert_eq!(
        report.report, sim_report,
        "service report diverged from the recording run's"
    );
    assert_eq!(report.metrics.drains_total, 1, "drain not recorded");
    assert_eq!(report.accepted, outcome.submitted);
    assert!(report.metrics.epochs_committed_total as usize >= trace.epochs.len());
}

#[test]
fn service_replay_matches_simulator_knn() {
    assert_service_parity(base_cfg(QueryKind::Knn, 42), ServeConfig::lockstep);
}

#[test]
fn service_replay_matches_simulator_window() {
    assert_service_parity(base_cfg(QueryKind::Window, 42), ServeConfig::lockstep);
}

#[test]
fn service_replay_matches_simulator_multihop() {
    // The service bins the whole fleet at each barrier; the simulator
    // bins only the cells within `p2p_hops` rings of its epoch's
    // queries. Equal answers and reports pin that radius: a relay's
    // flood reaching past the marks would find fewer peers.
    for hops in [2, 3] {
        for kind in [QueryKind::Knn, QueryKind::Window] {
            let mut cfg = base_cfg(kind, 42);
            cfg.p2p_hops = hops;
            assert_service_parity(cfg, ServeConfig::lockstep);
        }
    }
}

#[test]
fn service_replay_survives_tiny_queue_backpressure() {
    // A 4-deep admission queue forces constant backpressure; retries
    // must still deliver every query in nonce order and keep parity.
    let cfg = base_cfg(QueryKind::Knn, 9);
    let (sim_report, trace) = Simulation::try_new(cfg.clone()).unwrap().run_recording();
    let mut sc = ServeConfig::lockstep(cfg);
    sc.queue_capacity = 4;
    sc.threads = 2;
    let service = Service::start(sc).unwrap();
    let outcome = replay(&service.handle(), &trace).unwrap();
    let report = service.drain();
    assert!(outcome.is_clean(), "replay diverged: {outcome:?}");
    assert!(
        outcome.backpressure_retries > 0,
        "a 4-deep queue should have bounced at least one submission"
    );
    assert_eq!(report.rejected, outcome.backpressure_retries);
    assert_eq!(report.report, sim_report);
}

#[test]
fn service_replay_matches_under_chaos() {
    // Churn + outage + channel faults: crash wipes, cold restarts,
    // Stale/Failed outage answers, and per-nonce fault flips must all
    // survive the trip through the service.
    let mut cfg = base_cfg(QueryKind::Knn, 1234);
    cfg.churn = ChurnConfig {
        crash_prob: 0.05,
        restart_prob: 0.4,
        late_join_frac: 0.2,
    };
    cfg.outages = vec![(2, 4)];
    cfg.faults = FaultConfig {
        bucket_loss_prob: 0.05,
        peer_drop_prob: 0.1,
        ..FaultConfig::default()
    };
    assert_service_parity(cfg, ServeConfig::lockstep);
}

#[test]
fn submissions_validate_sessions_and_tags() {
    let cfg = base_cfg(QueryKind::Knn, 3);
    let hosts = cfg.params.mh_number;
    let pois = cfg.params.poi_number;
    let service = Service::start(ServeConfig::lockstep(cfg)).unwrap();
    let handle = service.handle();

    let req = |host: usize, tag: Option<QueryTag>| QueryRequest {
        host,
        pos: airshare_geom::Point::new(1.0, 1.0),
        heading: None,
        spec: QuerySpec::Knn { k: 3 },
        tag,
    };
    let tag = QueryTag {
        nonce: 0,
        at_min: 0.1,
        epoch: 0,
    };

    // Out-of-range host.
    assert!(matches!(
        handle.register(hosts + 5, None),
        Err(ServeError::HostOutOfRange { .. })
    ));
    // No session yet.
    assert!(matches!(
        handle.submit(req(0, Some(tag))),
        Err(ServeError::UnknownSession { host: 0 })
    ));
    handle.register(0, None).unwrap();
    // An open session is not registered again, however many handles
    // race for it: exactly one of these four gets in.
    assert_eq!(
        handle.register(0, None),
        Err(ServeError::AlreadyRegistered { host: 0 })
    );
    assert_eq!(
        ServeError::AlreadyRegistered { host: 0 }.to_string(),
        "host 0 already has an open session"
    );
    let opened = std::thread::scope(|s| {
        let racers: Vec<_> = (0..4)
            .map(|_| s.spawn(|| handle.register(1, None).is_ok()))
            .collect();
        racers
            .into_iter()
            .map(|r| r.join().unwrap())
            .filter(|&ok| ok)
            .count()
    });
    assert_eq!(opened, 1);
    // Lockstep requires a tag.
    assert!(matches!(
        handle.submit(req(0, None)),
        Err(ServeError::TagMismatch)
    ));
    // Non-finite positions stop at the door, on both calls that carry
    // one; a finite position outside the world is the client's business.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for pos in [
            airshare_geom::Point::new(bad, 1.0),
            airshare_geom::Point::new(1.0, bad),
        ] {
            let mut r = req(0, Some(tag));
            r.pos = pos;
            assert_eq!(
                handle.submit(r).err(),
                Some(ServeError::BadPosition { host: 0 })
            );
            assert_eq!(
                handle.update_position(0, pos, None),
                Err(ServeError::BadPosition { host: 0 })
            );
        }
    }
    assert_eq!(
        ServeError::BadPosition { host: 0 }.to_string(),
        "host 0 reported a non-finite position"
    );
    handle
        .update_position(0, airshare_geom::Point::new(-1e6, 1e6), None)
        .unwrap();
    // So do queries the world cannot answer. Admitted, `k = 0` used to
    // panic the scheduler thread, `k = usize::MAX` overflowed a capacity,
    // and a NaN corner failed the rectangle's own check.
    let window = |x1: f64, y1: f64, x2: f64, y2: f64| QuerySpec::Window {
        rect: airshare_geom::Rect { x1, y1, x2, y2 },
    };
    for spec in [
        QuerySpec::Knn { k: 0 },
        QuerySpec::Knn { k: pois + 1 },
        QuerySpec::Knn { k: usize::MAX },
        window(f64::NAN, 0.0, 1.0, 1.0),
        window(0.0, 0.0, 1.0, f64::INFINITY),
        window(f64::NEG_INFINITY, 0.0, 1.0, 1.0),
        window(2.0, 0.0, 1.0, 1.0),
        window(0.0, 2.0, 1.0, 1.0),
    ] {
        let mut r = req(0, Some(tag));
        r.spec = spec;
        assert_eq!(
            handle.submit(r).err(),
            Some(ServeError::BadQuery { host: 0 }),
            "{spec:?}"
        );
    }
    assert_eq!(
        ServeError::BadQuery { host: 0 }.to_string(),
        "host 0 submitted a query the world cannot answer"
    );
    // Tagged submission is admitted and answered after the fence.
    let rx = handle.submit(req(0, Some(tag))).unwrap();
    handle.fence(0);
    let answer = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("fenced query answered");
    assert_eq!(answer.nonce, 0);
    // The refused queries never reached the scheduler: the service
    // drains cleanly, having admitted only the good one.
    let report = service.drain();
    assert_eq!(report.accepted, 1);
    assert_eq!(report.metrics.drains_total, 1);
    // The refused registrations staged nothing: hosts 0 and 1 opened once.
    assert_eq!(report.metrics.sessions_registered_total, 2);

    // A drained service refuses everything.
    assert!(matches!(handle.register(1, None), Err(ServeError::Stopped)));
}

#[test]
fn scaled_service_serves_live_traffic() {
    // On the wall clock, where a query's stamp depends on when the
    // scheduler reads it: drive the scaled-time scheduler with real
    // sessions and live submissions, and check the pipeline answers
    // them all. The scaled pass's parity with lockstep is pinned on a
    // manual clock by `service.rs`'s own tests.
    let mut cfg = base_cfg(QueryKind::Knn, 11);
    cfg.warmup_min = 0.0;
    let hosts = cfg.params.mh_number.min(32);
    // One simulated minute every 5ms of wall time.
    let mut sc = ServeConfig::scaled(cfg, 12_000.0);
    sc.threads = 2;
    let service = Service::start(sc).unwrap();
    let handle = service.handle();

    for h in 0..hosts {
        handle.register(h, None).unwrap();
        handle
            .update_position(
                h,
                airshare_geom::Point::new(0.5 + h as f64 * 0.01, 0.5),
                None,
            )
            .unwrap();
    }
    // Give the scheduler a couple of barriers to bring sessions online.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let mut rxs = Vec::new();
    for i in 0..200usize {
        let h = i % hosts;
        let req = QueryRequest {
            host: h,
            pos: airshare_geom::Point::new(0.5 + h as f64 * 0.01, 0.5),
            heading: None,
            spec: QuerySpec::Knn { k: 3 },
            tag: None,
        };
        match handle.submit(req) {
            Ok(rx) => rxs.push(rx),
            Err(ServeError::QueueFull { .. }) => {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(e) => panic!("live submit failed: {e}"),
        }
    }
    let mut answered = 0u64;
    for rx in rxs {
        if rx.recv_timeout(std::time::Duration::from_secs(10)).is_ok() {
            answered += 1;
        }
    }
    let report = service.drain();
    assert!(answered > 0, "no live answers arrived");
    assert_eq!(
        report.accepted, answered,
        "an admitted query went unanswered"
    );
    assert!(report.metrics.sessions_registered_total >= hosts as u64);
}

#[test]
fn repeated_churn_calls_count_once() {
    // Nothing but `check_open` + `check_host` stands between a client
    // and the world's churn calls: a second `disconnect` of a dark host
    // or `reconnect` of a live one must not crash or restart it again,
    // nor count as a session closed or opened.
    let service = Service::start(ServeConfig::lockstep(base_cfg(QueryKind::Knn, 3))).unwrap();
    let handle = service.handle();
    handle.register(0, Some(0)).unwrap();
    for barrier in [1, 2] {
        handle.disconnect(0, barrier, Some(barrier)).unwrap();
    }
    for barrier in [3, 4] {
        handle.reconnect(0, barrier, Some(barrier)).unwrap();
    }
    handle.fence(4);
    let drained = service.drain();
    let report = drained.report;
    assert_eq!((report.hosts_crashed, report.hosts_restarted), (1, 1));
    let m = drained.metrics;
    assert_eq!(
        (m.sessions_registered_total, m.sessions_closed_total),
        (2, 1)
    );
}
