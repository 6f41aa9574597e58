//! The replay-parity contract, enforced at the engine level.
//!
//! `Simulation::run_recording` captures a seeded workload (per-epoch
//! fleet state + per-query inputs and answers); a `LiveWorld` built from
//! the same configuration, driven in barrier order with those inputs,
//! must produce the **identical** answer set, `AnswerQuality` label,
//! and final `SimReport` — because both sides share the same world
//! construction and the same query-resolution path. The serving layer
//! (`airshare-serve`) builds on this: if this test holds, service
//! parity reduces to delivering the same inputs in the same order.

use airshare_broadcast::QueryScratch;
use airshare_exec::ExecPool;
use airshare_obs::NoopRecorder;
use airshare_sim::{
    params, ChurnConfig, FaultConfig, LiveQuery, LiveWorld, QueryKind, SimConfig, Simulation,
};

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

/// Records a workload, replays it against a `LiveWorld` on `threads`
/// workers, and asserts per-query and whole-report parity.
fn assert_replay_parity(cfg: SimConfig, threads: usize) {
    let (report, trace) = Simulation::try_new(cfg.clone()).unwrap().run_recording();
    assert!(!trace.queries.is_empty(), "workload recorded no queries");
    assert_eq!(trace.hosts, cfg.params.mh_number);

    let mut live = LiveWorld::try_new(cfg).unwrap();
    let pool = ExecPool::fixed(threads);
    let mut ctxs: Vec<(NoopRecorder, QueryScratch)> = (0..threads)
        .map(|_| (NoopRecorder, QueryScratch::new()))
        .collect();
    let mut rec = NoopRecorder;

    for (host, &up) in trace.initial_online.iter().enumerate() {
        if up {
            live.connect(host);
        }
    }

    let mut answered = 0usize;
    for er in &trace.epochs {
        // Barrier order: churn, then positions, then the epoch commit.
        for &(host, planned_epoch, up) in &er.churn {
            if up {
                live.reconnect(host as usize, planned_epoch, &mut rec);
            } else {
                live.disconnect(host as usize, planned_epoch, &mut rec);
            }
        }
        for &(host, pos) in &er.moved {
            live.update_position(host as usize, pos);
        }
        live.begin_epoch(er.epoch);

        let batch: Vec<LiveQuery> = trace
            .queries
            .iter()
            .filter(|q| q.epoch == er.epoch)
            .map(|q| LiveQuery {
                nonce: q.nonce,
                host: q.host as usize,
                at_min: q.at_min,
                pos: q.pos,
                heading: q.heading,
                spec: q.spec,
            })
            .collect();
        let answers = live.execute_epoch(batch, &pool, &mut ctxs);

        let expected: Vec<_> = trace
            .queries
            .iter()
            .filter(|q| q.epoch == er.epoch)
            .collect();
        assert_eq!(answers.len(), expected.len());
        for (got, want) in answers.iter().zip(&expected) {
            assert_eq!(got.nonce, want.nonce);
            assert_eq!(got.host, want.host);
            assert_eq!(
                got.ids, want.ids,
                "answer set diverged at nonce {} (host {})",
                want.nonce, want.host
            );
            assert_eq!(
                got.quality, want.quality,
                "answer quality diverged at nonce {}",
                want.nonce
            );
            answered += 1;
        }
    }
    assert_eq!(answered, trace.queries.len(), "replay skipped queries");
    assert_eq!(
        live.report(),
        &report,
        "live replay's report diverged from the recording run's"
    );
}

#[test]
fn recording_run_report_matches_plain_run() {
    for kind in [QueryKind::Knn, QueryKind::Window] {
        let plain = Simulation::try_new(base_cfg(kind, 42)).unwrap().run();
        let (recorded, trace) = Simulation::try_new(base_cfg(kind, 42))
            .unwrap()
            .run_recording();
        assert_eq!(recorded, plain, "recording changed the run ({kind:?})");
        // Nonces are the global event indices: strictly increasing.
        assert!(trace.queries.windows(2).all(|w| w[0].nonce < w[1].nonce));
        assert!(trace.measured() > 0);
    }
}

#[test]
fn knn_replay_is_bit_identical() {
    assert_replay_parity(base_cfg(QueryKind::Knn, 42), 1);
}

#[test]
fn window_replay_is_bit_identical() {
    assert_replay_parity(base_cfg(QueryKind::Window, 42), 1);
}

#[test]
fn replay_parity_holds_across_thread_counts() {
    for threads in [2, 4, 8] {
        assert_replay_parity(base_cfg(QueryKind::Knn, 7), threads);
    }
}

#[test]
fn replay_parity_holds_under_chaos() {
    // Churn + outages + channel faults all active: the replay must
    // reproduce crash wipes, cold restarts, outage-served Stale/Failed
    // answers, and per-nonce fault coin flips.
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
    assert_replay_parity(cfg, 4);
}
