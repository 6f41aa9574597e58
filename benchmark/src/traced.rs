//! The traced pass: the per-layer numbers of one workload.
//!
//! The end-to-end pass runs with tracing off. This pass runs the
//! workload once more plainly and once with the program's recorders on
//! and the benchmark's spans around its calls (the difference is
//! `obs.trace_overhead_pct`), reads the counters the program keeps,
//! climbs the layer ladder against the world the run left behind, and
//! drives a `LiveWorld` epoch by epoch from a recorded trace with a
//! span around every barrier step. Spans are written to
//! `benchmark/out/trace-<workload>.jsonl` when the pass ends.
//!
//! A layer a workload never enters reports zero: `serve.*` on the
//! simulation workloads, `sim.advance_ms` and its siblings on the
//! service ones (a `LiveWorld` is advanced by its clients).

use crate::json::Json;
use crate::ladder::{self, Warm};
use crate::outcome::{report_digest, Outcome};
use crate::report::OUT_DIR;
use crate::serveload::{self, ServeRun};
use crate::simload::{self, SimKind};
use crate::span::Tracer;
use crate::spec::MetricSet;
use crate::stats::{median, Timing};
use crate::world;
use airshare_broadcast::QueryScratch;
use airshare_exec::ExecPool;
use airshare_obs::NoopRecorder;
use airshare_sim::{LiveQuery, LiveWorld, MetricsSnapshot, SimConfig, SimReport, TrafficTrace};
use std::time::Instant;

/// Simulated minutes the simulation workloads record for their
/// `LiveWorld` replay.
const REPLAY_MIN: f64 = 10.0;

struct Pass {
    metrics: MetricSet,
    tracer: Tracer,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    detail: Vec<(&'static str, Json)>,
}

pub fn run(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut pass = Pass {
        metrics: MetricSet::per_layer(),
        tracer: Tracer::new(Instant::now()),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
        detail: Vec::new(),
    };
    match workload {
        "city_knn" => traced_sim(SimKind::CityKnn, seed, &mut pass),
        "city_window" => traced_sim(SimKind::CityWindow, seed, &mut pass),
        "fleet_sparse" => traced_sim(SimKind::FleetSparse, seed, &mut pass),
        "serve_city" => traced_city(seed, seconds, &mut pass),
        "serve_closed" => traced_closed(seed, seconds, &mut pass),
        other => return Err(format!("unknown workload '{other}'")),
    }

    let path = format!("{OUT_DIR}/trace-{workload}.jsonl");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(&path, pass.tracer.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;

    let layers = pass
        .tracer
        .totals()
        .into_iter()
        .map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("count", Json::Int(t.count as i64)),
                    ("total_ms", Json::Num(t.total_ns as f64 / 1e6)),
                    ("self_ms", Json::Num(t.self_ns as f64 / 1e6)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    pass.detail
        .push(("spans", Json::Int(pass.tracer.spans().len() as i64)));
    pass.detail.push(("span_file", Json::str(path)));
    pass.detail.push(("span_totals", Json::obj(layers)));
    Ok(Outcome {
        metrics: pass.metrics,
        attempted: pass.attempted,
        failed: pass.failed,
        problems: pass.problems,
        detail: Json::obj(pass.detail),
    })
}

/// Work counts the program keeps itself, read at the same boundaries
/// the spans sit on.
fn set_counters(out: &mut MetricSet, report: &SimReport, snap: &MetricsSnapshot) {
    let queries = report.queries.total.max(1) as f64;
    out.set(
        "broadcast.buckets_per_query",
        report.broadcast_buckets.mean(),
    );
    out.set("broadcast.probes_total", snap.probes_total as f64);
    out.set(
        "broadcast.index_buckets_total",
        snap.index_buckets_total as f64,
    );
    out.set(
        "broadcast.data_buckets_total",
        snap.data_buckets_total as f64,
    );
    out.set(
        "broadcast.filter_saved_buckets",
        report.filter_saved_buckets as f64,
    );
    out.set("cache.hits_total", snap.cache_hits_total as f64);
    out.set("cache.rejected_total", snap.cache_rejected_total as f64);
    out.set(
        "p2p.peers_contacted_per_query",
        report.mean_peers_contacted(),
    );
    // Useful outcomes over attempts: peers that had data to give.
    out.set(
        "p2p.peers_with_data_ratio",
        report.share_peers_with_data as f64 / report.share_peers_contacted.max(1) as f64,
    );
    out.set("p2p.pois_per_query", report.share_pois as f64 / queries);
    out.set("core.resolved_verified_pct", report.queries.pct_peers());
    out.set("core.resolved_approx_pct", report.queries.pct_approx());
    out.set(
        "core.resolved_broadcast_pct",
        report.queries.pct_broadcast(),
    );
}

fn overhead_pct(traced_cost: f64, plain_cost: f64) -> f64 {
    (traced_cost / plain_cost - 1.0) * 100.0
}

fn traced_sim(kind: SimKind, seed: u64, pass: &mut Pass) {
    let cfg = kind.config(seed);
    let pool = ExecPool::fixed(world::threads());
    let (plain, sim) = pass
        .tracer
        .span("workload.plain", |_| simload::one_rep(&cfg, &pool, false));
    drop(sim);
    let (traced, sim) = pass
        .tracer
        .span("workload.traced", |_| simload::one_rep(&cfg, &pool, true));

    let snap = traced.report.metrics.clone().unwrap_or_default();
    let mut stripped = traced.report.clone();
    stripped.metrics = None;
    if stripped != plain.report {
        pass.problems
            .push("the traced run's report differs from the untraced run's".into());
    }
    pass.attempted = stripped.queries.total;
    pass.failed = simload::failed_queries(&stripped);
    pass.detail
        .push(("report_digest", Json::str(report_digest(&stripped))));
    pass.detail.push(("plain_wall_s", Json::Num(plain.wall_s)));
    pass.detail
        .push(("traced_wall_s", Json::Num(traced.wall_s)));

    let out = &mut pass.metrics;
    out.zero("serve.");
    out.set(
        "obs.trace_overhead_pct",
        overhead_pct(traced.wall_s, plain.wall_s),
    );
    set_counters(out, &stripped, &snap);
    let ph = snap.phases;
    let ms = |ns: u64| ns as f64 / 1e6;
    out.set("sim.advance_ms", ms(ph.advance_ns));
    out.set("sim.grid_ms", ms(ph.grid_ns));
    out.set("sim.query_ms", ms(ph.query_ns));
    out.set("sim.snapshot_ms", ms(ph.snapshot_ns));
    out.set(
        "sim.grid_share_pct",
        100.0 * ph.grid_ns as f64 / ph.total_ns().max(1) as f64,
    );
    out.set(
        "sim.us_per_query",
        ph.query_ns as f64 / 1e3 / snap.queries_total.max(1) as f64,
    );

    ladder::climb(
        &Warm {
            cfg: &cfg,
            table: sim.poi_table(),
            fleet: sim.fleet(),
        },
        seed,
        &mut pass.tracer,
        &mut pass.metrics,
    );
    drop(sim);

    // A million-host trace is a gigabyte of position deltas; the
    // barrier spans are taken on the worlds a trace fits in memory for.
    if kind == SimKind::FleetSparse {
        pass.metrics.zero("sim.begin_epoch_");
        pass.metrics.zero("sim.execute_epoch_");
    } else {
        let mut short = cfg.clone();
        short.measure_min = REPLAY_MIN;
        let (trace, _, _) = serveload::record_trace(&short);
        replay_live(&short, &trace, pass);
    }
}

/// Drives a `LiveWorld` through a recorded trace in barrier order —
/// churn, position updates, `begin_epoch`, the epoch's batch — with a
/// span around each step, and requires every answer to equal the
/// recording.
fn replay_live(cfg: &SimConfig, trace: &TrafficTrace, pass: &mut Pass) {
    let mut live = LiveWorld::try_new(cfg.clone()).expect("benchmark config is valid");
    for (host, &up) in trace.initial_online.iter().enumerate() {
        if up {
            live.connect(host);
        }
    }
    let pool = ExecPool::fixed(world::threads());
    let mut ctxs: Vec<(NoopRecorder, QueryScratch)> = (0..pool.threads())
        .map(|_| (NoopRecorder, QueryScratch::new()))
        .collect();
    let mut next = 0usize;
    let mut diverged = 0u64;
    pass.tracer.span("sim.replay", |t| {
        for er in &trace.epochs {
            for &(host, planned, up) in &er.churn {
                if up {
                    live.reconnect(host as usize, planned, &mut NoopRecorder);
                } else {
                    live.disconnect(host as usize, planned, &mut NoopRecorder);
                }
            }
            t.span("sim.update_positions", |_| {
                for &(host, pos) in &er.moved {
                    live.update_position(host as usize, pos);
                }
            });
            t.span("sim.begin_epoch", |_| live.begin_epoch(er.epoch));
            let recorded = &trace.queries[next..];
            let recorded = &recorded[..recorded.iter().take_while(|q| q.epoch == er.epoch).count()];
            next += recorded.len();
            let batch: Vec<LiveQuery> = recorded
                .iter()
                .map(|q| LiveQuery {
                    nonce: q.nonce,
                    host: q.host as usize,
                    at_min: q.at_min,
                    pos: q.pos,
                    heading: q.heading,
                    spec: q.spec,
                })
                .collect();
            let answers = t.span("sim.execute_epoch", |_| {
                live.execute_epoch(batch, &pool, &mut ctxs)
            });
            diverged += answers
                .iter()
                .zip(recorded)
                .filter(|(a, q)| a.ids != q.ids || a.quality != q.quality)
                .count() as u64;
        }
    });
    if diverged > 0 || next != trace.queries.len() {
        pass.problems.push(format!(
            "LiveWorld replay: {diverged} answers differ from the recording, {} of {} queries replayed",
            next,
            trace.queries.len()
        ));
    }

    let to_ms = |name: &str| -> Vec<f64> {
        pass.tracer
            .durations(name)
            .iter()
            .map(|ns| ns / 1e6)
            .collect()
    };
    let begin = to_ms("sim.begin_epoch");
    let execute = to_ms("sim.execute_epoch");
    let out = &mut pass.metrics;
    // The first barrier clones every cache into a fresh snapshot; the
    // rest reuse its buffers. Cold and steady are kept apart.
    let (first, steady) = begin.split_first().expect("a trace has epochs");
    out.set("sim.begin_epoch_ms_first", *first);
    out.set("sim.begin_epoch_ms_p50", median(steady));
    out.set("sim.begin_epoch_ms_p99", Timing::p99_of(steady));
    out.set("sim.execute_epoch_ms_p50", median(&execute));
    out.set("sim.execute_epoch_ms_p99", Timing::p99_of(&execute));
}

fn set_serve(out: &mut MetricSet, run: &ServeRun, tracer: &Tracer) {
    let submit = tracer.durations("serve.submit");
    out.set("serve.submit_ns_p50", median(&submit));
    out.set("serve.submit_ns_p99", Timing::p99_of(&submit));
    // One span per burst of `MOVE_CHUNK` calls (an epoch's last burst
    // may be shorter, which a median does not notice).
    let bursts = tracer.durations("serve.update_position");
    if bursts.is_empty() {
        // The closed loop's clients never report a new position, and
        // it has no schedule to run late against.
        out.zero("serve.update_position_ns_p50");
        out.zero("serve.gen_lag_us_p99");
    } else {
        out.set(
            "serve.update_position_ns_p50",
            median(&bursts) / serveload::MOVE_CHUNK as f64,
        );
        out.set("serve.gen_lag_us_p99", Timing::p99_of(&run.gen_lag_us));
    }
    out.set("serve.answer_ms_p99", Timing::p99_of(&run.latency_ms));
    out.set("serve.answer_ms_max", Timing::of(&run.latency_ms).max);
    out.set(
        "serve.closed_answer_ms_p50",
        median(&tracer.durations("serve.answer")) / 1e6,
    );
    out.set("serve.drain_ms", run.drain_ms);
    out.set("serve.accepted_total", run.service.accepted as f64);
    out.set("serve.rejected_total", run.service.rejected as f64);
    out.set("serve.answered_total", run.answered() as f64);
    out.set(
        "serve.epochs_committed_total",
        run.service.metrics.epochs_committed_total as f64,
    );
}

fn serve_common(pass: &mut Pass, run: &ServeRun) {
    pass.attempted = run.offered;
    pass.failed = run.failed();
    run.check(&mut pass.problems);
    // A live world is advanced by its clients: the engine's phase
    // timers never run.
    for phase in [
        "advance_ms",
        "grid_ms",
        "query_ms",
        "snapshot_ms",
        "grid_share_pct",
        "us_per_query",
    ] {
        pass.metrics.zero(&format!("sim.{phase}"));
    }
    set_serve(&mut pass.metrics, run, &pass.tracer);
    set_counters(&mut pass.metrics, &run.service.report, &run.service.metrics);
}

/// `serve_city`, traced: half the seconds untraced, half with spans
/// around `submit`, `update_position`, submit-to-answer and `drain`.
fn traced_city(seed: u64, seconds: f64, pass: &mut Pass) {
    let cfg = serveload::city_config(seed, seconds / 2.0);
    let (trace, sim, gen_s) = serveload::record_trace(&cfg);
    let (plain, _) = pass.tracer.span("workload.plain", |_| {
        serveload::drive_city(&cfg, &trace, None)
    });
    let (traced, _) = pass.tracer.span("workload.traced", |t| {
        serveload::drive_city(&cfg, &trace, Some(t))
    });
    // An open loop's wall is its schedule; what tracing can cost it is
    // answer time.
    pass.metrics.set(
        "obs.trace_overhead_pct",
        overhead_pct(
            Timing::of(&traced.latency_ms).p50,
            Timing::of(&plain.latency_ms).p50,
        ),
    );
    pass.detail.push(("gen_s", Json::Num(gen_s)));
    serve_common(pass, &traced);
    ladder::climb(
        &Warm {
            cfg: &cfg,
            table: sim.poi_table(),
            fleet: sim.fleet(),
        },
        seed,
        &mut pass.tracer,
        &mut pass.metrics,
    );
    drop(sim);
    replay_live(&cfg, &trace, pass);
}

/// `serve_closed`, traced: half the seconds untraced, half traced; the
/// ladder and the barrier spans run on a short recording of the same
/// world.
fn traced_closed(seed: u64, seconds: f64, pass: &mut Pass) {
    let half = seconds / 2.0;
    let cfg = serveload::closed_config(seed);
    let (plain, _) = pass.tracer.span("workload.plain", |_| {
        serveload::drive_closed(&cfg, seed, half, None)
    });
    let (traced, _) = pass.tracer.span("workload.traced", |t| {
        serveload::drive_closed(&cfg, seed, half, Some(t))
    });
    // A closed loop's wall is fixed; what tracing can cost it is
    // throughput, so the cost is time per answer.
    pass.metrics.set(
        "obs.trace_overhead_pct",
        overhead_pct(
            1.0 / median(&traced.window_rates),
            1.0 / median(&plain.window_rates),
        ),
    );
    serve_common(pass, &traced);
    let (trace, sim, _) = serveload::record_trace(&cfg);
    ladder::climb(
        &Warm {
            cfg: &cfg,
            table: sim.poi_table(),
            fleet: sim.fleet(),
        },
        seed,
        &mut pass.tracer,
        &mut pass.metrics,
    );
    drop(sim);
    replay_live(&cfg, &trace, pass);
}
