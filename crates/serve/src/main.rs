//! The `airshare-serve` binary: start the base-station service, drive a
//! recorded workload through it, and report replay parity.
//!
//! This is the service smoke entry point CI runs: it records a seeded
//! workload with the deterministic simulator, starts a lockstep service
//! over the same world, replays the workload through the full stack
//! (sessions, admission, backpressure, barriers), drains, and exits
//! nonzero unless every answer matched and the drain was clean.
//!
//! ```text
//! airshare-serve [--backend hilbert|rtree] [--kind knn|window]
//!                [--seed N] [--scale F] [--queue N] [--threads N]
//! ```

use airshare_serve::{replay, ServeConfig, Service};
use airshare_sim::{params, BackendKind, QueryKind, SimConfig, Simulation};

fn fail(msg: &str) -> ! {
    eprintln!("airshare-serve: {msg}");
    std::process::exit(2);
}

struct Args {
    backend: BackendKind,
    kind: QueryKind,
    seed: u64,
    scale: f64,
    queue: usize,
    threads: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        backend: BackendKind::Hilbert,
        kind: QueryKind::Knn,
        seed: 42,
        scale: 0.005,
        queue: 256,
        threads: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--backend" => {
                args.backend = val()
                    .parse()
                    .unwrap_or_else(|e| fail(&format!("--backend: {e}")));
            }
            "--kind" => {
                args.kind = match val().trim().to_ascii_lowercase().as_str() {
                    "knn" => QueryKind::Knn,
                    "window" => QueryKind::Window,
                    other => fail(&format!("--kind: unknown kind {other:?}")),
                };
            }
            "--seed" => {
                args.seed = val()
                    .parse()
                    .unwrap_or_else(|_| fail("--seed: not a u64"));
            }
            "--scale" => {
                args.scale = val()
                    .parse()
                    .unwrap_or_else(|_| fail("--scale: not a float"));
            }
            "--queue" => {
                args.queue = val()
                    .parse()
                    .unwrap_or_else(|_| fail("--queue: not a usize"));
            }
            "--threads" => {
                args.threads = val()
                    .parse()
                    .unwrap_or_else(|_| fail("--threads: not a usize"));
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    let mut p = params::la_city().scaled(args.scale);
    p.cache_size = 30;
    let mut cfg = SimConfig::paper_defaults(p, args.kind, args.seed);
    cfg.warmup_min = 5.0;
    cfg.measure_min = 10.0;
    cfg.validate = true;
    cfg.hilbert_order = 6;
    cfg.backend = args.backend;

    eprintln!(
        "recording workload: backend={} kind={:?} seed={} hosts={}",
        args.backend, args.kind, args.seed, cfg.params.mh_number
    );
    let (sim_report, trace) = Simulation::try_new(cfg.clone())
        .unwrap_or_else(|e| fail(&format!("bad config: {e}")))
        .run_recording();
    eprintln!(
        "recorded {} queries over {} epochs ({} measured)",
        trace.queries.len(),
        trace.epochs.len(),
        trace.measured()
    );

    let mut serve_cfg = ServeConfig::lockstep(cfg);
    serve_cfg.queue_capacity = args.queue;
    serve_cfg.threads = args.threads;
    let service =
        Service::start(serve_cfg).unwrap_or_else(|e| fail(&format!("service start: {e}")));
    let handle = service.handle();

    let outcome =
        replay(&handle, &trace).unwrap_or_else(|e| fail(&format!("replay aborted: {e}")));
    let report = service.drain();

    let report_parity = report.report == sim_report;
    println!(
        "{{\"backend\":\"{}\",\"queries\":{},\"answered\":{},\"id_mismatches\":{},\
         \"quality_mismatches\":{},\"lost\":{},\"backpressure_retries\":{},\
         \"accepted\":{},\"rejected\":{},\"epochs_committed\":{},\"drains\":{},\
         \"report_parity\":{}}}",
        args.backend,
        outcome.submitted,
        outcome.answered,
        outcome.id_mismatches,
        outcome.quality_mismatches,
        outcome.lost,
        outcome.backpressure_retries,
        report.accepted,
        report.rejected,
        report.metrics.epochs_committed_total,
        report.metrics.drains_total,
        report_parity,
    );

    if !outcome.is_clean() {
        eprintln!("replay parity FAILED: {outcome:?}");
        std::process::exit(1);
    }
    if !report_parity {
        eprintln!("service report diverged from the recording run's report");
        std::process::exit(1);
    }
    if report.metrics.drains_total != 1 {
        eprintln!("drain did not complete cleanly: {:?}", report.metrics);
        std::process::exit(1);
    }
    eprintln!("replay parity OK; service drained cleanly");
}
