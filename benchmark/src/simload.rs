//! The three closed-simulation workloads, end-to-end pass.
//!
//! A run is a loop of identical repetitions until `--seconds` of
//! simulation wall time has been measured: build the world
//! (`Simulation::try_new`, a `setup_s` sample), run it on the pool
//! (`run_parallel`, a throughput sample), compare its report with the
//! first repetition's. Medians over the repetitions are reported.

use crate::json::Json;
use crate::outcome::{nums, peak_rss_mib, report_digest, set_simulated, Outcome};
use crate::spec::MetricSet;
use crate::stats::median;
use crate::world;
use airshare_exec::ExecPool;
use airshare_sim::{QueryKind, SimConfig, SimReport, Simulation};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimKind {
    CityKnn,
    CityWindow,
    FleetSparse,
}

/// Setup samples wanted per run where a set-up is cheap enough to
/// repeat beyond the repetitions the clock allows.
const MIN_SETUPS: usize = 9;

impl SimKind {
    /// One repetition's world. Simulated minutes are sized so that a
    /// repetition takes about 2 s on the 2-core reference box: short
    /// enough for four or five in a run, so that the median shrugs off
    /// a repetition a noisy neighbor slowed down.
    pub fn config(self, seed: u64) -> SimConfig {
        match self {
            SimKind::CityKnn => world::city(QueryKind::Knn, seed, 30.0),
            SimKind::CityWindow => world::city(QueryKind::Window, seed, 50.0),
            SimKind::FleetSparse => world::fleet(1_000_000, seed, 3.0),
        }
    }

    /// The untimed correctness pass: the first 20 simulated minutes of
    /// the same world with every answer checked against the R-tree
    /// oracle. Not run at a million hosts (nothing there is exact-or-
    /// wrong that the city worlds do not already check).
    fn validated_prefix(self, seed: u64) -> Option<SimConfig> {
        let mut cfg = match self {
            SimKind::CityKnn | SimKind::CityWindow => self.config(seed),
            SimKind::FleetSparse => return None,
        };
        cfg.measure_min = 20.0;
        cfg.validate = true;
        Some(cfg)
    }
}

pub fn epochs(cfg: &SimConfig) -> u64 {
    (cfg.total_min() / cfg.epoch_min).ceil() as u64
}

/// Queries a report counts as failed: answered `Failed`, or caught by
/// the oracle (the last two are zero unless `validate` is on).
pub fn failed_queries(report: &SimReport) -> u64 {
    report.quality.failed + report.exact_mismatches + report.bound_violations
}

/// Runs the validated prefix; returns `(attempted, failed)`.
fn validate(kind: SimKind, seed: u64, pool: &ExecPool, problems: &mut Vec<String>) -> (u64, u64) {
    let Some(cfg) = kind.validated_prefix(seed) else {
        return (0, 0);
    };
    let report = Simulation::try_new(cfg)
        .expect("benchmark config is valid")
        .run_parallel(pool);
    if report.exact_mismatches != 0 || report.bound_violations != 0 {
        problems.push(format!(
            "validated prefix: {} exact mismatches, {} bound violations",
            report.exact_mismatches, report.bound_violations
        ));
    }
    (report.queries.total, failed_queries(&report))
}

/// One repetition's timings.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub report: SimReport,
}

pub fn one_rep(cfg: &SimConfig, pool: &ExecPool, with_metrics: bool) -> (Rep, Simulation) {
    let t = Instant::now();
    let mut sim = Simulation::try_new(cfg.clone()).expect("benchmark config is valid");
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = if with_metrics {
        sim.run_parallel_metrics(pool)
    } else {
        sim.run_parallel(pool)
    };
    let wall_s = t.elapsed().as_secs_f64();
    (
        Rep {
            setup_s,
            wall_s,
            report,
        },
        sim,
    )
}

pub fn run(kind: SimKind, seed: u64, seconds: f64) -> Outcome {
    let cfg = kind.config(seed);
    let pool = ExecPool::fixed(world::threads());
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = validate(kind, seed, &pool, &mut problems);

    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<SimReport> = None;
    while walls.iter().sum::<f64>() < seconds {
        let (rep, sim) = one_rep(&cfg, &pool, false);
        drop(sim);
        setups.push(rep.setup_s);
        walls.push(rep.wall_s);
        match &first {
            None => first = Some(rep.report),
            Some(f) if *f != rep.report => problems.push(format!(
                "repetition {} produced a different report",
                walls.len()
            )),
            Some(_) => {}
        }
    }
    // A city world builds in milliseconds: top the sample up so the
    // median is not the luck of three draws. A million-host build is
    // half a second and gets what the repetitions gave it.
    while setups.len() < MIN_SETUPS && median(&setups) < 0.05 {
        let t = Instant::now();
        let sim = Simulation::try_new(cfg.clone()).expect("benchmark config is valid");
        setups.push(t.elapsed().as_secs_f64());
        drop(sim);
    }

    let report = first.expect("at least one repetition");
    let queries = report.queries.total;
    attempted += queries;
    failed += failed_queries(&report);
    if queries == 0 {
        problems.push("the simulation resolved no queries".into());
    }
    let epochs = epochs(&cfg);
    let hosts = cfg.params.mh_number as f64;
    let wall = median(&walls);

    let mut metrics = MetricSet::end_to_end();
    metrics.set("setup_s", median(&setups));
    metrics.set("queries_per_s", queries as f64 / wall);
    metrics.set("host_epochs_per_s", hosts * epochs as f64 / wall);
    metrics.set("peak_rss_mib", peak_rss_mib());
    // A simulated client has its answer when its epoch's batch
    // commits, so the answer time of a closed simulation is the wall
    // time of one epoch.
    metrics.set("answer_ms_p50", wall * 1e3 / epochs as f64);
    // No wall-clock limit applies inside the simulator: the ratio is
    // the share of queries answered at all.
    metrics.set(
        "within_limit_ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    set_simulated(&mut metrics, &report);

    let detail = Json::obj([
        ("hosts", Json::Int(cfg.params.mh_number as i64)),
        ("pois", Json::Int(cfg.params.poi_number as i64)),
        ("epochs_per_rep", Json::Int(epochs as i64)),
        ("queries_per_rep", Json::Int(queries as i64)),
        ("reps", Json::Int(walls.len() as i64)),
        ("wall_s", nums(&walls)),
        ("setup_s", nums(&setups)),
        ("report_digest", Json::str(report_digest(&report))),
        ("by_peers", Json::Int(report.queries.by_peers as i64)),
        ("by_approx", Json::Int(report.queries.by_approx as i64)),
        (
            "by_broadcast",
            Json::Int(report.queries.by_broadcast as i64),
        ),
    ]);
    Outcome {
        metrics,
        attempted,
        failed,
        problems,
        detail,
    }
}
