//! Experiment harness: one function per paper table/figure.
//!
//! Every experiment sweeps a parameter exactly as §4.2/§4.3 describe and
//! prints the series the corresponding figure plots. Absolute runtime is
//! controlled by [`ExpScale`]:
//!
//! * default — density-preserving scaled worlds sized for a laptop;
//! * `AIRSHARE_QUICK=1` — a fast smoke configuration (CI);
//! * `AIRSHARE_FULL=1` — the paper's full 20 mi × 20 mi, 10-hour runs
//!   (days of CPU; provided for completeness).
//!
//! `AIRSHARE_BACKEND=hilbert|rtree` selects the air-index backend for
//! every experiment built through [`ExpScale::config`] (the two R-tree
//! rows of [`ablations`] pin their backend themselves).
//!
//! All functions return their rows so tests and the `cargo bench` driver
//! can assert on trends, and print them in a fixed, grep-friendly format.

#![forbid(unsafe_code)]

use airshare_cache::ReplacementPolicy;
use airshare_core::VrPolicy;
use airshare_exec::{ExecPool, Parallelism};
use airshare_sim::{
    params, BackendKind, MobilityModel, ParamSet, QueryKind, SimConfig, SimReport, Simulation,
};

/// Sizing of every experiment run.
#[derive(Clone, Copy, Debug)]
pub struct ExpScale {
    /// Area scale factor applied to each Table 3 parameter set.
    pub area: f64,
    /// Warm-up minutes for kNN workloads.
    pub knn_warm: f64,
    /// Measured minutes for kNN workloads.
    pub knn_measure: f64,
    /// Warm-up minutes for window workloads (they converge more slowly:
    /// coverage needs accumulated window history).
    pub win_warm: f64,
    /// Measured minutes for window workloads.
    pub win_measure: f64,
    /// Use the paper's full sweep grids instead of the coarse ones.
    pub full_grids: bool,
}

impl ExpScale {
    /// Reads `AIRSHARE_QUICK` / `AIRSHARE_FULL` from the environment.
    pub fn from_env() -> Self {
        if std::env::var_os("AIRSHARE_FULL").is_some() {
            ExpScale {
                area: 1.0,
                knn_warm: 60.0,
                knn_measure: 600.0,
                win_warm: 60.0,
                win_measure: 600.0,
                full_grids: true,
            }
        } else if std::env::var_os("AIRSHARE_QUICK").is_some() {
            ExpScale {
                area: 0.002,
                knn_warm: 45.0,
                knn_measure: 20.0,
                win_warm: 120.0,
                win_measure: 40.0,
                full_grids: false,
            }
        } else {
            ExpScale {
                area: 0.01,
                knn_warm: 120.0,
                knn_measure: 40.0,
                win_warm: 150.0,
                win_measure: 40.0,
                full_grids: false,
            }
        }
    }

    /// Builds the [`SimConfig`] for one parameter set at this scale
    /// (area scaling plus per-workload warm-up and measure windows).
    /// Honors `AIRSHARE_BACKEND` for air-index backend selection;
    /// an unknown backend name aborts with the parse error.
    pub fn config(&self, p: ParamSet, kind: QueryKind, seed: u64) -> SimConfig {
        let scaled = if self.area < 1.0 { p.scaled(self.area) } else { p };
        let mut cfg = SimConfig::paper_defaults(scaled, kind, seed);
        match kind {
            QueryKind::Knn => {
                cfg.warmup_min = self.knn_warm;
                cfg.measure_min = self.knn_measure;
            }
            QueryKind::Window => {
                cfg.warmup_min = self.win_warm;
                cfg.measure_min = self.win_measure;
            }
        }
        if let Ok(name) = std::env::var("AIRSHARE_BACKEND") {
            if !name.trim().is_empty() {
                cfg.backend = name
                    .parse()
                    .unwrap_or_else(|e| panic!("AIRSHARE_BACKEND: {e}"));
            }
        }
        cfg
    }

    fn tx_grid(&self) -> Vec<f64> {
        if self.full_grids {
            (1..=10).map(|i| 20.0 * i as f64).collect()
        } else {
            vec![10.0, 50.0, 100.0, 150.0, 200.0]
        }
    }

    fn cache_grid(&self) -> Vec<usize> {
        vec![6, 12, 18, 24, 30]
    }

    fn k_grid(&self) -> Vec<usize> {
        vec![3, 6, 9, 12, 15]
    }

    fn window_grid(&self) -> Vec<f64> {
        vec![1.0, 2.0, 3.0, 4.0, 5.0]
    }
}

/// One figure data point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Parameter set name.
    pub set: &'static str,
    /// Swept parameter value (range, cache size, k, window %…).
    pub x: f64,
    /// % solved by SBNN / SBWQ (verified).
    pub pct_peers: f64,
    /// % solved by approximate SBNN (kNN only).
    pub pct_approx: f64,
    /// % solved by the broadcast channel.
    pub pct_broadcast: f64,
}

fn run(cfg: SimConfig) -> SimReport {
    Simulation::try_new(cfg)
        .expect("experiment configs are valid by construction")
        .run()
}

/// The worker pool sweeps fan out over: `AIRSHARE_THREADS=N` sizes it to
/// `N` threads; unset defaults to sequential, the best choice both on
/// single-core machines and for apples-to-apples timing. Each sweep
/// point runs its simulation sequentially inside its task, so the pool
/// is the only layer of parallelism.
fn sweep_pool() -> ExecPool {
    match Parallelism::from_env() {
        Parallelism::Fixed(n) => ExecPool::fixed(n),
        Parallelism::Auto => ExecPool::sequential(),
    }
}

/// Runs a batch of independent sweep points on the [`sweep_pool`].
/// `ExecPool::map` returns results in input order, so output is
/// deterministic regardless of the thread count.
fn run_points(points: Vec<(&'static str, f64, SimConfig)>) -> Vec<Row> {
    sweep_pool().map(points, |_, (set, x, cfg)| row(set, x, &run(cfg)))
}

fn row(set: &'static str, x: f64, r: &SimReport) -> Row {
    Row {
        set,
        x,
        pct_peers: r.queries.pct_peers(),
        pct_approx: r.queries.pct_approx(),
        pct_broadcast: r.queries.pct_broadcast(),
    }
}

fn print_rows(title: &str, xlabel: &str, approx_col: bool, rows: &[Row]) {
    println!("\n## {title}");
    if approx_col {
        println!("{:<20} {:>10} {:>8} {:>8} {:>10}", "set", xlabel, "SBNN%", "apprx%", "bcast%");
        for r in rows {
            println!(
                "{:<20} {:>10} {:>8.1} {:>8.1} {:>10.1}",
                r.set, r.x, r.pct_peers, r.pct_approx, r.pct_broadcast
            );
        }
    } else {
        println!("{:<20} {:>10} {:>8} {:>10}", "set", xlabel, "SBWQ%", "bcast%");
        for r in rows {
            println!(
                "{:<20} {:>10} {:>8.1} {:>10.1}",
                r.set, r.x, r.pct_peers, r.pct_broadcast
            );
        }
    }
}

// ----------------------------------------------------------------------
// Table 3
// ----------------------------------------------------------------------

/// Prints the Table 3 parameter sets (verbatim paper values plus the
/// scaled values actually used at this [`ExpScale`]).
pub fn table3(scale: &ExpScale) {
    println!("\n## Table 3 — simulation parameter sets");
    println!(
        "{:<16} {:>10} {:>10} {:>8} {:>12} {:>10} {:>6} {:>8} {:>9}",
        "set", "POIs", "MHs", "CSize", "Query/min", "TxRange", "kNN", "window%", "dist(mi)"
    );
    for p in params::all() {
        println!(
            "{:<16} {:>10} {:>10} {:>8} {:>12.0} {:>10.0} {:>6} {:>8.0} {:>9.2}",
            p.name, p.poi_number, p.mh_number, p.cache_size, p.query_rate, p.tx_range_m,
            p.knn_k, p.window_pct, p.distance_mi
        );
    }
    if scale.area < 1.0 {
        println!("-- scaled ×{} (densities preserved):", scale.area);
        for p in params::all() {
            let s = p.scaled(scale.area);
            println!(
                "{:<16} {:>10} {:>10} {:>8} {:>12.1} {:>10.0} {:>6} {:>8.0} {:>9.2}",
                s.name, s.poi_number, s.mh_number, s.cache_size, s.query_rate, s.tx_range_m,
                s.knn_k, s.window_pct, s.distance_mi
            );
        }
    }
}

// ----------------------------------------------------------------------
// kNN figures (10, 11, 12)
// ----------------------------------------------------------------------

/// Figure 10: % of kNN queries resolved vs wireless transmission range.
pub fn fig10(scale: &ExpScale) -> Vec<Row> {
    let mut points = Vec::new();
    for p in params::all() {
        for range in scale.tx_grid() {
            let mut cfg = scale.config(p, QueryKind::Knn, 10);
            cfg.params.tx_range_m = range;
            points.push((p.name, range, cfg));
        }
    }
    let rows = run_points(points);
    print_rows(
        "Figure 10 — kNN queries resolved vs transmission range (m)",
        "range(m)",
        true,
        &rows,
    );
    rows
}

/// Figure 11: % of kNN queries resolved vs cache capacity.
pub fn fig11(scale: &ExpScale) -> Vec<Row> {
    let mut points = Vec::new();
    for p in params::all() {
        for cs in scale.cache_grid() {
            let mut cfg = scale.config(p, QueryKind::Knn, 11);
            cfg.params.cache_size = cs;
            points.push((p.name, cs as f64, cfg));
        }
    }
    let rows = run_points(points);
    print_rows(
        "Figure 11 — kNN queries resolved vs cache capacity (POIs)",
        "cache",
        true,
        &rows,
    );
    rows
}

/// Figure 12: % of kNN queries resolved vs the number of neighbors `k`.
pub fn fig12(scale: &ExpScale) -> Vec<Row> {
    let mut points = Vec::new();
    for p in params::all() {
        for k in scale.k_grid() {
            let mut cfg = scale.config(p, QueryKind::Knn, 12);
            cfg.params.knn_k = k;
            points.push((p.name, k as f64, cfg));
        }
    }
    let rows = run_points(points);
    print_rows(
        "Figure 12 — kNN queries resolved vs k",
        "k",
        true,
        &rows,
    );
    rows
}

// ----------------------------------------------------------------------
// Window figures (13, 14, 15)
// ----------------------------------------------------------------------

/// Figure 13: % of window queries resolved vs transmission range.
pub fn fig13(scale: &ExpScale) -> Vec<Row> {
    let mut points = Vec::new();
    for p in params::all() {
        for range in scale.tx_grid() {
            let mut cfg = scale.config(p, QueryKind::Window, 13);
            cfg.params.tx_range_m = range;
            points.push((p.name, range, cfg));
        }
    }
    let rows = run_points(points);
    print_rows(
        "Figure 13 — window queries resolved vs transmission range (m)",
        "range(m)",
        false,
        &rows,
    );
    rows
}

/// Figure 14: % of window queries resolved vs cache capacity.
pub fn fig14(scale: &ExpScale) -> Vec<Row> {
    let mut points = Vec::new();
    for p in params::all() {
        for cs in scale.cache_grid() {
            let mut cfg = scale.config(p, QueryKind::Window, 14);
            cfg.params.cache_size = cs;
            points.push((p.name, cs as f64, cfg));
        }
    }
    let rows = run_points(points);
    print_rows(
        "Figure 14 — window queries resolved vs cache capacity (POIs)",
        "cache",
        false,
        &rows,
    );
    rows
}

/// Figure 15: % of window queries resolved vs query window size.
pub fn fig15(scale: &ExpScale) -> Vec<Row> {
    let mut points = Vec::new();
    for p in params::all() {
        for pct in scale.window_grid() {
            let mut cfg = scale.config(p, QueryKind::Window, 15);
            cfg.params.window_pct = pct;
            points.push((p.name, pct, cfg));
        }
    }
    let rows = run_points(points);
    print_rows(
        "Figure 15 — window queries resolved vs window size (% of space)",
        "window%",
        false,
        &rows,
    );
    rows
}

// ----------------------------------------------------------------------
// Latency / tuning headline (§1, §5)
// ----------------------------------------------------------------------

/// One latency-comparison row.
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// Parameter set name.
    pub set: &'static str,
    /// Mean access latency with sharing (ticks; peer-solved ≈ 0).
    pub shared_latency: f64,
    /// Mean access latency of the pure on-air baseline (ticks).
    pub baseline_latency: f64,
    /// Mean tuning time of broadcast-solved queries (ticks).
    pub shared_tuning: f64,
    /// Mean tuning time of the baseline (ticks).
    pub baseline_tuning: f64,
    /// % of queries that avoided the channel entirely.
    pub pct_avoided: f64,
    /// p95 access latency of broadcast-solved queries (ticks).
    pub latency_p95: u64,
    /// p99 access latency of broadcast-solved queries (ticks).
    pub latency_p99: u64,
    /// p95 tuning time of broadcast-solved queries (ticks).
    pub tuning_p95: u64,
}

/// The paper's headline: access-latency reduction from sharing ("up to
/// 80 % in a dense urban area").
pub fn latency(scale: &ExpScale) -> Vec<LatencyRow> {
    let mut rows = Vec::new();
    println!("\n## Access latency & tuning: sharing vs pure on-air baseline");
    println!(
        "{:<20} {:>12} {:>12} {:>9} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "set", "shared lat", "on-air lat", "saved%", "tuning(bc)", "tuning(base)", "lat p95", "lat p99", "tun p95"
    );
    let points: Vec<(&'static str, SimConfig)> = params::all()
        .into_iter()
        .map(|p| (p.name, scale.config(p, QueryKind::Knn, 42)))
        .collect();
    let reports = sweep_pool().map(points, |_, (set, cfg)| (set, run(cfg)));
    for (set, r) in reports {
        let shared = r.overall_mean_latency();
        let base = r.baseline_latency.mean();
        let saved = if base > 0.0 { 100.0 * (1.0 - shared / base) } else { 0.0 };
        println!(
            "{:<20} {:>12.1} {:>12.1} {:>9.1} {:>12.1} {:>12.1} {:>8} {:>8} {:>8}",
            set,
            shared,
            base,
            saved,
            r.broadcast_tuning.mean(),
            r.baseline_tuning.mean(),
            r.broadcast_latency.p95(),
            r.broadcast_latency.p99(),
            r.broadcast_tuning.p95()
        );
        rows.push(LatencyRow {
            set,
            shared_latency: shared,
            baseline_latency: base,
            shared_tuning: r.broadcast_tuning.mean(),
            baseline_tuning: r.baseline_tuning.mean(),
            pct_avoided: r.queries.pct_peers() + r.queries.pct_approx(),
            latency_p95: r.broadcast_latency.p95(),
            latency_p99: r.broadcast_latency.p99(),
            tuning_p95: r.broadcast_tuning.p95(),
        });
    }
    rows
}

// ----------------------------------------------------------------------
// Lemma 3.2 calibration (§3.3.2)
// ----------------------------------------------------------------------

/// Calibration bin: predicted correctness vs empirical accuracy.
#[derive(Clone, Copy, Debug)]
pub struct CalibrationBin {
    /// Bin lower edge (predicted probability).
    pub lo: f64,
    /// Bin upper edge.
    pub hi: f64,
    /// Approximate answers falling in the bin.
    pub count: usize,
    /// Fraction that were actually fully correct.
    pub accuracy: f64,
}

/// Validates Lemma 3.2: bucket approximate answers by their predicted
/// correctness probability and compare against ground truth.
pub fn probability_calibration(scale: &ExpScale) -> Vec<CalibrationBin> {
    let p = params::la_city();
    let mut bins = Vec::new();
    for clip in [false, true] {
        let mut cfg = scale.config(p, QueryKind::Knn, 77);
        cfg.validate = true;
        cfg.min_correctness = 0.05; // accept almost everything: we *want* risky answers
        cfg.clip_domain = clip;
        let r = run(cfg);
        let edges = [0.05, 0.3, 0.5, 0.7, 0.85, 0.95, 1.000001];
        println!(
            "\n## Lemma 3.2 calibration — predicted e^(-λu) vs empirical accuracy ({})",
            if clip {
                "clipped to the bounded world"
            } else {
                "paper's unbounded-field estimator"
            }
        );
        println!("{:>14} {:>8} {:>10}", "predicted", "n", "actual%");
        for w in edges.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let in_bin: Vec<bool> = r
                .calibration
                .iter()
                .filter(|(p, _)| *p >= lo && *p < hi)
                .map(|&(_, ok)| ok)
                .collect();
            let count = in_bin.len();
            let accuracy = if count == 0 {
                0.0
            } else {
                in_bin.iter().filter(|&&b| b).count() as f64 / count as f64
            };
            println!(
                "{:>6.2} – {:<5.2} {:>8} {:>10.1}",
                lo,
                hi.min(1.0),
                count,
                100.0 * accuracy
            );
            if clip {
                bins.push(CalibrationBin { lo, hi, count, accuracy });
            }
        }
        println!(
            "(exact answers validated: {} mismatches out of {} queries)",
            r.exact_mismatches, r.queries.total
        );
    }
    bins
}

// ----------------------------------------------------------------------
// Ablations (DESIGN.md §3)
// ----------------------------------------------------------------------

/// One ablation row: a configuration label and its key metrics.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// % solved without the channel.
    pub pct_peers_total: f64,
    /// Mean buckets downloaded per broadcast-solved query.
    pub mean_buckets: f64,
    /// Mean broadcast tuning time.
    pub mean_tuning: f64,
    /// Ground-truth mismatches (only meaningful for the VR ablation).
    pub mismatches: u64,
}

fn ablation_run(label: &str, cfg: SimConfig, rows: &mut Vec<AblationRow>) {
    let r = run(cfg);
    let row = AblationRow {
        label: label.to_string(),
        pct_peers_total: r.queries.pct_peers() + r.queries.pct_approx(),
        mean_buckets: r.broadcast_buckets.mean(),
        mean_tuning: r.broadcast_tuning.mean(),
        mismatches: r.exact_mismatches,
    };
    println!(
        "{:<34} {:>9.1} {:>9.2} {:>9.1} {:>9}",
        row.label, row.pct_peers_total, row.mean_buckets, row.mean_tuning, row.mismatches
    );
    rows.push(row);
}

/// Runs every design-choice ablation DESIGN.md calls out, on the
/// suburbia set (mid density).
pub fn ablations(scale: &ExpScale) -> Vec<AblationRow> {
    let p = params::synthetic_suburbia();
    let mut rows = Vec::new();
    println!("\n## Ablations (Synthetic Suburbia, kNN unless noted)");
    println!(
        "{:<34} {:>9} {:>9} {:>9} {:>9}",
        "config", "peers%", "buckets", "tuning", "wrong"
    );

    let base = |seed: u64| {
        let mut c = scale.config(p, QueryKind::Knn, seed);
        c.validate = true;
        // A tight cache so replacement actually happens — at CSize = 50
        // the scaled world rarely evicts and every policy looks alike.
        c.params.cache_size = 8;
        c
    };

    ablation_run("baseline (paper defaults)", base(1), &mut rows);

    let mut c = base(1);
    c.use_bound_filtering = false;
    ablation_run("bound filtering OFF (§3.3.3)", c, &mut rows);

    let mut c = base(1);
    c.policy = ReplacementPolicy::DistanceOnly;
    ablation_run("cache policy: distance only", c, &mut rows);

    let mut c = base(1);
    c.policy = ReplacementPolicy::Lru;
    ablation_run("cache policy: LRU", c, &mut rows);

    let mut c = base(1);
    c.use_own_cache = false;
    ablation_run("own cache excluded from MVR", c, &mut rows);

    let mut c = base(1);
    c.subsume_overlap = 1.0;
    ablation_run("anti-fragmentation OFF", c, &mut rows);

    let mut c = base(1);
    c.vr_policy = VrPolicy::CircumscribedMbr;
    ablation_run("UNSOUND circumscribed-MBR VRs", c, &mut rows);

    let mut c = base(1);
    c.mobility = MobilityModel::GridRoads { spacing_milli_mi: 250 };
    ablation_run("grid-road mobility", c, &mut rows);

    let mut c = base(1);
    c.p2p_hops = 2;
    ablation_run("2-hop sharing (extension)", c, &mut rows);

    // The alternative air index answers the same queries exactly; what
    // moves is the channel cost (buckets, tuning) of the broadcast share.
    let mut c = base(1);
    c.backend = BackendKind::Rtree;
    ablation_run("air index: STR R-tree", c, &mut rows);

    // Window-reduction ablation runs the window workload.
    let mut c = scale.config(p, QueryKind::Window, 1);
    c.validate = true;
    ablation_run("window: reduction ON (§3.4.2)", c, &mut rows);
    let mut c = scale.config(p, QueryKind::Window, 1);
    c.validate = true;
    c.use_window_reduction = false;
    ablation_run("window: reduction OFF", c, &mut rows);
    let mut c = scale.config(p, QueryKind::Window, 1);
    c.validate = true;
    c.backend = BackendKind::Rtree;
    ablation_run("window: air index STR R-tree", c, &mut rows);

    rows
}

// ----------------------------------------------------------------------
// Fault sweep (robustness — DESIGN.md "Fault model")
// ----------------------------------------------------------------------

/// One fault-sweep row: channel health on the x-axis, cost and
/// degradation on the y-axes.
#[derive(Clone, Debug)]
pub struct FaultRow {
    /// Per-appearance bucket loss probability swept (0–0.20).
    pub loss: f64,
    /// Mean access latency over all queries (ticks).
    pub mean_latency: f64,
    /// Mean tuning time of broadcast-solved queries (ticks).
    pub mean_tuning: f64,
    /// Bucket re-fetches forced by corrupt appearances.
    pub retries: u64,
    /// Buckets abandoned after the retry budget ran out.
    pub lost_buckets: u64,
    /// Queries reported degraded (possibly incomplete answers).
    pub degraded: u64,
    /// Peer replies dropped in transit.
    pub replies_dropped: u64,
    /// Ground-truth mismatches among non-degraded answers (must be 0).
    pub mismatches: u64,
}

/// Sweeps the broadcast bucket-loss probability from 0 to 20 % (with a
/// matching peer-drop rate) and reports how access latency, retries, and
/// degradation respond. Validation stays on for every point: the sweep
/// doubles as the "never silently wrong" check — lost data must surface
/// as retries or degraded queries, not as wrong exact answers.
pub fn faults(scale: &ExpScale) -> Vec<FaultRow> {
    let p = params::synthetic_suburbia();
    let mut rows = Vec::new();
    println!("\n## Fault sweep — bucket loss 0–20 % (Synthetic Suburbia, kNN)");
    println!(
        "{:>6} {:>10} {:>9} {:>8} {:>6} {:>9} {:>9} {:>6}",
        "loss%", "latency", "tuning", "retries", "lost", "degraded", "dropped", "wrong"
    );
    let points: Vec<(f64, SimConfig)> = [0.0, 0.02, 0.05, 0.10, 0.15, 0.20]
        .into_iter()
        .map(|loss| {
            let mut cfg = scale.config(p, QueryKind::Knn, 99);
            cfg.validate = true;
            cfg.faults.bucket_loss_prob = loss;
            cfg.faults.peer_drop_prob = loss / 2.0;
            cfg.faults.retry_budget = 8;
            (loss, cfg)
        })
        .collect();
    for (loss, r) in sweep_pool().map(points, |_, (loss, cfg)| (loss, run(cfg))) {
        let row = FaultRow {
            loss,
            mean_latency: r.overall_mean_latency(),
            mean_tuning: r.broadcast_tuning.mean(),
            retries: r.faults.retries_total,
            lost_buckets: r.faults.buckets_lost_total,
            degraded: r.faults.queries_degraded,
            replies_dropped: r.faults.replies_dropped,
            mismatches: r.exact_mismatches,
        };
        println!(
            "{:>6.0} {:>10.1} {:>9.1} {:>8} {:>6} {:>9} {:>9} {:>6}",
            100.0 * row.loss,
            row.mean_latency,
            row.mean_tuning,
            row.retries,
            row.lost_buckets,
            row.degraded,
            row.replies_dropped,
            row.mismatches
        );
        rows.push(row);
    }
    rows
}

// ----------------------------------------------------------------------
// Query trace (observability — DESIGN.md §9)
// ----------------------------------------------------------------------

/// Runs one small kNN simulation with a [`airshare_obs::JsonlTraceRecorder`]
/// attached and writes the per-query event trace to stdout as JSONL (one
/// JSON object per line, nothing else). The stream is byte-deterministic
/// for a fixed config and seed, so CI smoke-checks it and diffing two runs
/// answers "what changed".
///
/// Run summary goes to stderr to keep stdout machine-parsable.
pub fn trace(scale: &ExpScale) -> String {
    let p = params::synthetic_suburbia();
    let cfg = scale.config(p, QueryKind::Knn, 7);
    let mut rec = airshare_obs::JsonlTraceRecorder::new();
    let r = Simulation::try_new(cfg)
        .expect("experiment configs are valid by construction")
        .run_with(&mut rec);
    eprintln!(
        "# trace: {} events over {} measured queries (peers {:.1}%, approx {:.1}%, broadcast {:.1}%)",
        rec.lines(),
        r.queries.total,
        r.queries.pct_peers(),
        r.queries.pct_approx(),
        r.queries.pct_broadcast()
    );
    print!("{}", rec.as_str());
    rec.into_string()
}

// ----------------------------------------------------------------------
// (1, m) sweep (Figure 2 behaviour)
// ----------------------------------------------------------------------

/// One `(1, m)` sweep row.
#[derive(Clone, Copy, Debug)]
pub struct MSweepRow {
    /// Replication factor.
    pub m: usize,
    /// Cycle length (ticks).
    pub cycle: u64,
    /// Mean wait for the next index segment.
    pub probe_wait: f64,
    /// Mean kNN access latency.
    pub latency: f64,
    /// Mean kNN tuning time.
    pub tuning: f64,
}

/// Sweeps the `(1, m)` replication factor on a static channel (no
/// mobility needed), reproducing the Figure 2 trade-off.
pub fn m_sweep() -> Vec<MSweepRow> {
    use airshare_broadcast::{AirIndex, OnAirClient, Poi, Schedule};
    use airshare_geom::{Point, Rect};
    use airshare_hilbert::Grid;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let world = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
    let mut rng = SmallRng::seed_from_u64(2);
    let pois: Vec<Poi> = (0..2750)
        .map(|i| {
            Poi::new(
                i,
                Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)),
            )
        })
        .collect();
    let index = AirIndex::try_build(pois, Grid::new(world, 8), 10).unwrap();
    let q = Point::new(10.0, 10.0);

    let mut rows = Vec::new();
    println!("\n## (1, m) index replication sweep (LA City data file)");
    println!(
        "{:>4} {:>8} {:>12} {:>10} {:>8}",
        "m", "cycle", "probe wait", "latency", "tuning"
    );
    for m in [1usize, 2, 4, 8, 16] {
        let schedule = Schedule::new(index.data_buckets(), index.index_buckets(), m);
        let client = OnAirClient::new(&index, &schedule);
        let cycle = schedule.cycle_len();
        let samples = 512u64;
        let (mut probe, mut lat, mut tun) = (0u64, 0u64, 0u64);
        for i in 0..samples {
            let t = i * cycle / samples;
            probe += schedule.next_index_start(t) - t;
            let res = client.knn(t, q, 5).expect("enough POIs");
            lat += res.stats.latency;
            tun += res.stats.tuning;
        }
        let r = MSweepRow {
            m,
            cycle,
            probe_wait: probe as f64 / samples as f64,
            latency: lat as f64 / samples as f64,
            tuning: tun as f64 / samples as f64,
        };
        println!(
            "{:>4} {:>8} {:>12.1} {:>10.1} {:>8.1}",
            r.m, r.cycle, r.probe_wait, r.latency, r.tuning
        );
        rows.push(r);
    }
    rows
}

// ----------------------------------------------------------------------
// Chaos sweep (churn × outages — DESIGN.md §12)
// ----------------------------------------------------------------------

/// One chaos-sweep data point: a (crash rate, outage fraction) cell.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Per-host per-epoch crash probability swept.
    pub crash_prob: f64,
    /// Fraction of the measured epochs spent in base-station outage.
    pub outage_frac: f64,
    /// Measured queries answered `Exact`.
    pub exact: u64,
    /// Measured queries answered `Degraded` (lossy retrieval).
    pub degraded: u64,
    /// Measured queries answered `Stale` (outage, cached/peer data).
    pub stale: u64,
    /// Measured queries answered `Failed` (outage, no covering data).
    pub failed: u64,
    /// Mean staleness bound over `Stale` answers (minutes).
    pub mean_stale_age_min: f64,
    /// Largest staleness bound observed (minutes).
    pub max_stale_age_min: f64,
    /// Host crash transitions applied.
    pub crashes: u64,
    /// Host restart / late-join transitions applied.
    pub restarts: u64,
    /// Hosts that resynchronized after answering through an outage.
    pub resyncs: u64,
    /// Quarantine strikes recorded against malforming peers.
    pub quarantine_strikes: u64,
    /// Peer contacts skipped because the peer was quarantined.
    pub peers_quarantined: u64,
    /// Chaos-oracle bound violations (must be 0).
    pub bound_violations: u64,
    /// Ground-truth mismatches among exact answers (must be 0).
    pub mismatches: u64,
}

/// Sweeps host churn against broadcast outages on a 3×3 grid (with a
/// small peer-malform rate throughout, so quarantine is exercised) and
/// reports the per-quality answer counts plus the recovery counters.
/// Validation stays on for every cell: the sweep doubles as the chaos
/// oracle — non-`Exact` answers must respect their declared bound, and
/// `Exact` answers must match ground truth, under every fault mix.
pub fn chaos(scale: &ExpScale) -> Vec<ChaosRow> {
    use airshare_sim::ChurnConfig;

    let p = params::synthetic_suburbia();
    let mut rows = Vec::new();
    println!("\n## Chaos sweep — churn × outage (Synthetic Suburbia, kNN)");
    println!(
        "{:>7} {:>8} {:>7} {:>8} {:>6} {:>7} {:>9} {:>8} {:>8} {:>8} {:>7} {:>6}",
        "crash%", "outage%", "exact", "degraded", "stale", "failed", "stale-age", "crashes",
        "restart", "resyncs", "strikes", "wrong"
    );

    let mut points = Vec::new();
    for crash_prob in [0.0, 0.01, 0.03] {
        for outage_frac in [0.0, 0.15, 0.30] {
            let mut cfg = scale.config(p, QueryKind::Knn, 4242);
            cfg.validate = true;
            cfg.faults.peer_malform_prob = 0.05;
            cfg.churn = ChurnConfig {
                crash_prob,
                restart_prob: 0.3,
                late_join_frac: if crash_prob > 0.0 { 0.1 } else { 0.0 },
            };
            cfg.outages = outage_windows(&cfg, outage_frac);
            points.push(((crash_prob, outage_frac), cfg));
        }
    }
    for ((crash_prob, outage_frac), r) in
        sweep_pool().map(points, |_, (cell, cfg)| (cell, run(cfg)))
    {
        let row = ChaosRow {
            crash_prob,
            outage_frac,
            exact: r.quality.exact,
            degraded: r.quality.degraded,
            stale: r.quality.stale,
            failed: r.quality.failed,
            mean_stale_age_min: r.mean_stale_age_min(),
            max_stale_age_min: r.stale_age_min_max,
            crashes: r.hosts_crashed,
            restarts: r.hosts_restarted,
            resyncs: r.outage_resyncs,
            quarantine_strikes: r.faults.quarantine_strikes,
            peers_quarantined: r.faults.peers_quarantined,
            bound_violations: r.bound_violations,
            mismatches: r.exact_mismatches,
        };
        println!(
            "{:>7.0} {:>8.0} {:>7} {:>8} {:>6} {:>7} {:>9.2} {:>8} {:>8} {:>8} {:>7} {:>6}",
            100.0 * row.crash_prob,
            100.0 * row.outage_frac,
            row.exact,
            row.degraded,
            row.stale,
            row.failed,
            row.mean_stale_age_min,
            row.crashes,
            row.restarts,
            row.resyncs,
            row.quarantine_strikes,
            row.bound_violations + row.mismatches
        );
        rows.push(row);
    }
    rows
}

/// Carves `frac` of the measured epochs into two equal outage windows,
/// one early and one late in the measurement phase. Returns an empty
/// schedule for `frac <= 0`.
fn outage_windows(cfg: &SimConfig, frac: f64) -> Vec<(u64, u64)> {
    if frac <= 0.0 {
        return Vec::new();
    }
    let warm = (cfg.warmup_min / cfg.epoch_min).ceil() as u64;
    let total = (cfg.total_min() / cfg.epoch_min).ceil() as u64;
    let span = total.saturating_sub(warm);
    let silent = ((span as f64) * frac).round() as u64;
    let half = (silent / 2).max(1);
    let first = warm + span / 5;
    let second = warm + (3 * span) / 5;
    vec![(first, first + half), (second, second + half)]
}
