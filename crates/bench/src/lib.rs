//! Experiment harness behind `airshare-paper`: one experiment per paper
//! table or figure, plus the ablations, fault and chaos sweeps and the
//! query trace.
//!
//! ```text
//! airshare-paper <table3|fig10|fig11|fig12|fig13|fig14|fig15|latency|prob|m-sweep|ablations|faults|chaos|trace|all>
//!                [--scale quick|default|full] [--threads N] [--json PATH]
//! ```
//!
//! Every experiment sweeps a parameter exactly as §4.2/§4.3 describe and
//! returns the series the corresponding figure plots as one [`Experiment`]
//! table. The binary prints it with [`Experiment::text`] and, given
//! `--json`, writes every table it ran with [`json`]. `trace` alone also
//! streams its JSONL events to stdout.
//!
//! Run size is an [`ExpScale`]: `default` is a density-preserving scaled
//! world sized for a laptop, `quick` a fast smoke configuration (CI) and
//! `full` the paper's 20 mi × 20 mi world. `--threads N` fans each sweep's
//! points over an `N`-worker [`ExecPool`]; every point runs its
//! simulation sequentially, and results come back in input order, so the
//! tables do not depend on `N`.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::PathBuf;

use airshare_cache::ReplacementPolicy;
use airshare_core::VrPolicy;
use airshare_exec::ExecPool;
use airshare_sim::QueryKind::{self, Knn, Window};
use airshare_sim::{
    params, BackendKind, ChurnConfig, MobilityModel, ParamSet, SimConfig, SimReport, Simulation,
};

/// Sizing of every experiment run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExpScale {
    /// The name `--scale` selects it by.
    pub name: &'static str,
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
    /// The transmission ranges (m) Figures 10 and 13 sweep.
    pub tx_grid: &'static [f64],
}

impl ExpScale {
    /// The fast smoke configuration CI runs.
    pub const QUICK: ExpScale = ExpScale {
        name: "quick",
        area: 0.002,
        knn_warm: 45.0,
        knn_measure: 20.0,
        win_warm: 120.0,
        win_measure: 40.0,
        tx_grid: &[10.0, 50.0, 100.0, 150.0, 200.0],
    };
    /// The laptop-scale configuration EXPERIMENTS.md reports.
    pub const DEFAULT: ExpScale = ExpScale {
        name: "default",
        area: 0.01,
        knn_warm: 120.0,
        knn_measure: 40.0,
        win_warm: 150.0,
        win_measure: 40.0,
        tx_grid: &[10.0, 50.0, 100.0, 150.0, 200.0],
    };
    /// The paper's full 20 mi × 20 mi world with its full range grid.
    pub const FULL: ExpScale = ExpScale {
        name: "full",
        area: 1.0,
        knn_warm: 60.0,
        knn_measure: 600.0,
        win_warm: 60.0,
        win_measure: 600.0,
        tx_grid: &[
            20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0,
        ],
    };

    /// The scale called `name`, if there is one.
    pub fn named(name: &str) -> Option<ExpScale> {
        [Self::QUICK, Self::DEFAULT, Self::FULL]
            .into_iter()
            .find(|s| s.name == name)
    }

    /// Builds the [`SimConfig`] for one parameter set at this scale
    /// (area scaling plus per-workload warm-up and measure windows).
    pub fn config(&self, p: ParamSet, kind: QueryKind, seed: u64) -> SimConfig {
        let scaled = if self.area < 1.0 {
            p.scaled(self.area)
        } else {
            p
        };
        let mut cfg = SimConfig::paper_defaults(scaled, kind, seed);
        (cfg.warmup_min, cfg.measure_min) = match kind {
            Knn => (self.knn_warm, self.knn_measure),
            Window => (self.win_warm, self.win_measure),
        };
        cfg
    }
}

/// One cell of an [`Experiment`] table.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A measurement or parameter; counts are exact below 2^53.
    Num(f64),
    /// A label (parameter set, configuration).
    Text(String),
}

macro_rules! num_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Num(v as f64)
            }
        }
    )*};
}
num_from!(f64, u64, usize);

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

/// Builds a row of [`Value`]s from anything that converts into one.
macro_rules! row {
    ($($v:expr),* $(,)?) => { vec![$(Value::from($v)),*] };
}

/// One column of an [`Experiment`] table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Column {
    /// Header in the text table and key in the JSON row objects.
    pub name: &'static str,
    /// Digits after the decimal point in the text table (numbers only;
    /// JSON keeps every digit).
    pub precision: usize,
}

/// What every experiment returns: one typed table.
#[derive(Clone, Debug, PartialEq)]
pub struct Experiment {
    /// The experiment's name in [`EXPERIMENTS`].
    pub id: &'static str,
    /// One-line caption.
    pub title: String,
    /// The columns, in print order.
    pub columns: Vec<Column>,
    /// The rows; each holds one value per column.
    pub rows: Vec<Vec<Value>>,
}

impl Experiment {
    /// An empty table with these `(name, precision)` columns.
    pub fn new(
        id: &'static str,
        title: impl Into<String>,
        columns: &[(&'static str, usize)],
    ) -> Self {
        let columns = columns
            .iter()
            .map(|&(name, precision)| Column { name, precision });
        Experiment {
            id,
            title: title.into(),
            columns: columns.collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics unless the row has one value per column.
    pub fn push(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "{}: row width", self.id);
        self.rows.push(row);
    }

    /// The text rendering: a `## title` line, a header line, then one
    /// line per row, every column padded to its widest cell. Label
    /// columns are left-aligned, numbers right-aligned.
    pub fn text(&self) -> String {
        let header = self.columns.iter().map(|c| c.name.to_string()).collect();
        let body = self.rows.iter().map(|row| {
            let cells = row.iter().zip(&self.columns);
            cells
                .map(|(v, c)| match v {
                    Value::Num(x) => format!("{x:.*}", c.precision),
                    Value::Text(s) => s.clone(),
                })
                .collect()
        });
        let lines: Vec<Vec<String>> = std::iter::once(header).chain(body).collect();
        let columns = (0..self.columns.len()).map(|i| {
            let width = lines.iter().map(|l| l[i].chars().count()).max();
            let label = matches!(self.rows.first().map(|r| &r[i]), Some(Value::Text(_)));
            (width.unwrap_or(0), label)
        });
        let columns: Vec<(usize, bool)> = columns.collect();
        let mut out = format!("## {}\n", self.title);
        for line in &lines {
            let cells = line.iter().zip(&columns).map(|(cell, &(w, label))| {
                if label {
                    format!("{cell:<w$}")
                } else {
                    format!("{cell:>w$}")
                }
            });
            out += cells.collect::<Vec<_>>().join("  ").trim_end();
            out.push('\n');
        }
        out
    }
}

/// The JSON rendering of `experiments`: one object keyed by experiment
/// id, each holding its title and one object per row keyed by column
/// name. Numbers keep every digit; a non-finite number becomes `null`.
pub fn json(experiments: &[Experiment]) -> String {
    let objects: Vec<String> = experiments
        .iter()
        .map(|e| {
            let rows: Vec<String> = e
                .rows
                .iter()
                .map(|row| {
                    let fields: Vec<String> = row
                        .iter()
                        .zip(&e.columns)
                        .map(|(v, c)| match v {
                            Value::Num(x) if x.is_finite() => format!("{}: {x}", json_str(c.name)),
                            Value::Num(_) => format!("{}: null", json_str(c.name)),
                            Value::Text(s) => format!("{}: {}", json_str(c.name), json_str(s)),
                        })
                        .collect();
                    format!("\n      {{{}}}", fields.join(", "))
                })
                .collect();
            let rows = if rows.is_empty() {
                String::new()
            } else {
                rows.join(",") + "\n    "
            };
            let (id, title) = (json_str(e.id), json_str(&e.title));
            format!("\n  {id}: {{\n    \"title\": {title},\n    \"rows\": [{rows}]\n  }}")
        })
        .collect();
    format!("{{{}\n}}\n", objects.join(","))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if u32::from(c) < 0x20 => out += &format!("\\u{:04x}", u32::from(c)),
            c => out.push(c),
        }
    }
    out + "\""
}

/// How an experiment runs: at a scale, fanning its points over a pool.
pub type Runner = fn(&ExpScale, &ExecPool) -> Result<Experiment, String>;

/// Every experiment, by name. `all` runs the first [`SUITE_LEN`]: the
/// paper's evaluation and the ablation and fault sweeps. Only `chaos`
/// can fail: its error names the cell that broke the oracle. `trace`
/// returns its summary; [`trace`] also returns the stream.
pub const EXPERIMENTS: [(&str, Runner); 14] = [
    ("table3", |s, _| Ok(table3(s))),
    ("fig10", |s, p| Ok(figure(10, s, p))),
    ("fig11", |s, p| Ok(figure(11, s, p))),
    ("fig12", |s, p| Ok(figure(12, s, p))),
    ("fig13", |s, p| Ok(figure(13, s, p))),
    ("fig14", |s, p| Ok(figure(14, s, p))),
    ("fig15", |s, p| Ok(figure(15, s, p))),
    ("latency", |s, p| Ok(latency(s, p))),
    ("m-sweep", |_, _| Ok(m_sweep())),
    ("prob", |s, p| Ok(probability_calibration(s, p))),
    ("ablations", |s, p| Ok(ablations(s, p))),
    ("faults", |s, p| Ok(faults(s, p))),
    ("chaos", chaos),
    ("trace", |s, _| Ok(trace(s).0)),
];

/// How many of [`EXPERIMENTS`], from the first, `all` runs.
pub const SUITE_LEN: usize = 12;

/// Runs the experiment called `name`.
pub fn run(name: &str, scale: &ExpScale, pool: &ExecPool) -> Result<Experiment, String> {
    let (_, runner) = EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown experiment {name:?}"))?;
    runner(scale, pool)
}

/// The usage line printed with every argument error.
pub const USAGE: &str = "usage: airshare-paper <table3|fig10|fig11|fig12|fig13|fig14|fig15|latency|prob|m-sweep|ablations|faults|chaos|trace|all>
                      [--scale quick|default|full] [--threads N] [--json PATH]";

/// A parsed `airshare-paper` command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// The experiments to run, in order.
    pub experiments: Vec<&'static str>,
    /// `--scale`, default `default`.
    pub scale: ExpScale,
    /// `--threads`, at least 1; default 1.
    pub threads: usize,
    /// `--json`: where to write every table run, if anywhere.
    pub json: Option<PathBuf>,
}

/// Why a command line was refused. The binary exits 2 on any of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No experiment was named.
    NoExperiment,
    /// The experiment name is not in [`EXPERIMENTS`], nor `all`.
    UnknownExperiment(String),
    /// A second experiment name, or a flag other than `--scale`,
    /// `--threads` and `--json`.
    Unexpected(String),
    /// A flag given as the last word, with no value after it.
    MissingValue(String),
    /// `--scale` named no scale.
    UnknownScale(String),
    /// `--threads` was not a positive integer.
    BadThreads(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::NoExperiment => write!(f, "no experiment named"),
            ArgError::UnknownExperiment(s) => write!(f, "unknown experiment {s:?}"),
            ArgError::Unexpected(s) => write!(f, "unexpected argument {s:?}"),
            ArgError::MissingValue(s) => write!(f, "{s} needs a value"),
            ArgError::UnknownScale(s) => write!(f, "--scale: unknown scale {s:?}"),
            ArgError::BadThreads(s) => write!(f, "--threads: {s:?} is not a positive integer"),
        }
    }
}

/// Parses the arguments after the program name.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
    let (mut experiments, mut scale, mut threads, mut json) = (None, ExpScale::DEFAULT, 1, None);
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if experiments.is_some() {
                return Err(ArgError::Unexpected(arg));
            }
            experiments = Some(match EXPERIMENTS.iter().find(|(n, _)| *n == arg) {
                Some((name, _)) => vec![*name],
                None if arg == "all" => EXPERIMENTS[..SUITE_LEN].iter().map(|e| e.0).collect(),
                None => return Err(ArgError::UnknownExperiment(arg)),
            });
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| ArgError::MissingValue(arg.clone()))?;
        match arg.as_str() {
            "--scale" => scale = ExpScale::named(&value).ok_or(ArgError::UnknownScale(value))?,
            "--threads" => match value.parse() {
                Ok(n) if n > 0 => threads = n,
                _ => return Err(ArgError::BadThreads(value)),
            },
            "--json" => json = Some(PathBuf::from(value)),
            _ => return Err(ArgError::Unexpected(arg)),
        }
    }
    let experiments = experiments.ok_or(ArgError::NoExperiment)?;
    Ok(Args {
        experiments,
        scale,
        threads,
        json,
    })
}

fn run_sim(cfg: SimConfig) -> SimReport {
    Simulation::try_new(cfg)
        .expect("experiment configs are valid by construction")
        .run()
}

/// Runs every point's simulation on `pool`, keeping each point's key.
/// `ExecPool::map` returns results in input order, so the output does
/// not depend on the thread count.
fn run_points<K: Send>(
    pool: &ExecPool,
    points: impl IntoIterator<Item = (K, SimConfig)>,
) -> Vec<(K, SimReport)> {
    pool.map(points.into_iter().collect(), |_, (key, cfg)| {
        (key, run_sim(cfg))
    })
}

/// The Table 3 parameter sets: the paper's values, then (below full
/// scale) the scaled values actually used.
fn table3(scale: &ExpScale) -> Experiment {
    let mut e = Experiment::new(
        "table3",
        "Table 3 — simulation parameter sets (area 1: the paper's; \
         below 1: scaled, densities preserved)",
        &[
            ("set", 0),
            ("area", 3),
            ("POIs", 0),
            ("MHs", 0),
            ("CSize", 0),
            ("Query/min", 1),
            ("TxRange", 0),
            ("kNN", 0),
            ("window%", 0),
            ("dist(mi)", 2),
        ],
    );
    let areas = if scale.area < 1.0 {
        vec![1.0, scale.area]
    } else {
        vec![1.0]
    };
    for area in areas {
        for p in params::all() {
            let s = if area < 1.0 { p.scaled(area) } else { p };
            e.push(row![
                s.name,
                area,
                s.poi_number,
                s.mh_number,
                s.cache_size,
                s.query_rate,
                s.tx_range_m,
                s.knn_k,
                s.window_pct,
                s.distance_mi,
            ]);
        }
    }
    e
}

/// The parameter a figure sweeps.
#[derive(Clone, Copy)]
enum Sweep {
    TxRange,
    Cache,
    K,
    Window,
}

impl Sweep {
    /// The x-axis caption, its column name and the values swept.
    fn axis(self, scale: &ExpScale) -> (&'static str, &'static str, &'static [f64]) {
        match self {
            Sweep::TxRange => ("transmission range (m)", "range(m)", scale.tx_grid),
            Sweep::Cache => (
                "cache capacity (POIs)",
                "cache",
                &[6.0, 12.0, 18.0, 24.0, 30.0],
            ),
            Sweep::K => ("k", "k", &[3.0, 6.0, 9.0, 12.0, 15.0]),
            Sweep::Window => (
                "window size (% of space)",
                "window%",
                &[1.0, 2.0, 3.0, 4.0, 5.0],
            ),
        }
    }

    fn apply(self, p: &mut ParamSet, x: f64) {
        match self {
            Sweep::TxRange => p.tx_range_m = x,
            Sweep::Cache => p.cache_size = x as usize,
            Sweep::K => p.knn_k = x as usize,
            Sweep::Window => p.window_pct = x,
        }
    }
}

/// Figure `n` (10–15): % of queries resolved by peers (verified, and for
/// kNN approximate) and by the broadcast channel as the figure's
/// parameter varies, per parameter set. The figure number is the seed.
fn figure(n: u64, scale: &ExpScale, pool: &ExecPool) -> Experiment {
    let (id, kind, sweep) = match n {
        10 => ("fig10", Knn, Sweep::TxRange),
        11 => ("fig11", Knn, Sweep::Cache),
        12 => ("fig12", Knn, Sweep::K),
        13 => ("fig13", Window, Sweep::TxRange),
        14 => ("fig14", Window, Sweep::Cache),
        _ => ("fig15", Window, Sweep::Window),
    };
    let (caption, xlabel, grid) = sweep.axis(scale);
    let mut points = Vec::new();
    for p in params::all() {
        for &x in grid {
            let mut cfg = scale.config(p, kind, n);
            sweep.apply(&mut cfg.params, x);
            points.push(((p.name, x), cfg));
        }
    }
    let title = format!("Figure {n} — ");
    let mut e = match kind {
        Knn => Experiment::new(
            id,
            title + "kNN queries resolved vs " + caption,
            &[
                ("set", 0),
                (xlabel, 0),
                ("SBNN%", 1),
                ("apprx%", 1),
                ("bcast%", 1),
            ],
        ),
        Window => Experiment::new(
            id,
            title + "window queries resolved vs " + caption,
            &[("set", 0), (xlabel, 0), ("SBWQ%", 1), ("bcast%", 1)],
        ),
    };
    for ((set, x), r) in run_points(pool, points) {
        let mut row = row![set, x, r.queries.pct_peers()];
        if kind == Knn {
            row.push(r.queries.pct_approx().into());
        }
        row.push(r.queries.pct_broadcast().into());
        e.push(row);
    }
    e
}

/// The paper's headline: access-latency reduction from sharing ("up to
/// 80 % in a dense urban area"), with the tuning time and the tail
/// latencies of broadcast-solved queries.
fn latency(scale: &ExpScale, pool: &ExecPool) -> Experiment {
    let mut e = Experiment::new(
        "latency",
        "Access latency & tuning: sharing vs pure on-air baseline",
        &[
            ("set", 0),
            ("shared lat", 1),
            ("on-air lat", 1),
            ("saved%", 1),
            ("tuning(bc)", 1),
            ("tuning(base)", 1),
            ("lat p95", 0),
            ("lat p99", 0),
            ("tun p95", 0),
        ],
    );
    let points = params::all().map(|p| (p.name, scale.config(p, Knn, 42)));
    for (set, r) in run_points(pool, points) {
        let shared = r.overall_mean_latency();
        let base = r.baseline_latency.mean();
        let saved = if base > 0.0 {
            100.0 * (1.0 - shared / base)
        } else {
            0.0
        };
        e.push(row![
            set,
            shared,
            base,
            saved,
            r.broadcast_tuning.mean(),
            r.baseline_tuning.mean(),
            r.broadcast_latency.percentiles().p95,
            r.broadcast_latency.percentiles().p99,
            r.broadcast_tuning.percentiles().p95,
        ]);
    }
    e
}

/// Validates Lemma 3.2: buckets approximate answers by their predicted
/// correctness probability and compares against ground truth, once with
/// the paper's unbounded-field estimator and once clipped to the world.
fn probability_calibration(scale: &ExpScale, pool: &ExecPool) -> Experiment {
    let mut e = Experiment::new(
        "prob",
        "Lemma 3.2 calibration — predicted e^(-λu) vs empirical accuracy \
         (unbounded: the paper's estimator; clipped: to the bounded world)",
        &[
            ("estimator", 0),
            ("pred lo", 2),
            ("pred hi", 2),
            ("n", 0),
            ("actual%", 1),
            ("wrong", 0),
            ("queries", 0),
        ],
    );
    let points = [("unbounded", false), ("clipped", true)].map(|(label, clip)| {
        let mut cfg = scale.config(params::la_city(), Knn, 77);
        cfg.validate = true;
        cfg.min_correctness = 0.05; // accept almost everything: we *want* risky answers
        cfg.clip_domain = clip;
        (label, cfg)
    });
    let edges = [0.05, 0.3, 0.5, 0.7, 0.85, 0.95, 1.000001];
    for (label, r) in run_points(pool, points) {
        for w in edges.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let in_bin = r.calibration.iter().filter(|(p, _)| *p >= lo && *p < hi);
            let (n, ok) = in_bin.fold((0usize, 0usize), |(n, ok), &(_, hit)| {
                (n + 1, ok + usize::from(hit))
            });
            let accuracy = if n == 0 { 0.0 } else { ok as f64 / n as f64 };
            let (wrong, queries) = (r.exact_mismatches, r.queries.total);
            e.push(row![
                label,
                lo,
                hi.min(1.0),
                n,
                100.0 * accuracy,
                wrong,
                queries
            ]);
        }
    }
    e
}

/// Every design-choice ablation DESIGN.md calls out, on the suburbia set
/// (mid density): the share solved without the channel, the channel cost
/// of the rest, and ground-truth mismatches (meaningful for the VR row).
fn ablations(scale: &ExpScale, pool: &ExecPool) -> Experiment {
    use ReplacementPolicy::{DistanceOnly, Lru};
    type Variant = (&'static str, QueryKind, fn(&mut SimConfig));
    let variants: [Variant; 13] = [
        ("baseline (paper defaults)", Knn, |_| {}),
        ("bound filtering OFF (§3.3.3)", Knn, |c| {
            c.use_bound_filtering = false
        }),
        ("cache policy: distance only", Knn, |c| {
            c.policy = DistanceOnly
        }),
        ("cache policy: LRU", Knn, |c| c.policy = Lru),
        ("own cache excluded from MVR", Knn, |c| {
            c.use_own_cache = false
        }),
        ("anti-fragmentation OFF", Knn, |c| c.subsume_overlap = 1.0),
        ("UNSOUND circumscribed-MBR VRs", Knn, |c| {
            c.vr_policy = VrPolicy::CircumscribedMbr
        }),
        ("grid-road mobility", Knn, |c| {
            c.mobility = MobilityModel::GridRoads {
                spacing_milli_mi: 250,
            }
        }),
        ("2-hop sharing (extension)", Knn, |c| c.p2p_hops = 2),
        // The alternative air index answers the same queries exactly;
        // what moves is the channel cost (buckets, tuning) of the
        // broadcast share.
        ("air index: STR R-tree", Knn, |c| {
            c.backend = BackendKind::Rtree
        }),
        ("window: reduction ON (§3.4.2)", Window, |_| {}),
        ("window: reduction OFF", Window, |c| {
            c.use_window_reduction = false
        }),
        ("window: air index STR R-tree", Window, |c| {
            c.backend = BackendKind::Rtree
        }),
    ];
    let points = variants.map(|(label, kind, change)| {
        let mut c = scale.config(params::synthetic_suburbia(), kind, 1);
        c.validate = true;
        if kind == Knn {
            // A tight cache so replacement actually happens — at CSize =
            // 50 the scaled world rarely evicts and every policy looks
            // alike.
            c.params.cache_size = 8;
        }
        change(&mut c);
        (label, c)
    });
    let mut e = Experiment::new(
        "ablations",
        "Ablations (Synthetic Suburbia, kNN unless noted)",
        &[
            ("config", 0),
            ("peers%", 1),
            ("buckets", 2),
            ("tuning", 1),
            ("wrong", 0),
        ],
    );
    for (label, r) in run_points(pool, points) {
        let peers = r.queries.pct_peers() + r.queries.pct_approx();
        let (buckets, tuning) = (r.broadcast_buckets.mean(), r.broadcast_tuning.mean());
        e.push(row![label, peers, buckets, tuning, r.exact_mismatches]);
    }
    e
}

/// Sweeps the broadcast bucket-loss probability from 0 to 20 % (with a
/// matching peer-drop rate) and reports how access latency, retries, and
/// degradation respond. Validation stays on for every point: the sweep
/// doubles as the "never silently wrong" check — lost data must surface
/// as retries or degraded queries, not as wrong exact answers.
fn faults(scale: &ExpScale, pool: &ExecPool) -> Experiment {
    let points = [0.0, 2.0, 5.0, 10.0, 15.0, 20.0].map(|loss_pct| {
        let loss = loss_pct / 100.0;
        let mut cfg = scale.config(params::synthetic_suburbia(), Knn, 99);
        cfg.validate = true;
        cfg.faults.bucket_loss_prob = loss;
        cfg.faults.peer_drop_prob = loss / 2.0;
        cfg.faults.retry_budget = 8;
        (loss_pct, cfg)
    });
    let mut e = Experiment::new(
        "faults",
        "Fault sweep — bucket loss 0–20 % (Synthetic Suburbia, kNN)",
        &[
            ("loss%", 0),
            ("latency", 1),
            ("tuning", 1),
            ("retries", 0),
            ("lost", 0),
            ("degraded", 0),
            ("dropped", 0),
            ("wrong", 0),
        ],
    );
    for (loss_pct, r) in run_points(pool, points) {
        let f = &r.faults;
        e.push(row![
            loss_pct,
            r.overall_mean_latency(),
            r.broadcast_tuning.mean(),
            f.retries_total,
            f.buckets_lost_total,
            f.queries_degraded,
            f.replies_dropped,
            r.exact_mismatches,
        ]);
    }
    e
}

/// Runs one small kNN simulation with a [`airshare_obs::JsonlTraceRecorder`]
/// attached. Returns a one-row summary and the per-query event trace as
/// JSONL (one JSON object per line). The stream is byte-deterministic
/// for a fixed config and seed, so CI pins its hash and diffing two runs
/// answers "what changed".
pub fn trace(scale: &ExpScale) -> (Experiment, String) {
    let cfg = scale.config(params::synthetic_suburbia(), Knn, 7);
    let mut rec = airshare_obs::JsonlTraceRecorder::new();
    let r = Simulation::try_new(cfg)
        .expect("experiment configs are valid by construction")
        .run_with(&mut rec);
    let mut e = Experiment::new(
        "trace",
        "Query trace (Synthetic Suburbia, kNN): JSONL events on stdout",
        &[
            ("events", 0),
            ("queries", 0),
            ("peers%", 1),
            ("approx%", 1),
            ("bcast%", 1),
        ],
    );
    let q = &r.queries;
    e.push(row![
        rec.lines(),
        q.total,
        q.pct_peers(),
        q.pct_approx(),
        q.pct_broadcast()
    ]);
    (e, rec.into_string())
}

/// Sweeps the `(1, m)` replication factor on a static channel (no
/// mobility needed), reproducing the Figure 2 trade-off: more index
/// copies shorten the probe wait and lengthen the cycle. Beside the
/// measured probe wait sits its closed form (Imielinski et al.): with
/// `D` data and `I` index buckets the cycle is `L = D + m·I`, an index
/// segment starts every `L/m` ticks, and a uniformly random tune-in waits
/// `(L/m − 1)/2` ticks on average.
fn m_sweep() -> Experiment {
    use airshare_broadcast::{AirIndex, OnAirClient, Poi, QueryScratch, Schedule};
    use airshare_geom::{Point, Rect};
    use airshare_hilbert::Grid;
    use airshare_obs::NoopRecorder;
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
    let index =
        AirIndex::try_build(pois, Grid::new(world, 8), 10).expect("a fixed 2,750-POI world builds");
    let q = Point::new(10.0, 10.0);

    let mut e = Experiment::new(
        "m-sweep",
        "(1, m) index replication sweep (LA City data file)",
        &[
            ("m", 0),
            ("cycle", 0),
            ("probe wait", 1),
            ("expected wait", 1),
            ("latency", 1),
            ("tuning", 1),
        ],
    );
    for m in [1usize, 2, 4, 8, 16] {
        let schedule = Schedule::try_for_backend(&index, m).expect("m >= 1");
        let client = OnAirClient::new(&index, &schedule);
        let cycle = schedule.cycle_len();
        let samples = 512u64;
        let (mut probe, mut lat, mut tun) = (0u64, 0u64, 0u64);
        let mut scratch = QueryScratch::new();
        for i in 0..samples {
            let t = i * cycle / samples;
            probe += schedule.next_index_start(t) - t;
            let res = client
                .knn_rec(t, q, 5, &mut scratch, &mut NoopRecorder)
                .expect("enough POIs");
            lat += res.stats.latency;
            tun += res.stats.tuning;
        }
        let mean = |total: u64| total as f64 / samples as f64;
        let expected = (cycle as f64 / m as f64 - 1.0) / 2.0;
        e.push(row![m, cycle, mean(probe), expected, mean(lat), mean(tun)]);
    }
    e
}

/// Sweeps host churn against broadcast outages on a 3×3 grid (with a
/// small peer-malform rate throughout, so quarantine is exercised) and
/// reports the per-quality answer counts plus the recovery counters.
///
/// Validation stays on for every cell and the chaos oracle is checked on
/// each: non-`Exact` answers respect their declared bound, `Exact`
/// answers match ground truth, the calm cell serves every query `Exact`,
/// outages degrade service and are recovered from, and churn crashes and
/// restarts hosts. The first cell that breaks it is the error.
fn chaos(scale: &ExpScale, pool: &ExecPool) -> Result<Experiment, String> {
    let mut points = Vec::new();
    for crash_pct in [0.0, 1.0, 3.0] {
        for outage_pct in [0.0, 15.0, 30.0] {
            let crash_prob = crash_pct / 100.0;
            let mut cfg = scale.config(params::synthetic_suburbia(), Knn, 4242);
            cfg.validate = true;
            cfg.faults.peer_malform_prob = 0.05;
            cfg.churn = ChurnConfig {
                crash_prob,
                restart_prob: 0.3,
                late_join_frac: if crash_prob > 0.0 { 0.1 } else { 0.0 },
            };
            cfg.outages = outage_windows(&cfg, outage_pct / 100.0);
            points.push(((crash_pct, outage_pct), cfg));
        }
    }
    let mut e = Experiment::new(
        "chaos",
        "Chaos sweep — churn × outage (Synthetic Suburbia, kNN)",
        &[
            ("crash%", 0),
            ("outage%", 0),
            ("exact", 0),
            ("degraded", 0),
            ("stale", 0),
            ("failed", 0),
            ("stale-age", 2),
            ("crashes", 0),
            ("restart", 0),
            ("resyncs", 0),
            ("strikes", 0),
            ("wrong", 0),
            ("violations", 0),
            ("max-age", 2),
            ("quarantined", 0),
        ],
    );
    for ((crash, outage), r) in run_points(pool, points) {
        let q = &r.quality;
        let calm = crash == 0.0 && outage == 0.0;
        let checks = [
            (
                r.bound_violations == 0,
                "a non-exact answer broke its bound",
            ),
            (r.exact_mismatches == 0, "an exact answer was wrong"),
            (!calm || q.stale == 0, "stale answers without an outage"),
            (!calm || q.failed == 0, "failed answers without an outage"),
            (!calm || r.hosts_crashed == 0, "crashes with churn disabled"),
            (
                outage == 0.0 || q.stale + q.failed > 0,
                "the outage degraded no service",
            ),
            (
                outage == 0.0 || r.outage_resyncs > 0,
                "nobody resynced after the outage",
            ),
            (
                crash == 0.0 || r.hosts_crashed > 0,
                "the crash rate crashed nobody",
            ),
            (
                crash == 0.0 || r.hosts_restarted > 0,
                "crashes were never followed by restarts",
            ),
        ];
        if let Some((_, what)) = checks.iter().find(|(ok, _)| !ok) {
            return Err(format!(
                "chaos oracle: {what} at crash {crash}% outage {outage}%"
            ));
        }
        e.push(row![
            crash,
            outage,
            q.exact,
            q.degraded,
            q.stale,
            q.failed,
            r.mean_stale_age_min(),
            r.hosts_crashed,
            r.hosts_restarted,
            r.outage_resyncs,
            r.faults.quarantine_strikes,
            r.exact_mismatches,
            r.bound_violations,
            r.stale_age_min_max,
            r.faults.peers_quarantined,
        ]);
    }
    Ok(e)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, ArgError> {
        parse_args(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn every_experiment_and_scale_parses() {
        for (name, _) in EXPERIMENTS {
            let a = args(&[name]).expect(name);
            assert_eq!(a.experiments, vec![name]);
            assert_eq!((a.scale, a.threads, a.json), (ExpScale::DEFAULT, 1, None));
        }
        let all = args(&["all"]).unwrap().experiments;
        assert_eq!(all.len(), SUITE_LEN);
        assert!(!all.contains(&"chaos") && !all.contains(&"trace"));
        for scale in [ExpScale::QUICK, ExpScale::DEFAULT, ExpScale::FULL] {
            let a = args(&["--scale", scale.name, "fig10"]).expect(scale.name);
            assert_eq!(a.scale, scale);
        }
        let a = args(&["chaos", "--threads", "2", "--json", "out.json"]).unwrap();
        assert_eq!((a.threads, a.json), (2, Some(PathBuf::from("out.json"))));
    }

    #[test]
    fn bad_command_lines_are_typed_errors() {
        use ArgError::*;
        let cases: &[(&[&str], ArgError)] = &[
            (&[], NoExperiment),
            (&["--scale", "quick"], NoExperiment),
            (&["fig16"], UnknownExperiment("fig16".into())),
            (&["fig10", "fig11"], Unexpected("fig11".into())),
            (
                &["fig10", "--backend", "rtree"],
                Unexpected("--backend".into()),
            ),
            (&["fig10", "--scale", "tenth"], UnknownScale("tenth".into())),
            (&["fig10", "--threads", "0"], BadThreads("0".into())),
            (&["fig10", "--threads", "x"], BadThreads("x".into())),
            (&["fig10", "--threads", "-1"], BadThreads("-1".into())),
            (&["fig10", "--threads"], MissingValue("--threads".into())),
            (&["fig10", "--json"], MissingValue("--json".into())),
            (&["fig10", "--scale"], MissingValue("--scale".into())),
        ];
        for (words, want) in cases {
            assert_eq!(args(words).as_ref(), Err(want), "{words:?}");
        }
    }

    fn sample() -> Experiment {
        let mut e = Experiment::new(
            "faults",
            "A \"small\" table",
            &[("set", 0), ("x", 1), ("n", 0)],
        );
        e.push(row!["LA City", 1.25, 3usize]);
        e.push(row!["Riverside", f64::NAN, 40usize]);
        e.push(row!["Suburbia", f64::INFINITY, 5usize]);
        e
    }

    #[test]
    fn text_renderer_prints_a_title_a_header_and_one_line_per_row() {
        assert_eq!(
            sample().text(),
            "## A \"small\" table\n\
             set          x   n\n\
             LA City    1.2   3\n\
             Riverside  NaN  40\n\
             Suburbia   inf   5\n"
        );
    }

    #[test]
    fn json_renderer_keys_each_row_by_column_and_nulls_non_finite_values() {
        let mut empty = Experiment::new("trace", "none", &[("a", 0)]);
        assert_eq!(json(&[]), "{\n}\n");
        let doc = json(&[sample(), empty.clone()]);
        assert_eq!(
            doc,
            "{\n  \"faults\": {\n    \"title\": \"A \\\"small\\\" table\",\n    \"rows\": [\n      \
             {\"set\": \"LA City\", \"x\": 1.25, \"n\": 3},\n      \
             {\"set\": \"Riverside\", \"x\": null, \"n\": 40},\n      \
             {\"set\": \"Suburbia\", \"x\": null, \"n\": 5}\n    ]\n  },\n  \
             \"trace\": {\n    \"title\": \"none\",\n    \"rows\": []\n  }\n}\n"
        );
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
        empty.push(row![0.1 + 0.2]);
        assert!(json(&[empty]).contains("{\"a\": 0.30000000000000004}"));
    }

    #[test]
    fn m_sweep_probe_wait_falls_strictly_as_index_copies_grow() {
        let e = m_sweep();
        let column = |name: &str| -> Vec<f64> {
            let i = e.columns.iter().position(|c| c.name == name).expect(name);
            let num = |v: &Value| match v {
                Value::Num(x) => *x,
                Value::Text(_) => panic!("{name} is numeric"),
            };
            e.rows.iter().map(|r| num(&r[i])).collect()
        };
        assert_eq!(column("m"), [1.0, 2.0, 4.0, 8.0, 16.0]);
        let wait = column("probe wait");
        assert!(wait.windows(2).all(|w| w[1] < w[0]), "probe wait {wait:?}");
    }

    /// The sweep takes no scale, so this is the `--scale quick` table:
    /// every measured probe wait is within 2 % of `(L/m − 1)/2`.
    #[test]
    fn m_sweep_probe_wait_matches_its_closed_form() {
        let e = m_sweep();
        let at = |name: &str| e.columns.iter().position(|c| c.name == name).expect(name);
        let (m, cycle, wait, expected) =
            (at("m"), at("cycle"), at("probe wait"), at("expected wait"));
        for row in &e.rows {
            let num = |i: usize| match row[i] {
                Value::Num(x) => x,
                Value::Text(_) => panic!("column {i} is numeric"),
            };
            assert_eq!(num(expected), (num(cycle) / num(m) - 1.0) / 2.0);
            let gap = (num(wait) - num(expected)).abs() / num(expected);
            assert!(
                gap < 0.02,
                "m = {}: measured {} vs expected {}",
                num(m),
                num(wait),
                num(expected)
            );
        }
    }
}
