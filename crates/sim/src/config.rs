//! Simulation configuration (the knobs of Table 4 plus ablation flags).

use crate::ParamSet;
use airshare_broadcast::ChannelFaults;
use airshare_cache::ReplacementPolicy;
use airshare_core::VrPolicy;
use std::fmt;

/// A [`SimConfig`] the simulator refuses to run. Every variant names a
/// knob that would otherwise panic (or silently produce nonsense) deep
/// inside a substrate crate; `Simulation::try_new` surfaces them here
/// instead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `bucket_capacity == 0`.
    ZeroBucketCapacity,
    /// `index_m == 0`.
    ZeroIndexReplication,
    /// Hilbert order outside `1..=31`.
    BadHilbertOrder(u32),
    /// World side length is non-positive or non-finite.
    BadWorldSide(f64),
    /// No mobile hosts to simulate.
    NoHosts,
    /// Per-host query rate is non-positive or non-finite.
    BadQueryRate(f64),
    /// `params.speed_scale` is non-positive or non-finite: every host's
    /// speed range is multiplied by it. Carries the offending value.
    BadSpeedScale(f64),
    /// Transmission range is negative or non-finite (`0.0` is legal: it
    /// disables sharing). Carries the offending value.
    BadTxRange(f64),
    /// `p2p_hops == 0`: a share request that travels no hop reaches
    /// nobody (`tx_range_m = 0.0` is the knob that disables sharing).
    ZeroP2pHops,
    /// `MobilityModel::GridRoads { spacing_milli_mi: 0 }`: a street grid
    /// needs a positive pitch.
    ZeroRoadSpacing,
    /// `ticks_per_min == 0` (no channel time would ever pass).
    ZeroTicksPerMinute,
    /// A duration knob (`measure_min` / `warmup_min`) is negative or
    /// non-finite. Carries the knob name.
    BadDuration(&'static str),
    /// `knn_k == 0` on a kNN workload: the channel fallback can never
    /// answer a 0-NN query.
    ZeroKnnK,
    /// `knn_k` above `poi_number` on a kNN workload: the channel cannot
    /// return more neighbors than the world holds, and every query would
    /// be graded an outage failure. Carries `(knn_k, poi_number)`.
    KnnKAbovePois(usize, usize),
    /// `params.window_pct` is negative or non-finite on a window
    /// workload. Carries the offending value.
    BadWindowPct(f64),
    /// `params.distance_mi` is non-finite on a window workload. Carries
    /// the offending value.
    BadWindowDistance(f64),
    /// `epoch_min` is non-positive or non-finite: the epoch-sharded
    /// engine needs a positive epoch length to group events. Carries the
    /// offending value.
    BadEpoch(f64),
    /// A probability knob is outside `[0, 1]` or non-finite. Carries the
    /// knob name and offending value.
    BadProbability(&'static str, f64),
    /// An outage window is inverted or empty (`start >= end`). Carries
    /// the offending `(start, end)` pair.
    BadOutageWindow(u64, u64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroBucketCapacity => write!(f, "bucket_capacity must be ≥ 1"),
            ConfigError::ZeroIndexReplication => write!(f, "index_m must be ≥ 1"),
            ConfigError::BadHilbertOrder(o) => {
                write!(f, "hilbert_order must be in 1..=31, got {o}")
            }
            ConfigError::BadWorldSide(s) => {
                write!(f, "params.world_mi must be positive and finite, got {s}")
            }
            ConfigError::NoHosts => write!(f, "params.mh_number must be ≥ 1"),
            ConfigError::BadQueryRate(r) => {
                write!(f, "params.query_rate must be positive and finite, got {r}")
            }
            ConfigError::BadSpeedScale(v) => {
                write!(f, "params.speed_scale must be positive and finite, got {v}")
            }
            ConfigError::BadTxRange(r) => {
                write!(
                    f,
                    "params.tx_range_m must be non-negative and finite, got {r}"
                )
            }
            ConfigError::ZeroP2pHops => write!(f, "p2p_hops must be ≥ 1"),
            ConfigError::ZeroRoadSpacing => {
                write!(f, "mobility GridRoads spacing_milli_mi must be ≥ 1")
            }
            ConfigError::ZeroTicksPerMinute => write!(f, "ticks_per_min must be ≥ 1"),
            ConfigError::BadDuration(name) => {
                write!(f, "{name} must be non-negative and finite")
            }
            ConfigError::ZeroKnnK => write!(f, "params.knn_k must be ≥ 1 for kNN workloads"),
            ConfigError::KnnKAbovePois(k, pois) => {
                write!(
                    f,
                    "params.knn_k ({k}) must not exceed params.poi_number ({pois})"
                )
            }
            ConfigError::BadWindowPct(v) => {
                write!(
                    f,
                    "params.window_pct must be non-negative and finite, got {v}"
                )
            }
            ConfigError::BadWindowDistance(v) => {
                write!(f, "params.distance_mi must be finite, got {v}")
            }
            ConfigError::BadEpoch(v) => {
                write!(f, "epoch_min must be positive and finite, got {v}")
            }
            ConfigError::BadProbability(name, v) => {
                write!(f, "{name} must be a probability in [0, 1], got {v}")
            }
            ConfigError::BadOutageWindow(s, e) => {
                write!(f, "outage window must satisfy start < end, got [{s}, {e})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fault-injection knobs. All rates default to zero, which makes the
/// fault layer inert: a run with an inert `FaultConfig` is bit-identical
/// to one without the layer (decisions are hashed from the fault seed
/// rather than drawn from the simulation's RNG stream, so no other
/// randomness shifts).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Per-appearance bucket loss probability on the broadcast channel
    /// (a bucket whose frame the receiver could not use).
    pub bucket_loss_prob: f64,
    /// Probability that a contacted peer's share reply is lost.
    pub peer_drop_prob: f64,
    /// Probability that a contacted peer's share reply arrives
    /// structurally malformed (and, with quarantine active, gets the
    /// peer struck).
    pub peer_malform_prob: f64,
    /// Re-fetch attempts allowed per lost bucket before the query is
    /// reported degraded. Budget `N` means up to `N` re-fetches *after*
    /// the free first appearance (`N + 1` appearances examined in
    /// total); 0 means single-shot.
    pub retry_budget: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            bucket_loss_prob: 0.0,
            peer_drop_prob: 0.0,
            peer_malform_prob: 0.0,
            // Inert until a rate is raised; three retries is a sane
            // starting budget once one is.
            retry_budget: 3,
        }
    }
}

impl FaultConfig {
    /// Whether every fault source is disabled.
    pub fn is_inert(&self) -> bool {
        self.bucket_loss_prob <= 0.0 && self.peer_drop_prob <= 0.0 && self.peer_malform_prob <= 0.0
    }

    /// Builds the deterministic decision source for a run. `seed` should
    /// derive from the master simulation seed so runs stay reproducible.
    pub fn channel_faults(&self, seed: u64) -> ChannelFaults {
        ChannelFaults::from_loss_prob(seed, self.bucket_loss_prob, self.retry_budget)
    }
}

/// Host-churn knobs: crashes, restarts, and late joiners, all decided
/// per `(host, epoch)` by seeded hashing so the schedule is a pure
/// function of the master seed. The default (all zeros) is inert — the
/// whole fleet is online from epoch 0 to the end, bit-identical to a
/// run without the churn layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChurnConfig {
    /// Per-epoch probability that an online host crashes at the next
    /// epoch boundary. A crash wipes the host's volatile state (cache,
    /// quarantine ledger, channel sync) and takes it off the air.
    pub crash_prob: f64,
    /// Per-epoch probability that a crashed host comes back online at
    /// the next epoch boundary (cold: empty cache, needs resync).
    pub restart_prob: f64,
    /// Fraction of the fleet that starts *offline* and joins at a
    /// seeded epoch mid-run (late joiners). The fleet size is fixed;
    /// this carves the tail of the host array into deferred admissions.
    pub late_join_frac: f64,
}

impl ChurnConfig {
    /// Whether churn is disabled entirely (every host online for the
    /// whole run).
    pub fn is_inert(&self) -> bool {
        self.crash_prob <= 0.0 && self.late_join_frac <= 0.0
    }
}

/// Which air-index backend the base station broadcasts
/// (see `airshare_broadcast::AirIndexBackend`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The paper's Hilbert-curve `(1, m)` index
    /// (`airshare_broadcast::AirIndex`).
    #[default]
    Hilbert,
    /// The on-air R-tree (`airshare_broadcast::RtreeAirIndex`): STR
    /// bulk-loaded leaves as data buckets, internal nodes as index
    /// buckets.
    Rtree,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Hilbert => "hilbert",
            BackendKind::Rtree => "rtree",
        })
    }
}

/// A backend name that matched no [`BackendKind`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBackendError {
    /// The offending input, as given.
    pub input: String,
}

impl std::fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown backend {:?} (expected \"hilbert\" or \"rtree\")",
            self.input
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl std::str::FromStr for BackendKind {
    type Err = ParseBackendError;

    /// Parses a backend name as the serve binary and `exp_*` tools
    /// accept it from CLI/env: case-insensitive, surrounding whitespace
    /// ignored, `"r-tree"` tolerated as an alias.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "hilbert" => Ok(BackendKind::Hilbert),
            "rtree" | "r-tree" => Ok(BackendKind::Rtree),
            _ => Err(ParseBackendError {
                input: s.to_string(),
            }),
        }
    }
}

/// Which spatial query type the workload issues (the paper evaluates kNN
/// and window queries in separate experiments, §4.2 / §4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// k-nearest-neighbor queries (SBNN).
    Knn,
    /// Window queries (SBWQ).
    Window,
}

/// Which mobility model moves the hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MobilityModel {
    /// Random waypoint in free space (the paper's base model).
    RandomWaypoint,
    /// Waypoints constrained to a synthetic Manhattan street grid with
    /// the given spacing in miles.
    GridRoads {
        /// Street pitch in thousandths of a mile (integer so the config
        /// stays `Eq`/hashable); 250 = 0.25 mi blocks.
        spacing_milli_mi: u32,
    },
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The Table 3 parameter set (possibly scaled).
    pub params: ParamSet,
    /// Workload type.
    pub query_kind: QueryKind,
    /// Master seed; every run is deterministic given it.
    pub seed: u64,
    /// Minutes of simulated time to run *after* warm-up.
    pub measure_min: f64,
    /// Warm-up minutes before measurement starts (the paper records
    /// "after the system model reached steady state").
    pub warmup_min: f64,
    /// Broadcast ticks per simulated minute (bucket airtime ⇒ channel
    /// bit-rate). 6000 ≈ 100 one-KB buckets per second on ~0.8 Mbps.
    pub ticks_per_min: u64,
    /// POIs per broadcast bucket.
    pub bucket_capacity: usize,
    /// `(1, m)` index replication factor.
    pub index_m: usize,
    /// Hilbert curve order for the air index.
    pub hilbert_order: u32,
    /// Which air-index backend the broadcast channel carries.
    pub backend: BackendKind,
    /// Cache replacement policy.
    pub policy: ReplacementPolicy,
    /// Anti-fragmentation overlap threshold (see
    /// `HostCache::with_subsume_overlap`); 1.0 disables it.
    pub subsume_overlap: f64,
    /// Verified-region construction for peer-answered kNN queries
    /// (sound inscribed square vs the paper's looser circumscribed MBR).
    pub vr_policy: VrPolicy,
    /// Clip Lemma 3.2's unverified areas to the bounded world. The
    /// paper's estimator assumes an unbounded Poisson field (no
    /// clipping); in a scaled-down world clipping is *more accurate* but
    /// boosts approximate acceptance far beyond the paper's regime,
    /// because the edge zone dominates a small world. Default off for
    /// figure fidelity; `airshare-paper prob` calibrates both estimators.
    pub clip_domain: bool,
    /// Hosts accept approximate kNN answers above `min_correctness`.
    pub accept_approx: bool,
    /// Correctness threshold for approximate acceptance (paper: 0.5).
    pub min_correctness: f64,
    /// Apply §3.3.3 bound filtering on broadcast fallback.
    pub use_bound_filtering: bool,
    /// Apply §3.4.2 window reduction on broadcast fallback.
    pub use_window_reduction: bool,
    /// Merge the querying host's own cache into the MVR.
    pub use_own_cache: bool,
    /// How many wireless hops the share request travels (1 = the paper's
    /// single-hop exchange; >1 enables the multi-hop extension).
    pub p2p_hops: usize,
    /// Mobility model.
    pub mobility: MobilityModel,
    /// Epoch length in minutes: the neighbor grid is rebuilt and cache
    /// writes become visible to peers at each epoch boundary. Within an
    /// epoch every host observes the same committed snapshot, which is
    /// what makes `Simulation::run_parallel` bit-identical to the
    /// sequential run. Must be positive and finite.
    pub epoch_min: f64,
    /// Cross-check every resolved query against the R-tree oracle and
    /// count mismatches (slower; used by tests and the Lemma 3.2
    /// experiment).
    pub validate: bool,
    /// Fault injection (lossy channel, flaky peers). Inert by default.
    pub faults: FaultConfig,
    /// Host churn (crashes, restarts, late joiners). Inert by default.
    pub churn: ChurnConfig,
    /// Base-station outage windows as half-open `[start, end)` *epoch*
    /// ranges: the broadcast channel is silent for every query whose
    /// event falls in a listed epoch. Empty by default (always live).
    pub outages: Vec<(u64, u64)>,
}

impl SimConfig {
    /// The paper's defaults for a parameter set and workload, at a given
    /// seed. Measurement spans the configured `t_execution_hr` with a
    /// fixed warm-up.
    pub fn paper_defaults(params: ParamSet, query_kind: QueryKind, seed: u64) -> Self {
        Self {
            measure_min: params.t_execution_hr * 60.0,
            params,
            query_kind,
            seed,
            warmup_min: 30.0,
            ticks_per_min: 6000,
            bucket_capacity: 10,
            index_m: 4,
            hilbert_order: 8,
            backend: BackendKind::Hilbert,
            policy: ReplacementPolicy::DirectionDistance,
            subsume_overlap: 0.75,
            vr_policy: VrPolicy::InscribedBall,
            clip_domain: false,
            accept_approx: true,
            min_correctness: 0.5,
            use_bound_filtering: true,
            use_window_reduction: true,
            use_own_cache: true,
            p2p_hops: 1,
            mobility: MobilityModel::RandomWaypoint,
            epoch_min: 0.25,
            validate: false,
            faults: FaultConfig::default(),
            churn: ChurnConfig::default(),
            outages: Vec::new(),
        }
    }

    /// Total simulated minutes (warm-up + measurement).
    pub fn total_min(&self) -> f64 {
        self.warmup_min + self.measure_min
    }

    /// Checks every knob a panic deep inside a substrate crate would
    /// otherwise punish. `Simulation::try_new` calls this; run it
    /// directly to validate externally-sourced configurations early.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.bucket_capacity == 0 {
            return Err(ConfigError::ZeroBucketCapacity);
        }
        if self.index_m == 0 {
            return Err(ConfigError::ZeroIndexReplication);
        }
        if !(1..=31).contains(&self.hilbert_order) {
            return Err(ConfigError::BadHilbertOrder(self.hilbert_order));
        }
        let side = self.params.world_mi;
        if !(side.is_finite() && side > 0.0) {
            return Err(ConfigError::BadWorldSide(side));
        }
        if self.params.mh_number == 0 {
            return Err(ConfigError::NoHosts);
        }
        let rate = self.params.query_rate;
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ConfigError::BadQueryRate(rate));
        }
        let speed = self.params.speed_scale;
        if !(speed.is_finite() && speed > 0.0) {
            return Err(ConfigError::BadSpeedScale(speed));
        }
        let range = self.params.tx_range_m;
        if !(range.is_finite() && range >= 0.0) {
            return Err(ConfigError::BadTxRange(range));
        }
        if self.p2p_hops == 0 {
            return Err(ConfigError::ZeroP2pHops);
        }
        if self.mobility
            == (MobilityModel::GridRoads {
                spacing_milli_mi: 0,
            })
        {
            return Err(ConfigError::ZeroRoadSpacing);
        }
        if self.ticks_per_min == 0 {
            return Err(ConfigError::ZeroTicksPerMinute);
        }
        for (name, v) in [
            ("measure_min", self.measure_min),
            ("warmup_min", self.warmup_min),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(ConfigError::BadDuration(name));
            }
        }
        if !(self.epoch_min.is_finite() && self.epoch_min > 0.0) {
            return Err(ConfigError::BadEpoch(self.epoch_min));
        }
        let p = &self.params;
        match self.query_kind {
            QueryKind::Knn if p.knn_k == 0 => return Err(ConfigError::ZeroKnnK),
            QueryKind::Knn if p.knn_k > p.poi_number => {
                return Err(ConfigError::KnnKAbovePois(p.knn_k, p.poi_number))
            }
            QueryKind::Window if !(p.window_pct.is_finite() && p.window_pct >= 0.0) => {
                return Err(ConfigError::BadWindowPct(p.window_pct))
            }
            QueryKind::Window if !p.distance_mi.is_finite() => {
                return Err(ConfigError::BadWindowDistance(p.distance_mi))
            }
            _ => {}
        }
        for (name, v) in [
            ("min_correctness", self.min_correctness),
            ("faults.bucket_loss_prob", self.faults.bucket_loss_prob),
            ("faults.peer_drop_prob", self.faults.peer_drop_prob),
            ("faults.peer_malform_prob", self.faults.peer_malform_prob),
            ("churn.crash_prob", self.churn.crash_prob),
            ("churn.restart_prob", self.churn.restart_prob),
            ("churn.late_join_frac", self.churn.late_join_frac),
        ] {
            if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                return Err(ConfigError::BadProbability(name, v));
            }
        }
        for &(s, e) in &self.outages {
            if s >= e {
                return Err(ConfigError::BadOutageWindow(s, e));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params;

    #[test]
    fn backend_kind_parses_and_displays() {
        assert_eq!("hilbert".parse::<BackendKind>(), Ok(BackendKind::Hilbert));
        assert_eq!(" RTree\n".parse::<BackendKind>(), Ok(BackendKind::Rtree));
        assert_eq!("r-tree".parse::<BackendKind>(), Ok(BackendKind::Rtree));
        for kind in [BackendKind::Hilbert, BackendKind::Rtree] {
            assert_eq!(kind.to_string().parse::<BackendKind>(), Ok(kind));
        }
        let err = "quadtree".parse::<BackendKind>().unwrap_err();
        assert_eq!(err.input, "quadtree");
        let msg = err.to_string();
        assert!(msg.contains("quadtree") && msg.contains("hilbert") && msg.contains("rtree"));
    }

    #[test]
    fn defaults_track_param_set() {
        let cfg = SimConfig::paper_defaults(params::la_city(), QueryKind::Knn, 1);
        assert_eq!(cfg.measure_min, 600.0);
        assert!(cfg.accept_approx);
        assert_eq!(cfg.min_correctness, 0.5);
    }

    #[test]
    fn fault_config_defaults_are_inert_and_compose() {
        let f = FaultConfig::default();
        assert!(f.is_inert());
        let lossy = FaultConfig {
            bucket_loss_prob: 0.1,
            ..FaultConfig::default()
        };
        assert!(!lossy.is_inert());
        // Peer drops alone also de-inert the config.
        let flaky = FaultConfig {
            peer_drop_prob: 0.2,
            ..FaultConfig::default()
        };
        assert!(!flaky.is_inert());
    }

    #[test]
    fn check_rejects_each_bad_knob() {
        let good = || SimConfig::paper_defaults(params::la_city(), QueryKind::Knn, 1);
        assert_eq!(good().check(), Ok(()));

        let mut c = good();
        c.bucket_capacity = 0;
        assert_eq!(c.check(), Err(ConfigError::ZeroBucketCapacity));

        let mut c = good();
        c.index_m = 0;
        assert_eq!(c.check(), Err(ConfigError::ZeroIndexReplication));

        let mut c = good();
        c.hilbert_order = 0;
        assert_eq!(c.check(), Err(ConfigError::BadHilbertOrder(0)));
        c.hilbert_order = 32;
        assert_eq!(c.check(), Err(ConfigError::BadHilbertOrder(32)));

        let mut c = good();
        c.params.world_mi = 0.0;
        assert_eq!(c.check(), Err(ConfigError::BadWorldSide(0.0)));

        let mut c = good();
        c.params.mh_number = 0;
        assert_eq!(c.check(), Err(ConfigError::NoHosts));

        let mut c = good();
        c.params.query_rate = f64::NAN;
        assert!(matches!(c.check(), Err(ConfigError::BadQueryRate(_))));

        // An infinite range used to pass and then panic in the grid.
        let mut c = good();
        c.params.tx_range_m = f64::INFINITY;
        assert_eq!(c.check(), Err(ConfigError::BadTxRange(f64::INFINITY)));
        c.params.tx_range_m = -1.0;
        assert_eq!(c.check(), Err(ConfigError::BadTxRange(-1.0)));
        c.params.tx_range_m = f64::NAN;
        assert!(matches!(c.check(), Err(ConfigError::BadTxRange(_))));
        // Zero is "no sharing", not an error.
        c.params.tx_range_m = 0.0;
        assert_eq!(c.check(), Ok(()));

        // Zero hops used to pass and run as a single-hop exchange.
        let mut c = good();
        c.p2p_hops = 0;
        assert_eq!(c.check(), Err(ConfigError::ZeroP2pHops));

        // Both used to pass and then panic in the mobility constructors.
        let mut c = good();
        for bad in [0.0, -1.0, f64::INFINITY] {
            c.params.speed_scale = bad;
            assert_eq!(c.check(), Err(ConfigError::BadSpeedScale(bad)));
        }
        c.params.speed_scale = f64::NAN;
        assert!(matches!(c.check(), Err(ConfigError::BadSpeedScale(_))));

        let mut c = good();
        c.mobility = MobilityModel::GridRoads {
            spacing_milli_mi: 0,
        };
        assert_eq!(c.check(), Err(ConfigError::ZeroRoadSpacing));
        c.mobility = MobilityModel::GridRoads {
            spacing_milli_mi: 1,
        };
        assert_eq!(c.check(), Ok(()));

        let mut c = good();
        c.ticks_per_min = 0;
        assert_eq!(c.check(), Err(ConfigError::ZeroTicksPerMinute));

        let mut c = good();
        c.warmup_min = -1.0;
        assert_eq!(c.check(), Err(ConfigError::BadDuration("warmup_min")));

        let mut c = good();
        c.epoch_min = 0.0;
        assert_eq!(c.check(), Err(ConfigError::BadEpoch(0.0)));

        let mut c = good();
        c.epoch_min = f64::NAN;
        assert!(matches!(c.check(), Err(ConfigError::BadEpoch(_))));

        let mut c = good();
        c.params.knn_k = 0;
        assert_eq!(c.check(), Err(ConfigError::ZeroKnnK));
        // Window workloads never run kNN, so k = 0 is fine there.
        c.query_kind = QueryKind::Window;
        assert_eq!(c.check(), Ok(()));

        // More neighbors than POIs used to grade every query `Failed`
        // on a live channel; exactly as many is fine.
        let mut c = good();
        c.params.knn_k = c.params.poi_number + 1;
        let pois = c.params.poi_number;
        assert_eq!(c.check(), Err(ConfigError::KnnKAbovePois(pois + 1, pois)));
        c.params.knn_k = pois;
        assert_eq!(c.check(), Ok(()));

        // Both used to panic in window sampling ("half >= 0.0",
        // "malformed rect"); kNN workloads never sample a window.
        let window = || {
            let mut c = good();
            c.query_kind = QueryKind::Window;
            c
        };
        for bad in [-1.0, f64::INFINITY] {
            let mut c = window();
            c.params.window_pct = bad;
            assert_eq!(c.check(), Err(ConfigError::BadWindowPct(bad)));
        }
        let mut c = window();
        c.params.window_pct = f64::NAN;
        assert!(matches!(c.check(), Err(ConfigError::BadWindowPct(_))));
        c.query_kind = QueryKind::Knn;
        assert_eq!(c.check(), Ok(()));
        let mut c = window();
        c.params.distance_mi = f64::INFINITY;
        assert_eq!(
            c.check(),
            Err(ConfigError::BadWindowDistance(f64::INFINITY))
        );
        c.params.distance_mi = f64::NAN;
        assert!(matches!(c.check(), Err(ConfigError::BadWindowDistance(_))));
        c.params.window_pct = 0.0;
        c.params.distance_mi = 0.0;
        assert_eq!(c.check(), Ok(()));
        for e in [
            ConfigError::KnnKAbovePois(25, 20),
            ConfigError::BadWindowPct(-1.0),
            ConfigError::BadWindowDistance(f64::NAN),
        ] {
            assert!(e.to_string().starts_with("params."), "{e}");
        }

        let mut c = good();
        c.faults.bucket_loss_prob = 1.5;
        assert_eq!(
            c.check(),
            Err(ConfigError::BadProbability("faults.bucket_loss_prob", 1.5))
        );
    }

    #[test]
    fn check_rejects_bad_chaos_knobs() {
        let good = || SimConfig::paper_defaults(params::la_city(), QueryKind::Knn, 1);
        assert_eq!(good().check(), Ok(()));

        let mut c = good();
        c.faults.peer_malform_prob = f64::NAN;
        assert!(matches!(
            c.check(),
            Err(ConfigError::BadProbability("faults.peer_malform_prob", _))
        ));

        let mut c = good();
        c.churn.crash_prob = -0.1;
        assert_eq!(
            c.check(),
            Err(ConfigError::BadProbability("churn.crash_prob", -0.1))
        );

        let mut c = good();
        c.churn.restart_prob = 2.0;
        assert_eq!(
            c.check(),
            Err(ConfigError::BadProbability("churn.restart_prob", 2.0))
        );

        let mut c = good();
        c.churn.late_join_frac = f64::INFINITY;
        assert!(matches!(
            c.check(),
            Err(ConfigError::BadProbability("churn.late_join_frac", _))
        ));

        // Inverted and empty outage windows are rejected; well-formed
        // ones pass.
        let mut c = good();
        c.outages = vec![(5, 5)];
        assert_eq!(c.check(), Err(ConfigError::BadOutageWindow(5, 5)));
        c.outages = vec![(10, 4)];
        assert_eq!(c.check(), Err(ConfigError::BadOutageWindow(10, 4)));
        c.outages = vec![(2, 6), (8, 9)];
        assert_eq!(c.check(), Ok(()));
    }

    #[test]
    fn churn_config_default_is_inert() {
        let churn = ChurnConfig::default();
        assert!(churn.is_inert());
        assert!(!ChurnConfig {
            crash_prob: 0.01,
            ..ChurnConfig::default()
        }
        .is_inert());
        assert!(!ChurnConfig {
            late_join_frac: 0.2,
            ..ChurnConfig::default()
        }
        .is_inert());
        // Malform alone also de-inerts the fault layer.
        let f = FaultConfig {
            peer_malform_prob: 0.05,
            ..FaultConfig::default()
        };
        assert!(!f.is_inert());
    }
}
