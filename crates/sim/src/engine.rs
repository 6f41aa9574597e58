//! The closed-loop simulator and the query-resolution path.
//!
//! [`Simulation`] is the paper's mobile-host module (§4.1): it moves
//! hosts, schedules their queries and plans their churn — and nothing
//! else. Everything a base station and its sessions own lives in the
//! [`LiveWorld`] it holds, and each epoch it does what any client fleet
//! does: churn, position updates, `begin_epoch` (here its crate-internal
//! form `begin_epoch_near`, which is handed the batch), one batch. The
//! barrier itself (grid, cache install, by-host sharding, commit, report
//! fold) is in `live.rs`; what stays here is `EpochCtx::process_query`, the
//! resolution of one query against one epoch's committed world: SBNN
//! (Algorithm 2) or SBWQ with its channel fallback, then one accounting
//! tail shared by both query kinds.
//!
//! Queries are grouped by *epoch* (the neighbor-grid refresh interval).
//! Within one epoch every host observes the same committed world: peer
//! positions from the epoch-start grid and peer caches as of the epoch's
//! start — the fleet's cache column itself, in which a writing host
//! leaves a copy. A host's own cache stays live to itself, and its
//! writes commit at the epoch barrier in host-id order. Per-query
//! randomness comes from RNG streams seed-split per `(host, epoch)`, and
//! per-query outcomes are folded into the report in global event order —
//! so [`Simulation::run_parallel`] is **bit-identical** to the sequential
//! [`Simulation::run`] for every thread count.

use crate::fleet::FleetStore;
use crate::live::{LiveQuery, LiveWorld};
use crate::traffic::{EpochRecord, RecordedQuery, TrafficTrace};
use crate::{ConfigError, MobilityModel, ParamSet, QueryKind, SimConfig, SimReport};
use airshare_broadcast::{
    AirIndexBackend, ChannelFaults, OnAirClient, OutageSchedule, Poi, PoiCategory, PoiId, PoiTable,
    QueryScratch, Schedule,
};
use airshare_cache::{CacheContext, HostCache, QuarantineLedger};
use airshare_core::{
    sbnn_rec, sbwq_rec, MergedRegion, NnCandidate, ResolvedBy, SbnnConfig, SbnnOutcome, SbwqConfig,
    SbwqOutcome,
};
use airshare_exec::{split_seed, ExecPool};
use airshare_geom::{Point, Rect};
use airshare_mobility::{
    GridRoadWaypoint, Mobility, MobilityConfig, QueryEvent, QueryScheduler, RandomWaypoint,
};
use airshare_obs::{
    AccessStats, AnswerQuality, MetricsRecorder, NoopRecorder, PhaseTimes, Recorder, ShareStats,
    TraceEvent,
};
use airshare_p2p::{NeighborGrid, ShareFaults};
use airshare_rtree::RTree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The single POI category the paper's experiments use (gas stations).
const CAT: PoiCategory = PoiCategory::GAS_STATION;

/// Salt separating the window-sampling seed domain from every other
/// stream derived from the master seed.
const WINDOW_SEED_SALT: u64 = 0x5EED_0001_CAFE_F00D;

/// Seed domain for the churn decision source (crash schedule).
const CHURN_SEED_SALT: u64 = 0xC4A0_5EED_0000_0002;

/// Key salt decorrelating restart decisions from crash decisions for
/// the same `(host, epoch)` pair.
const RESTART_KEY_SALT: u64 = 0x9E57_A27A_0000_0002;

/// Seed domain for late-joiner admission epochs.
const JOIN_SEED_SALT: u64 = 0x10A7_5EED_0000_0003;

/// A host's relationship to the broadcast channel.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SyncState {
    /// Simulated minute of the last successful channel access (or of
    /// coming online). Bounds the staleness of outage-served answers.
    pub(crate) last_sync_min: f64,
    /// The host answered queries without the channel (outage) or just
    /// came online; its next successful access counts as a resync.
    pub(crate) needs_resync: bool,
}

/// What one query asks — decoupled from the run-level [`QueryKind`]
/// knob so recorded traffic can replay its sampled windows verbatim and
/// the live service (`airshare-serve`) can mix query kinds per request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuerySpec {
    /// The `k` nearest neighbors around the querying position.
    Knn {
        /// Neighbors requested.
        k: usize,
    },
    /// All POIs inside a rectangle.
    Window {
        /// The query window.
        rect: Rect,
    },
}

/// One query's answer as a client receives it: the POI id set plus the
/// answer's quality grade. Produced for every query — warm-up included —
/// so a replay can check parity over the whole workload.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryAnswer {
    /// The query's global nonce (the simulator's event index, or the
    /// service's admission ticket).
    pub nonce: u64,
    /// The querying host.
    pub host: u32,
    /// Result POI ids, in resolution order.
    pub ids: Vec<u32>,
    /// Quality grade of the answer.
    pub quality: AnswerQuality,
}

/// One host's mobility stream: trajectory state only. The parameters
/// every host shares are held once, as `Simulation::mobility`, and passed
/// to each call.
enum HostMobility {
    /// Stored inline: at a million hosts, one heap box per waypoint
    /// stream is pure pointer-chasing overhead.
    Waypoint(RandomWaypoint),
    Roads(Box<GridRoadWaypoint>),
}

impl Mobility for HostMobility {
    fn position_at(&mut self, config: &MobilityConfig, t: f64) -> Point {
        match self {
            HostMobility::Waypoint(m) => m.position_at(config, t),
            HostMobility::Roads(m) => m.position_at(config, t),
        }
    }
    fn velocity_at(&mut self, config: &MobilityConfig, t: f64) -> (f64, f64) {
        match self {
            HostMobility::Waypoint(m) => m.velocity_at(config, t),
            HostMobility::Roads(m) => m.velocity_at(config, t),
        }
    }
}

/// How one query was resolved, as the report counts it.
enum Resolution {
    Peers,
    Approx,
    Broadcast,
}

/// Everything one measured query contributes to the report. Buffered
/// shard-locally and folded in global event order at the epoch barrier,
/// so float and counter accumulation order is independent of scheduling.
pub(crate) struct QueryOutcome {
    share: ShareStats,
    /// The answer's quality tier: `Exact`, `Degraded` (lossy retrieval),
    /// `Stale` or `Failed` (outage-served).
    quality: AnswerQuality,
    /// Staleness bound in minutes, for `Stale` answers.
    stale_age_min: f64,
    /// The answer broke its declared bound under the chaos oracle
    /// (validate runs only; must never happen).
    bound_violation: bool,
    resolution: Resolution,
    air: Option<AccessStats>,
    /// On-air baseline `(latency, tuning)` for the same query.
    baseline: Option<(u64, u64)>,
    filter_saved: u64,
    /// MVR coverage, for window queries that needed the channel.
    window_coverage: Option<f64>,
    /// Lemma 3.2 calibration sample, for validated approximate answers.
    calibration: Option<(f64, bool)>,
    mismatch: bool,
}

/// One query's answer set as resolution found it. kNN candidates keep
/// their distances for the oracle.
enum Found {
    Neighbors(Vec<NnCandidate>),
    Pois(Vec<Poi>),
}

/// What one [`QuerySpec`] arm of `process_query` resolved: all its
/// shared tail accounts for.
struct Resolved {
    found: Found,
    quality: AnswerQuality,
    resolution: Resolution,
    air: Option<AccessStats>,
    /// MVR coverage, for window queries that needed the channel.
    window_coverage: Option<f64>,
    /// An approximate kNN answer's least predicted correctness among its
    /// unverified neighbors: the Lemma 3.2 calibration input.
    min_correctness: Option<f64>,
}

/// The chaos oracle's kNN check over `(answer, truth)` distances, rank
/// by rank ascending. An `Exact` answer equals the truth within 1e-9.
/// Any other grade can only have *missed* POIs (lost buckets, or peer
/// knowledge alone), so no distance of it may beat the true one.
fn knn_holds(exact: bool, mut ranks: impl Iterator<Item = (f64, f64)>) -> bool {
    if exact {
        ranks.all(|(a, b)| (a - b).abs() < 1e-9)
    } else {
        !ranks.any(|(a, b)| a + 1e-9 < b)
    }
}

/// The chaos oracle's window check, on sorted ids. An `Exact` answer
/// equals the truth; any other grade can only have dropped POIs, so it
/// must be a subset.
fn window_holds(exact: bool, got: &[u32], truth: &[u32]) -> bool {
    if exact {
        got == truth
    } else {
        got.iter().all(|id| truth.binary_search(id).is_ok())
    }
}

/// One host's mutable state, moved out of the world for a batch. A
/// query's inputs arrive beside it as a [`LiveQuery`].
pub(crate) struct HostState {
    pub(crate) cache: HostCache,
    pub(crate) sync: SyncState,
    pub(crate) quarantine: QuarantineLedger,
    /// Resync transitions this batch performed (warm-up included).
    pub(crate) resyncs: u64,
}

/// The immutable world every worker shares within one epoch: a borrow
/// of the [`LiveWorld`] minus the per-host state its tasks carry.
pub(crate) struct EpochCtx<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) world: &'a Rect,
    /// The canonical POI table peer-shared handles resolve against.
    pub(crate) table: &'a PoiTable,
    pub(crate) index: &'a dyn AirIndexBackend,
    pub(crate) schedule: &'a Schedule,
    pub(crate) oracle: &'a RTree<u32>,
    pub(crate) faults: Option<&'a ChannelFaults>,
    pub(crate) grid: &'a NeighborGrid,
    /// What peers see: the fleet's cache column, as of the epoch's start.
    pub(crate) snapshot: &'a [HostCache],
    pub(crate) range: f64,
    /// This epoch's number (outage membership, quarantine clock).
    pub(crate) epoch: u64,
    /// Base-station outage windows over epoch numbers.
    pub(crate) outage: &'a OutageSchedule,
}

/// One host's slice of an epoch batch: its state plus its queries.
pub(crate) struct LiveTask {
    pub(crate) host: usize,
    pub(crate) state: HostState,
    /// Nonce-ordered queries for this host.
    pub(crate) queries: Vec<LiveQuery>,
}

/// A [`LiveTask`]'s result: the state to commit and what it answered.
pub(crate) struct LiveDone {
    pub(crate) host: usize,
    pub(crate) state: HostState,
    pub(crate) outcomes: Vec<(u64, QueryOutcome)>,
    /// One per query when the batch wants answers, else empty.
    pub(crate) answers: Vec<QueryAnswer>,
}

/// One full system: base station, channel, fleet, caches.
///
/// The simulation owns the *client* side — mobility, the query
/// scheduler, the churn plan — and drives a [`LiveWorld`] that owns
/// everything else.
///
/// Every `run*` entry point simulates the whole configured horizon from
/// a pristine world. A `Simulation` that has already run rebuilds itself
/// from its own configuration first, so `sim.run()` twice — or `run()`
/// then `run_parallel(..)` — returns equal reports; accessors such as
/// [`Simulation::fleet`] show the state the most recent run ended in.
pub struct Simulation {
    /// The base station and every host's session state.
    pub(crate) world: LiveWorld,
    /// The mobility parameters every host shares, held once.
    mobility: MobilityConfig,
    /// Each host's trajectory state, driven with `mobility`.
    hosts: Vec<HostMobility>,
    /// Precomputed churn transitions `(epoch, host, comes_online)`,
    /// sorted by `(epoch, host)`; a pure function of the master seed.
    churn_plan: Vec<(u64, usize, bool)>,
    /// A run has consumed the mobility streams and the world.
    ran: bool,
}

impl Simulation {
    /// Builds the world (see [`LiveWorld::try_new`]) and the host fleet:
    /// one mobility stream per host and the churn plan, with every host
    /// the plan starts online admitted. Validates the configuration
    /// first, so a bad knob surfaces as a typed [`ConfigError`] instead
    /// of a panic deep inside a substrate crate.
    pub fn try_new(cfg: SimConfig) -> Result<Self, ConfigError> {
        let mut world = LiveWorld::try_new(cfg)?;
        let cfg = world.config();
        let mut mobility = MobilityConfig::vehicular(world.bounds);
        mobility.speed_min *= cfg.params.speed_scale;
        mobility.speed_max *= cfg.params.speed_scale;
        let hosts: Vec<HostMobility> = (0..cfg.params.mh_number)
            .map(|i| {
                let seed = cfg.seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1));
                match cfg.mobility {
                    MobilityModel::RandomWaypoint => {
                        HostMobility::Waypoint(RandomWaypoint::new(&mobility, seed))
                    }
                    MobilityModel::GridRoads { spacing_milli_mi } => HostMobility::Roads(Box::new(
                        GridRoadWaypoint::new(&mobility, spacing_milli_mi as f64 / 1000.0, seed),
                    )),
                }
            })
            .collect();
        let (online, churn_plan) = plan_churn(cfg);
        world.fleet.online = online;
        Ok(Self {
            world,
            mobility,
            hosts,
            churn_plan,
            ran: false,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        self.world.config()
    }

    /// The global POI set (for external validation).
    pub fn pois(&self) -> &[Poi] {
        self.world.poi_table().as_slice()
    }

    /// The canonical POI table every cached or peer-shared handle
    /// resolves against.
    pub fn poi_table(&self) -> &PoiTable {
        self.world.poi_table()
    }

    /// Read-only view of the fleet's columnar state.
    pub fn fleet(&self) -> &FleetStore {
        self.world.fleet()
    }

    /// Wall-clock breakdown of the most recent run's epoch loop
    /// (advance / grid / query / snapshot), for perf attribution.
    /// Zeroed until a run completes. Available after *any* entry point,
    /// including the plain [`Simulation::run`]; the `run_*metrics`
    /// variants additionally copy it into the report's snapshot.
    pub fn phase_times(&self) -> PhaseTimes {
        self.world.phases
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(&mut self) -> SimReport {
        self.run_with(&mut NoopRecorder)
    }

    /// [`Simulation::run`] with a [`MetricsRecorder`] attached: the
    /// returned report's `metrics` field carries the aggregated trace
    /// view (per-event counters plus tuning/latency percentiles over
    /// *every* query, peer-resolved ones included as zeros).
    pub fn run_metrics(&mut self) -> SimReport {
        self.run_parallel_metrics(&ExecPool::sequential())
    }

    /// [`Simulation::run`], tracing every query's resolution path into
    /// `rec`. The recorder observes but never steers: a run with any
    /// recorder produces the same [`SimReport`] as a plain [`run`] —
    /// bit-identical, as the umbrella crate's golden test asserts.
    ///
    /// Events are traced in commit order (host-id order within each
    /// epoch), which is also deterministic.
    ///
    /// [`run`]: Simulation::run
    pub fn run_with(&mut self, rec: &mut (dyn Recorder + Send)) -> SimReport {
        let mut ctxs = [(rec, QueryScratch::new())];
        self.run_engine(&ExecPool::sequential(), &mut ctxs, None)
    }

    /// Runs sequentially while recording the full workload into a
    /// [`TrafficTrace`]: per-epoch fleet state (positions, online flags,
    /// churn transitions) plus every query's inputs *and* its
    /// oracle-checked answer (POI ids + [`AnswerQuality`]). The report
    /// is bit-identical to a plain [`Simulation::run`]; the trace is
    /// what `airshare-serve`'s replay client drives against the live
    /// service, asserting answer-set parity.
    pub fn run_recording(&mut self) -> (SimReport, TrafficTrace) {
        let cfg = self.config();
        let mut trace = TrafficTrace {
            seed: cfg.seed,
            hosts: cfg.params.mh_number,
            epoch_min: cfg.epoch_min,
            ..TrafficTrace::default()
        };
        let mut ctxs = [(NoopRecorder, QueryScratch::new())];
        let report = self.run_engine(&ExecPool::sequential(), &mut ctxs, Some(&mut trace));
        (report, trace)
    }

    /// Runs the simulation with each epoch's host shards fanned out
    /// across `pool`'s workers.
    ///
    /// The report is **bit-identical** to [`Simulation::run`] for every
    /// thread count (including 1): within an epoch shards share no
    /// mutable state, every RNG draw comes from a seed-split
    /// per-`(host, epoch)` stream, and outcomes are committed in global
    /// event order at the barrier. Scheduling affects only wall-clock
    /// time. `tests/parallel.rs` asserts this end to end.
    pub fn run_parallel(&mut self, pool: &ExecPool) -> SimReport {
        let mut ctxs: Vec<_> = (0..pool.threads())
            .map(|_| (NoopRecorder, QueryScratch::new()))
            .collect();
        self.run_engine(pool, &mut ctxs, None)
    }

    /// [`Simulation::run_parallel`] with per-worker [`MetricsRecorder`]s:
    /// each worker records into its own shard, and the shards are merged
    /// associatively into the report's `metrics` snapshot — equal to the
    /// snapshot a sequential [`Simulation::run_metrics`] produces.
    pub fn run_parallel_metrics(&mut self, pool: &ExecPool) -> SimReport {
        let mut ctxs: Vec<_> = (0..pool.threads())
            .map(|_| (MetricsRecorder::new(), QueryScratch::new()))
            .collect();
        let mut report = self.run_engine(pool, &mut ctxs, None);
        let mut merged = MetricsRecorder::new();
        for (rec, _) in &ctxs {
            merged.merge(rec);
        }
        let mut snapshot = merged.snapshot();
        snapshot.phases = self.world.phases;
        report.metrics = Some(snapshot);
        report
    }

    /// The client loop behind every public entry point.
    ///
    /// Per epoch, in the world's barrier order: apply due churn, advance
    /// mobility into the position column, derive each online event's
    /// query inputs from mobility and the per-`(host, epoch)` window
    /// stream, `begin_epoch_near` that batch, and hand it to the world.
    /// `ctxs` holds one `(recorder, scratch)` per worker — hoisted out of
    /// the epoch loop so the scratch buffers reach their high-water marks
    /// during warm-up and every later index-path query runs without heap
    /// allocation. With `trace` set, the fleet's per-epoch state and
    /// every query's inputs and answer are captured for service replay.
    fn run_engine<R: Recorder + Send>(
        &mut self,
        pool: &ExecPool,
        ctxs: &mut [(R, QueryScratch)],
        mut trace: Option<&mut TrafficTrace>,
    ) -> SimReport {
        if self.ran {
            *self = Self::try_new(self.config().clone()).expect("validated at construction");
        }
        self.ran = true;
        let cfg = self.config().clone();
        let epoch_len = cfg.epoch_min;
        let mut scheduler =
            QueryScheduler::new(cfg.params.query_rate, cfg.params.mh_number, cfg.seed ^ 0xA5);
        let horizon = cfg.total_min();

        if let Some(trace) = &mut trace {
            // Pristine churn-plan state: who is on the air before the
            // first epoch's transitions apply.
            trace.initial_online = self.world.fleet.online.clone();
        }
        // First `churn_plan` entry not yet applied.
        let mut churn_cursor = 0;
        // Events are pulled from the scheduler one epoch at a time into
        // a reused buffer — memory stays O(hosts + live epoch) instead
        // of materializing the whole run's event list. The draw sequence
        // (time, then host, per event) is exactly what a full
        // `events_until(horizon)` would have produced.
        let mut epoch_events: Vec<QueryEvent> = Vec::new();
        let mut next_index: u64 = 0;
        // Recording keeps the previous epoch's recorded positions so
        // the trace can carry per-epoch *deltas* instead of full
        // position vectors. NaN never equals a position, so the first
        // record carries every host.
        let mut last_rec_positions = match &trace {
            Some(_) => vec![Point::new(f64::NAN, f64::NAN); self.hosts.len()],
            None => Vec::new(),
        };
        let mut answers: Vec<QueryAnswer> = Vec::new();
        while scheduler.peek_time() < horizon {
            let first = scheduler.next_query();
            let epoch = (first.time / epoch_len) as u64;
            epoch_events.clear();
            epoch_events.push(first);
            while scheduler.peek_time() < horizon
                && (scheduler.peek_time() / epoch_len) as u64 == epoch
            {
                epoch_events.push(scheduler.next_query());
            }

            // Churn transitions due at or before this epoch's boundary
            // (epochs without events are caught up lazily), in plan
            // order — identically for every pool, so trace logs stay
            // byte-identical.
            let t_phase = Instant::now();
            let mut epoch_churn: Vec<(u32, u64, bool)> = Vec::new();
            while let Some(&(e, h, up)) = self
                .churn_plan
                .get(churn_cursor)
                .filter(|&&(e, _, _)| e <= epoch)
            {
                churn_cursor += 1;
                if up {
                    self.world.reconnect(h, e, &mut ctxs[0].0);
                } else {
                    self.world.disconnect(h, e, &mut ctxs[0].0);
                }
                if trace.is_some() {
                    // The trace keeps the *planned* epoch `e`, not the
                    // barrier epoch: a restart's sync clock is pinned
                    // to when the host actually came online.
                    epoch_churn.push((h as u32, e, up));
                }
            }

            // Grid positions at the epoch boundary; clamped to the first
            // event so host clocks never run backwards on the boundary's
            // floating-point edge.
            let t_build = (epoch as f64 * epoch_len).min(epoch_events[0].time);
            advance_fleet(
                &self.mobility,
                &mut self.hosts,
                &mut self.world.fleet.positions,
                t_build,
                pool,
            );
            self.world.phases.advance_ns += t_phase.elapsed().as_nanos() as u64;
            if let Some(trace) = &mut trace {
                // Only hosts whose position actually changed since the
                // previous recorded epoch (a paused waypoint host costs
                // nothing).
                let moved = (self.world.fleet.positions.iter())
                    .zip(last_rec_positions.iter_mut())
                    .enumerate()
                    .filter_map(|(h, (&now, old))| {
                        (now != *old).then(|| {
                            *old = now;
                            (h as u32, now)
                        })
                    })
                    .collect();
                trace.epochs.push(EpochRecord {
                    epoch,
                    moved,
                    online: self.world.fleet.online.clone(),
                    churn: epoch_churn,
                });
            }

            // Each online event's query inputs, host-major (the stable
            // sort keeps a host's events in time order, which its
            // mobility and window streams require). Offline hosts pose
            // no queries — their events vanish, but the global index
            // numbering `next_index + k` is untouched, so the fold order
            // of surviving outcomes is churn-independent. Only mobility
            // and online flags go in, so the batch is known before the
            // barrier and the grid bins only what it can reach.
            let t_phase = Instant::now();
            let mut order: Vec<usize> = (0..epoch_events.len())
                .filter(|&k| self.world.is_online(epoch_events[k].host))
                .collect();
            order.sort_by_key(|&k| epoch_events[k].host);
            let mut batch: Vec<LiveQuery> = Vec::with_capacity(order.len());
            for run in order.chunk_by(|&a, &b| epoch_events[a].host == epoch_events[b].host) {
                let host = epoch_events[run[0]].host;
                let model = &mut self.hosts[host];
                // The stream's only consumer is window sampling.
                let mut rng = SmallRng::seed_from_u64(split_seed(
                    cfg.seed ^ WINDOW_SEED_SALT,
                    host as u64,
                    epoch,
                ));
                for &k in run {
                    let at_min = epoch_events[k].time;
                    let pos = model.position_at(&self.mobility, at_min);
                    batch.push(LiveQuery {
                        nonce: next_index + k as u64,
                        host,
                        at_min,
                        pos,
                        heading: model.heading_at(&self.mobility, at_min),
                        spec: match cfg.query_kind {
                            QueryKind::Knn => QuerySpec::Knn {
                                k: cfg.params.knn_k,
                            },
                            QueryKind::Window => QuerySpec::Window {
                                rect: sample_window(&cfg.params, &self.world.bounds, pos, &mut rng),
                            },
                        },
                    });
                }
            }
            self.world.phases.advance_ns += t_phase.elapsed().as_nanos() as u64;
            next_index += epoch_events.len() as u64;
            self.world.begin_epoch_near(epoch, &batch, pool);

            match &mut trace {
                None => self.world.execute_batch(batch, pool, ctxs, None),
                Some(trace) => {
                    // Answers come back nonce-ordered; pair them with
                    // their inputs in the same order, the trace's own.
                    self.world
                        .execute_batch(batch.clone(), pool, ctxs, Some(&mut answers));
                    batch.sort_by_key(|q| q.nonce);
                    for (q, a) in batch.into_iter().zip(answers.drain(..)) {
                        debug_assert_eq!(q.nonce, a.nonce);
                        trace.queries.push(RecordedQuery {
                            nonce: q.nonce,
                            host: a.host,
                            at_min: q.at_min,
                            epoch,
                            pos: q.pos,
                            heading: q.heading,
                            spec: q.spec,
                            ids: a.ids,
                            quality: a.quality,
                            measured: q.at_min >= cfg.warmup_min,
                        });
                    }
                }
            }
        }
        // No barrier follows the last epoch, and `fleet()` shows how it ended.
        self.world.install_written();
        self.world.report().clone()
    }
}

/// Advances every host's mobility stream to `t` under the fleet's one
/// `config`, writing the position column. Offline hosts advance too, so mobility streams stay aligned
/// across churn configurations; they are merely undiscoverable.
///
/// Hosts are mutually independent here, so the work is chunked over
/// contiguous host ranges and fanned out on `pool` — chunk scheduling
/// cannot affect the result. Small fleets run as one inline chunk.
fn advance_fleet(
    config: &MobilityConfig,
    hosts: &mut [HostMobility],
    positions: &mut [Point],
    t: f64,
    pool: &ExecPool,
) {
    let n = hosts.len();
    // Oversplit ~4× past the worker count so the pool's shared queue
    // can level uneven chunks (waypoint hosts mid-pause advance much
    // faster than ones mid-leg).
    let chunk_len = if n < 4096 {
        n
    } else {
        n.div_ceil(pool.threads() * 4).max(1024)
    };
    let chunks: Vec<_> = hosts
        .chunks_mut(chunk_len)
        .zip(positions.chunks_mut(chunk_len))
        .collect();
    pool.map(chunks, |_, (hosts, positions)| {
        for (m, p) in hosts.iter_mut().zip(positions) {
            *p = m.position_at(config, t);
        }
    });
}

impl EpochCtx<'_> {
    /// Runs one host's slice of an epoch batch: its queries in nonce
    /// order, against the shared epoch snapshot, with all mutations
    /// host-local. An answer is assembled per query only when the batch
    /// wants them.
    pub(crate) fn run_live_host(
        &self,
        mut task: LiveTask,
        want_answers: bool,
        scratch: &mut QueryScratch,
        rec: &mut dyn Recorder,
    ) -> LiveDone {
        let state = &mut task.state;
        let mut outcomes = Vec::new();
        let mut answers = Vec::with_capacity(if want_answers { task.queries.len() } else { 0 });
        for item in &task.queries {
            let mut answer = want_answers.then(|| QueryAnswer {
                nonce: item.nonce,
                host: item.host as u32,
                ids: Vec::new(),
                quality: AnswerQuality::Failed,
            });
            if let Some(o) = self.process_query(item, state, scratch, rec, answer.as_mut()) {
                outcomes.push((item.nonce, o));
            }
            answers.extend(answer);
        }
        LiveDone {
            host: task.host,
            state: task.state,
            outcomes,
            answers,
        }
    }

    /// Resolves one query. Returns its contribution to the report, or
    /// `None` during warm-up (cache effects still apply).
    ///
    /// The query's inputs — position, heading, and the fully-sampled
    /// [`QuerySpec`] — are supplied by the client fleet (derived from
    /// mobility in the simulator, submitted over the wire in the serving
    /// layer). When `answer` is set, the answer's POI ids and
    /// [`AnswerQuality`] are always filled in, warm-up or not: the
    /// service answers every query, while the report only counts
    /// measured ones.
    ///
    /// Each [`QuerySpec`] arm only resolves (SBNN or SBWQ, then
    /// [`EpochCtx::settle`] or [`EpochCtx::outage_served`]); one tail
    /// then accounts, in order: LRU touch, answer, warm-up cut,
    /// `QueryQuality` trace, outcome, on-air baseline, chaos oracle.
    pub(crate) fn process_query(
        &self,
        item: &LiveQuery,
        q: &mut HostState,
        scratch: &mut QueryScratch,
        rec: &mut dyn Recorder,
        answer: Option<&mut QueryAnswer>,
    ) -> Option<QueryOutcome> {
        let cfg = self.cfg;
        let &LiveQuery {
            nonce,
            host,
            at_min: t,
            pos: qpos,
            ref spec,
            ..
        } = item;
        let measuring = t >= cfg.warmup_min;
        let tune_in = (t * cfg.ticks_per_min as f64) as u64;
        rec.begin_query(nonce, tune_in);
        let share_faults = ShareFaults {
            faults: self.faults,
            drop_prob: cfg.faults.peer_drop_prob,
            malform_prob: cfg.faults.peer_malform_prob,
            nonce,
        };
        // Base-station outage: membership is decided on the *epoch
        // number* — the same integer arithmetic that groups events —
        // so the sequential and parallel engines can never disagree on
        // a float edge.
        let silent = self.outage.is_silent(self.epoch);
        if silent {
            rec.record(TraceEvent::OutageBlocked { tick: tune_in });
        }

        // --- P2P gather against the epoch snapshot: peer positions from
        // the epoch-start grid, peer caches from the epoch-start commit.
        // The ε-staleness is bounded by the epoch length and is the price
        // of a racefree shard; replies still pass through drop decisions
        // (fault layer) and region validation, so a flaky or inconsistent
        // peer costs coverage, never correctness. ---
        let guard = Some((&mut q.quarantine, self.epoch));
        let (replies, share) = airshare_p2p::share_exchange(
            host,
            qpos,
            self.range,
            cfg.p2p_hops,
            CAT,
            self.grid,
            self.snapshot,
            self.table,
            Some(self.world),
            share_faults,
            guard,
            rec,
        );
        if cfg.use_own_cache {
            // Own reads are live — a host always trusts its freshest self.
            let own_regions = q.cache.region_count(CAT);
            if own_regions > 0 {
                rec.record(TraceEvent::CacheHit {
                    regions: own_regions as u32,
                });
            }
        }
        // Merge handle-level: peer regions first (reply order), then the
        // querier's own cache — all resolved once against the canonical
        // table, never materialized as owned POI vectors.
        let own = cfg
            .use_own_cache
            .then(|| q.cache.share_regions(CAT))
            .into_iter()
            .flatten();
        let mvr = MergedRegion::from_id_regions(
            self.table,
            replies
                .iter()
                .flat_map(|r| r.regions.iter().map(|(vr, ids)| (*vr, ids.as_slice())))
                .chain(own),
        );

        let client = match self.faults {
            Some(f) => OnAirClient::with_faults(self.index, self.schedule, f),
            None => OnAirClient::new(self.index, self.schedule),
        };
        let channel = (!silent).then_some((&client, tune_in));

        let r = match *spec {
            QuerySpec::Knn { k } => {
                let sbnn_cfg = SbnnConfig {
                    k,
                    accept_approx: cfg.accept_approx,
                    min_correctness: cfg.min_correctness,
                    lambda: cfg.params.poi_density(),
                    use_bound_filtering: cfg.use_bound_filtering,
                    vr_policy: cfg.vr_policy,
                    domain: cfg.clip_domain.then_some(*self.world),
                };
                match sbnn_rec(qpos, &sbnn_cfg, &mvr, channel, scratch, rec) {
                    SbnnOutcome::Resolved(res) => {
                        let adopt = res.adoptable.as_ref().map(|(vr, p)| (*vr, p.as_slice()));
                        let quality = self.settle(q, item, res.air, adopt, rec);
                        let min_correctness = (res.resolved_by == ResolvedBy::PeersApproximate)
                            .then(|| {
                                (res.neighbors.iter())
                                    .filter(|n| !n.verified)
                                    .filter_map(|n| n.correctness)
                                    .fold(1.0_f64, f64::min)
                            });
                        Resolved {
                            found: Found::Neighbors(res.neighbors),
                            quality,
                            resolution: match res.resolved_by {
                                ResolvedBy::PeersVerified => Resolution::Peers,
                                ResolvedBy::PeersApproximate => Resolution::Approx,
                                ResolvedBy::Broadcast => Resolution::Broadcast,
                            },
                            air: res.air,
                            window_coverage: None,
                            min_correctness,
                        }
                    }
                    SbnnOutcome::Unresolved(heap) => {
                        // Outage: no channel fallback. Serve whatever the
                        // merged peer/cache knowledge held, tagged Stale
                        // (or Failed when it held nothing).
                        let quality = if heap.is_empty() {
                            AnswerQuality::Failed
                        } else {
                            AnswerQuality::Stale
                        };
                        self.outage_served(q, Found::Neighbors(heap.entries().to_vec()), quality)
                    }
                }
            }
            QuerySpec::Window { rect } => {
                let sbwq_cfg = SbwqConfig {
                    use_window_reduction: cfg.use_window_reduction,
                };
                match sbwq_rec(&rect, &sbwq_cfg, &mvr, channel, scratch, rec) {
                    SbwqOutcome::Resolved(res) => {
                        // A resolved window is fully known: its own
                        // verified region.
                        let adopt = Some((rect, res.pois.as_slice()));
                        let quality = self.settle(q, item, res.air, adopt, rec);
                        let (resolution, window_coverage) = match res.resolved_by {
                            ResolvedBy::PeersVerified => (Resolution::Peers, None),
                            _ => (Resolution::Broadcast, Some(res.coverage)),
                        };
                        Resolved {
                            found: Found::Pois(res.pois),
                            quality,
                            resolution,
                            air: res.air,
                            window_coverage,
                            min_correctness: None,
                        }
                    }
                    SbwqOutcome::Unresolved { partial, missing } => {
                        // Outage: answer from the covered sub-windows only.
                        // The answer is a *subset* of the truth; its
                        // quality depends on how much area peers covered.
                        let wa = rect.area();
                        let coverage = if wa > 0.0 {
                            let miss: f64 = missing.iter().map(Rect::area).sum();
                            (1.0 - miss / wa).clamp(0.0, 1.0)
                        } else {
                            0.0
                        };
                        let quality = if coverage > 1e-9 {
                            AnswerQuality::Stale
                        } else {
                            AnswerQuality::Failed
                        };
                        self.outage_served(q, Found::Pois(partial), quality)
                    }
                }
            }
        };

        // --- Accounting: one tail for every arm. ---
        let area = match *spec {
            QuerySpec::Knn { .. } => Rect::centered_square(qpos, self.range),
            QuerySpec::Window { rect } => rect,
        };
        q.cache.touch(CAT, &area, t);
        let quality = r.quality;
        if let Some(a) = answer {
            a.ids = match &r.found {
                Found::Neighbors(found) => found.iter().map(|c| c.poi.id).collect(),
                Found::Pois(found) => found.iter().map(|p| p.id).collect(),
            };
            a.quality = quality;
        }
        if !measuring {
            return None;
        }
        rec.record(TraceEvent::QueryQuality { quality });
        let mut out = QueryOutcome {
            share,
            quality,
            stale_age_min: match quality {
                AnswerQuality::Stale | AnswerQuality::Failed => (t - q.sync.last_sync_min).max(0.0),
                _ => 0.0,
            },
            bound_violation: false,
            resolution: r.resolution,
            air: r.air,
            baseline: None,
            filter_saved: 0,
            window_coverage: r.window_coverage,
            calibration: None,
            mismatch: false,
        };
        // What the pure on-air algorithm would have paid (not defined
        // during an outage — the baseline host faces the same silent
        // channel). Bound filtering (§3.3.3) saves kNN buckets only.
        let base = match *spec {
            _ if silent => None,
            QuerySpec::Knn { k } => client.knn_cost(tune_in, qpos, k, scratch),
            QuerySpec::Window { rect } => Some(client.window_cost(tune_in, &rect, scratch)),
        };
        if let Some(base) = base {
            out.baseline = Some((base.latency, base.tuning));
            if let (QuerySpec::Knn { .. }, Some(air)) = (spec, r.air) {
                debug_assert!(
                    air.buckets <= base.buckets,
                    "bound filtering fetched more than a cold query"
                );
                out.filter_saved = base.buckets.saturating_sub(air.buckets);
            }
        }
        if cfg.validate {
            let exact = quality == AnswerQuality::Exact;
            let holds = match &r.found {
                Found::Neighbors(found) => {
                    let truth = self.oracle.knn(qpos, found.len());
                    let ranks = found.iter().zip(&truth);
                    knn_holds(exact, ranks.map(|(a, b)| (a.distance, b.distance)))
                }
                Found::Pois(found) => {
                    let mut got: Vec<u32> = found.iter().map(|p| p.id).collect();
                    let window = self.oracle.window(&area);
                    let mut truth: Vec<u32> = window.into_iter().map(|(_, &id)| id).collect();
                    got.sort_unstable();
                    truth.sort_unstable();
                    window_holds(exact, &got, &truth)
                }
            };
            match r.min_correctness {
                Some(min_c) => out.calibration = Some((min_c, holds)),
                None if exact => out.mismatch = !holds,
                None => {
                    out.bound_violation = !holds;
                    debug_assert!(holds, "{quality:?} answer left ground truth at t={t}");
                }
            }
        }
        Some(out)
    }

    /// Settles a resolved query with the host. A channel access
    /// refreshes its sync clock, recording a resync if it was answering
    /// through an outage or restart. The answer's verified region, if
    /// any, is cached — unless retrieval lost buckets: a degraded answer
    /// may be missing POIs, and adopting its region would cache an
    /// incomplete "verified" claim and poison every peer it is later
    /// shared with. Returns the answer's grade.
    fn settle(
        &self,
        q: &mut HostState,
        item: &LiveQuery,
        air: Option<AccessStats>,
        adopt: Option<(Rect, &[Poi])>,
        rec: &mut dyn Recorder,
    ) -> AnswerQuality {
        if air.is_some() {
            q.sync.last_sync_min = item.at_min;
            if std::mem::take(&mut q.sync.needs_resync) {
                q.resyncs += 1;
                rec.record(TraceEvent::Resynced {
                    host: item.host as u32,
                });
            }
        }
        if air.is_some_and(|a| a.is_degraded()) {
            return AnswerQuality::Degraded;
        }
        if let Some((vr, pois)) = adopt {
            let ids: Vec<PoiId> = pois.iter().map(Poi::handle).collect();
            let ctx = CacheContext {
                pos: item.pos,
                heading: item.heading,
                now: item.at_min,
            };
            q.cache
                .insert_ids_rec(self.table, CAT, vr, &ids, item.at_min, &ctx, rec);
        }
        AnswerQuality::Exact
    }

    /// An answer served off peer and cache knowledge alone, through an
    /// outage: the host owes a resync. A `Failed` one still counts as
    /// broadcast-resolved, as the reports always have.
    fn outage_served(&self, q: &mut HostState, found: Found, quality: AnswerQuality) -> Resolved {
        debug_assert!(
            self.outage.is_silent(self.epoch),
            "unresolved on a live channel"
        );
        q.sync.needs_resync = true;
        Resolved {
            found,
            quality,
            resolution: match quality {
                AnswerQuality::Failed => Resolution::Broadcast,
                _ => Resolution::Peers,
            },
            air: None,
            window_coverage: None,
            min_correctness: None,
        }
    }
}

/// Samples a query window per Table 4: mean area = `window_pct` % of
/// the search space; centre at a normally-distributed distance from
/// the host in a uniform direction, clamped into the world. Draws
/// come from the caller's `(host, epoch)` stream.
fn sample_window(p: &ParamSet, world: &Rect, qpos: Point, rng: &mut SmallRng) -> Rect {
    let side = (p.window_pct / 100.0).sqrt() * p.world_mi;
    let dist = sample_normal(rng, p.distance_mi, p.distance_mi / 3.0).abs();
    let theta = rng.gen_range(0.0..std::f64::consts::TAU);
    let center = world.clamp_point(Point::new(
        qpos.x + dist * theta.cos(),
        qpos.y + dist * theta.sin(),
    ));
    let half = side / 2.0;
    let w = Rect::centered_square(center, half);
    w.intersection(world).unwrap_or(w)
}

/// Precomputes the churn schedule: each host's initial online flag and
/// the full list of crash/restart/join transitions, sorted by
/// `(epoch, host)`.
///
/// Every decision is hashed from the master seed per `(host, epoch)` —
/// no RNG stream is consumed, so an inert [`crate::ChurnConfig`] leaves
/// the run bit-identical to a churn-free build. The plan is applied
/// sequentially in the epoch loop by both the sequential and parallel
/// drivers, which keeps `run_parallel` deterministic for free.
fn plan_churn(cfg: &SimConfig) -> (Vec<bool>, Vec<(u64, usize, bool)>) {
    let n = cfg.params.mh_number;
    if cfg.churn.is_inert() {
        return (vec![true; n], Vec::new());
    }
    let total_epochs = (cfg.total_min() / cfg.epoch_min).ceil() as u64 + 1;
    let late = ((n as f64) * cfg.churn.late_join_frac.clamp(0.0, 1.0)).floor() as usize;
    let join_span = total_epochs.saturating_sub(1).max(1);
    let decide = ChannelFaults::from_loss_prob(cfg.seed ^ CHURN_SEED_SALT, 0.0, 0);

    /// Where a host is in its churn lifecycle.
    enum Phase {
        /// Late joiner waiting for its admission epoch.
        NotJoined(u64),
        Online,
        Offline,
    }
    let mut phase: Vec<Phase> = (0..n)
        .map(|h| {
            if h >= n - late {
                let join =
                    1 + split_seed(cfg.seed ^ JOIN_SEED_SALT, h as u64, 0) % join_span;
                Phase::NotJoined(join)
            } else {
                Phase::Online
            }
        })
        .collect();
    let online: Vec<bool> = phase.iter().map(|p| matches!(p, Phase::Online)).collect();

    let mut plan = Vec::new();
    for e in 1..=total_epochs {
        for (h, ph) in phase.iter_mut().enumerate() {
            match ph {
                Phase::NotJoined(join) if *join == e => {
                    plan.push((e, h, true));
                    *ph = Phase::Online;
                }
                Phase::NotJoined(_) => {}
                Phase::Online => {
                    if decide.event_fires(cfg.churn.crash_prob, h as u64, e) {
                        plan.push((e, h, false));
                        *ph = Phase::Offline;
                    }
                }
                Phase::Offline => {
                    if decide.event_fires(cfg.churn.restart_prob, h as u64 ^ RESTART_KEY_SALT, e)
                    {
                        plan.push((e, h, true));
                        *ph = Phase::Online;
                    }
                }
            }
        }
    }
    (online, plan)
}

fn sample_normal(rng: &mut SmallRng, mean: f64, sd: f64) -> f64 {
    // Box–Muller.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    mean + sd * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Cap on recorded (predicted correctness, was-correct) samples for
/// approximate answers.
const CALIBRATION_CAP: usize = 100_000;

/// Folds one measured query into the report. Called in global event
/// order regardless of thread count.
pub(crate) fn fold_outcome(report: &mut SimReport, o: QueryOutcome) {
    report.queries.total += 1;
    report.record_share(&o.share);
    if o.quality == AnswerQuality::Degraded {
        report.faults.queries_degraded += 1;
    }
    report.record_quality(o.quality, o.stale_age_min);
    if o.bound_violation {
        report.bound_violations += 1;
    }
    match o.resolution {
        Resolution::Peers => report.queries.by_peers += 1,
        Resolution::Approx => report.queries.by_approx += 1,
        Resolution::Broadcast => report.queries.by_broadcast += 1,
    }
    if let Some(air) = o.air {
        report.record_air(air);
    }
    if let Some((latency, tuning)) = o.baseline {
        report.baseline_latency.record(latency);
        report.baseline_tuning.record(tuning);
    }
    report.filter_saved_buckets += o.filter_saved;
    if let Some(cov) = o.window_coverage {
        report.partial_coverage_sum += cov;
        report.partial_coverage_count += 1;
    }
    if o.mismatch {
        report.exact_mismatches += 1;
    }
    if let Some(sample) = o.calibration {
        if report.calibration.len() < CALIBRATION_CAP {
            report.calibration.push(sample);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChurnConfig;
    use crate::params;

    fn tiny_cfg(kind: QueryKind) -> SimConfig {
        let mut p = params::la_city().scaled(0.005); // ~2 mi² world
        p.cache_size = 30;
        let mut cfg = SimConfig::paper_defaults(p, kind, 42);
        cfg.warmup_min = 5.0;
        cfg.measure_min = 10.0;
        cfg.validate = true;
        cfg.hilbert_order = 6;
        cfg
    }

    #[test]
    fn knn_simulation_answers_are_exact() {
        let mut sim = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap();
        let report = sim.run();
        assert!(report.queries.total > 20, "too few queries measured");
        assert_eq!(report.exact_mismatches, 0, "exact answers were wrong");
        // All resolution paths sum up.
        assert_eq!(
            report.queries.total,
            report.queries.by_peers + report.queries.by_approx + report.queries.by_broadcast
        );
        // Approximate answers were predicted with probability ≥ 0.5.
        for &(p, _) in &report.calibration {
            assert!(p >= 0.5 - 1e-9);
        }
    }

    #[test]
    fn window_simulation_answers_are_exact() {
        let mut sim = Simulation::try_new(tiny_cfg(QueryKind::Window)).unwrap();
        let report = sim.run();
        assert!(report.queries.total > 20);
        assert_eq!(report.exact_mismatches, 0);
        assert_eq!(report.queries.by_approx, 0, "windows have no approx tier");
        assert_eq!(
            report.queries.total,
            report.queries.by_peers + report.queries.by_broadcast
        );
    }

    #[test]
    fn sharing_reduces_latency_against_baseline() {
        let mut sim = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap();
        let report = sim.run();
        // The paper's headline: overall latency with sharing is below
        // the all-broadcast baseline (peer-solved queries cost ~0).
        assert!(
            report.overall_mean_latency() < report.baseline_latency.mean(),
            "sharing {} !< baseline {}",
            report.overall_mean_latency(),
            report.baseline_latency.mean()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let r1 = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap().run();
        let r2 = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap().run();
        assert_eq!(r1.queries.total, r2.queries.total);
        assert_eq!(r1.queries.by_peers, r2.queries.by_peers);
        assert_eq!(r1.broadcast_latency.sum, r2.broadcast_latency.sum);
    }

    #[test]
    fn run_parallel_is_bit_identical_to_run() {
        let sequential = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap().run();
        for threads in [1, 2, 4] {
            let parallel = Simulation::try_new(tiny_cfg(QueryKind::Knn))
                .unwrap()
                .run_parallel(&ExecPool::fixed(threads));
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn run_parallel_window_matches_run() {
        let sequential = Simulation::try_new(tiny_cfg(QueryKind::Window))
            .unwrap()
            .run();
        let parallel = Simulation::try_new(tiny_cfg(QueryKind::Window))
            .unwrap()
            .run_parallel(&ExecPool::fixed(3));
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn zero_range_disables_sharing() {
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.params.tx_range_m = 0.0;
        cfg.use_own_cache = false;
        let report = Simulation::try_new(cfg).unwrap().run();
        assert_eq!(report.queries.by_peers, 0);
        assert_eq!(report.queries.by_approx, 0);
        assert_eq!(report.queries.by_broadcast, report.queries.total);
        assert_eq!(report.exact_mismatches, 0);
    }

    #[test]
    fn short_range_runs_past_the_grid_cell_cap() {
        // 10 m cells over this 2.8-mile world are ~207,000 cells for
        // 1,866 hosts: past the grid's cells-per-host cap, as the 10 m
        // and 20 m points of the paper's range sweeps are at full scale.
        let cfg = || {
            let mut cfg = tiny_cfg(QueryKind::Knn);
            cfg.params = params::la_city().scaled(0.02);
            cfg.params.tx_range_m = 10.0;
            cfg
        };
        let report = Simulation::try_new(cfg()).unwrap().run();
        assert!(report.queries.total > 500, "too few queries measured");
        assert_eq!(report.exact_mismatches, 0);
        assert!(
            report.mean_peers_contacted() > 0.0,
            "no host ever had a neighbor"
        );
        let parallel = Simulation::try_new(cfg())
            .unwrap()
            .run_parallel(&ExecPool::fixed(4));
        assert_eq!(parallel, report);
    }

    #[test]
    fn multihop_sharing_reaches_more_peers() {
        let reach = |hops: usize| {
            let mut cfg = tiny_cfg(QueryKind::Knn);
            cfg.p2p_hops = hops;
            cfg.measure_min = 8.0;
            let r = Simulation::try_new(cfg).unwrap().run();
            assert_eq!(r.exact_mismatches, 0, "multihop broke exactness");
            (r.mean_peers_contacted(), r.queries.pct_peers() + r.queries.pct_approx())
        };
        let (peers1, solved1) = reach(1);
        let (peers3, solved3) = reach(3);
        assert!(
            peers3 > peers1 * 1.5,
            "3 hops ({peers3:.1} peers) should reach well beyond 1 hop ({peers1:.1})"
        );
        assert!(
            solved3 + 1e-9 >= solved1 * 0.9,
            "extra knowledge should not hurt: {solved3:.1}% vs {solved1:.1}%"
        );
    }

    #[test]
    fn try_new_surfaces_config_errors() {
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.bucket_capacity = 0;
        assert!(matches!(
            Simulation::try_new(cfg),
            Err(crate::ConfigError::ZeroBucketCapacity)
        ));
        assert!(Simulation::try_new(tiny_cfg(QueryKind::Knn)).is_ok());
    }

    #[test]
    fn inert_fault_config_is_bit_identical() {
        // Raising the retry budget (or any knob that keeps all rates at
        // zero) must not shift a single number: fault decisions are
        // hashed, not drawn from the simulation's RNG streams.
        let base = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap().run();
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.faults.retry_budget = 99;
        let with_inert = Simulation::try_new(cfg).unwrap().run();
        assert_eq!(base.queries.total, with_inert.queries.total);
        assert_eq!(base.queries.by_peers, with_inert.queries.by_peers);
        assert_eq!(base.queries.by_approx, with_inert.queries.by_approx);
        assert_eq!(base.broadcast_latency.sum, with_inert.broadcast_latency.sum);
        assert_eq!(base.broadcast_tuning.sum, with_inert.broadcast_tuning.sum);
        assert_eq!(base.share_pois, with_inert.share_pois);
        assert_eq!(with_inert.faults.retries_total, 0);
        assert_eq!(with_inert.faults.buckets_lost_total, 0);
        assert_eq!(with_inert.faults.queries_degraded, 0);
        assert_eq!(with_inert.faults.replies_dropped, 0);
    }

    #[test]
    fn lossy_channel_never_silently_wrong() {
        // Deep retry budget: every loss is recovered, answers stay exact.
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.faults.bucket_loss_prob = 0.15;
        cfg.faults.retry_budget = 50;
        let recovered = Simulation::try_new(cfg).unwrap().run();
        assert!(recovered.faults.retries_total > 0, "15% loss produced no retries");
        assert_eq!(recovered.faults.buckets_lost_total, 0);
        assert_eq!(recovered.faults.queries_degraded, 0);
        assert_eq!(recovered.exact_mismatches, 0);

        // No retries allowed: losses surface as degraded queries, never
        // as validated-exact wrong answers.
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.faults.bucket_loss_prob = 0.3;
        cfg.faults.retry_budget = 0;
        let degraded = Simulation::try_new(cfg).unwrap().run();
        assert!(degraded.faults.buckets_lost_total > 0, "30% loss with no retries lost nothing");
        assert!(degraded.faults.queries_degraded > 0);
        assert_eq!(degraded.exact_mismatches, 0);
    }

    #[test]
    fn lossy_window_queries_stay_exact() {
        let mut cfg = tiny_cfg(QueryKind::Window);
        cfg.faults.bucket_loss_prob = 0.15;
        cfg.faults.retry_budget = 50;
        let report = Simulation::try_new(cfg).unwrap().run();
        assert!(report.faults.retries_total > 0);
        assert_eq!(report.faults.queries_degraded, 0);
        assert_eq!(report.exact_mismatches, 0);
    }

    #[test]
    fn dropped_peer_replies_degrade_to_broadcast() {
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.faults.peer_drop_prob = 1.0;
        cfg.use_own_cache = false;
        let report = Simulation::try_new(cfg).unwrap().run();
        assert!(report.faults.replies_dropped > 0, "total drop produced no drops");
        // With every reply lost and no own cache, nothing resolves by
        // peers — but every answer is still exact via the channel.
        assert_eq!(report.queries.by_peers, 0);
        assert_eq!(report.queries.by_approx, 0);
        assert_eq!(report.exact_mismatches, 0);
    }

    #[test]
    fn faulty_runs_are_deterministic_given_seed() {
        let cfg = || {
            let mut c = tiny_cfg(QueryKind::Knn);
            c.faults.bucket_loss_prob = 0.1;
            c.faults.peer_drop_prob = 0.1;
            c.faults.retry_budget = 2;
            c
        };
        let r1 = Simulation::try_new(cfg()).unwrap().run();
        let r2 = Simulation::try_new(cfg()).unwrap().run();
        assert_eq!(r1.queries.total, r2.queries.total);
        assert_eq!(r1.broadcast_latency.sum, r2.broadcast_latency.sum);
        assert_eq!(r1.faults.retries_total, r2.faults.retries_total);
        assert_eq!(r1.faults.buckets_lost_total, r2.faults.buckets_lost_total);
        assert_eq!(r1.faults.queries_degraded, r2.faults.queries_degraded);
        assert_eq!(r1.faults.replies_dropped, r2.faults.replies_dropped);
    }

    #[test]
    fn loss_raises_latency_monotonically() {
        let run = |loss: f64| {
            let mut cfg = tiny_cfg(QueryKind::Knn);
            cfg.validate = false;
            cfg.faults.bucket_loss_prob = loss;
            cfg.faults.retry_budget = 50;
            Simulation::try_new(cfg).unwrap().run().broadcast_latency.mean()
        };
        let (l0, l10, l20) = (run(0.0), run(0.10), run(0.20));
        assert!(l10 > l0, "10% loss should cost latency: {l10} !> {l0}");
        assert!(l20 > l10, "20% loss should cost more: {l20} !> {l10}");
    }

    #[test]
    fn grid_roads_mobility_runs() {
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.mobility = MobilityModel::GridRoads {
            spacing_milli_mi: 250,
        };
        cfg.measure_min = 5.0;
        let report = Simulation::try_new(cfg).unwrap().run();
        assert!(report.queries.total > 0);
        assert_eq!(report.exact_mismatches, 0);
    }

    #[test]
    fn a_host_stream_holds_only_state() {
        // The shared `MobilityConfig` (64 B) lives once on the
        // `Simulation`; a million-host fleet streams this column through
        // `advance_fleet` every epoch.
        let size = std::mem::size_of::<HostMobility>();
        assert!(size <= 104, "HostMobility is {size} B");
    }

    /// The full chaos stack at once: host churn, two outage windows, and
    /// malforming peers.
    fn chaos_cfg(kind: QueryKind) -> SimConfig {
        let mut cfg = tiny_cfg(kind);
        cfg.churn = ChurnConfig {
            crash_prob: 0.05,
            restart_prob: 0.4,
            late_join_frac: 0.2,
        };
        // Epochs are 0.25 min; warm-up ends at epoch 20. Two outages
        // inside the measured window: t ∈ [6, 8) and t ∈ [11, 12.5).
        cfg.outages = vec![(24, 32), (44, 50)];
        cfg.faults.peer_malform_prob = 0.2;
        cfg
    }

    #[test]
    fn chaos_runs_are_deterministic_and_parallel_identical() {
        let sequential = Simulation::try_new(chaos_cfg(QueryKind::Knn)).unwrap().run();
        assert!(sequential.hosts_crashed > 0, "5% crash rate crashed nobody");
        assert!(sequential.hosts_restarted > 0, "nobody restarted or joined");
        for threads in [1, 2, 4] {
            let parallel = Simulation::try_new(chaos_cfg(QueryKind::Knn))
                .unwrap()
                .run_parallel(&ExecPool::fixed(threads));
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn a_second_run_starts_from_a_pristine_world() {
        // The second run used to die in the waypoint model ("mobility
        // time went backwards"): the scheduler restarted at t = 0 over
        // mobility, caches and a churn cursor left at the horizon.
        let mut sim = Simulation::try_new(chaos_cfg(QueryKind::Knn)).unwrap();
        let first = sim.run();
        assert!(first.hosts_crashed > 0, "churn must be active");
        assert_eq!(sim.run(), first);
        assert_eq!(sim.run_parallel(&ExecPool::fixed(4)), first);
    }

    #[test]
    fn outages_degrade_to_bounded_stale_answers() {
        for kind in [QueryKind::Knn, QueryKind::Window] {
            let report = Simulation::try_new(chaos_cfg(kind)).unwrap().run();
            // Every measured query got a quality grade, and the silent
            // epochs forced some off the Exact path.
            assert_eq!(report.quality.total(), report.queries.total, "{kind:?}");
            assert!(
                report.quality.stale + report.quality.failed > 0,
                "{kind:?}: outage epochs produced no degraded service"
            );
            // The chaos oracle held: stale answers stayed within their
            // declared bound, exact answers stayed exact.
            assert_eq!(report.bound_violations, 0, "{kind:?}");
            assert_eq!(report.exact_mismatches, 0, "{kind:?}");
            if report.quality.stale > 0 {
                assert!(report.mean_stale_age_min() >= 0.0);
                assert!(report.stale_age_min_max >= report.mean_stale_age_min());
            }
            // Hosts that answered through the outage resynchronized once
            // the channel came back.
            assert!(report.outage_resyncs > 0, "{kind:?}: nobody resynced");
        }
    }

    #[test]
    fn malforming_peers_get_quarantined() {
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.faults.peer_malform_prob = 0.3;
        let report = Simulation::try_new(cfg).unwrap().run();
        assert!(
            report.faults.quarantine_strikes > 0,
            "30% malform rate produced no strikes"
        );
        assert!(
            report.faults.peers_quarantined > 0,
            "strikes never led to a skipped peer"
        );
        // Malformed regions are rejected before use: answers stay exact.
        assert_eq!(report.exact_mismatches, 0);
        assert!(report.faults.regions_rejected > 0);
    }

    #[test]
    fn inert_chaos_config_is_bit_identical_to_baseline() {
        let base = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap().run();
        let mut cfg = tiny_cfg(QueryKind::Knn);
        // Nonzero restart probability is inert when nothing ever
        // crashes and nobody joins late.
        cfg.churn = ChurnConfig {
            crash_prob: 0.0,
            restart_prob: 0.9,
            late_join_frac: 0.0,
        };
        cfg.outages = Vec::new();
        let with_inert = Simulation::try_new(cfg).unwrap().run();
        assert_eq!(base, with_inert, "inert chaos knobs shifted the run");
        assert_eq!(with_inert.hosts_crashed, 0);
        assert_eq!(with_inert.hosts_restarted, 0);
        assert_eq!(with_inert.quality.stale, 0);
        assert_eq!(with_inert.quality.failed, 0);
    }

    #[test]
    fn knn_oracle_checks_exactness_and_the_bound() {
        let truth = [1.0, 2.0, 3.0];
        let holds = |exact: bool, got: &[f64]| knn_holds(exact, got.iter().copied().zip(truth));
        // Exact: every rank equal within 1e-9, in either direction.
        assert!(holds(true, &[1.0, 2.0 + 1e-12, 3.0]));
        assert!(!holds(true, &[1.0, 2.5, 3.0]), "farther at a rank");
        assert!(!holds(true, &[1.0, 2.0, 2.9]), "closer at a rank");
        // Any other grade may only have missed POIs: farther stays in
        // the bound, closer than the truth at any rank breaks it.
        assert!(holds(false, &truth));
        assert!(holds(false, &[1.0, 2.5, 4.0]));
        assert!(holds(false, &[]));
        assert!(!holds(false, &[1.0, 1.5, 4.0]));
    }

    #[test]
    fn window_oracle_checks_exactness_and_the_bound() {
        let truth = [2, 5, 9];
        // Exact: the very set, no id missing and none extra.
        assert!(window_holds(true, &[2, 5, 9], &truth));
        assert!(!window_holds(true, &[2, 9], &truth), "missing id");
        assert!(!window_holds(true, &[2, 5, 7, 9], &truth), "extra id");
        // Any other grade may only have dropped POIs: a subset holds,
        // an id outside the truth breaks the bound.
        assert!(window_holds(false, &[], &truth));
        assert!(window_holds(false, &[2, 9], &truth));
        assert!(!window_holds(false, &[2, 7], &truth));
    }
}
