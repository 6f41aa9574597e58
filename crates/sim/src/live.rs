//! The base-station side of a run: the world and its one epoch barrier.
//!
//! [`LiveWorld`] is the paper's base-station module (§4.1) plus per-host
//! session state: the POI world, the air index behind the configured
//! backend, the `(1, m)` schedule, the chaos oracle, the fault/outage
//! layers, each host's cache, sync clock and quarantine ledger, and the
//! epoch-start neighbor grid. It has no mobility and poses no queries —
//! a *client fleet* supplies those, in barrier order: churn
//! (`connect`/`reconnect`/`disconnect`), then position updates, then
//! [`LiveWorld::begin_epoch`] (grid + the last epoch's cache writes go
//! public), then one or more [`LiveWorld::execute_epoch`] batches. The
//! simulator, which holds its epoch's one batch before the barrier,
//! enters through `begin_epoch_near` instead, and its grid bins only
//! the hosts that batch can reach.
//! A host has one cache (§3.2) and the cache column *is* what peers
//! read — every cache as of the last barrier: a writer leaves a copy
//! there and keeps the original (parked in `written` between batches).
//!
//! Two client fleets drive it: the serving layer (`airshare-serve`),
//! whose clients are sessions on the wire, and the closed-loop
//! [`crate::Simulation`], whose clients are its own mobility models and
//! query scheduler. Both run this file's barrier and resolve queries
//! through the same `EpochCtx::process_query`, so a recorded workload
//! replayed against a `LiveWorld` is answered identically by
//! construction (DESIGN.md §14).

use crate::engine::{fold_outcome, EpochCtx, HostState, LiveTask, QueryAnswer, QuerySpec};
use crate::fleet::FleetStore;
use crate::{BackendKind, ConfigError, SimConfig, SimReport};
use airshare_broadcast::{
    wire, AirIndex, AirIndexBackend, BuildParams, ChannelFaults, OutageSchedule, Poi, PoiTable,
    QueryScratch, RtreeAirIndex, Schedule,
};
use airshare_cache::{HostCache, QuarantineConfig, QuarantineLedger};
use airshare_exec::{split_seed, ExecPool};
use airshare_geom::{meters_to_miles, Point, Rect};
use airshare_obs::{AnswerQuality, PhaseTimes, Recorder, TraceEvent};
use airshare_p2p::NeighborGrid;
use airshare_rtree::RTree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Seed domain for per-host quarantine backoff jitter.
const QUARANTINE_SEED_SALT: u64 = 0x0A42_A7F1_5EED_0005;

/// One query submitted to the live world: pure inputs, exactly what the
/// closed loop would have derived from mobility and the window stream.
#[derive(Clone, Debug)]
pub struct LiveQuery {
    /// Global submission order — doubles as the fault-layer nonce, so
    /// admission order fully determines fault coin flips.
    pub nonce: u64,
    /// The querying session's host id.
    pub host: usize,
    /// Query time in simulation minutes.
    pub at_min: f64,
    /// The host's position at query time.
    pub pos: Point,
    /// The host's heading (unit vector), if known.
    pub heading: Option<(f64, f64)>,
    /// What the query asks.
    pub spec: QuerySpec,
}

/// The base station as a long-lived, incrementally-driven world.
pub struct LiveWorld {
    cfg: SimConfig,
    pub(crate) bounds: Rect,
    /// The canonical POI table: the one copy of every POI payload.
    /// Caches, peer replies, and the index all refer into it by handle.
    table: PoiTable,
    /// The broadcast organization, behind the backend trait: the
    /// `BackendKind` knob picks the concrete index at build time.
    index: Box<dyn AirIndexBackend>,
    schedule: Schedule,
    oracle: RTree<u32>,
    /// Deterministic fault decision source; `None` when the fault config
    /// is inert, so the ideal-channel path pays nothing.
    faults: Option<ChannelFaults>,
    /// Base-station silence windows over epoch numbers.
    outage: OutageSchedule,
    /// Columnar per-session state: online flags, last reported
    /// positions (offline hosts keep theirs), sync clocks, arena-backed
    /// caches (what peers see: as of the last barrier), quarantine ledgers.
    pub(crate) fleet: FleetStore,
    /// Epoch-start neighbor grid over online hosts. Its buffers are
    /// reserved for the world's extent once and refilled at each
    /// boundary by a counting sort from scratch (88 % of hosts change
    /// cell per epoch, so a delta would save nothing): of the whole
    /// fleet in `begin_epoch`, of the hosts the epoch's queries can
    /// reach in `begin_epoch_near`.
    grid: NeighborGrid,
    /// Grid cells a query's peer flood can reach from its own cell:
    /// `p2p_hops × ⌈range/cell⌉`.
    rings: u32,
    /// The query positions of the last `begin_epoch_near`, kept for
    /// their buffer.
    centers: Vec<Point>,
    /// The live caches of hosts that wrote since the last boundary (a
    /// batch commit or a crash wipe), parked between batches while the
    /// column shows their epoch-start copies. Empty after `begin_epoch`.
    written: BTreeMap<usize, HostCache>,
    /// Retired copies, arenas kept for the next epoch's writers: as
    /// many as an epoch has had writers, not as many as hosts.
    spare: Vec<HostCache>,
    /// The epoch currently being served.
    epoch: u64,
    range: f64,
    report: SimReport,
    /// Wall-clock grid / snapshot / query time of every barrier so far
    /// (`advance` belongs to whoever moves the fleet). Measurement
    /// only — never part of the world's output.
    pub(crate) phases: PhaseTimes,
}

impl LiveWorld {
    /// Builds the world from a validated configuration: POIs placed
    /// uniformly at random (the paper's own Poisson-field assumption),
    /// the air index behind the configured backend, the `(1, m)`
    /// schedule, the ground-truth R-tree, and per-host caches, sync
    /// clocks and quarantine ledgers. Every draw is a function of the
    /// configuration's seed alone, so two worlds built from one config
    /// agree on every POI, bucket, fault seed, and ledger. All sessions
    /// start offline with empty caches.
    pub fn try_new(cfg: SimConfig) -> Result<Self, ConfigError> {
        cfg.check()?;
        let side = cfg.params.world_mi;
        let bounds = Rect::from_coords(0.0, 0.0, side, side);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let table = PoiTable::from_pois((0..cfg.params.poi_number).map(|i| {
            Poi::new(
                i as u32,
                Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
            )
        }));
        let build = BuildParams {
            world: bounds,
            hilbert_order: cfg.hilbert_order,
            bucket_capacity: cfg.bucket_capacity,
        };
        // cfg.check() already vetted the capacity, so a build error here
        // is unreachable; map it anyway rather than panic.
        let index: Box<dyn AirIndexBackend> = match cfg.backend {
            BackendKind::Hilbert => Box::new(
                <AirIndex as AirIndexBackend>::try_build(&table, &build)
                    .map_err(|_| ConfigError::ZeroBucketCapacity)?,
            ),
            BackendKind::Rtree => Box::new(
                <RtreeAirIndex as AirIndexBackend>::try_build(&table, &build)
                    .map_err(|_| ConfigError::ZeroBucketCapacity)?,
            ),
        };
        let oracle = RTree::bulk_load(table.iter().map(|p| (p.pos, p.id)).collect());
        let schedule = Schedule::try_for_backend(index.as_ref(), cfg.index_m)
            .map_err(|_| ConfigError::ZeroIndexReplication)?;
        let n = cfg.params.mh_number;
        let caches = (0..n)
            .map(|_| {
                HostCache::new(cfg.params.cache_size, cfg.policy)
                    .with_subsume_overlap(cfg.subsume_overlap)
            })
            .collect();
        let quarantines = (0..n)
            .map(|h| {
                QuarantineLedger::new(
                    QuarantineConfig::default(),
                    split_seed(cfg.seed ^ QUARANTINE_SEED_SALT, h as u64, 0),
                )
            })
            .collect();
        // Fault decisions are hashed from their own seed (derived from
        // the master seed), never drawn from an RNG stream: an inert
        // fault config leaves every other random stream untouched.
        let faults = (!cfg.faults.is_inert()).then(|| {
            cfg.faults.channel_faults(
                cfg.seed ^ 0xFA17_5EED_0000_0001,
                wire::bucket_frame_bytes(cfg.bucket_capacity),
            )
        });
        // All sessions start offline, at the origin, in sync; `connect`
        // admits them.
        let fleet = FleetStore {
            online: vec![false; n],
            positions: vec![Point::new(0.0, 0.0); n],
            last_sync_min: vec![0.0; n],
            needs_resync: vec![false; n],
            caches,
            quarantines,
        };
        let range = meters_to_miles(cfg.params.tx_range_m);
        let cell = range.max(1e-3);
        let mut grid = NeighborGrid::with_bounds(&bounds, cell, n);
        grid.refresh_active(&fleet.positions, &fleet.online);
        let reach = (range / cell).ceil() as u32;
        let rings = u32::try_from(cfg.p2p_hops).map_or(u32::MAX, |h| h.saturating_mul(reach));
        Ok(LiveWorld {
            outage: OutageSchedule::new(cfg.outages.clone()),
            cfg,
            bounds,
            table,
            index,
            schedule,
            oracle,
            faults,
            fleet,
            grid,
            rings,
            centers: Vec::new(),
            written: BTreeMap::new(),
            spare: Vec::new(),
            epoch: 0,
            range,
            report: SimReport::default(),
            phases: PhaseTimes::default(),
        })
    }

    /// The configuration the world was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Fleet capacity (maximum host id + 1).
    pub fn hosts(&self) -> usize {
        self.fleet.len()
    }

    /// The canonical POI table session caches resolve against.
    pub fn poi_table(&self) -> &PoiTable {
        &self.table
    }

    /// The per-session columns, read-only. Caches are as of the last
    /// `begin_epoch`: a direct client calls it once more to publish its
    /// final epoch's writes (`Simulation::run*` does, so ends complete).
    pub fn fleet(&self) -> &FleetStore {
        &self.fleet
    }

    /// Whether a session is currently live.
    pub fn is_online(&self, host: usize) -> bool {
        self.fleet.is_online(host)
    }

    /// Opens a session for a host that was never online (initial join).
    /// Its sync clock stays at the world's origin — the pristine state
    /// of a host online from the start.
    pub fn connect(&mut self, host: usize) {
        self.fleet.online[host] = true;
    }

    /// Reopens a session after a crash: the host comes back cold at
    /// `planned_epoch`'s boundary, channel unheard, owing a resync. A
    /// host that is already online is left alone.
    pub fn reconnect(&mut self, host: usize, planned_epoch: u64, rec: &mut dyn Recorder) {
        if self.fleet.online[host] {
            return;
        }
        self.fleet.online[host] = true;
        self.fleet.last_sync_min[host] = planned_epoch as f64 * self.cfg.epoch_min;
        self.fleet.needs_resync[host] = true;
        self.report.hosts_restarted += 1;
        rec.record(TraceEvent::HostRestarted {
            host: host as u32,
            epoch: planned_epoch,
        });
    }

    /// Closes a session as a crash: the host goes dark and all volatile
    /// state (cache, quarantine memory) is wiped; peers see the wipe from
    /// the next boundary on. A host that is already offline is left alone.
    pub fn disconnect(&mut self, host: usize, planned_epoch: u64, rec: &mut dyn Recorder) {
        if !self.fleet.online[host] {
            return;
        }
        self.fleet.online[host] = false;
        let mut cache = self.take_cache(host);
        cache.clear();
        self.written.insert(host, cache);
        self.fleet.quarantines[host].clear();
        self.report.hosts_crashed += 1;
        rec.record(TraceEvent::HostCrashed {
            host: host as u32,
            epoch: planned_epoch,
        });
    }

    /// Records a host's position (kept while offline too: offline hosts
    /// are merely undiscoverable).
    pub fn update_position(&mut self, host: usize, pos: Point) {
        self.fleet.positions[host] = pos;
    }

    /// Commits the epoch boundary: rebuilds the retained neighbor grid
    /// over the online fleet at their reported positions (a counting
    /// sort of every online host into reused buffers) and makes the
    /// last epoch's cache writes peer-visible. Must run after this
    /// boundary's churn and position updates, before the epoch's
    /// batches — which need not be known yet.
    pub fn begin_epoch(&mut self, epoch: u64) {
        let t_phase = Instant::now();
        self.grid
            .refresh_active(&self.fleet.positions, &self.fleet.online);
        self.commit_boundary(epoch, t_phase);
    }

    /// [`LiveWorld::begin_epoch`] for a client that knows the epoch's
    /// whole batch: the grid bins only the hosts within `rings` cells of
    /// some query's cell, which is every host the batch's peer floods
    /// can reach, so `batch` is answered exactly as after a full
    /// refresh. Executing any other query this epoch is a logic error.
    /// A large fleet's per-host pass is fanned out over `pool`.
    pub(crate) fn begin_epoch_near(&mut self, epoch: u64, batch: &[LiveQuery], pool: &ExecPool) {
        let t_phase = Instant::now();
        self.centers.clear();
        self.centers.extend(batch.iter().map(|q| q.pos));
        self.grid.refresh_near(
            &self.fleet.positions,
            &self.fleet.online,
            &self.centers,
            self.rings,
            pool,
        );
        self.commit_boundary(epoch, t_phase);
    }

    /// The rest of a boundary once the grid, refreshed since `t_phase`,
    /// is: the parked caches go public.
    fn commit_boundary(&mut self, epoch: u64, t_phase: Instant) {
        self.phases.grid_ns += t_phase.elapsed().as_nanos() as u64;
        self.install_written();
        self.epoch = epoch;
    }

    /// Swaps every parked cache back into the column, retiring its
    /// stand-in: what a host saw of itself all along, peers see from here.
    pub(crate) fn install_written(&mut self) {
        let t_phase = Instant::now();
        while let Some((host, cache)) = self.written.pop_first() {
            let copy = std::mem::replace(&mut self.fleet.caches[host], cache);
            self.spare.push(copy);
        }
        self.phases.snapshot_ns += t_phase.elapsed().as_nanos() as u64;
    }

    /// Takes `host`'s live cache for writing: what an earlier batch of
    /// this epoch parked, else the column's original — the host's own warm
    /// arena — leaving peers a copy in a retired buffer (if one is spare).
    fn take_cache(&mut self, host: usize) -> HostCache {
        self.written.remove(&host).unwrap_or_else(|| {
            let column = &mut self.fleet.caches[host];
            let copy = match self.spare.pop() {
                Some(mut buf) => {
                    buf.clone_from(column);
                    buf
                }
                None => column.clone(),
            };
            std::mem::replace(column, copy)
        })
    }

    /// Executes one admitted batch on the pool and commits the barrier:
    /// host state in host-id order, report outcomes in nonce order. An
    /// epoch may take several batches; a host sees its own writes at
    /// once, peers and `fleet()` only after the next `begin_epoch`.
    ///
    /// Queries from offline sessions are answered `Failed`/empty without
    /// touching the world. Returns every query's answer, nonce-ordered.
    pub fn execute_epoch<R: Recorder + Send>(
        &mut self,
        queries: Vec<LiveQuery>,
        pool: &ExecPool,
        ctxs: &mut [(R, QueryScratch)],
    ) -> Vec<QueryAnswer> {
        let mut answers = Vec::with_capacity(queries.len());
        self.execute_batch(queries, pool, ctxs, Some(&mut answers));
        answers
    }

    /// [`LiveWorld::execute_epoch`] with the answers optional: a closed
    /// loop that only wants the report passes `None` and no answer is
    /// ever assembled. Answers are appended to the sink, which is then
    /// sorted by nonce.
    pub(crate) fn execute_batch<R: Recorder + Send>(
        &mut self,
        queries: Vec<LiveQuery>,
        pool: &ExecPool,
        ctxs: &mut [(R, QueryScratch)],
        mut answers: Option<&mut Vec<QueryAnswer>>,
    ) {
        let t_phase = Instant::now();
        // Shard by host: all of one host's queries stay on one worker.
        // BTreeMap gives host-id task order.
        let mut by_host: BTreeMap<usize, Vec<LiveQuery>> = BTreeMap::new();
        for q in queries {
            if self.is_online(q.host) {
                by_host.entry(q.host).or_default().push(q);
            } else if let Some(sink) = answers.as_deref_mut() {
                sink.push(QueryAnswer {
                    nonce: q.nonce,
                    host: q.host as u32,
                    ids: Vec::new(),
                    quality: AnswerQuality::Failed,
                });
            }
        }
        // Move host state out *before* the EpochCtx borrows the world;
        // per-host queries run in nonce (= admission) order.
        let tasks: Vec<LiveTask> = by_host
            .into_iter()
            .map(|(host, mut queries)| {
                queries.sort_by_key(|q| q.nonce);
                LiveTask {
                    host,
                    queries,
                    state: HostState {
                        cache: self.take_cache(host),
                        sync: self.fleet.sync_state(host),
                        quarantine: std::mem::replace(
                            &mut self.fleet.quarantines[host],
                            QuarantineLedger::new(QuarantineConfig::default(), 0),
                        ),
                        resyncs: 0,
                    },
                }
            })
            .collect();

        let ctx = EpochCtx {
            cfg: &self.cfg,
            world: &self.bounds,
            table: &self.table,
            index: self.index.as_ref(),
            schedule: &self.schedule,
            oracle: &self.oracle,
            faults: self.faults.as_ref(),
            grid: &self.grid,
            snapshot: &self.fleet.caches,
            range: self.range,
            epoch: self.epoch,
            outage: &self.outage,
        };
        let want_answers = answers.is_some();
        let done = pool.map_with(ctxs, tasks, |(rec, scratch), _, task| {
            ctx.run_live_host(task, want_answers, scratch, rec)
        });

        // Barrier: commit host state in host-id order (`map_with`
        // returns results in task order), then fold outcomes in nonce
        // order so every accumulation is scheduling-independent.
        let mut outcomes = Vec::new();
        for d in done {
            self.written.insert(d.host, d.state.cache);
            self.fleet.set_sync_state(d.host, d.state.sync);
            self.fleet.quarantines[d.host] = d.state.quarantine;
            self.report.outage_resyncs += d.state.resyncs;
            outcomes.extend(d.outcomes);
            if let Some(sink) = answers.as_deref_mut() {
                sink.extend(d.answers);
            }
        }
        outcomes.sort_by_key(|&(nonce, _)| nonce);
        for (_, o) in outcomes {
            fold_outcome(&mut self.report, o);
        }
        if let Some(sink) = answers {
            sink.sort_by_key(|a| a.nonce);
        }
        self.phases.query_ns += t_phase.elapsed().as_nanos() as u64;
    }

    /// The accumulated report of every batch executed so far: what
    /// [`crate::Simulation::run`] returns, so a full replay's report can
    /// be compared field-for-field against the recording run's.
    pub fn report(&self) -> &SimReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{params, QueryKind, Simulation};
    use airshare_broadcast::{PoiCategory, PoiId};
    use airshare_obs::{MetricsRecorder, NoopRecorder};

    const CAT: PoiCategory = PoiCategory::GAS_STATION;

    fn small_cfg() -> SimConfig {
        let mut p = params::la_city().scaled(0.005);
        p.cache_size = 30;
        let mut cfg = SimConfig::paper_defaults(p, QueryKind::Knn, 9);
        cfg.hilbert_order = 6;
        cfg
    }

    fn knn(nonce: u64, host: usize, at_min: f64, pos: Point) -> LiveQuery {
        LiveQuery {
            nonce,
            host,
            at_min,
            pos,
            heading: None,
            spec: QuerySpec::Knn { k: 3 },
        }
    }

    /// What a peer asking `cache` would be shown.
    fn shared(cache: &HostCache) -> Vec<(Rect, Vec<PoiId>)> {
        (cache.share_regions(CAT).map(|(r, ids)| (r, ids.to_vec()))).collect()
    }

    /// A crash of a dark host and a restart of a live one are no-ops:
    /// no counter, no event, no parked cache, no resync owed.
    #[test]
    fn repeated_churn_calls_change_nothing() {
        let mut world = LiveWorld::try_new(small_cfg()).unwrap();
        let mut rec = MetricsRecorder::new();
        world.connect(0);
        world.disconnect(0, 1, &mut rec);
        world.begin_epoch(1);
        world.disconnect(0, 2, &mut rec);
        assert!(
            world.written.is_empty(),
            "a dark host's cache was parked again"
        );
        world.reconnect(0, 3, &mut rec);
        world.connect(1);
        for live in [0, 1] {
            world.reconnect(live, 4, &mut rec);
        }
        assert!(
            !world.fleet.needs_resync(1),
            "a healthy host was made to resync"
        );
        let report = world.report();
        assert_eq!((report.hosts_crashed, report.hosts_restarted), (1, 1));
        let seen = rec.snapshot();
        assert_eq!(
            (seen.hosts_crashed_total, seen.hosts_restarted_total),
            (1, 1)
        );
    }

    /// The cache column is the peers' view: equal to every host's live
    /// cache at each boundary, frozen between boundaries while writers
    /// work on their own originals. Two batches per epoch (as the
    /// scaled service submits them), a crash and a restart between
    /// barriers, a crash between batches, and the end of a closed run.
    #[test]
    fn peers_read_the_epoch_start_column_and_writers_their_own() {
        let cfg = small_cfg();
        let epoch_min = cfg.epoch_min;
        let mut world = LiveWorld::try_new(cfg).unwrap();
        let side = world.bounds.x2;
        let hosts = 12.min(world.hosts());
        for h in 0..hosts {
            world.connect(h);
        }
        let pool = ExecPool::fixed(2);
        let mut ctxs = vec![(NoopRecorder, QueryScratch::new()); 2];
        let mut nonce = 0u64;
        for epoch in 0..8u64 {
            match epoch {
                2 => {
                    assert!(
                        world.fleet.caches[1].region_count(CAT) > 0,
                        "the crash must wipe something peers could see"
                    );
                    world.disconnect(1, epoch, &mut NoopRecorder);
                }
                4 => world.reconnect(1, epoch, &mut NoopRecorder),
                _ => {}
            }
            let at = |h: usize| {
                let f = (h as f64 + 0.5 + 0.1 * epoch as f64) / (hosts as f64 + 1.0);
                Point::new(f * side, (1.0 - f) * side)
            };
            for h in 0..hosts {
                world.update_position(h, at(h));
            }
            // The boundary publishes exactly what the writers hold.
            let live: Vec<_> = (0..world.hosts())
                .map(|h| shared(world.written.get(&h).unwrap_or(&world.fleet.caches[h])))
                .collect();
            world.begin_epoch(epoch);
            assert!(
                world.written.is_empty(),
                "epoch {epoch}: a writer left parked"
            );
            let reference = world.fleet.caches.clone();
            for (h, live) in live.iter().enumerate() {
                assert_eq!(
                    &shared(&reference[h]),
                    live,
                    "host {h} stale in epoch {epoch}"
                );
            }
            for half in 0..2 {
                // Host 1 sits out the epoch before its crash, so only
                // `disconnect` itself can have parked it; host 0 asks in
                // both halves, so its second task starts from `written`.
                let batch: Vec<LiveQuery> = (0..hosts)
                    .filter(|&h| (h == 0 || h % 2 == half) && (h, epoch) != (1, 1))
                    .map(|host| {
                        nonce += 1;
                        let at_min = (epoch as f64 + 0.25 + 0.5 * half as f64) * epoch_min;
                        knn(nonce, host, at_min, at(host))
                    })
                    .collect();
                let posed = batch.len();
                assert_eq!(world.execute_epoch(batch, &pool, &mut ctxs).len(), posed);
                // A crash *between* batches: peers keep the pre-crash
                // regions until the next boundary, and lose them there.
                if (epoch, half) == (6, 0) {
                    assert!(reference[3].region_count(CAT) > 0, "nothing to wipe");
                    world.disconnect(3, epoch, &mut NoopRecorder);
                    assert_eq!(world.written[&3].region_count(CAT), 0);
                }
                for (h, frozen) in reference.iter().enumerate() {
                    assert_eq!(
                        shared(&world.fleet.caches[h]),
                        shared(frozen),
                        "host {h}'s peers saw epoch {epoch} move under them (batch {half})"
                    );
                }
            }
            // Each crash went public at the boundary after it.
            for (published, host) in [(2, 1), (7, 3)] {
                if epoch == published {
                    assert_eq!(reference[host].region_count(CAT), 0, "wipe unpublished");
                }
            }
        }
        assert!(
            world.fleet.caches.iter().any(|c| c.region_count(CAT) > 0),
            "no cache ever committed a region"
        );

        // Own view live: a lone host's first query goes on air and
        // caches; its repeat in the same epoch's second batch is
        // answered from that insert, which the column does not show yet.
        let mut cfg = small_cfg();
        cfg.warmup_min = 0.0;
        let mut world = LiveWorld::try_new(cfg).unwrap();
        world.connect(0);
        let spot = Point::new(0.5 * side, 0.5 * side);
        world.update_position(0, spot);
        world.begin_epoch(0);
        for (n, at_min) in [(1, 0.25 * epoch_min), (2, 0.75 * epoch_min)] {
            world.execute_epoch(vec![knn(n, 0, at_min, spot)], &pool, &mut ctxs);
        }
        let q = world.report().queries;
        assert_eq!(
            (q.total, q.by_broadcast),
            (2, 1),
            "own insert unseen: {q:?}"
        );
        assert_eq!(world.fleet.caches[0].region_count(CAT), 0);
        world.begin_epoch(1);
        assert!(world.fleet.caches[0].region_count(CAT) > 0);

        // A closed run ends installed: with the whole horizon in one
        // epoch, everything `fleet()` shows was written in the last one.
        let mut cfg = small_cfg();
        cfg.epoch_min = cfg.total_min() + 1.0;
        let mut sim = Simulation::try_new(cfg).unwrap();
        assert!(sim.run().queries.total > 0);
        assert!(sim.world.written.is_empty());
        let fleet = sim.fleet();
        assert!((0..fleet.len()).any(|h| fleet.cache(h).region_count(CAT) > 0));
    }
}
