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
//! A host that has never installed a region has no column entry and
//! reads as the fleet's empty template; its quarantine ledger likewise
//! exists only once it has struck a peer.
//!
//! Two client fleets drive it: the serving layer (`airshare-serve`),
//! whose clients are sessions on the wire, and the closed-loop
//! [`crate::Simulation`], whose clients are its own mobility models and
//! query scheduler. Both run this file's barrier, whose workers resolve
//! each query with `LiveWorld::process_query` (`resolve.rs`), so a
//! recorded workload replayed against a `LiveWorld` is answered
//! identically by construction (DESIGN.md §14).

use crate::fleet::FleetStore;
use crate::resolve::{fold_outcome, BatchSink, LiveTask, QueryOutcome};
use crate::{BackendKind, ConfigError, QueryAnswer, QuerySpec, SimConfig, SimReport};
use airshare_broadcast::{
    AirIndex, AirIndexBackend, BuildParams, ChannelFaults, OutageSchedule, Poi, PoiTable,
    QueryScratch, RtreeAirIndex, Schedule,
};
use airshare_cache::{HostCache, QuarantineLedger};
use airshare_exec::{split_seed, ExecPool};
use airshare_geom::{meters_to_miles, Point, Rect};
use airshare_obs::{AnswerQuality, PhaseTimes, Recorder, TraceEvent};
use airshare_p2p::NeighborGrid;
use airshare_rtree::RTree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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
///
/// The crate-visible fields are what the resolver (`resolve.rs`) reads;
/// clients, the simulator included, go through methods.
pub struct LiveWorld {
    pub(crate) cfg: SimConfig,
    pub(crate) bounds: Rect,
    /// The canonical POI table: the one copy of every POI payload.
    /// Caches, peer replies, and the index all refer into it by handle.
    pub(crate) table: PoiTable,
    /// The broadcast organization, behind the backend trait: the
    /// `BackendKind` knob picks the concrete index at build time.
    pub(crate) index: Box<dyn AirIndexBackend>,
    pub(crate) schedule: Schedule,
    /// The chaos oracle's ground truth.
    pub(crate) oracle: RTree<u32>,
    /// Deterministic fault decision source; `None` when the fault config
    /// is inert, so the ideal-channel path pays nothing.
    pub(crate) faults: Option<ChannelFaults>,
    /// Base-station silence windows over epoch numbers.
    pub(crate) outage: OutageSchedule,
    /// Columnar per-session state: online flags, last reported
    /// positions (offline hosts keep theirs), sync clocks, and — only
    /// for the hosts holding one — handle-based caches (what peers see:
    /// as of the last barrier) and quarantine ledgers. The simulator
    /// writes the position column directly.
    pub(crate) fleet: FleetStore,
    /// Epoch-start neighbor grid over online hosts. Its buffers are
    /// reserved for the world's extent once and refilled at each
    /// boundary by a counting sort from scratch (88 % of hosts change
    /// cell per epoch, so a delta would save nothing): of the whole
    /// fleet in `begin_epoch`, of the hosts the epoch's queries can
    /// reach in `begin_epoch_near`. Empty until the first boundary.
    pub(crate) grid: NeighborGrid,
    /// Grid cells a query's peer flood can reach from its own cell:
    /// `p2p_hops × ⌈range/cell⌉`.
    rings: u32,
    /// The query positions of the last `begin_epoch_near`, kept for
    /// their buffer.
    centers: Vec<Point>,
    /// The live caches of hosts that wrote since the last boundary (a
    /// batch commit or a crash wipe), parked between batches while the
    /// column shows their epoch-start copies, sorted by host. Empty
    /// after `begin_epoch`.
    written: Vec<(usize, HostCache)>,
    /// Retired copies, buffers kept for the next epoch's writers: as
    /// many as an epoch has had writers, not as many as hosts.
    spare: Vec<HostCache>,
    /// A batch's tasks, one per querying host in host order, and its
    /// measured outcomes; kept for their buffers.
    tasks: Vec<LiveTask>,
    outcomes: Vec<(u64, QueryOutcome)>,
    /// The epoch currently being served.
    pub(crate) epoch: u64,
    /// Radio range in miles.
    pub(crate) range: f64,
    report: SimReport,
    /// Wall-clock grid / snapshot / query time of every barrier so far
    /// (`advance` belongs to whoever moves the fleet). Measurement
    /// only — never part of the world's output.
    phases: PhaseTimes,
}

impl LiveWorld {
    /// Builds the world from a validated configuration: POIs placed
    /// uniformly at random (the paper's own Poisson-field assumption),
    /// the air index behind the configured backend, the `(1, m)`
    /// schedule, the ground-truth R-tree, and per-host sync clocks.
    /// Every draw is a function of the configuration's seed alone, so
    /// two worlds built from one config agree on every POI, bucket,
    /// fault seed, and ledger seed. All sessions start offline with
    /// empty caches and ledgers, which take no per-host storage until a
    /// host fills one.
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
        let template = HostCache::new(cfg.params.cache_size, cfg.policy)
            .with_subsume_overlap(cfg.subsume_overlap);
        // Fault decisions are hashed from their own seed (derived from
        // the master seed), never drawn from an RNG stream: an inert
        // fault config leaves every other random stream untouched.
        let faults = (!cfg.faults.is_inert())
            .then(|| cfg.faults.channel_faults(cfg.seed ^ 0xFA17_5EED_0000_0001));
        // All sessions start offline, at the origin, in sync; `connect`
        // admits them.
        let fleet = FleetStore::new(n, template);
        let range = meters_to_miles(cfg.params.tx_range_m);
        let cell = range.max(1e-3);
        // No host is online yet, so there is nothing to bin: the empty
        // grid answers every lookup as a refresh of this fleet would,
        // with nothing, until the first barrier fills it.
        let grid = NeighborGrid::with_bounds(&bounds, cell, n);
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
            written: Vec::new(),
            spare: Vec::new(),
            tasks: Vec::new(),
            outcomes: Vec::new(),
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

    /// The service area: the square world POIs and hosts live in.
    pub(crate) fn bounds(&self) -> Rect {
        self.bounds
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
    /// The ledger goes at once: only the host itself reads it.
    pub fn disconnect(&mut self, host: usize, planned_epoch: u64, rec: &mut dyn Recorder) {
        if !self.fleet.online[host] {
            return;
        }
        self.fleet.online[host] = false;
        let mut cache = self.take_cache(host);
        cache.clear();
        self.park(host, cache);
        self.fleet.quarantines.remove(&host);
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
    /// A host without a slot gets one for a non-empty cache; an empty one
    /// leaves it reading as the template.
    pub(crate) fn install_written(&mut self) {
        let t_phase = Instant::now();
        for (host, cache) in self.written.drain(..) {
            // A copy of a cache that held nothing took no spare buffer
            // (see `take_cache`) and is worth none.
            if let Some(copy) = self.fleet.install(host, cache) {
                if !copy.is_empty() {
                    self.spare.push(copy);
                }
            }
        }
        self.phases.snapshot_ns += t_phase.elapsed().as_nanos() as u64;
    }

    /// Takes `host`'s live cache for writing: what an earlier batch of
    /// this epoch parked, else the column's original — the host's own warm
    /// buffers — leaving peers a copy in a retired buffer (if one is spare),
    /// else, for a host without a slot, a fresh empty cache.
    fn take_cache(&mut self, host: usize) -> HostCache {
        let parked = self.written.binary_search_by_key(&host, |&(h, _)| h);
        if let Ok(at) = parked {
            return self.written.remove(at).1;
        }
        let Some(column) = self.fleet.cache_mut(host) else {
            return self.fleet.empty_cache();
        };
        // A copy of a cache that holds nothing needs no spare buffer's
        // capacity (a never-written one clones without allocating), and
        // filling a spare with it would drop the spare's warm lists.
        let spare = if column.is_empty() {
            None
        } else {
            self.spare.pop()
        };
        let copy = match spare {
            Some(mut buf) => {
                buf.clone_from(column);
                buf
            }
            None => column.clone(),
        };
        std::mem::replace(column, copy)
    }

    /// Takes `host`'s quarantine ledger for a batch: the map's, leaving
    /// an empty stand-in the barrier overwrites (taking rather than
    /// removing keeps the map's nodes, so a warm batch frees nothing),
    /// else a fresh ledger under the host's jitter seed, a function of
    /// the configuration's seed alone.
    fn take_ledger(&mut self, host: usize) -> QuarantineLedger {
        match self.fleet.quarantines.get_mut(&host) {
            Some(ledger) => std::mem::take(ledger),
            None => QuarantineLedger::new(split_seed(
                self.cfg.seed ^ QUARANTINE_SEED_SALT,
                host as u64,
                0,
            )),
        }
    }

    /// Parks `host`'s live cache until the next boundary.
    fn park(&mut self, host: usize, cache: HostCache) {
        match self.written.binary_search_by_key(&host, |&(h, _)| h) {
            Ok(at) => self.written[at].1 = cache,
            Err(at) => self.written.insert(at, (host, cache)),
        }
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
        mut queries: Vec<LiveQuery>,
        pool: &ExecPool,
        ctxs: &mut [(R, QueryScratch)],
    ) -> Vec<QueryAnswer> {
        let mut answers = Vec::with_capacity(queries.len());
        self.execute_batch(&mut queries, pool, ctxs, Some(&mut answers));
        answers
    }

    /// [`LiveWorld::execute_epoch`] with the answers optional: a closed
    /// loop that only wants the report passes `None` and no answer is
    /// ever assembled. Answers are appended to the sink, which is then
    /// sorted by nonce. `queries` is left sorted by host, then nonce.
    ///
    /// Every buffer the batch needs — the tasks, each worker's outcome
    /// sink (in its scratch), the outcome list folded at the barrier — is
    /// kept across batches, so a warm batch allocates nothing but what
    /// the pool's extra workers cost to spawn.
    pub(crate) fn execute_batch<R: Recorder + Send>(
        &mut self,
        queries: &mut [LiveQuery],
        pool: &ExecPool,
        ctxs: &mut [(R, QueryScratch)],
        mut answers: Option<&mut Vec<QueryAnswer>>,
    ) {
        let t_phase = Instant::now();
        // Shard by host: all of one host's queries stay on one task, and
        // tasks run in host-id order. Nonces are unique, so the order is
        // total and the unstable sort exact.
        queries.sort_unstable_by_key(|q| (q.host, q.nonce));
        // Move each querying host's state out into its task, so the
        // workers can share the rest of the world read-only.
        let mut tasks = std::mem::take(&mut self.tasks);
        let mut start = 0;
        for run in queries.chunk_by(|a, b| a.host == b.host) {
            let (host, range) = (run[0].host, start..start + run.len());
            start = range.end;
            if self.is_online(host) {
                tasks.push(LiveTask {
                    host,
                    cache: self.take_cache(host),
                    last_sync_min: self.fleet.last_sync_min[host],
                    needs_resync: self.fleet.needs_resync[host],
                    quarantine: self.take_ledger(host),
                    resyncs: 0,
                    queries: range,
                });
            } else if let Some(sink) = answers.as_deref_mut() {
                sink.extend(run.iter().map(|q| QueryAnswer {
                    nonce: q.nonce,
                    host: q.host as u32,
                    ids: Vec::new(),
                    quality: AnswerQuality::Failed,
                }));
            }
        }

        // Each task runs its host's queries in nonce order against the
        // epoch's committed world; outcomes (and, when the batch wants
        // them, answers) go to the worker's sink in its scratch.
        let want_answers = answers.is_some();
        let (world, queries) = (&*self, &*queries);
        pool.for_each_with(ctxs, tasks.iter_mut(), |(rec, scratch), _, task| {
            for item in &queries[task.queries.clone()] {
                let mut answer = want_answers.then(|| QueryAnswer {
                    nonce: item.nonce,
                    host: item.host as u32,
                    ids: Vec::new(),
                    quality: AnswerQuality::Failed,
                });
                let outcome = world.process_query(item, task, scratch, rec, answer.as_mut());
                let sink = scratch.retained::<BatchSink>();
                sink.outcomes.extend(outcome.map(|o| (item.nonce, o)));
                sink.answers.extend(answer);
            }
        });

        // Barrier: commit host state in host-id order (the tasks'
        // order), then fold outcomes in nonce order so every
        // accumulation is scheduling-independent.
        for task in tasks.drain(..) {
            self.park(task.host, task.cache);
            self.fleet.last_sync_min[task.host] = task.last_sync_min;
            self.fleet.needs_resync[task.host] = task.needs_resync;
            // A ledger only grows inside a batch: one taken from the map
            // goes back over its stand-in, and a fresh one only if it
            // struck somebody.
            if !task.quarantine.is_empty() {
                self.fleet.quarantines.insert(task.host, task.quarantine);
            }
            self.report.outage_resyncs += task.resyncs;
        }
        self.tasks = tasks;
        for (_, scratch) in ctxs.iter_mut() {
            let sink = scratch.retained::<BatchSink>();
            self.outcomes.append(&mut sink.outcomes);
            if let Some(out) = answers.as_deref_mut() {
                out.append(&mut sink.answers);
            }
        }
        self.outcomes.sort_unstable_by_key(|&(nonce, _)| nonce);
        for (_, o) in self.outcomes.drain(..) {
            fold_outcome(&mut self.report, o);
        }
        if let Some(sink) = answers {
            sink.sort_by_key(|a| a.nonce);
        }
        self.phases.query_ns += t_phase.elapsed().as_nanos() as u64;
    }

    /// Wall-clock time of every barrier and batch so far, by phase:
    /// `grid` (the neighbor-grid refresh), `snapshot` (the parked caches'
    /// install) and `query` (sharding, execution and commit). `advance`
    /// stays zero here — moving the fleet is its client's work. This is
    /// measurement only, never part of the world's output: the report
    /// does not carry it, and [`PhaseTimes`]' equality ignores it.
    pub fn phase_times(&self) -> PhaseTimes {
        self.phases
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
    use crate::fleet::NO_SLOT;
    use crate::{params, QueryKind, Simulation};
    use airshare_broadcast::{PoiCategory, PoiId};
    use airshare_obs::NoopRecorder;

    const CAT: PoiCategory = PoiCategory::GAS_STATION;

    /// Every event recorded, in order.
    #[derive(Default)]
    struct EventLog(Vec<TraceEvent>);

    impl Recorder for EventLog {
        fn record(&mut self, event: TraceEvent) {
            self.0.push(event);
        }
    }

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

    /// `host`'s cache as parked since the last boundary, if it wrote.
    fn parked(world: &LiveWorld, host: usize) -> Option<&HostCache> {
        (world.written.iter())
            .find(|&&(h, _)| h == host)
            .map(|(_, c)| c)
    }

    /// What a peer asking `cache` would be shown.
    fn shared(cache: &HostCache) -> Vec<(Rect, Vec<PoiId>)> {
        (cache.share_regions(CAT).map(|(r, ids)| (r, ids.to_vec()))).collect()
    }

    /// A kNN query for zero neighbors or for more than the world holds
    /// is graded `Failed` with no ids on a live channel, and leaves the
    /// host's cache, sync clock and resync flag as they were. Both used
    /// to reach SBNN: `k = 0` panicked building its heap, and `k` past
    /// the POI count came back unresolved and flagged a resync.
    #[test]
    fn out_of_range_k_fails_without_touching_the_host() {
        let mut cfg = small_cfg();
        cfg.warmup_min = 0.0;
        let epoch_min = cfg.epoch_min;
        let mut world = LiveWorld::try_new(cfg).unwrap();
        let pool = ExecPool::fixed(1);
        let mut ctxs = vec![(NoopRecorder, QueryScratch::new())];
        let spot = Point::new(0.5 * world.bounds.x2, 0.5 * world.bounds.y2);
        world.connect(0);
        world.update_position(0, spot);
        world.begin_epoch(0);
        world.execute_epoch(vec![knn(1, 0, 0.25 * epoch_min, spot)], &pool, &mut ctxs);
        world.begin_epoch(1);
        let entries = |c: &HostCache| -> Vec<(Rect, f64, Vec<PoiId>)> {
            (c.entries(CAT))
                .map(|e| (e.vr, e.last_used, e.poi_ids.to_vec()))
                .collect()
        };
        let cached = entries(world.fleet.cache(0));
        assert!(!cached.is_empty(), "the valid query cached nothing");
        let synced = world.fleet.last_sync_min[0];
        let before = world.report().clone();

        let pois = world.poi_table().len();
        let at_min = 1.5 * epoch_min;
        let batch = [0, pois + 1].map(|k| LiveQuery {
            spec: QuerySpec::Knn { k },
            ..knn(2 + k as u64, 0, at_min, spot)
        });
        let answers = world.execute_epoch(batch.to_vec(), &pool, &mut ctxs);
        assert_eq!(answers.len(), 2);
        for a in &answers {
            assert_eq!(
                (a.quality, a.ids.len()),
                (AnswerQuality::Failed, 0),
                "{a:?}"
            );
        }
        let own = parked(&world, 0).expect("the host wrote nothing back");
        assert_eq!(entries(own), cached, "the cache was touched");
        assert_eq!(world.fleet.last_sync_min[0], synced);
        assert!(!world.fleet.needs_resync[0], "a live channel owed a resync");
        // Both count as measured `Failed` queries that no series
        // resolved and that contacted no peer.
        let after = world.report();
        assert_eq!(after.queries.total, before.queries.total + 2);
        assert_eq!(after.quality.failed, before.quality.failed + 2);
        let resolved = |r: &SimReport| {
            let q = &r.queries;
            (
                q.by_peers,
                q.by_approx,
                q.by_broadcast,
                r.share_peers_contacted,
            )
        };
        assert_eq!(resolved(after), resolved(&before));
    }

    /// A point window on a POI and a zero-width window through it come
    /// back `Exact` with that POI and hold against the oracle: a
    /// degenerate window is covered only by a cached region containing
    /// it, so a host that has none fetches it on air.
    #[test]
    fn degenerate_windows_are_answered_exactly() {
        let mut cfg = small_cfg();
        cfg.warmup_min = 0.0;
        cfg.validate = true;
        let epoch_min = cfg.epoch_min;
        let mut world = LiveWorld::try_new(cfg).unwrap();
        let pool = ExecPool::fixed(1);
        let mut ctxs = vec![(NoopRecorder, QueryScratch::new())];
        let poi = *world.poi_table().get(PoiId(0)).expect("the world has POIs");
        let at = poi.pos;
        world.connect(0);
        world.update_position(0, at);
        world.begin_epoch(0);
        let windows = [
            Rect::from_coords(at.x, at.y, at.x, at.y),
            Rect::from_coords(at.x, at.y - 1e-3, at.x, at.y + 1e-3),
        ];
        let batch = windows.map(|rect| LiveQuery {
            spec: QuerySpec::Window { rect },
            ..knn(rect.height().to_bits(), 0, 0.25 * epoch_min, at)
        });
        let answers = world.execute_epoch(batch.to_vec(), &pool, &mut ctxs);
        for (a, w) in answers.iter().zip(&windows) {
            assert_eq!(
                (a.quality, a.ids.as_slice()),
                (AnswerQuality::Exact, &[poi.id][..]),
                "{w:?}"
            );
        }
        let report = world.report();
        assert_eq!(report.queries.total, 2);
        assert_eq!(report.exact_mismatches, 0);
    }

    /// A crash of a dark host and a restart of a live one are no-ops:
    /// no counter, no event, no parked cache, no resync owed.
    #[test]
    fn repeated_churn_calls_change_nothing() {
        let mut world = LiveWorld::try_new(small_cfg()).unwrap();
        let mut rec = EventLog::default();
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
            !world.fleet.needs_resync[1],
            "a healthy host was made to resync"
        );
        let report = world.report();
        assert_eq!((report.hosts_crashed, report.hosts_restarted), (1, 1));
        let seen = |f: fn(&TraceEvent) -> bool| rec.0.iter().filter(|e| f(e)).count();
        let crashed = seen(|e| matches!(e, TraceEvent::HostCrashed { .. }));
        let restarted = seen(|e| matches!(e, TraceEvent::HostRestarted { .. }));
        assert_eq!((crashed, restarted), (1, 1));
    }

    /// The cache column is the peers' view: equal to every host's live
    /// cache at each boundary, frozen between boundaries while writers
    /// work on their own originals. Two batches per epoch (as the
    /// scaled service submits them), a crash and a restart between
    /// barriers, a crash between batches, and the end of a closed run.
    /// Beside the writers sit two online hosts that never write, both
    /// in range of host 0: a peer that never queries (and crashes and
    /// restarts with host 1) and a querier whose every query is out of
    /// range. Neither ever takes a cache slot.
    #[test]
    fn peers_read_the_epoch_start_column_and_writers_their_own() {
        let cfg = small_cfg();
        let epoch_min = cfg.epoch_min;
        let mut world = LiveWorld::try_new(cfg).unwrap();
        let side = world.bounds.x2;
        let hosts = 12;
        let (idle_peer, idle_querier) = (hosts, hosts + 1);
        assert!(idle_querier < world.hosts());
        for h in 0..=idle_querier {
            world.connect(h);
        }
        let pool = ExecPool::fixed(2);
        let mut ctxs = vec![(NoopRecorder, QueryScratch::new()); 2];
        let mut nonce = 0u64;
        for epoch in 0..8u64 {
            match epoch {
                2 => {
                    assert!(
                        world.fleet.cache(1).region_count(CAT) > 0,
                        "the crash must wipe something peers could see"
                    );
                    for h in [1, idle_peer] {
                        world.disconnect(h, epoch, &mut NoopRecorder);
                    }
                }
                4 => {
                    for h in [1, idle_peer] {
                        world.reconnect(h, epoch, &mut NoopRecorder);
                    }
                }
                _ => {}
            }
            // The idle hosts stand where host 0 does.
            let at = |h: usize| {
                let h = if h < hosts { h } else { 0 };
                let f = (h as f64 + 0.5 + 0.1 * epoch as f64) / (hosts as f64 + 1.0);
                Point::new(f * side, (1.0 - f) * side)
            };
            for h in 0..=idle_querier {
                world.update_position(h, at(h));
            }
            // The boundary publishes exactly what the writers hold.
            let live: Vec<_> = (0..world.hosts())
                .map(|h| shared(parked(&world, h).unwrap_or(world.fleet.cache(h))))
                .collect();
            world.begin_epoch(epoch);
            assert!(
                world.written.is_empty(),
                "epoch {epoch}: a writer left parked"
            );
            let reference: Vec<HostCache> = (0..world.hosts())
                .map(|h| world.fleet.cache(h).clone())
                .collect();
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
                    .chain([idle_querier])
                    .map(|host| {
                        nonce += 1;
                        let at_min = (epoch as f64 + 0.25 + 0.5 * half as f64) * epoch_min;
                        let k = if host == idle_querier { 0 } else { 3 };
                        LiveQuery {
                            spec: QuerySpec::Knn { k },
                            ..knn(nonce, host, at_min, at(host))
                        }
                    })
                    .collect();
                let posed = batch.len();
                assert_eq!(world.execute_epoch(batch, &pool, &mut ctxs).len(), posed);
                // A crash *between* batches: peers keep the pre-crash
                // regions until the next boundary, and lose them there.
                if (epoch, half) == (6, 0) {
                    assert!(reference[3].region_count(CAT) > 0, "nothing to wipe");
                    world.disconnect(3, epoch, &mut NoopRecorder);
                    assert_eq!(parked(&world, 3).unwrap().region_count(CAT), 0);
                }
                for (h, frozen) in reference.iter().enumerate() {
                    assert_eq!(
                        shared(world.fleet.cache(h)),
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
            (0..hosts).all(|h| world.fleet.slot[h] != NO_SLOT),
            "a writer holds no slot"
        );
        for h in [idle_peer, idle_querier] {
            assert_eq!(world.fleet.slot[h], NO_SLOT, "idle host {h} took a slot");
        }
        assert!(
            world.fleet.quarantines.is_empty(),
            "an inert channel struck a peer"
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
        assert_eq!(world.fleet.cache(0).region_count(CAT), 0);
        world.begin_epoch(1);
        assert!(world.fleet.cache(0).region_count(CAT) > 0);

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
