//! The closed-loop simulator: the paper's mobile-host module (§4.1).
//!
//! [`Simulation`] moves hosts, schedules their queries and plans their
//! churn — and nothing else. Everything a base station and its sessions
//! own lives in the [`LiveWorld`] it holds, and it reaches that world
//! only through methods (plus the position column `advance_fleet`
//! fills), as the serving layer does. Each epoch it does what any client
//! fleet does: churn, position updates, `begin_epoch` (here its
//! crate-internal form `begin_epoch_near`, which is handed the batch),
//! one batch. The barrier (grid, cache install, by-host sharding,
//! commit, report fold) is in `live.rs`, and the resolution of each
//! query in `resolve.rs`.
//!
//! Queries are grouped by *epoch* (the neighbor-grid refresh interval).
//! Within one epoch every host observes the same committed world: peer
//! positions from the epoch-start grid and peer caches as of the epoch's
//! start. Mobility and window sampling draw from RNG streams that do not
//! depend on scheduling (window draws are seed-split per `(host,
//! epoch)`), and the world folds outcomes in global event order — so
//! [`Simulation::run_parallel`] is **bit-identical** to the sequential
//! [`Simulation::run`] for every thread count.

use crate::fleet::FleetStore;
use crate::traffic::{EpochRecord, RecordedQuery, TrafficTrace};
use crate::{
    ConfigError, LiveQuery, LiveWorld, MobilityModel, ParamSet, QueryAnswer, QueryKind, QuerySpec,
    SimConfig, SimReport,
};
use airshare_broadcast::{ChannelFaults, PoiTable, QueryScratch};
use airshare_exec::{split_seed, ExecPool};
use airshare_geom::{Point, Rect};
use airshare_mobility::{
    GridRoadWaypoint, Mobility, MobilityConfig, QueryEvent, QueryScheduler, WaypointFleet,
};
use airshare_obs::{MetricsSnapshot, NoopRecorder, PhaseTimes, Recorder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

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

/// Every host's trajectory state, by column. The parameters every host
/// shares are held once, as `Simulation::mobility`, and passed to each
/// call.
enum FleetMobility {
    Waypoint(WaypointFleet),
    /// The ablation-only road-grid model, one host per element.
    Roads(Vec<GridRoadWaypoint>),
}

impl FleetMobility {
    /// Host `host`'s position and heading at `t`, on its own clock.
    fn observe(
        &mut self,
        config: &MobilityConfig,
        host: usize,
        t: f64,
    ) -> (Point, Option<(f64, f64)>) {
        fn at(
            m: &mut impl Mobility,
            config: &MobilityConfig,
            t: f64,
        ) -> (Point, Option<(f64, f64)>) {
            (m.position_at(config, t), m.heading_at(config, t))
        }
        match self {
            FleetMobility::Waypoint(fleet) => at(&mut fleet.host(host), config, t),
            FleetMobility::Roads(models) => at(&mut models[host], config, t),
        }
    }
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
    hosts: FleetMobility,
    /// Precomputed churn transitions `(epoch, host, comes_online)`,
    /// sorted by `(epoch, host)`; a pure function of the master seed.
    churn_plan: Vec<(u64, usize, bool)>,
    /// Wall-clock time of churn application, mobility advance and
    /// query-input derivation (the world times everything else).
    advance_ns: u64,
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
        let mut mobility = MobilityConfig::vehicular(world.bounds());
        mobility.speed_min *= cfg.params.speed_scale;
        mobility.speed_max *= cfg.params.speed_scale;
        let n = cfg.params.mh_number;
        let seed = |i: usize| cfg.seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1));
        let hosts = match cfg.mobility {
            MobilityModel::RandomWaypoint => {
                FleetMobility::Waypoint(WaypointFleet::new(&mobility, n, seed))
            }
            MobilityModel::GridRoads { spacing_milli_mi } => FleetMobility::Roads(
                (0..n)
                    .map(|i| {
                        GridRoadWaypoint::new(&mobility, spacing_milli_mi as f64 / 1000.0, seed(i))
                    })
                    .collect(),
            ),
        };
        let (online, churn_plan) = plan_churn(cfg);
        for host in (0..online.len()).filter(|&h| online[h]) {
            world.connect(host);
        }
        Ok(Self {
            world,
            mobility,
            hosts,
            churn_plan,
            advance_ns: 0,
            ran: false,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        self.world.config()
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
    /// including the plain [`Simulation::run`];
    /// [`Simulation::run_parallel_metrics`] additionally copies it into
    /// the report's snapshot.
    pub fn phase_times(&self) -> PhaseTimes {
        let mut phases = self.world.phase_times();
        phases.advance_ns += self.advance_ns;
        phases
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(&mut self) -> SimReport {
        self.run_with(&mut NoopRecorder)
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
    /// [`TrafficTrace`]: the initial online set, per-epoch fleet state
    /// (position deltas, churn transitions) plus every query's inputs
    /// *and* its oracle-checked answer (POI ids +
    /// [`AnswerQuality`](crate::AnswerQuality)). The report
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

    /// [`Simulation::run_parallel`] with per-worker [`MetricsSnapshot`]s:
    /// the returned report's `metrics` field carries the aggregated trace
    /// view (per-event counters plus tuning/latency percentiles over
    /// *every* query, peer-resolved ones included as zeros). Each worker
    /// records into its own shard, and the shards are merged
    /// associatively, so the snapshot is the same at every pool size
    /// (`ExecPool::sequential()` included).
    pub fn run_parallel_metrics(&mut self, pool: &ExecPool) -> SimReport {
        let mut ctxs: Vec<_> = (0..pool.threads())
            .map(|_| (MetricsSnapshot::default(), QueryScratch::new()))
            .collect();
        let mut report = self.run_engine(pool, &mut ctxs, None);
        let mut snapshot = MetricsSnapshot::default();
        for (rec, _) in &ctxs {
            snapshot.merge(rec);
        }
        snapshot.phases = self.phase_times();
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
            trace.initial_online = self.world.fleet().online().to_vec();
        }
        // First `churn_plan` entry not yet applied.
        let mut churn_cursor = 0;
        // Events are pulled from the scheduler one epoch at a time into
        // a reused buffer — memory stays O(hosts + live epoch) instead
        // of materializing the whole run's event list. The draw sequence
        // (time, then host, per event) does not depend on where the
        // epochs cut it.
        let mut epoch_events: Vec<QueryEvent> = Vec::new();
        let mut next_index: u64 = 0;
        // Recording keeps the previous epoch's recorded positions so
        // the trace can carry per-epoch *deltas* instead of full
        // position vectors. NaN never equals a position, so the first
        // record carries every host.
        let mut last_rec_positions = match &trace {
            Some(_) => vec![Point::new(f64::NAN, f64::NAN); self.world.hosts()],
            None => Vec::new(),
        };
        let mut answers: Vec<QueryAnswer> = Vec::new();
        // Each epoch's online events and their queries, in buffers kept
        // across epochs.
        let mut order: Vec<usize> = Vec::new();
        let mut batch: Vec<LiveQuery> = Vec::new();
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
            self.advance_ns += t_phase.elapsed().as_nanos() as u64;
            if let Some(trace) = &mut trace {
                // Only hosts whose position actually changed since the
                // previous recorded epoch (a paused waypoint host costs
                // nothing).
                let moved = (self.world.fleet().positions().iter())
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
            order.clear();
            order.extend(
                (0..epoch_events.len()).filter(|&k| self.world.is_online(epoch_events[k].host)),
            );
            // Host-major, then event order: the key is unique, so the
            // unstable sort is the stable sort by host.
            order.sort_unstable_by_key(|&k| (epoch_events[k].host, k));
            batch.clear();
            for run in order.chunk_by(|&a, &b| epoch_events[a].host == epoch_events[b].host) {
                let host = epoch_events[run[0]].host;
                // The stream's only consumer is window sampling.
                let mut rng = SmallRng::seed_from_u64(split_seed(
                    cfg.seed ^ WINDOW_SEED_SALT,
                    host as u64,
                    epoch,
                ));
                for &k in run {
                    let at_min = epoch_events[k].time;
                    let (pos, heading) = self.hosts.observe(&self.mobility, host, at_min);
                    batch.push(LiveQuery {
                        nonce: next_index + k as u64,
                        host,
                        at_min,
                        pos,
                        heading,
                        spec: match cfg.query_kind {
                            QueryKind::Knn => QuerySpec::Knn {
                                k: cfg.params.knn_k,
                            },
                            QueryKind::Window => QuerySpec::Window {
                                rect: sample_window(
                                    &cfg.params,
                                    &self.mobility.world,
                                    pos,
                                    &mut rng,
                                ),
                            },
                        },
                    });
                }
            }
            self.advance_ns += t_phase.elapsed().as_nanos() as u64;
            next_index += epoch_events.len() as u64;
            self.world.begin_epoch_near(epoch, &batch, pool);

            match &mut trace {
                None => self.world.execute_batch(&mut batch, pool, ctxs, None),
                Some(trace) => {
                    // Answers come back nonce-ordered; pair them with
                    // their inputs in the same order, the trace's own.
                    self.world
                        .execute_batch(&mut batch, pool, ctxs, Some(&mut answers));
                    batch.sort_unstable_by_key(|q| q.nonce);
                    for (q, a) in batch.iter().zip(answers.drain(..)) {
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

/// Fleets smaller than this advance inline on the caller. Probed on 2
/// vCPUs, `advance_fleet` alone per epoch, inline against fanned out
/// over `ExecPool::fixed(2)`, three alternating runs each: the
/// 18,660-host city world 0.14–0.15 ms inline against 0.16–0.26 ms
/// fanned out; LA densities at 18,661 and 24,576 hosts tie (0.10–0.14
/// ms both ways); from 32,768 hosts up fanning out wins — 0.17–0.19
/// against 0.17–0.23 ms there, 0.28–0.30 against 0.36–0.38 at 65,536,
/// 0.57–0.74 against 0.89–1.20 at 131,072, 1.09–1.33 against 2.24–2.45
/// at 262,144, and 4.5–5.1 against 7.8–9.6 ms at a million.
const ADVANCE_FAN_OUT_HOSTS: usize = 1 << 15;

/// Advances every host's trajectory to `t` under the fleet's one
/// `config`, writing the position column. Offline hosts advance too, so
/// mobility streams stay aligned across churn configurations; they are
/// merely undiscoverable.
///
/// Hosts are mutually independent here, so the work is chunked over
/// contiguous host ranges and fanned out on `pool` — chunk scheduling
/// cannot affect the result. Fleets under [`ADVANCE_FAN_OUT_HOSTS`] run
/// as one inline chunk.
fn advance_fleet(
    config: &MobilityConfig,
    hosts: &mut FleetMobility,
    positions: &mut [Point],
    t: f64,
    pool: &ExecPool,
) {
    let n = positions.len();
    // Oversplit ~4× past the worker count so the pool's shared queue
    // can level uneven chunks (a chunk whose hosts end many legs takes
    // longer).
    let chunk_len = if n < ADVANCE_FAN_OUT_HOSTS {
        n.max(1)
    } else {
        n.div_ceil(pool.threads() * 4).max(1024)
    };
    let ctxs = &mut vec![(); pool.threads()];
    match hosts {
        FleetMobility::Waypoint(fleet) => {
            let tasks = fleet.advance(t, positions, chunk_len);
            pool.for_each_with(ctxs, tasks, |(), _, task| task.run(config));
        }
        FleetMobility::Roads(models) => {
            let chunks = models
                .chunks_mut(chunk_len)
                .zip(positions.chunks_mut(chunk_len));
            pool.for_each_with(ctxs, chunks, |(), _, (models, positions)| {
                for (m, p) in models.iter_mut().zip(positions) {
                    *p = m.position_at(config, t);
                }
            });
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
                let join = 1 + split_seed(cfg.seed ^ JOIN_SEED_SALT, h as u64, 0) % join_span;
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
                    if decide.event_fires(cfg.churn.restart_prob, h as u64 ^ RESTART_KEY_SALT, e) {
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
            (
                r.mean_peers_contacted(),
                r.queries.pct_peers() + r.queries.pct_approx(),
            )
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
        assert!(
            recovered.faults.retries_total > 0,
            "15% loss produced no retries"
        );
        assert_eq!(recovered.faults.buckets_lost_total, 0);
        assert_eq!(recovered.faults.queries_degraded, 0);
        assert_eq!(recovered.exact_mismatches, 0);

        // No retries allowed: losses surface as degraded queries, never
        // as validated-exact wrong answers.
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.faults.bucket_loss_prob = 0.3;
        cfg.faults.retry_budget = 0;
        let degraded = Simulation::try_new(cfg).unwrap().run();
        assert!(
            degraded.faults.buckets_lost_total > 0,
            "30% loss with no retries lost nothing"
        );
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
        assert!(
            report.faults.replies_dropped > 0,
            "total drop produced no drops"
        );
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
            Simulation::try_new(cfg)
                .unwrap()
                .run()
                .broadcast_latency
                .mean()
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
        let sequential = Simulation::try_new(chaos_cfg(QueryKind::Knn))
            .unwrap()
            .run();
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
}
