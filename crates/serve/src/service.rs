//! The long-running base-station service.
//!
//! One scheduler thread owns the [`LiveWorld`] and ticks the `(1, m)`
//! broadcast cycle in scaled wall time (or client-fenced lockstep, the
//! replay mode). Clients talk to it through a cloneable
//! [`ServiceHandle`]: session control (register / position update /
//! disconnect), query submission, and — in lockstep — epoch fences.
//!
//! The data path is the batched-admission pipeline:
//!
//! 1. `submit` pushes into a **bounded** queue, or bounces with
//!    [`ServeError::QueueFull`] and a retry-after hint (backpressure).
//! 2. The scheduler admits queued queries into the open epoch batch at
//!    a budgeted rate per broadcast tick, stamping nonce + timestamp.
//! 3. At each epoch barrier the batch executes on the `airshare-exec`
//!    pool through the *same* resolution path as the simulator, and
//!    answers flow back over per-query channels.
//!
//! The scheduler never polls. When a pass finds nothing to do it parks
//! until the next thing it must do unprompted (under scaled pacing the
//! next epoch boundary or admission-budget refill; under lockstep,
//! nothing), and every client call that can make it runnable — `submit`,
//! `fence`, a lockstep control push, `drain` — publishes its change and
//! then unparks it. The park token makes an unpark that lands before the
//! park safe, and the scheduler re-reads every shared input after each
//! return from `park`, so a wake-up is never lost and a spurious one
//! costs a pass (DESIGN.md §14, "Wake protocol").
//!
//! Every scheduler event — sessions, epoch commits, the final drain —
//! lands on the threaded [`Recorder`]s, and `drain` returns the merged
//! [`MetricsSnapshot`] plus the same [`SimReport`] a simulation run
//! produces. Admissions and rejections are counted once, in
//! [`ServiceReport`]'s `accepted` and `rejected`.

use crate::{Pacing, ServeConfig, ServeError};
use airshare_broadcast::QueryScratch;
use airshare_exec::ExecPool;
use airshare_geom::Point;
use airshare_obs::{MetricsRecorder, MetricsSnapshot, Recorder, TraceEvent};
use airshare_sim::{ConfigError, LiveQuery, LiveWorld, QueryAnswer, QuerySpec, SimReport};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// Replay pinning for one submission: the recorded nonce (which drives
/// the fault layer's coin flips), timestamp, and target epoch. Required
/// under [`Pacing::Lockstep`]; rejected under [`Pacing::Scaled`], where
/// the scheduler stamps all three at admission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryTag {
    /// Global order nonce (drives deterministic fault decisions).
    pub nonce: u64,
    /// Query time in simulated minutes.
    pub at_min: f64,
    /// The epoch whose batch the query belongs to.
    pub epoch: u64,
}

/// One query submission.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// The querying session's host id.
    pub host: usize,
    /// The host's position at query time.
    pub pos: Point,
    /// The host's heading (unit vector), if known.
    pub heading: Option<(f64, f64)>,
    /// What the query asks.
    pub spec: QuerySpec,
    /// Replay pinning (see [`QueryTag`]).
    pub tag: Option<QueryTag>,
}

/// Session and fleet-state control, applied at epoch barriers.
enum Command {
    Register { host: usize },
    Reconnect { host: usize, planned_epoch: u64 },
    Disconnect { host: usize, planned_epoch: u64 },
    UpdatePosition { host: usize, pos: Point },
}

/// A control message staged for a barrier: `barrier: None` applies at
/// the next committed barrier, `Some(e)` at epoch `e`'s (lockstep).
struct ControlMsg {
    barrier: Option<u64>,
    cmd: Command,
}

/// An admitted-or-queued query with its reply channel.
struct Pending {
    host: usize,
    pos: Point,
    heading: Option<(f64, f64)>,
    spec: QuerySpec,
    tag: Option<QueryTag>,
    reply: mpsc::Sender<QueryAnswer>,
}

/// State shared between client handles and the scheduler thread.
struct Shared {
    state: AtomicU8,
    /// Lockstep fence: `f` means every epoch `< f` is fully submitted.
    fence: AtomicU64,
    queue: Mutex<VecDeque<Pending>>,
    control: Mutex<Vec<ControlMsg>>,
    /// Client-facing session view (the world's online set converges to
    /// this at barriers). Each flag stands alone — it publishes no other
    /// data — so `Relaxed` suffices.
    sessions: Vec<AtomicBool>,
    accepted: AtomicU64,
    rejected: AtomicU64,
    queue_capacity: usize,
    admit_per_tick: usize,
    lockstep: bool,
    capacity_hosts: usize,
    /// The world's POI count: the largest `k` a kNN query may ask.
    poi_count: usize,
}

impl Shared {
    fn retry_after_ticks(&self) -> u64 {
        (self.queue_capacity as u64 / self.admit_per_tick.max(1) as u64).max(1)
    }
}

/// Everything a drained service hands back.
///
/// Each fact has one owner: query outcomes are in `report`, admissions
/// and rejections in `accepted` and `rejected`, and `metrics` keeps only
/// what neither counts (sessions, barriers, drains, channel work).
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// The world's accumulated report — the same [`SimReport`] a
    /// simulation run produces, enabling field-for-field replay parity.
    pub report: SimReport,
    /// Merged observability: the scheduler's and the workers' recorders.
    pub metrics: MetricsSnapshot,
    /// Submissions that entered the admission queue (the only count of
    /// admissions).
    pub accepted: u64,
    /// Submissions bounced by backpressure (the only count of
    /// rejections).
    pub rejected: u64,
    /// Passes of the scheduler loop over the service's life. A pass
    /// either makes progress or ends in a park, so an idle service adds
    /// about one per epoch (scaled) or none (lockstep); a count that
    /// grows with idle wall time is a polling regression.
    pub scheduler_passes: u64,
}

/// A cloneable client handle to a running [`Service`].
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
    /// The scheduler thread, for wake-ups.
    scheduler: Thread,
}

impl ServiceHandle {
    fn check_open(&self) -> Result<(), ServeError> {
        match self.shared.state.load(Ordering::Acquire) {
            RUNNING => Ok(()),
            DRAINING => Err(ServeError::Draining),
            _ => Err(ServeError::Stopped),
        }
    }

    fn check_host(&self, host: usize) -> Result<(), ServeError> {
        if host < self.shared.capacity_hosts {
            Ok(())
        } else {
            Err(ServeError::HostOutOfRange {
                host,
                capacity: self.shared.capacity_hosts,
            })
        }
    }

    fn check_pos(&self, host: usize, pos: Point) -> Result<(), ServeError> {
        if pos.is_finite() {
            Ok(())
        } else {
            Err(ServeError::BadPosition { host })
        }
    }

    /// Refuses a query the world cannot answer: admitted, it would
    /// panic the scheduler thread or be graded an outage failure on a
    /// live channel.
    fn check_spec(&self, host: usize, spec: &QuerySpec) -> Result<(), ServeError> {
        let answerable = match *spec {
            QuerySpec::Knn { k } => (1..=self.shared.poi_count).contains(&k),
            QuerySpec::Window { rect: r } => {
                [r.x1, r.y1, r.x2, r.y2].iter().all(|v| v.is_finite())
                    && r.x1 <= r.x2
                    && r.y1 <= r.y2
            }
        };
        answerable.then_some(()).ok_or(ServeError::BadQuery { host })
    }

    fn set_session(&self, host: usize, open: bool) {
        self.shared.sessions[host].store(open, Ordering::Relaxed);
    }

    fn push_cmd(&self, barrier: Option<u64>, cmd: Command) {
        self.shared
            .control
            .lock()
            .unwrap()
            .push(ControlMsg { barrier, cmd });
        // Scaled control waits for the next epoch boundary, which the
        // scheduler wakes for by itself; under lockstep a command can be
        // what an already-fenced barrier was missing.
        if self.shared.lockstep {
            self.scheduler.unpark();
        }
    }

    /// Opens a session for a host joining fresh (cold cache, pristine
    /// sync clock). Takes effect at the given barrier epoch (`None` =
    /// the next one committed).
    pub fn register(&self, host: usize, barrier: Option<u64>) -> Result<(), ServeError> {
        self.check_open()?;
        self.check_host(host)?;
        self.set_session(host, true);
        self.push_cmd(barrier, Command::Register { host });
        Ok(())
    }

    /// Reopens a session after a crash: the host comes back cold at
    /// `planned_epoch`, owing a resync (the simulator's restart).
    pub fn reconnect(
        &self,
        host: usize,
        planned_epoch: u64,
        barrier: Option<u64>,
    ) -> Result<(), ServeError> {
        self.check_open()?;
        self.check_host(host)?;
        self.set_session(host, true);
        self.push_cmd(barrier, Command::Reconnect { host, planned_epoch });
        Ok(())
    }

    /// Closes a session as a crash: volatile state (cache, quarantine
    /// memory) is wiped at the barrier.
    pub fn disconnect(
        &self,
        host: usize,
        planned_epoch: u64,
        barrier: Option<u64>,
    ) -> Result<(), ServeError> {
        self.check_open()?;
        self.check_host(host)?;
        self.set_session(host, false);
        self.push_cmd(barrier, Command::Disconnect { host, planned_epoch });
        Ok(())
    }

    /// Reports a host's position (used for the barrier's neighbor grid).
    /// A non-finite coordinate is refused with
    /// [`ServeError::BadPosition`]; a finite position outside the world
    /// is taken as reported.
    pub fn update_position(
        &self,
        host: usize,
        pos: Point,
        barrier: Option<u64>,
    ) -> Result<(), ServeError> {
        self.check_open()?;
        self.check_host(host)?;
        self.check_pos(host, pos)?;
        self.push_cmd(barrier, Command::UpdatePosition { host, pos });
        Ok(())
    }

    /// Submits a query. On admission returns the channel the answer
    /// will arrive on; bounces with [`ServeError::QueueFull`] +
    /// retry-after when the bounded queue is full (backpressure). A
    /// query the world cannot answer is refused with
    /// [`ServeError::BadQuery`].
    pub fn submit(
        &self,
        req: QueryRequest,
    ) -> Result<mpsc::Receiver<QueryAnswer>, ServeError> {
        self.check_open()?;
        self.check_host(req.host)?;
        self.check_pos(req.host, req.pos)?;
        self.check_spec(req.host, &req.spec)?;
        if !self.shared.sessions[req.host].load(Ordering::Relaxed) {
            return Err(ServeError::UnknownSession { host: req.host });
        }
        if req.tag.is_some() != self.shared.lockstep {
            return Err(ServeError::TagMismatch);
        }
        let mut queue = self.shared.queue.lock().unwrap();
        if queue.len() >= self.shared.queue_capacity {
            drop(queue);
            let retry_after_ticks = self.shared.retry_after_ticks();
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::QueueFull { retry_after_ticks });
        }
        let (tx, rx) = mpsc::channel();
        queue.push_back(Pending {
            host: req.host,
            pos: req.pos,
            heading: req.heading,
            spec: req.spec,
            tag: req.tag,
            reply: tx,
        });
        drop(queue);
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        self.scheduler.unpark();
        Ok(rx)
    }

    /// Lockstep only: declares every epoch `<= epoch` fully submitted,
    /// releasing those barriers. Monotonic; later fences only extend it.
    pub fn fence(&self, epoch: u64) {
        self.shared.fence.fetch_max(epoch + 1, Ordering::Release);
        self.scheduler.unpark();
    }
}

/// A running service: the scheduler thread plus its client handle.
/// Dropping it without [`Service::drain`] drains it all the same — every
/// admitted query is answered and the scheduler thread is joined — and
/// discards the report.
pub struct Service {
    handle: ServiceHandle,
    /// `None` once the scheduler has been joined.
    worker: Option<JoinHandle<ServiceReport>>,
}

impl Service {
    /// Builds the world from `cfg.sim` (identical draws to the
    /// simulator) and starts the scheduler thread.
    pub fn start(cfg: ServeConfig) -> Result<Service, ConfigError> {
        let world = LiveWorld::try_new(cfg.sim.clone())?;
        let shared = Arc::new(Shared {
            state: AtomicU8::new(RUNNING),
            fence: AtomicU64::new(0),
            queue: Mutex::new(VecDeque::new()),
            control: Mutex::new(Vec::new()),
            sessions: (0..world.hosts()).map(|_| AtomicBool::new(false)).collect(),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            queue_capacity: cfg.queue_capacity.max(1),
            admit_per_tick: cfg.admit_per_tick.max(1),
            lockstep: matches!(cfg.pacing, Pacing::Lockstep),
            capacity_hosts: world.hosts(),
            poi_count: world.poi_table().len(),
        });
        let sched_shared = Arc::clone(&shared);
        let worker = std::thread::spawn(move || {
            let mut s = Scheduler::new(world, cfg, sched_shared);
            s.run()
        });
        let handle = ServiceHandle {
            shared,
            scheduler: worker.thread().clone(),
        };
        Ok(Service {
            handle,
            worker: Some(worker),
        })
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Tells the scheduler to drain and joins it. `None` if that has
    /// already happened.
    fn stop(&mut self) -> Option<std::thread::Result<ServiceReport>> {
        let worker = self.worker.take()?;
        self.handle.shared.state.store(DRAINING, Ordering::Release);
        worker.thread().unpark();
        Some(worker.join())
    }

    /// Graceful drain: stop admitting, flush every pending barrier and
    /// batch (ignoring the clock and fences), deliver all replies, stop
    /// the scheduler, and return the merged report.
    pub fn drain(mut self) -> ServiceReport {
        let mut out = self
            .stop()
            .expect("drain consumes the service, so nothing joined the scheduler before it")
            .expect("service scheduler thread panicked");
        let shared = &self.handle.shared;
        out.accepted = shared.accepted.load(Ordering::Relaxed);
        out.rejected = shared.rejected.load(Ordering::Relaxed);
        out
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // A scheduler panic has already been reported on its own thread;
        // re-raising it from a destructor could abort the process.
        let _ = self.stop();
    }
}

/// What the scheduler does after a pass.
enum Next {
    /// The pass made progress: run another straight away.
    Again,
    /// Nothing to do: park until a client call unparks the thread or —
    /// when there is something the scheduler must do unprompted — until
    /// that instant.
    Park(Option<Instant>),
    /// The drain is complete.
    Done,
}

/// The scheduler thread's state.
struct Scheduler {
    world: LiveWorld,
    pool: ExecPool,
    ctxs: Vec<(MetricsRecorder, QueryScratch)>,
    rec: MetricsRecorder,
    shared: Arc<Shared>,
    pacing: Pacing,
    epoch_min: f64,
    ticks_per_min: f64,
    start: Instant,
    /// Lockstep staging: queries keyed by their tag's target epoch.
    staged: BTreeMap<u64, Vec<Pending>>,
    /// Staged control messages, in submission order.
    cmds: Vec<ControlMsg>,
    /// Scaled mode: the open epoch's admitted-but-unexecuted queries.
    open_batch: Vec<Pending>,
    /// Scaled mode: the epoch whose grid is live.
    current_epoch: Option<u64>,
    /// Scaled mode: queries executed in the current epoch so far.
    epoch_executed: u32,
    /// Scaled mode: next nonce to stamp.
    nonce: u64,
    /// Scaled mode: fractional admission budget.
    budget: f64,
    last_tick: f64,
}

impl Scheduler {
    fn new(world: LiveWorld, cfg: ServeConfig, shared: Arc<Shared>) -> Scheduler {
        let threads = cfg.threads.max(1);
        Scheduler {
            world,
            pool: ExecPool::fixed(threads),
            ctxs: (0..threads)
                .map(|_| (MetricsRecorder::new(), QueryScratch::new()))
                .collect(),
            rec: MetricsRecorder::new(),
            shared,
            pacing: cfg.pacing,
            epoch_min: cfg.sim.epoch_min,
            ticks_per_min: cfg.sim.ticks_per_min as f64,
            start: Instant::now(),
            staged: BTreeMap::new(),
            cmds: Vec::new(),
            open_batch: Vec::new(),
            current_epoch: None,
            epoch_executed: 0,
            nonce: 0,
            budget: 0.0,
            last_tick: 0.0,
        }
    }

    fn run(&mut self) -> ServiceReport {
        let mut passes = 0u64;
        loop {
            passes += 1;
            // Every shared input — state, fence, control, queue — is read
            // afresh inside the pass, after the previous park returned;
            // whatever changes after its read leaves the park token set,
            // so the park below returns at once.
            let draining = self.shared.state.load(Ordering::Acquire) == DRAINING;
            let next = match self.pacing {
                Pacing::Lockstep => self.step_lockstep(draining),
                Pacing::Scaled(speedup) => self.step_scaled(speedup, draining),
            };
            match next {
                Next::Again => {}
                Next::Park(None) => std::thread::park(),
                Next::Park(Some(deadline)) => {
                    std::thread::park_timeout(deadline.saturating_duration_since(Instant::now()));
                }
                Next::Done => break,
            }
        }
        self.shared.state.store(STOPPED, Ordering::Release);
        for (r, _) in &self.ctxs {
            self.rec.merge(r);
        }
        ServiceReport {
            report: self.world.report().clone(),
            metrics: self.rec.snapshot(),
            accepted: 0,
            rejected: 0,
            scheduler_passes: passes,
        }
    }

    /// Moves every queued control message and query into staging.
    fn drain_inbox(&mut self) {
        self.cmds.extend(std::mem::take(&mut *self.shared.control.lock().unwrap()));
        let popped: Vec<Pending> = self.shared.queue.lock().unwrap().drain(..).collect();
        for p in popped {
            let epoch = p.tag.expect("lockstep submissions are tagged").epoch;
            self.staged.entry(epoch).or_default().push(p);
        }
    }

    /// Applies staged control with barrier `None` or `<= upto`, in
    /// submission order.
    fn apply_cmds(&mut self, upto: u64) {
        let staged = std::mem::take(&mut self.cmds);
        for msg in staged {
            match msg.barrier {
                Some(e) if e > upto => self.cmds.push(msg),
                _ => self.apply(msg.cmd),
            }
        }
    }

    fn apply(&mut self, cmd: Command) {
        match cmd {
            Command::Register { host } => {
                self.world.connect(host);
                self.rec
                    .record(TraceEvent::SessionRegistered { host: host as u32 });
            }
            Command::Reconnect { host, planned_epoch } => {
                self.world.reconnect(host, planned_epoch, &mut self.rec);
                self.rec
                    .record(TraceEvent::SessionRegistered { host: host as u32 });
            }
            Command::Disconnect { host, planned_epoch } => {
                self.world.disconnect(host, planned_epoch, &mut self.rec);
                self.rec
                    .record(TraceEvent::SessionClosed { host: host as u32 });
            }
            Command::UpdatePosition { host, pos } => {
                self.world.update_position(host, pos);
            }
        }
    }

    /// Executes a batch against the current grid and replies.
    fn execute(&mut self, batch: Vec<Pending>) {
        if batch.is_empty() {
            return;
        }
        let mut replies = Vec::with_capacity(batch.len());
        let mut queries = Vec::with_capacity(batch.len());
        for p in batch {
            let tag = p.tag.expect("executed queries carry a resolved tag");
            replies.push((tag.nonce, p.reply));
            queries.push(LiveQuery {
                nonce: tag.nonce,
                host: p.host,
                at_min: tag.at_min,
                pos: p.pos,
                heading: p.heading,
                spec: p.spec,
            });
        }
        // The batch went in nonce-ordered and `execute_epoch` answers
        // every query (offline hosts included) nonce-ordered, so replies
        // and answers pair up by position.
        let answers = self.world.execute_epoch(queries, &self.pool, &mut self.ctxs);
        debug_assert_eq!(answers.len(), replies.len());
        for ((nonce, tx), a) in replies.into_iter().zip(answers) {
            debug_assert_eq!(nonce, a.nonce);
            // A client that dropped its receiver just forfeits the
            // answer; the world state advanced either way.
            let _ = tx.send(a);
        }
    }

    /// One lockstep pass: commit every epoch the fence (or drain) has
    /// released.
    fn step_lockstep(&mut self, draining: bool) -> Next {
        // Fence before inbox: everything submitted before the client's
        // fence call is visible to the pop below, so a released epoch
        // is never committed with a partial batch.
        let fence = self.shared.fence.load(Ordering::Acquire);
        self.drain_inbox();
        let pending_at_drain = if draining {
            self.staged.values().map(Vec::len).sum::<usize>() as u32
        } else {
            0
        };

        let mut ready: BTreeSet<u64> = BTreeSet::new();
        for &e in self.staged.keys() {
            if draining || e < fence {
                ready.insert(e);
            }
        }
        for msg in &self.cmds {
            if let Some(e) = msg.barrier {
                if draining || e < fence {
                    ready.insert(e);
                }
            }
        }
        let progressed = !ready.is_empty();
        for e in ready {
            self.apply_cmds(e);
            self.world.begin_epoch(e);
            let mut batch = self.staged.remove(&e).unwrap_or_default();
            batch.sort_by_key(|p| p.tag.expect("lockstep tags checked at submit").nonce);
            self.rec.record(TraceEvent::EpochCommitted {
                epoch: e,
                batch: batch.len() as u32,
            });
            self.execute(batch);
        }

        if draining {
            // Un-fenced commands (barrier beyond anything staged) are
            // dropped with the drain; queries were all flushed above.
            self.rec.record(TraceEvent::ServiceDrained {
                pending: pending_at_drain,
            });
            return Next::Done;
        }
        if progressed {
            Next::Again
        } else {
            // What was staged waits for its fence, and nothing happens
            // under lockstep until a client acts.
            Next::Park(None)
        }
    }

    /// One scaled-time pass: commit barriers the clock crossed, admit on
    /// budget, execute the open sub-batch.
    fn step_scaled(&mut self, speedup: f64, draining: bool) -> Next {
        let now_s = self.start.elapsed().as_secs_f64();
        let now_min = now_s / 60.0 * speedup;
        let target = (now_min / self.epoch_min) as u64;
        self.cmds
            .extend(std::mem::take(&mut *self.shared.control.lock().unwrap()));

        // Epoch barrier: flush the old epoch's batch against its grid,
        // then apply control and rebuild the retained neighbor grid
        // for the new epoch over the hosts now online.
        if self.current_epoch != Some(target) {
            let batch = std::mem::take(&mut self.open_batch);
            self.epoch_executed += batch.len() as u32;
            self.execute(batch);
            if let Some(e) = self.current_epoch {
                if self.epoch_executed > 0 {
                    self.rec.record(TraceEvent::EpochCommitted {
                        epoch: e,
                        batch: self.epoch_executed,
                    });
                }
            }
            self.epoch_executed = 0;
            self.apply_cmds(target);
            self.world.begin_epoch(target);
            self.current_epoch = Some(target);
        }

        // Budgeted admission: `admit_per_tick` queued queries may join
        // the open batch per elapsed broadcast tick.
        let tick_now = now_min * self.ticks_per_min;
        self.budget += (tick_now - self.last_tick) * self.shared.admit_per_tick as f64;
        self.last_tick = tick_now;
        self.budget = self.budget.min(self.shared.queue_capacity as f64);
        let allow = if draining { usize::MAX } else { self.budget as usize };
        let mut queue = self.shared.queue.lock().unwrap();
        let depth0 = queue.len();
        let admitted = allow.min(depth0);
        for mut p in queue.drain(..admitted) {
            p.tag = Some(QueryTag {
                nonce: self.nonce,
                at_min: now_min,
                epoch: target,
            });
            self.nonce += 1;
            self.open_batch.push(p);
        }
        drop(queue);
        self.budget -= admitted as f64;

        // Sub-epoch execution: admitted queries run immediately against
        // the current grid (latency), committing host state as they go;
        // the epoch's peer snapshot stays fixed until the next barrier.
        let batch = std::mem::take(&mut self.open_batch);
        self.epoch_executed += batch.len() as u32;
        self.execute(batch);

        if draining {
            if self.epoch_executed > 0 {
                self.rec.record(TraceEvent::EpochCommitted {
                    epoch: target,
                    batch: self.epoch_executed,
                });
            }
            self.rec.record(TraceEvent::ServiceDrained {
                pending: admitted as u32,
            });
            return Next::Done;
        }
        if admitted > 0 {
            return Next::Again;
        }
        // Idle. Left alone, the next thing to do is the next epoch's
        // barrier — or, sooner, admitting the head of a queue the budget
        // could not yet pay for. A submission into an empty queue unparks.
        let secs_per_min = 60.0 / speedup;
        let mut wake_s = (target + 1) as f64 * self.epoch_min * secs_per_min;
        if depth0 > 0 {
            let admits_per_s =
                self.shared.admit_per_tick as f64 * self.ticks_per_min / secs_per_min;
            wake_s = wake_s.min(now_s + (1.0 - self.budget) / admits_per_s);
        }
        // No such instant (a zero or non-finite speed-up never reaches
        // its next boundary): only a client call can wake the scheduler.
        let deadline = Duration::try_from_secs_f64(wake_s)
            .ok()
            .and_then(|after| self.start.checked_add(after));
        Next::Park(deadline)
    }
}
