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
//! Every service event — sessions, admissions, rejections, epoch
//! commits, the final drain — lands on the threaded [`Recorder`]s, and
//! `drain` returns the merged [`MetricsSnapshot`] plus the same
//! [`SimReport`] a simulation run produces.

use crate::{Pacing, ServeConfig, ServeError};
use airshare_broadcast::QueryScratch;
use airshare_exec::ExecPool;
use airshare_geom::Point;
use airshare_obs::{MetricsRecorder, MetricsSnapshot, Recorder, TraceEvent};
use airshare_sim::{ConfigError, LiveQuery, LiveWorld, QueryAnswer, QuerySpec, SimReport};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// How long the scheduler naps when it finds nothing to do.
const IDLE_NAP: Duration = Duration::from_micros(200);

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
    /// this at barriers).
    sessions: Mutex<Vec<bool>>,
    /// Client-side rejection metrics (merged into the final snapshot).
    client_rec: Mutex<MetricsRecorder>,
    accepted: AtomicU64,
    rejected: AtomicU64,
    queue_capacity: usize,
    admit_per_tick: usize,
    lockstep: bool,
    capacity_hosts: usize,
}

impl Shared {
    fn retry_after_ticks(&self) -> u64 {
        (self.queue_capacity as u64 / self.admit_per_tick.max(1) as u64).max(1)
    }
}

/// Everything a drained service hands back.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// The world's accumulated report — the same [`SimReport`] a
    /// simulation run produces, enabling field-for-field replay parity.
    pub report: SimReport,
    /// Merged observability: scheduler + worker + client recorders.
    pub metrics: MetricsSnapshot,
    /// Submissions that entered the admission queue.
    pub accepted: u64,
    /// Submissions bounced by backpressure.
    pub rejected: u64,
}

/// A cloneable client handle to a running [`Service`].
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
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

    fn push_cmd(&self, barrier: Option<u64>, cmd: Command) {
        self.shared
            .control
            .lock()
            .unwrap()
            .push(ControlMsg { barrier, cmd });
    }

    /// Opens a session for a host joining fresh (cold cache, pristine
    /// sync clock). Takes effect at the given barrier epoch (`None` =
    /// the next one committed).
    pub fn register(&self, host: usize, barrier: Option<u64>) -> Result<(), ServeError> {
        self.check_open()?;
        self.check_host(host)?;
        self.shared.sessions.lock().unwrap()[host] = true;
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
        self.shared.sessions.lock().unwrap()[host] = true;
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
        self.shared.sessions.lock().unwrap()[host] = false;
        self.push_cmd(barrier, Command::Disconnect { host, planned_epoch });
        Ok(())
    }

    /// Reports a host's position (used for the barrier's neighbor grid).
    pub fn update_position(
        &self,
        host: usize,
        pos: Point,
        barrier: Option<u64>,
    ) -> Result<(), ServeError> {
        self.check_open()?;
        self.check_host(host)?;
        self.push_cmd(barrier, Command::UpdatePosition { host, pos });
        Ok(())
    }

    /// Submits a query. On admission returns the channel the answer
    /// will arrive on; bounces with [`ServeError::QueueFull`] +
    /// retry-after when the bounded queue is full (backpressure).
    pub fn submit(
        &self,
        req: QueryRequest,
    ) -> Result<mpsc::Receiver<QueryAnswer>, ServeError> {
        self.check_open()?;
        self.check_host(req.host)?;
        if !self.shared.sessions.lock().unwrap()[req.host] {
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
            self.shared
                .client_rec
                .lock()
                .unwrap()
                .record(TraceEvent::QueryRejected { retry_after_ticks });
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
        Ok(rx)
    }

    /// Lockstep only: declares every epoch `<= epoch` fully submitted,
    /// releasing those barriers. Monotonic; later fences only extend it.
    pub fn fence(&self, epoch: u64) {
        self.shared.fence.fetch_max(epoch + 1, Ordering::Release);
    }
}

/// A running service: the scheduler thread plus its client handle.
pub struct Service {
    shared: Arc<Shared>,
    worker: std::thread::JoinHandle<ServiceReport>,
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
            sessions: Mutex::new(vec![false; world.hosts()]),
            client_rec: Mutex::new(MetricsRecorder::new()),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            queue_capacity: cfg.queue_capacity.max(1),
            admit_per_tick: cfg.admit_per_tick.max(1),
            lockstep: matches!(cfg.pacing, Pacing::Lockstep),
            capacity_hosts: world.hosts(),
        });
        let sched_shared = Arc::clone(&shared);
        let worker = std::thread::spawn(move || {
            let mut s = Scheduler::new(world, cfg, sched_shared);
            s.run()
        });
        Ok(Service { shared, worker })
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Graceful drain: stop admitting, flush every pending barrier and
    /// batch (ignoring the clock and fences), deliver all replies, stop
    /// the scheduler, and return the merged report.
    pub fn drain(self) -> ServiceReport {
        self.shared.state.store(DRAINING, Ordering::Release);
        let mut out = self
            .worker
            .join()
            .expect("service scheduler thread panicked");
        let client = self.shared.client_rec.lock().unwrap().snapshot();
        out.metrics.merge(&client);
        out.accepted = self.shared.accepted.load(Ordering::Relaxed);
        out.rejected = self.shared.rejected.load(Ordering::Relaxed);
        out
    }
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
        loop {
            let draining = self.shared.state.load(Ordering::Acquire) == DRAINING;
            match self.pacing {
                Pacing::Lockstep => {
                    if self.step_lockstep(draining) {
                        break;
                    }
                }
                Pacing::Scaled(speedup) => {
                    if self.step_scaled(speedup, draining) {
                        break;
                    }
                }
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
        }
    }

    /// Moves every queued control message and query into staging,
    /// recording admissions. Returns how many queries moved.
    fn drain_inbox(&mut self) -> usize {
        self.cmds.extend(std::mem::take(&mut *self.shared.control.lock().unwrap()));
        let popped: Vec<Pending> = self.shared.queue.lock().unwrap().drain(..).collect();
        let n = popped.len();
        for (i, p) in popped.into_iter().enumerate() {
            self.rec.record(TraceEvent::QueryAdmitted {
                depth: (n - i - 1) as u32,
            });
            let epoch = p.tag.expect("lockstep submissions are tagged").epoch;
            self.staged.entry(epoch).or_default().push(p);
        }
        n
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
        let mut replies: BTreeMap<u64, mpsc::Sender<QueryAnswer>> = BTreeMap::new();
        let mut queries = Vec::with_capacity(batch.len());
        for p in batch {
            let tag = p.tag.expect("executed queries carry a resolved tag");
            replies.insert(tag.nonce, p.reply);
            queries.push(LiveQuery {
                nonce: tag.nonce,
                host: p.host,
                at_min: tag.at_min,
                pos: p.pos,
                heading: p.heading,
                spec: p.spec,
            });
        }
        let answers = self.world.execute_epoch(queries, &self.pool, &mut self.ctxs);
        for a in answers {
            if let Some(tx) = replies.remove(&a.nonce) {
                // A client that dropped its receiver just forfeits the
                // answer; the world state advanced either way.
                let _ = tx.send(a);
            }
        }
    }

    /// One lockstep iteration: commit every epoch the fence (or drain)
    /// has released. Returns `true` when the service is done.
    fn step_lockstep(&mut self, draining: bool) -> bool {
        // Fence before inbox: everything submitted before the client's
        // fence call is visible to the pop below, so a released epoch
        // is never committed with a partial batch.
        let fence = self.shared.fence.load(Ordering::Acquire);
        let moved = self.drain_inbox();
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
            return true;
        }
        if moved == 0 && !progressed {
            std::thread::park_timeout(IDLE_NAP);
        }
        false
    }

    /// One scaled-time iteration: commit barriers the clock crossed,
    /// admit on budget, execute the open sub-batch. Returns `true` when
    /// the service is done.
    fn step_scaled(&mut self, speedup: f64, draining: bool) -> bool {
        let now_min = self.start.elapsed().as_secs_f64() / 60.0 * speedup;
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
        let mut admitted = 0usize;
        if allow > 0 {
            let mut queue = self.shared.queue.lock().unwrap();
            let take = allow.min(queue.len());
            let depth0 = queue.len();
            for i in 0..take {
                let mut p = queue.pop_front().expect("sized above");
                p.tag = Some(QueryTag {
                    nonce: self.nonce,
                    at_min: now_min,
                    epoch: target,
                });
                self.nonce += 1;
                self.rec.record(TraceEvent::QueryAdmitted {
                    depth: (depth0 - i - 1) as u32,
                });
                self.open_batch.push(p);
            }
            admitted = take;
            self.budget -= take as f64;
        }

        // Sub-epoch execution: admitted queries run immediately against
        // the current grid (latency), committing host state as they go;
        // the epoch's peer snapshot stays fixed until the next barrier.
        let batch = std::mem::take(&mut self.open_batch);
        self.epoch_executed += batch.len() as u32;
        let executed = !batch.is_empty();
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
            return true;
        }
        if !executed && admitted == 0 {
            std::thread::park_timeout(IDLE_NAP);
        }
        false
    }
}
