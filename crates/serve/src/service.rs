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
//! 2. A scheduler pass stages queued queries by epoch: under lockstep
//!    all, with the client's tag; under scaled time what the per-tick
//!    admission budget pays for, stamped from the scheduler's clock.
//! 3. The pass then commits the epochs the pacing releases (below the
//!    fence, or up to the clock's epoch) in one loop: entering an epoch
//!    applies its control and commits its barrier, and its queries run
//!    on the `airshare-exec` pool through the *same* resolution path as
//!    the simulator, answers flowing back over per-query channels.
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
use airshare_obs::{MetricsSnapshot, Recorder, TraceEvent};
use airshare_sim::{ConfigError, LiveQuery, LiveWorld, QueryAnswer, QuerySpec, SimReport};
use std::collections::{BTreeMap, VecDeque};
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

/// A queued query with its reply channel.
struct Pending {
    req: QueryRequest,
    reply: mpsc::Sender<QueryAnswer>,
}

/// An admitted query, tagged, with its reply channel.
type Staged = (LiveQuery, mpsc::Sender<QueryAnswer>);

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
    /// Merged observability: the scheduler's and the workers' recorders,
    /// with the world's phase times.
    pub metrics: MetricsSnapshot,
    /// Submissions that entered the admission queue (the only count of
    /// admissions).
    pub accepted: u64,
    /// Submissions bounced by backpressure (the only count of
    /// rejections).
    pub rejected: u64,
    /// Passes of the scheduler loop over the service's life. Every pass
    /// but the drain's ends in a park, so an idle service adds about one
    /// per epoch (scaled) or none (lockstep); a count that grows with
    /// idle wall time is a polling regression.
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
        answerable
            .then_some(())
            .ok_or(ServeError::BadQuery { host })
    }

    /// Sets a host's session flag, returning whether it was open.
    fn set_session(&self, host: usize, open: bool) -> bool {
        self.shared.sessions[host].swap(open, Ordering::Relaxed)
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
    /// the next one committed). A host whose session is open is refused
    /// with [`ServeError::AlreadyRegistered`], and nothing is staged.
    pub fn register(&self, host: usize, barrier: Option<u64>) -> Result<(), ServeError> {
        self.check_open()?;
        self.check_host(host)?;
        if self.set_session(host, true) {
            return Err(ServeError::AlreadyRegistered { host });
        }
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
        self.push_cmd(
            barrier,
            Command::Reconnect {
                host,
                planned_epoch,
            },
        );
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
        self.push_cmd(
            barrier,
            Command::Disconnect {
                host,
                planned_epoch,
            },
        );
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
    pub fn submit(&self, req: QueryRequest) -> Result<mpsc::Receiver<QueryAnswer>, ServeError> {
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
        queue.push_back(Pending { req, reply: tx });
        drop(queue);
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        self.scheduler.unpark();
        Ok(rx)
    }

    /// Lockstep only: declares every epoch `<= epoch` fully submitted,
    /// releasing those barriers. Monotonic; later fences only extend it.
    /// `fence(u64::MAX)` releases every epoch below `u64::MAX`; that last
    /// one commits only with the drain.
    pub fn fence(&self, epoch: u64) {
        self.shared
            .fence
            .fetch_max(epoch.saturating_add(1), Ordering::Release);
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
        Service::start_with(cfg, Clock::Wall)
    }

    /// [`Service::start`] with the scheduler reading `clock`.
    fn start_with(cfg: ServeConfig, clock: Clock) -> Result<Service, ConfigError> {
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
            let mut s = Scheduler::new(world, cfg, sched_shared, clock);
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
    /// Park until a client call unparks the thread or —
    /// when there is something the scheduler must do unprompted — until
    /// that instant.
    Park(Option<Instant>),
    /// The drain is complete.
    Done,
}

/// Where the scheduler reads the time: the wall clock since it started,
/// or one this module's tests set by hand.
enum Clock {
    Wall,
    #[cfg(test)]
    Manual(Arc<tests::ManualClock>),
}

/// The scheduler thread's state.
struct Scheduler {
    world: LiveWorld,
    pool: ExecPool,
    ctxs: Vec<(MetricsSnapshot, QueryScratch)>,
    rec: MetricsSnapshot,
    shared: Arc<Shared>,
    pacing: Pacing,
    epoch_min: f64,
    ticks_per_min: f64,
    clock: Clock,
    start: Instant,
    /// Admitted queries keyed by epoch, waiting for their release.
    staged: BTreeMap<u64, Vec<Staged>>,
    /// Staged control messages, in submission order.
    cmds: Vec<ControlMsg>,
    /// The epoch whose barrier is committed and whose grid is live.
    current_epoch: Option<u64>,
    /// Queries executed in the current epoch so far.
    epoch_executed: u32,
    /// Scaled mode: next nonce to stamp.
    nonce: u64,
    /// Scaled mode: fractional admission budget.
    budget: f64,
    last_tick: f64,
}

impl Scheduler {
    fn new(world: LiveWorld, cfg: ServeConfig, shared: Arc<Shared>, clock: Clock) -> Scheduler {
        let threads = cfg.threads.max(1);
        Scheduler {
            world,
            pool: ExecPool::fixed(threads),
            ctxs: (0..threads)
                .map(|_| (MetricsSnapshot::default(), QueryScratch::new()))
                .collect(),
            rec: MetricsSnapshot::default(),
            shared,
            pacing: cfg.pacing,
            epoch_min: cfg.sim.epoch_min,
            ticks_per_min: cfg.sim.ticks_per_min as f64,
            clock,
            start: Instant::now(),
            staged: BTreeMap::new(),
            cmds: Vec::new(),
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
            match self.step(draining) {
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
        self.rec.phases = self.world.phase_times();
        ServiceReport {
            report: self.world.report().clone(),
            metrics: std::mem::take(&mut self.rec),
            accepted: 0,
            rejected: 0,
            scheduler_passes: passes,
        }
    }

    /// Time since the scheduler started, by its clock.
    fn now(&self) -> Duration {
        match &self.clock {
            Clock::Wall => self.start.elapsed(),
            #[cfg(test)]
            Clock::Manual(clock) => clock.read(),
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

    /// Applies one command, recording a session event when it changed
    /// the host's online state: a reconnect of a live host or a
    /// disconnect of a dark one is a no-op, and counts nothing.
    fn apply(&mut self, cmd: Command) {
        let (Command::Register { host }
        | Command::Reconnect { host, .. }
        | Command::Disconnect { host, .. }
        | Command::UpdatePosition { host, .. }) = cmd;
        let was_online = self.world.is_online(host);
        match cmd {
            Command::Register { host } => self.world.connect(host),
            Command::Reconnect {
                host,
                planned_epoch,
            } => self.world.reconnect(host, planned_epoch, &mut self.rec),
            Command::Disconnect {
                host,
                planned_epoch,
            } => self.world.disconnect(host, planned_epoch, &mut self.rec),
            Command::UpdatePosition { host, pos } => self.world.update_position(host, pos),
        }
        let online = self.world.is_online(host);
        if online != was_online {
            let host = host as u32;
            self.rec.record(if online {
                TraceEvent::SessionRegistered { host }
            } else {
                TraceEvent::SessionClosed { host }
            });
        }
    }

    /// Records the current epoch's barrier as committed, with every
    /// query it executed.
    fn close_epoch(&mut self) {
        if let Some(epoch) = self.current_epoch.take() {
            let batch = std::mem::take(&mut self.epoch_executed);
            self.rec.record(TraceEvent::EpochCommitted { epoch, batch });
        }
    }

    /// Executes a staged batch against the current grid and replies.
    fn execute(&mut self, mut batch: Vec<Staged>) {
        if batch.is_empty() {
            return;
        }
        self.epoch_executed += batch.len() as u32;
        // `execute_epoch` answers every query (offline hosts included)
        // nonce-ordered, so a nonce-ordered batch pairs replies and
        // answers by position.
        batch.sort_by_key(|(q, _)| q.nonce);
        let (replies, queries): (Vec<_>, Vec<LiveQuery>) =
            batch.into_iter().map(|(q, tx)| ((q.nonce, tx), q)).unzip();
        let answers = self
            .world
            .execute_epoch(queries, &self.pool, &mut self.ctxs);
        debug_assert_eq!(answers.len(), replies.len());
        for ((nonce, tx), a) in replies.into_iter().zip(answers) {
            debug_assert_eq!(nonce, a.nonce);
            // A client that dropped its receiver just forfeits the
            // answer; the world state advanced either way.
            let _ = tx.send(a);
        }
    }

    /// One pass: stage what the pacing admits, then commit every epoch
    /// it releases.
    fn step(&mut self, draining: bool) -> Next {
        // Fence and clock before the inboxes: whatever a client queued
        // before fencing an epoch, or before the clock reached it, is
        // popped below, so a released epoch never commits a partial batch.
        let fence = self.shared.fence.load(Ordering::Acquire);
        let now = self.now();
        self.cmds
            .extend(std::mem::take(&mut *self.shared.control.lock().unwrap()));
        let mut queue = self.shared.queue.lock().unwrap();

        // All the pacing decides: how many queued queries enter staging
        // (and what a scaled one is stamped with), and which epochs are
        // released — every one below `release`.
        let (admitted, release, stamp) = match self.pacing {
            Pacing::Lockstep => {
                // A barrier that only control targets commits too.
                for e in self.cmds.iter().filter_map(|m| m.barrier) {
                    self.staged.entry(e).or_default();
                }
                (queue.len(), fence, None)
            }
            Pacing::Scaled(speedup) => {
                let now_min = now.as_secs_f64() / 60.0 * speedup;
                let target = (now_min / self.epoch_min) as u64;
                // `admit_per_tick` queued queries may be admitted per
                // elapsed broadcast tick.
                let tick_now = now_min * self.ticks_per_min;
                self.budget += (tick_now - self.last_tick) * self.shared.admit_per_tick as f64;
                self.last_tick = tick_now;
                self.budget = self.budget.min(self.shared.queue_capacity as f64);
                if draining {
                    self.budget = f64::INFINITY;
                }
                let admitted = (self.budget as usize).min(queue.len());
                self.budget -= admitted as f64;
                // Every epoch boundary the clock crosses commits its
                // barrier, query or not.
                self.staged.entry(target).or_default();
                (admitted, target + 1, Some((now_min, target)))
            }
        };
        let queued = queue.len() - admitted;
        for Pending { req, reply } in queue.drain(..admitted) {
            // `submit` lets a tag in exactly when the pacing stamps none.
            let Some(tag) = req.tag.or_else(|| {
                stamp.map(|(at_min, epoch)| {
                    self.nonce += 1;
                    QueryTag {
                        nonce: self.nonce - 1,
                        at_min,
                        epoch,
                    }
                })
            }) else {
                continue;
            };
            let query = LiveQuery {
                nonce: tag.nonce,
                host: req.host,
                at_min: tag.at_min,
                pos: req.pos,
                heading: req.heading,
                spec: req.spec,
            };
            self.staged
                .entry(tag.epoch)
                .or_default()
                .push((query, reply));
        }
        drop(queue);

        // One commit loop for both pacings; a drain releases everything.
        let mut executed = 0;
        while let Some(entry) = self.staged.first_entry() {
            if !draining && *entry.key() >= release {
                break;
            }
            let (epoch, batch) = entry.remove_entry();
            if self.current_epoch != Some(epoch) {
                self.close_epoch();
                self.apply_cmds(epoch);
                self.world.begin_epoch(epoch);
                self.current_epoch = Some(epoch);
            }
            executed += batch.len();
            self.execute(batch);
        }

        if draining {
            // Un-fenced commands (barrier beyond anything staged) are
            // dropped with the drain; every query was released above.
            self.close_epoch();
            self.rec.record(TraceEvent::ServiceDrained {
                pending: executed as u32,
            });
            return Next::Done;
        }
        // Whatever arrived during the pass left the park token set, so the
        // park returns at once. Under lockstep nothing else happens until
        // a client acts.
        let (Pacing::Scaled(speedup), Some((_, target))) = (self.pacing, stamp) else {
            return Next::Park(None);
        };
        // Left alone, the next thing to do is the next epoch's barrier —
        // or, sooner, admitting the head of a queue the budget could not
        // yet pay for. A submission into an empty queue unparks.
        let secs_per_min = 60.0 / speedup;
        let mut wake_s = (target + 1) as f64 * self.epoch_min * secs_per_min;
        if queued > 0 {
            let admits_per_s =
                self.shared.admit_per_tick as f64 * self.ticks_per_min / secs_per_min;
            wake_s = wake_s.min(now.as_secs_f64() + (1.0 - self.budget) / admits_per_s);
        }
        // No such instant (a zero or non-finite speed-up never reaches
        // its next boundary), or a hand-set clock, which moves only when
        // its test wakes the thread: only a client call can.
        Next::Park(match self.clock {
            Clock::Wall => Duration::try_from_secs_f64(wake_s)
                .ok()
                .and_then(|at| self.start.checked_add(at)),
            #[cfg(test)]
            Clock::Manual(_) => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshare_geom::Rect;
    use airshare_sim::{params, QueryKind, SimConfig};

    /// A clock that moves only when its test sets it. It remembers the
    /// last time the scheduler read, so the test can wait for a pass
    /// that has seen a new setting.
    pub(super) struct ManualClock {
        set_ns: AtomicU64,
        read_ns: AtomicU64,
    }

    impl ManualClock {
        pub(super) fn read(&self) -> Duration {
            let ns = self.set_ns.load(Ordering::SeqCst);
            self.read_ns.store(ns, Ordering::SeqCst);
            Duration::from_nanos(ns)
        }

        /// Sets the clock and returns once a scheduler pass has read the
        /// new time. Every pass from then on reads it too (passes run one
        /// at a time), so whatever is submitted before the next `advance`
        /// is stamped with `to`.
        fn advance(&self, service: &Service, to: Duration) {
            let ns = to.as_nanos() as u64;
            self.set_ns.store(ns, Ordering::SeqCst);
            service.handle.scheduler.unpark();
            while self.read_ns.load(Ordering::SeqCst) != ns {
                std::thread::yield_now();
            }
        }
    }

    const SPEEDUP: f64 = 60.0;
    const HOSTS: usize = 8;
    const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

    fn world() -> SimConfig {
        let mut p = params::la_city().scaled(0.005);
        p.cache_size = 30;
        let mut cfg = SimConfig::paper_defaults(p, QueryKind::Knn, 21);
        cfg.warmup_min = 0.0;
        cfg.hilbert_order = 6;
        cfg
    }

    fn pos(host: usize) -> Point {
        Point::new(0.5 + host as f64 * 0.02, 0.6 - host as f64 * 0.01)
    }

    /// The same control for both pacings, each message at its own
    /// barrier: sessions and positions at epoch 1, host 3 crashed at 3
    /// and back at 5.
    fn sessions(handle: &ServiceHandle) {
        for h in 0..HOSTS {
            handle.register(h, Some(1)).unwrap();
            handle.update_position(h, pos(h), Some(1)).unwrap();
        }
        handle.disconnect(3, 3, Some(3)).unwrap();
        handle.reconnect(3, 5, Some(5)).unwrap();
    }

    /// Clock instants and what is submitted at each: two instants in each
    /// of epochs 1–7, with no query in epoch 6. The irregular offsets
    /// put queries at different phases of the broadcast cycle, so a wrong
    /// stamp moves the report.
    fn plan(epoch_min: f64) -> Vec<(Duration, Vec<QueryRequest>)> {
        let mut plan = Vec::new();
        for epoch in 1..=7u64 {
            for half in 0..2 {
                let at_min =
                    (epoch as f64 + 0.2 + 0.45 * half as f64 + 0.0123 * epoch as f64) * epoch_min;
                let at = Duration::from_secs_f64(at_min * 60.0 / SPEEDUP);
                let queries = if epoch == 6 { 0 } else { 3 };
                let reqs = (0..queries)
                    .map(|j| {
                        let host = (epoch as usize * 3 + half * 5 + j) % HOSTS;
                        let p = pos(host);
                        let spec = if j == 1 {
                            QuerySpec::Window {
                                rect: Rect::new(p, Point::new(p.x + 0.15, p.y + 0.1)),
                            }
                        } else {
                            QuerySpec::Knn { k: 3 + j }
                        };
                        QueryRequest {
                            host,
                            pos: p,
                            heading: None,
                            spec,
                            tag: None,
                        }
                    })
                    .collect();
                plan.push((at, reqs));
            }
        }
        plan
    }

    /// Runs the plan on a scaled service over a manual clock: the answers
    /// in submission order and the drained report.
    fn run_scaled(threads: usize) -> (Vec<QueryAnswer>, ServiceReport) {
        let mut sc = ServeConfig::scaled(world(), SPEEDUP);
        sc.threads = threads;
        let epoch_min = sc.sim.epoch_min;
        let clock = Arc::new(ManualClock {
            set_ns: AtomicU64::new(0),
            read_ns: AtomicU64::new(u64::MAX),
        });
        let service = Service::start_with(sc, Clock::Manual(Arc::clone(&clock))).unwrap();
        // Epoch 0 is committed before any control arrives.
        clock.advance(&service, Duration::ZERO);
        let handle = service.handle();
        sessions(&handle);
        let mut answers = Vec::new();
        for (at, reqs) in plan(epoch_min) {
            clock.advance(&service, at);
            let rxs: Vec<_> = reqs
                .into_iter()
                .map(|r| handle.submit(r).unwrap())
                .collect();
            for rx in rxs {
                answers.push(rx.recv_timeout(REPLY_TIMEOUT).unwrap());
            }
        }
        (answers, service.drain())
    }

    #[test]
    fn scaled_service_on_a_manual_clock_is_reproducible() {
        let epoch_min = world().epoch_min;
        let (answers, report) = run_scaled(1);
        let submitted: usize = plan(epoch_min).iter().map(|(_, reqs)| reqs.len()).sum();
        assert_eq!(answers.len(), submitted);
        // Nonces are admission order, which here is submission order.
        for (i, a) in answers.iter().enumerate() {
            assert_eq!(a.nonce, i as u64);
        }
        assert!(answers.iter().any(|a| !a.ids.is_empty()));
        // Every epoch the clock entered committed its barrier: 0 to 7,
        // the query-less 6 included.
        assert_eq!(report.metrics.epochs_committed_total, 8);
        // The world's phase clocks reach the drained snapshot; a live
        // world's clients advance it, so it spends nothing on that.
        let phases = report.metrics.phases;
        assert!(phases.grid_ns > 0 && phases.query_ns > 0, "{phases:?}");
        assert_eq!(phases.advance_ns, 0);

        let (answers_2, report_2) = run_scaled(2);
        assert_eq!(answers_2, answers);
        assert_eq!(report_2.report, report.report);

        // A lockstep service fed the tags the scaled run stamped answers
        // alike and ends with the same report.
        let lockstep = Service::start(ServeConfig::lockstep(world())).unwrap();
        let handle = lockstep.handle();
        sessions(&handle);
        let mut rxs = Vec::new();
        for (at, reqs) in plan(epoch_min) {
            // As the scheduler reads the clock.
            let at_min = at.as_secs_f64() / 60.0 * SPEEDUP;
            for mut req in reqs {
                req.tag = Some(QueryTag {
                    nonce: rxs.len() as u64,
                    at_min,
                    epoch: (at_min / epoch_min) as u64,
                });
                rxs.push(handle.submit(req).unwrap());
            }
        }
        handle.fence(7);
        let replayed: Vec<_> = rxs
            .into_iter()
            .map(|rx| rx.recv_timeout(REPLY_TIMEOUT).unwrap())
            .collect();
        assert_eq!(replayed, answers);
        assert_eq!(lockstep.drain().report, report.report);
    }

    /// A fence at the last epoch releases every barrier before it, like
    /// any fence: it neither overflows (a panic under debug assertions)
    /// nor wraps to 0 (the fence lost), so a query tagged with a low
    /// epoch is answered.
    #[test]
    fn a_fence_at_the_last_epoch_releases_the_barriers_below_it() {
        let cfg = world();
        let epoch_min = cfg.epoch_min;
        let lockstep = Service::start(ServeConfig::lockstep(cfg)).unwrap();
        let handle = lockstep.handle();
        handle.register(0, Some(1)).unwrap();
        handle.update_position(0, pos(0), Some(1)).unwrap();
        let rx = handle
            .submit(QueryRequest {
                host: 0,
                pos: pos(0),
                heading: None,
                spec: QuerySpec::Knn { k: 3 },
                tag: Some(QueryTag {
                    nonce: 0,
                    at_min: 1.5 * epoch_min,
                    epoch: 1,
                }),
            })
            .unwrap();
        handle.fence(u64::MAX);
        let answer = rx
            .recv_timeout(REPLY_TIMEOUT)
            .expect("the fenced query was not answered");
        assert_eq!((answer.nonce, answer.host, answer.ids.len()), (0, 0, 3));
        assert_eq!(lockstep.drain().report.queries.total, 1);
    }
}
