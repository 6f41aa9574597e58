//! Recorded traffic: a seeded workload captured from the closed-loop
//! simulator, replayable against the live service.
//!
//! [`crate::Simulation::run_recording`] produces a [`TrafficTrace`]: the
//! fleet's per-epoch state (position deltas and churn transitions, from
//! which a replay rebuilds the online set)
//! plus every query's *inputs* (time, position, heading, fully-sampled
//! [`QuerySpec`]) and its oracle-checked *answer* (POI ids +
//! [`AnswerQuality`]). A replay client feeds the inputs to
//! `airshare-serve` and asserts the service's answers match — the
//! replay-parity contract (DESIGN.md §14).

use crate::QuerySpec;
use airshare_geom::Point;
use airshare_obs::AnswerQuality;

/// One recorded query: everything the service needs to re-pose it, plus
/// the simulator's answer to check against.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordedQuery {
    /// Global event index — doubles as the fault-layer nonce, so a
    /// replayed query sees the same channel-loss and peer-drop coin
    /// flips as the recorded one.
    pub nonce: u64,
    /// The querying host's id.
    pub host: u32,
    /// Query time in simulation minutes.
    pub at_min: f64,
    /// The epoch whose snapshot/grid the query executed against.
    pub epoch: u64,
    /// The host's position at query time.
    pub pos: Point,
    /// The host's heading (unit vector) at query time, if moving.
    pub heading: Option<(f64, f64)>,
    /// The fully-sampled query (window rects are drawn at record time —
    /// the service never samples).
    pub spec: QuerySpec,
    /// Answer-set POI ids, in resolution order.
    pub ids: Vec<u32>,
    /// The answer's oracle-checked quality tier.
    pub quality: AnswerQuality,
    /// Whether the query landed after warm-up (counted by the report).
    pub measured: bool,
}

/// The fleet's state for one epoch, in barrier order: churn applies
/// first, then positions, then the epoch's queries execute.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRecord {
    /// The epoch number (epochs with no events are skipped, exactly as
    /// the engine skips them).
    pub epoch: u64,
    /// Position *deltas* against the previous recorded epoch: `(host,
    /// new position)` for every host whose position changed. The first
    /// epoch of a trace carries all hosts; replaying the deltas in
    /// epoch order reconstructs every epoch's full position vector
    /// (offline hosts keep their last position; the grid ignores them).
    /// Recording full vectors instead made trace memory scale with
    /// `hosts × epochs` — paused or slow hosts now cost nothing.
    pub moved: Vec<(u32, Point)>,
    /// Churn transitions at this boundary: `(host, planned_epoch,
    /// came_online)`. `planned_epoch` is the plan's epoch number (it can
    /// trail `epoch` when empty epochs were skipped) and seeds the
    /// restart's sync clock.
    pub churn: Vec<(u32, u64, bool)>,
}

/// A full recorded workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficTrace {
    /// The master seed the workload was recorded under.
    pub seed: u64,
    /// Fleet size.
    pub hosts: usize,
    /// Epoch length in minutes (the barrier cadence).
    pub epoch_min: f64,
    /// Which hosts are online before the first epoch.
    pub initial_online: Vec<bool>,
    /// Per-epoch fleet state, in execution order.
    pub epochs: Vec<EpochRecord>,
    /// Every query, sorted by nonce (global event order).
    pub queries: Vec<RecordedQuery>,
}

impl TrafficTrace {
    /// Queries that landed after warm-up (the ones the report counts).
    pub fn measured(&self) -> usize {
        self.queries.iter().filter(|q| q.measured).count()
    }
}
