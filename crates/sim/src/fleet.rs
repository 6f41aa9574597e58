//! Columnar (struct-of-arrays) per-host fleet state.
//!
//! A million-host fleet touches host state in tight, column-at-a-time
//! sweeps: advance every position, rebuild the neighbor grid over the
//! online set, refresh sync clocks at the barrier. Keeping each of those
//! as its own flat column — instead of an array of per-host structs —
//! means a sweep reads exactly the bytes it needs and nothing else.
//!
//! [`FleetStore`] is that storage. [`crate::LiveWorld`] owns the one
//! instance of a run — the closed-loop simulator drives that world as a
//! client, so it and `airshare-serve` ride the same columns. The scalar
//! columns (`online`, `positions`, sync state) are plain `Vec`s; the
//! per-host caches (one flat entry list and one POI-handle buffer each)
//! and quarantine ledgers come from `airshare-cache`, indexed by host
//! id.
//!
//! Mutation stays inside the crate (the world's epoch barrier, plus the
//! simulator writing the position column); external callers get
//! read-only column views.

use airshare_cache::{HostCache, QuarantineLedger};
use airshare_geom::Point;

/// Struct-of-arrays storage for every mobile host's mutable state.
///
/// One instance holds the whole fleet; a host is an index. Columns:
/// online flags, positions, channel-sync scalars, caches, and
/// quarantine ledgers. See the module docs for why this is columnar.
pub struct FleetStore {
    /// Which hosts are on the air (churn state).
    pub(crate) online: Vec<bool>,
    /// Host positions at the last epoch boundary (offline hosts keep
    /// their last position; the neighbor grid ignores them).
    pub(crate) positions: Vec<Point>,
    /// Minute of each host's last successful channel access.
    pub(crate) last_sync_min: Vec<f64>,
    /// Whether each host owes a resync (answered through an outage or
    /// just came online).
    pub(crate) needs_resync: Vec<bool>,
    /// Per-host verified-region caches (flat, handle-based) —
    /// the one cache column, and what peers read: as of the last
    /// barrier for a host that has queried (or crashed) since, whose
    /// live cache the world holds aside until the next one; complete
    /// after `Simulation::run*`.
    pub(crate) caches: Vec<HostCache>,
    /// Per-host quarantine ledgers for misbehaving peers.
    pub(crate) quarantines: Vec<QuarantineLedger>,
}

impl FleetStore {
    /// Fleet size (maximum host id + 1).
    pub fn len(&self) -> usize {
        self.online.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.online.is_empty()
    }

    /// Whether a host is currently online. Out-of-range ids are offline.
    pub fn is_online(&self, host: usize) -> bool {
        self.online.get(host).copied().unwrap_or(false)
    }

    /// The online column.
    pub fn online(&self) -> &[bool] {
        &self.online
    }

    /// The position column (epoch-boundary positions).
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// One host's epoch-boundary position.
    pub fn position(&self, host: usize) -> Point {
        self.positions[host]
    }

    /// One host's cache (read-only; mutation is the barrier's job): as
    /// of the last barrier for a host that has queried since; complete
    /// after `Simulation::run*`.
    pub fn cache(&self, host: usize) -> &HostCache {
        &self.caches[host]
    }
}
