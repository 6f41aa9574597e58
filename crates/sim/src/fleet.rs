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
//! columns (`online`, `positions`, sync state) are plain `Vec`s, one
//! entry per host. Caches and quarantine ledgers are kept only for the
//! hosts that have one: most hosts of a large fleet never query, and a
//! host that never queried holds an empty cache and an empty ledger, so
//! an absent entry stands for exactly that. A host's cache (one flat
//! entry list and one POI-handle buffer) sits behind a 4-byte slot;
//! a host's ledger sits in a map keyed by host id.
//!
//! Mutation stays inside the crate (the world's epoch barrier, plus the
//! simulator writing the position column); external callers get
//! read-only column views.

use airshare_cache::{HostCache, QuarantineLedger};
use airshare_geom::Point;
use airshare_p2p::PeerCaches;
use std::collections::BTreeMap;

/// The slot of a host that holds no cache of its own.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Struct-of-arrays storage for every mobile host's mutable state.
///
/// One instance holds the whole fleet; a host is an index. Columns:
/// online flags, positions, channel-sync scalars, and a cache slot per
/// host; caches and quarantine ledgers only for the hosts that hold
/// one. See the module docs for why this is columnar.
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
    /// Each host's index into `caches`, or `NO_SLOT` for a host that
    /// has never installed a non-empty cache. A slot, once given, is
    /// kept: a crash empties the cache behind it.
    pub(crate) slot: Vec<u32>,
    /// The verified-region caches (flat, handle-based) of the hosts
    /// with a slot — the one cache column, and what peers read: as of
    /// the last barrier for a host that has queried (or crashed) since,
    /// whose live cache the world holds aside until the next one;
    /// complete after `Simulation::run*`.
    caches: Vec<HostCache>,
    /// The cache every slotless host holds: empty, built with the run's
    /// capacity, policy and subsumption. A clone allocates nothing.
    template: HostCache,
    /// The non-empty quarantine ledgers, by host. A host with none
    /// holds the fresh ledger its seed builds.
    pub(crate) quarantines: BTreeMap<usize, QuarantineLedger>,
}

impl FleetStore {
    /// `hosts` sessions, all offline at the origin, in sync, each
    /// holding `template` and an empty ledger. Allocates the scalar
    /// columns and the slot column, nothing per cache or ledger.
    pub(crate) fn new(hosts: usize, template: HostCache) -> Self {
        FleetStore {
            online: vec![false; hosts],
            positions: vec![Point::new(0.0, 0.0); hosts],
            last_sync_min: vec![0.0; hosts],
            needs_resync: vec![false; hosts],
            slot: vec![NO_SLOT; hosts],
            caches: Vec::new(),
            template,
            quarantines: BTreeMap::new(),
        }
    }

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
    /// after `Simulation::run*`. A host that has never installed a
    /// region reads as the fleet's empty template.
    pub fn cache(&self, host: usize) -> &HostCache {
        match self.slot[host] {
            NO_SLOT => &self.template,
            at => &self.caches[at as usize],
        }
    }

    /// A fresh copy of the cache a slotless host holds. Allocates
    /// nothing.
    pub(crate) fn empty_cache(&self) -> HostCache {
        self.template.clone()
    }

    /// `host`'s column entry for writing, if it has a slot.
    pub(crate) fn cache_mut(&mut self, host: usize) -> Option<&mut HostCache> {
        match self.slot[host] {
            NO_SLOT => None,
            at => Some(&mut self.caches[at as usize]),
        }
    }

    /// Makes `cache` `host`'s column entry and returns the entry it
    /// replaces. A slotless host gets a slot only for a non-empty
    /// cache; an empty one is dropped, since the template already
    /// shows it.
    pub(crate) fn install(&mut self, host: usize, cache: HostCache) -> Option<HostCache> {
        if let Some(column) = self.cache_mut(host) {
            return Some(std::mem::replace(column, cache));
        }
        if !cache.is_empty() {
            self.slot[host] = u32::try_from(self.caches.len())
                .ok()
                .filter(|&at| at != NO_SLOT)
                .expect("fewer than u32::MAX host caches");
            self.caches.push(cache);
        }
        None
    }
}

/// Peers read the column through the slots: a slotless host shows the
/// empty template.
impl PeerCaches for FleetStore {
    fn hosts(&self) -> usize {
        self.len()
    }

    fn cache(&self, host: usize) -> &HostCache {
        FleetStore::cache(self, host)
    }
}
