//! Mobile-host result caches with *verified-region* semantics.
//!
//! The currency of the paper's P2P sharing is the pair `⟨p.VR, p.O⟩`: a
//! peer's **verified region** (an MBR within which the peer knows *every*
//! POI, because the data came from the authoritative broadcast) together
//! with the POIs inside it. Lemma 3.1's soundness rests entirely on that
//! invariant — if a cache could hold a region while missing one of its
//! POIs, SBNN would certify wrong answers. This crate therefore treats
//! the *(region, POI-set)* pair as the atomic cache entry:
//!
//! * [`HostCache`] — per-category storage under a POI-count capacity
//!   (`CSize` of Table 4), with whole-entry eviction so soundness can
//!   never be violated by partial eviction. A region enters one way,
//!   [`HostCache::insert_ids`]: a rectangle plus the `PoiId` handles of
//!   exactly the POIs inside it, checked against the canonical
//!   `PoiTable`. Oversized incoming regions are *shrunk around the
//!   host* (scaled down until their POI count fits), preserving the
//!   invariant.
//!   Each host keeps two flat buffers, one entry list for every
//!   category and one buffer of POI handles, read back as
//!   [`EntryView`]s.
//! * [`ReplacementPolicy`] — the paper's direction + distance policy
//!   (after Ren & Dunham's semantic caching), plus distance-only and LRU
//!   baselines for the ablation benchmarks.
//! * [`QuarantineLedger`] — per-host memory of misbehaving peers, with
//!   seeded exponential backoff and strike decay, so the share protocol
//!   stops re-contacting peers that return malformed data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod host_cache;
mod policy;
mod quarantine;

pub use host_cache::{CacheContext, EntryView, HostCache, InsertOutcome};
pub use policy::ReplacementPolicy;
pub use quarantine::QuarantineLedger;
