//! The wireless broadcast substrate: `(1, m)` air indexing over a Hilbert
//! curve, channel timing, and the on-air spatial query baselines.
//!
//! In the paper's environment (Figure 3) a base station cyclically
//! broadcasts every POI on a public channel. Clients never transmit to
//! the server; they *tune in*, read an **index segment**, predict when the
//! buckets they need will be on air, sleep, and wake to download them.
//! Two metrics characterize the model (Imielinski et al., the paper’s
//! ref \[10\]):
//!
//! * **access latency** — wall-clock from posing the query to holding the
//!   data, dominated by waiting for the right part of the cycle;
//! * **tuning time** — how long the receiver is actually listening, a
//!   proxy for client power consumption.
//!
//! This crate implements that machinery from scratch:
//!
//! * [`Poi`] — the broadcast data item (a point of interest).
//! * [`AirIndex`] — the server-side organization: POIs sorted in Hilbert
//!   order and packed into fixed-capacity [`Bucket`]s (Zheng et al.).
//! * [`Schedule`] — `(1, m)` index allocation: the full index repeats `m`
//!   times per cycle, preceding each `1/m` of the data file (Figure 2).
//! * [`OnAirClient`] — the client access protocol (initial probe → index
//!   search → data retrieval) and the two baseline algorithms the paper
//!   improves on: the on-air kNN query (Figure 4) and the on-air window
//!   query (Figure 8). The search bounds and reduced windows SBNN/SBWQ
//!   derive from partial peer verification (§3.3.3 and §3.4.2) only
//!   shrink the set of buckets each one downloads.
//! * [`AirIndexBackend`] — the pluggable index contract behind
//!   [`AirIndex`], with [`RtreeAirIndex`] (an on-air R-tree reusing
//!   `crates/rtree`'s STR bulk loader) as the shipping alternative.
//!
//! Time is measured in **ticks**, one tick being the airtime of one
//! bucket; no bucket is ever serialized. A lost appearance is a seeded
//! hash of `(seed, bucket, cycle)` ([`ChannelFaults`]), not a corrupted
//! frame.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod bucket;
mod client;
mod fault;
mod index;
mod outage;
mod poi;
mod rtree_index;
mod schedule;
mod scratch;
mod table;

pub use backend::{AirIndexBackend, BuildParams};
pub use bucket::{Bucket, BucketId};
pub use client::{OnAirClient, OnAirKnnResult, OnAirWindowResult};
pub use fault::ChannelFaults;
pub use index::{AirIndex, IndexError};
pub use outage::OutageSchedule;
pub use poi::{Poi, PoiCategory, PoiId};
pub use rtree_index::RtreeAirIndex;
pub use schedule::{Schedule, ScheduleError};
pub use scratch::QueryScratch;
pub use table::PoiTable;
