//! # airshare — location-based spatial queries with P2P data sharing in
//! wireless broadcast environments
//!
//! A from-scratch Rust implementation of Ku, Zimmermann & Wang,
//! *"Location-based Spatial Queries with Data Sharing in Wireless
//! Broadcast Environments"* (ICDE 2007), together with every substrate
//! the paper builds on: the `(1, m)` Hilbert-curve air index of Zheng et
//! al., a broadcast-channel simulator, mobility models, verified-region
//! caches, single-hop P2P sharing, and a full-system simulator that
//! regenerates the paper's evaluation figures.
//!
//! ## The idea in one paragraph
//!
//! In a wireless broadcast environment the server transmits every POI in
//! a fixed cycle; a client answering *"where are the 3 nearest gas
//! stations?"* must wait for the right buckets to come around — possibly
//! minutes. But nearby vehicles have recently asked similar questions
//! and cached the answers. If a peer hands over its **verified region**
//! (an area within which it provably knows *every* POI) plus the POIs
//! inside, the querying host can merge several such regions and *locally
//! prove* that some candidates are true nearest neighbors (Lemma 3.1),
//! estimate the correctness of the rest (Lemma 3.2, `e^{-λu}`), and — if
//! it must still use the channel — skip every bucket its peers already
//! verified (§3.3.3). Window queries shrink to the uncovered remainder
//! (§3.4).
//!
//! ## Quick start
//!
//! ```
//! use airshare::prelude::*;
//!
//! // A tiny world: 4 POIs, one peer with a verified region.
//! let pois = vec![
//!     Poi::new(0, Point::new(1.0, 1.0)),
//!     Poi::new(1, Point::new(2.0, 2.0)),
//!     Poi::new(2, Point::new(8.0, 8.0)),
//!     Poi::new(3, Point::new(9.0, 1.0)),
//! ];
//! // The peer verified the region [0,4]×[0,4] — it knows POIs 0 and 1.
//! let peer_vr = Rect::from_coords(0.0, 0.0, 4.0, 4.0);
//! let peer_pois: Vec<Poi> = pois.iter().filter(|p| peer_vr.contains(p.pos)).copied().collect();
//! let mvr = MergedRegion::from_regions([(peer_vr, peer_pois)]);
//!
//! // A host at (1.5, 1.5) asks for its nearest neighbor.
//! let q = Point::new(1.5, 1.5);
//! let heap = nnv(q, 1, &mvr, 0.25);
//! assert!(heap.is_fulfilled());           // verified without the channel
//! assert_eq!(heap.entries()[0].poi.id, 0); // POI 0 is provably nearest
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`geom`] | points, MBRs, rectangle unions (MVR), disk areas |
//! | [`hilbert`] | Hilbert codec, window→interval decomposition |
//! | [`rtree`] | ground-truth R-tree + linear-scan baseline |
//! | [`broadcast`] | `(1, m)` air index (pluggable Hilbert / R-tree backends), channel timing, on-air baselines |
//! | [`mobility`] | random waypoint, grid roads, Poisson workloads |
//! | [`cache`] | verified-region host caches + replacement policies |
//! | [`p2p`] | neighbor discovery, share protocol |
//! | [`core`] | **SBNN / SBWQ** — the paper's contribution |
//! | [`obs`] | recorder trait, trace events, counters/histograms, stats |
//! | [`exec`] | deterministic worker pool over one shared task queue, seed splitting |
//! | [`sim`] | the full-system simulator behind §4 |
//! | [`serve`] | the base station as a long-running service: sessions, batched admission, backpressure |
//!
//! ## Parallel runs
//!
//! [`sim::Simulation::run_parallel`] shards each epoch's hosts across an
//! [`exec::ExecPool`] and produces a report **bit-identical** to the
//! sequential [`sim::Simulation::run`] for any thread count: within an
//! epoch peers observe the previous epoch's committed caches, every RNG
//! draw comes from a per-`(host, epoch)` stream, and outcomes commit in
//! global event order at the epoch barrier.
//!
//! ```
//! use airshare::prelude::*;
//!
//! let p = params::synthetic_suburbia().scaled(0.004);
//! let mut cfg = SimConfig::paper_defaults(p, QueryKind::Knn, 42);
//! cfg.warmup_min = 5.0;
//! cfg.measure_min = 5.0;
//! cfg.hilbert_order = 6;
//! let sequential = Simulation::try_new(cfg.clone()).unwrap().run();
//! let parallel = Simulation::try_new(cfg).unwrap().run_parallel(&ExecPool::fixed(4));
//! assert_eq!(parallel, sequential);
//! ```
//!
//! ## Observability
//!
//! Every query-path API has a `_rec` twin threading a [`obs::Recorder`]
//! through the protocol, and [`sim::Simulation::run_with`] accepts one
//! for a whole run. The default [`obs::NoopRecorder`] is inert — plain
//! calls behave exactly as before. To get percentiles without writing a
//! recorder yourself:
//!
//! ```
//! use airshare::prelude::*;
//!
//! let p = params::synthetic_suburbia().scaled(0.004);
//! let mut cfg = SimConfig::paper_defaults(p, QueryKind::Knn, 42);
//! cfg.warmup_min = 5.0;
//! cfg.measure_min = 5.0;
//! cfg.hilbert_order = 6;
//! let report = Simulation::try_new(cfg).unwrap().run_metrics();
//! let m = report.metrics.expect("run_metrics always fills this");
//! // The trace sees warm-up queries too, so it can only count more.
//! assert!(m.queries_total >= report.queries.total);
//! println!("p95 tuning = {} ticks", m.tuning.p95);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use airshare_broadcast as broadcast;
pub use airshare_cache as cache;

/// Fleet-scale storage, re-exported flat: the canonical POI table and
/// its handles, the cache entry arena and its generational handles,
/// and the columnar fleet store.
///
/// These are the types behind the million-host engine (DESIGN.md §15):
/// POI payloads live once in a [`fleet::PoiTable`] and everything else
/// — caches, peer replies, index backends — refers to them by
/// [`fleet::PoiId`]; per-host cache entries live in a
/// [`fleet::EntryArena`] addressed by generational [`fleet::EntryId`]s;
/// per-host scalars live in [`fleet::FleetStore`] columns.
pub mod fleet {
    pub use airshare_broadcast::{Poi, PoiId, PoiTable};
    pub use airshare_cache::{EntryArena, EntryId, EntryView};
    pub use airshare_sim::FleetStore;
}
pub use airshare_core as core;
pub use airshare_exec as exec;
pub use airshare_geom as geom;
pub use airshare_hilbert as hilbert;
pub use airshare_mobility as mobility;
pub use airshare_obs as obs;
pub use airshare_p2p as p2p;
pub use airshare_rtree as rtree;
pub use airshare_serve as serve;
pub use airshare_sim as sim;

/// The items most programs need, re-exported flat.
pub mod prelude {
    pub use airshare_broadcast::{
        AirIndex, AirIndexBackend, BuildParams, OnAirClient, OutageSchedule, Poi, PoiCategory,
        PoiId, PoiTable, RtreeAirIndex, Schedule,
    };
    pub use airshare_cache::{
        CacheContext, EntryArena, EntryId, EntryView, HostCache, QuarantineConfig,
        QuarantineLedger, ReplacementPolicy,
    };
    pub use airshare_core::{
        nnv, sbnn, sbnn_rec, sbwq, sbwq_rec, HeapState, MergedRegion, NnCandidate, ResolvedBy,
        ResultHeap, SbnnConfig, SbnnOutcome, SbnnResult, SbwqConfig, SbwqOutcome, SbwqResult,
    };
    pub use airshare_exec::ExecPool;
    pub use airshare_geom::{Point, Rect, RectUnion};
    pub use airshare_hilbert::{Grid, HilbertCurve};
    pub use airshare_mobility::{Mobility, MobilityConfig, QueryScheduler, RandomWaypoint};
    pub use airshare_obs::{
        AccessStats, AnswerQuality, Counter, FaultStats, Histogram, JsonlTraceRecorder,
        LatencySummary, MetricsRecorder, MetricsSnapshot, NoopRecorder, PercentileSummary,
        Recorder, ShareStats, TraceEvent,
    };
    pub use airshare_p2p::{gather_peer_data, NeighborGrid, PeerReply};
    pub use airshare_rtree::RTree;
    pub use airshare_serve::{
        Pacing, QueryRequest, ServeConfig, ServeError, Service, ServiceHandle, ServiceReport,
    };
    pub use airshare_sim::{
        params, BackendKind, ChurnConfig, FleetStore, QualityStats, QueryAnswer, QueryKind,
        QuerySpec, SimConfig, SimReport, Simulation,
    };
}
