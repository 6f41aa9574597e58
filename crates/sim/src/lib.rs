//! The full-system simulator behind the paper's evaluation (§4).
//!
//! One [`Simulation`] wires every substrate together the way Figure 3
//! draws it: a base station broadcasting the POI file on a `(1, m)`
//! Hilbert air index, a fleet of mobile hosts moving by random waypoint
//! (or over a grid road network), per-host caches with verified-region
//! semantics, single-hop P2P sharing, and the SBNN/SBWQ algorithms
//! deciding per query whether peers suffice or the channel must be used.
//!
//! * [`params`] — the three Table 3 parameter sets (Los Angeles City,
//!   Riverside County, Synthetic Suburbia) with density-preserving
//!   scaling for laptop-sized runs.
//! * [`SimConfig`] — everything Table 4 lists, plus the knobs the
//!   ablation benches sweep.
//! * [`LiveWorld`] — the paper's base-station module (§4.1): the POI
//!   world, air index, schedule and per-host session state, its epoch
//!   barrier (`live.rs`), and the resolution of each query — P2P
//!   gather, SBNN/SBWQ, channel fallback, accounting (`resolve.rs`).
//!   It poses no queries; a client fleet submits them.
//! * [`Simulation::run`] — the mobile-host module (`engine.rs`), one
//!   such client: per epoch it applies churn, moves the hosts, derives
//!   their queries, and hands the batch to its `LiveWorld`. Returns a
//!   [`SimReport`] with the exact series the paper's figures plot
//!   (fractions of queries solved by SBNN / approximate SBNN / the
//!   broadcast channel), access latency and tuning time, P2P traffic,
//!   and optional ground-truth validation counters. The serving layer
//!   (`airshare-serve`) is the other client.
//!
//! Everything is deterministic given the config's `seed`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod fleet;
mod live;
pub mod params;
mod report;
mod resolve;
mod traffic;

pub use airshare_obs::{AnswerQuality, FaultStats, MetricsSnapshot};
pub use config::{
    BackendKind, ChurnConfig, ConfigError, FaultConfig, MobilityModel, ParseBackendError,
    QueryKind, SimConfig,
};
pub use engine::Simulation;
pub use fleet::FleetStore;
pub use live::{LiveQuery, LiveWorld};
pub use params::ParamSet;
pub use report::{LatencySummary, QualityStats, QueryStats, SimReport};
pub use resolve::{QueryAnswer, QuerySpec};
pub use traffic::{EpochRecord, RecordedQuery, TrafficTrace};
