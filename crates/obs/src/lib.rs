//! Query-level observability for the airshare system.
//!
//! The paper's evaluation (§4) reports per-run *means* of tuning time and
//! access latency; a production-scale system needs to see tail latency,
//! per-query resolution paths, and where a degraded query lost its cycle.
//! This crate is the substrate for that: a zero-cost [`Recorder`] layer
//! that every hot path threads through, plus the metric primitives and
//! the unified statistics surface the rest of the workspace shares.
//!
//! * [`TraceEvent`] — the typed event taxonomy: channel probes, index
//!   and data bucket tunings, lost frames, peer contacts and dropped
//!   replies, cache hits and rejections, and the terminal
//!   [`TraceEvent::QueryResolved`] carrying the query's cost.
//! * [`Recorder`] — the sink trait. [`NoopRecorder`] is the default and
//!   is provably free: its methods are empty `#[inline]` bodies, and a
//!   simulation run with an inert recorder is bit-identical to one
//!   without (tested end-to-end in the umbrella crate).
//! * [`MetricsSnapshot`] — the metrics recorder, and the aggregate a
//!   run reports: counters plus log-scaled [`Histogram`]s of tuning time
//!   and access latency. It counts only what no report counts
//!   (resolutions, grades, churn, faults and admissions are the reports').
//! * [`JsonlTraceRecorder`] — a deterministic per-query event log, one
//!   JSON object per line, as `airshare-paper trace` prints it.
//! * [`stats`] — the unified statistics module: the per-operation
//!   [`AccessStats`] and [`ShareStats`], the grouped [`FaultStats`]
//!   counters, and the histogram-backed [`LatencySummary`].
//!
//! The crate is dependency-free so every substrate crate can use it
//! without layering concerns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod recorder;
pub mod stats;

pub use event::{AnswerQuality, CacheRejectReason, ResolutionKind, TraceEvent};
pub use recorder::{JsonlTraceRecorder, MetricsSnapshot, NoopRecorder, Recorder};
pub use stats::{
    AccessStats, FaultStats, Histogram, LatencySummary, PercentileSummary, PhaseTimes, ShareStats,
};
