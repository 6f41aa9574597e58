//! The `Recorder` sink trait and the concrete recorders.

use crate::event::{ResolutionKind, TraceEvent};
use crate::stats::{Histogram, PercentileSummary, PhaseTimes};
use std::fmt::Write as _;

/// A sink for trace events emitted along a query's resolution path.
///
/// Both methods default to empty `#[inline]` bodies, so threading a
/// [`NoopRecorder`] through the hot paths compiles away entirely: a
/// simulation run with an inert recorder is bit-identical to one
/// without (tested end-to-end in the umbrella crate).
///
/// The trait is object-safe; the workspace passes `&mut dyn Recorder`.
pub trait Recorder {
    /// Opens a query context: subsequent [`Recorder::record`] calls
    /// belong to query `id` until the next `begin_query`. `tick` is the
    /// channel tick at which the query was issued.
    #[inline]
    fn begin_query(&mut self, id: u64, tick: u64) {
        let _ = (id, tick);
    }

    /// Records one event in the current query context.
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        let _ = event;
    }
}

/// The default recorder: records nothing, costs nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A borrowed recorder records into its referent, so a caller-owned
/// sink (`&mut dyn Recorder` included) can sit in a worker context
/// that is generic over its recorder.
impl<R: Recorder + ?Sized> Recorder for &mut R {
    fn begin_query(&mut self, id: u64, tick: u64) {
        (**self).begin_query(id, tick);
    }
    fn record(&mut self, event: TraceEvent) {
        (**self).record(event);
    }
}

/// Aggregated view of a [`MetricsRecorder`], as plain numbers.
///
/// The snapshot counts only what no report counts. Every fact a
/// `SimReport` or `ServiceReport` already owns — resolutions, answer
/// grades, crashes, restarts, resyncs, peer contacts, dropped replies,
/// lost frames, quarantine, admissions and rejections — is read there;
/// its events stay in the trace, where a test-side fold can check the
/// two agree. What remains is the channel and cache work behind the
/// per-layer ladder, the service's session and barrier events, and the
/// tuning and latency distributions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Queries observed (one per `begin_query`).
    pub queries_total: u64,
    /// Channel probes started.
    pub probes_total: u64,
    /// Index buckets tuned.
    pub index_buckets_total: u64,
    /// Data buckets downloaded.
    pub data_buckets_total: u64,
    /// Cache contributions (hits) observed.
    pub cache_hits_total: u64,
    /// Cache admissions refused.
    pub cache_rejected_total: u64,
    /// Queries issued while the base station was silent.
    pub outages_blocked_total: u64,
    /// Sessions opened with the serving base station.
    pub sessions_registered_total: u64,
    /// Sessions closed (client disconnects).
    pub sessions_closed_total: u64,
    /// Epoch barriers committed by the service scheduler.
    pub epochs_committed_total: u64,
    /// Graceful drains completed.
    pub drains_total: u64,
    /// Tuning-time percentiles across resolved queries (ticks).
    pub tuning: PercentileSummary,
    /// Access-latency percentiles across resolved queries (ticks).
    pub latency: PercentileSummary,
    /// The full tuning-time histogram behind [`MetricsSnapshot::tuning`].
    /// Histogram bounds are fixed, so snapshots merge exactly.
    pub tuning_hist: Histogram,
    /// The full access-latency histogram behind
    /// [`MetricsSnapshot::latency`].
    pub latency_hist: Histogram,
    /// Wall-clock breakdown of the engine's epoch loop, filled in by
    /// the driving runtime (not by trace events). Compares equal
    /// regardless of values — timing is measurement, not simulation
    /// output — so determinism checks over snapshots stay valid.
    pub phases: PhaseTimes,
}

impl MetricsSnapshot {
    /// Folds another snapshot in: counters add, histograms merge, and
    /// the percentile summaries are recomputed from the merged
    /// histograms.
    ///
    /// Every ingredient is a commutative, associative exact sum, so
    /// folding shard-local snapshots in any grouping yields the same
    /// result as one recorder having observed every event — the property
    /// the parallel runtime's per-worker recorders rely on (and that
    /// `tests/parallel.rs` checks).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.queries_total += other.queries_total;
        self.probes_total += other.probes_total;
        self.index_buckets_total += other.index_buckets_total;
        self.data_buckets_total += other.data_buckets_total;
        self.cache_hits_total += other.cache_hits_total;
        self.cache_rejected_total += other.cache_rejected_total;
        self.outages_blocked_total += other.outages_blocked_total;
        self.sessions_registered_total += other.sessions_registered_total;
        self.sessions_closed_total += other.sessions_closed_total;
        self.epochs_committed_total += other.epochs_committed_total;
        self.drains_total += other.drains_total;
        self.tuning_hist.merge(&other.tuning_hist);
        self.latency_hist.merge(&other.latency_hist);
        self.tuning = self.tuning_hist.percentiles();
        self.latency = self.latency_hist.percentiles();
        self.phases.merge(other.phases);
    }
}

/// Aggregates trace events into counters and log-scaled histograms.
///
/// Feed it to a run, then call [`MetricsRecorder::snapshot`] for the
/// percentile view. Tuning and latency are recorded per query at its
/// terminal [`TraceEvent::QueryResolved`] event (peer-resolved queries
/// contribute zeros — they never touched the channel; unresolved
/// outage answers contribute nothing). Events whose fact a report owns
/// (see [`MetricsSnapshot`]) are observed and not counted.
#[derive(Clone, Debug, Default)]
pub struct MetricsRecorder {
    /// The running totals; `tuning`/`latency` are filled in only by
    /// [`MetricsRecorder::snapshot`].
    totals: MetricsSnapshot,
}

impl MetricsRecorder {
    /// A recorder with all metrics at zero.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder::default()
    }

    /// The current aggregate view.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = self.totals.clone();
        s.tuning = s.tuning_hist.percentiles();
        s.latency = s.latency_hist.percentiles();
        s
    }

    /// Folds another recorder's observations in (exact; see
    /// [`MetricsSnapshot::merge`]).
    pub fn merge(&mut self, other: &MetricsRecorder) {
        self.totals.merge(&other.totals);
    }
}

impl Recorder for MetricsRecorder {
    fn begin_query(&mut self, _id: u64, _tick: u64) {
        self.totals.queries_total += 1;
    }

    fn record(&mut self, event: TraceEvent) {
        let m = &mut self.totals;
        match event {
            TraceEvent::ProbeStarted { .. } => m.probes_total += 1,
            TraceEvent::IndexBucketTuned { count } => m.index_buckets_total += count as u64,
            TraceEvent::DataBucketTuned { .. } => m.data_buckets_total += 1,
            TraceEvent::CacheHit { .. } => m.cache_hits_total += 1,
            TraceEvent::CacheRejected { .. } => m.cache_rejected_total += 1,
            TraceEvent::QueryResolved {
                by: ResolutionKind::Unresolved,
                ..
            } => {}
            TraceEvent::QueryResolved {
                tuning, latency, ..
            } => {
                m.tuning_hist.record(tuning);
                m.latency_hist.record(latency);
            }
            TraceEvent::OutageBlocked { .. } => m.outages_blocked_total += 1,
            TraceEvent::SessionRegistered { .. } => m.sessions_registered_total += 1,
            TraceEvent::SessionClosed { .. } => m.sessions_closed_total += 1,
            TraceEvent::EpochCommitted { .. } => m.epochs_committed_total += 1,
            TraceEvent::ServiceDrained { .. } => m.drains_total += 1,
            TraceEvent::FrameLost { .. }
            | TraceEvent::PeerContacted { .. }
            | TraceEvent::PeerReplyDropped { .. }
            | TraceEvent::QueryQuality { .. }
            | TraceEvent::HostCrashed { .. }
            | TraceEvent::HostRestarted { .. }
            | TraceEvent::Resynced { .. }
            | TraceEvent::PeerQuarantined { .. }
            | TraceEvent::QuarantinedPeerSkipped { .. } => {}
        }
    }
}

/// Writes a deterministic per-query event log: one JSON object per
/// line, fields in fixed order, integers and fixed strings only — two
/// same-seed runs produce byte-identical output.
///
/// The log accumulates in memory; drain it with
/// [`JsonlTraceRecorder::into_string`] (or borrow via
/// [`JsonlTraceRecorder::as_str`]).
#[derive(Clone, Debug, Default)]
pub struct JsonlTraceRecorder {
    buf: String,
    query: u64,
}

impl JsonlTraceRecorder {
    /// An empty trace.
    pub fn new() -> JsonlTraceRecorder {
        JsonlTraceRecorder::default()
    }

    /// The log so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Lines written so far.
    pub fn lines(&self) -> usize {
        self.buf.lines().count()
    }

    /// Consumes the recorder, returning the complete log.
    pub fn into_string(self) -> String {
        self.buf
    }
}

impl Recorder for JsonlTraceRecorder {
    fn begin_query(&mut self, id: u64, tick: u64) {
        self.query = id;
        let _ = writeln!(
            self.buf,
            "{{\"query\":{id},\"event\":\"begin_query\",\"tick\":{tick}}}"
        );
    }

    fn record(&mut self, event: TraceEvent) {
        let q = self.query;
        let name = event.name();
        let _ = match event {
            TraceEvent::ProbeStarted { tick } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"tick\":{tick}}}"
            ),
            TraceEvent::IndexBucketTuned { count } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"count\":{count}}}"
            ),
            TraceEvent::DataBucketTuned { bucket, tick } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"bucket\":{bucket},\"tick\":{tick}}}"
            ),
            TraceEvent::FrameLost { bucket, retry } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"bucket\":{bucket},\"retry\":{retry}}}"
            ),
            TraceEvent::PeerContacted { peer } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"peer\":{peer}}}"
            ),
            TraceEvent::PeerReplyDropped { peer } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"peer\":{peer}}}"
            ),
            TraceEvent::CacheHit { regions } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"regions\":{regions}}}"
            ),
            TraceEvent::CacheRejected { reason } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"reason\":\"{}\"}}",
                reason.as_str()
            ),
            TraceEvent::QueryResolved {
                by,
                tuning,
                latency,
            } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"by\":\"{}\",\"tuning\":{tuning},\"latency\":{latency}}}",
                by.as_str()
            ),
            TraceEvent::QueryQuality { quality } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"quality\":\"{}\"}}",
                quality.as_str()
            ),
            TraceEvent::HostCrashed { host, epoch } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"host\":{host},\"epoch\":{epoch}}}"
            ),
            TraceEvent::HostRestarted { host, epoch } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"host\":{host},\"epoch\":{epoch}}}"
            ),
            TraceEvent::OutageBlocked { tick } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"tick\":{tick}}}"
            ),
            TraceEvent::Resynced { host } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"host\":{host}}}"
            ),
            TraceEvent::PeerQuarantined { peer, until_epoch } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"peer\":{peer},\"until_epoch\":{until_epoch}}}"
            ),
            TraceEvent::QuarantinedPeerSkipped { peer } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"peer\":{peer}}}"
            ),
            TraceEvent::SessionRegistered { host } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"host\":{host}}}"
            ),
            TraceEvent::SessionClosed { host } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"host\":{host}}}"
            ),
            TraceEvent::EpochCommitted { epoch, batch } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"epoch\":{epoch},\"batch\":{batch}}}"
            ),
            TraceEvent::ServiceDrained { pending } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"pending\":{pending}}}"
            ),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AnswerQuality, CacheRejectReason};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::ProbeStarted { tick: 120 },
            TraceEvent::IndexBucketTuned { count: 3 },
            TraceEvent::FrameLost {
                bucket: 17,
                retry: 0,
            },
            TraceEvent::DataBucketTuned {
                bucket: 17,
                tick: 140,
            },
            TraceEvent::PeerContacted { peer: 5 },
            TraceEvent::PeerReplyDropped { peer: 5 },
            TraceEvent::CacheHit { regions: 2 },
            TraceEvent::CacheRejected {
                reason: CacheRejectReason::NoCapacity,
            },
            TraceEvent::QueryResolved {
                by: ResolutionKind::Broadcast,
                tuning: 12,
                latency: 88,
            },
        ]
    }

    #[test]
    fn metrics_recorder_aggregates_all_events() {
        let mut m = MetricsRecorder::new();
        m.begin_query(0, 120);
        for e in sample_events() {
            m.record(e);
        }
        m.begin_query(1, 200);
        m.record(TraceEvent::QueryResolved {
            by: ResolutionKind::PeersVerified,
            tuning: 0,
            latency: 0,
        });
        // An outage answer ends its context but paid no channel cost.
        m.begin_query(2, 300);
        m.record(TraceEvent::QueryResolved {
            by: ResolutionKind::Unresolved,
            tuning: 0,
            latency: 0,
        });
        let s = m.snapshot();
        assert_eq!(s.queries_total, 3);
        assert_eq!(s.probes_total, 1);
        assert_eq!(s.index_buckets_total, 3);
        assert_eq!(s.data_buckets_total, 1);
        assert_eq!(s.cache_hits_total, 1);
        assert_eq!(s.cache_rejected_total, 1);
        assert_eq!(s.tuning.count, 2);
        assert_eq!(s.latency.count, 2);
        assert_eq!(s.latency.max, 88);
    }

    #[test]
    fn jsonl_lines_are_exact_and_repeatable() {
        let render = || {
            let mut t = JsonlTraceRecorder::new();
            t.begin_query(7, 120);
            for e in sample_events() {
                t.record(e);
            }
            t.into_string()
        };
        let a = render();
        assert_eq!(a, render());
        assert_eq!(a.lines().count(), 10);
        assert!(a.starts_with("{\"query\":7,\"event\":\"begin_query\",\"tick\":120}\n"));
        assert!(a.contains(
            "{\"query\":7,\"event\":\"query_resolved\",\"by\":\"broadcast\",\"tuning\":12,\"latency\":88}"
        ));
        for line in a.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn snapshot_merge_matches_single_recorder() {
        // Two shard recorders vs one recorder observing everything.
        let mut a = MetricsRecorder::new();
        let mut b = MetricsRecorder::new();
        let mut whole = MetricsRecorder::new();
        a.begin_query(0, 120);
        whole.begin_query(0, 120);
        for e in sample_events() {
            a.record(e);
            whole.record(e);
        }
        b.begin_query(1, 200);
        whole.begin_query(1, 200);
        let done = TraceEvent::QueryResolved {
            by: ResolutionKind::PeersApproximate,
            tuning: 5,
            latency: 7,
        };
        b.record(done);
        whole.record(done);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());

        // Recorder-level merge agrees with snapshot-level merge.
        let mut rec = a.clone();
        rec.merge(&b);
        assert_eq!(rec.snapshot(), whole.snapshot());

        // Merging an empty snapshot is the identity.
        let before = merged.clone();
        merged.merge(&MetricsRecorder::new().snapshot());
        assert_eq!(merged, before);
    }

    #[test]
    fn chaos_events_aggregate_and_render() {
        let chaos = [
            TraceEvent::HostCrashed { host: 3, epoch: 7 },
            TraceEvent::HostRestarted { host: 3, epoch: 9 },
            TraceEvent::OutageBlocked { tick: 4200 },
            TraceEvent::QueryQuality {
                quality: AnswerQuality::Stale,
            },
            TraceEvent::QueryQuality {
                quality: AnswerQuality::Failed,
            },
            TraceEvent::QueryQuality {
                quality: AnswerQuality::Exact,
            },
            TraceEvent::Resynced { host: 3 },
            TraceEvent::PeerQuarantined {
                peer: 5,
                until_epoch: 12,
            },
            TraceEvent::QuarantinedPeerSkipped { peer: 5 },
        ];
        let mut m = MetricsRecorder::new();
        m.begin_query(0, 0);
        for e in chaos {
            m.record(e);
        }
        // Grades, churn, resyncs and quarantine belong to the report:
        // only the blocked query is the snapshot's to count.
        let expected = MetricsSnapshot {
            queries_total: 1,
            outages_blocked_total: 1,
            ..MetricsSnapshot::default()
        };
        assert_eq!(m.snapshot(), expected);

        let mut t = JsonlTraceRecorder::new();
        t.begin_query(1, 0);
        for e in chaos {
            t.record(e);
        }
        let log = t.into_string();
        assert!(log.contains(
            "{\"query\":1,\"event\":\"peer_quarantined\",\"peer\":5,\"until_epoch\":12}"
        ));
        assert!(log.contains("{\"query\":1,\"event\":\"query_quality\",\"quality\":\"stale\"}"));
        assert!(log.contains("{\"query\":1,\"event\":\"host_crashed\",\"host\":3,\"epoch\":7}"));
    }

    #[test]
    fn service_events_aggregate_and_render() {
        let service = [
            TraceEvent::SessionRegistered { host: 2 },
            TraceEvent::SessionRegistered { host: 9 },
            TraceEvent::SessionClosed { host: 2 },
            TraceEvent::EpochCommitted {
                epoch: 12,
                batch: 7,
            },
            TraceEvent::ServiceDrained { pending: 3 },
        ];
        let mut m = MetricsRecorder::new();
        m.begin_query(0, 0);
        for e in service {
            m.record(e);
        }
        let s = m.snapshot();
        assert_eq!(s.sessions_registered_total, 2);
        assert_eq!(s.sessions_closed_total, 1);
        assert_eq!(s.epochs_committed_total, 1);
        assert_eq!(s.drains_total, 1);

        let mut t = JsonlTraceRecorder::new();
        t.begin_query(4, 0);
        for e in service {
            t.record(e);
        }
        let log = t.into_string();
        assert!(log.contains("{\"query\":4,\"event\":\"session_registered\",\"host\":9}"));
        assert!(
            log.contains("{\"query\":4,\"event\":\"epoch_committed\",\"epoch\":12,\"batch\":7}")
        );
        assert!(log.contains("{\"query\":4,\"event\":\"service_drained\",\"pending\":3}"));
    }

    #[test]
    fn noop_recorder_is_inert() {
        let mut n = NoopRecorder;
        n.begin_query(0, 0);
        for e in sample_events() {
            n.record(e);
        }
        assert_eq!(n, NoopRecorder);
    }
}
