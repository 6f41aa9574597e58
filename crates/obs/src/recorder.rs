//! The `Recorder` sink trait and the concrete recorders.

use crate::event::{ResolutionKind, TraceEvent, Value};
use crate::stats::{Histogram, PhaseTimes};
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

/// Aggregates trace events into counters and log-scaled histograms:
/// the metrics recorder, and the plain numbers it is read as.
///
/// It counts only what no report counts. Every fact a `SimReport` or
/// `ServiceReport` already owns — resolutions, answer grades, crashes,
/// restarts, resyncs, peer contacts, dropped replies, lost frames,
/// quarantine, admissions and rejections — is read there; its events
/// stay in the trace, where a test-side fold can check the two agree.
/// What remains is the channel and cache work behind the per-layer
/// ladder, the service's session and barrier events, and the tuning
/// and latency distributions. Tuning and latency are recorded per query
/// at its terminal [`TraceEvent::QueryResolved`] event (peer-resolved
/// queries contribute zeros — they never touched the channel;
/// unresolved outage answers contribute nothing).
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
    /// Tuning time across resolved queries (ticks); read it through
    /// [`Histogram::percentiles`]. Histogram bounds are fixed, so
    /// snapshots merge exactly.
    pub tuning: Histogram,
    /// Access latency across resolved queries (ticks).
    pub latency: Histogram,
    /// Wall-clock breakdown of the epoch loop, filled in by the driving
    /// runtime (not by trace events). Compares equal regardless of
    /// values — timing is measurement, not simulation output — so
    /// determinism checks over snapshots stay valid.
    pub phases: PhaseTimes,
}

impl MetricsSnapshot {
    /// Folds another snapshot in: counters add and histograms merge.
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
        self.tuning.merge(&other.tuning);
        self.latency.merge(&other.latency);
        self.phases.merge(other.phases);
    }
}

/// Integer adds only — no formatting, no allocation: the serve workers
/// record on their hot path. Events whose fact a report owns are
/// observed and not counted.
impl Recorder for MetricsSnapshot {
    fn begin_query(&mut self, _id: u64, _tick: u64) {
        self.queries_total += 1;
    }

    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::ProbeStarted { .. } => self.probes_total += 1,
            TraceEvent::IndexBucketTuned { count } => self.index_buckets_total += count as u64,
            TraceEvent::DataBucketTuned { .. } => self.data_buckets_total += 1,
            TraceEvent::CacheHit { .. } => self.cache_hits_total += 1,
            TraceEvent::CacheRejected { .. } => self.cache_rejected_total += 1,
            TraceEvent::QueryResolved {
                by: ResolutionKind::Unresolved,
                ..
            } => {}
            TraceEvent::QueryResolved {
                tuning, latency, ..
            } => {
                self.tuning.record(tuning);
                self.latency.record(latency);
            }
            TraceEvent::OutageBlocked { .. } => self.outages_blocked_total += 1,
            TraceEvent::SessionRegistered { .. } => self.sessions_registered_total += 1,
            TraceEvent::SessionClosed { .. } => self.sessions_closed_total += 1,
            TraceEvent::EpochCommitted { .. } => self.epochs_committed_total += 1,
            TraceEvent::ServiceDrained { .. } => self.drains_total += 1,
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
/// [`JsonlTraceRecorder::into_string`].
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
        let (name, payload) = event.describe();
        let _ = write!(self.buf, "{{\"query\":{},\"event\":\"{name}\"", self.query);
        for (key, value) in payload.into_iter().flatten() {
            let _ = match value {
                Value::Int(v) => write!(self.buf, ",\"{key}\":{v}"),
                Value::Str(s) => write!(self.buf, ",\"{key}\":\"{s}\""),
            };
        }
        self.buf.push_str("}\n");
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
        let mut m = MetricsSnapshot::default();
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
        assert_eq!(m.queries_total, 3);
        assert_eq!(m.probes_total, 1);
        assert_eq!(m.index_buckets_total, 3);
        assert_eq!(m.data_buckets_total, 1);
        assert_eq!(m.cache_hits_total, 1);
        assert_eq!(m.cache_rejected_total, 1);
        assert_eq!(m.tuning.count(), 2);
        assert_eq!(m.latency.count(), 2);
        assert_eq!(m.latency.max(), 88);
    }

    #[test]
    fn jsonl_lines_are_exact_and_repeatable() {
        // One event of every variant, then every other value of the
        // three string-valued fields.
        let mut events = vec![
            TraceEvent::ProbeStarted { tick: 120 },
            TraceEvent::IndexBucketTuned { count: 3 },
            TraceEvent::DataBucketTuned {
                bucket: 17,
                tick: 140,
            },
            TraceEvent::FrameLost {
                bucket: 17,
                retry: 1,
            },
            TraceEvent::PeerContacted { peer: 5 },
            TraceEvent::PeerReplyDropped { peer: 6 },
            TraceEvent::CacheHit { regions: 2 },
            TraceEvent::CacheRejected {
                reason: CacheRejectReason::Inconsistent,
            },
            TraceEvent::QueryResolved {
                by: ResolutionKind::PeersVerified,
                tuning: 12,
                latency: 88,
            },
            TraceEvent::QueryQuality {
                quality: AnswerQuality::Exact,
            },
            TraceEvent::HostCrashed { host: 3, epoch: 7 },
            TraceEvent::HostRestarted { host: 3, epoch: 9 },
            TraceEvent::OutageBlocked { tick: 4200 },
            TraceEvent::Resynced { host: 4 },
            TraceEvent::PeerQuarantined {
                peer: 8,
                until_epoch: 12,
            },
            TraceEvent::QuarantinedPeerSkipped { peer: 9 },
            TraceEvent::SessionRegistered { host: 10 },
            TraceEvent::SessionClosed { host: 11 },
            TraceEvent::EpochCommitted {
                epoch: 13,
                batch: 14,
            },
            TraceEvent::ServiceDrained { pending: 15 },
            TraceEvent::CacheRejected {
                reason: CacheRejectReason::NoCapacity,
            },
        ];
        for by in [
            ResolutionKind::PeersApproximate,
            ResolutionKind::Broadcast,
            ResolutionKind::Unresolved,
        ] {
            events.push(TraceEvent::QueryResolved {
                by,
                tuning: 0,
                latency: u64::MAX,
            });
        }
        for quality in [
            AnswerQuality::Degraded,
            AnswerQuality::Stale,
            AnswerQuality::Failed,
        ] {
            events.push(TraceEvent::QueryQuality { quality });
        }
        let render = || {
            let mut t = JsonlTraceRecorder::new();
            t.begin_query(7, 120);
            for &e in &events {
                t.record(e);
            }
            t.into_string()
        };
        let expected = [
            r#"{"query":7,"event":"begin_query","tick":120}"#,
            r#"{"query":7,"event":"probe_started","tick":120}"#,
            r#"{"query":7,"event":"index_bucket_tuned","count":3}"#,
            r#"{"query":7,"event":"data_bucket_tuned","bucket":17,"tick":140}"#,
            r#"{"query":7,"event":"frame_lost","bucket":17,"retry":1}"#,
            r#"{"query":7,"event":"peer_contacted","peer":5}"#,
            r#"{"query":7,"event":"peer_reply_dropped","peer":6}"#,
            r#"{"query":7,"event":"cache_hit","regions":2}"#,
            r#"{"query":7,"event":"cache_rejected","reason":"inconsistent"}"#,
            r#"{"query":7,"event":"query_resolved","by":"peers_verified","tuning":12,"latency":88}"#,
            r#"{"query":7,"event":"query_quality","quality":"exact"}"#,
            r#"{"query":7,"event":"host_crashed","host":3,"epoch":7}"#,
            r#"{"query":7,"event":"host_restarted","host":3,"epoch":9}"#,
            r#"{"query":7,"event":"outage_blocked","tick":4200}"#,
            r#"{"query":7,"event":"resynced","host":4}"#,
            r#"{"query":7,"event":"peer_quarantined","peer":8,"until_epoch":12}"#,
            r#"{"query":7,"event":"quarantined_peer_skipped","peer":9}"#,
            r#"{"query":7,"event":"session_registered","host":10}"#,
            r#"{"query":7,"event":"session_closed","host":11}"#,
            r#"{"query":7,"event":"epoch_committed","epoch":13,"batch":14}"#,
            r#"{"query":7,"event":"service_drained","pending":15}"#,
            r#"{"query":7,"event":"cache_rejected","reason":"no_capacity"}"#,
            r#"{"query":7,"event":"query_resolved","by":"peers_approximate","tuning":0,"latency":18446744073709551615}"#,
            r#"{"query":7,"event":"query_resolved","by":"broadcast","tuning":0,"latency":18446744073709551615}"#,
            r#"{"query":7,"event":"query_resolved","by":"unresolved","tuning":0,"latency":18446744073709551615}"#,
            r#"{"query":7,"event":"query_quality","quality":"degraded"}"#,
            r#"{"query":7,"event":"query_quality","quality":"stale"}"#,
            r#"{"query":7,"event":"query_quality","quality":"failed"}"#,
        ];
        let a = render();
        assert_eq!(a, render());
        assert_eq!(a, expected.map(|l| format!("{l}\n")).concat());
    }

    #[test]
    fn snapshot_merge_matches_single_recorder() {
        // Two shard recorders vs one recorder observing everything.
        let mut a = MetricsSnapshot::default();
        let mut b = MetricsSnapshot::default();
        let mut whole = MetricsSnapshot::default();
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

        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged, whole);

        // Merging an empty snapshot is the identity.
        let before = merged.clone();
        merged.merge(&MetricsSnapshot::default());
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
        let mut m = MetricsSnapshot::default();
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
        assert_eq!(m, expected);

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
        let mut m = MetricsSnapshot::default();
        m.begin_query(0, 0);
        for e in service {
            m.record(e);
        }
        assert_eq!(m.sessions_registered_total, 2);
        assert_eq!(m.sessions_closed_total, 1);
        assert_eq!(m.epochs_committed_total, 1);
        assert_eq!(m.drains_total, 1);

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
