//! The `Recorder` sink trait and the concrete recorders.

use crate::event::{AnswerQuality, ResolutionKind, TraceEvent};
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
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Queries observed (one per `begin_query`).
    pub queries_total: u64,
    /// Queries resolved from verified peer data.
    pub resolved_peers_verified: u64,
    /// Queries resolved from peer data approximately.
    pub resolved_peers_approximate: u64,
    /// Queries resolved on the broadcast channel.
    pub resolved_broadcast: u64,
    /// Channel probes started.
    pub probes_total: u64,
    /// Index buckets tuned.
    pub index_buckets_total: u64,
    /// Data buckets downloaded.
    pub data_buckets_total: u64,
    /// Corrupt bucket appearances (includes the final appearance of an
    /// abandoned bucket).
    pub frames_lost_total: u64,
    /// Peers contacted across all share exchanges.
    pub peers_contacted_total: u64,
    /// Peer replies lost in transit.
    pub peer_replies_dropped: u64,
    /// Cache contributions (hits) observed.
    pub cache_hits_total: u64,
    /// Cache admissions refused.
    pub cache_rejected_total: u64,
    /// Measured answers graded `Exact`.
    pub answers_exact: u64,
    /// Measured answers graded `Degraded` (lost buckets).
    pub answers_degraded: u64,
    /// Measured answers graded `Stale` (served through an outage).
    pub answers_stale: u64,
    /// Measured answers graded `Failed` (outage, no knowledge).
    pub answers_failed: u64,
    /// Host crashes applied at epoch boundaries.
    pub hosts_crashed_total: u64,
    /// Host restarts / late-join admissions at epoch boundaries.
    pub hosts_restarted_total: u64,
    /// Queries issued while the base station was silent.
    pub outages_blocked_total: u64,
    /// Hosts resynchronized to the index after an outage.
    pub resyncs_total: u64,
    /// Quarantine strikes booked against peers.
    pub quarantine_strikes_total: u64,
    /// Peer contacts avoided due to active quarantine.
    pub quarantine_skips_total: u64,
    /// Sessions opened with the serving base station.
    pub sessions_registered_total: u64,
    /// Sessions closed (client disconnects).
    pub sessions_closed_total: u64,
    /// Queries that passed admission into an epoch batch.
    pub queries_admitted_total: u64,
    /// Queries bounced off the full admission queue (backpressure).
    pub queries_rejected_total: u64,
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
        self.resolved_peers_verified += other.resolved_peers_verified;
        self.resolved_peers_approximate += other.resolved_peers_approximate;
        self.resolved_broadcast += other.resolved_broadcast;
        self.probes_total += other.probes_total;
        self.index_buckets_total += other.index_buckets_total;
        self.data_buckets_total += other.data_buckets_total;
        self.frames_lost_total += other.frames_lost_total;
        self.peers_contacted_total += other.peers_contacted_total;
        self.peer_replies_dropped += other.peer_replies_dropped;
        self.cache_hits_total += other.cache_hits_total;
        self.cache_rejected_total += other.cache_rejected_total;
        self.answers_exact += other.answers_exact;
        self.answers_degraded += other.answers_degraded;
        self.answers_stale += other.answers_stale;
        self.answers_failed += other.answers_failed;
        self.hosts_crashed_total += other.hosts_crashed_total;
        self.hosts_restarted_total += other.hosts_restarted_total;
        self.outages_blocked_total += other.outages_blocked_total;
        self.resyncs_total += other.resyncs_total;
        self.quarantine_strikes_total += other.quarantine_strikes_total;
        self.quarantine_skips_total += other.quarantine_skips_total;
        self.sessions_registered_total += other.sessions_registered_total;
        self.sessions_closed_total += other.sessions_closed_total;
        self.queries_admitted_total += other.queries_admitted_total;
        self.queries_rejected_total += other.queries_rejected_total;
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
/// contribute zeros — they never touched the channel).
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
            TraceEvent::FrameLost { .. } => m.frames_lost_total += 1,
            TraceEvent::PeerContacted { .. } => m.peers_contacted_total += 1,
            TraceEvent::PeerReplyDropped { .. } => m.peer_replies_dropped += 1,
            TraceEvent::CacheHit { .. } => m.cache_hits_total += 1,
            TraceEvent::CacheRejected { .. } => m.cache_rejected_total += 1,
            TraceEvent::QueryResolved {
                by,
                tuning,
                latency,
            } => {
                match by {
                    ResolutionKind::PeersVerified => m.resolved_peers_verified += 1,
                    ResolutionKind::PeersApproximate => m.resolved_peers_approximate += 1,
                    ResolutionKind::Broadcast => m.resolved_broadcast += 1,
                }
                m.tuning_hist.record(tuning);
                m.latency_hist.record(latency);
            }
            TraceEvent::QueryQuality { quality } => match quality {
                AnswerQuality::Exact => m.answers_exact += 1,
                AnswerQuality::Degraded => m.answers_degraded += 1,
                AnswerQuality::Stale => m.answers_stale += 1,
                AnswerQuality::Failed => m.answers_failed += 1,
            },
            TraceEvent::HostCrashed { .. } => m.hosts_crashed_total += 1,
            TraceEvent::HostRestarted { .. } => m.hosts_restarted_total += 1,
            TraceEvent::OutageBlocked { .. } => m.outages_blocked_total += 1,
            TraceEvent::Resynced { .. } => m.resyncs_total += 1,
            TraceEvent::PeerQuarantined { .. } => m.quarantine_strikes_total += 1,
            TraceEvent::QuarantinedPeerSkipped { .. } => m.quarantine_skips_total += 1,
            TraceEvent::SessionRegistered { .. } => m.sessions_registered_total += 1,
            TraceEvent::SessionClosed { .. } => m.sessions_closed_total += 1,
            TraceEvent::QueryAdmitted { .. } => m.queries_admitted_total += 1,
            TraceEvent::QueryRejected { .. } => m.queries_rejected_total += 1,
            TraceEvent::EpochCommitted { .. } => m.epochs_committed_total += 1,
            TraceEvent::ServiceDrained { .. } => m.drains_total += 1,
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
            TraceEvent::QueryAdmitted { depth } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"depth\":{depth}}}"
            ),
            TraceEvent::QueryRejected { retry_after_ticks } => writeln!(
                self.buf,
                "{{\"query\":{q},\"event\":\"{name}\",\"retry_after_ticks\":{retry_after_ticks}}}"
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
    use crate::event::CacheRejectReason;

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
        let s = m.snapshot();
        assert_eq!(s.queries_total, 2);
        assert_eq!(s.resolved_broadcast, 1);
        assert_eq!(s.resolved_peers_verified, 1);
        assert_eq!(s.probes_total, 1);
        assert_eq!(s.index_buckets_total, 3);
        assert_eq!(s.data_buckets_total, 1);
        assert_eq!(s.frames_lost_total, 1);
        assert_eq!(s.peers_contacted_total, 1);
        assert_eq!(s.peer_replies_dropped, 1);
        assert_eq!(s.cache_hits_total, 1);
        assert_eq!(s.cache_rejected_total, 1);
        assert_eq!(s.tuning.count, 2);
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
        let s = m.snapshot();
        assert_eq!(s.hosts_crashed_total, 1);
        assert_eq!(s.hosts_restarted_total, 1);
        assert_eq!(s.outages_blocked_total, 1);
        assert_eq!(s.answers_exact, 1);
        assert_eq!(s.answers_stale, 1);
        assert_eq!(s.answers_failed, 1);
        assert_eq!(s.answers_degraded, 0);
        assert_eq!(s.resyncs_total, 1);
        assert_eq!(s.quarantine_strikes_total, 1);
        assert_eq!(s.quarantine_skips_total, 1);

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
            TraceEvent::QueryAdmitted { depth: 4 },
            TraceEvent::QueryRejected {
                retry_after_ticks: 350,
            },
            TraceEvent::EpochCommitted { epoch: 12, batch: 7 },
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
        assert_eq!(s.queries_admitted_total, 1);
        assert_eq!(s.queries_rejected_total, 1);
        assert_eq!(s.epochs_committed_total, 1);
        assert_eq!(s.drains_total, 1);

        let mut t = JsonlTraceRecorder::new();
        t.begin_query(4, 0);
        for e in service {
            t.record(e);
        }
        let log = t.into_string();
        assert!(log.contains("{\"query\":4,\"event\":\"session_registered\",\"host\":9}"));
        assert!(log
            .contains("{\"query\":4,\"event\":\"query_rejected\",\"retry_after_ticks\":350}"));
        assert!(log.contains("{\"query\":4,\"event\":\"epoch_committed\",\"epoch\":12,\"batch\":7}"));
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
