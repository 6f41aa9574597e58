//! A test-side fold of the trace into the facts `SimReport` owns.
//!
//! `MetricsSnapshot` counts only what no report counts (DESIGN.md §9).
//! [`TraceLedger`] counts the rest from the same events, so a test can
//! check, with equality, that the trace records every fact the report
//! keeps.

use airshare::obs::ResolutionKind;
use airshare::prelude::*;

/// What one query's events say, or the sum of several queries'.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct QueryFacts {
    /// `QueryResolved` per kind: peers verified, peers approximate,
    /// broadcast, unresolved.
    resolved: [u64; 4],
    /// `PeerContacted`.
    contacted: u64,
    /// `PeerReplyDropped`.
    dropped: u64,
    /// `ProbeStarted`: one per on-air access.
    probes: u64,
    /// `DataBucketTuned`: buckets that arrived intact.
    data_tuned: u64,
    /// `FrameLost`.
    frames_lost: u64,
    /// `PeerQuarantined`.
    struck: u64,
    /// `QuarantinedPeerSkipped`.
    skipped: u64,
}

impl QueryFacts {
    fn add(&mut self, o: &QueryFacts) {
        for (a, b) in self.resolved.iter_mut().zip(o.resolved) {
            *a += b;
        }
        self.contacted += o.contacted;
        self.dropped += o.dropped;
        self.probes += o.probes;
        self.data_tuned += o.data_tuned;
        self.frames_lost += o.frames_lost;
        self.struck += o.struck;
        self.skipped += o.skipped;
    }
}

/// Counts trace events the way `SimReport` counts facts.
///
/// Grades, crashes, restarts and resyncs are counted over every query,
/// as the report counts them. The per-query facts are counted over
/// measured queries only: a query is measured when it emits a
/// `QueryQuality` event, which warm-up queries never do.
#[derive(Default)]
pub struct TraceLedger {
    /// The open query's facts, folded in when the next query begins.
    open: QueryFacts,
    open_measured: bool,
    measured: QueryFacts,
    quality: QualityStats,
    crashed: u64,
    restarted: u64,
    resynced: u64,
}

impl TraceLedger {
    fn close(&mut self) {
        if std::mem::take(&mut self.open_measured) {
            self.measured.add(&self.open);
        }
        self.open = QueryFacts::default();
    }

    /// Asserts that the trace and `r` count every shared fact alike.
    pub fn assert_matches(mut self, r: &SimReport, what: &str) {
        self.close();
        assert_eq!(self.quality, r.quality, "{what}: answer grades");
        assert_eq!(
            (self.crashed, self.restarted, self.resynced),
            (r.hosts_crashed, r.hosts_restarted, r.outage_resyncs),
            "{what}: crashes, restarts, resyncs"
        );
        let q = &r.queries;
        let expected = QueryFacts {
            resolved: [
                q.by_peers,
                q.by_approx,
                q.by_broadcast,
                r.quality.stale + r.quality.failed,
            ],
            contacted: r.share_peers_contacted,
            dropped: r.faults.replies_dropped,
            // A broadcast-resolved query is one access, whatever it lost.
            probes: q.by_broadcast,
            data_tuned: r.broadcast_buckets.sum - r.faults.buckets_lost_total,
            frames_lost: r.faults.retries_total + r.faults.buckets_lost_total,
            struck: r.faults.quarantine_strikes,
            skipped: r.faults.peers_quarantined,
        };
        assert_eq!(self.measured, expected, "{what}: measured queries");
    }
}

impl Recorder for TraceLedger {
    fn begin_query(&mut self, _id: u64, _tick: u64) {
        self.close();
    }

    fn record(&mut self, event: TraceEvent) {
        let q = &mut self.open;
        match event {
            TraceEvent::QueryResolved { by, .. } => {
                let kind = match by {
                    ResolutionKind::PeersVerified => 0,
                    ResolutionKind::PeersApproximate => 1,
                    ResolutionKind::Broadcast => 2,
                    ResolutionKind::Unresolved => 3,
                };
                q.resolved[kind] += 1;
            }
            TraceEvent::PeerContacted { .. } => q.contacted += 1,
            TraceEvent::PeerReplyDropped { .. } => q.dropped += 1,
            TraceEvent::ProbeStarted { .. } => q.probes += 1,
            TraceEvent::DataBucketTuned { .. } => q.data_tuned += 1,
            TraceEvent::FrameLost { .. } => q.frames_lost += 1,
            TraceEvent::PeerQuarantined { .. } => q.struck += 1,
            TraceEvent::QuarantinedPeerSkipped { .. } => q.skipped += 1,
            TraceEvent::QueryQuality { quality } => {
                self.open_measured = true;
                match quality {
                    AnswerQuality::Exact => self.quality.exact += 1,
                    AnswerQuality::Degraded => self.quality.degraded += 1,
                    AnswerQuality::Stale => self.quality.stale += 1,
                    AnswerQuality::Failed => self.quality.failed += 1,
                }
            }
            TraceEvent::HostCrashed { .. } => self.crashed += 1,
            TraceEvent::HostRestarted { .. } => self.restarted += 1,
            TraceEvent::Resynced { .. } => self.resynced += 1,
            _ => {}
        }
    }
}
