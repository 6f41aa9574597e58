//! The typed trace-event taxonomy.

/// How a query was ultimately resolved.
///
/// The first three mirror the algorithm layer's `ResolvedBy` (the three
/// series of the paper's Figures 10–12) but live here so the substrate
/// crates can speak about resolution without depending on the algorithm
/// crate. The fourth is the outage case, which no paper series counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResolutionKind {
    /// Answered entirely from peer data with verification (SBNN/SBWQ).
    PeersVerified,
    /// Answered from peers approximately (kNN only).
    PeersApproximate,
    /// Answered by listening to the broadcast channel.
    Broadcast,
    /// Not resolved: peers could not finish and the channel was silent
    /// (a base-station outage). The caller serves what peer and cache
    /// knowledge held, graded `Stale` or `Failed`.
    Unresolved,
}

impl ResolutionKind {
    /// Stable string form (used by the JSONL trace).
    pub fn as_str(self) -> &'static str {
        match self {
            ResolutionKind::PeersVerified => "peers_verified",
            ResolutionKind::PeersApproximate => "peers_approximate",
            ResolutionKind::Broadcast => "broadcast",
            ResolutionKind::Unresolved => "unresolved",
        }
    }
}

/// The quality of one answered query, from best to worst.
///
/// Under fleet-level chaos (base-station outages, host churn) an answer
/// can be worse than *missing a few buckets* — it can be served
/// entirely from possibly stale cached knowledge, or not at all. Every
/// non-`Exact` quality carries a declared bound the chaos oracle can
/// check: the answer set is a subset of the ground truth (window
/// queries) or its distances dominate the true nearest neighbors (kNN).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AnswerQuality {
    /// Resolved normally: verified peer data, an accepted approximate
    /// answer, or a clean broadcast retrieval.
    Exact,
    /// The broadcast retrieval lost buckets past the retry budget; the
    /// answer may be incomplete.
    Degraded,
    /// The channel was silent (base-station outage) and the answer was
    /// served best-effort from cached/peer knowledge, tagged with a
    /// staleness bound (minutes since the host last heard the channel).
    Stale,
    /// The channel was silent and no cached or peer knowledge covered
    /// the query at all.
    Failed,
}

impl AnswerQuality {
    /// Stable string form (used by the JSONL trace).
    pub fn as_str(self) -> &'static str {
        match self {
            AnswerQuality::Exact => "exact",
            AnswerQuality::Degraded => "degraded",
            AnswerQuality::Stale => "stale",
            AnswerQuality::Failed => "failed",
        }
    }
}

/// Why a cache refused an offered entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheRejectReason {
    /// The entry violated the containment invariant (malformed region or
    /// POIs outside the claimed rectangle).
    Inconsistent,
    /// The cache has zero capacity for the entry's category.
    NoCapacity,
}

impl CacheRejectReason {
    /// Stable string form (used by the JSONL trace).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheRejectReason::Inconsistent => "inconsistent",
            CacheRejectReason::NoCapacity => "no_capacity",
        }
    }
}

/// One observable step on a query's resolution path.
///
/// Events are emitted in real execution order within a query context
/// (opened by [`crate::Recorder::begin_query`]); all payloads are plain
/// integers so recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The client tuned in and started waiting for the next index
    /// segment (the access protocol's initial probe).
    ProbeStarted {
        /// Absolute channel tick of the probe.
        tick: u64,
    },
    /// The client read an index segment: `count` index buckets tuned.
    IndexBucketTuned {
        /// Index buckets in the segment (all are read in one pass).
        count: u32,
    },
    /// A data bucket was downloaded successfully.
    DataBucketTuned {
        /// The bucket's id in the broadcast file.
        bucket: u32,
        /// Absolute tick at which the download completed.
        tick: u64,
    },
    /// A bucket appearance was lost on the channel; the client re-tunes
    /// on the next cycle if budget remains.
    FrameLost {
        /// The bucket's id in the broadcast file.
        bucket: u32,
        /// How many appearances of this bucket were already lost in this
        /// retrieval (0 for the first loss).
        retry: u32,
    },
    /// A share request reached a peer within radio range.
    PeerContacted {
        /// The peer's host id.
        peer: u32,
    },
    /// A contacted peer's reply was lost in transit (fault layer).
    PeerReplyDropped {
        /// The peer's host id.
        peer: u32,
    },
    /// A cache (a peer's, or the querying host's own) contributed
    /// verified regions to the query's merged region.
    CacheHit {
        /// Regions contributed after validation.
        regions: u32,
    },
    /// A cache refused an offered entry.
    CacheRejected {
        /// Why the entry was refused.
        reason: CacheRejectReason,
    },
    /// The query resolved, or was left unresolved by an outage;
    /// terminal event of every query context.
    QueryResolved {
        /// Resolution path ([`ResolutionKind::Unresolved`] for an outage
        /// answer).
        by: ResolutionKind,
        /// Tuning time paid on the channel (ticks; 0 for peer and
        /// unresolved answers).
        tuning: u64,
        /// Access latency paid on the channel (ticks; 0 for peer and
        /// unresolved answers).
        latency: u64,
    },
    /// Quality grade of a measured query's answer (emitted by the
    /// simulation engine after resolution; absent during warm-up).
    QueryQuality {
        /// The answer's quality tier.
        quality: AnswerQuality,
    },
    /// A host crashed at an epoch boundary: it goes offline and its
    /// cache (and quarantine memory) is wiped.
    HostCrashed {
        /// The crashed host's id.
        host: u32,
        /// The epoch at whose boundary the crash took effect.
        epoch: u64,
    },
    /// A host came (back) online at an epoch boundary — a restart after
    /// a crash, or a late joiner admitted mid-run. It starts cold.
    HostRestarted {
        /// The restarted host's id.
        host: u32,
        /// The epoch at whose boundary the host came online.
        epoch: u64,
    },
    /// A query was issued while the base station was silent (outage
    /// window): no channel fallback is available.
    OutageBlocked {
        /// Absolute channel tick of the blocked query.
        tick: u64,
    },
    /// A host's first successful channel access after answering queries
    /// through an outage: it is now resynchronized to the air index.
    Resynced {
        /// The resynchronized host's id.
        host: u32,
    },
    /// A peer was struck for a malformed or consistency-failing reply
    /// and is quarantined until the given epoch (seeded exponential
    /// backoff with decay).
    PeerQuarantined {
        /// The offending peer's host id.
        peer: u32,
        /// First epoch at which the peer may be contacted again.
        until_epoch: u64,
    },
    /// A share request skipped a peer because it is currently
    /// quarantined.
    QuarantinedPeerSkipped {
        /// The skipped peer's host id.
        peer: u32,
    },
    /// A host opened a session with the serving base station (fresh
    /// join, or a cold reconnect after a crash).
    SessionRegistered {
        /// The registering host's id.
        host: u32,
    },
    /// A host closed its session (disconnect; volatile state wiped).
    SessionClosed {
        /// The departing host's id.
        host: u32,
    },
    /// The service committed one epoch barrier: sessions updated, grid
    /// rebuilt, and the epoch's admitted batch executed.
    EpochCommitted {
        /// The committed epoch number.
        epoch: u64,
        /// Queries executed in the batch.
        batch: u32,
    },
    /// The service drained: admission closed, every pending barrier
    /// flushed, all replies delivered.
    ServiceDrained {
        /// Queries still pending when the drain began.
        pending: u32,
    },
}

/// One payload value of a [`TraceEvent`]: an integer, or one of the
/// three enums' stable strings.
#[derive(Clone, Copy)]
pub(crate) enum Value {
    Int(u64),
    Str(&'static str),
}

fn int(key: &'static str, v: impl Into<u64>) -> Option<(&'static str, Value)> {
    Some((key, Value::Int(v.into())))
}

fn text(key: &'static str, s: &'static str) -> Option<(&'static str, Value)> {
    Some((key, Value::Str(s)))
}

impl TraceEvent {
    /// The event's stable name and its `(key, value)` payload in wire
    /// order, unused slots last and `None`: the one description of its
    /// wire form, which the JSONL trace writes field by field.
    pub(crate) fn describe(&self) -> (&'static str, [Option<(&'static str, Value)>; 3]) {
        match *self {
            Self::ProbeStarted { tick } => ("probe_started", [int("tick", tick), None, None]),
            Self::IndexBucketTuned { count } => {
                ("index_bucket_tuned", [int("count", count), None, None])
            }
            Self::DataBucketTuned { bucket, tick } => (
                "data_bucket_tuned",
                [int("bucket", bucket), int("tick", tick), None],
            ),
            Self::FrameLost { bucket, retry } => (
                "frame_lost",
                [int("bucket", bucket), int("retry", retry), None],
            ),
            Self::PeerContacted { peer } => ("peer_contacted", [int("peer", peer), None, None]),
            Self::PeerReplyDropped { peer } => {
                ("peer_reply_dropped", [int("peer", peer), None, None])
            }
            Self::CacheHit { regions } => ("cache_hit", [int("regions", regions), None, None]),
            Self::CacheRejected { reason } => (
                "cache_rejected",
                [text("reason", reason.as_str()), None, None],
            ),
            Self::QueryResolved {
                by,
                tuning,
                latency,
            } => (
                "query_resolved",
                [
                    text("by", by.as_str()),
                    int("tuning", tuning),
                    int("latency", latency),
                ],
            ),
            Self::QueryQuality { quality } => (
                "query_quality",
                [text("quality", quality.as_str()), None, None],
            ),
            Self::HostCrashed { host, epoch } => (
                "host_crashed",
                [int("host", host), int("epoch", epoch), None],
            ),
            Self::HostRestarted { host, epoch } => (
                "host_restarted",
                [int("host", host), int("epoch", epoch), None],
            ),
            Self::OutageBlocked { tick } => ("outage_blocked", [int("tick", tick), None, None]),
            Self::Resynced { host } => ("resynced", [int("host", host), None, None]),
            Self::PeerQuarantined { peer, until_epoch } => (
                "peer_quarantined",
                [int("peer", peer), int("until_epoch", until_epoch), None],
            ),
            Self::QuarantinedPeerSkipped { peer } => {
                ("quarantined_peer_skipped", [int("peer", peer), None, None])
            }
            Self::SessionRegistered { host } => {
                ("session_registered", [int("host", host), None, None])
            }
            Self::SessionClosed { host } => ("session_closed", [int("host", host), None, None]),
            Self::EpochCommitted { epoch, batch } => (
                "epoch_committed",
                [int("epoch", epoch), int("batch", batch), None],
            ),
            Self::ServiceDrained { pending } => {
                ("service_drained", [int("pending", pending), None, None])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let events = [
            TraceEvent::ProbeStarted { tick: 0 },
            TraceEvent::IndexBucketTuned { count: 1 },
            TraceEvent::DataBucketTuned { bucket: 0, tick: 0 },
            TraceEvent::FrameLost {
                bucket: 0,
                retry: 0,
            },
            TraceEvent::PeerContacted { peer: 0 },
            TraceEvent::PeerReplyDropped { peer: 0 },
            TraceEvent::CacheHit { regions: 1 },
            TraceEvent::CacheRejected {
                reason: CacheRejectReason::Inconsistent,
            },
            TraceEvent::QueryResolved {
                by: ResolutionKind::Broadcast,
                tuning: 0,
                latency: 0,
            },
            TraceEvent::QueryQuality {
                quality: AnswerQuality::Stale,
            },
            TraceEvent::HostCrashed { host: 0, epoch: 1 },
            TraceEvent::HostRestarted { host: 0, epoch: 2 },
            TraceEvent::OutageBlocked { tick: 0 },
            TraceEvent::Resynced { host: 0 },
            TraceEvent::PeerQuarantined {
                peer: 0,
                until_epoch: 3,
            },
            TraceEvent::QuarantinedPeerSkipped { peer: 0 },
            TraceEvent::SessionRegistered { host: 0 },
            TraceEvent::SessionClosed { host: 0 },
            TraceEvent::EpochCommitted { epoch: 0, batch: 0 },
            TraceEvent::ServiceDrained { pending: 0 },
        ];
        let mut names: Vec<&str> = events.iter().map(|e| e.describe().0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), events.len());
    }

    #[test]
    fn answer_quality_strings_are_stable_and_distinct() {
        let all = [
            AnswerQuality::Exact,
            AnswerQuality::Degraded,
            AnswerQuality::Stale,
            AnswerQuality::Failed,
        ];
        let mut names: Vec<&str> = all.iter().map(|q| q.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
