//! Simulation output: the series the paper's figures plot.
//!
//! The metric primitives and per-operation stats live in `airshare-obs`
//! (the unified stats surface); this module aggregates them into the
//! run-level [`SimReport`]. Latency-like quantities are tracked by the
//! histogram-backed [`LatencySummary`], so every report exposes
//! p50/p90/p95/p99 alongside the paper's means.

use airshare_obs::{AccessStats, AnswerQuality, FaultStats, MetricsSnapshot, ShareStats};

pub use airshare_obs::LatencySummary;

/// Per-quality answer counters (the chaos taxonomy): how many measured
/// queries resolved at each [`AnswerQuality`] tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QualityStats {
    /// Complete and correct under validation.
    pub exact: u64,
    /// Broadcast retrieval lost buckets past the retry budget.
    pub degraded: u64,
    /// Served from cached/peer knowledge during an outage, with a
    /// staleness bound.
    pub stale: u64,
    /// Channel silent and no cached/peer knowledge covered the query.
    pub failed: u64,
}

impl QualityStats {
    /// The counter for one quality tier.
    pub fn count(&self, q: AnswerQuality) -> u64 {
        match q {
            AnswerQuality::Exact => self.exact,
            AnswerQuality::Degraded => self.degraded,
            AnswerQuality::Stale => self.stale,
            AnswerQuality::Failed => self.failed,
        }
    }

    /// Sum across all tiers (equals `QueryStats::total` on a coherent
    /// report).
    pub fn total(&self) -> u64 {
        self.exact + self.degraded + self.stale + self.failed
    }

    pub(crate) fn bump(&mut self, q: AnswerQuality) {
        match q {
            AnswerQuality::Exact => self.exact += 1,
            AnswerQuality::Degraded => self.degraded += 1,
            AnswerQuality::Stale => self.stale += 1,
            AnswerQuality::Failed => self.failed += 1,
        }
    }
}

/// Query-resolution counters — one per workload type.
///
/// The three `by_*` series are the paper's (Figs. 10–13) and count only
/// resolved queries. An outage answer (`ResolutionKind::Unresolved`,
/// graded `Stale` or `Failed`) is in none of them, so
/// `by_peers + by_approx + by_broadcast + quality.stale + quality.failed
/// == total`. These are the run's only resolution counts:
/// `MetricsSnapshot` keeps none.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Total measured queries.
    pub total: u64,
    /// Solved entirely from peers with verification (SBNN/SBWQ).
    pub by_peers: u64,
    /// Solved from peers approximately (kNN only).
    pub by_approx: u64,
    /// Solved by listening to the broadcast channel (each one also
    /// recorded in `broadcast_latency`).
    pub by_broadcast: u64,
}

impl QueryStats {
    /// Percentage helpers (0–100, as the paper's y-axes).
    pub fn pct_peers(&self) -> f64 {
        percent(self.by_peers, self.total)
    }
    /// Percentage solved approximately.
    pub fn pct_approx(&self) -> f64 {
        percent(self.by_approx, self.total)
    }
    /// Percentage needing the broadcast channel.
    pub fn pct_broadcast(&self) -> f64 {
        percent(self.by_broadcast, self.total)
    }
}

fn percent(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}

/// Everything one simulation run produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Resolution counters for the measured window.
    pub queries: QueryStats,
    /// Access latency of broadcast-solved queries (ticks), with
    /// percentiles.
    pub broadcast_latency: LatencySummary,
    /// Tuning time of broadcast-solved queries (ticks), with percentiles.
    pub broadcast_tuning: LatencySummary,
    /// Buckets downloaded per broadcast-solved query.
    pub broadcast_buckets: LatencySummary,
    /// Latency of the pure on-air baseline for the *same* queries (what
    /// the host would have paid without sharing) — gives the latency
    /// reduction headline.
    pub baseline_latency: LatencySummary,
    /// Baseline tuning time.
    pub baseline_tuning: LatencySummary,
    /// Buckets the §3.3.3 bounds saved versus a cold on-air query, summed
    /// over broadcast-resolved kNN queries (non-negative by construction:
    /// the filtered bucket set is a subset of the cold one).
    pub filter_saved_buckets: u64,
    /// Aggregate P2P traffic.
    pub share_peers_contacted: u64,
    /// Peers that replied with data, total.
    pub share_peers_with_data: u64,
    /// POIs transferred peer-to-peer, total.
    pub share_pois: u64,
    /// Ground-truth mismatches among exact answers (must stay 0; only
    /// counted when `validate` is set).
    pub exact_mismatches: u64,
    /// For approximate answers under `validate`: (predicted correctness
    /// of the least-certain unverified entry, whole answer was correct).
    pub calibration: Vec<(f64, bool)>,
    /// Mean coverage fraction of window queries that went to broadcast.
    pub partial_coverage_sum: f64,
    /// Count behind `partial_coverage_sum`.
    pub partial_coverage_count: u64,
    /// Grouped fault counters (channel retries, lost buckets, degraded
    /// queries, dropped replies, rejected regions).
    pub faults: FaultStats,
    /// Per-quality answer counters for the measured window.
    pub quality: QualityStats,
    /// Summed staleness bound (minutes since last channel sync) over
    /// `Stale` answers.
    pub stale_age_min_sum: f64,
    /// Largest staleness bound among `Stale` answers (minutes).
    pub stale_age_min_max: f64,
    /// Chaos-oracle violations: non-`Exact` answers that broke their
    /// declared bound (kNN distances dominating truth / window subset).
    /// Counted only under `validate`; must stay 0.
    pub bound_violations: u64,
    /// Hosts that resynchronized to the air index after answering
    /// through an outage or restart.
    pub outage_resyncs: u64,
    /// Host crash transitions applied over the run (warm-up included —
    /// churn shapes the steady state the measurement sees).
    pub hosts_crashed: u64,
    /// Host restart/late-join transitions applied over the run.
    pub hosts_restarted: u64,
    /// Aggregated trace metrics, populated by
    /// [`crate::Simulation::run_parallel_metrics`] at every pool size.
    /// `None` on every other run, keeping them comparable with
    /// pre-observability reports.
    pub metrics: Option<MetricsSnapshot>,
}

impl SimReport {
    /// Accumulates one broadcast access.
    pub(crate) fn record_air(&mut self, stats: AccessStats) {
        self.broadcast_latency.record(stats.latency);
        self.broadcast_tuning.record(stats.tuning);
        self.broadcast_buckets.record(stats.buckets);
        self.faults.retries_total += stats.retries;
        self.faults.buckets_lost_total += stats.lost_buckets;
    }

    /// Accumulates one share exchange.
    pub(crate) fn record_share(&mut self, s: &ShareStats) {
        self.share_peers_contacted += s.peers_contacted as u64;
        self.share_peers_with_data += s.peers_with_data as u64;
        self.share_pois += s.pois_received as u64;
        self.faults.replies_dropped += s.replies_dropped as u64;
        self.faults.regions_rejected += s.regions_rejected as u64;
        self.faults.peers_quarantined += s.peers_quarantined as u64;
        self.faults.quarantine_strikes += s.peers_struck as u64;
    }

    /// Accumulates one measured answer's quality grade; `stale_age_min`
    /// is the staleness bound for `Stale` answers (ignored otherwise).
    pub(crate) fn record_quality(&mut self, q: AnswerQuality, stale_age_min: f64) {
        self.quality.bump(q);
        if q == AnswerQuality::Stale {
            self.stale_age_min_sum += stale_age_min;
            self.stale_age_min_max = self.stale_age_min_max.max(stale_age_min);
        }
    }

    /// Mean staleness bound (minutes) over `Stale` answers.
    pub fn mean_stale_age_min(&self) -> f64 {
        if self.quality.stale == 0 {
            0.0
        } else {
            self.stale_age_min_sum / self.quality.stale as f64
        }
    }

    /// Mean peers contacted per query.
    pub fn mean_peers_contacted(&self) -> f64 {
        if self.queries.total == 0 {
            0.0
        } else {
            self.share_peers_contacted as f64 / self.queries.total as f64
        }
    }

    /// Mean MVR coverage of windows that needed the channel.
    pub fn mean_partial_coverage(&self) -> f64 {
        if self.partial_coverage_count == 0 {
            0.0
        } else {
            self.partial_coverage_sum / self.partial_coverage_count as f64
        }
    }

    /// Mean access latency over *all* queries, counting peer-resolved
    /// queries as zero ticks (their latency is a couple of 802.11 RTTs —
    /// microscopic against bucket airtimes).
    pub fn overall_mean_latency(&self) -> f64 {
        if self.queries.total == 0 {
            0.0
        } else {
            self.broadcast_latency.sum as f64 / self.queries.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_statistics() {
        let mut s = LatencySummary::default();
        assert_eq!(s.mean(), 0.0);
        s.record(10);
        s.record(30);
        assert_eq!(s.count, 2);
        assert_eq!(s.mean(), 20.0);
        assert_eq!(s.max, 30);
        let p = s.percentiles();
        assert!(p.p50 >= 8 && p.p50 <= 10, "p50 = {}", p.p50);
        assert!(p.p99 >= 24 && p.p99 <= 30, "p99 = {}", p.p99);
    }

    #[test]
    fn query_stats_percentages() {
        let q = QueryStats {
            total: 200,
            by_peers: 100,
            by_approx: 50,
            by_broadcast: 50,
        };
        assert_eq!(q.pct_peers(), 50.0);
        assert_eq!(q.pct_approx(), 25.0);
        assert_eq!(q.pct_broadcast(), 25.0);
        let empty = QueryStats::default();
        assert_eq!(empty.pct_peers(), 0.0);
    }

    #[test]
    fn overall_latency_counts_peer_queries_as_zero() {
        let mut r = SimReport::default();
        r.queries.total = 4;
        r.queries.by_broadcast = 1;
        r.record_air(AccessStats {
            latency: 100,
            tuning: 10,
            buckets: 5,
            ..Default::default()
        });
        assert_eq!(r.overall_mean_latency(), 25.0);
        assert_eq!(r.broadcast_latency.mean(), 100.0);
    }

    #[test]
    fn fault_counters_group_under_faults() {
        let mut r = SimReport::default();
        r.record_air(AccessStats {
            retries: 3,
            lost_buckets: 1,
            ..Default::default()
        });
        r.record_share(&ShareStats {
            replies_dropped: 2,
            regions_rejected: 4,
            ..Default::default()
        });
        assert_eq!(r.faults.retries_total, 3);
        assert_eq!(r.faults.buckets_lost_total, 1);
        assert_eq!(r.faults.replies_dropped, 2);
        assert_eq!(r.faults.regions_rejected, 4);
    }

    #[test]
    fn quality_counters_accumulate_and_sum() {
        let mut r = SimReport::default();
        r.record_quality(AnswerQuality::Exact, 0.0);
        r.record_quality(AnswerQuality::Exact, 0.0);
        r.record_quality(AnswerQuality::Degraded, 0.0);
        r.record_quality(AnswerQuality::Stale, 3.0);
        r.record_quality(AnswerQuality::Stale, 7.0);
        r.record_quality(AnswerQuality::Failed, 0.0);
        assert_eq!(r.quality.exact, 2);
        assert_eq!(r.quality.count(AnswerQuality::Stale), 2);
        assert_eq!(r.quality.total(), 6);
        assert_eq!(r.mean_stale_age_min(), 5.0);
        assert_eq!(r.stale_age_min_max, 7.0);
        assert_eq!(r.bound_violations, 0);
    }
}
