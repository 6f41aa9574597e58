//! The unified statistics surface.
//!
//! Every cost figure the workspace reports lives here: the per-operation
//! accounting structs ([`AccessStats`], [`ShareStats`]), the grouped
//! fault counters ([`FaultStats`]), and the metric primitives
//! ([`Histogram`], [`LatencySummary`]) that aggregate them
//! across a run. Field naming is consistent throughout: `*_total` for
//! monotonic counts, `*_dropped` for losses in transit, `*_degraded`
//! for results that must not be treated as exact.

/// Broadcast-access cost of one operation, in ticks.
///
/// * `latency` — from tuning in to holding the last needed bucket
///   (*access latency*; what the user waits).
/// * `tuning` — ticks spent actively listening (*tuning time*; what the
///   battery pays): one probe tick, each index segment read, and each
///   data bucket downloaded (including corrupt downloads that had to be
///   re-fetched).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Access latency in ticks.
    pub latency: u64,
    /// Tuning time in ticks.
    pub tuning: u64,
    /// Number of data buckets downloaded.
    pub buckets: u64,
    /// Re-fetch attempts forced by corrupt bucket appearances.
    pub retries: u64,
    /// Buckets abandoned after the retry budget ran out. Non-zero means
    /// the operation's results are *degraded* — possibly incomplete —
    /// and callers must not treat them as exact.
    pub lost_buckets: u64,
}

impl AccessStats {
    /// Component-wise sum (for multi-step protocols).
    pub fn merge(self, other: AccessStats) -> AccessStats {
        AccessStats {
            latency: self.latency + other.latency,
            tuning: self.tuning + other.tuning,
            buckets: self.buckets + other.buckets,
            retries: self.retries + other.retries,
            lost_buckets: self.lost_buckets + other.lost_buckets,
        }
    }

    /// Whether any requested bucket could not be recovered.
    pub fn is_degraded(&self) -> bool {
        self.lost_buckets > 0
    }
}

/// Traffic accounting for one share exchange.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShareStats {
    /// Peers within range that were contacted.
    pub peers_contacted: usize,
    /// Peers that replied with at least one region.
    pub peers_with_data: usize,
    /// Total POIs transferred.
    pub pois_received: usize,
    /// Replies lost in transit (fault injection).
    pub replies_dropped: usize,
    /// Regions rejected by validation (malformed shape, disjoint from
    /// the world, or POIs outside the claimed region).
    pub regions_rejected: usize,
    /// Peers skipped because they were under active quarantine.
    pub peers_quarantined: usize,
    /// Peers struck (newly or re-quarantined) during this exchange for
    /// malformed or consistency-failing replies.
    pub peers_struck: usize,
}

/// Run-level fault accounting, grouped in one place.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Channel re-fetches forced by corrupt bucket appearances.
    pub retries_total: u64,
    /// Data buckets abandoned after the retry budget ran out.
    pub buckets_lost_total: u64,
    /// Queries whose broadcast access lost at least one bucket; their
    /// results were treated as possibly incomplete.
    pub queries_degraded: u64,
    /// Peer replies lost in transit.
    pub replies_dropped: u64,
    /// Shared regions rejected by validation.
    pub regions_rejected: u64,
    /// Peer contacts avoided because the peer was under quarantine.
    pub peers_quarantined: u64,
    /// Quarantine strikes booked against peers for malformed or
    /// consistency-failing replies.
    pub quarantine_strikes: u64,
}

/// Wall-clock time spent in each phase of the engine's epoch loop,
/// in nanoseconds, summed across epochs.
///
/// Phase attribution follows the loop's structure: `advance` is the
/// client fleet's share — churn application, per-host mobility stepping
/// and deriving each query's inputs from the mobility and window
/// streams; `grid` is the neighbor grid refresh (of the whole fleet,
/// or of the cells the epoch's queries can reach); `snapshot` is the
/// boundary's install of the caches written since the last one, which
/// makes them what peers read; and `query` is query sharding,
/// execution, and the barrier commit.
///
/// These are *measurements of* the run, not *outputs of* the
/// simulation: two bit-identical runs will record different wall
/// times. `PartialEq` therefore always returns `true`, so snapshots
/// that differ only in timing still compare equal — the determinism
/// suites compare whole [`crate::MetricsSnapshot`]s across thread
/// counts, and wall-clock jitter must not fail them.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Churn application, mobility advance and query-input derivation,
    /// in nanoseconds.
    pub advance_ns: u64,
    /// Neighbor-grid refresh, in nanoseconds.
    pub grid_ns: u64,
    /// Query sharding, execution, and barrier commit, in nanoseconds.
    pub query_ns: u64,
    /// Install of the parked writers' caches into the column peers
    /// read, in nanoseconds.
    pub snapshot_ns: u64,
}

impl PhaseTimes {
    /// Component-wise sum (for aggregating epochs or merging shards).
    pub fn merge(&mut self, other: PhaseTimes) {
        self.advance_ns += other.advance_ns;
        self.grid_ns += other.grid_ns;
        self.query_ns += other.query_ns;
        self.snapshot_ns += other.snapshot_ns;
    }

    /// Total time across all phases, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.advance_ns + self.grid_ns + self.query_ns + self.snapshot_ns
    }
}

impl PartialEq for PhaseTimes {
    /// Always `true`: wall-clock timing is not simulation output, and
    /// must never make two otherwise-identical snapshots unequal.
    fn eq(&self, _other: &PhaseTimes) -> bool {
        true
    }
}

impl Eq for PhaseTimes {}

/// Number of sub-buckets per power-of-two octave (4 ⇒ 2 sub-bucket
/// bits ⇒ at most 25 % relative error per recorded value).
const SUB_BUCKETS: usize = 4;
/// Total bucket count: values 0–3 exact, then 4 sub-buckets for each of
/// the remaining 62 octaves of the `u64` range.
const BUCKETS: usize = SUB_BUCKETS + 62 * SUB_BUCKETS;

/// A fixed-footprint histogram with log-scaled bucket bounds.
///
/// Values 0–3 are recorded exactly; above that each power-of-two octave
/// is split into 4 sub-buckets, bounding the relative
/// quantization error at 25 %. The bounds are *fixed* — independent of
/// the data — so two histograms are mergeable and two same-seed runs
/// produce identical bucket vectors. Covers the full `u64` range in
/// 252 buckets (2 KiB).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as usize; // >= 2
        let sub = ((v >> (exp - 2)) & 0b11) as usize;
        (exp - 1) * SUB_BUCKETS + sub
    }

    /// The lower bound of bucket `i` — the smallest value it can hold.
    fn bucket_lower_bound(i: usize) -> u64 {
        if i < SUB_BUCKETS {
            return i as u64;
        }
        let exp = i / SUB_BUCKETS + 1;
        let sub = (i % SUB_BUCKETS) as u64;
        (1u64 << exp) + sub * (1u64 << (exp - 2))
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]` — the lower bound of the
    /// bucket holding the `ceil(q·count)`-th smallest sample (≤ 25 %
    /// below the true value), clamped to the observed maximum. Returns
    /// 0 if the histogram is empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_lower_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Component-wise sum with another histogram (bounds are fixed, so
    /// merging is exact).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// The fixed percentile set.
    pub fn percentiles(&self) -> PercentileSummary {
        PercentileSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.value_at_quantile(0.50),
            p90: self.value_at_quantile(0.90),
            p95: self.value_at_quantile(0.95),
            p99: self.value_at_quantile(0.99),
            max: self.max,
        }
    }
}

/// The standard percentile set of one histogram, as plain numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PercentileSummary {
    /// Recorded samples.
    pub count: u64,
    /// Arithmetic mean (0.0 if empty).
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

/// Aggregates one scalar cost across many queries: exact count / sum /
/// max plus a log-scaled [`Histogram`] for percentile extraction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    hist: Histogram,
}

impl LatencySummary {
    /// An empty summary.
    pub fn new() -> LatencySummary {
        LatencySummary::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
        self.hist.record(v);
    }

    /// Arithmetic mean, or 0.0 when no samples were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The full percentile set (each percentile 0 when empty).
    pub fn percentiles(&self) -> PercentileSummary {
        self.hist.percentiles()
    }

    /// Folds another summary in; exact, like [`Histogram::merge`].
    pub fn merge(&mut self, other: &LatencySummary) {
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
        self.hist.merge(&other.hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_merge_equals_combined_recording() {
        let mut a = LatencySummary::new();
        let mut b = LatencySummary::new();
        let mut both = LatencySummary::new();
        for v in [3u64, 99, 1_024, 0] {
            a.record(v);
            both.record(v);
        }
        for v in [17u64, 4_095] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..64u64 {
            let i = Histogram::bucket_index(v);
            let lo = Histogram::bucket_lower_bound(i);
            assert!(lo <= v, "v={v} i={i} lo={lo}");
            if v < 4 {
                assert_eq!(lo, v);
            }
        }
    }

    #[test]
    fn bucket_bounds_are_monotone_and_consistent() {
        let mut prev = 0u64;
        for i in 0..BUCKETS {
            let lo = Histogram::bucket_lower_bound(i);
            assert!(i == 0 || lo > prev, "bucket {i}: {lo} <= {prev}");
            assert_eq!(Histogram::bucket_index(lo), i, "round-trip at bucket {i}");
            prev = lo;
        }
    }

    #[test]
    fn quantization_error_bounded() {
        for &v in &[5u64, 100, 1_000, 65_537, 1 << 40, u64::MAX / 3] {
            let lo = Histogram::bucket_lower_bound(Histogram::bucket_index(v));
            assert!(lo <= v);
            assert!((v - lo) as f64 <= 0.25 * v as f64, "v={v} lo={lo}");
        }
    }

    #[test]
    fn histogram_percentiles_on_uniform_range() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        // Lower-bound estimates: within 25 % below the true quantile.
        let p = h.percentiles();
        let p50 = p.p50;
        assert!(p50 <= 500 && p50 as f64 >= 500.0 * 0.75, "p50={p50}");
        let p99 = p.p99;
        assert!(p99 <= 990 && p99 as f64 >= 990.0 * 0.75, "p99={p99}");
        let p100 = h.value_at_quantile(1.0);
        assert!((750..=1000).contains(&p100), "p100={p100}");
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in 0..500u64 {
            a.record(v * 3);
            both.record(v * 3);
        }
        for v in 0..500u64 {
            b.record(v * 7 + 1);
            both.record(v * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn empty_summary_mean_is_zero() {
        // Regression guard: zero samples must yield 0.0, not NaN.
        let s = LatencySummary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentiles(), PercentileSummary::default());
        let h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_quantile(0.5), 0);
    }

    #[test]
    fn latency_summary_tracks_exact_moments() {
        let mut s = LatencySummary::new();
        for v in [10u64, 20, 30] {
            s.record(v);
        }
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 60);
        assert_eq!(s.max, 30);
        assert!((s.mean() - 20.0).abs() < 1e-12);
        let p50 = s.percentiles().p50;
        assert!((15..=20).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn access_stats_merge_and_degraded() {
        let a = AccessStats {
            latency: 5,
            tuning: 3,
            buckets: 2,
            retries: 1,
            lost_buckets: 0,
        };
        let b = AccessStats {
            lost_buckets: 1,
            ..AccessStats::default()
        };
        let m = a.merge(b);
        assert_eq!(m.latency, 5);
        assert_eq!(m.retries, 1);
        assert!(!a.is_degraded());
        assert!(m.is_degraded());
    }

    #[test]
    fn phase_times_merge_and_compare_equal() {
        let mut a = PhaseTimes {
            advance_ns: 10,
            grid_ns: 20,
            query_ns: 30,
            snapshot_ns: 40,
        };
        let b = PhaseTimes {
            advance_ns: 1,
            grid_ns: 2,
            query_ns: 3,
            snapshot_ns: 4,
        };
        a.merge(b);
        assert_eq!(a.advance_ns, 11);
        assert_eq!(a.snapshot_ns, 44);
        assert_eq!(a.total_ns(), 110);
        // Timing never breaks equality: determinism suites compare
        // snapshots across runs with different wall clocks.
        assert_eq!(a, PhaseTimes::default());
    }
}
