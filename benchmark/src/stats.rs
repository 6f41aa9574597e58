//! Summaries of samples: medians, the quartile spread the regression
//! bounds are judged against, and the percentile rule for timings.

/// Median of unsorted samples (mean of the middle pair when even).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the benchmark's acceptance is stated in, so `noise` and
/// `compare` must agree with it to the digit.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need two samples");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Run-to-run spread: interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples).abs()
}

/// Nearest-rank percentile of **sorted** samples, `p` in (0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, ascending.
const TAILS: [f64; 5] = [90.0, 95.0, 99.0, 99.9, 99.99];

/// A timing as the benchmark reports it: the median, the sample count,
/// and the highest percentile that still has at least ten samples
/// beyond it (none when even p90 would rest on fewer).
#[derive(Clone, Debug, PartialEq)]
pub struct Timing {
    pub n: usize,
    pub p50: f64,
    pub max: f64,
    /// `(percentile, value)`.
    pub tail: Option<(f64, f64)>,
}

/// The highest reportable percentile for `n` samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

impl Timing {
    pub fn of(samples: &[f64]) -> Timing {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Timing {
            n: v.len(),
            p50: if v.is_empty() {
                0.0
            } else {
                percentile(&v, 50.0)
            },
            max: v.last().copied().unwrap_or(0.0),
            tail: tail_percentile(v.len()).map(|p| (p, percentile(&v, p))),
        }
    }

    /// A fixed percentile for the per-layer `_p99` metrics; falls back
    /// to the maximum when the samples cannot support it.
    pub fn p99_of(samples: &[f64]) -> f64 {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            0.0
        } else {
            percentile(&v, 99.0)
        }
    }
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.4}", self.p50)?;
        if let Some((p, v)) = self.tail {
            write!(f, "  p{p} {v:.4}")?;
        }
        write!(f, "  (n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn timing_reports_median_tail_and_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Timing::of(&samples);
        assert_eq!(t.n, 1000);
        assert_eq!(t.p50, 500.0);
        assert_eq!(t.tail, Some((99.0, 990.0)));
        assert_eq!(t.max, 1000.0);
        let few = Timing::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail), (2.0, None));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
