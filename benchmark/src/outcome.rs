//! What one pass over one workload hands back.

use crate::json::Json;
use crate::spec::MetricSet;
use airshare_sim::SimReport;

pub struct Outcome {
    pub metrics: MetricSet,
    /// Operations whose result was checked (queries, here).
    pub attempted: u64,
    /// Of those, the ones that failed: refused, lost, answered
    /// `Failed`, or contradicting the oracle.
    pub failed: u64,
    /// Correctness gates that did not hold; empty means `correct`.
    pub problems: Vec<String>,
    /// Everything else worth keeping beside the figures: samples,
    /// timings with their tails, digests, counts.
    pub detail: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn driver_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// Simulated-time results of a report, shared by the sim and serve
/// workloads (the service accumulates the same `SimReport`).
pub fn set_simulated(metrics: &mut MetricSet, report: &SimReport) {
    metrics.set("channel_resolved_pct", report.queries.pct_broadcast());
    metrics.set("access_latency_ticks", report.overall_mean_latency());
    metrics.set("tuning_ticks", report.broadcast_tuning.mean());
}

/// FNV-1a over the report's `Debug` form with `metrics` stripped: two
/// runs that simulated the same thing print the same digest.
pub fn report_digest(report: &SimReport) -> String {
    let mut stripped = report.clone();
    stripped.metrics = None;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{stripped:?}").bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
