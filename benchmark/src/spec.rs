//! What the benchmark declares: its workloads and every metric name,
//! unit, direction and regression bound. `/BENCHMARK.json` restates
//! these tables for the driver; a unit test keeps the two identical,
//! and [`MetricSet`] refuses to emit a name that is not declared here.

use crate::json::Json;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "city_knn",
        why: "18,660-host city, kNN, closed simulation: the query path (core, p2p gather and grid reads, cache) is ~90% of wall; grid refresh does little",
    },
    Workload {
        name: "city_window",
        why: "same city, window queries: over half fall back to the channel, so hilbert decomposition, bucket planning, SBWQ and cache inserts carry the run",
    },
    Workload {
        name: "fleet_sparse",
        why: "1,000,000 hosts, few queries: neighbor-grid refresh is ~85% of wall, so the grid is written here and read in city_*; also the memory workload",
    },
    Workload {
        name: "serve_city",
        why: "open loop: a recorded 4,665-host trace offered to the live service at 300x with position updates beside it; latency from due time",
    },
    Workload {
        name: "serve_closed",
        why: "closed loop: 64 sessions each waiting for their reply, ~84% own-cache hits, so submit-queue-scheduler-reply is the work; bypasses what city_* stress",
    },
];

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// An end-to-end metric: what a user of the system sees, with the share
/// of the parent's median by which it may worsen before a change counts
/// as a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub metric: Metric,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        metric: Metric { name, unit, better },
        bound,
    }
}

/// Every workload reports every one of these (README.md says what each
/// means on each workload).
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("queries_per_s", "1/s", Better::Higher, 0.25),
    e2e("host_epochs_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.15),
    e2e("answer_ms_p50", "ms", Better::Lower, 0.25),
    e2e("within_limit_ratio", "ratio", Better::Higher, 0.05),
    e2e("channel_resolved_pct", "%", Better::Lower, 0.25),
    e2e("access_latency_ticks", "ticks", Better::Lower, 0.25),
    e2e("tuning_ticks", "ticks", Better::Lower, 0.25),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics of the traced pass; the prefix is the crate name.
/// No bounds: they explain a movement, they do not gate one.
pub const PER_LAYER: [Metric; 63] = [
    m("hilbert.encode_ns", "ns", Lower),
    m("hilbert.window_decompose_ns", "ns", Lower),
    m("hilbert.intervals_per_window", "count", Lower),
    m("broadcast.index_build_ms", "ms", Lower),
    m("broadcast.plan_knn_ns", "ns", Lower),
    m("broadcast.plan_window_ns", "ns", Lower),
    m("broadcast.onair_knn_ns", "ns", Lower),
    m("broadcast.onair_window_ns", "ns", Lower),
    m("broadcast.buckets_per_query", "count", Lower),
    m("broadcast.probes_total", "count", Lower),
    m("broadcast.index_buckets_total", "count", Lower),
    m("broadcast.data_buckets_total", "count", Lower),
    m("broadcast.filter_saved_buckets", "count", Higher),
    m("rtree.build_ms", "ms", Lower),
    m("rtree.knn_ns", "ns", Lower),
    m("cache.insert_ns", "ns", Lower),
    m("cache.snapshot_clone_ns", "ns", Lower),
    m("cache.share_ns", "ns", Lower),
    m("cache.regions_per_host", "count", Higher),
    m("cache.hits_total", "count", Higher),
    m("cache.rejected_total", "count", Lower),
    m("p2p.grid_build_ms", "ms", Lower),
    m("p2p.grid_refresh_ms_p50", "ms", Lower),
    m("p2p.grid_refresh_ms_p99", "ms", Lower),
    m("p2p.grid_refresh_ns_per_host", "ns", Lower),
    m("p2p.neighbors_within_ns", "ns", Lower),
    m("p2p.neighbors_per_lookup", "count", Higher),
    m("p2p.gather_ns", "ns", Lower),
    m("p2p.peers_contacted_per_query", "count", Lower),
    m("p2p.peers_with_data_ratio", "ratio", Higher),
    m("p2p.pois_per_query", "count", Higher),
    m("core.mvr_build_ns", "ns", Lower),
    m("core.sbnn_ns", "ns", Lower),
    m("core.sbwq_ns", "ns", Lower),
    m("core.resolved_verified_pct", "%", Higher),
    m("core.resolved_approx_pct", "%", Higher),
    m("core.resolved_broadcast_pct", "%", Lower),
    m("exec.dispatch_us", "us", Lower),
    m("exec.par_speedup", "ratio", Higher),
    m("sim.advance_ms", "ms", Lower),
    m("sim.grid_ms", "ms", Lower),
    m("sim.query_ms", "ms", Lower),
    m("sim.snapshot_ms", "ms", Lower),
    m("sim.grid_share_pct", "%", Lower),
    m("sim.us_per_query", "us", Lower),
    m("sim.begin_epoch_ms_first", "ms", Lower),
    m("sim.begin_epoch_ms_p50", "ms", Lower),
    m("sim.begin_epoch_ms_p99", "ms", Lower),
    m("sim.execute_epoch_ms_p50", "ms", Lower),
    m("sim.execute_epoch_ms_p99", "ms", Lower),
    m("serve.submit_ns_p50", "ns", Lower),
    m("serve.submit_ns_p99", "ns", Lower),
    m("serve.update_position_ns_p50", "ns", Lower),
    m("serve.answer_ms_p99", "ms", Lower),
    m("serve.answer_ms_max", "ms", Lower),
    m("serve.closed_answer_ms_p50", "ms", Lower),
    m("serve.gen_lag_us_p99", "us", Lower),
    m("serve.drain_ms", "ms", Lower),
    m("serve.accepted_total", "count", Higher),
    m("serve.rejected_total", "count", Lower),
    m("serve.answered_total", "count", Higher),
    m("serve.epochs_committed_total", "count", Higher),
    m("obs.trace_overhead_pct", "%", Lower),
];

/// How long one run measures, as `/BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: i64 = 8;

/// The regression limit, in ms from due time, behind
/// `within_limit_ratio` on the serve workloads.
pub const ANSWER_LIMIT_MS: f64 = 5.0;

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|e| e.metric.name == name)
}

/// `/BENCHMARK.json`, from the tables above. The driver runs `command`
/// followed by `--workload W --seed S --seconds N --trace 0|1`.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("name", Json::str(e.metric.name)),
                            ("unit", Json::str(e.metric.unit)),
                            ("better", Json::str(e.metric.better.as_str())),
                            ("bound", Json::Num(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Names may use only `[A-Za-z0-9_.-]`, start with a letter or digit,
/// and run to at most 64 characters — the driver's rule.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The values of one pass, keyed by declared name. Setting an
/// undeclared name panics, and [`MetricSet::to_json`] panics when a
/// declared one is missing, so what a pass prints is exactly what
/// `BENCHMARK.json` declares.
pub struct MetricSet {
    declared: Vec<Metric>,
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    pub fn end_to_end() -> MetricSet {
        MetricSet {
            declared: END_TO_END.iter().map(|e| e.metric).collect(),
            values: BTreeMap::new(),
        }
    }

    pub fn per_layer() -> MetricSet {
        MetricSet {
            declared: PER_LAYER.to_vec(),
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(valid_name(name));
        let declared = self
            .declared
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in spec.rs"));
        self.values.insert(declared.name, value);
    }

    /// Reports zero for every declared metric under `prefix` that is
    /// not set: a layer the workload never enters did no work and took
    /// no time. The caller names what it skips, so that a metric it
    /// merely forgot still trips [`MetricSet::to_json`].
    pub fn zero(&mut self, prefix: &str) {
        let mut matched = false;
        for d in self.declared.iter().filter(|d| d.name.starts_with(prefix)) {
            matched = true;
            self.values.entry(d.name).or_insert(0.0);
        }
        assert!(matched, "no declared metric starts with '{prefix}'");
    }

    /// `{name: {"value": v, "unit": u}}` in declaration order.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.declared
                .iter()
                .map(|d| {
                    let v = self
                        .values
                        .get(d.name)
                        .unwrap_or_else(|| panic!("metric '{}' was never measured", d.name));
                    (
                        d.name.to_string(),
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::str(d.unit))]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_use_the_allowed_charset() {
        assert!(valid_name("p2p.grid_refresh_ms_p50"));
        assert!(valid_name("9lives-ok"));
        for bad in ["", "_x", ".x", "a b", "a/b", "caf\u{e9}", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|e| e.metric.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for unit in END_TO_END
            .iter()
            .map(|e| e.metric.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(unit.bytes().all(
                |b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
            ));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_passes_emit() {
        let doc = manifest();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| {
                assert_eq!(w.as_obj().len(), 2);
                (
                    w.get("name").unwrap().as_str().unwrap(),
                    w.get("why").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        let declared: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, declared);

        // What a `--trace 0` pass prints is `MetricSet::end_to_end`,
        // which can hold these names and no others.
        let e2e: Vec<(&str, &str, &str, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .map(|e| {
                assert_eq!(e.as_obj().len(), 4);
                (
                    e.get("name").unwrap().as_str().unwrap(),
                    e.get("unit").unwrap().as_str().unwrap(),
                    e.get("better").unwrap().as_str().unwrap(),
                    e.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let want: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|e| {
                (
                    e.metric.name,
                    e.metric.unit,
                    e.metric.better.as_str(),
                    e.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!(
            (setup.metric.unit, setup.metric.better),
            ("s", Better::Lower)
        );

        // Likewise `--trace 1` prints `MetricSet::per_layer`.
        let layers: Vec<(&str, &str, &str)> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .iter()
            .map(|e| {
                assert_eq!(e.as_obj().len(), 3);
                (
                    e.get("name").unwrap().as_str().unwrap(),
                    e.get("unit").unwrap().as_str().unwrap(),
                    e.get("better").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        let want: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str()))
            .collect();
        assert_eq!(layers, want);

        let emitted = |mut set: MetricSet| -> Vec<String> {
            set.zero("");
            set.to_json()
                .as_obj()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(
            emitted(MetricSet::end_to_end()),
            e2e.iter().map(|e| e.0).collect::<Vec<_>>()
        );
        assert_eq!(
            emitted(MetricSet::per_layer()),
            layers.iter().map(|e| e.0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn benchmark_json_command_stays_inside_its_paths() {
        let doc = manifest();
        let paths: Vec<&str> = doc
            .get("paths")
            .unwrap()
            .as_arr()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let command: Vec<&str> = doc
            .get("command")
            .unwrap()
            .as_arr()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert!(command.len() <= 32);
        assert!(command.contains(&"benchmark/Cargo.toml"));
        assert!(command
            .iter()
            .all(|a| !a.starts_with('/') && !a.contains("..")));
        let secs = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_cannot_be_emitted() {
        MetricSet::end_to_end().set("latency_ms", 1.0);
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn missing_names_cannot_be_skipped() {
        let mut set = MetricSet::end_to_end();
        set.set("setup_s", 1.0);
        set.to_json();
    }
}
