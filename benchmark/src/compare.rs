//! `compare` — two reports side by side, judged by the bounds in
//! `spec.rs` — and `noise` — the same build run repeatedly, to show
//! that those bounds are wider than the run-to-run spread.

use crate::json::Json;
use crate::report;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use crate::Args;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread exceeds the bound and the two sides'
    /// ranges overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Judged {
    pub verdict: Verdict,
    pub base: f64,
    pub other: f64,
    /// Larger of the two sides' spreads (0 with single samples).
    pub spread: f64,
}

fn side_spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 || median(samples) == 0.0 {
        0.0
    } else {
        spread(samples)
    }
}

fn range(samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Judges `other` against `base` for one metric on one workload.
pub fn judge(e: &EndToEnd, base: &[f64], other: &[f64]) -> Judged {
    let (mb, mo) = (median(base), median(other));
    // Share of the base median by which `other` is worse (negative:
    // better).
    let worse_by = match e.metric.better {
        Better::Lower => (mo - mb) / mb.abs(),
        Better::Higher => (mb - mo) / mb.abs(),
    };
    let spread = side_spread(base).max(side_spread(other));
    let (blo, bhi) = range(base);
    let (olo, ohi) = range(other);
    let overlap = blo <= ohi && olo <= bhi;
    let verdict = if mb == mo {
        Verdict::Unchanged
    } else if spread > e.bound && overlap {
        Verdict::Unresolved
    } else if worse_by > e.bound {
        Verdict::Regressed
    } else if -worse_by > e.bound.max(spread) || (!overlap && worse_by < 0.0 && spread > e.bound) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Judged {
        verdict,
        base: mb,
        other: mo,
        spread,
    }
}

type Samples = BTreeMap<(String, String), Vec<f64>>;
/// `(workload, seed) -> report digests`: runs of one workload at one
/// seed simulated the same thing exactly when these agree.
type Digests = BTreeMap<(String, i64), Vec<String>>;

/// `(workload, metric) -> samples` over the end-to-end passes of a
/// report, plus the report digests.
fn gather(runs: &[Json]) -> (Samples, Digests) {
    let mut samples = Samples::new();
    let mut digests = Digests::new();
    for run in runs {
        if run.get("pass").and_then(Json::as_str) != Some("end_to_end") {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        for (name, m) in run.get("metrics").map_or(&[][..], Json::as_obj) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
        let seed = run
            .get("meta")
            .and_then(|m| m.get("seed"))
            .and_then(Json::as_f64);
        let digest = run
            .get("detail")
            .and_then(|d| d.get("report_digest"))
            .and_then(Json::as_str);
        if let (Some(seed), Some(d)) = (seed, digest) {
            digests
                .entry((workload.to_string(), seed as i64))
                .or_default()
                .push(d.to_string());
        }
    }
    (samples, digests)
}

/// Workloads whose simulated results repeat bit for bit at a fixed
/// seed (the live service stamps queries with the wall clock).
const DETERMINISTIC: [&str; 3] = ["city_knn", "city_window", "fleet_sparse"];

/// Whether every run of `workload` agrees with every other run of it
/// at the same seed; `None` when no seed was run twice.
fn digests_agree(workload: &str, sets: &[&Digests]) -> Option<bool> {
    let mut by_seed: BTreeMap<i64, Vec<&String>> = BTreeMap::new();
    for set in sets {
        for ((w, seed), ds) in set.iter() {
            if w == workload {
                by_seed.entry(*seed).or_default().extend(ds);
            }
        }
    }
    let repeated: Vec<_> = by_seed.values().filter(|ds| ds.len() > 1).collect();
    (!repeated.is_empty()).then(|| repeated.iter().all(|ds| ds.iter().all(|d| *d == ds[0])))
}

pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let (sa, da) = gather(&report::load_runs(a)?);
    let (sb, db) = gather(&report::load_runs(b)?);
    println!("base  A = {a}\nother B = {b}");
    println!(
        "{:<13} {:<22} {:>16} {:>16} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A median (n)", "B median (n)", "B/A", "bound", "spread"
    );
    let mut regressed = 0;
    for w in &WORKLOADS {
        for e in &END_TO_END {
            let key = (w.name.to_string(), e.metric.name.to_string());
            let (Some(va), Some(vb)) = (sa.get(&key), sb.get(&key)) else {
                continue;
            };
            let j = judge(e, va, vb);
            regressed += (j.verdict == Verdict::Regressed) as u32;
            println!(
                "{:<13} {:<22} {:>12.5} ({}) {:>12.5} ({}) {:>9.4} {:>6.1}% {:>6.1}%  {}",
                w.name,
                e.metric.name,
                j.base,
                va.len(),
                j.other,
                vb.len(),
                j.other / j.base,
                e.bound * 100.0,
                j.spread * 100.0,
                j.verdict.as_str()
            );
        }
        if DETERMINISTIC.contains(&w.name) {
            println!(
                "{:<13} report_digest {}",
                w.name,
                match digests_agree(w.name, &[&da, &db]) {
                    Some(true) => "identical at every seed both sides ran",
                    Some(false) => "DIFFERS: the simulated results changed",
                    None => "not comparable: no seed in common",
                }
            );
        }
    }
    println!("every B/A ratio is B's median over A's median, A being the base");
    Ok(regressed == 0)
}

/// Repeats the end-to-end pass on the current build and fails when a
/// metric's spread exceeds its bound. `setup_s` is reported but does
/// not fail the run: a city world builds in 5 ms, where a scheduler
/// hiccup is a large share of nothing. With `--vary-seed` round *r*
/// runs at `seed + r` — the driver's acceptance protocol, where the
/// spread also holds what the seed does to the simulated metrics;
/// without it the seed is fixed and the simulation workloads' report
/// digests must repeat.
pub fn noise(a: &Args) -> Result<bool, String> {
    let mut runs = Vec::new();
    for round in 0..a.runs {
        eprintln!("airbench: noise round {} of {}", round + 1, a.runs);
        runs.extend(report::run_children(
            &Args {
                workload: a.workload.clone(),
                seed: a.seed + if a.vary_seed { round as u64 } else { 0 },
                traced: false,
                out: None,
                files: Vec::new(),
                ..*a
            },
            round,
        )?);
    }
    let (samples, digests) = gather(&runs);
    let mut ok = runs
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    println!(
        "{:<13} {:<22} {:>14} {:>8} {:>7}  within",
        "workload", "metric", "median", "spread", "bound"
    );
    for w in &WORKLOADS {
        for e in &END_TO_END {
            let Some(v) = samples.get(&(w.name.to_string(), e.metric.name.to_string())) else {
                continue;
            };
            let s = side_spread(v);
            let gated = e.metric.name != "setup_s";
            let within = s <= e.bound;
            ok &= within || !gated;
            println!(
                "{:<13} {:<22} {:>14.5} {:>7.2}% {:>6.1}%  {}",
                w.name,
                e.metric.name,
                median(v),
                s * 100.0,
                e.bound * 100.0,
                match (within, gated) {
                    (true, _) => "yes",
                    (false, true) => "NO",
                    (false, false) => "no (not gated)",
                }
            );
        }
        if DETERMINISTIC.contains(&w.name) {
            if let Some(same) = digests_agree(w.name, &[&digests]) {
                ok &= same;
                println!(
                    "{:<13} report_digest {}",
                    w.name,
                    if same {
                        "identical across rounds"
                    } else {
                        "DIFFERS across rounds"
                    }
                );
            }
        }
    }
    if let Some(path) = &a.out {
        let doc = report::combined(&report::Meta::collect(a.seed, a.seconds), &runs);
        crate::write_out(path, &doc)?;
        println!("wrote {path}");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Metric;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let metric = |better| EndToEnd {
            metric: Metric {
                name: "m",
                unit: "u",
                better,
            },
            bound: 0.10,
        };
        let qps = &metric(Better::Higher);
        let lat = &metric(Better::Lower);

        // Single samples: the bound alone decides.
        assert_eq!(judge(qps, &[100.0], &[100.0]).verdict, Verdict::Unchanged);
        assert_eq!(judge(qps, &[100.0], &[95.0]).verdict, Verdict::Unchanged);
        assert_eq!(judge(qps, &[100.0], &[85.0]).verdict, Verdict::Regressed);
        assert_eq!(judge(qps, &[100.0], &[115.0]).verdict, Verdict::Improved);
        assert_eq!(judge(lat, &[1.0], &[1.2]).verdict, Verdict::Regressed);
        assert_eq!(judge(lat, &[1.0], &[0.8]).verdict, Verdict::Improved);

        // Tight samples, clear separation.
        let j = judge(qps, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]);
        assert_eq!(j.verdict, Verdict::Regressed);
        assert!((j.other / j.base - 0.8).abs() < 1e-12);

        // Spread wider than the bound and the sides overlap: no verdict.
        let j = judge(qps, &[100.0, 130.0, 70.0], &[90.0, 120.0, 60.0]);
        assert_eq!(j.verdict, Verdict::Unresolved);
        assert!(j.spread > qps.bound);

        // Wide spread, but every run of B beats every run of A.
        let j = judge(qps, &[100.0, 130.0, 70.0], &[140.0, 190.0, 135.0]);
        assert_eq!(j.verdict, Verdict::Improved);
    }
}
