//! The one report schema, its text form, and the child-process runner.
//!
//! A *pass* document is `{schema, meta, workload, pass, correct,
//! attempted, failed, problems, metrics, detail}`; a report file is
//! `{schema, meta, runs: [pass, ...]}`. `compare` and `noise` read the
//! same files `run` writes.

use crate::json::Json;
use crate::outcome::Outcome;
use crate::spec::WORKLOADS;
use crate::world;
use crate::Args;
use std::process::{Command, Stdio};

pub const SCHEMA: &str = "airbench/1";

/// Where passes leave their files (span dumps, child reports),
/// relative to the directory the benchmark is run from.
pub const OUT_DIR: &str = "benchmark/out";

/// The machine and build beside every figure.
pub struct Meta {
    pub commit: String,
    pub rustc: String,
    pub cores: usize,
    pub threads: usize,
    pub seed: u64,
    pub seconds: f64,
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

impl Meta {
    pub fn collect(seed: u64, seconds: f64) -> Meta {
        Meta {
            // A checkout that is not a git repository has no commit to
            // name; the figures still stand, labelled "unknown".
            commit: tool_line("git", &["rev-parse", "--short=12", "HEAD"]),
            rustc: tool_line("rustc", &["--version"]),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: world::threads(),
            seed,
            seconds,
        }
    }

    pub fn summary(&self) -> String {
        format!(
            "commit {}, {}, {} cores, {} threads",
            self.commit, self.rustc, self.cores, self.threads
        )
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("commit", Json::str(&self.commit)),
            ("rustc", Json::str(&self.rustc)),
            ("cores", Json::Int(self.cores as i64)),
            ("threads", Json::Int(self.threads as i64)),
            ("seed", Json::Int(self.seed as i64)),
            ("seconds", Json::Num(self.seconds)),
        ])
    }
}

pub fn pass_name(traced: bool) -> &'static str {
    if traced {
        "per_layer"
    } else {
        "end_to_end"
    }
}

pub fn pass_json(meta: &Meta, workload: &str, traced: bool, outcome: &Outcome) -> Json {
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("meta", meta.to_json()),
        ("workload", Json::str(workload)),
        ("pass", Json::str(pass_name(traced))),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        (
            "problems",
            Json::Arr(outcome.problems.iter().map(Json::str).collect()),
        ),
        ("metrics", outcome.metrics.to_json()),
        ("detail", outcome.detail.clone()),
    ])
}

pub fn combined(meta: &Meta, runs: &[Json]) -> Json {
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("meta", meta.to_json()),
        ("runs", Json::Arr(runs.to_vec())),
    ])
}

/// A pass document as text: every metric by name with its unit, the
/// one-line details, any problems, then the verdict.
pub fn print_pass(doc: &Json) {
    for (name, m) in doc.get("metrics").map_or(&[][..], Json::as_obj) {
        println!(
            "  {:<34} {:>18.6} {}",
            name,
            m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            m.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
    for (k, v) in doc.get("detail").map_or(&[][..], Json::as_obj) {
        if let Some(s) = v.as_str() {
            println!("  [{k}] {s}");
        }
    }
    for p in doc.get("problems").map_or(&[][..], Json::as_arr) {
        println!("  PROBLEM: {}", p.as_str().unwrap_or("?"));
    }
    println!(
        "  correct: {}   attempted {}   failed {}",
        doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
    );
}

/// Gathered pass documents, one after the other.
pub fn print_table(runs: &[Json]) {
    for run in runs {
        println!(
            "== {}  {}",
            run.get("workload").and_then(Json::as_str).unwrap_or("?"),
            run.get("pass").and_then(Json::as_str).unwrap_or("?")
        );
        print_pass(run);
    }
}

/// Runs each selected workload's pass(es) in a child process of its
/// own and returns their pass documents. `round` keeps the files of
/// repeated rounds (`noise`) apart.
pub fn run_children(a: &Args, round: usize) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| a.workload.as_deref().is_none_or(|n| n == w.name))
    {
        for traced in [false, true] {
            if traced && !a.traced {
                continue;
            }
            let out = format!(
                "{OUT_DIR}/run-{}-{}-{round}.json",
                w.name,
                pass_name(traced)
            );
            eprintln!("airbench: {} {} ...", w.name, pass_name(traced));
            let status = Command::new(&exe)
                .args(["run", "--workload", w.name])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(["--out", &out])
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            // Exit 1 is a pass that ran and found a problem: its
            // document says which. Anything else never produced one.
            if !matches!(status.code(), Some(0) | Some(1)) {
                return Err(format!(
                    "{} {} exited with {status}",
                    w.name,
                    pass_name(traced)
                ));
            }
            let text = std::fs::read_to_string(&out).map_err(|e| format!("{out}: {e}"))?;
            runs.push(Json::parse(&text).map_err(|e| format!("{out}: {e}"))?);
        }
    }
    Ok(runs)
}

/// Reads a report file: the `runs` of a combined report, or a single
/// pass document as a one-element list.
pub fn load_runs(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not an {SCHEMA} report"));
    }
    Ok(match doc.get("runs") {
        Some(runs) => runs.as_arr().to_vec(),
        None => vec![doc],
    })
}
