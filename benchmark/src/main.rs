//! `airbench` — the repository's benchmark.
//!
//! ```text
//! airbench run [--workload W] [--seed S] [--seconds N] [--traced] [--out FILE]
//! airbench run --workload W --seed S --seconds N --trace 0|1 [--out FILE]
//! airbench compare A.json B.json
//! airbench noise [--runs N] [--vary-seed] [--workload W] [--seed S] [--seconds N] [--out FILE]
//! airbench manifest
//! ```
//!
//! The second `run` form is the single pass the driver invokes: one
//! workload, in this process, with the driver's JSON object as the last
//! line of stdout. The first form runs every workload that way in a
//! child process of its own and gathers the reports.

mod compare;
mod json;
mod ladder;
mod outcome;
mod report;
mod serveload;
mod simload;
mod span;
mod spec;
mod stats;
mod traced;
mod world;

use json::Json;
use std::process::ExitCode;

/// Seed of a run started by hand; the driver passes its own.
const DEFAULT_SEED: u64 = 7;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    traced: bool,
    out: Option<String>,
    runs: usize,
    /// `noise`: give every round another seed, as the driver does.
    vary_seed: bool,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        traced: false,
        out: None,
        runs: 3,
        vary_seed: false,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if spec::workload(&w).is_none() {
                    let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload '{w}' (known: {})",
                        known.join(", ")
                    ));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number from 1 to 60")?
            }
            "--trace" => {
                a.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--traced" => a.traced = true,
            "--vary-seed" => a.vary_seed = true,
            "--out" => a.out = Some(value("--out")?),
            "--runs" => {
                a.runs = value("--runs")?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 2)
                    .ok_or("--runs takes a whole number, at least 2")?
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            file => a.files.push(file.to_string()),
        }
    }
    Ok(a)
}

const USAGE: &str = "usage:
  airbench run [--workload W] [--seed S] [--seconds N] [--traced] [--out FILE]
  airbench run --workload W --seed S --seconds N --trace 0|1 [--out FILE]
  airbench compare A.json B.json
  airbench noise [--runs N] [--vary-seed] [--workload W] [--seed S] [--seconds N] [--out FILE]
  airbench manifest        (prints /BENCHMARK.json as spec.rs declares it)";

fn write_out(path: &str, doc: &Json) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{path}: {e}"))
}

/// The driver's form: one workload, one pass, in this process.
fn run_single(a: &Args, workload: &str, traced: bool) -> Result<bool, String> {
    let meta = report::Meta::collect(a.seed, a.seconds);
    println!(
        "== {workload}  {}  seed {}  {} s  ({})",
        report::pass_name(traced),
        a.seed,
        a.seconds,
        meta.summary()
    );
    let outcome = if traced {
        traced::run(workload, a.seed, a.seconds)?
    } else {
        match workload {
            "city_knn" => simload::run(simload::SimKind::CityKnn, a.seed, a.seconds),
            "city_window" => simload::run(simload::SimKind::CityWindow, a.seed, a.seconds),
            "fleet_sparse" => simload::run(simload::SimKind::FleetSparse, a.seed, a.seconds),
            "serve_city" => serveload::run_city(a.seed, a.seconds),
            "serve_closed" => serveload::run_closed(a.seed, a.seconds),
            other => unreachable!("workload '{other}' passed validation"),
        }
    };
    let doc = report::pass_json(&meta, workload, traced, &outcome);
    report::print_pass(&doc);
    if let Some(path) = &a.out {
        write_out(path, &doc)?;
    }
    // Last line of stdout, and the only thing on it.
    println!("{}", outcome.driver_line().compact());
    Ok(outcome.correct())
}

/// Every workload (or the one named), each in a child process so that
/// peak memory and allocator state are the workload's own.
fn run_all(a: &Args) -> Result<bool, String> {
    let runs = report::run_children(a, 0)?;
    let doc = report::combined(&report::Meta::collect(a.seed, a.seconds), &runs);
    report::print_table(&runs);
    let correct = runs
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    match &a.out {
        Some(path) => {
            write_out(path, &doc)?;
            println!("wrote {path}");
        }
        None => println!("{}", doc.compact()),
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let a = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("airbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (cmd.as_str(), a.trace, &a.workload) {
        ("run", Some(traced), Some(w)) => run_single(&a, w, traced),
        ("run", Some(_), None) => Err("--trace needs --workload".into()),
        ("run", None, _) => run_all(&a),
        ("compare", ..) => match a.files.as_slice() {
            [x, y] => compare::compare_files(x, y),
            _ => Err("compare takes two report files".into()),
        },
        ("noise", ..) => compare::noise(&a),
        ("manifest", ..) => {
            print!("{}", spec::manifest().pretty());
            Ok(true)
        }
        _ => Err(format!("unknown command '{cmd}'")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("airbench: {e}");
            ExitCode::from(2)
        }
    }
}
