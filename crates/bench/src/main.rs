//! `airshare-paper`: runs one paper experiment (or the whole suite),
//! prints each result table, and with `--json PATH` writes them all to
//! `PATH`. See the library docs for the experiments and scales.
//!
//! Exit codes: 0 on success, 1 when an experiment fails (the chaos
//! oracle) or the JSON cannot be written, 2 on a bad command line.
//! `trace` prints its JSONL stream on stdout and its summary on stderr.

use std::process::ExitCode;
use std::time::Instant;

use airshare_bench::{json, parse_args, run, trace, USAGE};
use airshare_exec::ExecPool;

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("airshare-paper: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = args.scale;
    let pool = ExecPool::fixed(args.threads);
    eprintln!("{scale:?}; threads {}", args.threads);
    let t0 = Instant::now();
    let mut tables = Vec::new();
    for name in args.experiments {
        let table = if name == "trace" {
            let (table, jsonl) = trace(&scale);
            print!("{jsonl}");
            eprint!("{}", table.text());
            table
        } else {
            match run(name, &scale, &pool) {
                Ok(table) => {
                    print!("\n{}", table.text());
                    table
                }
                Err(e) => {
                    eprintln!("airshare-paper: {name}: {e}");
                    return ExitCode::from(1);
                }
            }
        };
        tables.push(table);
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, json(&tables)) {
            eprintln!("airshare-paper: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("wrote {}", path.display());
    }
    eprintln!("done in {:.1} s", t0.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
