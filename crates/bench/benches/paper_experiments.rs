//! `cargo bench --bench paper_experiments` — regenerates every table and
//! figure of the paper's evaluation section in one pass.
//!
//! Sizing comes from the environment (see `airshare_bench::ExpScale`):
//! default is the laptop-scale configuration; `AIRSHARE_QUICK=1` runs a
//! fast smoke pass; `AIRSHARE_FULL=1` runs the paper's full scale.
//!
//! This is a `harness = false` bench target: the output is the set of
//! series the paper plots, not timings (those are `airbench`'s, in
//! `benchmark/`).

use std::time::Instant;

fn main() {
    let scale = airshare_bench::ExpScale::from_env();
    println!("airshare — paper experiment suite");
    println!(
        "scale: area ×{}, kNN warm/measure {}/{} min, window {}/{} min",
        scale.area, scale.knn_warm, scale.knn_measure, scale.win_warm, scale.win_measure
    );
    let t0 = Instant::now();

    airshare_bench::table3(&scale);
    airshare_bench::fig10(&scale);
    airshare_bench::fig11(&scale);
    airshare_bench::fig12(&scale);
    airshare_bench::fig13(&scale);
    airshare_bench::fig14(&scale);
    airshare_bench::fig15(&scale);
    airshare_bench::latency(&scale);
    airshare_bench::m_sweep();
    airshare_bench::probability_calibration(&scale);
    airshare_bench::ablations(&scale);
    airshare_bench::faults(&scale);

    println!(
        "\nall experiments done in {:.1} s",
        t0.elapsed().as_secs_f64()
    );
}
