//! The `(1, m)` air-index trade-off (paper §2.1, Figure 2).
//!
//! Sweeps the index replication factor `m` and reports, per the
//! Imielinski et al. model the paper builds on:
//!
//! * **probe wait** — how long a client waits for the next index segment
//!   (falls ~1/m: the whole point of replication);
//! * **access latency** — full-query wall time (rises slightly: the
//!   cycle grows by `(m-1)·index` ticks);
//! * **tuning time** — active listening (flat for a fixed bucket set).
//!
//! Run with: `cargo run --release --example broadcast_tuning`

use airshare::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let world = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
    let mut rng = StdRng::seed_from_u64(11);
    let pois: Vec<Poi> = (0..2750) // LA City's POI count
        .map(|i| {
            Poi::new(
                i,
                Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)),
            )
        })
        .collect();
    let index = AirIndex::try_build(pois, Grid::new(world, 8), 10).unwrap();
    println!(
        "data file: {} buckets, index segment: {} buckets\n",
        index.data_buckets(),
        index.index_buckets()
    );

    let q = Point::new(10.0, 10.0);
    println!(
        "{:>3}  {:>10}  {:>12}  {:>12}  {:>10}",
        "m", "cycle", "probe wait", "latency", "tuning"
    );
    for m in [1usize, 2, 4, 8, 16] {
        let schedule = Schedule::try_for_backend(&index, m).expect("m >= 1");
        let client = OnAirClient::new(&index, &schedule);
        let cycle = schedule.cycle_len();
        // Average over tune-in times across one cycle (sampled).
        let samples = 512u64;
        let mut probe = 0u64;
        let mut latency = 0u64;
        let mut tuning = 0u64;
        let mut scratch = QueryScratch::new();
        for i in 0..samples {
            let t = i * cycle / samples;
            probe += schedule.next_index_start(t) - t;
            let res = client
                .knn_rec(t, q, 5, &mut scratch, &mut NoopRecorder)
                .expect("enough POIs");
            latency += res.stats.latency;
            tuning += res.stats.tuning;
        }
        println!(
            "{m:>3}  {cycle:>10}  {:>12.1}  {:>12.1}  {:>10.1}",
            probe as f64 / samples as f64,
            latency as f64 / samples as f64,
            tuning as f64 / samples as f64,
        );
    }
    println!(
        "\nreplication buys fast index discovery (short probe) at a small\n\
         latency cost from the longer cycle; tuning time is unaffected.\n\
         The paper's clients exploit this: read the nearest index segment,\n\
         sleep, and wake only for the buckets they still need."
    );
}
