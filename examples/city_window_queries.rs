//! Sharing-based window queries in a dense city (§3.4, Figure 9).
//!
//! Runs a scaled Los Angeles City simulation with a window-query
//! workload, then dissects a single SBWQ by hand: full coverage (WQ1),
//! partial coverage with window reduction (WQ2), and the bucket savings
//! reduction buys over fetching the whole window.
//!
//! Run with: `cargo run --release --example city_window_queries`

use airshare::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // --- Part 1: a scaled LA simulation with window queries. ---
    let params = params::la_city().scaled(0.01); // 2 mi × 2 mi, same density
    let mut cfg = SimConfig::paper_defaults(params, QueryKind::Window, 99);
    cfg.warmup_min = 10.0;
    cfg.measure_min = 15.0;
    println!(
        "simulating {}: {} hosts, {} POIs, {:.0} queries/min on {} mi²",
        params.name,
        params.mh_number,
        params.poi_number,
        params.query_rate,
        (params.world_mi * params.world_mi) as u32
    );
    let report = Simulation::try_new(cfg).expect("valid config").run();
    println!(
        "window queries: {:.1}% solved by SBWQ peers, {:.1}% needed the channel \
         (mean coverage of those: {:.0}%)\n",
        report.queries.pct_peers(),
        report.queries.pct_broadcast(),
        100.0 * report.mean_partial_coverage()
    );

    // --- Part 2: one query dissected (the Figure 9 scenarios). ---
    let world = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
    let mut rng = StdRng::seed_from_u64(4);
    let pois: Vec<Poi> = (0..300)
        .map(|i| {
            Poi::new(
                i,
                Point::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)),
            )
        })
        .collect();
    let index = AirIndex::try_build(pois.clone(), Grid::new(world, 6), 6).unwrap();
    let schedule = Schedule::try_for_backend(&index, 4).expect("m >= 1");
    let client = OnAirClient::new(&index, &schedule);

    let vrs = [
        Rect::from_coords(2.0, 2.0, 5.0, 6.0),
        Rect::from_coords(4.5, 3.0, 7.0, 5.5),
    ];
    let mvr = MergedRegion::from_regions(vrs.iter().map(|vr| {
        (
            *vr,
            pois.iter()
                .filter(|p| vr.contains(p.pos))
                .copied()
                .collect::<Vec<_>>(),
        )
    }));

    // WQ1: fully inside the merged region.
    let wq1 = Rect::from_coords(3.0, 3.5, 4.5, 5.0);
    let r1 = sbwq_rec(
        &wq1,
        &SbwqConfig::default(),
        &mvr,
        Some((&client.as_dyn(), 0)),
        &mut QueryScratch::new(),
        &mut NoopRecorder,
    )
    .resolved()
    .unwrap();
    println!(
        "WQ1 {:?}: covered {:.0}% → {:?}, {} POIs, no broadcast",
        wq1,
        100.0 * r1.coverage,
        r1.resolved_by,
        r1.pois.len()
    );
    assert!(r1.air.is_none());

    // WQ2: hangs out of the merged region → reduced windows on air.
    let wq2 = Rect::from_coords(4.0, 4.0, 8.5, 7.0);
    let r2 = sbwq_rec(
        &wq2,
        &SbwqConfig::default(),
        &mvr,
        Some((&client.as_dyn(), 0)),
        &mut QueryScratch::new(),
        &mut NoopRecorder,
    )
    .resolved()
    .unwrap();
    let air2 = r2.air.unwrap();
    println!(
        "WQ2 {:?}: covered {:.0}% → {:?}; {} reduced window(s), {} buckets fetched",
        wq2,
        100.0 * r2.coverage,
        r2.resolved_by,
        r2.reduced_windows.len(),
        air2.buckets
    );

    // The same query without window reduction fetches the whole window.
    let r2_full = sbwq_rec(
        &wq2,
        &SbwqConfig {
            use_window_reduction: false,
        },
        &mvr,
        Some((&client.as_dyn(), 0)),
        &mut QueryScratch::new(),
        &mut NoopRecorder,
    )
    .resolved()
    .unwrap();
    let air_full = r2_full.air.unwrap();
    println!(
        "WQ2 without reduction: {} buckets (reduction saved {})",
        air_full.buckets,
        air_full.buckets.saturating_sub(air2.buckets)
    );

    // Both paths are exact.
    let brute: Vec<u32> = pois
        .iter()
        .filter(|p| wq2.contains(p.pos))
        .map(|p| p.id)
        .collect();
    let mut got: Vec<u32> = r2.pois.iter().map(|p| p.id).collect();
    got.sort_unstable();
    let mut want = brute;
    want.sort_unstable();
    assert_eq!(got, want);
    println!("\nboth window answers cross-checked against brute force ✓");
}
