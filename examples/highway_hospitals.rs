//! The paper's motivating scenario (§1): a motorist on a highway asks
//! for the **top-3 nearest hospitals**. An exact broadcast answer can
//! take minutes of airtime — by then the car is miles away. SBNN instead
//! verifies what it can from passing vehicles and, when the heap is full
//! but not fully verified, offers an *approximate* answer immediately,
//! with a per-candidate correctness probability (Lemma 3.2) and the
//! surpassing-ratio detour bound (§3.3.2).
//!
//! Run with: `cargo run --release --example highway_hospitals`

use airshare::core::approx::worst_case_detour;
use airshare::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // 60 hospitals over a 30 mi × 30 mi metro area (λ = 1/15 per mi²).
    let world = Rect::from_coords(0.0, 0.0, 30.0, 30.0);
    let mut rng = StdRng::seed_from_u64(2007);
    let hospitals: Vec<Poi> = (0..60)
        .map(|i| {
            Poi::new(
                i,
                Point::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0)),
            )
        })
        .collect();
    let lambda = 60.0 / (30.0 * 30.0);

    let index = AirIndex::try_build(hospitals.clone(), Grid::new(world, 6), 4).unwrap();
    let schedule = Schedule::try_for_backend(&index, 2).expect("m >= 1");
    let client = OnAirClient::new(&index, &schedule);

    // The motorist is at mile 12 of an east-west highway (y = 15).
    let q = Point::new(13.8, 16.2);
    println!("motorist at {q:?} asks: top-3 nearest hospitals?\n");

    // Oncoming traffic shares what it verified driving the other way:
    // a corridor ahead and a patch behind.
    let corridors = [
        Rect::from_coords(8.0, 12.0, 18.0, 18.0), // around the highway
        Rect::from_coords(10.0, 9.0, 16.0, 13.0), // south patch
    ];
    let mvr = MergedRegion::from_regions(corridors.iter().map(|vr| {
        (
            *vr,
            hospitals
                .iter()
                .filter(|p| vr.contains(p.pos))
                .copied()
                .collect::<Vec<_>>(),
        )
    }));
    println!(
        "peers shared {} verified hospitals across {} regions",
        mvr.pois().len(),
        corridors.len()
    );

    // NNV first: what can be *proven* locally?
    let heap = nnv(q, 3, &mvr, lambda);
    println!("\nafter verification (state {:?}):", heap.state());
    for (i, e) in heap.entries().iter().enumerate() {
        match (e.verified, e.correctness, e.surpassing_ratio) {
            (true, _, _) => println!(
                "  #{}: hospital {} at {:.2} mi — VERIFIED nearest",
                i + 1,
                e.poi.id,
                e.distance
            ),
            (false, Some(c), ratio) => {
                print!(
                    "  #{}: hospital {} at {:.2} mi — unverified, correct with p ≈ {:.0}%",
                    i + 1,
                    e.poi.id,
                    e.distance,
                    100.0 * c
                );
                if let (Some(r), Some(dv)) = (ratio, heap.lower_bound()) {
                    print!(", worst-case detour ≈ {:.1} mi", worst_case_detour(dv, r));
                }
                println!();
            }
            _ => unreachable!("unverified entries always carry correctness"),
        }
    }

    // Decision point: accept the approximate answer now, or wait?
    let cfg_accept = SbnnConfig {
        k: 3,
        accept_approx: true,
        min_correctness: 0.5,
        ..SbnnConfig::paper_defaults(3, lambda)
    };
    let fast = sbnn_rec(
        q,
        &cfg_accept,
        &mvr,
        Some((&client.as_dyn(), 0)),
        &mut QueryScratch::new(),
        &mut NoopRecorder,
    )
    .resolved()
    .unwrap();
    println!(
        "\naccepting ≥50% candidates → answered by {:?} with zero broadcast wait",
        fast.resolved_by
    );

    let cfg_exact = SbnnConfig {
        accept_approx: false,
        ..cfg_accept
    };
    let exact = sbnn_rec(
        q,
        &cfg_exact,
        &mvr,
        Some((&client.as_dyn(), 0)),
        &mut QueryScratch::new(),
        &mut NoopRecorder,
    )
    .resolved()
    .unwrap();
    if let Some(air) = exact.air {
        println!(
            "demanding exactness → {:?}: latency {} ticks, tuning {} ticks \
             ({} buckets; peer bounds pruned the search)",
            exact.resolved_by, air.latency, air.tuning, air.buckets
        );
    }
    let baseline = client
        .knn_rec(0, q, 3, &mut QueryScratch::new(), &mut NoopRecorder)
        .unwrap();
    println!(
        "no sharing at all      → latency {} ticks, tuning {} ticks ({} buckets)",
        baseline.stats.latency, baseline.stats.tuning, baseline.stats.buckets
    );

    // Sanity: the exact answer matches brute force.
    let mut brute = hospitals.clone();
    brute.sort_by(|a, b| a.pos.distance_sq(q).total_cmp(&b.pos.distance_sq(q)));
    for (got, want) in exact.neighbors.iter().zip(&brute) {
        assert_eq!(got.poi.id, want.id);
    }
    println!("\nexact answer cross-checked against brute force ✓");
}
