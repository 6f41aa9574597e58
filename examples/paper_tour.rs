//! A guided tour of the paper's worked figures, recreated live.
//!
//! Walks through the constructions of Figures 2, 4, 5–7, 8 and Table 2
//! of Ku, Zimmermann & Wang (ICDE 2007) with this library's actual
//! implementations, printing what each figure illustrates.
//!
//! Run with: `cargo run --release --example paper_tour`

use airshare::core::approx::{surpassing_ratio, unverified_area, worst_case_detour};
use airshare::prelude::*;

fn main() {
    figure2_air_index();
    figure4_onair_knn();
    figures5to7_nnv();
    figure8_window_span();
    table2_heap();
}

/// Figure 2: the (1, m) broadcast organization and its two metrics.
fn figure2_air_index() {
    println!("━━ Figure 2 — the (1, m) air index ━━");
    // A small file: 12 data buckets, 1 index bucket, m = 3.
    let s = Schedule::try_new(12, 1, 3).expect("m and the index segment are nonzero");
    println!(
        "cycle of {} ticks: the index repeats {} times, preceding each 1/{} of the data",
        s.cycle_len(),
        s.m(),
        s.m()
    );
    // A client tuning in mid-cycle waits only until the *next* index.
    for t in [0u64, 4, 9] {
        println!(
            "  tune in at tick {t}: next index segment at tick {}",
            s.next_index_start(t)
        );
    }
    println!();
}

/// Figure 4: the on-air kNN search range on the Hilbert grid.
fn figure4_onair_knn() {
    println!("━━ Figure 4 — on-air kNN over the Hilbert curve ━━");
    // The figure's 8×8 grid (order-3 curve, indexes 0..63).
    let curve = HilbertCurve::new(3);
    assert_eq!(curve.cell_count(), 64);
    // q sits in the lower-middle of the grid, as drawn.
    let grid = Grid::new(Rect::from_coords(0.0, 0.0, 8.0, 8.0), 3);
    let q = Point::new(4.5, 1.5);
    println!(
        "query cell has curve index {} (grid cell {:?})",
        grid.value_of(q),
        grid.cell_of(q)
    );
    // A kNN search range like the figure's MBR spans a long stretch of
    // the broadcast order — that is the latency problem.
    let mbr = Rect::centered_square(q, 2.5);
    let mut ivs = Vec::new();
    grid.intervals_for_world_rect_into(&mbr, &mut ivs);
    let (a, b) = (ivs.first().unwrap().0, ivs.last().unwrap().1);
    println!(
        "the search MBR covers curve indexes {a}..{b} in {} interval(s) — {}% of the file",
        ivs.len(),
        100 * (b - a + 1) / 64
    );
    println!();
}

/// Figures 5–7: nearest-neighbor verification and the unverified region.
fn figures5to7_nnv() {
    println!("━━ Figures 5–7 — NNV over the merged verified region ━━");
    // Two peers' verified regions merge into a polygonal MVR.
    let vr1 = Rect::from_coords(0.0, 2.0, 8.0, 8.0);
    let vr2 = Rect::from_coords(3.0, 0.0, 10.0, 6.0);
    let pois = [
        Poi::new(1, Point::new(5.2, 4.8)), // o1 — near q
        Poi::new(2, Point::new(6.5, 6.0)), // o2
        Poi::new(3, Point::new(1.5, 3.0)), // o3
        Poi::new(4, Point::new(9.0, 5.0)), // o4 — near the MVR edge
        Poi::new(5, Point::new(4.0, 1.0)), // o5
    ];
    let attach = |vr: Rect| -> (Rect, Vec<Poi>) {
        (
            vr,
            pois.iter()
                .filter(|p| vr.contains(p.pos))
                .copied()
                .collect(),
        )
    };
    let mvr = MergedRegion::from_regions([attach(vr1), attach(vr2)]);
    let q = Point::new(5.0, 4.0);
    let (d_es, edge) = mvr.nearest_edge(q).unwrap();
    println!("q = {q:?} lies inside the MVR; nearest boundary edge at {d_es:.2} mi ({edge:?})");
    let heap = nnv(q, 4, &mvr, 0.3);
    for (i, e) in heap.entries().iter().enumerate() {
        if e.verified {
            println!(
                "  o{} at {:.2} mi ≤ ‖q,e_s‖ → VERIFIED {}-NN (Lemma 3.1, Fig. 5)",
                e.poi.id,
                e.distance,
                i + 1
            );
        } else {
            let u = unverified_area(q, e.distance, &mvr);
            println!(
                "  o{} at {:.2} mi → unverified (Fig. 6): unverified region = {:.2} mi², \
                 correctness e^(-λu) = {:.0}% (Lemma 3.2, Fig. 7)",
                e.poi.id,
                e.distance,
                u,
                100.0 * e.correctness.unwrap()
            );
        }
    }
    println!();
}

/// Figure 8: a window query's first and last points on the curve.
fn figure8_window_span() {
    println!("━━ Figure 8 — window query on the Hilbert index ━━");
    let grid = Grid::new(Rect::from_coords(0.0, 0.0, 8.0, 8.0), 3);
    let w = Rect::from_coords(2.2, 2.2, 5.8, 5.8);
    let cells = grid.cell_rect_for(&w).unwrap();
    let (a, b) = grid.curve().window_span(&cells);
    println!(
        "window {:?} → first point a = {a}, last point b = {b}: a naive client listens to \
         {}% of the cycle",
        w,
        100 * (b - a + 1) / 64
    );
    let mut ivs = Vec::new();
    grid.curve().intervals_for_rect_into(&cells, &mut ivs);
    let covered: u64 = ivs.iter().map(|(lo, hi)| hi - lo + 1).sum();
    println!(
        "exact interval decomposition needs only {} interval(s) covering {}% — and SBWQ \
         shrinks that further to whatever peers have not already verified (Fig. 9)",
        ivs.len(),
        100 * covered / 64
    );
    println!();
}

/// Table 2: the result heap with probabilities and surpassing ratios.
fn table2_heap() {
    println!("━━ Table 2 — the heap H ━━");
    // Reconstruct the table's scenario: verified o1 (2 mi) and o5 (3 mi),
    // unverified o4 (5 mi) and o3 (6 mi).
    let last_verified = Some(3.0);
    for (name, dist, verified, prob) in [
        ("o1", 2.0, true, None),
        ("o5", 3.0, true, None),
        ("o4", 5.0, false, Some(0.55)),
        ("o3", 6.0, false, Some(0.40)),
    ] {
        match (verified, prob) {
            (true, _) => println!("  {name}: {dist} mi — verified"),
            (false, Some(p)) => {
                let r = surpassing_ratio(dist, last_verified).unwrap();
                println!(
                    "  {name}: {dist} mi — correctness {:.0}%, surpassing ratio {:.2}, \
                     worst-case detour {:.1} mi",
                    100.0 * p,
                    r,
                    worst_case_detour(3.0, r)
                );
            }
            _ => unreachable!(),
        }
    }
    println!("\n(the paper's motorist example: taking o4 risks ≈ 2 extra miles — 3·(1.67−1))");
}
