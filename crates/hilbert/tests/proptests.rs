//! Property-based tests for the Hilbert curve codec and decomposition.

use airshare_geom::{Point, Rect};
use airshare_hilbert::{CellRect, Grid, HilbertCurve};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_any_order(order in 1u32..=16, seed in any::<u64>()) {
        let c = HilbertCurve::new(order);
        let d = seed % c.cell_count();
        let (x, y) = c.decode(d);
        prop_assert!(x < c.side() && y < c.side());
        prop_assert_eq!(c.encode(x, y), d);
    }

    #[test]
    fn locality_consecutive_cells_adjacent(order in 2u32..=12, seed in any::<u64>()) {
        let c = HilbertCurve::new(order);
        let d = seed % (c.cell_count() - 1);
        let (x0, y0) = c.decode(d);
        let (x1, y1) = c.decode(d + 1);
        let manhattan = (x0 as i64 - x1 as i64).abs() + (y0 as i64 - y1 as i64).abs();
        prop_assert_eq!(manhattan, 1);
    }

    #[test]
    fn interval_decomposition_exact(
        order in 2u32..=6,
        ax in 0u32..64, ay in 0u32..64, bx in 0u32..64, by in 0u32..64,
    ) {
        let c = HilbertCurve::new(order);
        let m = c.side() - 1;
        let rect = CellRect::new(
            (ax % c.side()).min(bx % c.side()).min(m),
            (ay % c.side()).min(by % c.side()).min(m),
            (ax % c.side()).max(bx % c.side()).min(m),
            (ay % c.side()).max(by % c.side()).min(m),
        );
        let mut ivs = Vec::new();
        c.intervals_for_rect_into(&rect, &mut ivs);
        // Total interval length equals the cell count.
        let total: u64 = ivs.iter().map(|&(lo, hi)| hi - lo + 1).sum();
        prop_assert_eq!(total, rect.cell_count());
        // Intervals are sorted, disjoint, and maximal.
        for w in ivs.windows(2) {
            prop_assert!(w[1].0 > w[0].1 + 1);
        }
        // Spot-check membership of every cell in a small rect.
        if rect.cell_count() <= 256 {
            for x in rect.x1..=rect.x2 {
                for y in rect.y1..=rect.y2 {
                    let d = c.encode(x, y);
                    prop_assert!(ivs.iter().any(|&(lo, hi)| d >= lo && d <= hi));
                }
            }
        }
    }

    #[test]
    fn grid_point_maps_into_its_cell_rect(
        order in 1u32..=8,
        px in 0.0..100.0f64, py in 0.0..100.0f64,
    ) {
        let g = Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), order);
        let p = Point::new(px, py);
        let (cx, cy) = g.cell_of(p);
        let r = g.cell_rect(cx, cy);
        prop_assert!(r.contains(p), "{p:?} not in {r:?}");
    }

    #[test]
    fn grid_intervals_cover_contained_points(
        order in 2u32..=7,
        x in 0.0..90.0f64, y in 0.0..90.0f64, w in 0.5..10.0f64, h in 0.5..10.0f64,
        px in 0.0..1.0f64, py in 0.0..1.0f64,
    ) {
        let g = Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), order);
        let window = Rect::from_coords(x, y, x + w, y + h);
        let mut ivs = Vec::new();
        g.intervals_for_world_rect_into(&window, &mut ivs);
        // A point inside the window must have its curve value covered.
        let p = Point::new(x + px * w, y + py * h);
        let d = g.value_of(p);
        prop_assert!(
            ivs.iter().any(|&(lo, hi)| d >= lo && d <= hi),
            "point {p:?} value {d} escaped intervals {ivs:?}"
        );
    }

    #[test]
    fn lut_codec_matches_bitwise_reference(order in 1u32..=12, seed in any::<u64>()) {
        let c = HilbertCurve::new(order);
        // A random cell: the table-driven codec and the bitwise
        // reference loop must agree in both directions.
        let d = seed % c.cell_count();
        let (x, y) = c.decode_reference(d);
        prop_assert_eq!(c.decode(d), (x, y));
        prop_assert_eq!(c.encode(x, y), c.encode_reference(x, y));
        prop_assert_eq!(c.encode(x, y), d);
    }

    #[test]
    fn iterative_decomposition_matches_allocating_api(
        order in 2u32..=10,
        ax in any::<u32>(), ay in any::<u32>(), w in 0u32..512, h in 0u32..512,
    ) {
        let c = HilbertCurve::new(order);
        let m = c.side() - 1;
        let x1 = ax % c.side();
        let y1 = ay % c.side();
        let rect = CellRect::new(x1, y1, x1.saturating_add(w).min(m), y1.saturating_add(h).min(m));
        let mut alloc = Vec::new();
        c.intervals_for_rect_into(&rect, &mut alloc);
        // A reused buffer is cleared of stale contents first, so it gets
        // the identical interval list a freshly allocated one does.
        let mut reused = vec![(9999u64, 9999u64); 3];
        c.intervals_for_rect_into(&rect, &mut reused);
        prop_assert_eq!(&reused, &alloc);
        // And both match the recursive pre-optimization oracle.
        prop_assert_eq!(alloc, c.intervals_for_rect_reference(&rect));
    }

    #[test]
    fn window_span_is_tight(order in 2u32..=6, ax in 0u32..64, ay in 0u32..64, s in 0u32..16) {
        let c = HilbertCurve::new(order);
        let m = c.side() - 1;
        let x1 = ax % c.side();
        let y1 = ay % c.side();
        let rect = CellRect::new(x1, y1, (x1 + s).min(m), (y1 + s).min(m));
        let (a, b) = c.window_span(&rect);
        // Brute force min/max.
        let mut lo = u64::MAX;
        let mut hi = 0;
        for x in rect.x1..=rect.x2 {
            for y in rect.y1..=rect.y2 {
                let d = c.encode(x, y);
                lo = lo.min(d);
                hi = hi.max(d);
            }
        }
        prop_assert_eq!((a, b), (lo, hi));
    }
}
