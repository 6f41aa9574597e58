//! Property tests: the bulk-loaded R-tree must agree with the linear scan
//! oracle on every query type.

use airshare_geom::{Point, Rect};
use airshare_rtree::{LinearScan, RTree};
use proptest::prelude::*;

fn arb_points(max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), 1..max)
}

fn build(pairs: &[(f64, f64)]) -> (RTree<usize>, LinearScan<usize>) {
    let items: Vec<(Point, usize)> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (Point::new(x, y), i))
        .collect();
    let scan = LinearScan::from_items(items.clone());
    (RTree::bulk_load(items), scan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn knn_matches_scan(
        pts in arb_points(300),
        qx in -10.0..110.0f64, qy in -10.0..110.0f64,
        k in 1usize..20,
    ) {
        let (tree, scan) = build(&pts);
        tree.check_invariants();
        let q = Point::new(qx, qy);
        let a = tree.knn(q, k);
        let b = scan.knn(q, k);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            // Distances must agree exactly up to fp noise (ties may swap
            // payloads, so compare distances not ids).
            prop_assert!((x.distance - y.distance).abs() < 1e-9,
                "{} vs {}", x.distance, y.distance);
        }
    }

    #[test]
    fn window_matches_scan(
        pts in arb_points(300),
        x in 0.0..90.0f64, y in 0.0..90.0f64, w in 0.0..40.0f64, h in 0.0..40.0f64,
    ) {
        let (tree, scan) = build(&pts);
        let window = Rect::from_coords(x, y, x + w, y + h);
        let mut a: Vec<usize> = tree.window(&window).into_iter().map(|(_, &i)| i).collect();
        let mut b: Vec<usize> = scan.window(&window).into_iter().map(|(_, &i)| i).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn knn_distances_ascend_and_bound_rest(
        pts in arb_points(200),
        qx in 0.0..100.0f64, qy in 0.0..100.0f64,
        k in 1usize..10,
    ) {
        let (tree, _) = build(&pts);
        let q = Point::new(qx, qy);
        let res = tree.knn(q, k);
        for w in res.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance + 1e-12);
        }
        // The k-th distance lower-bounds every non-returned item.
        if res.len() == k {
            let kth = res.last().unwrap().distance;
            let mut count_closer = 0;
            for &(x, y) in &pts {
                if Point::new(x, y).distance(q) < kth - 1e-9 {
                    count_closer += 1;
                }
            }
            prop_assert!(count_closer <= k);
        }
    }
}
