//! Property-based tests for the geometry kernel.
//!
//! Every invariant here is one the SBNN/SBWQ algorithms lean on:
//! exact areas, disjoint decompositions, boundary semantics, interval
//! algebra, and the disk-area integrals behind Lemma 3.2.

use airshare_geom::disk::{disk_rect_area, disk_region_area, Disk};
use airshare_geom::{IntervalSet, Point, Rect, RectUnion, RegionScratch};
use proptest::prelude::*;

const TOL: f64 = 1e-6;

/// Total length of a set's runs.
fn len(s: &IntervalSet) -> f64 {
    s.runs().iter().map(|(lo, hi)| hi - lo).sum()
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-50.0..50.0f64, -50.0..50.0f64, 0.01..30.0f64, 0.01..30.0f64)
        .prop_map(|(x, y, w, h)| Rect::from_coords(x, y, x + w, y + h))
}

fn arb_rects(max: usize) -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec(arb_rect(), 1..max)
}

fn arb_point() -> impl Strategy<Value = Point> {
    (-60.0..60.0f64, -60.0..60.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// Rectangles on a half-unit grid, some nudged by a sliver (0.4e-9 to
/// 1e-7): abutting, nested, shared-edge and sliver-apart members are
/// common.
fn arb_snapped_rects() -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec(
        (0u32..16, 0u32..16, 1u32..8, 1u32..8, 0u32..6).prop_map(|(x, y, w, h, nudge)| {
            let (x, y) = (0.5 * x as f64, 0.5 * y as f64);
            let d = [0.0, 0.0, 0.0, 0.4e-9, 3e-9, 1e-7][nudge as usize];
            Rect::from_coords(x + d, y, x + 0.5 * w as f64, y + 0.5 * h as f64 + d)
        }),
        1..12,
    )
}

/// A probe on a member's corner, on one of its edges, on a grid point
/// (often inside), or anywhere.
fn probe_point(rects: &[Rect], pick: u32, t: f64, raw: Point) -> Point {
    let r = rects[(t * rects.len() as f64) as usize % rects.len()];
    match pick {
        0 => Point::new(
            [r.x1, r.x2][(t * 7.0) as usize % 2],
            [r.y1, r.y2][(t * 11.0) as usize % 2],
        ),
        1 => Point::new(r.x1 + t * r.width(), r.y2),
        2 => Point::new(
            (raw.x / 8.0).round() * 0.5 + 1.0,
            (raw.y / 8.0).round() * 0.5 + 1.0,
        ),
        _ => Point::new(raw.x / 6.0 + 4.0, raw.y / 6.0 + 4.0),
    }
}

/// Inclusion–exclusion area for up to a handful of rectangles, used as an
/// independent oracle for `RectUnion::area`.
fn oracle_union_area(rects: &[Rect]) -> f64 {
    let n = rects.len();
    assert!(n <= 20);
    let mut area = 0.0;
    for mask in 1u32..(1 << n) {
        let mut inter: Option<Rect> = None;
        for (i, r) in rects.iter().enumerate() {
            if mask & (1 << i) != 0 {
                inter = match inter {
                    None => Some(*r),
                    Some(acc) => match acc.intersection(r) {
                        Some(x) => Some(x),
                        None => {
                            inter = None;
                            break;
                        }
                    },
                };
                if inter.is_none() {
                    break;
                }
            }
        }
        if let Some(x) = inter {
            let sign = if mask.count_ones() % 2 == 1 {
                1.0
            } else {
                -1.0
            };
            area += sign * x.area();
        }
    }
    area
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn union_area_matches_inclusion_exclusion(rects in arb_rects(6)) {
        let u = RectUnion::from_rects(rects.clone());
        let expect = oracle_union_area(&rects);
        prop_assert!((u.area() - expect).abs() < TOL,
            "sweep {} vs oracle {}", u.area(), expect);
    }

    #[test]
    fn disjoint_decomposition_tiles_exactly(rects in arb_rects(7)) {
        let u = RectUnion::from_rects(rects);
        let tiles = u.disjoint_rects(&mut RegionScratch::default()).to_vec();
        let sum: f64 = tiles.iter().map(Rect::area).sum();
        prop_assert!((sum - u.area()).abs() < TOL);
        for (i, a) in tiles.iter().enumerate() {
            for b in &tiles[i + 1..] {
                prop_assert!(!a.intersects_interior(b), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn containment_agrees_with_member_rects(rects in arb_rects(6), p in arb_point()) {
        let u = RectUnion::from_rects(rects.clone());
        let direct = rects.iter().any(|r| r.contains(p));
        prop_assert_eq!(u.contains(p), direct);
    }

    #[test]
    fn boundary_distance_is_zero_set_separator(rects in arb_rects(5), p in arb_point()) {
        // Points strictly inside stay inside a ball of the boundary
        // distance; probe a few directions at 99% of the distance.
        let u = RectUnion::from_rects(rects);
        if u.contains(p) {
            if let Some((d, _)) = u.distance_to_boundary(p) {
                if d > 1e-4 {
                    for k in 0..8 {
                        let ang = k as f64 * std::f64::consts::FRAC_PI_4;
                        let q = p.offset(0.99 * d * ang.cos(), 0.99 * d * ang.sin());
                        prop_assert!(u.contains(q),
                            "ball point {q:?} escaped region (d = {d})");
                    }
                }
            }
        }
    }

    #[test]
    fn rect_difference_partitions_window(rects in arb_rects(5), w in arb_rect()) {
        let u = RectUnion::from_rects(rects);
        let diff = u.rect_difference(&w, &mut RegionScratch::default()).to_vec();
        let inter = u.rect_intersection(&w);
        let a_diff: f64 = diff.iter().map(Rect::area).sum();
        let a_inter: f64 = inter.iter().map(Rect::area).sum();
        prop_assert!((a_diff + a_inter - w.area()).abs() < TOL,
            "diff {} + inter {} != window {}", a_diff, a_inter, w.area());
        for d in &diff {
            prop_assert!(w.contains_rect(d));
            // Center of a difference piece is never interior to the union.
            prop_assert!(!u.contains_interior(d.center()));
        }
    }

    #[test]
    fn covers_rect_iff_difference_empty(rects in arb_rects(5), w in arb_rect()) {
        let u = RectUnion::from_rects(rects);
        let covered = u.rect_difference(&w, &mut RegionScratch::default()).is_empty();
        let a_inter: f64 = u.rect_intersection(&w).iter().map(Rect::area).sum();
        if covered {
            prop_assert!((a_inter - w.area()).abs() < TOL);
        } else {
            prop_assert!(a_inter < w.area() + TOL);
        }
    }

    #[test]
    fn boundary_distance_matches_edge_oracle(
        rects in arb_snapped_rects(),
        (pick, t, raw) in (0u32..4, 0.0..1.0f64, arb_point()),
        (cap_pick, cap_raw) in (0u32..4, 0.0..12.0f64),
    ) {
        let u = RectUnion::from_rects(rects.clone());
        let p = probe_point(&rects, pick, t, raw);
        // No shrinking in this harness: every message carries the case.
        let case = format!("rects {rects:?}, p {p:?}");
        let oracle = u
            .boundary_edges()
            .iter()
            .map(|e| e.distance_to_point(p))
            .fold(f64::INFINITY, f64::min);
        let (d, edge) = u.distance_to_boundary(p).expect("non-empty region has a boundary");
        prop_assert_eq!(d.to_bits(), oracle.to_bits(), "{}: swept {} vs oracle {}", case, d, oracle);
        prop_assert_eq!(edge.distance_to_point(p).to_bits(), d.to_bits(), "{}: edge {:?}", case, edge);
        let cap = [0.0, 1e-9, cap_raw, f64::INFINITY][cap_pick as usize];
        let within = u.distance_to_boundary_within(p, cap, &mut RegionScratch::default()).expect("non-empty");
        prop_assert_eq!(within.to_bits(), d.min(cap).to_bits(), "{}: cap {} gave {}", case, cap, within);
    }

    #[test]
    fn disk_rect_area_bounds(c in arb_point(), r in 0.0..40.0f64, rect in arb_rect()) {
        let d = Disk::new(c, r);
        let a = disk_rect_area(d, &rect);
        prop_assert!(a >= -TOL);
        prop_assert!(a <= rect.area() + TOL);
        prop_assert!(a <= d.area() + TOL);
    }

    #[test]
    fn disk_rect_area_additive_under_split(c in arb_point(), r in 0.1..40.0f64, rect in arb_rect()) {
        // Splitting the rectangle in half must preserve the total area.
        let d = Disk::new(c, r);
        let whole = disk_rect_area(d, &rect);
        let mid = 0.5 * (rect.x1 + rect.x2);
        let left = Rect::from_coords(rect.x1, rect.y1, mid, rect.y2);
        let right = Rect::from_coords(mid, rect.y1, rect.x2, rect.y2);
        let split = disk_rect_area(d, &left) + disk_rect_area(d, &right);
        prop_assert!((whole - split).abs() < TOL, "{whole} vs {split}");
    }

    #[test]
    fn disk_region_area_monotone_in_region(rects in arb_rects(5), c in arb_point(), r in 0.1..30.0f64) {
        let d = Disk::new(c, r);
        let all = RectUnion::from_rects(rects.clone());
        let fewer = RectUnion::from_rects(rects[..rects.len() - 1].to_vec());
        let a_all = disk_region_area(d, &all);
        let a_fewer = disk_region_area(d, &fewer);
        prop_assert!(a_all + TOL >= a_fewer, "{a_all} < {a_fewer}");
        prop_assert!(a_all <= d.area() + TOL);
    }

    #[test]
    fn interval_set_union_len_superadditive(
        a in prop::collection::vec((-100.0..100.0f64, 0.01..20.0f64), 0..8),
        b in prop::collection::vec((-100.0..100.0f64, 0.01..20.0f64), 0..8),
    ) {
        let sa = IntervalSet::from_intervals(a.iter().map(|&(lo, w)| (lo, lo + w)));
        let sb = IntervalSet::from_intervals(b.iter().map(|&(lo, w)| (lo, lo + w)));
        let u = sa.union(&sb);
        let i = sa.intersection(&sb);
        // |A ∪ B| + |A ∩ B| = |A| + |B|
        prop_assert!((len(&u) + len(&i) - len(&sa) - len(&sb)).abs() < TOL);
        // A \ B and B ∩ A partition A.
        let diff = sa.difference(&sb);
        prop_assert!((len(&diff) + len(&i) - len(&sa)).abs() < TOL);
        // Symmetric difference = union − intersection.
        let sym = sa.symmetric_difference(&sb);
        prop_assert!((len(&sym) - (len(&u) - len(&i))).abs() < TOL);
    }

    #[test]
    fn interval_membership_matches_inputs(
        ivs in prop::collection::vec((-100.0..100.0f64, 0.01..20.0f64), 1..8),
        (x, pick) in (-120.0..120.0f64, 0usize..4),
    ) {
        let s = IntervalSet::from_intervals(ivs.iter().map(|&(lo, w)| (lo, lo + w)));
        // Membership is exact, endpoints included: probe them too.
        let (lo, w) = ivs[0];
        let x = [x, lo, lo + w, x][pick];
        let direct = ivs.iter().any(|&(lo, w)| x >= lo && x <= lo + w);
        prop_assert_eq!(s.contains(x), direct, "{:?} at {}", ivs, x);
    }

    #[test]
    fn mbr_contains_every_member(rects in arb_rects(6)) {
        let u = RectUnion::from_rects(rects.clone());
        let mbr = u.mbr().unwrap();
        for r in &rects {
            prop_assert!(mbr.contains_rect(r));
        }
    }
}
