//! Approximate-answer quality estimation (Lemma 3.2 and the surpassing
//! ratio of §3.3.2).
//!
//! When NNV cannot verify a candidate `o`, the reason is always a region
//! of the disk `C(q, ‖q,o‖)` not covered by the merged verified region —
//! the *unverified region* `U`. If POIs follow a Poisson process of
//! density `λ` (per square mile), the probability that no POI hides in
//! `U` — i.e. that `o` really is the next nearest neighbor — is
//! `e^{-λ·area(U)}`.

use crate::MergedRegion;
use airshare_geom::disk::{disk_rect_area, Disk};
use airshare_geom::{Point, Rect};

/// Area of the unverified region of a candidate at distance `dist` from
/// `q`: the part of the disk `C(q, dist)` not covered by the MVR.
pub fn unverified_area(q: Point, dist: f64, mvr: &MergedRegion) -> f64 {
    unverified_area_of_tiles(q, dist, &mvr.region().disjoint_rects(), None)
}

/// [`unverified_area`] restricted to a bounded service domain: disk area
/// beyond the domain boundary cannot hide POIs (there are none outside
/// the served region), so counting it would systematically underestimate
/// correctness for hosts near the edge of the world.
pub fn unverified_area_in(q: Point, dist: f64, mvr: &MergedRegion, domain: &Rect) -> f64 {
    unverified_area_of_tiles(q, dist, &mvr.region().disjoint_rects(), Some(domain))
}

/// The unverified area over the MVR's tiles ([`RectUnion::disjoint_rects`],
/// which NNV computes once per query): the disk's area (in `domain`, if
/// given) minus its area in each tile, summed in tile order as
/// `disk_region_area` does. Tiles are clipped to the domain, so one
/// poking past it cancels no in-domain area. Clamped at zero: fp noise
/// must never produce a negative area (a probability above 1).
///
/// [`RectUnion::disjoint_rects`]: airshare_geom::RectUnion::disjoint_rects
pub fn unverified_area_of_tiles(q: Point, dist: f64, tiles: &[Rect], domain: Option<&Rect>) -> f64 {
    let disk = Disk::new(q, dist);
    let area = domain.map_or(disk.area(), |d| disk_rect_area(disk, d));
    let covered: f64 = tiles
        .iter()
        .filter_map(|t| domain.map_or(Some(*t), |d| t.intersection(d)))
        .map(|t| disk_rect_area(disk, &t))
        .sum();
    (area - covered).max(0.0)
}

/// Lemma 3.2: the probability that a candidate with unverified area `u`
/// is the true next nearest neighbor, for POI density `lambda`
/// (POIs per square mile).
pub fn correctness_probability(u: f64, lambda: f64) -> f64 {
    debug_assert!(u >= 0.0 && lambda >= 0.0);
    (-lambda * u).exp()
}

/// Convenience: probability for a candidate at `dist` from `q` given the
/// MVR, per Lemma 3.2. `domain` bounds the service area when known.
pub fn candidate_correctness(
    q: Point,
    dist: f64,
    mvr: &MergedRegion,
    lambda: f64,
    domain: Option<&Rect>,
) -> f64 {
    let tiles = mvr.region().disjoint_rects();
    correctness_probability(unverified_area_of_tiles(q, dist, &tiles, domain), lambda)
}

/// The surpassing ratio `‖q,o_u‖ / ‖q,o_lv‖` of an unverified candidate
/// against the last verified one (Table 2). Returns `None` when there is
/// no verified anchor or it is at distance zero.
pub fn surpassing_ratio(unverified_dist: f64, last_verified_dist: Option<f64>) -> Option<f64> {
    match last_verified_dist {
        Some(d) if d > 0.0 => Some(unverified_dist / d),
        _ => None,
    }
}

/// Worst-case extra travel if the user accepts an unverified candidate
/// and it turns out wrong (§3.3.2's motorist example: with last verified
/// distance `r` and ratio `ρ`, the detour is about `r(ρ − 1)`).
pub fn worst_case_detour(last_verified_dist: f64, ratio: f64) -> f64 {
    (last_verified_dist * (ratio - 1.0)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshare_broadcast::Poi;
    use airshare_geom::Rect;
    use std::f64::consts::PI;

    fn mvr(rects: &[Rect]) -> MergedRegion {
        MergedRegion::from_regions(rects.iter().map(|r| (*r, Vec::<Poi>::new())))
    }

    #[test]
    fn fully_covered_disk_has_probability_one() {
        let m = mvr(&[Rect::from_coords(-10.0, -10.0, 10.0, 10.0)]);
        let u = unverified_area(Point::ORIGIN, 2.0, &m);
        assert!(u < 1e-9);
        assert!(
            (candidate_correctness(Point::ORIGIN, 2.0, &m, 0.3, None) - 1.0).abs() < 1e-9
        );
    }

    #[test]
    fn domain_clipping_raises_correctness_at_the_edge() {
        // Query in the world's corner: most of the candidate disk lies
        // outside the served region and cannot hide POIs.
        let world = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let m = mvr(&[]);
        let q = Point::new(0.0, 0.0);
        let unbounded = candidate_correctness(q, 2.0, &m, 0.5, None);
        let bounded = candidate_correctness(q, 2.0, &m, 0.5, Some(&world));
        assert!(bounded > unbounded);
        // A quarter of the disk is inside: u = π·4/4.
        let u = unverified_area_in(q, 2.0, &m, &world);
        assert!((u - std::f64::consts::PI) .abs() < 1e-9);
    }

    #[test]
    fn tiles_past_the_domain_do_not_cancel_in_domain_area() {
        // The tile reaches 1 past the domain's left edge; only its
        // in-domain part [0, 0.5]×[4, 6] covers anything.
        let world = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let tile = Rect::from_coords(-1.0, 4.0, 0.5, 6.0);
        let (q, dist) = (Point::new(0.5, 5.0), 1.0);
        let disk = Disk::new(q, dist);
        let expect = disk_rect_area(disk, &world)
            - disk_rect_area(disk, &Rect::from_coords(0.0, 4.0, 0.5, 6.0));
        let u = unverified_area_in(q, dist, &mvr(&[tile]), &world);
        assert!((u - expect).abs() < 1e-12, "u = {u}, expected {expect}");
        assert_eq!(u, unverified_area_of_tiles(q, dist, &[tile], Some(&world)));
    }

    #[test]
    fn uncovered_disk_probability_decays_with_lambda() {
        let m = mvr(&[]);
        let u = unverified_area(Point::ORIGIN, 1.0, &m);
        assert!((u - PI).abs() < 1e-9);
        let p_sparse = correctness_probability(u, 0.1);
        let p_dense = correctness_probability(u, 2.0);
        assert!(p_sparse > p_dense);
        assert!((p_sparse - (-0.1 * PI).exp()).abs() < 1e-12);
    }

    #[test]
    fn paper_worked_example() {
        // §3.3.2: λ = 0.3 POIs per square unit, unverified region of 2
        // square units → e^{-0.6} ≈ 0.5488 → "the probability that o4 is
        // the true third nearest POI of q is 55 %".
        let p = correctness_probability(2.0, 0.3);
        assert!((p - 0.5488).abs() < 1e-3, "p = {p}");
    }

    #[test]
    fn half_covered_disk() {
        // MVR covers exactly the right half-plane portion of the disk.
        let m = mvr(&[Rect::from_coords(0.0, -10.0, 10.0, 10.0)]);
        let u = unverified_area(Point::ORIGIN, 2.0, &m);
        assert!((u - 0.5 * PI * 4.0).abs() < 1e-6, "u = {u}");
    }

    #[test]
    fn surpassing_ratio_matches_table2() {
        // Table 2: last verified o5 at 3 miles; o4 at 5 → 1.67; o3 at 6 → 2.0.
        let r4 = surpassing_ratio(5.0, Some(3.0)).unwrap();
        let r3 = surpassing_ratio(6.0, Some(3.0)).unwrap();
        assert!((r4 - 5.0 / 3.0).abs() < 1e-12);
        assert!((r3 - 2.0).abs() < 1e-12);
        assert_eq!(surpassing_ratio(5.0, None), None);
        assert_eq!(surpassing_ratio(5.0, Some(0.0)), None);
    }

    #[test]
    fn detour_from_papers_motorist() {
        // "he has to drive approximately two more miles (3·(1.67−1) ≈ 2)".
        let d = worst_case_detour(3.0, 5.0 / 3.0);
        assert!((d - 2.0).abs() < 1e-9);
        assert_eq!(worst_case_detour(3.0, 0.9), 0.0);
    }

    #[test]
    fn probability_monotone_in_distance() {
        // Larger candidate distance ⇒ (weakly) larger unverified area ⇒
        // lower correctness.
        let m = mvr(&[Rect::from_coords(-1.0, -1.0, 1.0, 1.0)]);
        let p1 = candidate_correctness(Point::ORIGIN, 1.0, &m, 0.5, None);
        let p2 = candidate_correctness(Point::ORIGIN, 2.0, &m, 0.5, None);
        let p3 = candidate_correctness(Point::ORIGIN, 3.0, &m, 0.5, None);
        assert!(p1 >= p2 && p2 >= p3);
        assert!(p1 <= 1.0 && p3 > 0.0);
    }
}
