//! Monte-Carlo validation of Lemma 3.2 at the algorithm level.
//!
//! The simulator's calibration experiment checks the probability model
//! end-to-end; this test isolates the lemma itself: draw many Poisson
//! POI fields, fix a merged verified region, and compare the *predicted*
//! correctness of the first unverified candidate against its *empirical*
//! frequency of being the true next neighbor.

use airshare_broadcast::Poi;
use airshare_core::approx::{correctness_probability, unverified_area};
use airshare_core::MergedRegion;
use airshare_geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws a Poisson(λ·area) number of uniform points in `area`.
fn poisson_field(rng: &mut StdRng, lambda: f64, area: &Rect) -> Vec<Point> {
    // Knuth's method is fine at these intensities.
    let mean = lambda * area.area();
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            break;
        }
        k += 1;
        if k > 10_000 {
            break; // safety net; unreachable at test intensities
        }
    }
    (0..k)
        .map(|_| {
            Point::new(
                rng.gen_range(area.x1..area.x2),
                rng.gen_range(area.y1..area.y2),
            )
        })
        .collect()
}

#[test]
fn predicted_correctness_matches_empirical_frequency() {
    // World and verified region fixed; the candidate is a synthetic POI
    // just outside the verified radius, at a distance that leaves a
    // nontrivial unverified crescent.
    let world = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
    let vr = Rect::from_coords(6.0, 6.0, 14.0, 14.0);
    let q = Point::new(10.0, 10.0);
    let candidate_dist = 5.0; // reaches past the region's edge (4.0)
    let lambda = 0.25;

    // Predicted probability that no *hidden* POI is closer than the
    // candidate: e^{-λ·u} with u the disk area outside the VR. (The disk
    // stays inside the world here, so no domain clipping is needed.)
    let mvr = MergedRegion::from_regions([(vr, Vec::<Poi>::new())]);
    let u = unverified_area(q, candidate_dist, &mvr);
    assert!(u > 1.0, "test geometry should leave a real crescent: {u}");
    let predicted = correctness_probability(u, lambda);

    // Empirical: over many Poisson fields, how often does the uncovered
    // part of the disk contain no POI?
    let mut rng = StdRng::seed_from_u64(20070415);
    let trials = 4000;
    let mut clear = 0usize;
    for _ in 0..trials {
        let field = poisson_field(&mut rng, lambda, &world);
        let hidden = field
            .iter()
            .any(|p| p.distance(q) <= candidate_dist && !vr.contains(*p));
        if !hidden {
            clear += 1;
        }
    }
    let empirical = clear as f64 / trials as f64;
    // Binomial std-err at p≈0.5, n=4000 is ~0.008; allow 4σ plus model
    // fuzz from the exact-area integral.
    assert!(
        (empirical - predicted).abs() < 0.04,
        "predicted {predicted:.3} vs empirical {empirical:.3}"
    );
}

#[test]
fn zero_unverified_area_is_always_correct() {
    let vr = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
    let mvr = MergedRegion::from_regions([(vr, Vec::<Poi>::new())]);
    let u = unverified_area(Point::new(10.0, 10.0), 3.0, &mvr);
    assert!(u < 1e-9);
    assert_eq!(correctness_probability(u, 5.0), (5.0f64 * -u).exp());
    assert!((correctness_probability(0.0, 5.0) - 1.0).abs() < 1e-15);
}
