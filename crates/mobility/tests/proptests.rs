//! Property tests for the mobility models and workloads.

use airshare_geom::Rect;
use airshare_mobility::{
    GridRoadWaypoint, Mobility, MobilityConfig, PoissonProcess, QueryScheduler, RandomWaypoint,
};
use proptest::prelude::*;

fn cfg(side: f64) -> MobilityConfig {
    MobilityConfig::vehicular(Rect::from_coords(0.0, 0.0, side, side))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn waypoint_confined_and_speed_bounded(
        seed in any::<u64>(),
        side in 2.0..40.0f64,
        steps in 50usize..400,
    ) {
        let c = cfg(side);
        let mut m = RandomWaypoint::new(&c, seed);
        let dt = 0.2;
        let mut prev = m.position_at(&c, 0.0);
        for i in 1..steps {
            let t = i as f64 * dt;
            let p = m.position_at(&c, t);
            prop_assert!(c.world.contains(p));
            prop_assert!(prev.distance(p) <= c.speed_max * dt + 1e-9);
            prev = p;
        }
    }

    #[test]
    fn roadgrid_confined_and_axis_aligned(
        seed in any::<u64>(),
        side in 2.0..40.0f64,
        spacing in 0.1..2.0f64,
        steps in 50usize..300,
    ) {
        let c = cfg(side);
        let mut m = GridRoadWaypoint::new(&c, spacing, seed);
        for i in 0..steps {
            let t = i as f64 * 0.3;
            let p = m.position_at(&c, t);
            prop_assert!(c.world.contains(p));
            let (vx, vy) = m.velocity_at(&c, t);
            prop_assert!(vx.abs() < 1e-9 || vy.abs() < 1e-9, "diagonal: ({vx},{vy})");
        }
    }

    #[test]
    fn mobility_is_deterministic(
        seed in any::<u64>(),
        times in prop::collection::vec(0.0..500.0f64, 1..30),
    ) {
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        let c = cfg(10.0);
        let mut a = RandomWaypoint::new(&c, seed);
        let mut b = RandomWaypoint::new(&c, seed);
        for &t in &sorted {
            prop_assert_eq!(a.position_at(&c, t), b.position_at(&c, t));
            let va = a.velocity_at(&c, t);
            let vb = b.velocity_at(&c, t);
            prop_assert_eq!(va, vb);
        }
    }

    #[test]
    fn heading_is_unit_when_moving(seed in any::<u64>()) {
        let c = cfg(10.0);
        let mut m = RandomWaypoint::new(&c, seed);
        for i in 0..200 {
            let t = i as f64 * 0.5;
            let (vx, vy) = m.velocity_at(&c, t);
            match m.heading_at(&c, t) {
                Some((hx, hy)) => {
                    prop_assert!((hx.hypot(hy) - 1.0).abs() < 1e-9);
                    // Heading aligns with velocity.
                    prop_assert!(hx * vx + hy * vy > 0.0);
                }
                None => prop_assert!(vx.hypot(vy) < 1e-9),
            }
        }
    }

    #[test]
    fn poisson_interarrivals_positive_and_rate_plausible(
        rate in 0.5..50.0f64,
        seed in any::<u64>(),
    ) {
        let mut p = PoissonProcess::new(rate, seed);
        let n = 2000;
        let mut prev = 0.0;
        for _ in 0..n {
            let t = p.next_event();
            prop_assert!(t > prev);
            prev = t;
        }
        // Mean inter-arrival ≈ 1/rate within generous bounds.
        let mean_gap = prev / n as f64;
        prop_assert!(
            (mean_gap * rate - 1.0).abs() < 0.15,
            "mean gap {mean_gap}, rate {rate}"
        );
    }

    #[test]
    fn scheduler_host_ids_in_range(
        hosts in 1usize..500,
        rate in 1.0..100.0f64,
        seed in any::<u64>(),
    ) {
        let mut s = QueryScheduler::new(rate, hosts, seed);
        for _ in 0..500 {
            let ev = s.next_query();
            prop_assert!(ev.host < hosts);
            prop_assert!(ev.time.is_finite() && ev.time > 0.0);
        }
    }
}
