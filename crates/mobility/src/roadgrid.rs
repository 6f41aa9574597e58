//! Manhattan-grid road network mobility.
//!
//! The paper maps random-waypoint trajectories onto an (unavailable)
//! Southern-California road network. This model substitutes a synthetic
//! grid of north–south and east–west streets at fixed spacing: hosts pick
//! a random intersection as the next waypoint and drive an L-shaped route
//! (first along `x`, then along `y`) at constant speed. The substitution
//! preserves what the evaluation depends on — bounded speeds, bounded
//! world, locally correlated headings — while staying fully synthetic.

use crate::{Mobility, MobilityConfig};
use airshare_geom::Point;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A straight sub-segment of an L-shaped route.
#[derive(Clone, Copy, Debug)]
struct Hop {
    from: Point,
    to: Point,
    depart: f64,
    arrive: f64,
}

impl Hop {
    fn position_at(&self, t: f64) -> Point {
        if t <= self.depart {
            self.from
        } else if t >= self.arrive {
            self.to
        } else {
            self.from
                .lerp(self.to, (t - self.depart) / (self.arrive - self.depart))
        }
    }

    fn velocity_at(&self, t: f64) -> (f64, f64) {
        if t <= self.depart || t >= self.arrive || self.arrive <= self.depart {
            (0.0, 0.0)
        } else {
            let dt = self.arrive - self.depart;
            (
                (self.to.x - self.from.x) / dt,
                (self.to.y - self.from.y) / dt,
            )
        }
    }
}

/// Waypoint mobility constrained to a synthetic street grid.
///
/// Like [`crate::RandomWaypoint`], the model stores no
/// [`MobilityConfig`]: pass the one it was built with to every call. The
/// street spacing is its own, clamped to that config's world.
#[derive(Clone, Debug)]
pub struct GridRoadWaypoint {
    /// Street spacing in miles.
    spacing: f64,
    rng: SmallRng,
    hops: [Hop; 2],
    /// End of the second hop plus the pause that follows.
    route_end: f64,
    last_t: f64,
}

impl GridRoadWaypoint {
    /// Creates a host starting at a random intersection.
    ///
    /// `spacing` is the street pitch in miles (e.g. 0.25 for dense urban
    /// blocks); it is clamped to at most half the world's short side so a
    /// grid always exists.
    pub fn new(config: &MobilityConfig, spacing: f64, seed: u64) -> Self {
        assert!(spacing > 0.0, "street spacing must be positive");
        let spacing = spacing.min(0.5 * config.world.width().min(config.world.height()));
        let mut rng = SmallRng::seed_from_u64(seed);
        let start = snap_to_grid(config.sample_point(&mut rng), config, spacing);
        let stay = Hop {
            from: start,
            to: start,
            depart: 0.0,
            arrive: 0.0,
        };
        let mut g = Self {
            spacing,
            rng,
            hops: [stay, stay],
            route_end: 0.0,
            last_t: 0.0,
        };
        g.next_route(config);
        g
    }

    fn next_route(&mut self, config: &MobilityConfig) {
        let from = self.hops[1].to;
        let dest = snap_to_grid(config.sample_point(&mut self.rng), config, self.spacing);
        let speed = config.sample_speed(&mut self.rng);
        let pause = config.sample_pause(&mut self.rng);
        // L-route: east/west first, then north/south.
        let corner = Point::new(dest.x, from.y);
        let depart = self.route_end;
        let t1 = depart + (dest.x - from.x).abs() / speed;
        let t2 = t1 + (dest.y - from.y).abs() / speed;
        self.hops = [
            Hop {
                from,
                to: corner,
                depart,
                arrive: t1,
            },
            Hop {
                from: corner,
                to: dest,
                depart: t1,
                arrive: t2,
            },
        ];
        self.route_end = t2 + pause;
    }

    fn advance_to(&mut self, config: &MobilityConfig, t: f64) {
        assert!(
            t >= self.last_t,
            "mobility time went backwards: {t} < {}",
            self.last_t
        );
        self.last_t = t;
        while t > self.route_end {
            self.next_route(config);
        }
    }

    fn current_hop(&self, t: f64) -> &Hop {
        if t <= self.hops[0].arrive {
            &self.hops[0]
        } else {
            &self.hops[1]
        }
    }
}

/// Snaps a point to the nearest grid intersection, clamped to the world.
fn snap_to_grid(p: Point, config: &MobilityConfig, spacing: f64) -> Point {
    let w = &config.world;
    let sx = w.x1 + ((p.x - w.x1) / spacing).round() * spacing;
    let sy = w.y1 + ((p.y - w.y1) / spacing).round() * spacing;
    w.clamp_point(Point::new(sx, sy))
}

impl Mobility for GridRoadWaypoint {
    fn position_at(&mut self, config: &MobilityConfig, t: f64) -> Point {
        self.advance_to(config, t);
        self.current_hop(t).position_at(t)
    }

    fn velocity_at(&mut self, config: &MobilityConfig, t: f64) -> (f64, f64) {
        self.advance_to(config, t);
        self.current_hop(t).velocity_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshare_geom::Rect;

    fn cfg() -> MobilityConfig {
        MobilityConfig::vehicular(Rect::from_coords(0.0, 0.0, 20.0, 20.0))
    }

    #[test]
    fn stays_inside_world() {
        let mut g = GridRoadWaypoint::new(&cfg(), 0.5, 17);
        for i in 0..5000 {
            let p = g.position_at(&cfg(), i as f64 * 0.3);
            assert!(cfg().world.contains(p));
        }
    }

    #[test]
    fn moves_axis_aligned() {
        let mut g = GridRoadWaypoint::new(&cfg(), 0.5, 4);
        for i in 0..4000 {
            let (vx, vy) = g.velocity_at(&cfg(), i as f64 * 0.2);
            // On an L-route, at most one velocity component is nonzero.
            assert!(
                vx.abs() < 1e-9 || vy.abs() < 1e-9,
                "diagonal motion: ({vx}, {vy})"
            );
        }
    }

    #[test]
    fn waypoints_are_on_grid() {
        // While paused (zero velocity), position must be an intersection.
        let mut g = GridRoadWaypoint::new(&cfg(), 0.5, 21);
        let mut checked = 0;
        for i in 0..20000 {
            let t = i as f64 * 0.05;
            let (vx, vy) = g.velocity_at(&cfg(), t);
            if vx == 0.0 && vy == 0.0 {
                let p = g.position_at(&cfg(), t);
                let fx = (p.x / 0.5).round() * 0.5;
                let fy = (p.y / 0.5).round() * 0.5;
                // Paused points are grid intersections or L-corners (also
                // on-grid in x); both coordinates must be near multiples.
                assert!(
                    (p.x - fx).abs() < 1e-6 && (p.y - fy).abs() < 1e-6,
                    "pause off-grid at {p:?}"
                );
                checked += 1;
            }
        }
        assert!(checked > 10);
    }

    #[test]
    fn continuous_trajectory() {
        let mut g = GridRoadWaypoint::new(&cfg(), 0.25, 9);
        let dt = 0.01;
        let mut prev = g.position_at(&cfg(), 0.0);
        for i in 1..10000 {
            let p = g.position_at(&cfg(), i as f64 * dt);
            assert!(prev.distance(p) <= cfg().speed_max * dt + 1e-9);
            prev = p;
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = GridRoadWaypoint::new(&cfg(), 0.5, 33);
        let mut b = GridRoadWaypoint::new(&cfg(), 0.5, 33);
        for i in 0..200 {
            let t = i as f64 * 1.1;
            assert_eq!(a.position_at(&cfg(), t), b.position_at(&cfg(), t));
        }
    }
}
