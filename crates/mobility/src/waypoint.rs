//! The random waypoint model.

use crate::Mobility;
use airshare_geom::{Point, Rect};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Shared parameters of a waypoint-style mobility model.
///
/// Speeds are in miles per minute (60 mph = 1 mi/min); pauses in minutes.
/// Every host of a fleet has the same parameters, so the fleet holds them
/// once: a model keeps only its own trajectory state and is handed the
/// config on every call — the one it was built with.
#[derive(Clone, Copy, Debug)]
pub struct MobilityConfig {
    /// The area hosts roam in.
    pub world: Rect,
    /// Minimum travel speed (mi/min), > 0.
    pub speed_min: f64,
    /// Maximum travel speed (mi/min), ≥ `speed_min`.
    pub speed_max: f64,
    /// Minimum pause at each waypoint (minutes).
    pub pause_min: f64,
    /// Maximum pause at each waypoint (minutes).
    pub pause_max: f64,
}

impl MobilityConfig {
    /// A plausible vehicular default: 15–45 mph, brief stops.
    pub fn vehicular(world: Rect) -> Self {
        Self {
            world,
            speed_min: 0.25, // 15 mph
            speed_max: 0.75, // 45 mph
            pause_min: 0.0,
            pause_max: 1.0,
        }
    }

    fn validate(&self) {
        assert!(!self.world.is_degenerate(), "world must have area");
        assert!(self.speed_min > 0.0 && self.speed_max >= self.speed_min);
        assert!(self.pause_min >= 0.0 && self.pause_max >= self.pause_min);
    }

    pub(crate) fn sample_point(&self, rng: &mut SmallRng) -> Point {
        Point::new(
            rng.gen_range(self.world.x1..=self.world.x2),
            rng.gen_range(self.world.y1..=self.world.y2),
        )
    }

    pub(crate) fn sample_speed(&self, rng: &mut SmallRng) -> f64 {
        if self.speed_max > self.speed_min {
            rng.gen_range(self.speed_min..self.speed_max)
        } else {
            self.speed_min
        }
    }

    pub(crate) fn sample_pause(&self, rng: &mut SmallRng) -> f64 {
        if self.pause_max > self.pause_min {
            rng.gen_range(self.pause_min..self.pause_max)
        } else {
            self.pause_min
        }
    }
}

/// One travel leg: pause at `from` until `depart`, move to `to` in a
/// straight line arriving at `arrive`.
#[derive(Clone, Copy, Debug)]
struct Leg {
    from: Point,
    to: Point,
    depart: f64,
    arrive: f64,
}

impl Leg {
    fn position_at(&self, t: f64) -> Point {
        if t <= self.depart {
            self.from
        } else if t >= self.arrive {
            self.to
        } else {
            let f = (t - self.depart) / (self.arrive - self.depart);
            self.from.lerp(self.to, f)
        }
    }

    fn velocity_at(&self, t: f64) -> (f64, f64) {
        if t <= self.depart || t >= self.arrive {
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

/// Random waypoint mobility (Broch et al., ref \[3\] of the paper):
/// repeatedly pick a uniform
/// destination in the world, travel to it in a straight line at a
/// uniform-random speed, pause, repeat.
///
/// The host's full trajectory is determined by the seed and the
/// [`MobilityConfig`]; positions are computed lazily, so a fleet of 100k
/// hosts costs nothing until queried. The model stores no parameters:
/// pass the config it was built with to every call.
#[derive(Clone, Debug)]
pub struct RandomWaypoint {
    rng: SmallRng,
    leg: Leg,
    /// End of the current leg including the pause that follows arrival.
    leg_end: f64,
    last_t: f64,
}

impl RandomWaypoint {
    /// Creates a host starting at a uniform-random position at time 0.
    pub fn new(config: &MobilityConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = SmallRng::seed_from_u64(seed);
        let start = config.sample_point(&mut rng);
        let mut rw = Self {
            rng,
            leg: Leg {
                from: start,
                to: start,
                depart: 0.0,
                arrive: 0.0,
            },
            leg_end: 0.0,
            last_t: 0.0,
        };
        rw.next_leg(config);
        rw
    }

    fn next_leg(&mut self, config: &MobilityConfig) {
        let from = self.leg.to;
        let to = config.sample_point(&mut self.rng);
        let speed = config.sample_speed(&mut self.rng);
        let pause = config.sample_pause(&mut self.rng);
        let depart = self.leg_end;
        let arrive = depart + from.distance(to) / speed;
        self.leg = Leg {
            from,
            to,
            depart,
            arrive,
        };
        self.leg_end = arrive + pause;
    }

    fn advance_to(&mut self, config: &MobilityConfig, t: f64) {
        assert!(
            t >= self.last_t,
            "mobility time went backwards: {t} < {}",
            self.last_t
        );
        self.last_t = t;
        while t > self.leg_end {
            self.next_leg(config);
        }
    }
}

impl Mobility for RandomWaypoint {
    fn position_at(&mut self, config: &MobilityConfig, t: f64) -> Point {
        self.advance_to(config, t);
        self.leg.position_at(t)
    }

    fn velocity_at(&mut self, config: &MobilityConfig, t: f64) -> (f64, f64) {
        self.advance_to(config, t);
        self.leg.velocity_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MobilityConfig {
        MobilityConfig::vehicular(Rect::from_coords(0.0, 0.0, 20.0, 20.0))
    }

    #[test]
    fn stays_inside_world() {
        let mut rw = RandomWaypoint::new(&cfg(), 42);
        for i in 0..5000 {
            let p = rw.position_at(&cfg(), i as f64 * 0.5);
            assert!(cfg().world.contains(p), "escaped at t={}: {p:?}", i);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = RandomWaypoint::new(&cfg(), 7);
        let mut b = RandomWaypoint::new(&cfg(), 7);
        for i in 0..100 {
            let t = i as f64 * 3.7;
            assert_eq!(a.position_at(&cfg(), t), b.position_at(&cfg(), t));
        }
        let mut c = RandomWaypoint::new(&cfg(), 8);
        let mut a2 = RandomWaypoint::new(&cfg(), 7);
        let far = (0..50).any(|i| {
            let t = i as f64;
            a2.position_at(&cfg(), t).distance(c.position_at(&cfg(), t)) > 1.0
        });
        assert!(far, "different seeds should diverge");
    }

    #[test]
    fn speed_respects_bounds_while_moving() {
        let mut rw = RandomWaypoint::new(&cfg(), 3);
        let mut moving_samples = 0;
        for i in 0..2000 {
            let t = i as f64 * 0.25;
            let (vx, vy) = rw.velocity_at(&cfg(), t);
            let speed = vx.hypot(vy);
            if speed > 0.0 {
                moving_samples += 1;
                assert!(
                    speed >= cfg().speed_min - 1e-9 && speed <= cfg().speed_max + 1e-9,
                    "speed {speed} out of bounds"
                );
            }
        }
        assert!(moving_samples > 100, "host should move most of the time");
    }

    #[test]
    fn position_is_continuous() {
        let mut rw = RandomWaypoint::new(&cfg(), 11);
        let mut prev = rw.position_at(&cfg(), 0.0);
        let dt = 0.01;
        for i in 1..20000 {
            let t = i as f64 * dt;
            let p = rw.position_at(&cfg(), t);
            let jump = prev.distance(p);
            assert!(
                jump <= cfg().speed_max * dt + 1e-9,
                "teleport at t={t}: {jump}"
            );
            prev = p;
        }
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_must_not_rewind() {
        let mut rw = RandomWaypoint::new(&cfg(), 1);
        rw.position_at(&cfg(), 10.0);
        rw.position_at(&cfg(), 5.0);
    }

    #[test]
    fn heading_is_unit_or_none() {
        let mut rw = RandomWaypoint::new(&cfg(), 9);
        for i in 0..500 {
            let t = i as f64 * 0.5;
            if let Some((hx, hy)) = rw.heading_at(&cfg(), t) {
                assert!((hx.hypot(hy) - 1.0).abs() < 1e-9);
            }
        }
    }
}
