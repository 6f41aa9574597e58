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
/// straight line arriving at `arrive`, pause there until `end`. All a
/// host's position needs until `end` passes: 56 B, the fleet's hot
/// column.
#[derive(Clone, Copy, Debug)]
struct Leg {
    from: Point,
    to: Point,
    depart: f64,
    arrive: f64,
    /// End of the leg including the pause that follows arrival.
    end: f64,
}

impl Leg {
    /// A host's first leg, drawn from its fresh stream: a uniform-random
    /// start at time 0 and the trip out of it.
    fn first(config: &MobilityConfig, rng: &mut SmallRng) -> Self {
        config.validate();
        let start = config.sample_point(rng);
        let mut leg = Leg {
            from: start,
            to: start,
            depart: 0.0,
            arrive: 0.0,
            end: 0.0,
        };
        leg.next(config, rng);
        leg
    }

    /// Steps legs until `t` falls within this one: the trajectory's one
    /// stepping rule, shared by [`RandomWaypoint`] and [`WaypointFleet`].
    /// Its result depends on the latest `t` only, not on the times it
    /// was called at before.
    #[inline]
    fn reach(&mut self, config: &MobilityConfig, rng: &mut SmallRng, t: f64) {
        while t > self.end {
            self.next(config, rng);
        }
    }

    /// Replaces the leg with the one after it. Rare on a fleet pass (a
    /// leg lasts minutes), so kept out of its loop.
    #[inline(never)]
    fn next(&mut self, config: &MobilityConfig, rng: &mut SmallRng) {
        let from = self.to;
        let to = config.sample_point(rng);
        let speed = config.sample_speed(rng);
        let pause = config.sample_pause(rng);
        let depart = self.end;
        let arrive = depart + from.distance(to) / speed;
        *self = Leg {
            from,
            to,
            depart,
            arrive,
            end: arrive + pause,
        };
    }

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

/// A host's draw stream and the last time it was evaluated at: the
/// state only a leg's end or the host's own evaluation reads, 40 B.
#[derive(Clone, Debug)]
struct Stream {
    rng: SmallRng,
    clock: f64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            clock: 0.0,
        }
    }

    /// Sets the clock to `t`, which must be no earlier than the clock
    /// or than `floor`.
    fn tick(&mut self, t: f64, floor: f64) {
        let last = self.clock.max(floor);
        assert!(t >= last, "mobility time went backwards: {t} < {last}");
        self.clock = t;
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
/// pass the config it was built with to every call. This is the
/// one-host form; [`WaypointFleet`] holds many hosts by column and
/// moves them along the same trajectories.
#[derive(Clone, Debug)]
pub struct RandomWaypoint {
    leg: Leg,
    stream: Stream,
}

impl RandomWaypoint {
    /// Creates a host starting at a uniform-random position at time 0.
    pub fn new(config: &MobilityConfig, seed: u64) -> Self {
        let mut stream = Stream::new(seed);
        let leg = Leg::first(config, &mut stream.rng);
        Self { leg, stream }
    }

    fn advance_to(&mut self, config: &MobilityConfig, t: f64) {
        self.stream.tick(t, 0.0);
        self.leg.reach(config, &mut self.stream.rng, t);
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

/// A fleet of [`RandomWaypoint`] hosts stored by column, moved as a
/// whole each epoch and evaluated one host at a time in between.
///
/// Host `h` follows the trajectory `RandomWaypoint::new(config,
/// seed(h))` would, bit for bit, and panics where it would: on a time
/// earlier than the last one the host was evaluated at. A whole-fleet
/// [`WaypointFleet::advance`] reads each host's current leg (56 B) and
/// writes its position; it reads a host's stream only when a leg ends
/// and writes nothing of a host that is mid-leg, its clock included. So
/// a host's last evaluated time is the later of its own clock, set when
/// it is evaluated on its own, and the fleet's, set by an advance.
#[derive(Debug)]
pub struct WaypointFleet {
    /// Each host's current leg: the column a fleet pass streams.
    legs: Vec<Leg>,
    /// Each host's draw stream and own clock.
    streams: Vec<Stream>,
    /// Time of the last whole-fleet advance.
    clock: f64,
    /// The latest time the fleet or any host was evaluated at.
    latest: f64,
}

impl WaypointFleet {
    /// `hosts` hosts at time 0, host `h` seeded with `seed(h)`. Each
    /// column is allocated at its exact size.
    pub fn new(config: &MobilityConfig, hosts: usize, seed: impl Fn(usize) -> u64) -> Self {
        let mut legs = Vec::with_capacity(hosts);
        let mut streams = Vec::with_capacity(hosts);
        for h in 0..hosts {
            let mut stream = Stream::new(seed(h));
            legs.push(Leg::first(config, &mut stream.rng));
            streams.push(stream);
        }
        Self {
            legs,
            streams,
            clock: 0.0,
            latest: 0.0,
        }
    }

    /// Host `host`, for evaluation on its own: its clock is checked and
    /// set as a [`RandomWaypoint`]'s is.
    pub fn host(&mut self, host: usize) -> impl Mobility + '_ {
        assert!(host < self.legs.len(), "no host {host}");
        WaypointHost { fleet: self, host }
    }

    /// Moves the whole fleet to `t`, writing host `h`'s position to
    /// `positions[h]`, in chunks of at most `chunk` hosts: the returned
    /// tasks are independent, and any thread may run any of them.
    ///
    /// # Panics
    /// At once, not when a task runs, if some host was evaluated later
    /// than `t`; and if `positions` is not one entry per host.
    pub fn advance<'a>(
        &'a mut self,
        t: f64,
        positions: &'a mut [Point],
        chunk: usize,
    ) -> impl ExactSizeIterator<Item = AdvanceTask<'a>> + Send + 'a {
        assert_eq!(positions.len(), self.legs.len(), "one position per host");
        let last = self.latest;
        assert!(t >= last, "mobility time went backwards: {t} < {last}");
        (self.clock, self.latest) = (t, t);
        let chunk = chunk.max(1);
        self.legs
            .chunks_mut(chunk)
            .zip(self.streams.chunks_mut(chunk))
            .zip(positions.chunks_mut(chunk))
            .map(move |((legs, streams), positions)| AdvanceTask {
                legs,
                streams,
                positions,
                t,
            })
    }

    /// The host's leg at `t`, after the rewind check and its clock.
    fn evaluate(&mut self, config: &MobilityConfig, host: usize, t: f64) -> &Leg {
        let stream = &mut self.streams[host];
        stream.tick(t, self.clock);
        self.latest = self.latest.max(t);
        let leg = &mut self.legs[host];
        leg.reach(config, &mut stream.rng, t);
        leg
    }
}

/// One host of a [`WaypointFleet`], evaluated on its own.
struct WaypointHost<'a> {
    fleet: &'a mut WaypointFleet,
    host: usize,
}

impl Mobility for WaypointHost<'_> {
    fn position_at(&mut self, config: &MobilityConfig, t: f64) -> Point {
        self.fleet.evaluate(config, self.host, t).position_at(t)
    }

    fn velocity_at(&mut self, config: &MobilityConfig, t: f64) -> (f64, f64) {
        self.fleet.evaluate(config, self.host, t).velocity_at(t)
    }
}

/// One chunk of a [`WaypointFleet::advance`]: a run of hosts, their
/// positions, and the time they move to.
#[derive(Debug)]
pub struct AdvanceTask<'a> {
    legs: &'a mut [Leg],
    streams: &'a mut [Stream],
    positions: &'a mut [Point],
    t: f64,
}

impl AdvanceTask<'_> {
    /// Moves the chunk's hosts and writes their positions.
    pub fn run(self, config: &MobilityConfig) {
        let t = self.t;
        let hosts = self.legs.iter_mut().zip(self.streams.iter_mut());
        for ((leg, stream), p) in hosts.zip(self.positions.iter_mut()) {
            leg.reach(config, &mut stream.rng, t);
            *p = leg.position_at(t);
        }
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
    fn fleet_columns_hold_only_state() {
        // A fleet pass streams the leg column once per epoch; the
        // stream column is read only when a leg ends or a host is
        // evaluated on its own. The road-grid model's column holds one
        // whole model per host. None carries a copy of the shared
        // `MobilityConfig` (64 B).
        let leg = std::mem::size_of::<Leg>();
        assert!(leg <= 56, "a leg is {leg} B");
        let stream = std::mem::size_of::<Stream>();
        assert!(stream <= 40, "a host's stream is {stream} B");
        let road = std::mem::size_of::<crate::GridRoadWaypoint>();
        assert!(road <= 152, "a road-grid host is {road} B");
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
