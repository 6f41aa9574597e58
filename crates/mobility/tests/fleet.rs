//! The columnar fleet against the one-host model: every host of a
//! [`WaypointFleet`] must follow the trajectory of the
//! [`RandomWaypoint`] built from its seed, bit for bit, however its
//! advances are chunked and spread over threads, with hosts evaluated
//! on their own between advances; and it must refuse a rewind on either
//! path, as the one-host model does.

use airshare_geom::{Point, Rect};
use airshare_mobility::{AdvanceTask, Mobility, MobilityConfig, RandomWaypoint, WaypointFleet};

const HOSTS: usize = 37;

fn seed(h: usize) -> u64 {
    0x5EED ^ (h as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A small world, so that legs last minutes and the sequence below
/// crosses many of them; and one with equal bounds, which takes the
/// no-draw branches for speed and pause.
fn configs() -> [MobilityConfig; 2] {
    let mut ranged = MobilityConfig::vehicular(Rect::from_coords(0.0, 0.0, 3.0, 2.0));
    ranged.pause_max = 0.5;
    let fixed = MobilityConfig {
        speed_min: 0.4,
        speed_max: 0.4,
        pause_min: 0.2,
        pause_max: 0.2,
        ..ranged
    };
    [ranged, fixed]
}

/// Runs one advance's tasks dealt round-robin over `threads` threads.
fn advance(
    fleet: &mut WaypointFleet,
    config: &MobilityConfig,
    t: f64,
    positions: &mut [Point],
    chunk: usize,
    threads: usize,
) {
    let mut lanes: Vec<Vec<AdvanceTask>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, task) in fleet.advance(t, positions, chunk).enumerate() {
        lanes[i % threads].push(task);
    }
    std::thread::scope(|s| {
        for lane in lanes {
            s.spawn(move || lane.into_iter().for_each(|task| task.run(config)));
        }
    });
}

fn bits(p: Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

#[test]
fn fleet_hosts_follow_their_one_host_models() {
    for config in configs() {
        for (chunk, threads) in [(HOSTS, 1), (1, 2), (5, 2), (8, 4), (64, 4)] {
            let mut fleet = WaypointFleet::new(&config, HOSTS, seed);
            let mut models: Vec<_> = (0..HOSTS)
                .map(|h| RandomWaypoint::new(&config, seed(h)))
                .collect();
            let mut positions = vec![Point::ORIGIN; HOSTS];
            for epoch in 0..160 {
                // Uneven epochs, some of them shorter than a pause.
                let t = epoch as f64 * 0.61 + (epoch % 3) as f64 * 0.07;
                advance(&mut fleet, &config, t, &mut positions, chunk, threads);
                for (h, m) in models.iter_mut().enumerate() {
                    let at = format!("chunk {chunk}, {threads} threads, host {h}, t {t}");
                    assert_eq!(bits(positions[h]), bits(m.position_at(&config, t)), "{at}");
                }
                // A few hosts query inside the epoch, some twice, and one
                // at the boundary itself.
                for (k, h) in [(0, 3), (1, 3), (2, 17), (3, (epoch * 7) % HOSTS)] {
                    let at_min = t + k as f64 * 0.13;
                    let (mut host, model) = (fleet.host(h), &mut models[h]);
                    let at = format!("host {h} on its own at {at_min}");
                    let (got, want) = (
                        host.position_at(&config, at_min),
                        model.position_at(&config, at_min),
                    );
                    assert_eq!(bits(got), bits(want), "{at}");
                    assert_eq!(
                        host.velocity_at(&config, at_min),
                        model.velocity_at(&config, at_min),
                        "{at}"
                    );
                    assert_eq!(
                        host.heading_at(&config, at_min),
                        model.heading_at(&config, at_min),
                        "{at}"
                    );
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "time went backwards")]
fn a_fleet_host_must_not_rewind_past_an_advance() {
    let config = configs()[0];
    let mut fleet = WaypointFleet::new(&config, HOSTS, seed);
    let mut positions = vec![Point::ORIGIN; HOSTS];
    fleet
        .advance(10.0, &mut positions, HOSTS)
        .for_each(|task| task.run(&config));
    fleet.host(4).position_at(&config, 9.5);
}

#[test]
#[should_panic(expected = "time went backwards")]
fn a_fleet_host_must_not_rewind_past_its_own_clock() {
    let config = configs()[0];
    let mut fleet = WaypointFleet::new(&config, HOSTS, seed);
    let mut positions = vec![Point::ORIGIN; HOSTS];
    fleet
        .advance(10.0, &mut positions, HOSTS)
        .for_each(|task| task.run(&config));
    fleet.host(4).position_at(&config, 11.0);
    fleet.host(4).position_at(&config, 11.5);
    fleet.host(4).position_at(&config, 11.2);
}

#[test]
#[should_panic(expected = "time went backwards")]
fn an_advance_must_not_rewind_past_a_host() {
    let config = configs()[0];
    let mut fleet = WaypointFleet::new(&config, HOSTS, seed);
    let mut positions = vec![Point::ORIGIN; HOSTS];
    fleet
        .advance(10.0, &mut positions, HOSTS)
        .for_each(|task| task.run(&config));
    fleet.host(30).position_at(&config, 12.0);
    fleet.host(2).position_at(&config, 11.0);
    // Past host 2's clock, but not host 30's.
    fleet.advance(11.5, &mut positions, HOSTS).for_each(drop);
}

#[test]
fn clocks_are_per_host_and_may_repeat() {
    let config = configs()[0];
    let mut fleet = WaypointFleet::new(&config, HOSTS, seed);
    let mut positions = vec![Point::ORIGIN; HOSTS];
    fleet.host(30).position_at(&config, 12.0);
    // Other hosts may still look at any time since the last advance.
    fleet.host(5).position_at(&config, 0.5);
    fleet
        .advance(12.0, &mut positions, 4)
        .for_each(|task| task.run(&config));
    fleet.host(30).position_at(&config, 12.0);
    fleet.host(29).position_at(&config, 12.5);
    fleet.host(30).position_at(&config, 12.25);
    fleet
        .advance(12.5, &mut positions, 4)
        .for_each(|task| task.run(&config));
    let mut model = RandomWaypoint::new(&config, seed(30));
    assert_eq!(bits(positions[30]), bits(model.position_at(&config, 12.5)));
}
