//! Trajectory pin: both mobility models, a few seeds, a fixed time
//! sequence, every `position_at` and `velocity_at` bit folded into one
//! FNV-1a hash per model and config.
//!
//! The models hold no parameters of their own — the fleet passes its one
//! [`MobilityConfig`] to every call — and the pinned hashes are what the
//! models produced while each host still stored its own copy. No
//! simulator digest covers the road-grid model, so this test is what
//! shows a trajectory did not move by a single bit.

use airshare_geom::Rect;
use airshare_mobility::{GridRoadWaypoint, Mobility, MobilityConfig, RandomWaypoint};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv(h: &mut u64, x: f64) {
    for b in x.to_bits().to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Non-decreasing, unevenly spaced, long enough to cross many legs.
fn times() -> impl Iterator<Item = f64> {
    (0..400).map(|i| i as f64 * 0.37 + (i % 7) as f64 * 0.011)
}

fn trace(m: &mut dyn Mobility, cfg: &MobilityConfig, h: &mut u64) {
    for t in times() {
        let p = m.position_at(cfg, t);
        let (vx, vy) = m.velocity_at(cfg, t);
        for x in [p.x, p.y, vx, vy] {
            fnv(h, x);
        }
    }
}

#[test]
fn trajectories_match_the_pinned_hashes() {
    let mut ranged = MobilityConfig::vehicular(Rect::from_coords(0.0, 0.0, 3.0, 2.0));
    ranged.pause_max = 0.5;
    // Equal bounds take the models' no-draw branches for speed and pause.
    let fixed = MobilityConfig {
        speed_min: 0.4,
        speed_max: 0.4,
        pause_min: 0.2,
        pause_max: 0.2,
        ..ranged
    };
    let pinned = [
        (ranged, 0xa118_04f3_55c1_994c_u64, 0xb97f_108f_ecd4_796a_u64),
        (fixed, 0x2c68_8e9b_9979_042f, 0xef1b_2564_e991_8836),
    ];
    for (i, (cfg, want_waypoint, want_roads)) in pinned.into_iter().enumerate() {
        let (mut waypoint, mut roads) = (FNV_OFFSET, FNV_OFFSET);
        for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
            trace(&mut RandomWaypoint::new(&cfg, seed), &cfg, &mut waypoint);
            trace(
                &mut GridRoadWaypoint::new(&cfg, 0.25, seed),
                &cfg,
                &mut roads,
            );
        }
        assert_eq!(waypoint, want_waypoint, "config {i}: RandomWaypoint moved");
        assert_eq!(roads, want_roads, "config {i}: GridRoadWaypoint moved");
    }
}
