//! Mobility models and query workloads for the airshare simulator.
//!
//! The paper's evaluation (§4.1) moves mobile hosts with the random
//! waypoint model of Broch et al. over a 20 mi × 20 mi area, mapping
//! trajectories onto a road network, and fires spatial queries from
//! Poisson-distributed intervals at a controlled aggregate rate
//! (`Query` in Table 4).
//!
//! * [`RandomWaypoint`] — the canonical model: pick a uniform destination,
//!   travel at a uniform-random speed, pause, repeat. Positions are
//!   evaluated *analytically* at any (monotonically advancing) time, so
//!   the simulator never ticks hosts that nobody is looking at.
//! * [`WaypointFleet`] — the same trajectories for a whole fleet, stored
//!   by column: each host's current leg (56 B) in the column an epoch's
//!   [`WaypointFleet::advance`] streams, and its RNG and own clock (40 B)
//!   in one that only a leg's end or the host's own evaluation
//!   ([`WaypointFleet::host`]) reads, so the pass writes nothing of a
//!   host that is mid-leg. A fleet clock set by each advance keeps the
//!   one-host model's rewind check. Both forms step legs through one
//!   function.
//! * [`GridRoadWaypoint`] — a synthetic Manhattan-grid road network
//!   variant (the paper's road map is unavailable; see DESIGN.md §2).
//!   Hosts travel along axis-aligned streets with L-shaped routes.
//! * [`Mobility`] — the common interface (`position_at` / `velocity_at`).
//!   A model holds only its trajectory state (RNG, current leg, clock);
//!   the [`MobilityConfig`] every host of a fleet shares is held once, by
//!   the fleet, and passed to each call.
//! * [`PoissonProcess`] / [`QueryScheduler`] — exponential inter-arrival
//!   event streams assigning queries to random hosts.
//!
//! All randomness flows through caller-provided seeds; trajectories are
//! reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod roadgrid;
mod waypoint;
mod workload;

pub use roadgrid::GridRoadWaypoint;
pub use waypoint::{AdvanceTask, MobilityConfig, RandomWaypoint, WaypointFleet};
pub use workload::{PoissonProcess, QueryEvent, QueryScheduler};

use airshare_geom::Point;

/// A mobility model evaluated lazily along increasing time.
///
/// Implementations may cache per-leg state; `position_at` must be called
/// with non-decreasing `t` (enforced with a panic, since violating it
/// silently would desynchronize the simulation). Every call takes the
/// [`MobilityConfig`] the model was built with; the model keeps no copy.
pub trait Mobility {
    /// Position at simulation time `t` (minutes).
    fn position_at(&mut self, config: &MobilityConfig, t: f64) -> Point;

    /// Velocity vector at time `t` (miles per minute); zero while paused.
    fn velocity_at(&mut self, config: &MobilityConfig, t: f64) -> (f64, f64);

    /// Heading unit vector at time `t`, or `None` while paused.
    fn heading_at(&mut self, config: &MobilityConfig, t: f64) -> Option<(f64, f64)> {
        let (vx, vy) = self.velocity_at(config, t);
        let n = vx.hypot(vy);
        (n > 1e-12).then(|| (vx / n, vy / n))
    }
}
