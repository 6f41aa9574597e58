//! Computational-geometry kernel for the `airshare` workspace.
//!
//! This crate provides the geometric primitives and region algebra that the
//! sharing-based query algorithms of Ku, Zimmermann & Wang (ICDE 2007)
//! rest on:
//!
//! * [`Point`] and [`Rect`] — positions and minimum bounding rectangles
//!   (MBRs) in a planar, Euclidean world (coordinates in miles throughout
//!   the workspace).
//! * [`Segment`] — axis-aligned boundary edges with point-to-segment
//!   distances, used to find the *nearest boundary edge* `e_s` of a merged
//!   verified region (Lemma 3.1 of the paper).
//! * [`RectUnion`] — the *merged verified region* `MVR = p1.VR ∪ … ∪
//!   pj.VR`. Peer verified regions are MBRs, so the general `MapOverlay`
//!   of the paper specializes to an exact union of axis-aligned
//!   rectangles. The type supports containment tests, boundary
//!   extraction, disjoint decomposition, exact areas, coverage tests and
//!   rectangle difference (for SBWQ window reduction).
//! * [`disk`] — exact disk/polygon and disk/region intersection areas,
//!   used to compute the *unverified region* area `u` that drives the
//!   correctness probability `e^{-λu}` of Lemma 3.2.
//!
//! Rectangles, unions and windows are closed sets, and every membership,
//! coverage and boundary test compares input coordinates exactly: no
//! tolerance decides an answer. Areas are `f64` sums of exact interval
//! lengths, and closed-form where they must be (circular segment
//! integrals). Nothing in this crate allocates on hot paths beyond the
//! output collections.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk_mod;
mod intervals;
mod point;
mod rect;
mod region;
mod segment;

pub use intervals::IntervalSet;
pub use point::Point;
pub use rect::Rect;
pub use region::{RectUnion, RegionScratch};
pub use segment::{Axis, Segment};

/// Disk (circle) area computations.
pub mod disk {
    pub use crate::disk_mod::{
        disk_area, disk_polygon_area, disk_rect_area, disk_region_area, Disk,
    };
}

/// Meters per mile; the paper quotes transmission ranges in meters but
/// simulates a 20 mi × 20 mi world.
pub const METERS_PER_MILE: f64 = 1609.344;

/// Converts meters to miles.
#[inline]
pub fn meters_to_miles(m: f64) -> f64 {
    m / METERS_PER_MILE
}

/// The tolerance geom's own tests compare computed lengths and areas
/// with. No production comparison uses one: regions and windows are
/// closed sets, tested exactly.
#[cfg(test)]
pub(crate) const EPSILON: f64 = 1e-9;

/// `a` and `b` are equal up to [`EPSILON`] (tests only).
#[cfg(test)]
pub(crate) fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_roundtrip() {
        assert!(approx_eq(meters_to_miles(3.25 * METERS_PER_MILE), 3.25));
        assert!(approx_eq(meters_to_miles(1609.344), 1.0));
    }

    #[test]
    fn approx_eq_tolerates_epsilon() {
        assert!(approx_eq(1.0, 1.0 + 0.5 * EPSILON));
        assert!(!approx_eq(1.0, 1.0 + 10.0 * EPSILON));
    }
}
