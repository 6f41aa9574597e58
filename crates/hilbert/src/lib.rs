//! Hilbert space-filling curve support for the airshare air index.
//!
//! The broadcast server of Zheng et al. (the substrate the ICDE 2007
//! paper builds on) organizes POIs on the wireless channel in Hilbert
//! curve order: the curve's locality means spatially close objects are
//! broadcast close together in time, which is what makes on-air spatial
//! search feasible at all (see Figures 4 and 8 of the paper).
//!
//! This crate provides:
//!
//! * [`HilbertCurve`] — the order-`k` curve codec (`encode`/`decode`)
//!   over a `2^k × 2^k` cell grid, following Jagadish's analysis cited by
//!   the paper.
//! * [`CellRect`] and [`HilbertCurve::intervals_for_rect_into`] — exact
//!   decomposition of a rectangular cell window into maximal contiguous
//!   curve intervals, the primitive behind both the on-air window query
//!   (first point `a` / last point `b` of Figure 8) and broadcast-bucket
//!   filtering.
//! * [`Grid`] — the mapping between continuous world coordinates (miles)
//!   and curve cells.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod curve;
mod grid;

pub use curve::{CellRect, HilbertCurve};
pub use grid::Grid;
