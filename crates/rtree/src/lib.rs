//! A from-scratch static R-tree over point data.
//!
//! The paper's related-work section grounds spatial search in the R-tree
//! family: Guttman's original index, the branch-and-bound /
//! best-first kNN searches of Roussopoulos et al. and Hjaltason–Samet,
//! and window queries over MBR hierarchies. The paper's broadcast server
//! ships a Hilbert index, but the simulator needs an exact, fast *ground
//! truth* oracle to (a) validate every sharing-based answer and (b)
//! quantify approximation error, and the alternative R-tree air index
//! broadcasts POIs in this tree's leaf order. This crate provides that
//! tree:
//!
//! * [`RTree`] — a point R-tree built once by STR (sort-tile-recursive)
//!   bulk loading from a static POI set and then only read: best-first
//!   kNN search and window queries. There is no insertion or removal.
//! * [`LinearScan`] — the brute-force reference used to cross-check the
//!   tree in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod scan;
mod tree;

pub use scan::LinearScan;
pub use tree::{Neighbor, RTree};
