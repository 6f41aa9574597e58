//! SBNN and SBWQ: sharing-based spatial queries in wireless broadcast
//! environments — the primary contribution of Ku, Zimmermann & Wang
//! (ICDE 2007).
//!
//! A mobile host that poses a kNN or window query first harvests cached
//! results from its single-hop peers, merges their verified regions into
//! the `MVR`, and *locally proves* which candidate POIs are guaranteed
//! answers:
//!
//! * [`nnv`] — **Nearest Neighbor Verification** (Algorithm 1): a POI `o`
//!   is a verified nearest neighbor when `‖q, o‖ ≤ ‖q, e_s‖`, the
//!   distance to the nearest edge of the MVR boundary, with `q` inside
//!   the MVR (Lemma 3.1).
//! * [`ResultHeap`] — the heap `H` of Table 2, holding verified and
//!   unverified candidates ascending by distance, with the six
//!   post-NNV states of §3.3.3 and the search bounds they induce.
//! * [`approx`] — Lemma 3.2: assuming Poisson-distributed POIs of density
//!   `λ`, an unverified candidate whose unverified region has area `u`
//!   is the true next neighbor with probability `e^{-λu}`; plus the
//!   *surpassing ratio* cost model.
//! * [`sbnn`] — Algorithm 2: answer from peers when possible (exactly,
//!   or approximately under a correctness threshold), otherwise fall
//!   back to the broadcast channel with the §3.3.3 bound filtering.
//! * [`sbwq`] — Algorithm 3: window queries; full peer coverage answers
//!   locally, partial coverage reduces the window(s) before going on air
//!   (§3.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
mod heap;
mod mvr;
mod sbnn;
mod sbwq;

pub use heap::{HeapState, NnCandidate, ResultHeap};
pub use mvr::MergedRegion;
pub use sbnn::{
    nnv, nnv_in_domain, sbnn, sbnn_rec, ResolvedBy, SbnnConfig, SbnnOutcome, SbnnResult, VrPolicy,
};
pub use sbwq::{
    adoptable_window_region, sbwq, sbwq_rec, window_coverage, SbwqConfig, SbwqOutcome, SbwqResult,
};
