//! The pluggable air-index contract.
//!
//! The paper's air index is a Hilbert-curve `(1, m)` index, but nothing
//! in the sharing/caching results depends on *which* spatial index rides
//! the broadcast channel — only on the contract an index segment offers
//! a tuning client: map a spatial predicate to the set of data buckets
//! that must be downloaded, and bound a kNN search circle from index
//! information alone. [`AirIndexBackend`] captures exactly that contract
//! so [`crate::OnAirClient`], the SBNN/SBWQ algorithms, and the
//! simulator run unchanged over any backend, and backends can be
//! ablated against each other (the R-tree rows of `airshare-paper ablations`).
//!
//! Two backends ship in-tree:
//!
//! * [`crate::AirIndex`] — the paper's Hilbert-curve index (Zheng et
//!   al.): POIs sorted by curve value, buckets covering curve intervals.
//! * [`crate::RtreeAirIndex`] — an on-air R-tree: POIs packed into
//!   buckets in STR bulk-load order, internal-node descriptors as the
//!   index segment, MBR intersection as the predicate map.

use crate::{Bucket, IndexError, PoiTable, QueryScratch};
use airshare_geom::{Point, Rect};
use bytes::Bytes;

/// How many per-bucket descriptors fit in one on-air index bucket. The
/// descriptor is a few words (key range or MBR, arrival offset), so a
/// generous fan-out is realistic. Shared by both backends so their index
/// airtime is comparable.
pub(crate) const INDEX_FANOUT: usize = 64;

/// Build-time parameters common to every backend.
///
/// Backends consume what they need: the Hilbert backend derives its grid
/// from `world` and `hilbert_order`; the R-tree backend ignores the
/// curve order entirely.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BuildParams {
    /// The service area (data domain) the index covers.
    pub world: Rect,
    /// Hilbert curve order for curve-based backends (ignored by others).
    pub hilbert_order: u32,
    /// POIs per broadcast data bucket (≥ 1).
    pub bucket_capacity: usize,
}

/// The full contract between a broadcast air index and its clients.
///
/// An implementation owns the server-side broadcast organization: data
/// buckets in broadcast order plus the index segment that precedes them
/// on air. Every query-planning method is *sound by contract*:
///
/// * [`buckets_for_window_scratch`] must select every bucket containing
///   a POI inside the window;
/// * [`knn_search_radius`] must return a radius whose closed ball around
///   `q` is certain to contain at least `k` POIs, using only information
///   an index segment carries;
/// * [`buckets_for_knn_scratch`] must select every bucket containing a
///   POI inside the MBR of that search circle, so the retrieved square
///   is a sound verified region;
/// * [`buckets_for_knn_filtered_scratch`] may drop only buckets whose
///   entire MBR lies within the verified inner circle (§3.3.3);
/// * [`buckets_for_windows_scratch`] must equal the deduplicated union
///   of the per-window bucket sets (§3.4.2).
///
/// All bucket sets are left in `scratch.buckets()`, sorted ascending and
/// deduplicated, so retrieval order (and therefore access latency) is
/// deterministic for every backend.
///
/// The trait is object-safe: the simulator stores a
/// `Box<dyn AirIndexBackend>` selected by its `BackendKind` knob, while
/// allocation-sensitive callers keep static dispatch through
/// [`crate::OnAirClient`]'s type parameter. [`try_build`] is the only
/// `Self: Sized` member.
///
/// [`buckets_for_window_scratch`]: AirIndexBackend::buckets_for_window_scratch
/// [`knn_search_radius`]: AirIndexBackend::knn_search_radius
/// [`buckets_for_knn_scratch`]: AirIndexBackend::buckets_for_knn_scratch
/// [`buckets_for_knn_filtered_scratch`]: AirIndexBackend::buckets_for_knn_filtered_scratch
/// [`buckets_for_windows_scratch`]: AirIndexBackend::buckets_for_windows_scratch
/// [`try_build`]: AirIndexBackend::try_build
pub trait AirIndexBackend: std::fmt::Debug + Send + Sync {
    /// Builds the broadcast organization from the canonical POI table,
    /// rejecting impossible parameters instead of panicking. The backend
    /// copies out whatever broadcast-order layout it needs; the table
    /// stays the single authority on POI payloads.
    fn try_build(pois: &PoiTable, params: &BuildParams) -> Result<Self, IndexError>
    where
        Self: Sized;

    /// The service area the index covers (the data domain). Verified
    /// regions are clipped to it.
    fn world(&self) -> Rect;

    /// All data buckets in broadcast order.
    fn buckets(&self) -> &[Bucket];

    /// Number of data buckets (the data segment's airtime in ticks).
    fn data_buckets(&self) -> usize {
        self.buckets().len()
    }

    /// Airtime of one index segment, in buckets (ticks).
    fn index_buckets(&self) -> usize;

    /// Total number of POIs in the broadcast file.
    fn poi_count(&self) -> usize;

    /// The on-air kNN *first scan*: from index information alone, a
    /// Euclidean radius around `q` certain to contain at least `k`
    /// POIs. Returns `None` when the data file holds fewer than `k`.
    fn knn_search_radius(&self, q: Point, k: usize) -> Option<f64>;

    /// Bucket set for a world-space window query, left in
    /// `scratch.buckets()` (sorted, deduplicated).
    fn buckets_for_window_scratch(&self, w: &Rect, scratch: &mut QueryScratch);

    /// Bucket set covering the MBR of the kNN search circle of the given
    /// `radius` around `q`, left in `scratch.buckets()`.
    fn buckets_for_knn_scratch(&self, q: Point, radius: f64, scratch: &mut QueryScratch);

    /// Bound-filtered kNN bucket set (§3.3.3): the [`buckets_for_knn_scratch`]
    /// set for `outer`, minus buckets whose MBR lies entirely within the
    /// verified inner circle of radius `inner` around `q`. Left in
    /// `scratch.buckets()`.
    ///
    /// [`buckets_for_knn_scratch`]: AirIndexBackend::buckets_for_knn_scratch
    fn buckets_for_knn_filtered_scratch(
        &self,
        q: Point,
        outer: f64,
        inner: Option<f64>,
        scratch: &mut QueryScratch,
    );

    /// Bucket set for a collection of reduced windows (§3.4.2): the
    /// deduplicated union of the per-window sets, left in
    /// `scratch.buckets()`.
    fn buckets_for_windows_scratch(&self, windows: &[Rect], scratch: &mut QueryScratch);

    /// Wire-encodes one bucket of the on-air index segment (CRC-framed
    /// via [`crate::wire::frame_payload`]). The payload layout is
    /// backend-specific — curve-range descriptors for the Hilbert
    /// backend, MBR descriptors for the R-tree backend — but every frame
    /// carries the shared CRC-32 trailer so receivers detect corruption
    /// uniformly.
    ///
    /// `segment_bucket` indexes into `0..self.index_buckets()`; an
    /// out-of-range index is a caller bug and panics.
    fn encode_index_bucket(&self, segment_bucket: usize) -> Result<Bytes, crate::wire::WireError>;
}
