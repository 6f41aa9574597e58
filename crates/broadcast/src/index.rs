//! The server-side air index: POIs in Hilbert order, packed into buckets.

use crate::backend::{AirIndexBackend, BuildParams, INDEX_FANOUT};
use crate::{Bucket, BucketId, Poi, PoiTable, QueryScratch};
use airshare_geom::{Point, Rect};
use airshare_hilbert::Grid;
use bytes::{BufMut, Bytes, BytesMut};

/// The broadcast server's data organization.
///
/// POIs are sorted by the Hilbert value of their grid cell and packed
/// into fixed-capacity [`Bucket`]s in curve order. The index that ships
/// in every index segment is, conceptually, the list of
/// `(hilbert_range, arrival offset)` pairs per bucket; clients use it to
/// translate curve intervals into bucket sets and arrival times.
#[derive(Clone, Debug)]
pub struct AirIndex {
    grid: Grid,
    buckets: Vec<Bucket>,
    /// Sorted `(hilbert value, poi index in broadcast order)` — the
    /// per-object index used by the on-air kNN first scan.
    values: Vec<(u64, Point)>,
    /// Number of index buckets an index segment occupies on air.
    index_buckets: usize,
}

/// Rejected air-index build parameters (any backend).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexError {
    /// `bucket_capacity == 0`: buckets must hold at least one POI.
    ZeroBucketCapacity,
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::ZeroBucketCapacity => write!(f, "bucket capacity must be positive"),
        }
    }
}

impl std::error::Error for IndexError {}

impl AirIndex {
    /// Builds the broadcast organization, rejecting impossible
    /// parameters instead of panicking.
    pub fn try_build(
        mut pois: Vec<Poi>,
        grid: Grid,
        bucket_capacity: usize,
    ) -> Result<Self, IndexError> {
        if bucket_capacity < 1 {
            return Err(IndexError::ZeroBucketCapacity);
        }
        pois.sort_by_key(|p| grid.value_of(p.pos));
        let values: Vec<(u64, Point)> =
            pois.iter().map(|p| (grid.value_of(p.pos), p.pos)).collect();
        let mut buckets = Vec::with_capacity(pois.len().div_ceil(bucket_capacity));
        for (i, chunk) in pois.chunks(bucket_capacity).enumerate() {
            let vals: Vec<u64> = chunk.iter().map(|p| grid.value_of(p.pos)).collect();
            buckets.push(Bucket::build(i, chunk.to_vec(), &vals));
        }
        let index_buckets = buckets.len().div_ceil(INDEX_FANOUT).max(1);
        Ok(Self {
            grid,
            buckets,
            values,
            index_buckets,
        })
    }

    /// The Hilbert grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Buckets (sorted, deduplicated) whose Hilbert ranges intersect any
    /// of the given inclusive curve intervals, written into `out` (cleared
    /// first) so a reused buffer makes the call allocation-free.
    pub fn buckets_for_intervals_into(&self, intervals: &[(u64, u64)], out: &mut Vec<BucketId>) {
        out.clear();
        for &(lo, hi) in intervals {
            // Binary search for the first bucket whose range may reach lo.
            let start = self
                .buckets
                .partition_point(|b| b.hilbert_range.1 < lo);
            for b in &self.buckets[start..] {
                if b.hilbert_range.0 > hi {
                    break;
                }
                out.push(b.id);
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// The Hilbert backend's implementation of the broadcast contract. Code
/// going through the trait — statically or via `dyn AirIndexBackend` —
/// runs these bodies and no other copy of them.
impl AirIndexBackend for AirIndex {
    fn try_build(pois: &PoiTable, params: &BuildParams) -> Result<Self, IndexError> {
        let grid = Grid::new(params.world, params.hilbert_order);
        AirIndex::try_build(pois.to_vec(), grid, params.bucket_capacity)
    }

    fn world(&self) -> Rect {
        self.grid.world()
    }

    fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    fn index_buckets(&self) -> usize {
        self.index_buckets
    }

    fn poi_count(&self) -> usize {
        self.values.len()
    }

    /// The on-air kNN *first scan*: from the index alone (Hilbert values
    /// of all objects), find a Euclidean radius around `q` certain to
    /// contain at least `k` objects.
    ///
    /// The client takes the `k` objects whose Hilbert values are closest
    /// to `q`'s value (curve-distance approximation of spatial
    /// proximity), reconstructs their cell positions, and returns the
    /// maximum Euclidean distance plus half a cell diagonal — the index
    /// stores cell-resolution positions, so the slack guarantees the
    /// circle truly encloses ≥ k objects. Returns `None` when the data
    /// file holds fewer than `k` POIs.
    fn knn_search_radius(&self, q: Point, k: usize) -> Option<f64> {
        if k == 0 || self.values.len() < k {
            return None;
        }
        let hq = self.grid.value_of(q);
        // Two-pointer expansion around the insertion point of hq.
        let mut lo = self.values.partition_point(|&(v, _)| v < hq);
        let mut hi = lo; // [lo, hi) selected
        while hi - lo < k {
            let take_left = if lo == 0 {
                false
            } else if hi == self.values.len() {
                true
            } else {
                // Choose the side whose value is closer along the curve.
                hq - self.values[lo - 1].0 <= self.values[hi].0 - hq
            };
            if take_left {
                lo -= 1;
            } else {
                hi += 1;
            }
        }
        let (cw, ch) = self.grid.cell_size();
        let half_diag = 0.5 * cw.hypot(ch);
        let max_d = self.values[lo..hi]
            .iter()
            .map(|&(_, pos)| pos.distance(q))
            .fold(0.0_f64, f64::max);
        Some(max_d + half_diag)
    }

    fn buckets_for_window_scratch(&self, w: &Rect, scratch: &mut QueryScratch) {
        self.grid
            .intervals_for_world_rect_into(w, &mut scratch.intervals);
        self.buckets_for_intervals_into(&scratch.intervals, &mut scratch.buckets);
    }

    fn buckets_for_knn_scratch(&self, q: Point, radius: f64, scratch: &mut QueryScratch) {
        let mbr = Rect::centered_square(q, radius);
        self.buckets_for_window_scratch(&mbr, scratch);
    }

    fn buckets_for_knn_filtered_scratch(
        &self,
        q: Point,
        outer: f64,
        inner: Option<f64>,
        scratch: &mut QueryScratch,
    ) {
        self.buckets_for_knn_scratch(q, outer, scratch);
        if let Some(r_in) = inner {
            scratch
                .buckets
                .retain(|&id| self.buckets[id].mbr.max_distance_to_point(q) > r_in);
        }
    }

    /// Bucket set for a collection of reduced windows (§3.4.2): the union
    /// of the buckets of each window `w′`, left in `scratch.buckets()`.
    ///
    /// The interval lists of all windows are merged *before* mapping to
    /// buckets, so overlapping reduced windows — SBWQ routinely produces
    /// them when several uncovered slivers meet — never scan the same
    /// curve interval twice. Merging only fuses overlapping or integer-
    /// adjacent intervals, which preserves the covered cell set exactly,
    /// so the bucket output is identical to mapping each window alone and
    /// deduplicating.
    fn buckets_for_windows_scratch(&self, windows: &[Rect], scratch: &mut QueryScratch) {
        let QueryScratch {
            intervals,
            tmp_intervals,
            buckets,
        } = scratch;
        intervals.clear();
        for w in windows {
            self.grid.intervals_for_world_rect_into(w, tmp_intervals);
            intervals.extend_from_slice(tmp_intervals);
        }
        intervals.sort_unstable();
        let mut write = 0usize;
        for i in 0..intervals.len() {
            let (lo, hi) = intervals[i];
            if write > 0 && lo <= intervals[write - 1].1.saturating_add(1) {
                if hi > intervals[write - 1].1 {
                    intervals[write - 1].1 = hi;
                }
            } else {
                intervals[write] = (lo, hi);
                write += 1;
            }
        }
        intervals.truncate(write);
        self.buckets_for_intervals_into(intervals, buckets);
    }

    /// Payload layout: for each data bucket in this index bucket's slice
    /// of broadcast order — `u32` bucket id, `u64` curve range low,
    /// `u64` curve range high, `u16` POI count — CRC-framed.
    fn encode_index_bucket(&self, segment_bucket: usize) -> Result<Bytes, crate::wire::WireError> {
        assert!(
            segment_bucket < self.index_buckets,
            "index bucket {segment_bucket} out of range ({} index buckets)",
            self.index_buckets
        );
        let start = segment_bucket * INDEX_FANOUT;
        let end = ((segment_bucket + 1) * INDEX_FANOUT).min(self.buckets.len());
        let slice = self.buckets.get(start..end).unwrap_or(&[]);
        let mut payload = BytesMut::with_capacity(slice.len() * 22);
        for b in slice {
            let count =
                u16::try_from(b.pois.len()).map_err(|_| crate::wire::WireError::Overflow)?;
            payload.put_u32(b.id as u32);
            payload.put_u64(b.hilbert_range.0);
            payload.put_u64(b.hilbert_range.1);
            payload.put_u16(count);
        }
        Ok(crate::wire::frame_payload(&payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize, cap: usize) -> AirIndex {
        let world = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
        let grid = Grid::new(world, 5);
        // Deterministic scatter.
        let mut state = 99u64;
        let pois: Vec<Poi> = (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let x = (state >> 16 & 0xFFFF) as f64 / 1024.0;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let y = (state >> 16 & 0xFFFF) as f64 / 1024.0;
                Poi::new(i as u32, Point::new(x, y))
            })
            .collect();
        AirIndex::try_build(pois, grid, cap).unwrap()
    }

    #[test]
    fn buckets_are_hilbert_ordered_and_sized() {
        let idx = setup(300, 10);
        assert_eq!(idx.data_buckets(), 30);
        assert_eq!(idx.poi_count(), 300);
        let mut prev_hi = 0;
        for (i, b) in idx.buckets().iter().enumerate() {
            assert_eq!(b.id, i);
            assert!(b.pois.len() <= 10);
            assert!(b.hilbert_range.0 >= prev_hi || i == 0);
            prev_hi = b.hilbert_range.1;
        }
    }

    #[test]
    fn window_buckets_cover_all_window_pois() {
        let idx = setup(500, 8);
        let w = Rect::from_coords(10.0, 10.0, 30.0, 25.0);
        let chosen = QueryScratch::planned(|s| idx.buckets_for_window_scratch(&w, s));
        // Every POI inside the window must live in a chosen bucket.
        let chosen_pois: Vec<u32> = chosen
            .iter()
            .flat_map(|&id| idx.buckets()[id].pois.iter().map(|p| p.id))
            .collect();
        for b in idx.buckets() {
            for p in &b.pois {
                if w.contains(p.pos) {
                    assert!(chosen_pois.contains(&p.id), "missed poi {}", p.id);
                }
            }
        }
    }

    #[test]
    fn knn_radius_guarantees_k_objects() {
        let idx = setup(400, 8);
        let q = Point::new(32.0, 32.0);
        for k in [1, 3, 10, 25] {
            let r = idx.knn_search_radius(q, k).unwrap();
            let count = idx
                .buckets()
                .iter()
                .flat_map(|b| &b.pois)
                .filter(|p| p.distance_to(q) <= r)
                .count();
            assert!(count >= k, "radius {r} holds {count} < {k} POIs");
        }
    }

    #[test]
    fn knn_radius_none_when_insufficient_data() {
        let idx = setup(5, 2);
        assert!(idx.knn_search_radius(Point::ORIGIN, 6).is_none());
        assert!(idx.knn_search_radius(Point::ORIGIN, 0).is_none());
    }

    #[test]
    fn filtered_buckets_drop_fully_verified_ones() {
        let idx = setup(500, 4);
        let q = Point::new(32.0, 32.0);
        let outer = 20.0;
        let mut scratch = QueryScratch::new();
        idx.buckets_for_knn_filtered_scratch(q, outer, None, &mut scratch);
        let all = scratch.buckets().to_vec();
        idx.buckets_for_knn_filtered_scratch(q, outer, Some(10.0), &mut scratch);
        let filt = scratch.buckets();
        assert!(filt.len() <= all.len());
        // Dropped buckets are exactly those fully inside the inner circle.
        for id in &all {
            let inside = idx.buckets()[*id].mbr.max_distance_to_point(q) <= 10.0;
            assert_eq!(!filt.contains(id), inside);
        }
    }

    #[test]
    fn empty_poi_set_builds() {
        let world = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let idx = AirIndex::try_build(Vec::new(), Grid::new(world, 3), 4).unwrap();
        assert_eq!(idx.data_buckets(), 0);
        let everything = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let chosen = QueryScratch::planned(|s| idx.buckets_for_window_scratch(&everything, s));
        assert!(chosen.is_empty());
    }

    #[test]
    fn try_build_rejects_zero_capacity() {
        let world = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let err = AirIndex::try_build(Vec::new(), Grid::new(world, 3), 0).unwrap_err();
        assert_eq!(err, IndexError::ZeroBucketCapacity);
        assert!(AirIndex::try_build(Vec::new(), Grid::new(world, 3), 1).is_ok());
    }

    #[test]
    fn overlapping_windows_merge_intervals_before_mapping() {
        let idx = setup(500, 8);
        // Two windows with substantial overlap, as SBWQ's reduced windows
        // routinely produce.
        let w1 = Rect::from_coords(10.0, 10.0, 30.0, 25.0);
        let w2 = Rect::from_coords(20.0, 15.0, 40.0, 35.0);
        let mut scratch = QueryScratch::new();
        idx.buckets_for_windows_scratch(&[w1, w2], &mut scratch);
        // Oracle: per-window mapping, concatenated and deduplicated.
        let single = |w: &Rect| QueryScratch::planned(|s| idx.buckets_for_window_scratch(w, s));
        let mut naive: Vec<BucketId> = single(&w1).into_iter().chain(single(&w2)).collect();
        naive.sort_unstable();
        naive.dedup();
        assert_eq!(scratch.buckets(), naive);
        // The merged interval list must itself be disjoint: no curve
        // position is scanned twice.
        for w in scratch.intervals.windows(2) {
            assert!(w[1].0 > w[0].1 + 1, "intervals overlap or abut: {w:?}");
        }
        // Duplicated and disjoint window lists behave too.
        idx.buckets_for_windows_scratch(&[w1, w1], &mut scratch);
        assert_eq!(scratch.buckets(), single(&w1));
        idx.buckets_for_windows_scratch(&[], &mut scratch);
        assert!(scratch.buckets().is_empty());
    }

    #[test]
    fn scratch_calls_match_allocating_wrappers() {
        let idx = setup(400, 6);
        let q = Point::new(30.0, 20.0);
        let w = Rect::from_coords(5.0, 40.0, 25.0, 60.0);
        let w2 = Rect::from_coords(20.0, 15.0, 40.0, 35.0);
        // Interleave different planners through ONE warm scratch: each
        // result must equal the same call through a fresh scratch, so no
        // state leaks between calls.
        let plans: [&dyn Fn(&mut QueryScratch); 5] = [
            &|s| idx.buckets_for_window_scratch(&w, s),
            &|s| idx.buckets_for_knn_scratch(q, 9.0, s),
            &|s| idx.buckets_for_windows_scratch(&[w, w2], s),
            &|s| idx.buckets_for_knn_filtered_scratch(q, 9.0, Some(4.0), s),
            &|s| idx.buckets_for_window_scratch(&w, s),
        ];
        let mut scratch = QueryScratch::new();
        for plan in plans {
            plan(&mut scratch);
            assert_eq!(scratch.buckets(), QueryScratch::planned(plan));
        }
    }

    #[test]
    fn buckets_for_intervals_dedups_and_sorts() {
        let idx = setup(100, 5);
        let max_h = idx.buckets().last().unwrap().hilbert_range.1;
        let mut a = Vec::new();
        idx.buckets_for_intervals_into(&[(0, max_h), (0, max_h)], &mut a);
        assert_eq!(a.len(), idx.data_buckets());
        for w in a.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
