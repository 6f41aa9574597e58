//! An on-air R-tree backend: STR-packed leaves as data buckets, internal
//! nodes as index buckets.

use crate::backend::{AirIndexBackend, BuildParams, INDEX_FANOUT};
use crate::{Bucket, IndexError, Poi, PoiTable, QueryScratch};
use airshare_geom::{Point, Rect};
use airshare_rtree::RTree;

/// The alternative air-index backend: `crates/rtree`'s STR bulk-loaded
/// R-tree packed into broadcast buckets.
///
/// * **Data segment** — POIs are bulk-loaded into an
///   [`airshare_rtree::RTree`] and read back in its depth-first leaf
///   order (deterministic for a given input), then chunked into
///   fixed-capacity [`Bucket`]s. Spatially close POIs therefore land in
///   the same or adjacent buckets, just as Hilbert ordering achieves for
///   the curve backend.
/// * **Index segment** — the internal nodes of a fan-out-64 tree over
///   the data buckets, broadcast root level first. Each node is
///   one index bucket listing up to 64 child descriptors
///   (MBR + POI count + first covered data bucket). Only its length
///   reaches the schedule, so only the node count is kept.
/// * **Query mapping** — window and kNN predicates select every data
///   bucket whose MBR intersects the search rectangle; the kNN first
///   scan accumulates mindist-sorted buckets until their counts reach
///   `k` and bounds the radius by the largest maxdist seen, using only
///   index-segment information (MBR + count).
///
/// The `hilbert_range` field of the produced [`Bucket`]s carries
/// broadcast *sequence numbers* (the positions of the bucket's first and
/// last POI in broadcast order), not curve values — the monotone key the
/// rest of the stack expects.
#[derive(Clone, Debug)]
pub struct RtreeAirIndex {
    world: Rect,
    buckets: Vec<Bucket>,
    /// On-air index nodes (one bucket each) over `buckets`.
    index_buckets: usize,
    poi_count: usize,
}

impl RtreeAirIndex {
    /// The number of internal nodes of a fan-out-64 tree over
    /// `data_buckets` leaves, level by level up to the root: Σ⌈n/64⌉,
    /// and a lone root bucket when there are zero or one data buckets.
    fn index_bucket_count(data_buckets: usize) -> usize {
        let (mut level, mut nodes) = (data_buckets, 0);
        while level > 1 {
            level = level.div_ceil(INDEX_FANOUT);
            nodes += level;
        }
        nodes.max(1)
    }
}

impl AirIndexBackend for RtreeAirIndex {
    fn try_build(pois: &PoiTable, params: &BuildParams) -> Result<Self, IndexError> {
        if params.bucket_capacity < 1 {
            return Err(IndexError::ZeroBucketCapacity);
        }
        let poi_count = pois.len();
        let tree = RTree::bulk_load(pois.iter().map(|p| (p.pos, *p)).collect());
        let ordered: Vec<Poi> = tree.iter().map(|(_, p)| *p).collect();
        let mut buckets = Vec::with_capacity(ordered.len().div_ceil(params.bucket_capacity));
        for (i, chunk) in ordered.chunks(params.bucket_capacity).enumerate() {
            let base = (i * params.bucket_capacity) as u64;
            let seq: Vec<u64> = (0..chunk.len() as u64).map(|j| base + j).collect();
            buckets.push(Bucket::build(i, chunk.to_vec(), &seq));
        }
        Ok(Self {
            world: params.world,
            index_buckets: Self::index_bucket_count(buckets.len()),
            buckets,
            poi_count,
        })
    }

    fn world(&self) -> Rect {
        self.world
    }

    fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    fn index_buckets(&self) -> usize {
        self.index_buckets
    }

    fn poi_count(&self) -> usize {
        self.poi_count
    }

    /// Bucket-granularity first scan: walk buckets in ascending
    /// `(mindist, id)` order, accumulating POI counts until at least `k`
    /// are guaranteed; the radius is the largest maxdist among the taken
    /// buckets, so their POIs — hence ≥ k POIs — all lie within it. Uses
    /// only information the index segment carries (MBR + count).
    ///
    /// The order is walked without a buffer, so the scan allocates
    /// nothing: each step takes the smallest key above the last one
    /// taken, one pass over the buckets per bucket taken.
    fn knn_search_radius(&self, q: Point, k: usize) -> Option<f64> {
        if k == 0 || self.poi_count < k {
            return None;
        }
        let key = |b: &Bucket| (b.mbr.distance_to_point(q), b.id);
        let cmp = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        let mut last: Option<(f64, usize)> = None;
        let mut covered = 0usize;
        let mut radius = 0.0_f64;
        loop {
            let next = (self.buckets.iter().map(key))
                .filter(|c| last.is_none_or(|l| cmp(&l, c).is_lt()))
                .min_by(cmp)
                .expect("poi_count >= k guarantees coverage");
            let b = &self.buckets[next.1];
            covered += b.pois.len();
            radius = radius.max(b.mbr.max_distance_to_point(q));
            if covered >= k {
                return Some(radius);
            }
            last = Some(next);
        }
    }

    /// The window planner: every data bucket whose MBR intersects any of
    /// the windows. Bucket ids ascend by construction, so the output is
    /// sorted and deduplicated.
    fn buckets_for_windows_scratch(&self, windows: &[Rect], scratch: &mut QueryScratch) {
        scratch.buckets.clear();
        for b in &self.buckets {
            if windows.iter().any(|w| b.mbr.intersects(w)) {
                scratch.buckets.push(b.id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(cap: usize) -> BuildParams {
        BuildParams {
            world: Rect::from_coords(0.0, 0.0, 64.0, 64.0),
            hilbert_order: 5,
            bucket_capacity: cap,
        }
    }

    fn scatter(n: usize) -> Vec<Poi> {
        let mut state = 99u64;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let x = (state >> 16 & 0xFFFF) as f64 / 1024.0;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let y = (state >> 16 & 0xFFFF) as f64 / 1024.0;
                Poi::new(i as u32, Point::new(x, y))
            })
            .collect()
    }

    fn setup(n: usize, cap: usize) -> RtreeAirIndex {
        RtreeAirIndex::try_build(&crate::PoiTable::from_pois(scatter(n)), &params(cap)).unwrap()
    }

    #[test]
    fn buckets_are_packed_and_keyed_by_sequence() {
        let idx = setup(300, 10);
        assert_eq!(idx.data_buckets(), 30);
        assert_eq!(idx.poi_count(), 300);
        let mut prev_hi = None;
        for (i, b) in idx.buckets().iter().enumerate() {
            assert_eq!(b.id, i);
            assert!(!b.pois.is_empty() && b.pois.len() <= 10);
            // Sequence keys are globally monotone across buckets.
            if let Some(hi) = prev_hi {
                assert!(b.hilbert_range.0 > hi);
            }
            prev_hi = Some(b.hilbert_range.1);
            // The MBR bounds its POIs.
            for p in &b.pois {
                assert!(b.mbr.contains(p.pos));
            }
        }
    }

    #[test]
    fn window_buckets_cover_all_window_pois() {
        let idx = setup(500, 8);
        let w = Rect::from_coords(10.0, 10.0, 30.0, 25.0);
        let chosen = QueryScratch::planned(|s| idx.buckets_for_window_scratch(&w, s));
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
        // Output is sorted and deduplicated.
        for pair in chosen.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn knn_radius_guarantees_k_objects() {
        let idx = setup(400, 8);
        let q = Point::new(32.0, 32.0);
        // The reference walk: every bucket sorted by `(mindist, id)`.
        let mut order: Vec<&Bucket> = idx.buckets().iter().collect();
        order.sort_by(|a, b| {
            let (da, db) = (a.mbr.distance_to_point(q), b.mbr.distance_to_point(q));
            da.total_cmp(&db).then(a.id.cmp(&b.id))
        });
        for k in [1, 3, 10, 25, 400] {
            let r = idx.knn_search_radius(q, k).unwrap();
            let (mut covered, mut want) = (0, 0.0_f64);
            for b in &order {
                covered += b.pois.len();
                want = want.max(b.mbr.max_distance_to_point(q));
                if covered >= k {
                    break;
                }
            }
            assert_eq!(r, want, "k = {k}");
            let count = idx
                .buckets()
                .iter()
                .flat_map(|b| &b.pois)
                .filter(|p| p.distance_to(q) <= r)
                .count();
            assert!(count >= k, "radius {r} holds {count} < {k} POIs");
        }
        assert!(idx.knn_search_radius(q, 0).is_none());
        assert!(idx.knn_search_radius(q, 401).is_none());
    }

    #[test]
    fn filtered_buckets_drop_fully_verified_ones() {
        crate::client::tests::assert_filter_drops_fully_verified_buckets(&setup(500, 4));
    }

    #[test]
    fn multi_window_set_is_union_of_single_windows() {
        let idx = setup(500, 8);
        let w1 = Rect::from_coords(10.0, 10.0, 30.0, 25.0);
        let w2 = Rect::from_coords(20.0, 15.0, 40.0, 35.0);
        let mut scratch = QueryScratch::new();
        idx.buckets_for_windows_scratch(&[w1, w2], &mut scratch);
        // Oracle: each window's MBR scan, concatenated and deduplicated.
        let single = |w: Rect| {
            (idx.buckets().iter())
                .filter(move |b| b.mbr.intersects(&w))
                .map(|b| b.id)
        };
        let mut naive: Vec<_> = single(w1).chain(single(w2)).collect();
        naive.sort_unstable();
        naive.dedup();
        assert_eq!(scratch.buckets(), naive);
        idx.buckets_for_windows_scratch(&[], &mut scratch);
        assert!(scratch.buckets().is_empty());
    }

    #[test]
    fn index_bucket_count_is_internal_node_count() {
        for (n, cap) in [(0, 4), (3, 4), (300, 10), (2000, 4)] {
            let idx = setup(n, cap);
            let mut expect = 0usize;
            let mut level = idx.data_buckets();
            while level > 1 {
                level = level.div_ceil(INDEX_FANOUT);
                expect += level;
            }
            assert_eq!(idx.index_buckets(), expect.max(1), "n={n} cap={cap}");
        }
    }

    /// The index nodes over `data_buckets` leaves, built level by level:
    /// each level's entries chunked into nodes of at most 64 children
    /// until one summary remains (it is not broadcast), root level first.
    /// Zero or one data bucket gets a single root node listing it.
    fn level_build(data_buckets: usize) -> Vec<Vec<usize>> {
        let mut level: Vec<usize> = (0..data_buckets).collect();
        let mut levels = Vec::new();
        while level.len() > 1 {
            let nodes: Vec<Vec<usize>> =
                level.chunks(INDEX_FANOUT).map(<[usize]>::to_vec).collect();
            level = (0..nodes.len()).collect();
            levels.push(nodes);
        }
        if levels.is_empty() {
            return vec![level];
        }
        levels.into_iter().rev().flatten().collect()
    }

    #[test]
    fn index_nodes_respect_fanout() {
        for n in 0..=4200 {
            let nodes = level_build(n);
            assert_eq!(
                RtreeAirIndex::index_bucket_count(n),
                nodes.len(),
                "{n} buckets"
            );
            if n > 1 {
                assert!(nodes
                    .iter()
                    .all(|node| (1..=INDEX_FANOUT).contains(&node.len())));
            }
        }
        let idx = setup(2000, 4); // 500 data buckets -> two index levels
        let nodes = level_build(idx.data_buckets());
        assert_eq!(idx.index_buckets(), nodes.len());
        assert_eq!(nodes.len(), 1 + 8);
        // Root bucket comes first and summarizes everything.
        assert_eq!(nodes[0].len(), idx.data_buckets().div_ceil(INDEX_FANOUT));
    }

    #[test]
    fn empty_and_invalid_builds() {
        let idx = RtreeAirIndex::try_build(&crate::PoiTable::new(), &params(4)).unwrap();
        assert_eq!(idx.data_buckets(), 0);
        assert_eq!(idx.index_buckets(), 1);
        let everything = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let chosen = QueryScratch::planned(|s| idx.buckets_for_window_scratch(&everything, s));
        assert!(chosen.is_empty());
        assert!(idx.knn_search_radius(Point::ORIGIN, 1).is_none());
        // The lone root index bucket lists nothing.
        assert_eq!(level_build(0), [Vec::<usize>::new()]);
        assert_eq!(idx.index_buckets(), level_build(idx.data_buckets()).len());
        assert_eq!(
            RtreeAirIndex::try_build(&crate::PoiTable::new(), &params(0)).unwrap_err(),
            IndexError::ZeroBucketCapacity
        );
    }
}
