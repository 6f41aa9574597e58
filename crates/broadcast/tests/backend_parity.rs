//! Cross-backend parity properties: the STR R-tree backend must return
//! exactly the same *result sets* as the Hilbert backend for kNN and
//! window queries (bucket schedules and therefore latency/tuning may
//! differ — correctness may not), and the Hilbert backend accessed
//! through a `dyn AirIndexBackend` trait object must be bit-identical
//! to the concrete static-dispatch path.

use airshare_broadcast::{
    AirIndex, AirIndexBackend, BuildParams, OnAirClient, Poi, PoiTable, QueryScratch,
    RtreeAirIndex, Schedule,
};
use airshare_geom::{Point, Rect};
use airshare_obs::NoopRecorder;
use proptest::prelude::*;

const SIDE: f64 = 32.0;

fn pois(coords: &[(f64, f64)]) -> PoiTable {
    PoiTable::from_pois(
        coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Poi::new(i as u32, Point::new(x, y))),
    )
}

fn params(cap: usize) -> BuildParams {
    BuildParams {
        world: Rect::from_coords(0.0, 0.0, SIDE, SIDE),
        hilbert_order: 5,
        bucket_capacity: cap,
    }
}

/// Build both backends over the same POI set and wrap each in a client
/// with a schedule sized to its own bucket layout.
fn build_pair(
    coords: &[(f64, f64)],
    cap: usize,
    m: usize,
) -> (AirIndex, RtreeAirIndex, Schedule, Schedule) {
    let p = params(cap);
    let hilbert = <AirIndex as AirIndexBackend>::try_build(&pois(coords), &p).unwrap();
    let rtree = <RtreeAirIndex as AirIndexBackend>::try_build(&pois(coords), &p).unwrap();
    let hs = Schedule::try_for_backend(&hilbert, m).unwrap();
    let rs = Schedule::try_for_backend(&rtree, m).unwrap();
    (hilbert, rtree, hs, rs)
}

fn arb_coords() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0..SIDE, 0.0..SIDE), 20..200)
}

/// Float inputs as drawn, or (`lattice`) snapped to the integer grid,
/// which is the Hilbert cell grid at `hilbert_order` 5: POIs on cell
/// lines and window edges, ties at the k-th distance, and queries on
/// the half-grid or on a POI.
fn snap_coords(lattice: bool, coords: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    if !lattice {
        return coords;
    }
    coords
        .into_iter()
        .map(|(x, y)| (x.floor(), y.floor()))
        .collect()
}

/// The query point: on the half-grid, or (`pick == 0`) on a POI.
fn snap_query(lattice: bool, q: Point, pick: usize, coords: &[(f64, f64)]) -> Point {
    match (lattice, pick) {
        (false, _) => q,
        (true, 0) => {
            let (x, y) = coords[(q.x as usize) % coords.len()];
            Point::new(x, y)
        }
        (true, _) => Point::new((2.0 * q.x).round() / 2.0, (2.0 * q.y).round() / 2.0),
    }
}

/// A window on the grid, each side zero about a third of the time, so
/// segment and point windows are common.
fn snap_window(lattice: bool, (x, y, w, h): (f64, f64, f64, f64)) -> Rect {
    if !lattice {
        return Rect::from_coords(x, y, x + w, y + h);
    }
    let (w, h) = (
        (1.5 * w - 1.0).max(0.0).floor(),
        (1.5 * h - 1.0).max(0.0).floor(),
    );
    Rect::from_coords(x.floor(), y.floor(), x.floor() + w, y.floor() + h)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both backends return the same k nearest distances (compared
    /// bit-exact via `total_cmp`, which is robust to ties in POI ids).
    #[test]
    fn knn_result_sets_match_across_backends(
        (lattice, pick) in (any::<bool>(), 0usize..4),
        coords in arb_coords(),
        qx in 0.0..SIDE, qy in 0.0..SIDE,
        k in 1usize..10,
        cap in 1usize..16,
        tune in 0u64..2_000,
    ) {
        prop_assume!(coords.len() >= k);
        let coords = snap_coords(lattice, coords);
        let (hilbert, rtree, hs, rs) = build_pair(&coords, cap, 4);
        let hc = OnAirClient::new(&hilbert, &hs);
        let rc = OnAirClient::new(&rtree, &rs);
        let q = snap_query(lattice, Point::new(qx, qy), pick, &coords);
        let (scratch, rec) = (&mut QueryScratch::new(), &mut NoopRecorder);
        let hres = hc.knn_rec(tune, q, k, scratch, rec).expect("enough POIs");
        let rres = rc.knn_rec(tune, q, k, scratch, rec).expect("enough POIs");
        prop_assert_eq!(hres.neighbors.len(), rres.neighbors.len());
        let mut hd: Vec<f64> = hres.neighbors.iter().map(|p| p.distance_to(q)).collect();
        let mut rd: Vec<f64> = rres.neighbors.iter().map(|p| p.distance_to(q)).collect();
        hd.sort_by(f64::total_cmp);
        rd.sort_by(f64::total_cmp);
        for (a, b) in hd.iter().zip(&rd) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "q {:?}, k {}", q, k);
        }
    }

    /// Both backends return exactly the same POI id set for any window,
    /// and it is the set of POIs the closed window contains.
    #[test]
    fn window_result_sets_match_across_backends(
        lattice in any::<bool>(),
        coords in arb_coords(),
        wx in 0.0..SIDE - 4.0, wy in 0.0..SIDE - 4.0,
        ww in 0.1..4.0f64, wh in 0.1..4.0f64,
        cap in 1usize..16,
        tune in 0u64..2_000,
    ) {
        let coords = snap_coords(lattice, coords);
        let (hilbert, rtree, hs, rs) = build_pair(&coords, cap, 2);
        let hc = OnAirClient::new(&hilbert, &hs);
        let rc = OnAirClient::new(&rtree, &rs);
        let w = snap_window(lattice, (wx, wy, ww, wh));
        let (scratch, rec) = (&mut QueryScratch::new(), &mut NoopRecorder);
        let mut hids: Vec<u32> =
            hc.window_rec(tune, &w, scratch, rec).pois.iter().map(|p| p.id).collect();
        let mut rids: Vec<u32> =
            rc.window_rec(tune, &w, scratch, rec).pois.iter().map(|p| p.id).collect();
        hids.sort_unstable();
        rids.sort_unstable();
        let truth: Vec<u32> = (coords.iter().enumerate())
            .filter(|&(_, &(x, y))| w.contains(Point::new(x, y)))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(&hids, &truth, "hilbert, window {:?}", w);
        prop_assert_eq!(&rids, &truth, "rtree, window {:?}", w);
    }

    /// The Hilbert backend behind a trait object is bit-identical to the
    /// concrete path: same neighbors, same ids, same latency/tuning/
    /// bucket stats for kNN and window alike.
    #[test]
    fn hilbert_dyn_dispatch_is_bit_identical(
        coords in arb_coords(),
        qx in 0.0..SIDE, qy in 0.0..SIDE,
        k in 1usize..10,
        cap in 1usize..16,
        tune in 0u64..2_000,
        ww in 0.1..4.0f64, wh in 0.1..4.0f64,
    ) {
        prop_assume!(coords.len() >= k);
        let p = params(cap);
        let index = <AirIndex as AirIndexBackend>::try_build(&pois(&coords), &p).unwrap();
        let schedule = Schedule::try_for_backend(&index, 4).unwrap();
        let concrete = OnAirClient::new(&index, &schedule);
        let erased = concrete.as_dyn();
        let q = Point::new(qx, qy);
        let (scratch, rec) = (&mut QueryScratch::new(), &mut NoopRecorder);

        let a = concrete.knn_rec(tune, q, k, scratch, rec).expect("enough POIs");
        let b = erased.knn_rec(tune, q, k, scratch, rec).expect("enough POIs");
        prop_assert_eq!(a.stats.latency, b.stats.latency);
        prop_assert_eq!(a.stats.tuning, b.stats.tuning);
        prop_assert_eq!(a.stats.buckets, b.stats.buckets);
        let aid: Vec<u32> = a.neighbors.iter().map(|p| p.id).collect();
        let bid: Vec<u32> = b.neighbors.iter().map(|p| p.id).collect();
        prop_assert_eq!(aid, bid);

        let w = Rect::from_coords(qx.min(SIDE - ww), qy.min(SIDE - wh), qx.min(SIDE - ww) + ww, qy.min(SIDE - wh) + wh);
        let wa = concrete.window_rec(tune, &w, scratch, rec);
        let wb = erased.window_rec(tune, &w, scratch, rec);
        prop_assert_eq!(wa.stats.latency, wb.stats.latency);
        prop_assert_eq!(wa.stats.tuning, wb.stats.tuning);
        prop_assert_eq!(wa.stats.buckets, wb.stats.buckets);
        let wia: Vec<u32> = wa.pois.iter().map(|p| p.id).collect();
        let wib: Vec<u32> = wb.pois.iter().map(|p| p.id).collect();
        prop_assert_eq!(wia, wib);
    }
}

/// FNV-1a over `RtreeAirIndex::try_build`'s per-bucket POI-id order.
fn rtree_layout_hash(coords: &[(f64, f64)], cap: usize) -> u64 {
    let index = <RtreeAirIndex as AirIndexBackend>::try_build(&pois(coords), &params(cap)).unwrap();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for b in index.buckets() {
        eat(b.id as u64);
        for p in &b.pois {
            eat(u64::from(p.id));
        }
    }
    h
}

/// The R-tree backend's on-air layout is pinned: the STR packing
/// decides which POIs share a bucket and in what order buckets go on
/// air. Equal kNN and window answers would hide a packing change; this
/// hash does not.
#[test]
fn rtree_bucket_order_is_pinned() {
    let mut state = 7u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * SIDE
    };
    let coords: Vec<(f64, f64)> = (0..1000).map(|_| (next(), next())).collect();
    let got = [
        rtree_layout_hash(&coords, 8),
        rtree_layout_hash(&coords, 64),
    ];
    assert_eq!(
        got,
        [284112087575334561, 15068673420082736737],
        "R-tree backend bucket order moved"
    );
}
