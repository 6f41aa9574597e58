//! Property tests for the broadcast substrate: schedule timing
//! invariants, on-air query exactness against brute force, and the
//! cost-only baselines against the retrievals they shadow.

use airshare_broadcast::{
    AirIndex, AirIndexBackend, BuildParams, ChannelFaults, OnAirClient, Poi, PoiTable,
    QueryScratch, RtreeAirIndex, Schedule,
};
use airshare_geom::{Point, Rect};
use airshare_hilbert::Grid;
use airshare_obs::NoopRecorder;
use proptest::prelude::*;

const SIDE: f64 = 32.0;

fn build(coords: &[(f64, f64)], cap: usize, m: usize) -> (AirIndex, Schedule) {
    let pois: Vec<Poi> = coords
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| Poi::new(i as u32, Point::new(x, y)))
        .collect();
    let grid = Grid::new(Rect::from_coords(0.0, 0.0, SIDE, SIDE), 5);
    let index = AirIndex::try_build(pois, grid, cap).unwrap();
    let schedule = Schedule::try_new(index.data_buckets(), index.index_buckets(), m).unwrap();
    (index, schedule)
}

fn arb_coords() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0..SIDE, 0.0..SIDE), 20..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn schedule_offsets_are_unique_and_in_cycle(
        data in 1usize..300,
        idx in 1usize..8,
        m in 1usize..16,
    ) {
        let s = Schedule::try_new(data, idx, m).unwrap();
        let mut offsets: Vec<u64> = (0..data).map(|b| s.bucket_offset(b)).collect();
        // Strictly increasing in bucket id and inside the cycle.
        for w in offsets.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        prop_assert!(offsets.pop().unwrap() < s.cycle_len());
        // next_index_start is idempotent and never in the past.
        for t in [0u64, 1, s.cycle_len() / 2, s.cycle_len(), 3 * s.cycle_len() + 7] {
            let n = s.next_index_start(t);
            prop_assert!(n >= t);
            prop_assert_eq!(s.next_index_start(n), n);
        }
    }

    #[test]
    fn bucket_completion_monotone_in_time(
        data in 1usize..100,
        m in 1usize..8,
        b in 0usize..100,
        t1 in 0u64..10_000,
        dt in 0u64..1_000,
    ) {
        let s = Schedule::try_new(data, 2, m).unwrap();
        let b = b % data;
        let c1 = s.bucket_completion_after(b, t1);
        let c2 = s.bucket_completion_after(b, t1 + dt);
        prop_assert!(c1 > t1);
        prop_assert!(c2 >= c1);
        // A bucket repeats every cycle: completion within one cycle.
        prop_assert!(c1 - t1 <= s.cycle_len() + 1);
    }

    #[test]
    fn onair_knn_matches_brute_force(
        coords in arb_coords(),
        qx in 0.0..SIDE, qy in 0.0..SIDE,
        k in 1usize..10,
        cap in 1usize..16,
        tune in 0u64..2_000,
    ) {
        let (index, schedule) = build(&coords, cap, 4);
        let client = OnAirClient::new(&index, &schedule);
        let q = Point::new(qx, qy);
        prop_assume!(coords.len() >= k);
        let res = client.knn_rec(tune, q, k, &mut QueryScratch::new(), &mut NoopRecorder).expect("enough POIs");
        let mut dists: Vec<f64> = coords
            .iter()
            .map(|&(x, y)| Point::new(x, y).distance(q))
            .collect();
        dists.sort_by(f64::total_cmp);
        for (got, want) in res.neighbors.iter().zip(&dists) {
            prop_assert!((got.distance_to(q) - want).abs() < 1e-9);
        }
        // Latency ≥ index read; tuning counts probe + index + buckets.
        prop_assert!(res.stats.latency >= schedule.index_buckets() as u64);
        prop_assert_eq!(
            res.stats.tuning,
            1 + schedule.index_buckets() as u64 + res.stats.buckets
        );
    }

    #[test]
    fn onair_window_matches_brute_force(
        coords in arb_coords(),
        wx in 0.0..SIDE - 4.0, wy in 0.0..SIDE - 4.0,
        ww in 0.1..4.0f64, wh in 0.1..4.0f64,
        cap in 1usize..16,
        tune in 0u64..2_000,
    ) {
        let (index, schedule) = build(&coords, cap, 2);
        let client = OnAirClient::new(&index, &schedule);
        let w = Rect::from_coords(wx, wy, wx + ww, wy + wh);
        let res = client.window_rec(tune, &w, &mut QueryScratch::new(), &mut NoopRecorder);
        let mut got: Vec<u32> = res.pois.iter().map(|p| p.id).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = coords
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| w.contains(Point::new(x, y)))
            .map(|(i, _)| i as u32)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn filtered_knn_with_consistent_knowledge_is_exact(
        coords in arb_coords(),
        qx in 0.0..SIDE, qy in 0.0..SIDE,
        k in 1usize..6,
        inner in 0.0..10.0f64,
    ) {
        prop_assume!(coords.len() >= k);
        let (index, schedule) = build(&coords, 4, 4);
        let client = OnAirClient::new(&index, &schedule);
        let q = Point::new(qx, qy);
        // Knowledge: everything within `inner` of q (a sound inner circle).
        let known: Vec<Poi> = coords
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| Point::new(x, y).distance(q) <= inner)
            .map(|(i, &(x, y))| Poi::new(i as u32, Point::new(x, y)))
            .collect();
        let cold = client.knn_rec(0, q, k, &mut QueryScratch::new(), &mut NoopRecorder).expect("enough POIs");
        let filt = client
            .knn_filtered_rec(0, q, k, &known, Some(inner), None, &mut QueryScratch::new(), &mut NoopRecorder)
            .expect("enough POIs");
        for (a, b) in cold.neighbors.iter().zip(&filt.neighbors) {
            prop_assert!((a.distance_to(q) - b.distance_to(q)).abs() < 1e-9);
        }
        prop_assert!(filt.stats.buckets <= cold.stats.buckets);
    }
}

/// The cost forms must report exactly what the full retrieval at the
/// same arguments reports — all five `AccessStats` fields — and leave
/// the scratch holding the planner's bucket set.
fn assert_cost_shadows_retrieval<B: AirIndexBackend>(
    index: &B,
    m: usize,
    faults: Option<&ChannelFaults>,
    tune: u64,
    (q, k): (Point, usize),
    w: &Rect,
) {
    let schedule = Schedule::try_for_backend(index, m).unwrap();
    let client = match faults {
        Some(f) => OnAirClient::with_faults(index, &schedule, f),
        None => OnAirClient::new(index, &schedule),
    };
    let mut scratch = QueryScratch::new();
    let full = client.knn_rec(tune, q, k, &mut scratch, &mut NoopRecorder);
    let planned = scratch.buckets().to_vec();
    assert_eq!(
        client.knn_cost(tune, q, k, &mut scratch),
        full.map(|r| r.stats)
    );
    assert_eq!(scratch.buckets(), planned);

    let full = client.window_rec(tune, w, &mut scratch, &mut NoopRecorder);
    let planned = scratch.buckets().to_vec();
    assert_eq!(client.window_cost(tune, w, &mut scratch), full.stats);
    assert_eq!(scratch.buckets(), planned);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cost_forms_shadow_the_retrievals(
        coords in arb_coords(),
        (qx, qy) in (-4.0..SIDE + 4.0, -4.0..SIDE + 4.0),
        // Past the POI count on some cases: both forms must say `None`.
        k in 1usize..40,
        (x1, y1, ww, wh) in (0.0..SIDE, 0.0..SIDE, 0.0..SIDE, 0.0..SIDE),
        (cap, m, tune) in (1usize..16, 1usize..9, 0u64..5_000),
        // No model, lossless model, light loss, heavy loss, dead channel.
        loss in prop::option::of(0usize..4),
        (budget, seed) in (0u32..4, any::<u64>()),
    ) {
        let table = PoiTable::from_pois(
            coords
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| Poi::new(i as u32, Point::new(x, y))),
        );
        let params = BuildParams {
            world: Rect::from_coords(0.0, 0.0, SIDE, SIDE),
            hilbert_order: 5,
            bucket_capacity: cap,
        };
        let faults = loss
            .map(|l| ChannelFaults::from_loss_prob(seed, [0.0, 0.05, 0.6, 1.0][l], budget));
        let query = (Point::new(qx, qy), k);
        let w = Rect::from_coords(x1, y1, x1 + ww, y1 + wh);
        let hilbert = <AirIndex as AirIndexBackend>::try_build(&table, &params).unwrap();
        assert_cost_shadows_retrieval(&hilbert, m, faults.as_ref(), tune, query, &w);
        let rtree = <RtreeAirIndex as AirIndexBackend>::try_build(&table, &params).unwrap();
        assert_cost_shadows_retrieval(&rtree, m, faults.as_ref(), tune, query, &w);
    }
}

#[test]
fn cost_forms_share_a_warm_scratch_with_the_planner() {
    // One scratch, as an epoch worker holds it: a filtered retrieval, a
    // cost query, the filtered retrieval again. The cost query neither
    // depends on what the scratch held nor leaves anything the planner
    // trips on.
    let coords: Vec<(f64, f64)> = (0..150)
        .map(|i| ((i * 37 % 32) as f64 + 0.5, (i * 11 % 32) as f64 + 0.25))
        .collect();
    let (index, schedule) = build(&coords, 4, 3);
    let faults = ChannelFaults::from_loss_prob(5, 0.3, 1);
    let client = OnAirClient::with_faults(&index, &schedule, &faults);
    let q = Point::new(13.0, 21.0);
    let w = Rect::from_coords(3.0, 4.0, 17.0, 9.0);

    let cold_knn = client.knn_cost(40, q, 5, &mut QueryScratch::new());
    let cold_window = client.window_cost(40, &w, &mut QueryScratch::new());
    // The filtered retrieval leaves its plan in the scratch.
    let known: Vec<Poi> = (index.buckets().iter().flat_map(|b| &b.pois))
        .filter(|p| p.distance_to(q) <= 3.0)
        .copied()
        .collect();
    let (inner, outer) = (Some(3.0), Some(9.0));
    let filtered = |scratch: &mut QueryScratch| {
        let res = client
            .knn_filtered_rec(40, q, 5, &known, inner, outer, scratch, &mut NoopRecorder)
            .expect("enough POIs");
        (scratch.buckets().to_vec(), res.stats)
    };
    let cold = filtered(&mut QueryScratch::new());

    let mut warm = QueryScratch::new();
    for _ in 0..3 {
        assert_eq!(filtered(&mut warm), cold);
        assert_eq!(client.knn_cost(40, q, 5, &mut warm), cold_knn);
        assert_eq!(filtered(&mut warm), cold);
        assert_eq!(client.window_cost(40, &w, &mut warm), cold_window);
    }
    assert_eq!(
        cold_knn,
        client
            .knn_rec(40, q, 5, &mut warm, &mut NoopRecorder)
            .map(|r| r.stats)
    );
}
