//! Cross-crate integration: a hand-driven multi-host scenario exercising
//! the full public API surface — broadcast channel, caches, P2P gather,
//! SBNN/SBWQ — with every answer checked against ground truth.

use airshare::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CAT: PoiCategory = PoiCategory::GAS_STATION;

struct World {
    index: AirIndex,
    schedule: Schedule,
    oracle: RTree<u32>,
    table: PoiTable,
}

fn build_world(n: usize, side: f64, seed: u64) -> World {
    let world = Rect::from_coords(0.0, 0.0, side, side);
    let mut rng = StdRng::seed_from_u64(seed);
    let pois: Vec<Poi> = (0..n)
        .map(|i| {
            Poi::new(
                i as u32,
                Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
            )
        })
        .collect();
    let oracle = RTree::bulk_load(pois.iter().map(|p| (p.pos, p.id)).collect());
    let table = PoiTable::from_pois(pois.iter().copied());
    let index = AirIndex::try_build(pois, Grid::new(world, 6), 8).unwrap();
    let schedule = Schedule::try_new(index.data_buckets(), index.index_buckets(), 4).unwrap();
    World {
        index,
        schedule,
        oracle,
        table,
    }
}

#[test]
fn knowledge_flows_from_broadcast_to_peers() {
    let w = build_world(400, 16.0, 5);
    let client = OnAirClient::new(&w.index, &w.schedule);

    // Host A at (8, 8) answers a 5-NN query on air and caches the
    // verified search MBR.
    let mut cache_a = HostCache::new(50, ReplacementPolicy::default());
    let a_pos = Point::new(8.0, 8.0);
    let empty = MergedRegion::from_regions(Vec::<(Rect, Vec<Poi>)>::new());
    let res_a = sbnn_rec(
        a_pos,
        &SbnnConfig::paper_defaults(5, 400.0 / 256.0),
        &empty,
        Some((&client.as_dyn(), 0)),
        &mut QueryScratch::new(),
        &mut NoopRecorder,
    )
    .resolved()
    .unwrap();
    assert_eq!(res_a.resolved_by, ResolvedBy::Broadcast);
    let (vr, pois) = res_a.adoptable.clone().unwrap();
    let ids: Vec<PoiId> = pois.iter().map(Poi::handle).collect();
    let ctx = CacheContext {
        pos: a_pos,
        heading: None,
        now: 0.0,
    };
    let stored = cache_a.insert_ids(&w.table, CAT, vr, &ids, 0.0, &ctx);
    assert_eq!(stored, airshare::cache::InsertOutcome::Stored);
    assert!(cache_a.poi_count(CAT) > 0);

    // Host B, 100 m away, now asks for its 3 nearest POIs. It gathers
    // A's cache over P2P and must be able to verify at least one
    // neighbor without the channel.
    let b_pos = a_pos.offset(airshare::geom::meters_to_miles(100.0), 0.0);
    let positions = vec![a_pos, b_pos];
    let caches = vec![cache_a, HostCache::new(50, ReplacementPolicy::default())];
    // Replies carry PoiId handles; B resolves them against its own
    // canonical table (the full POI set the world was built on).
    let grid = NeighborGrid::build(positions, 0.5);
    let (replies, stats) = gather_peer_data_checked(
        1,
        b_pos,
        0.2,
        CAT,
        &grid,
        &caches,
        &w.table,
        None,
        ShareFaults::default(),
    );
    assert_eq!(stats.peers_contacted, 1);
    assert_eq!(replies.len(), 1);

    let mvr = MergedRegion::from_replies(&replies, &w.table);
    assert!(mvr.contains(b_pos), "B sits inside A's verified region");
    let heap = nnv(b_pos, 3, &mvr, 400.0 / 256.0);
    assert!(heap.verified_count() >= 1, "state: {:?}", heap.state());

    // Whatever B verified must agree with the oracle.
    let truth = w.oracle.knn(b_pos, 3);
    for (rank, e) in heap.entries().iter().enumerate() {
        if e.verified {
            assert!(
                (e.distance - truth[rank].distance).abs() < 1e-9,
                "rank {rank} wrong"
            );
        }
    }

    // And completing the query over the channel with B's bounds is
    // exact and cheaper than a cold query.
    let res_b = sbnn_rec(
        b_pos,
        &SbnnConfig {
            accept_approx: false,
            ..SbnnConfig::paper_defaults(3, 400.0 / 256.0)
        },
        &mvr,
        Some((&client.as_dyn(), 1000)),
        &mut QueryScratch::new(),
        &mut NoopRecorder,
    )
    .resolved()
    .unwrap();
    for (got, want) in res_b.neighbors.iter().zip(&truth) {
        assert!((got.distance - want.distance).abs() < 1e-9);
    }
    if res_b.resolved_by == ResolvedBy::Broadcast {
        let cold = client
            .knn_rec(1000, b_pos, 3, &mut QueryScratch::new(), &mut NoopRecorder)
            .unwrap();
        assert!(
            res_b.air.unwrap().buckets <= cold.stats.buckets,
            "bound filtering fetched more than a cold query"
        );
    }
}

#[test]
fn window_query_roundtrip_through_caches() {
    let w = build_world(500, 16.0, 9);
    let client = OnAirClient::new(&w.index, &w.schedule);

    // A host answers a window query on air, caches it, then a peer's
    // overlapping window is answered (partially) from that cache.
    let w1 = Rect::from_coords(4.0, 4.0, 7.0, 7.0);
    let empty = MergedRegion::from_regions(Vec::<(Rect, Vec<Poi>)>::new());
    let r1 = sbwq_rec(
        &w1,
        &SbwqConfig::default(),
        &empty,
        Some((&client.as_dyn(), 0)),
        &mut QueryScratch::new(),
        &mut NoopRecorder,
    )
    .resolved()
    .unwrap();
    assert_eq!(r1.resolved_by, ResolvedBy::Broadcast);
    let mut truth1: Vec<u32> = w.oracle.window(&w1).into_iter().map(|(_, &i)| i).collect();
    truth1.sort_unstable();
    let mut got1: Vec<u32> = r1.pois.iter().map(|p| p.id).collect();
    got1.sort_unstable();
    assert_eq!(got1, truth1);

    // Cache the whole window as a verified region: resolved, it is
    // fully known.
    let mvr = MergedRegion::from_regions([(w1, r1.pois.clone())]);

    // Sub-window: fully covered, answered exactly with no channel.
    let sub = Rect::from_coords(4.5, 4.5, 6.0, 6.5);
    let r2 = sbwq_rec(
        &sub,
        &SbwqConfig::default(),
        &mvr,
        None,
        &mut QueryScratch::new(),
        &mut NoopRecorder,
    )
    .resolved()
    .unwrap();
    assert_eq!(r2.resolved_by, ResolvedBy::PeersVerified);
    let mut truth2: Vec<u32> = w.oracle.window(&sub).into_iter().map(|(_, &i)| i).collect();
    truth2.sort_unstable();
    let mut got2: Vec<u32> = r2.pois.iter().map(|p| p.id).collect();
    got2.sort_unstable();
    assert_eq!(got2, truth2);

    // Overlapping window: reduced fetch, still exact, fewer buckets
    // than fetching the whole window cold.
    let w3 = Rect::from_coords(6.0, 5.0, 9.0, 8.0);
    let r3 = sbwq_rec(
        &w3,
        &SbwqConfig::default(),
        &mvr,
        Some((&client.as_dyn(), 500)),
        &mut QueryScratch::new(),
        &mut NoopRecorder,
    )
    .resolved()
    .unwrap();
    let mut truth3: Vec<u32> = w.oracle.window(&w3).into_iter().map(|(_, &i)| i).collect();
    truth3.sort_unstable();
    let mut got3: Vec<u32> = r3.pois.iter().map(|p| p.id).collect();
    got3.sort_unstable();
    assert_eq!(got3, truth3);
    assert!(r3.coverage > 0.0 && r3.coverage < 1.0);
    let cold = client.window_rec(500, &w3, &mut QueryScratch::new(), &mut NoopRecorder);
    assert!(r3.air.unwrap().buckets <= cold.stats.buckets);
}

#[test]
fn umbrella_reexports_are_usable() {
    // The namespaced module paths work alongside the prelude.
    let p = airshare::geom::Point::new(1.0, 2.0);
    let c = airshare::hilbert::HilbertCurve::new(4);
    assert_eq!(c.decode(c.encode(3, 7)), (3, 7));
    let t: airshare::rtree::RTree<u8> = airshare::rtree::RTree::bulk_load(Vec::new());
    assert!(t.is_empty());
    assert_eq!(airshare::geom::meters_to_miles(1609.344), 1.0);
    assert!(p.is_finite());
}
