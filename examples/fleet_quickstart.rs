//! Fleet storage quickstart: the handle-based APIs behind the
//! million-host engine (DESIGN.md §15).
//!
//! Walks the three layers of `airshare::fleet`:
//! 1. the canonical [`PoiTable`] and its 4-byte [`PoiId`] handles —
//!    POI payloads live once, everything else refers;
//! 2. the flat [`HostCache`]: one entry list and one POI-handle buffer
//!    per host, handle-native inserts, and handle-level share replies
//!    resolved through the table;
//! 3. the columnar [`FleetStore`] a simulation exposes, plus the
//!    handle-carrying peer exchange (`gather_peer_data_checked` →
//!    `MergedRegion::from_replies`).
//!
//! Run with: `cargo run --release --example fleet_quickstart`

use airshare::prelude::*;

const CAT: PoiCategory = PoiCategory::GAS_STATION;

fn main() {
    // --- 1. The canonical table: every POI payload exactly once. ---
    let pois: Vec<Poi> = (0..100)
        .map(|i| {
            Poi::new(
                i,
                Point::new(f64::from(i % 10) + 0.5, f64::from(i / 10) + 0.5),
            )
        })
        .collect();
    let table = PoiTable::from_pois(pois.iter().copied());
    // A handle is the POI's server id, typed; resolving is O(1).
    let handle: PoiId = pois[42].handle();
    let resolved = table.get(handle).expect("table knows its own POIs");
    println!(
        "table: {} POIs; handle {:?} resolves to {:?}",
        table.len(),
        handle,
        resolved.pos
    );

    // --- 2. Flat caches: each entry's POI membership is a span of
    // PoiIds in the cache's one handle buffer. ---
    let mut cache = HostCache::new(20, ReplacementPolicy::default());
    let vr = Rect::from_coords(0.0, 0.0, 4.0, 4.0);
    let ids: Vec<PoiId> = pois
        .iter()
        .filter(|p| vr.contains(p.pos))
        .map(Poi::handle)
        .collect();
    let ctx = CacheContext {
        pos: Point::new(2.0, 2.0),
        heading: Some((1.0, 0.0)),
        now: 0.0,
    };
    // Handle-native insert: no owned Vec<Poi> anywhere on the path
    // (this is the allocation-free steady-state API the engine uses).
    cache.insert_ids(&table, CAT, vr, &ids, 0.0, &ctx);
    let view: EntryView<'_> = cache.entries(CAT).next().expect("just inserted");
    println!(
        "cache: region {:?} carries {} POI handles {:?}",
        view.vr,
        view.len(),
        view.poi_ids
    );
    // Need payloads back? Resolve the shared handles through the table.
    let snap: Vec<(Rect, Vec<Poi>)> = cache
        .share_regions(CAT)
        .map(|(vr, ids)| {
            (
                vr,
                ids.iter()
                    .filter_map(|&id| table.get(id).copied())
                    .collect(),
            )
        })
        .collect();
    println!(
        "resolved snapshot: {} regions, {} owned POIs",
        snap.len(),
        snap.iter().map(|(_, p)| p.len()).sum::<usize>()
    );

    // --- 3. Peer exchange ships claims, not payloads: replies carry
    // (Rect, Vec<PoiId>) and the receiver resolves against ITS OWN
    // table, so peers cannot forge POI positions. ---
    let positions = vec![Point::new(2.0, 2.0), Point::new(2.1, 2.0)];
    let caches = vec![cache, HostCache::new(20, ReplacementPolicy::default())];
    let grid = NeighborGrid::build(positions, 0.5);
    let (replies, stats) = gather_peer_data_checked(
        1,
        Point::new(2.1, 2.0),
        0.3,
        CAT,
        &grid,
        &caches,
        &table,
        None,
        ShareFaults::default(),
    );
    let mvr = MergedRegion::from_replies(&replies, &table);
    println!(
        "peer exchange: {} peers, {} regions, {} POIs resolved into the MVR",
        stats.peers_contacted,
        replies.iter().map(|r| r.regions.len()).sum::<usize>(),
        mvr.pois().len()
    );

    // --- 4. The columnar fleet store a full simulation runs on. ---
    let p = params::synthetic_suburbia().scaled(0.004);
    let mut cfg = SimConfig::paper_defaults(p, QueryKind::Knn, 42);
    cfg.warmup_min = 5.0;
    cfg.measure_min = 5.0;
    cfg.hilbert_order = 6;
    let mut sim = Simulation::try_new(cfg).expect("valid config");
    let report = sim.run();
    let fleet: &FleetStore = sim.fleet();
    let online = fleet.online().iter().filter(|&&b| b).count();
    let cached: usize = (0..fleet.len())
        .map(|h| fleet.cache(h).poi_count(CAT))
        .sum();
    println!(
        "simulated fleet: {} hosts ({} online), {} POIs cached fleet-wide, \
         {} queries answered ({} by peers)",
        fleet.len(),
        online,
        cached,
        report.queries.total,
        report.queries.by_peers
    );
    println!(
        "every cached POI above is a 4-byte handle into one {}-entry table.",
        sim.poi_table().len()
    );
}
