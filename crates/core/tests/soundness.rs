//! End-to-end soundness of the sharing-based algorithms against the
//! R-tree ground truth.
//!
//! These tests build a random global POI set, hand peers *consistent*
//! caches (each verified region contains exactly the global POIs inside
//! it — the invariant the cache layer maintains in the real system), and
//! then check the paper's central claims:
//!
//! * every SBNN-*verified* neighbor is a true nearest neighbor with the
//!   correct rank (Lemma 3.1 is never wrong, only conservative);
//! * a fully covered SBWQ window returns exactly the true window result;
//! * the broadcast fallback (with §3.3.3 bound filtering) is always
//!   exact;
//! * Lemma 3.2's tiled unverified area is the disk-minus-union sum it
//!   replaces, bit for bit.

use airshare_broadcast::{AirIndex, AirIndexBackend, OnAirClient, Poi, PoiTable, Schedule};
use airshare_core::approx::{unverified_area, unverified_area_in, unverified_area_of_tiles};
use airshare_core::{nnv, sbnn, sbwq, MergedRegion, ResolvedBy, SbnnConfig, SbwqConfig, SbwqOutcome};
use airshare_geom::disk::{disk_rect_area, disk_region_area, Disk};
use airshare_geom::{Point, Rect};
use airshare_hilbert::Grid;
use airshare_p2p::PeerReply;
use airshare_rtree::RTree;
use proptest::prelude::*;

const WORLD: f64 = 32.0;

fn world() -> Rect {
    Rect::from_coords(0.0, 0.0, WORLD, WORLD)
}

/// Build the global dataset from raw coordinates.
fn dataset(coords: &[(f64, f64)]) -> (Vec<Poi>, RTree<u32>) {
    let pois: Vec<Poi> = coords
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| Poi::new(i as u32, Point::new(x, y)))
        .collect();
    let tree = RTree::bulk_load(pois.iter().map(|p| (p.pos, p.id)).collect());
    (pois, tree)
}

/// Consistent peer replies: each VR carries exactly the global POIs
/// inside it.
fn consistent_replies(pois: &[Poi], vrs: &[Rect]) -> Vec<PeerReply> {
    vrs.iter()
        .enumerate()
        .map(|(i, vr)| PeerReply {
            peer: i,
            regions: vec![(
                *vr,
                pois.iter()
                    .filter(|p| vr.contains(p.pos))
                    .map(Poi::handle)
                    .collect(),
            )],
        })
        .collect()
}

fn arb_coords(n: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0..WORLD, 0.0..WORLD), 10..n)
}

fn arb_vrs() -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec(
        (0.0..WORLD - 6.0, 0.0..WORLD - 6.0, 0.5..6.0f64, 0.5..6.0f64),
        0..8,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(x, y, w, h)| Rect::from_coords(x, y, x + w, y + h))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn verified_neighbors_are_true_neighbors(
        coords in arb_coords(200),
        vrs in arb_vrs(),
        qx in 0.0..WORLD, qy in 0.0..WORLD,
        k in 1usize..8,
    ) {
        let (pois, tree) = dataset(&coords);
        let replies = consistent_replies(&pois, &vrs);
        let table = PoiTable::from_pois(pois.iter().copied());
        let mvr = MergedRegion::from_replies(&replies, &table);
        let q = Point::new(qx, qy);
        let heap = nnv(q, k, &mvr, 0.3);
        let truth = tree.knn(q, k);
        for (rank, entry) in heap.entries().iter().enumerate() {
            if entry.verified {
                // Lemma 3.1: a verified entry at rank i IS the true i-th NN.
                prop_assert!(
                    (entry.distance - truth[rank].distance).abs() < 1e-9,
                    "rank {rank}: verified {} vs truth {}",
                    entry.distance,
                    truth[rank].distance
                );
            }
        }
        // Verified entries form a prefix.
        let mut seen_unverified = false;
        for e in heap.entries() {
            if !e.verified {
                seen_unverified = true;
            } else {
                prop_assert!(!seen_unverified, "verified after unverified");
            }
        }
        // Unverified entries carry a probability in [0, 1] (exp may
        // underflow to exactly 0 for huge unverified areas).
        for e in heap.entries().iter().filter(|e| !e.verified) {
            let c = e.correctness.unwrap();
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
        }
    }

    #[test]
    fn sbnn_with_broadcast_fallback_is_exact(
        coords in arb_coords(150),
        vrs in arb_vrs(),
        qx in 0.0..WORLD, qy in 0.0..WORLD,
        k in 1usize..6,
        tune_in in 0u64..500,
        filtering in any::<bool>(),
    ) {
        let (pois, tree) = dataset(&coords);
        let index = AirIndex::try_build(pois.clone(), Grid::new(world(), 5), 4).unwrap();
        let schedule = Schedule::new(index.data_buckets(), index.index_buckets(), 4);
        let client = OnAirClient::new(&index, &schedule);
        let replies = consistent_replies(&pois, &vrs);
        let table = PoiTable::from_pois(pois.iter().copied());
        let mvr = MergedRegion::from_replies(&replies, &table);
        let q = Point::new(qx, qy);
        let cfg = SbnnConfig {
            accept_approx: false, // force exactness end to end
            min_correctness: 1.0,
            use_bound_filtering: filtering,
            ..SbnnConfig::paper_defaults(k, 0.3)
        };
        let res = sbnn(q, &cfg, &mvr, Some((&client.as_dyn(), tune_in)))
            .resolved()
            .expect("with a channel, exact queries always resolve");
        let truth = tree.knn(q, k);
        prop_assert_eq!(res.neighbors.len(), truth.len());
        for (got, want) in res.neighbors.iter().zip(&truth) {
            prop_assert!(
                (got.distance - want.distance).abs() < 1e-9,
                "{} vs {} (by {:?})", got.distance, want.distance, res.resolved_by
            );
        }
        // The adoptable region, when present, is sound: it contains
        // exactly the global POIs inside it.
        if let Some((vr, cached)) = &res.adoptable {
            let mut got: Vec<u32> = cached.iter().map(|p| p.id).collect();
            got.sort_unstable();
            let mut want: Vec<u32> = pois
                .iter()
                .filter(|p| vr.contains(p.pos))
                .map(|p| p.id)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "unsound adoptable region {:?}", vr);
        }
    }

    #[test]
    fn sbwq_resolves_exactly(
        coords in arb_coords(150),
        vrs in arb_vrs(),
        wx in 0.0..WORLD - 5.0, wy in 0.0..WORLD - 5.0,
        ww in 0.5..5.0f64, wh in 0.5..5.0f64,
        tune_in in 0u64..500,
        reduction in any::<bool>(),
    ) {
        let (pois, tree) = dataset(&coords);
        let index = AirIndex::try_build(pois.clone(), Grid::new(world(), 5), 4).unwrap();
        let schedule = Schedule::new(index.data_buckets(), index.index_buckets(), 4);
        let client = OnAirClient::new(&index, &schedule);
        let replies = consistent_replies(&pois, &vrs);
        let table = PoiTable::from_pois(pois.iter().copied());
        let mvr = MergedRegion::from_replies(&replies, &table);
        let w = Rect::from_coords(wx, wy, wx + ww, wy + wh);
        let cfg = SbwqConfig { use_window_reduction: reduction };
        let res = sbwq(&w, &cfg, &mvr, Some((&client.as_dyn(), tune_in)))
            .resolved()
            .expect("with a channel, window queries always resolve");
        let mut got: Vec<u32> = res.pois.iter().map(|p| p.id).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = tree.window(&w).into_iter().map(|(_, &id)| id).collect();
        want.sort_unstable();
        prop_assert_eq!(&got, &want, "window {:?} by {:?}", w, res.resolved_by);
        // Coverage bookkeeping is consistent with the resolution path.
        if res.resolved_by == ResolvedBy::PeersVerified {
            prop_assert!(res.air.is_none());
            prop_assert!((res.coverage - 1.0).abs() < 1e-9);
        } else {
            prop_assert!(res.air.is_some());
        }
    }

    #[test]
    fn sbwq_partial_results_are_subset_of_truth(
        coords in arb_coords(150),
        vrs in arb_vrs(),
        wx in 0.0..WORLD - 5.0, wy in 0.0..WORLD - 5.0,
        ww in 0.5..5.0f64, wh in 0.5..5.0f64,
    ) {
        let (pois, tree) = dataset(&coords);
        let replies = consistent_replies(&pois, &vrs);
        let table = PoiTable::from_pois(pois.iter().copied());
        let mvr = MergedRegion::from_replies(&replies, &table);
        let w = Rect::from_coords(wx, wy, wx + ww, wy + wh);
        match sbwq(&w, &SbwqConfig::default(), &mvr, None) {
            SbwqOutcome::Resolved(res) => {
                // Fully covered: exact.
                let mut got: Vec<u32> = res.pois.iter().map(|p| p.id).collect();
                got.sort_unstable();
                let mut want: Vec<u32> =
                    tree.window(&w).into_iter().map(|(_, &id)| id).collect();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
            SbwqOutcome::Unresolved { partial, missing } => {
                // Partial POIs are all true window members…
                let want: Vec<u32> =
                    tree.window(&w).into_iter().map(|(_, &id)| id).collect();
                for p in &partial {
                    prop_assert!(want.contains(&p.id));
                }
                // …and every true member not reported lies in a missing
                // rectangle.
                let have: Vec<u32> = partial.iter().map(|p| p.id).collect();
                for (pt, &id) in tree.window(&w) {
                    if !have.contains(&id) {
                        prop_assert!(
                            missing.iter().any(|m| m.inflate(1e-9).unwrap().contains(pt)),
                            "missing POI {id} at {pt:?} not in any gap"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_unverified_area_matches_disk_region_area(
        vrs in arb_vrs(),
        (qx, qy) in (0.0..WORLD, 0.0..WORLD),
        dist in 0.0..12.0f64,
    ) {
        let mvr = MergedRegion::from_regions(vrs.iter().map(|r| (*r, Vec::new())));
        let (q, disk) = (Point::new(qx, qy), Disk::new(Point::new(qx, qy), dist));
        let case = format!("vrs {vrs:?}, q {q:?}, dist {dist}");
        let covered = disk_region_area(disk, mvr.region());
        let tiles = mvr.region().disjoint_rects();
        let unbounded = (disk.area() - covered).max(0.0);
        let tiled = unverified_area_of_tiles(q, dist, &tiles, None);
        prop_assert_eq!(tiled.to_bits(), unbounded.to_bits(), "{}", case);
        prop_assert_eq!(unverified_area(q, dist, &mvr).to_bits(), unbounded.to_bits(), "{}", case);
        // Members inside the domain are unchanged by the clip.
        let bounded = (disk_rect_area(disk, &world()) - covered).max(0.0);
        let clipped = unverified_area_in(q, dist, &mvr, &world());
        prop_assert_eq!(clipped.to_bits(), bounded.to_bits(), "{}", case);
    }
}
