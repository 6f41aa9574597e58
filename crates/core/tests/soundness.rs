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
//!
//! Each property runs over float inputs and over lattice ones (see
//! [`Layout`]), where shared edges, POIs on region and window edges,
//! ties and degenerate windows are the rule rather than measure zero.

use airshare_broadcast::{
    AirIndex, AirIndexBackend, OnAirClient, Poi, PoiTable, QueryScratch, Schedule,
};
use airshare_core::approx::{unverified_area, unverified_area_of_tiles};
use airshare_core::{
    nnv, sbnn_rec, sbwq_rec, MergedRegion, ResolvedBy, SbnnConfig, SbwqConfig, SbwqOutcome,
};
use airshare_geom::disk::{disk_rect_area, disk_region_area, Disk};
use airshare_geom::{Point, Rect, RegionScratch};
use airshare_hilbert::Grid;
use airshare_obs::NoopRecorder;
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

/// How a case places its inputs.
///
/// * `Float` — anywhere, as drawn.
/// * `Lattice` — POIs, VRs and windows on the integer grid, which is
///   the cell grid of `Grid::new(world(), 5)`, and queries on the
///   half-grid or on a POI. Shared VR edges, POIs on VR and window
///   edges, ties at the k-th distance, and point and segment windows
///   (zero width or height) are common.
/// * `Sliver` — the lattice with every other VR moved right by 5e-10
///   and every other POI by 2.5e-10, so 5e-10 gaps between abutting
///   VRs hold POIs, and windows reach 5e-10 past VR edges.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Layout {
    Float,
    Lattice,
    Sliver,
}

fn arb_layout() -> impl Strategy<Value = Layout> {
    (0usize..3).prop_map(|i| [Layout::Float, Layout::Lattice, Layout::Sliver][i])
}

impl Layout {
    /// The sliver a coordinate at odd `i` moves by, in `Sliver`.
    fn nudge(self, i: usize, by: f64) -> f64 {
        if self == Layout::Sliver && i % 2 == 1 {
            by
        } else {
            0.0
        }
    }

    fn coords(self, coords: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
        if self == Layout::Float {
            return coords;
        }
        (coords.into_iter().enumerate())
            .map(|(i, (x, y))| (x.floor() + self.nudge(i, 2.5e-10), y.floor()))
            .collect()
    }

    fn vrs(self, vrs: Vec<Rect>) -> Vec<Rect> {
        if self == Layout::Float {
            return vrs;
        }
        (vrs.into_iter().enumerate())
            .map(|(i, r)| {
                let d = self.nudge(i, 5e-10);
                let (x, y) = (r.x1.floor(), r.y1.floor());
                Rect::from_coords(x + d, y, x + r.width().ceil() + d, y + r.height().ceil())
            })
            .collect()
    }

    /// The query point: on the half-grid, or (`pick == 0`) on a POI.
    fn query(self, q: Point, pick: usize, coords: &[(f64, f64)]) -> Point {
        if self == Layout::Float {
            return q;
        }
        if pick == 0 {
            let (x, y) = coords[(q.x as usize) % coords.len()];
            return Point::new(x, y);
        }
        Point::new((2.0 * q.x).round() / 2.0, (2.0 * q.y).round() / 2.0)
    }

    /// The window: on the grid, each side zero a third of the time (so
    /// segment and point windows are common); in `Sliver`, reaching
    /// 5e-10 past the grid line on the right when `pick` is odd.
    fn window(self, (x, y, w, h): (f64, f64, f64, f64), pick: usize) -> Rect {
        if self == Layout::Float {
            return Rect::from_coords(x, y, x + w, y + h);
        }
        let (x, y) = (x.floor(), y.floor());
        let (w, h) = ((w - 1.0).max(0.0).floor(), (h - 1.0).max(0.0).floor());
        Rect::from_coords(x, y, x + w + self.nudge(pick, 5e-10), y + h)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn verified_neighbors_are_true_neighbors(
        (layout, pick) in (arb_layout(), 0usize..4),
        coords in arb_coords(200),
        vrs in arb_vrs(),
        qx in 0.0..WORLD, qy in 0.0..WORLD,
        k in 1usize..8,
    ) {
        let (coords, vrs) = (layout.coords(coords), layout.vrs(vrs));
        let (pois, tree) = dataset(&coords);
        let replies = consistent_replies(&pois, &vrs);
        let table = PoiTable::from_pois(pois.iter().copied());
        let mvr = MergedRegion::from_replies(&replies, &table);
        let q = layout.query(Point::new(qx, qy), pick, &coords);
        let heap = nnv(q, k, &mvr, 0.3);
        let truth = tree.knn(q, k);
        for (rank, entry) in heap.entries().iter().enumerate() {
            if entry.verified {
                // Lemma 3.1: a verified entry at rank i IS the true i-th NN.
                prop_assert!(
                    (entry.distance - truth[rank].distance).abs() < 1e-9,
                    "rank {rank}: verified {} vs truth {} (q {q:?}, vrs {vrs:?})",
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
        (layout, pick) in (arb_layout(), 0usize..4),
        coords in arb_coords(150),
        vrs in arb_vrs(),
        qx in 0.0..WORLD, qy in 0.0..WORLD,
        k in 1usize..6,
        tune_in in 0u64..500,
        filtering in any::<bool>(),
    ) {
        let (coords, vrs) = (layout.coords(coords), layout.vrs(vrs));
        let (pois, tree) = dataset(&coords);
        let index = AirIndex::try_build(pois.clone(), Grid::new(world(), 5), 4).unwrap();
        let schedule = Schedule::try_new(index.data_buckets(), index.index_buckets(), 4).unwrap();
        let client = OnAirClient::new(&index, &schedule);
        let replies = consistent_replies(&pois, &vrs);
        let table = PoiTable::from_pois(pois.iter().copied());
        let mvr = MergedRegion::from_replies(&replies, &table);
        let q = layout.query(Point::new(qx, qy), pick, &coords);
        let cfg = SbnnConfig {
            accept_approx: false, // force exactness end to end
            min_correctness: 1.0,
            use_bound_filtering: filtering,
            ..SbnnConfig::paper_defaults(k, 0.3)
        };
        let res = sbnn_rec(q, &cfg, &mvr, Some((&client.as_dyn(), tune_in)), &mut QueryScratch::new(), &mut NoopRecorder)
            .resolved()
            .expect("with a channel, exact queries always resolve");
        let truth = tree.knn(q, k);
        prop_assert_eq!(res.neighbors.len(), truth.len());
        for (got, want) in res.neighbors.iter().zip(&truth) {
            prop_assert!(
                (got.distance - want.distance).abs() < 1e-9,
                "{} vs {} (by {:?}, q {:?}, vrs {:?})", got.distance, want.distance, res.resolved_by, q, vrs
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
        (layout, pick) in (arb_layout(), 0usize..4),
        coords in arb_coords(150),
        vrs in arb_vrs(),
        wx in 0.0..WORLD - 5.0, wy in 0.0..WORLD - 5.0,
        ww in 0.5..5.0f64, wh in 0.5..5.0f64,
        (tune_in, reduction) in (0u64..500, any::<bool>()),
    ) {
        let (coords, vrs) = (layout.coords(coords), layout.vrs(vrs));
        let (pois, tree) = dataset(&coords);
        let index = AirIndex::try_build(pois.clone(), Grid::new(world(), 5), 4).unwrap();
        let schedule = Schedule::try_new(index.data_buckets(), index.index_buckets(), 4).unwrap();
        let client = OnAirClient::new(&index, &schedule);
        let replies = consistent_replies(&pois, &vrs);
        let table = PoiTable::from_pois(pois.iter().copied());
        let mvr = MergedRegion::from_replies(&replies, &table);
        let w = layout.window((wx, wy, ww, wh), pick);
        let cfg = SbwqConfig { use_window_reduction: reduction };
        let res = sbwq_rec(&w, &cfg, &mvr, Some((&client.as_dyn(), tune_in)), &mut QueryScratch::new(), &mut NoopRecorder)
            .resolved()
            .expect("with a channel, window queries always resolve");
        let mut got: Vec<u32> = res.pois.iter().map(|p| p.id).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = tree.window(&w).into_iter().map(|(_, &id)| id).collect();
        want.sort_unstable();
        prop_assert_eq!(&got, &want, "window {:?} by {:?}, vrs {:?}", w, res.resolved_by, vrs);
        // Coverage bookkeeping is consistent with the resolution path.
        if res.resolved_by == ResolvedBy::PeersVerified {
            prop_assert!(res.air.is_none());
            prop_assert_eq!(res.coverage, 1.0);
        } else {
            prop_assert!(res.air.is_some());
            prop_assert!(res.coverage < 1.0 || !reduction, "{:?} covered {}", w, res.coverage);
        }
    }

    #[test]
    fn sbwq_partial_results_are_subset_of_truth(
        (layout, pick) in (arb_layout(), 0usize..4),
        coords in arb_coords(150),
        vrs in arb_vrs(),
        wx in 0.0..WORLD - 5.0, wy in 0.0..WORLD - 5.0,
        ww in 0.5..5.0f64, wh in 0.5..5.0f64,
    ) {
        let (coords, vrs) = (layout.coords(coords), layout.vrs(vrs));
        let (pois, tree) = dataset(&coords);
        let replies = consistent_replies(&pois, &vrs);
        let table = PoiTable::from_pois(pois.iter().copied());
        let mvr = MergedRegion::from_replies(&replies, &table);
        let w = layout.window((wx, wy, ww, wh), pick);
        match sbwq_rec(&w, &SbwqConfig::default(), &mvr, None, &mut QueryScratch::new(), &mut NoopRecorder) {
            SbwqOutcome::Resolved(res) => {
                // Fully covered: exact.
                let mut got: Vec<u32> = res.pois.iter().map(|p| p.id).collect();
                got.sort_unstable();
                let mut want: Vec<u32> =
                    tree.window(&w).into_iter().map(|(_, &id)| id).collect();
                want.sort_unstable();
                prop_assert_eq!(got, want, "window {:?}, vrs {:?}", w, vrs);
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
                            missing.iter().any(|m| m.contains(pt)),
                            "missing POI {id} at {pt:?} not in any gap of {w:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_unverified_area_matches_disk_region_area(
        layout in arb_layout(),
        vrs in arb_vrs(),
        (qx, qy) in (0.0..WORLD, 0.0..WORLD),
        dist in 0.0..12.0f64,
    ) {
        let vrs = layout.vrs(vrs);
        let mvr = MergedRegion::from_regions(vrs.iter().map(|r| (*r, Vec::new())));
        let (q, disk) = (Point::new(qx, qy), Disk::new(Point::new(qx, qy), dist));
        let case = format!("vrs {vrs:?}, q {q:?}, dist {dist}");
        let covered = disk_region_area(disk, mvr.region());
        let tiles = mvr.region().disjoint_rects(&mut RegionScratch::default()).to_vec();
        let unbounded = (disk.area() - covered).max(0.0);
        let tiled = unverified_area_of_tiles(q, dist, &tiles, None);
        prop_assert_eq!(tiled.to_bits(), unbounded.to_bits(), "{}", case);
        prop_assert_eq!(unverified_area(q, dist, &mvr).to_bits(), unbounded.to_bits(), "{}", case);
        // Members inside the domain are unchanged by the clip.
        let bounded = (disk_rect_area(disk, &world()) - covered).max(0.0);
        let clipped = unverified_area_of_tiles(q, dist, &tiles, Some(&world()));
        prop_assert_eq!(clipped.to_bits(), bounded.to_bits(), "{}", case);
    }
}

/// Two peer VRs 5e-10 apart with a POI in the gap, and a third VR whose
/// right edge a window overhangs by 5e-10 with a POI in the overhang:
/// the gap and the overhang are outside the MVR, so neither a kNN answer
/// nor a window answer may be verified across them.
#[test]
fn sliver_gaps_are_not_verified() {
    let coords = [(1.0 + 2.5e-10, 0.5), (0.9, 0.15), (5.0 + 2.5e-10, 5.5)];
    let vrs = [
        Rect::from_coords(0.0, 0.0, 1.0, 1.0),
        Rect::from_coords(1.0 + 5e-10, 0.0, 2.0, 1.0),
        Rect::from_coords(4.0, 5.0, 5.0, 6.0),
    ];
    let (pois, tree) = dataset(&coords);
    let index = AirIndex::try_build(pois.clone(), Grid::new(world(), 5), 4).unwrap();
    let schedule = Schedule::try_new(index.data_buckets(), index.index_buckets(), 4).unwrap();
    let client = OnAirClient::new(&index, &schedule);
    let table = PoiTable::from_pois(pois.iter().copied());
    let mvr = MergedRegion::from_replies(&consistent_replies(&pois, &vrs), &table);
    let air = Some((&client.as_dyn(), 0));

    // kNN from inside the left VR: the gap POI, 0.1 away, is nearest.
    let q = Point::new(0.9, 0.5);
    let cfg = SbnnConfig {
        accept_approx: false,
        min_correctness: 1.0,
        ..SbnnConfig::paper_defaults(1, 0.3)
    };
    let res = sbnn_rec(
        q,
        &cfg,
        &mvr,
        air,
        &mut QueryScratch::new(),
        &mut NoopRecorder,
    )
    .resolved()
    .expect("with a channel, exact queries always resolve");
    let got: Vec<(u32, f64)> = res
        .neighbors
        .iter()
        .map(|n| (n.poi.id, n.distance))
        .collect();
    let want = tree.knn(q, 1)[0].distance;
    assert_eq!(got.len(), 1);
    assert_eq!(
        (got[0].0, got[0].1.to_bits()),
        (0, want.to_bits()),
        "by {:?}",
        res.resolved_by
    );

    // Windows across the gap, and 5e-10 past the third VR's edge.
    for (w, id) in [
        (Rect::from_coords(0.5, 0.25, 1.5, 0.75), 0),
        (Rect::from_coords(4.5, 5.25, 5.0 + 5e-10, 5.75), 2),
    ] {
        let res = sbwq_rec(
            &w,
            &SbwqConfig::default(),
            &mvr,
            air,
            &mut QueryScratch::new(),
            &mut NoopRecorder,
        )
        .resolved()
        .expect("with a channel, window queries always resolve");
        let got: Vec<u32> = res.pois.iter().map(|p| p.id).collect();
        assert_eq!(got, [id], "window {w:?} by {:?}", res.resolved_by);
        assert_eq!(res.resolved_by, ResolvedBy::Broadcast);
        assert!(res.coverage < 1.0, "window {w:?} covered {}", res.coverage);
    }
}
