//! The merged region's POI list against the sort-and-dedup reference.
//!
//! `MergedRegion::refill` and `MergedRegion::from_replies` drop repeated
//! POIs by marking table slots in a bitset and reading the marked slots
//! back in order. The reference resolves every handle, sorts the copies
//! by id and drops repeats. Over random replies — ids repeated within a
//! region, across regions, across peers and in the querier's own cache,
//! handles the table cannot resolve, dense and sparse tables — both
//! must give the same regions and the same POIs in the same id order,
//! and a region refilled twice must keep nothing of its first merge.

use airshare_broadcast::{Poi, PoiCategory, PoiId, PoiTable, QueryScratch};
use airshare_cache::{HostCache, ReplacementPolicy};
use airshare_core::MergedRegion;
use airshare_geom::{Point, Rect};
use airshare_obs::NoopRecorder;
use airshare_p2p::{share_exchange, NeighborGrid, PeerReply, ReplyArena, ShareFaults};
use proptest::prelude::*;

const WORLD: f64 = 16.0;
const CAT: PoiCategory = PoiCategory::GAS_STATION;

/// The regions and the POIs a merge of `regions` must give: every
/// rectangle in order, and every resolvable handle's POI sorted by id
/// with repeats dropped.
fn reference<'a>(
    table: &PoiTable,
    regions: impl IntoIterator<Item = (Rect, &'a [PoiId])>,
) -> (Vec<Rect>, Vec<Poi>) {
    let mut rects = Vec::new();
    let mut pois = Vec::new();
    for (vr, ids) in regions {
        rects.push(vr);
        pois.extend(ids.iter().filter_map(|&id| table.get(id).copied()));
    }
    pois.sort_by_key(|p| p.id);
    pois.dedup_by_key(|p| p.id);
    (rects, pois)
}

fn merged(m: &MergedRegion) -> (Vec<Rect>, Vec<Poi>) {
    (m.region().rects().to_vec(), m.pois().to_vec())
}

/// A region's claim: the handles of the table's POIs inside it, the
/// first one twice, plus a handle the table cannot resolve if `forge`.
fn claim(table: &PoiTable, vr: &Rect, forge: bool) -> Vec<PoiId> {
    let mut ids: Vec<PoiId> = (table.iter())
        .filter(|p| vr.contains(p.pos))
        .map(Poi::handle)
        .collect();
    ids.extend(ids.first().copied());
    if forge {
        // Past the last id, or in a gap of a sparse table.
        let last = table.as_slice().last().map_or(0, |p| p.id);
        let gap = (0..last).find(|&id| !table.contains(PoiId(id)));
        ids.push(PoiId(gap.unwrap_or(last + 1)));
    }
    ids
}

type ArbRegion = (f64, f64, f64, f64, bool);

fn arb_regions(max: usize) -> impl Strategy<Value = Vec<(usize, ArbRegion)>> {
    prop::collection::vec(
        (
            0usize..5,
            (
                0.0..WORLD,
                0.0..WORLD,
                0.5..8.0f64,
                0.5..8.0f64,
                any::<bool>(),
            ),
        ),
        0..max,
    )
}

fn rect((x, y, w, h, _): ArbRegion) -> Rect {
    Rect::from_coords(x, y, x + w, y + h)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitset_merge_matches_sort_and_dedup(
        coords in prop::collection::vec((0.0..WORLD, 0.0..WORLD), 0..300),
        stride in 1u32..4,
        peer_regions in arb_regions(16),
        own_regions in arb_regions(6),
    ) {
        // Stride 1 gives a dense table; 2 and 3 a sparse one whose slots
        // are not its ids.
        let table = PoiTable::from_pois(
            (coords.iter().enumerate())
                .map(|(i, &(x, y))| Poi::new(i as u32 * stride, Point::new(x, y))),
        );
        let hosts = 6;
        let mut caches: Vec<HostCache> = (0..hosts)
            .map(|_| HostCache::new(64, ReplacementPolicy::default()))
            .collect();
        let mut replies: Vec<PeerReply> = Vec::new();
        for &(peer, r) in &peer_regions {
            let (vr, ids) = (rect(r), claim(&table, &rect(r), r.4));
            caches[peer + 1].insert_unchecked(CAT, vr, &ids, 0.0);
            match replies.last_mut() {
                Some(last) if last.peer == peer => last.regions.push((vr, ids)),
                _ => replies.push(PeerReply { peer, regions: vec![(vr, ids)] }),
            }
        }
        for &(_, r) in &own_regions {
            caches[0].insert_unchecked(CAT, rect(r), &claim(&table, &rect(r), r.4), 0.0);
        }
        let own = || caches[0].share_regions(CAT);

        // The owned form: unsanitized replies, forged handles included.
        let owned: Vec<(Rect, &[PoiId])> = (replies.iter().flat_map(|r| &r.regions))
            .map(|(vr, ids)| (*vr, ids.as_slice()))
            .collect();
        let m = MergedRegion::from_replies(&replies, &table);
        prop_assert_eq!(merged(&m), reference(&table, owned));

        // The arena form: what the exchange admitted, then the own cache.
        let grid = NeighborGrid::build(vec![Point::new(1.0, 1.0); hosts], 1.0);
        let mut scratch = QueryScratch::new();
        let (arena, _) = share_exchange(
            0,
            Point::new(1.0, 1.0),
            1.0,
            1,
            CAT,
            &grid,
            &caches,
            &table,
            None,
            ShareFaults::default(),
            None,
            &mut scratch,
            &mut NoopRecorder,
        );
        let mut m = MergedRegion::default();
        m.refill(arena, &table, own());
        prop_assert_eq!(merged(&m), reference(&table, arena.regions().chain(own())));

        // Refilled from the own cache alone, nothing of the first merge
        // is left.
        m.refill(&ReplyArena::default(), &table, own());
        prop_assert_eq!(merged(&m), reference(&table, own()));
    }
}
