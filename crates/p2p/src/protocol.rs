//! The request/reply sharing exchange.
//!
//! Replies are *handle-based*: a peer ships each verified region as
//! `(Rect, Vec<PoiId>)` — the region plus the ids of the POIs it claims
//! are inside — and the receiver resolves ids against its own canonical
//! [`PoiTable`]. This both shrinks reply payloads (4 bytes per POI
//! instead of a full `Poi`) and hardens the protocol: a byzantine peer
//! can claim the wrong *membership* for a region, but it can no longer
//! forge POI *positions*, because positions only ever come from the
//! receiver's table. Claims that don't check out against the table are
//! rejected whole, exactly like the old position-carrying protocol
//! rejected POIs outside their claimed rectangle.

use crate::NeighborGrid;
use airshare_broadcast::{ChannelFaults, Poi, PoiCategory, PoiId, PoiTable};
use airshare_cache::{HostCache, QuarantineLedger};
use airshare_geom::{Point, Rect};
use airshare_obs::{NoopRecorder, Recorder, ShareStats, TraceEvent};

/// Salt xor-ed into the nonce for malform decisions so they draw an
/// independent hash from drop decisions. Without it, both events would
/// share one uniform variate per `(nonce, peer)` and a reply could
/// never malform when `malform_prob <= drop_prob`.
const MALFORM_NONCE_SALT: u64 = 0x3A1F_A17E_D000_0001;

/// A quarantine guard for one share exchange: the querying host's
/// ledger plus the current epoch the decisions are evaluated at.
pub type QuarantineGuard<'a> = Option<(&'a mut QuarantineLedger, u64)>;

/// One peer's reply to a share request: its verified regions with the
/// handles of the POIs inside each (`⟨p.VR, p.O⟩` in the paper's
/// notation, with `p.O` as [`PoiId`]s).
#[derive(Clone, Debug)]
pub struct PeerReply {
    /// Replying host id.
    pub peer: usize,
    /// Verified regions and the POI handles inside each.
    pub regions: Vec<(Rect, Vec<PoiId>)>,
}

impl PeerReply {
    /// Materializes the reply with POI payloads resolved through
    /// `table` (unresolvable handles are dropped). This is the
    /// allocating bridge for callers still working in `Vec<Poi>` terms.
    pub fn resolve(&self, table: &PoiTable) -> Vec<(Rect, Vec<Poi>)> {
        self.regions
            .iter()
            .map(|(r, ids)| {
                (
                    *r,
                    ids.iter().filter_map(|&id| table.get(id).copied()).collect(),
                )
            })
            .collect()
    }
}

/// Fault knobs for one share exchange. With the default (no decision
/// source, zero probability) nothing is ever dropped.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShareFaults<'a> {
    /// Deterministic decision source; `None` disables drops entirely.
    pub faults: Option<&'a ChannelFaults>,
    /// Probability that a contacted peer's reply is lost in transit.
    pub drop_prob: f64,
    /// Probability that a peer's reply arrives structurally malformed
    /// (bit-flipped region coordinates); sanitation rejects it whole and
    /// the quarantine guard, when present, strikes the peer.
    pub malform_prob: f64,
    /// Identifies this query so drop decisions are unique per exchange
    /// yet reproducible across runs.
    pub nonce: u64,
}

impl ShareFaults<'_> {
    /// Whether this exchange's reply from `peer` is lost in transit.
    pub fn drops_reply(&self, peer: usize) -> bool {
        match self.faults {
            Some(f) => f.event_fires(self.drop_prob, self.nonce, peer as u64),
            None => false,
        }
    }

    /// Whether this exchange's reply from `peer` arrives malformed.
    /// Hashed under a salted nonce so the decision is independent of
    /// [`ShareFaults::drops_reply`] for the same `(nonce, peer)`.
    pub fn malforms_reply(&self, peer: usize) -> bool {
        match self.faults {
            Some(f) => f.event_fires(
                self.malform_prob,
                self.nonce ^ MALFORM_NONCE_SALT,
                peer as u64,
            ),
            None => false,
        }
    }
}

/// Validates one reply's handle-based regions against the canonical
/// `table`: a region is rejected whole when it is structurally
/// malformed, claims a handle the table cannot resolve, or claims a POI
/// whose canonical position lies outside the rectangle. Survivors are
/// clipped to `world` with their membership restricted accordingly.
/// Returns the sanitized regions and the number rejected.
pub fn sanitize_id_regions(
    regions: Vec<(Rect, Vec<PoiId>)>,
    table: &PoiTable,
    world: Option<&Rect>,
) -> (Vec<(Rect, Vec<PoiId>)>, usize) {
    let mut out = Vec::with_capacity(regions.len());
    let mut rejected = 0usize;
    for (r, ids) in regions {
        let well_formed = r.x1.is_finite()
            && r.y1.is_finite()
            && r.x2.is_finite()
            && r.y2.is_finite()
            && r.x1 <= r.x2
            && r.y1 <= r.y2;
        let claims_hold = well_formed
            && ids
                .iter()
                .all(|&id| table.get(id).is_some_and(|p| r.contains(p.pos)));
        if !claims_hold {
            rejected += 1;
            continue;
        }
        let clipped = match world {
            Some(w) => match r.intersection(w) {
                Some(c) => c,
                None => {
                    rejected += 1;
                    continue;
                }
            },
            None => r,
        };
        let ids: Vec<PoiId> = ids
            .into_iter()
            .filter(|&id| table.get(id).is_some_and(|p| clipped.contains(p.pos)))
            .collect();
        out.push((clipped, ids));
    }
    (out, rejected)
}

/// The share exchange in full: discovers the peers within `hops`
/// wireless hops of the querier, collects and validates their replies,
/// and accumulates traffic stats. Each contact, dropped reply, and
/// data-bearing reply (as a `CacheHit` with the contributed region
/// count) is traced into `rec`.
///
/// `caches[i]` must be host `i`'s cache; `grid` must reflect current
/// positions; `table` is the canonical POI store claims resolve
/// against. With `hops == 1` the grid's neighbor list is taken as is —
/// the paper's single-hop exchange. With `hops > 1` peers relay the
/// request (flooding with duplicate suppression, relay positions from
/// `grid`, each peer contacted once); the paper names richer
/// cooperation as future work, and this is the obvious next step so
/// its benefit can be measured (see the `ablations` experiment of `airshare-paper`).
///
/// Each contacted peer's reply may be dropped or malformed per
/// `faults`, and surviving replies are sanitized against `world` (see
/// [`sanitize_id_regions`]), so a flaky or inconsistent peer degrades
/// the querier to on-air retrieval instead of poisoning its cache.
/// Empty-handed peers are counted as contacted (they cost a request
/// message) but transfer nothing.
///
/// When a quarantine `guard` is present, currently-quarantined peers
/// are skipped *before* any contact (they cost no request message, but
/// still relay a flood — quarantine distrusts a peer's *data*, not its
/// radio), and a peer whose reply fails sanitation is struck and
/// quarantined with seeded exponential backoff. With `guard: None` (or
/// an empty ledger) the exchange is byte-identical to the unguarded
/// protocol.
///
/// # Panics
/// Panics if `hops == 0`.
#[allow(clippy::too_many_arguments)]
pub fn share_exchange(
    querier: usize,
    querier_pos: Point,
    range: f64,
    hops: usize,
    category: PoiCategory,
    grid: &NeighborGrid,
    caches: &[HostCache],
    table: &PoiTable,
    world: Option<&Rect>,
    faults: ShareFaults<'_>,
    mut guard: QuarantineGuard<'_>,
    rec: &mut dyn Recorder,
) -> (Vec<PeerReply>, ShareStats) {
    assert!(hops >= 1, "at least one hop");
    let mut peers = grid.neighbors_within(querier_pos, range, Some(querier));
    if hops > 1 {
        let mut visited = vec![false; caches.len()];
        if querier < visited.len() {
            visited[querier] = true;
        }
        for &i in &peers {
            visited[i] = true;
        }
        let mut frontier = peers.clone();
        for _ in 1..hops {
            let mut next = Vec::new();
            for &relay in &frontier {
                for i in grid.neighbors_within(grid.position(relay), range, Some(relay)) {
                    if !std::mem::replace(&mut visited[i], true) {
                        next.push(i);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            peers.extend(next.iter().copied());
            frontier = next;
        }
    }

    let mut stats = ShareStats::default();
    let mut replies = Vec::new();
    for peer in peers {
        if let Some((ledger, epoch)) = guard.as_ref() {
            if ledger.is_quarantined(peer, *epoch) {
                rec.record(TraceEvent::QuarantinedPeerSkipped { peer: peer as u32 });
                stats.peers_quarantined += 1;
                continue;
            }
        }
        stats.peers_contacted += 1;
        rec.record(TraceEvent::PeerContacted { peer: peer as u32 });
        let mut regions: Vec<(Rect, Vec<PoiId>)> = caches[peer]
            .share_regions(category)
            .map(|(r, ids)| (r, ids.to_vec()))
            .collect();
        if regions.is_empty() {
            continue;
        }
        if faults.drops_reply(peer) {
            rec.record(TraceEvent::PeerReplyDropped { peer: peer as u32 });
            stats.replies_dropped += 1;
            continue;
        }
        if faults.malforms_reply(peer) {
            // Corrupt the reply in transit: a non-finite edge makes every
            // region structurally malformed, so sanitation rejects the
            // whole payload through its normal path.
            for (r, _) in &mut regions {
                r.x1 = f64::NAN;
            }
        }
        let (regions, rejected) = sanitize_id_regions(regions, table, world);
        stats.regions_rejected += rejected;
        if rejected > 0 {
            if let Some((ledger, epoch)) = guard.as_mut() {
                let until = ledger.strike(peer, *epoch);
                stats.peers_struck += 1;
                rec.record(TraceEvent::PeerQuarantined {
                    peer: peer as u32,
                    until_epoch: until,
                });
            }
        }
        if regions.is_empty() {
            continue;
        }
        rec.record(TraceEvent::CacheHit {
            regions: regions.len() as u32,
        });
        stats.peers_with_data += 1;
        stats.regions_received += regions.len();
        stats.pois_received += regions.iter().map(|(_, p)| p.len()).sum::<usize>();
        replies.push(PeerReply { peer, regions });
    }
    (replies, stats)
}

/// The paper's exchange as a querying host poses it: [`share_exchange`]
/// over single-hop peers, with no reply validation against a world
/// rectangle, no fault injection, no quarantine, and no tracing.
pub fn gather_peer_data(
    querier: usize,
    querier_pos: Point,
    range: f64,
    category: PoiCategory,
    grid: &NeighborGrid,
    caches: &[HostCache],
    table: &PoiTable,
) -> (Vec<PeerReply>, ShareStats) {
    gather_peer_data_checked(
        querier,
        querier_pos,
        range,
        category,
        grid,
        caches,
        table,
        None,
        ShareFaults::default(),
    )
}

/// [`gather_peer_data`] with reply validation against `world` and fault
/// injection per `faults` (see [`share_exchange`]).
#[allow(clippy::too_many_arguments)]
pub fn gather_peer_data_checked(
    querier: usize,
    querier_pos: Point,
    range: f64,
    category: PoiCategory,
    grid: &NeighborGrid,
    caches: &[HostCache],
    table: &PoiTable,
    world: Option<&Rect>,
    faults: ShareFaults<'_>,
) -> (Vec<PeerReply>, ShareStats) {
    share_exchange(
        querier,
        querier_pos,
        range,
        1,
        category,
        grid,
        caches,
        table,
        world,
        faults,
        None,
        &mut NoopRecorder,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshare_cache::{CacheContext, ReplacementPolicy};

    const CAT: PoiCategory = PoiCategory::GAS_STATION;

    fn ctx(p: Point) -> CacheContext {
        CacheContext {
            pos: p,
            heading: None,
            now: 0.0,
        }
    }

    fn cache_with_poi(poi: Poi) -> HostCache {
        let mut c = HostCache::new(10, ReplacementPolicy::default());
        let vr = Rect::centered_square(poi.pos, 1.0);
        let table = PoiTable::from_pois([poi]);
        c.insert_ids(&table, CAT, vr, &[poi.handle()], 0.0, &ctx(poi.pos));
        c
    }

    /// One data-bearing peer per position (unique POI ids), plus the
    /// canonical table covering them all. `caches[0]` is an empty
    /// querier cache.
    fn fleet(positions: &[Point]) -> (Vec<HostCache>, PoiTable) {
        let pois: Vec<Poi> = positions[1..]
            .iter()
            .enumerate()
            .map(|(i, p)| Poi::new(i as u32 + 1, *p))
            .collect();
        let mut caches = vec![HostCache::new(10, ReplacementPolicy::default())];
        caches.extend(pois.iter().map(|&p| cache_with_poi(p)));
        (caches, PoiTable::from_pois(pois))
    }

    #[test]
    fn gathers_only_in_range_peers() {
        let positions = vec![
            Point::new(0.0, 0.0),  // querier
            Point::new(0.1, 0.0),  // near, has data
            Point::new(50.0, 0.0), // far, has data
        ];
        let (caches, table) = fleet(&positions);
        let grid = NeighborGrid::build(positions, 1.0);
        let (replies, stats) =
            gather_peer_data(0, Point::new(0.0, 0.0), 1.0, CAT, &grid, &caches, &table);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].peer, 1);
        assert_eq!(stats.peers_contacted, 1);
        assert_eq!(stats.peers_with_data, 1);
        assert_eq!(stats.pois_received, 1);
        // The reply resolves back to the canonical payload.
        let resolved = replies[0].resolve(&table);
        assert_eq!(resolved[0].1[0].pos, Point::new(0.1, 0.0));
    }

    #[test]
    fn empty_caches_cost_contact_but_no_transfer() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(0.1, 0.0)];
        let caches = vec![
            HostCache::new(10, ReplacementPolicy::default()),
            HostCache::new(10, ReplacementPolicy::default()),
        ];
        let table = PoiTable::new();
        let grid = NeighborGrid::build(positions, 1.0);
        let (replies, stats) =
            gather_peer_data(0, Point::new(0.0, 0.0), 1.0, CAT, &grid, &caches, &table);
        assert!(replies.is_empty());
        assert_eq!(stats.peers_contacted, 1);
        assert_eq!(stats.peers_with_data, 0);
    }

    #[test]
    fn querier_does_not_reply_to_itself() {
        let poi = Poi::new(1, Point::new(0.0, 0.0));
        let positions = vec![poi.pos];
        let caches = vec![cache_with_poi(poi)];
        let table = PoiTable::from_pois([poi]);
        let grid = NeighborGrid::build(positions, 1.0);
        let (replies, stats) =
            gather_peer_data(0, Point::new(0.0, 0.0), 5.0, CAT, &grid, &caches, &table);
        assert!(replies.is_empty());
        assert_eq!(stats.peers_contacted, 0);
    }

    #[test]
    fn multihop_reaches_a_chain() {
        // Hosts in a line, each only in range of its neighbors:
        // 0 — 1 — 2 — 3. Data sits on host 3.
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(0.9, 0.0),
            Point::new(1.8, 0.0),
            Point::new(2.7, 0.0),
        ];
        let poi = Poi::new(1, Point::new(2.7, 0.0));
        let caches = vec![
            HostCache::new(10, ReplacementPolicy::default()),
            HostCache::new(10, ReplacementPolicy::default()),
            HostCache::new(10, ReplacementPolicy::default()),
            cache_with_poi(poi),
        ];
        let table = PoiTable::from_pois([poi]);
        let grid = NeighborGrid::build(positions, 1.0);
        for (hops, expect_contacted, expect_replies) in [(1, 1, 0), (2, 2, 0), (3, 3, 1)] {
            let (replies, stats) = share_exchange(
                0,
                Point::new(0.0, 0.0),
                1.0,
                hops,
                CAT,
                &grid,
                &caches,
                &table,
                None,
                ShareFaults::default(),
                None,
                &mut NoopRecorder,
            );
            assert_eq!(stats.peers_contacted, expect_contacted, "hops {hops}");
            assert_eq!(replies.len(), expect_replies, "hops {hops}");
        }
    }

    #[test]
    fn multihop_one_hop_matches_single_hop() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(0.1, 0.0), Point::new(5.0, 5.0)];
        let (caches, table) = fleet(&positions);
        let grid = NeighborGrid::build(positions, 1.0);
        let (r1, s1) =
            gather_peer_data(0, Point::new(0.0, 0.0), 1.0, CAT, &grid, &caches, &table);
        let (r2, s2) = share_exchange(
            0,
            Point::new(0.0, 0.0),
            1.0,
            1,
            CAT,
            &grid,
            &caches,
            &table,
            None,
            ShareFaults::default(),
            None,
            &mut NoopRecorder,
        );
        assert_eq!(s1, s2);
        assert_eq!(r1.len(), r2.len());
        assert_eq!(r1[0].peer, r2[0].peer);
    }

    #[test]
    fn multihop_never_revisits_the_querier() {
        // Dense clique: querier reachable from everyone; must not appear
        // in its own replies at any hop depth.
        let positions: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 0.1, 0.0)).collect();
        let pois: Vec<Poi> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| Poi::new(i as u32, *p))
            .collect();
        let caches: Vec<HostCache> = pois.iter().map(|&p| cache_with_poi(p)).collect();
        let table = PoiTable::from_pois(pois);
        let grid = NeighborGrid::build(positions, 1.0);
        let (replies, stats) = share_exchange(
            2,
            Point::new(0.2, 0.0),
            1.0,
            4,
            CAT,
            &grid,
            &caches,
            &table,
            None,
            ShareFaults::default(),
            None,
            &mut NoopRecorder,
        );
        assert_eq!(stats.peers_contacted, 5);
        assert!(replies.iter().all(|r| r.peer != 2));
    }

    #[test]
    fn reply_drops_are_deterministic_and_counted() {
        // 8 peers with data, 100% drop probability: everything is lost
        // and the querier is left to the broadcast channel.
        let positions: Vec<Point> = (0..9).map(|i| Point::new(i as f64 * 0.05, 0.0)).collect();
        let (caches, table) = fleet(&positions);
        let grid = NeighborGrid::build(positions, 1.0);
        let model = ChannelFaults::from_loss_prob(11, 0.0, 0);
        let all_dropped = ShareFaults {
            faults: Some(&model),
            drop_prob: 1.0,
            malform_prob: 0.0,
            nonce: 42,
        };
        let (replies, stats) = gather_peer_data_checked(
            0,
            Point::new(0.0, 0.0),
            1.0,
            CAT,
            &grid,
            &caches,
            &table,
            None,
            all_dropped,
        );
        assert!(replies.is_empty());
        assert_eq!(stats.peers_contacted, 8);
        assert_eq!(stats.replies_dropped, 8);
        assert_eq!(stats.peers_with_data, 0);

        // Partial drops: deterministic given (seed, nonce), and disabled
        // entirely with the default faults.
        let some = ShareFaults {
            faults: Some(&model),
            drop_prob: 0.5,
            malform_prob: 0.0,
            nonce: 42,
        };
        let run = || {
            gather_peer_data_checked(
                0,
                Point::new(0.0, 0.0),
                1.0,
                CAT,
                &grid,
                &caches,
                &table,
                None,
                some,
            )
        };
        let (r1, s1) = run();
        let (r2, s2) = run();
        assert_eq!(s1, s2);
        assert_eq!(r1.len(), r2.len());
        assert_eq!(s1.replies_dropped + s1.peers_with_data, 8);

        let (r0, s0) =
            gather_peer_data(0, Point::new(0.0, 0.0), 1.0, CAT, &grid, &caches, &table);
        assert_eq!(r0.len(), 8);
        assert_eq!(s0.replies_dropped, 0);
    }

    #[test]
    fn malformed_regions_are_rejected_and_valid_ones_clipped() {
        let world = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let table = PoiTable::from_pois([
            Poi::new(1, Point::new(5.0, 5.0)),
            Poi::new(2, Point::new(25.0, 25.0)),
            Poi::new(3, Point::new(9.0, 8.5)),
            Poi::new(4, Point::new(12.0, 8.5)),
            Poi::new(5, Point::new(3.0, 3.0)),
        ]);
        let regions = vec![
            // NaN edge: structurally malformed.
            (
                Rect {
                    x1: f64::NAN,
                    y1: 0.0,
                    x2: 1.0,
                    y2: 1.0,
                },
                vec![],
            ),
            // Claims a POI whose canonical position is outside itself:
            // inconsistent, rejected whole.
            (Rect::from_coords(0.0, 0.0, 1.0, 1.0), vec![PoiId(1)]),
            // Claims a handle the table does not know: rejected whole.
            (Rect::from_coords(2.0, 2.0, 4.0, 4.0), vec![PoiId(99)]),
            // Entirely outside the world: rejected.
            (
                Rect::from_coords(20.0, 20.0, 30.0, 30.0),
                vec![PoiId(2)],
            ),
            // Straddles the world edge: clipped, outside POI dropped.
            (
                Rect::from_coords(8.0, 8.0, 14.0, 9.0),
                vec![PoiId(3), PoiId(4)],
            ),
            // Fully valid: untouched.
            (Rect::from_coords(2.0, 2.0, 4.0, 4.0), vec![PoiId(5)]),
        ];
        let (kept, rejected) = sanitize_id_regions(regions, &table, Some(&world));
        assert_eq!(rejected, 4);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].0, Rect::from_coords(8.0, 8.0, 10.0, 9.0));
        assert_eq!(kept[0].1, vec![PoiId(3)]);
        assert_eq!(kept[1].0, Rect::from_coords(2.0, 2.0, 4.0, 4.0));
        assert_eq!(kept[1].1, vec![PoiId(5)]);
    }

    #[test]
    fn inconsistent_peer_cache_degrades_to_no_reply() {
        // A peer whose cache claims a POI inside a VR the canonical
        // position contradicts (possible only by constructing the entry
        // by hand) must contribute nothing.
        let positions = vec![Point::new(0.0, 0.0), Point::new(0.1, 0.0)];
        let table = PoiTable::from_pois([Poi::new(9, Point::new(7.0, 7.0))]);
        let mut bad = HostCache::new(10, ReplacementPolicy::default());
        bad.insert_unchecked(CAT, Rect::from_coords(0.0, 0.0, 1.0, 1.0), &[PoiId(9)], 0.0);
        let caches = vec![HostCache::new(10, ReplacementPolicy::default()), bad];
        let grid = NeighborGrid::build(positions, 1.0);
        let world = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let (replies, stats) = gather_peer_data_checked(
            0,
            Point::new(0.0, 0.0),
            1.0,
            CAT,
            &grid,
            &caches,
            &table,
            Some(&world),
            ShareFaults::default(),
        );
        assert!(replies.is_empty());
        assert_eq!(stats.regions_rejected, 1);
        assert_eq!(stats.peers_with_data, 0);
    }

    #[test]
    fn traced_exchange_counts_match_share_stats() {
        use airshare_obs::MetricsRecorder;
        let positions: Vec<Point> = (0..9).map(|i| Point::new(i as f64 * 0.05, 0.0)).collect();
        let (caches, table) = fleet(&positions);
        let grid = NeighborGrid::build(positions, 1.0);
        let model = ChannelFaults::from_loss_prob(11, 0.0, 0);
        let some = ShareFaults {
            faults: Some(&model),
            drop_prob: 0.5,
            malform_prob: 0.0,
            nonce: 42,
        };
        let mut rec = MetricsRecorder::new();
        let (replies, stats) = share_exchange(
            0,
            Point::new(0.0, 0.0),
            1.0,
            1,
            CAT,
            &grid,
            &caches,
            &table,
            None,
            some,
            None,
            &mut rec,
        );
        let snap = rec.snapshot();
        assert_eq!(snap.peers_contacted_total, stats.peers_contacted as u64);
        assert_eq!(snap.peer_replies_dropped, stats.replies_dropped as u64);
        assert_eq!(snap.cache_hits_total, stats.peers_with_data as u64);
        // Tracing must not perturb the exchange.
        let (r2, s2) = gather_peer_data_checked(
            0,
            Point::new(0.0, 0.0),
            1.0,
            CAT,
            &grid,
            &caches,
            &table,
            None,
            some,
        );
        assert_eq!(stats, s2);
        assert_eq!(replies.len(), r2.len());
    }

    #[test]
    fn malform_decisions_are_independent_of_drops() {
        // With malform_prob == drop_prob == 1.0 under the *same* nonce,
        // a shared hash would make malform unobservable (the drop always
        // wins the same variate). The salted nonce keeps them
        // independent: with drops off, every reply malforms.
        let positions: Vec<Point> = (0..5).map(|i| Point::new(i as f64 * 0.05, 0.0)).collect();
        let (caches, table) = fleet(&positions);
        let grid = NeighborGrid::build(positions, 1.0);
        let model = ChannelFaults::from_loss_prob(11, 0.0, 0);
        let all_malformed = ShareFaults {
            faults: Some(&model),
            drop_prob: 0.0,
            malform_prob: 1.0,
            nonce: 42,
        };
        let (replies, stats) = gather_peer_data_checked(
            0,
            Point::new(0.0, 0.0),
            1.0,
            CAT,
            &grid,
            &caches,
            &table,
            None,
            all_malformed,
        );
        assert!(replies.is_empty());
        assert_eq!(stats.peers_contacted, 4);
        assert_eq!(stats.replies_dropped, 0);
        assert_eq!(stats.regions_rejected, 4);
    }

    #[test]
    fn quarantine_guard_skips_and_strikes() {
        use airshare_cache::{QuarantineConfig, QuarantineLedger};
        let positions: Vec<Point> = (0..4).map(|i| Point::new(i as f64 * 0.05, 0.0)).collect();
        let (caches, table) = fleet(&positions);
        let grid = NeighborGrid::build(positions, 1.0);
        let model = ChannelFaults::from_loss_prob(11, 0.0, 0);
        let all_malformed = ShareFaults {
            faults: Some(&model),
            drop_prob: 0.0,
            malform_prob: 1.0,
            nonce: 42,
        };
        let mut ledger = QuarantineLedger::new(QuarantineConfig::default(), 7);

        // Exchange 1 at epoch 0: every reply malforms, every peer struck.
        let (replies, stats) = share_exchange(
            0,
            Point::new(0.0, 0.0),
            1.0,
            1,
            CAT,
            &grid,
            &caches,
            &table,
            None,
            all_malformed,
            Some((&mut ledger, 0)),
            &mut NoopRecorder,
        );
        assert!(replies.is_empty());
        assert_eq!(stats.peers_contacted, 3);
        assert_eq!(stats.peers_struck, 3);
        assert_eq!(stats.peers_quarantined, 0);
        assert!(ledger.is_quarantined(1, 1));

        // Exchange 2 at epoch 1: all three peers are quarantined and
        // skipped before contact — no request messages at all.
        let (replies2, stats2) = share_exchange(
            0,
            Point::new(0.0, 0.0),
            1.0,
            1,
            CAT,
            &grid,
            &caches,
            &table,
            None,
            all_malformed,
            Some((&mut ledger, 1)),
            &mut NoopRecorder,
        );
        assert!(replies2.is_empty());
        assert_eq!(stats2.peers_contacted, 0);
        assert_eq!(stats2.peers_quarantined, 3);
        assert_eq!(stats2.peers_struck, 0);
    }

    #[test]
    fn empty_guard_matches_unguarded_exchange() {
        use airshare_cache::{QuarantineConfig, QuarantineLedger};
        let positions: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 0.05, 0.0)).collect();
        let (caches, table) = fleet(&positions);
        let grid = NeighborGrid::build(positions, 1.0);
        let model = ChannelFaults::from_loss_prob(11, 0.0, 0);
        let some = ShareFaults {
            faults: Some(&model),
            drop_prob: 0.5,
            malform_prob: 0.0,
            nonce: 42,
        };
        let mut ledger = QuarantineLedger::new(QuarantineConfig::default(), 7);
        let (rg, sg) = share_exchange(
            0,
            Point::new(0.0, 0.0),
            1.0,
            1,
            CAT,
            &grid,
            &caches,
            &table,
            None,
            some,
            Some((&mut ledger, 3)),
            &mut NoopRecorder,
        );
        let (ru, su) = gather_peer_data_checked(
            0,
            Point::new(0.0, 0.0),
            1.0,
            CAT,
            &grid,
            &caches,
            &table,
            None,
            some,
        );
        assert_eq!(sg, su, "an empty ledger must not perturb the exchange");
        assert_eq!(rg.len(), ru.len());
        assert!(ledger.is_empty(), "clean replies book no strikes");
    }

    #[test]
    fn category_filter_applies() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(0.1, 0.0)];
        let (caches, table) = fleet(&positions);
        let grid = NeighborGrid::build(positions, 1.0);
        let (replies, _) = gather_peer_data(
            0,
            Point::new(0.0, 0.0),
            1.0,
            PoiCategory(7),
            &grid,
            &caches,
            &table,
        );
        assert!(replies.is_empty());
    }
}
