//! Sharing-based window queries (Algorithm 3, §3.4).

use crate::MergedRegion;
use airshare_broadcast::{AirIndexBackend, OnAirClient, Poi, QueryScratch};
use airshare_geom::{Rect, RegionScratch};
use airshare_obs::{AccessStats, Recorder, ResolutionKind, TraceEvent};

use crate::ResolvedBy;

/// Configuration of one SBWQ query.
#[derive(Clone, Copy, Debug)]
pub struct SbwqConfig {
    /// Reduce the query window to the uncovered remainder before going on
    /// air (§3.4.2). Disable for the ablation (the fallback then fetches
    /// the whole window).
    pub use_window_reduction: bool,
}

impl Default for SbwqConfig {
    fn default() -> Self {
        Self {
            use_window_reduction: true,
        }
    }
}

/// A resolved window query.
#[derive(Clone, Debug)]
pub struct SbwqResult {
    /// All POIs inside the query window (exact).
    pub pois: Vec<Poi>,
    /// How the query was answered. Window queries have no approximate
    /// tier: either the MVR covers the window, or the channel fills the
    /// gaps.
    pub resolved_by: ResolvedBy,
    /// The reduced windows `w′` that had to be fetched on air (empty when
    /// peers covered everything).
    pub reduced_windows: Vec<Rect>,
    /// Fraction of the window's area covered by the MVR at query time:
    /// 1 when peers covered the window, 0 for a degenerate window (a
    /// segment or a point) that needed the channel.
    pub coverage: f64,
    /// Broadcast cost when the channel was used.
    pub air: Option<AccessStats>,
}

/// Outcome of [`sbwq_rec`].
#[derive(Clone, Debug)]
pub enum SbwqOutcome {
    /// The query was answered exactly.
    Resolved(SbwqResult),
    /// Peers covered only part of the window and no channel was
    /// available; carries the partial POIs and the missing windows.
    Unresolved {
        /// POIs known inside the covered part of the window.
        partial: Vec<Poi>,
        /// The uncovered remainder.
        missing: Vec<Rect>,
    },
}

impl SbwqOutcome {
    /// The result, if resolved.
    pub fn resolved(self) -> Option<SbwqResult> {
        match self {
            SbwqOutcome::Resolved(r) => Some(r),
            SbwqOutcome::Unresolved { .. } => None,
        }
    }
}

/// Algorithm 3 — the sharing-based window query.
///
/// 1. Merge peer verified regions into the MVR.
/// 2. If the window `w` is entirely covered, return the known POIs inside
///    `w` (exact, `PeersVerified`).
/// 3. Otherwise compute the reduced windows `w′ = w \ MVR` and fetch only
///    those on air, merging with the POIs already known in `w ∩ MVR`.
///
/// The channel fallback's protocol steps are traced into `rec`, and the
/// terminal [`TraceEvent::QueryResolved`] is emitted for every
/// outcome: with the broadcast cost, zeros for peer-resolved queries,
/// or [`ResolutionKind::Unresolved`] and zeros for an unresolved one.
/// All working sets — the window difference and the channel's index
/// path — live in `scratch`, and the outcome's vectors are drawn from
/// its pools: a caller that hands them back with
/// [`QueryScratch::recycle`] runs every warm query without heap
/// allocation.
pub fn sbwq_rec(
    w: &Rect,
    cfg: &SbwqConfig,
    mvr: &MergedRegion,
    air: Option<(&OnAirClient<'_, dyn AirIndexBackend + '_>, u64)>,
    scratch: &mut QueryScratch,
    rec: &mut dyn Recorder,
) -> SbwqOutcome {
    let mut region = std::mem::take(scratch.retained::<SbwqScratch>());
    let outcome = sbwq_inner(w, cfg, mvr, air, &mut region.0, scratch, rec);
    *scratch.retained::<SbwqScratch>() = region;
    let (by, cost) = match &outcome {
        SbwqOutcome::Resolved(res) => (res.resolved_by.into(), res.air.unwrap_or_default()),
        SbwqOutcome::Unresolved { .. } => (ResolutionKind::Unresolved, AccessStats::default()),
    };
    rec.record(TraceEvent::QueryResolved {
        by,
        tuning: cost.tuning,
        latency: cost.latency,
    });
    outcome
}

/// SBWQ's window-difference buffers, retained in the query's scratch.
#[derive(Default)]
struct SbwqScratch(RegionScratch);

fn sbwq_inner(
    w: &Rect,
    cfg: &SbwqConfig,
    mvr: &MergedRegion,
    air: Option<(&OnAirClient<'_, dyn AirIndexBackend + '_>, u64)>,
    region: &mut RegionScratch,
    scratch: &mut QueryScratch,
    rec: &mut dyn Recorder,
) -> SbwqOutcome {
    let missing = mvr.region().rect_difference(w, region);
    let mut pois = scratch.take_vec();
    pois.extend(mvr.pois_in_rect(w).copied());

    if missing.is_empty() {
        return SbwqOutcome::Resolved(SbwqResult {
            pois,
            resolved_by: ResolvedBy::PeersVerified,
            reduced_windows: Vec::new(),
            coverage: 1.0,
            air: None,
        });
    }

    let mut reduced_windows = scratch.take_vec();
    let Some((client, tune_in)) = air else {
        reduced_windows.extend_from_slice(missing);
        return SbwqOutcome::Unresolved {
            partial: pois,
            missing: reduced_windows,
        };
    };

    let coverage = if w.is_degenerate() {
        0.0
    } else {
        (w.area() - missing.iter().map(Rect::area).sum::<f64>()).max(0.0) / w.area()
    };
    if cfg.use_window_reduction {
        reduced_windows.extend_from_slice(missing);
    } else {
        reduced_windows.push(*w);
    }
    let fetched = client.window_reduced_rec(tune_in, &reduced_windows, scratch, rec);
    let stats = fetched.stats;

    // Merge: known POIs in the covered part + fetched POIs in the
    // remainder, deduplicated by id (a fetched bucket may repeat POIs the
    // peers already supplied when reduction is off). Equal ids are one
    // table entry, so the unstable sort keeps what a stable one would.
    pois.extend(fetched.pois.iter().filter(|p| w.contains(p.pos)));
    scratch.recycle(fetched.pois);
    pois.sort_unstable_by_key(|p| p.id);
    pois.dedup_by_key(|p| p.id);

    SbwqOutcome::Resolved(SbwqResult {
        pois,
        resolved_by: ResolvedBy::Broadcast,
        reduced_windows,
        coverage,
        air: Some(stats),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshare_geom::Point;
    use airshare_obs::NoopRecorder;

    fn mvr(pairs: Vec<(Rect, Vec<Poi>)>) -> MergedRegion {
        MergedRegion::from_regions(pairs)
    }

    fn poi(id: u32, x: f64, y: f64) -> Poi {
        Poi::new(id, Point::new(x, y))
    }

    #[test]
    fn fully_covered_window_resolves_from_peers() {
        // Paper Figure 9, WQ1: the window falls inside the MVR.
        let m = mvr(vec![(
            Rect::from_coords(0.0, 0.0, 10.0, 10.0),
            vec![poi(1, 2.0, 2.0), poi(4, 3.0, 3.0), poi(9, 9.0, 9.0)],
        )]);
        let w = Rect::from_coords(1.0, 1.0, 4.0, 4.0);
        let res = sbwq_rec(
            &w,
            &SbwqConfig::default(),
            &m,
            None,
            &mut QueryScratch::new(),
            &mut NoopRecorder,
        )
        .resolved()
        .expect("covered window resolves");
        assert_eq!(res.resolved_by, ResolvedBy::PeersVerified);
        assert_eq!(res.coverage, 1.0);
        let mut ids: Vec<u32> = res.pois.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 4]);
    }

    #[test]
    fn partial_coverage_without_channel_is_unresolved() {
        let m = mvr(vec![(
            Rect::from_coords(0.0, 0.0, 2.0, 4.0),
            vec![poi(1, 1.0, 2.0)],
        )]);
        let w = Rect::from_coords(1.0, 1.0, 5.0, 3.0);
        match sbwq_rec(
            &w,
            &SbwqConfig::default(),
            &m,
            None,
            &mut QueryScratch::new(),
            &mut NoopRecorder,
        ) {
            SbwqOutcome::Unresolved { partial, missing } => {
                assert_eq!(partial.len(), 1);
                assert!(!missing.is_empty());
                let miss_area: f64 = missing.iter().map(Rect::area).sum();
                assert_eq!(miss_area, 6.0);
            }
            SbwqOutcome::Resolved(_) => panic!("should be unresolved"),
        }
    }

    /// Runs `w` over `m` with a channel broadcasting `pois`.
    fn with_channel(w: &Rect, m: &MergedRegion, pois: Vec<Poi>) -> SbwqResult {
        use airshare_broadcast::{AirIndex, Schedule};
        let world = Rect::from_coords(0.0, 0.0, 8.0, 8.0);
        let index = AirIndex::try_build(pois, airshare_hilbert::Grid::new(world, 3), 2).unwrap();
        let schedule = Schedule::try_new(index.data_buckets(), index.index_buckets(), 2).unwrap();
        let client = OnAirClient::new(&index, &schedule);
        let air = Some((&client.as_dyn(), 0));
        sbwq_rec(
            w,
            &SbwqConfig::default(),
            m,
            air,
            &mut QueryScratch::new(),
            &mut NoopRecorder,
        )
        .resolved()
        .expect("with a channel, window queries always resolve")
    }

    #[test]
    fn coverage_fraction_reported() {
        let m = mvr(vec![(Rect::from_coords(0.0, 0.0, 2.0, 2.0), vec![])]);
        let w = Rect::from_coords(0.0, 0.0, 4.0, 2.0);
        match sbwq_rec(
            &w,
            &SbwqConfig::default(),
            &m,
            None,
            &mut QueryScratch::new(),
            &mut NoopRecorder,
        ) {
            SbwqOutcome::Unresolved { .. } => {}
            _ => panic!(),
        }
        let res = with_channel(&w, &m, vec![poi(1, 3.0, 1.0)]);
        assert_eq!(res.resolved_by, ResolvedBy::Broadcast);
        assert_eq!(res.coverage, 0.5);
        assert_eq!(res.pois.iter().map(|p| p.id).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn degenerate_window_is_covered_only_by_a_containing_member() {
        // A zero-width window over an empty MVR is not known to be
        // empty: without a channel it stays unresolved, whole.
        let m = mvr(vec![]);
        let w = Rect::from_coords(1.0, 1.0, 1.0, 5.0);
        match sbwq_rec(
            &w,
            &SbwqConfig::default(),
            &m,
            None,
            &mut QueryScratch::new(),
            &mut NoopRecorder,
        ) {
            SbwqOutcome::Unresolved { partial, missing } => {
                assert!(partial.is_empty());
                assert_eq!(missing, [w]);
            }
            SbwqOutcome::Resolved(r) => panic!("resolved by {:?}", r.resolved_by),
        }
        // With a channel, the POI on the segment and the one at the
        // point come back, and the coverage reads 0.
        for (w, id) in [(w, 2), (Rect::from_coords(3.0, 3.0, 3.0, 3.0), 3)] {
            let res = with_channel(&w, &m, vec![poi(2, 1.0, 2.5), poi(3, 3.0, 3.0)]);
            assert_eq!(res.resolved_by, ResolvedBy::Broadcast);
            assert_eq!(res.coverage, 0.0);
            assert_eq!(res.pois.iter().map(|p| p.id).collect::<Vec<_>>(), [id]);
        }
        // A member containing the segment resolves it from peers.
        let m = mvr(vec![(
            Rect::from_coords(0.0, 0.0, 2.0, 6.0),
            vec![poi(2, 1.0, 2.5)],
        )]);
        let res = with_channel(&w, &m, vec![poi(2, 1.0, 2.5)]);
        assert_eq!(res.resolved_by, ResolvedBy::PeersVerified);
        assert_eq!(res.pois.iter().map(|p| p.id).collect::<Vec<_>>(), [2]);
    }
}
