//! Sharing-based nearest neighbor queries: NNV (Algorithm 1) and SBNN
//! (Algorithm 2).

use crate::approx::{correctness_probability, surpassing_ratio, unverified_area_of_tiles};
use crate::{HeapState, MergedRegion, NnCandidate, ResultHeap};
use airshare_broadcast::{AirIndexBackend, OnAirClient, Poi, QueryScratch};
use airshare_geom::{Point, Rect, RegionScratch};
use airshare_obs::{AccessStats, Recorder, ResolutionKind, TraceEvent};

/// How a peer-answered query turns its verified ball into a cacheable
/// rectangle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum VrPolicy {
    /// The square **inscribed** in the verified ball — sound: every POI
    /// inside the cached region is known (this repo's default; see
    /// DESIGN.md §3).
    #[default]
    InscribedBall,
    /// The MBR **circumscribing** the verified ball — the paper's looser
    /// reading ("the MBR of that circle"). Unsound: the MBR corners
    /// reach beyond the ball, so a cached region may miss POIs. Exists
    /// for the `vr_policy` ablation, which quantifies the resulting
    /// false verifications downstream.
    CircumscribedMbr,
}

/// Configuration of one SBNN query.
#[derive(Clone, Copy, Debug)]
pub struct SbnnConfig {
    /// How many nearest neighbors are requested.
    pub k: usize,
    /// Whether the issuer accepts approximate answers (the paper's
    /// `accept` flag in Algorithm 2).
    pub accept_approx: bool,
    /// Minimum Lemma-3.2 correctness probability for every unverified
    /// entry of an accepted approximate answer (§4.2 uses 50 %).
    pub min_correctness: f64,
    /// POI density `λ` (POIs per square mile) for Lemma 3.2.
    pub lambda: f64,
    /// Apply the §3.3.3 search bounds when falling back to the channel.
    /// Disable for the `bound_filtering` ablation.
    pub use_bound_filtering: bool,
    /// Cacheable-region construction for peer-answered queries.
    pub vr_policy: VrPolicy,
    /// The bounded service area, when known: Lemma 3.2's unverified
    /// areas are clipped to it (POIs cannot hide outside the served
    /// region). `None` models an unbounded Poisson field as the paper
    /// does.
    pub domain: Option<Rect>,
}

impl SbnnConfig {
    /// The paper's evaluation defaults for a given `k` and density.
    pub fn paper_defaults(k: usize, lambda: f64) -> Self {
        Self {
            k,
            accept_approx: true,
            min_correctness: 0.5,
            lambda,
            use_bound_filtering: true,
            vr_policy: VrPolicy::InscribedBall,
            domain: None,
        }
    }
}

/// Who ultimately answered the query (the three series of Figures 10–12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedBy {
    /// All `k` neighbors verified from peer data alone (Lemma 3.1).
    PeersVerified,
    /// Answered from peers with unverified entries above the correctness
    /// threshold ("approximate SBNN").
    PeersApproximate,
    /// Fell back to the broadcast channel (possibly bound-filtered).
    Broadcast,
}

impl From<ResolvedBy> for ResolutionKind {
    fn from(r: ResolvedBy) -> ResolutionKind {
        match r {
            ResolvedBy::PeersVerified => ResolutionKind::PeersVerified,
            ResolvedBy::PeersApproximate => ResolutionKind::PeersApproximate,
            ResolvedBy::Broadcast => ResolutionKind::Broadcast,
        }
    }
}

/// A resolved SBNN query.
#[derive(Clone, Debug)]
pub struct SbnnResult {
    /// The `k` answers, ascending by distance. Under
    /// [`ResolvedBy::Broadcast`] and [`ResolvedBy::PeersVerified`] these
    /// are exact; under [`ResolvedBy::PeersApproximate`] the unverified
    /// tail carries its correctness probability and surpassing ratio.
    pub neighbors: Vec<NnCandidate>,
    /// How the query was answered.
    pub resolved_by: ResolvedBy,
    /// Heap state after NNV, before any fallback (§3.3.3).
    pub heap_state: HeapState,
    /// Broadcast cost when the channel was used.
    pub air: Option<AccessStats>,
    /// A sound verified region (with its complete POI set) the issuer may
    /// cache: the on-air search MBR, or the largest square around `q`
    /// inside the MVR for peer-only answers. `None` when nothing
    /// cacheable was produced.
    pub adoptable: Option<(Rect, Vec<Poi>)>,
}

/// Outcome of [`sbnn_rec`]: resolved, or — when no channel fallback was
/// provided and peers could not finish the job — the partial heap for the
/// caller to act on.
#[derive(Clone, Debug)]
pub enum SbnnOutcome {
    /// The query was answered.
    Resolved(SbnnResult),
    /// Peers alone could not answer and no channel was available.
    Unresolved(ResultHeap),
}

impl SbnnOutcome {
    /// The result, if resolved.
    pub fn resolved(self) -> Option<SbnnResult> {
        match self {
            SbnnOutcome::Resolved(r) => Some(r),
            SbnnOutcome::Unresolved(_) => None,
        }
    }
}

/// Algorithm 1 — Nearest Neighbor Verification.
///
/// Sorts the POIs known from peers by distance to `q` and fills the heap
/// `H` with up to `k` candidates; a candidate is **verified** when it is
/// no farther than the nearest MVR boundary edge `e_s` and `q` lies
/// inside the MVR (Lemma 3.1). Unverified candidates carry their
/// Lemma-3.2 correctness probability and surpassing ratio.
pub fn nnv(q: Point, k: usize, mvr: &MergedRegion, lambda: f64) -> ResultHeap {
    let mut s = NnvScratch::default();
    let heap = ResultHeap::new(k);
    nnv_detailed(q, mvr, lambda, None, heap, &mut s).0
}

/// NNV's working sets, retained in the query's [`QueryScratch`]: the
/// nearest candidates, the merged region pruned to the query's
/// neighborhood, and the region sweeps' buffers (boundary lines, tiles).
#[derive(Default)]
struct NnvScratch {
    by_distance: Vec<(f64, Poi)>,
    pruned: MergedRegion,
    /// Whether `pruned` holds this query's pruning; without one, the
    /// whole merged region stands in for it.
    is_pruned: bool,
    region: RegionScratch,
}

impl NnvScratch {
    /// The merged region pruned to the query's neighborhood (exact for
    /// every question within the verified radius), as the last NNV left it.
    fn pruned<'a>(&'a self, mvr: &'a MergedRegion) -> &'a MergedRegion {
        if self.is_pruned {
            &self.pruned
        } else {
            mvr
        }
    }
}

/// [`nnv`] into `heap`, plus the machinery SBNN reuses: a radius around
/// `q` proven to lie entirely inside the MVR (0 when `q` is outside),
/// and — in `s`, see [`NnvScratch::pruned`] — the merged region pruned
/// to the query's neighborhood (exact for every question within that
/// radius).
fn nnv_detailed(
    q: Point,
    mvr: &MergedRegion,
    lambda: f64,
    domain: Option<Rect>,
    mut heap: ResultHeap,
    s: &mut NnvScratch,
) -> (ResultHeap, f64) {
    let k = heap.k();
    s.is_pruned = false;
    if mvr.is_empty() {
        return (heap, 0.0);
    }
    let NnvScratch {
        by_distance,
        pruned,
        is_pruned,
        region,
    } = s;
    by_distance.clear();
    by_distance.extend(mvr.pois().iter().map(|p| (p.distance_to(q), *p)));
    // Ids are unique, so this order is total: selecting the k nearest
    // and sorting only them gives what sorting every POI would.
    let nearer = |a: &(f64, Poi), b: &(f64, Poi)| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id));
    if by_distance.len() > k {
        by_distance.select_nth_unstable_by(k, nearer);
        by_distance.truncate(k);
    }
    by_distance.sort_unstable_by(nearer);

    // Everything NNV asks of the geometry lives within the k-th
    // candidate's disk; prune the merged region to it (exact — see
    // `MergedRegion::prune_into`). With fewer than k candidates no
    // pruning radius is sound, but the heap cannot fill either way.
    let prune_radius = if by_distance.len() == k {
        let r = by_distance.last().map(|(d, _)| *d).unwrap_or(0.0);
        let pr = r * (1.0 + 1e-12) + 1e-9;
        mvr.prune_into(q, pr, pruned);
        *is_pruned = true;
        pr
    } else {
        f64::INFINITY
    };
    let mvr: &MergedRegion = if *is_pruned { pruned } else { mvr };

    // Verification radius: distance to the nearest boundary edge, valid
    // only when q is inside the MVR. On the pruned region this is exact
    // up to the prune radius; the cap keeps it sound either way.
    let d_es = if mvr.contains(q) {
        mvr.region()
            .distance_to_boundary_within(q, prune_radius, region)
            .unwrap_or(0.0)
    } else {
        0.0
    };

    // Lemma 3.2 tiles the pruned region once, at the first unverified
    // candidate; every unverified candidate's area is summed over them.
    let (mut tiles, mut untiled): (&[Rect], _) = (&[], Some(region));
    let mut last_verified: Option<f64> = None;
    for &(dist, poi) in by_distance.iter() {
        if heap.is_full() {
            break;
        }
        let verified = dist <= d_es;
        if verified {
            last_verified = Some(dist);
            heap.push(NnCandidate {
                poi,
                distance: dist,
                verified: true,
                correctness: None,
                surpassing_ratio: None,
            });
        } else {
            if let Some(region) = untiled.take() {
                tiles = mvr.region().disjoint_rects(region);
            }
            let u = unverified_area_of_tiles(q, dist, tiles, domain.as_ref());
            heap.push(NnCandidate {
                poi,
                distance: dist,
                verified: false,
                correctness: Some(correctness_probability(u, lambda)),
                surpassing_ratio: surpassing_ratio(dist, last_verified),
            });
        }
    }
    (heap, d_es)
}

/// Algorithm 2 — the sharing-based nearest neighbor query.
///
/// 1. Run [`nnv`] over the merged peer data.
/// 2. If `k` verified neighbors were found — done (`PeersVerified`).
/// 3. Else, if the heap is full and the issuer accepts approximate
///    results whose unverified entries clear the correctness threshold —
///    done (`PeersApproximate`).
/// 4. Otherwise fall back to the broadcast channel, using the §3.3.3
///    search bounds implied by the heap state to skip already-verified
///    buckets and cap the search radius.
///
/// `air` is the broadcast client plus the tick at which the host tunes
/// in; pass `None` to model a host out of coverage (the outcome is then
/// [`SbnnOutcome::Unresolved`] whenever peers cannot finish).
///
/// The channel fallback's protocol steps are traced into `rec`, and the
/// terminal [`TraceEvent::QueryResolved`] is emitted for every
/// outcome: with the broadcast cost, zeros for peer-resolved queries,
/// or [`ResolutionKind::Unresolved`] and zeros for an unresolved one.
/// All working sets — NNV's and the channel's index path — live in
/// `scratch`, and the outcome's vectors are drawn from its pools: a
/// caller that hands them back with [`QueryScratch::recycle`] runs every
/// warm query without heap allocation.
pub fn sbnn_rec(
    q: Point,
    cfg: &SbnnConfig,
    mvr: &MergedRegion,
    air: Option<(&OnAirClient<'_, dyn AirIndexBackend + '_>, u64)>,
    scratch: &mut QueryScratch,
    rec: &mut dyn Recorder,
) -> SbnnOutcome {
    let mut nnv = std::mem::take(scratch.retained::<NnvScratch>());
    let outcome = sbnn_inner(q, cfg, mvr, air, &mut nnv, scratch, rec);
    *scratch.retained::<NnvScratch>() = nnv;
    let (by, cost) = match &outcome {
        SbnnOutcome::Resolved(res) => (res.resolved_by.into(), res.air.unwrap_or_default()),
        SbnnOutcome::Unresolved(_) => (ResolutionKind::Unresolved, AccessStats::default()),
    };
    rec.record(TraceEvent::QueryResolved {
        by,
        tuning: cost.tuning,
        latency: cost.latency,
    });
    outcome
}

fn sbnn_inner(
    q: Point,
    cfg: &SbnnConfig,
    mvr: &MergedRegion,
    air: Option<(&OnAirClient<'_, dyn AirIndexBackend + '_>, u64)>,
    nnv: &mut NnvScratch,
    scratch: &mut QueryScratch,
    rec: &mut dyn Recorder,
) -> SbnnOutcome {
    let heap = ResultHeap::with_buffer(cfg.k, scratch.take_vec());
    let (heap, verified_radius) = nnv_detailed(q, mvr, cfg.lambda, cfg.domain, heap, nnv);
    let heap_state = heap.state();

    let resolved_by = if heap.is_fulfilled() {
        Some(ResolvedBy::PeersVerified)
    } else if cfg.accept_approx && heap.approximate_acceptable(cfg.min_correctness) {
        Some(ResolvedBy::PeersApproximate)
    } else {
        None
    };
    if let Some(resolved_by) = resolved_by {
        let pruned = nnv.pruned(mvr);
        let adoptable = adoptable_ball_square(q, verified_radius, pruned, cfg.vr_policy, scratch);
        return SbnnOutcome::Resolved(SbnnResult {
            neighbors: heap.into_entries(),
            resolved_by,
            heap_state,
            air: None,
            adoptable,
        });
    }

    let Some((client, tune_in)) = air else {
        return SbnnOutcome::Unresolved(heap);
    };

    let (inner, outer) = if cfg.use_bound_filtering {
        (heap.lower_bound(), heap.upper_bound())
    } else {
        (None, None)
    };
    let Some(res) =
        client.knn_filtered_rec(tune_in, q, cfg.k, mvr.pois(), inner, outer, scratch, rec)
    else {
        // Fewer than k POIs exist in the whole dataset.
        return SbnnOutcome::Unresolved(heap);
    };
    let mut neighbors = heap.into_entries();
    neighbors.clear();
    neighbors.extend(res.neighbors.iter().map(|p| NnCandidate {
        poi: *p,
        distance: p.distance_to(q),
        verified: true,
        correctness: None,
        surpassing_ratio: None,
    }));
    scratch.recycle(res.neighbors);
    // What the client retrieved inside the verified MBR is that
    // region's complete POI set.
    let mut pois_in_vr = res.retrieved;
    pois_in_vr.retain(|p| res.verified_mbr.contains(p.pos));
    SbnnOutcome::Resolved(SbnnResult {
        neighbors,
        resolved_by: ResolvedBy::Broadcast,
        heap_state,
        air: Some(res.stats),
        adoptable: Some((res.verified_mbr, pois_in_vr)),
    })
}

/// The cacheable region for a peer-answered query: the square inscribed
/// in the ball `B(q, r)` that NNV proved to lie inside the MVR, with the
/// POIs inside it (in a vector from `scratch`'s pool) — the peer-side
/// analogue of caching a broadcast-solved query's search MBR. `pruned`
/// must be the NNV-pruned region (its POI list is complete within the
/// prune radius ≥ `r`).
fn adoptable_ball_square(
    q: Point,
    r: f64,
    pruned: &MergedRegion,
    policy: VrPolicy,
    scratch: &mut QueryScratch,
) -> Option<(Rect, Vec<Poi>)> {
    let half = match policy {
        VrPolicy::InscribedBall => r / std::f64::consts::SQRT_2,
        // Deliberately unsound (ablation): the MBR of the ball.
        VrPolicy::CircumscribedMbr => r,
    };
    if half <= 1e-9 {
        return None;
    }
    let vr = Rect::centered_square(q, half);
    let mut pois = scratch.take_vec();
    pois.extend(pruned.pois_in_rect(&vr).copied());
    Some((vr, pois))
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshare_obs::NoopRecorder;

    /// A merged region from explicit (VR, POI) pairs.
    fn region(rects: &[Rect], pois: &[(u32, f64, f64)]) -> MergedRegion {
        // Attach every POI to the rect containing it (entries must be
        // complete per-VR; tests construct consistent data).
        let pairs: Vec<(Rect, Vec<Poi>)> = rects
            .iter()
            .map(|r| {
                (
                    *r,
                    pois.iter()
                        .filter(|&&(_, x, y)| r.contains(Point::new(x, y)))
                        .map(|&(id, x, y)| Poi::new(id, Point::new(x, y)))
                        .collect(),
                )
            })
            .collect();
        MergedRegion::from_regions(pairs)
    }

    #[test]
    fn nnv_verifies_figure5_scenario() {
        // Paper Figure 5: o1 within the nearest-edge distance → verified
        // 1-NN; farther POIs unverified.
        let mvr = region(
            &[Rect::from_coords(0.0, 0.0, 10.0, 10.0)],
            &[(1, 5.0, 5.5), (2, 5.0, 8.0), (3, 1.0, 1.0)],
        );
        let q = Point::new(5.0, 5.0);
        // d_es = 5 (to any edge of the square from the centre... actually
        // 5 exactly); o1 at 0.5, o2 at 3.0, o3 at ~5.66 (> 5, unverified).
        let heap = nnv(q, 3, &mvr, 0.1);
        assert_eq!(heap.len(), 3);
        assert!(heap.entries()[0].verified && heap.entries()[0].poi.id == 1);
        assert!(heap.entries()[1].verified && heap.entries()[1].poi.id == 2);
        assert!(!heap.entries()[2].verified && heap.entries()[2].poi.id == 3);
        let c = heap.entries()[2].correctness.unwrap();
        assert!(c > 0.0 && c < 1.0, "correctness = {c}");
        let sr = heap.entries()[2].surpassing_ratio.unwrap();
        assert!((sr - heap.entries()[2].distance / 3.0).abs() < 1e-9);
    }

    #[test]
    fn nnv_nothing_verified_when_q_outside_mvr() {
        let mvr = region(&[Rect::from_coords(0.0, 0.0, 2.0, 2.0)], &[(1, 1.0, 1.0)]);
        let heap = nnv(Point::new(5.0, 5.0), 1, &mvr, 0.1);
        assert_eq!(heap.len(), 1);
        assert!(!heap.entries()[0].verified);
    }

    #[test]
    fn nnv_empty_region_yields_empty_heap() {
        let mvr = MergedRegion::from_regions(Vec::<(Rect, Vec<Poi>)>::new());
        let heap = nnv(Point::ORIGIN, 3, &mvr, 0.1);
        assert!(heap.is_empty());
        assert_eq!(heap.state(), HeapState::Empty);
    }

    #[test]
    fn sbnn_resolves_from_peers_when_k_verified() {
        let mvr = region(
            &[Rect::from_coords(-10.0, -10.0, 10.0, 10.0)],
            &[(1, 0.5, 0.0), (2, 0.0, 1.0), (3, -2.0, 0.0)],
        );
        let cfg = SbnnConfig::paper_defaults(3, 0.1);
        let out = sbnn_rec(
            Point::ORIGIN,
            &cfg,
            &mvr,
            None,
            &mut QueryScratch::new(),
            &mut NoopRecorder,
        );
        let res = out.resolved().expect("resolved");
        assert_eq!(res.resolved_by, ResolvedBy::PeersVerified);
        assert_eq!(res.neighbors.len(), 3);
        assert!(res.air.is_none());
        // Adoptable region is sound: contains q, holds exactly the known
        // POIs inside it (the inscribed square of the 3-NN ball).
        let (vr, pois) = res.adoptable.unwrap();
        assert!(vr.contains(Point::ORIGIN));
        for p in &pois {
            assert!(vr.contains(p.pos));
        }
        let expect = mvr.pois_in_rect(&vr).count();
        assert_eq!(pois.len(), expect);
        assert!(pois.len() >= 2, "the two closest POIs fit the square");
    }

    #[test]
    fn sbnn_approximate_acceptance_depends_on_threshold() {
        // One verified neighbor, one unverified slightly beyond the MVR
        // edge; sparse density → high correctness.
        let mvr = region(
            &[Rect::from_coords(-2.0, -2.0, 2.0, 2.0)],
            &[(1, 0.5, 0.0), (2, 1.9, 1.9)],
        );
        let mut cfg = SbnnConfig::paper_defaults(2, 0.001);
        let out = sbnn_rec(
            Point::ORIGIN,
            &cfg,
            &mvr,
            None,
            &mut QueryScratch::new(),
            &mut NoopRecorder,
        );
        let res = out.resolved().expect("approximate accept");
        assert_eq!(res.resolved_by, ResolvedBy::PeersApproximate);
        // With a brutal threshold the same query is unresolved.
        cfg.min_correctness = 0.999999;
        let out2 = sbnn_rec(
            Point::ORIGIN,
            &cfg,
            &mvr,
            None,
            &mut QueryScratch::new(),
            &mut NoopRecorder,
        );
        assert!(matches!(out2, SbnnOutcome::Unresolved(_)));
        // With approximation disabled, also unresolved.
        cfg.min_correctness = 0.0;
        cfg.accept_approx = false;
        let out3 = sbnn_rec(
            Point::ORIGIN,
            &cfg,
            &mvr,
            None,
            &mut QueryScratch::new(),
            &mut NoopRecorder,
        );
        assert!(matches!(out3, SbnnOutcome::Unresolved(_)));
    }

    #[test]
    fn unresolved_heap_carries_partial_results() {
        let mvr = region(&[Rect::from_coords(-1.0, -1.0, 1.0, 1.0)], &[(1, 0.1, 0.0)]);
        let cfg = SbnnConfig {
            accept_approx: false,
            ..SbnnConfig::paper_defaults(5, 0.1)
        };
        match sbnn_rec(
            Point::ORIGIN,
            &cfg,
            &mvr,
            None,
            &mut QueryScratch::new(),
            &mut NoopRecorder,
        ) {
            SbnnOutcome::Unresolved(h) => {
                assert_eq!(h.len(), 1);
                assert!(h.entries()[0].verified);
                assert_eq!(h.state(), HeapState::PartialVerified);
            }
            SbnnOutcome::Resolved(_) => panic!("should be unresolved"),
        }
    }
}
