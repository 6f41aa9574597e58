//! The client access protocol and the on-air spatial query baselines.
//!
//! Each query kind has one plan, one retrieval and one cost form, over
//! one schedule walk:
//!
//! * **Plan** — the bucket set to download. For kNN it is the index-scan
//!   search square, capped by the caller's upper bound, minus the
//!   buckets inside the verified inner circle (§3.3.3); for windows it
//!   is the union of the windows' bucket sets (§3.4.2). With no bounds,
//!   or one window, it is the paper's baseline (Figures 4 and 8).
//! * **Retrieval** — [`OnAirClient::knn_filtered_rec`] and
//!   [`OnAirClient::window_reduced_rec`]: for a query that really goes
//!   on air. One access — probe, index, data — downloads the plan's
//!   buckets; the POIs are then ranked or filtered and every protocol
//!   step is traced. [`OnAirClient::knn_rec`] and
//!   [`OnAirClient::window_rec`] forward to them for a query with no
//!   bounds and for one window.
//! * **Cost only** — [`OnAirClient::knn_cost`],
//!   [`OnAirClient::window_cost`]: for asking what the on-air algorithm
//!   *would have paid* (the counterfactual baseline beside every
//!   peer-resolved query). Same plan, timing and fault coin flips as the
//!   baseline retrieval, so the [`AccessStats`] are equal field for
//!   field; no POI is copied and nothing is traced.

use crate::{AirIndex, AirIndexBackend, BucketId, ChannelFaults, Poi, QueryScratch, Schedule};
use airshare_geom::{Point, Rect};
use airshare_obs::{AccessStats, Recorder, TraceEvent};

/// Result of an on-air kNN query.
#[derive(Clone, Debug)]
pub struct OnAirKnnResult {
    /// The exact k nearest POIs, ascending by distance.
    pub neighbors: Vec<Poi>,
    /// The search MBR whose cells were fully retrieved. Every POI inside
    /// it is now known to the client — a sound verified region.
    pub verified_mbr: Rect,
    /// Every POI the client now knows in the search area (downloaded
    /// buckets merged with prior knowledge) — the payload for caching the
    /// verified region.
    pub retrieved: Vec<Poi>,
    /// Broadcast-access cost.
    pub stats: AccessStats,
}

/// Result of an on-air window query.
#[derive(Clone, Debug)]
pub struct OnAirWindowResult {
    /// POIs inside the query window.
    pub pois: Vec<Poi>,
    /// Broadcast-access cost.
    pub stats: AccessStats,
}

/// One on-air appearance of a requested bucket, as the schedule walk
/// hands it to its sink.
enum Appearance {
    /// The bucket arrived intact; its download completed at `tick`.
    Intact { tick: u64 },
    /// The appearance was lost; `retry` re-fetches of this bucket came
    /// before.
    Corrupt { retry: u32 },
}

/// A client of the broadcast channel: owns no state beyond references to
/// the public air organization (every mobile host sees the same channel).
///
/// The access protocol follows the paper's three steps: **initial probe**
/// (wait for the next index segment), **index search** (translate the
/// spatial predicate to bucket arrival times), **data retrieval**
/// (download the buckets as they come around).
///
/// The client is generic over the [`AirIndexBackend`] it tunes to and
/// defaults to the paper's Hilbert [`AirIndex`], so existing code keeps
/// static dispatch unchanged. Callers that pick a backend at runtime use
/// `OnAirClient<'a, dyn AirIndexBackend>` (see
/// [`OnAirClient::as_dyn`]).
#[derive(Debug)]
pub struct OnAirClient<'a, B: ?Sized = AirIndex> {
    index: &'a B,
    schedule: &'a Schedule,
    faults: Option<&'a ChannelFaults>,
}

// Manual impls: `derive` would bound `B: Clone + Copy`, which a trait
// object cannot satisfy even though only references are copied.
impl<B: ?Sized> Clone for OnAirClient<'_, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<B: ?Sized> Copy for OnAirClient<'_, B> {}

impl<'a, B: AirIndexBackend> OnAirClient<'a, B> {
    /// Erases the backend type, so call sites that mix backends at
    /// runtime (e.g. the simulator's `BackendKind` knob) share one
    /// monomorphization of every query path.
    pub fn as_dyn(&self) -> OnAirClient<'a, dyn AirIndexBackend + 'a> {
        OnAirClient {
            index: self.index,
            schedule: self.schedule,
            faults: self.faults,
        }
    }
}

impl<'a, B: AirIndexBackend + ?Sized> OnAirClient<'a, B> {
    /// Creates a client for a channel with an ideal (lossless) link.
    pub fn new(index: &'a B, schedule: &'a Schedule) -> Self {
        debug_assert_eq!(index.data_buckets(), schedule.data_buckets());
        Self {
            index,
            schedule,
            faults: None,
        }
    }

    /// Creates a client for a channel subject to a fault model: bucket
    /// appearances may be lost (see [`ChannelFaults`]) and are
    /// re-fetched on the bucket's next cycle occurrence, up to the
    /// model's retry budget.
    pub fn with_faults(index: &'a B, schedule: &'a Schedule, faults: &'a ChannelFaults) -> Self {
        debug_assert_eq!(index.data_buckets(), schedule.data_buckets());
        Self {
            index,
            schedule,
            faults: Some(faults),
        }
    }

    /// The fault model in effect, if any.
    pub fn faults(&self) -> Option<&'a ChannelFaults> {
        self.faults
    }

    /// Runs the raw access protocol for an explicit bucket set, appending
    /// the downloaded POIs to `out` and returning the access cost.
    ///
    /// `tune_in` is the absolute tick at which the client poses the
    /// query. Buckets already past in the current cycle are caught on the
    /// next one — the sequential-access limitation the paper's P2P
    /// sharing exists to mitigate.
    ///
    /// Under a fault model, a corrupt appearance costs its tuning tick
    /// (the client listened and got an unusable frame) and pushes the
    /// download to the bucket's next cycle occurrence; after the retry
    /// budget is exhausted the bucket is abandoned and counted in
    /// [`AccessStats::lost_buckets`], so the caller can report the
    /// operation as degraded instead of returning silently wrong data.
    ///
    /// **Retry-budget contract** (the off-by-one, pinned by tests): a
    /// budget of `N` permits up to `N` *re-fetches after* the free first
    /// appearance, so at most `N + 1` appearances of each bucket are
    /// examined. Budget 0 means single-shot: any corrupt appearance
    /// immediately abandons the bucket. Each re-fetch adds one tick to
    /// [`AccessStats::tuning`] and one to [`AccessStats::retries`]; on a
    /// fully dead channel (`loss_prob == 1.0`) a retrieval therefore
    /// books exactly `N` retries plus one lost bucket per requested
    /// bucket, i.e. `N + 1` `FrameLost` events apiece.
    ///
    /// Each protocol step is traced into `rec`: the initial probe, the
    /// index segment read, every downloaded data bucket, and every
    /// corrupt appearance (including the final one of an abandoned
    /// bucket — so across a retrieval the `FrameLost` count equals
    /// `retries + lost_buckets`).
    fn retrieve(
        &self,
        tune_in: u64,
        buckets: &[BucketId],
        out: &mut Vec<Poi>,
        rec: &mut dyn Recorder,
    ) -> AccessStats {
        rec.record(TraceEvent::ProbeStarted { tick: tune_in });
        rec.record(TraceEvent::IndexBucketTuned {
            count: self.schedule.index_buckets() as u32,
        });
        self.walk(tune_in, buckets, |b, appearance| match appearance {
            Appearance::Intact { tick } => {
                rec.record(TraceEvent::DataBucketTuned {
                    bucket: b as u32,
                    tick,
                });
                out.extend(self.index.buckets()[b].pois.iter().copied());
            }
            Appearance::Corrupt { retry } => rec.record(TraceEvent::FrameLost {
                bucket: b as u32,
                retry,
            }),
        })
    }

    /// The schedule walk behind every retrieval and every cost query:
    /// wait for the next index segment, then take each bucket at its
    /// next airing, re-fetching corrupt appearances a cycle later until
    /// the retry budget runs out. `sink` sees every appearance the
    /// client listened to, in protocol order; the returned stats do not
    /// depend on what it does with them.
    fn walk(
        &self,
        tune_in: u64,
        buckets: &[BucketId],
        mut sink: impl FnMut(BucketId, Appearance),
    ) -> AccessStats {
        let idx_start = self.schedule.next_index_start(tune_in);
        let idx_done = idx_start + self.schedule.index_buckets() as u64;
        let mut last = idx_done;
        let mut tuning = 1 + self.schedule.index_buckets() as u64 + buckets.len() as u64;
        let mut retries = 0u64;
        let mut lost_buckets = 0u64;
        let faults = self.faults.filter(|f| !f.is_lossless());
        let cycle = self.schedule.cycle_len();
        for &b in buckets {
            let mut done = self.schedule.bucket_completion_after(b, idx_done);
            let mut arrived = true;
            if let Some(f) = faults {
                // A bucket airs once per cycle, so the completion tick's
                // cycle number identifies the on-air appearance.
                let mut retry = 0;
                while f.bucket_lost(b, done / cycle) {
                    sink(b, Appearance::Corrupt { retry });
                    if retry == f.retry_budget() {
                        lost_buckets += 1;
                        arrived = false;
                        break;
                    }
                    retry += 1;
                    retries += 1;
                    tuning += 1;
                    done += cycle;
                }
            }
            if arrived {
                sink(b, Appearance::Intact { tick: done });
            }
            last = last.max(done);
        }
        AccessStats {
            latency: last - tune_in,
            tuning,
            buckets: buckets.len() as u64,
            retries,
            lost_buckets,
        }
    }

    /// The one kNN plan (§3.3.3). The search square's half-side is the
    /// tighter of `outer` and the index-scan radius: each is ≥ the true
    /// k-th NN distance, so bounds never fetch more than a cold query.
    /// The plan is that square's bucket set minus the buckets whose
    /// whole MBR lies within the verified inner circle of radius
    /// `inner`; it is left in `scratch.buckets()`. Returns the half-side,
    /// or `None` when the data file holds fewer than `k` POIs.
    fn plan_knn(
        &self,
        q: Point,
        k: usize,
        inner: Option<f64>,
        outer: Option<f64>,
        scratch: &mut QueryScratch,
    ) -> Option<f64> {
        let radius = self.index.knn_search_radius(q, k)?;
        let outer = outer.map_or(radius, |o| o.min(radius));
        self.index.buckets_for_knn_scratch(q, outer, scratch);
        if let Some(r_in) = inner {
            let buckets = self.index.buckets();
            scratch
                .buckets
                .retain(|&id| buckets[id].mbr.max_distance_to_point(q) > r_in);
        }
        Some(outer)
    }

    /// The on-air kNN baseline (paper Figure 4, after Zheng et al.):
    /// [`OnAirClient::knn_filtered_rec`] with no known POIs and no
    /// bounds.
    pub fn knn_rec(
        &self,
        tune_in: u64,
        q: Point,
        k: usize,
        scratch: &mut QueryScratch,
        rec: &mut dyn Recorder,
    ) -> Option<OnAirKnnResult> {
        self.knn_filtered_rec(tune_in, q, k, &[], None, None, scratch, rec)
    }

    /// What [`OnAirClient::knn_rec`] at the same arguments would report
    /// as its `stats`, without retrieving anything: the same plan and
    /// schedule walk (fault coin flips included), no POI copied, nothing
    /// ranked, nothing traced.
    pub fn knn_cost(
        &self,
        tune_in: u64,
        q: Point,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Option<AccessStats> {
        self.plan_knn(q, k, None, None, scratch)?;
        Some(self.walk(tune_in, &scratch.buckets, |_, _| {}))
    }

    /// The on-air kNN query (Figure 4) with the §3.3.3 bounds: scan the
    /// index to bound a search circle certain to hold ≥ k objects,
    /// retrieve the buckets covering its MBR, then rank by exact
    /// distance. The client already holds `known` POIs — everything
    /// within `inner` of `q` is verified — so buckets entirely inside
    /// the inner circle are skipped and their POIs come from `known`.
    /// `outer` caps the search (the distance of the last heap entry when
    /// the heap is full, i.e. the paper's upper bound).
    ///
    /// Returns `None` only when the data file holds fewer than `k` POIs.
    /// A retrieval that lost buckets returns what it holds, which may be
    /// fewer than `k` neighbors; its `stats` are then degraded. The
    /// retrieval is traced into `rec`; the index-path work happens in
    /// `scratch`, and the result's vectors come from its pools (hand
    /// them back with [`QueryScratch::recycle`] and a warm scratch
    /// allocates nothing).
    #[allow(clippy::too_many_arguments)]
    pub fn knn_filtered_rec(
        &self,
        tune_in: u64,
        q: Point,
        k: usize,
        known: &[Poi],
        inner: Option<f64>,
        outer: Option<f64>,
        scratch: &mut QueryScratch,
        rec: &mut dyn Recorder,
    ) -> Option<OnAirKnnResult> {
        let outer = self.plan_knn(q, k, inner, outer, scratch)?;
        let mut pois = scratch.take_vec();
        let stats = self.retrieve(tune_in, &scratch.buckets, &mut pois, rec);
        // Merge peer knowledge, deduplicating by id: equal ids are one
        // table entry, so which copy survives is immaterial.
        pois.extend(known.iter().copied());
        pois.sort_unstable_by_key(|p| p.id);
        pois.dedup_by_key(|p| p.id);
        let mut neighbors = scratch.take_vec();
        top_k_by_distance(&pois, q, k, &mut neighbors);
        // Lost buckets may leave fewer than k candidates; the degraded
        // flag in `stats` tells the caller not to trust the shortfall.
        debug_assert!(neighbors.len() == k || stats.is_degraded());
        let verified_mbr = clip_to_world(Rect::centered_square(q, outer), self.index.world());
        Some(OnAirKnnResult {
            neighbors,
            verified_mbr,
            retrieved: pois,
            stats,
        })
    }

    /// The on-air window query baseline (paper Figure 8):
    /// [`OnAirClient::window_reduced_rec`] over the one window `w`.
    pub fn window_rec(
        &self,
        tune_in: u64,
        w: &Rect,
        scratch: &mut QueryScratch,
        rec: &mut dyn Recorder,
    ) -> OnAirWindowResult {
        self.window_reduced_rec(tune_in, std::slice::from_ref(w), scratch, rec)
    }

    /// What [`OnAirClient::window_rec`] at the same arguments would
    /// report as its `stats`, without retrieving anything (see
    /// [`OnAirClient::knn_cost`]).
    pub fn window_cost(&self, tune_in: u64, w: &Rect, scratch: &mut QueryScratch) -> AccessStats {
        self.index.buckets_for_window_scratch(w, scratch);
        self.walk(tune_in, &scratch.buckets, |_, _| {})
    }

    /// The on-air window query (Figure 8) over one or more windows —
    /// with §3.4.2's reduced windows `w′`, one on-air pass over their
    /// union: the curve intervals (or MBRs) of the windows, the buckets
    /// covering them, then an exact containment filter returning the
    /// POIs inside any window. The retrieval is traced into `rec`; the
    /// index-path work happens in `scratch`, whose pools the result's
    /// vector comes from (see [`OnAirClient::knn_filtered_rec`]).
    pub fn window_reduced_rec(
        &self,
        tune_in: u64,
        windows: &[Rect],
        scratch: &mut QueryScratch,
        rec: &mut dyn Recorder,
    ) -> OnAirWindowResult {
        self.index.buckets_for_windows_scratch(windows, scratch);
        let mut pois = scratch.take_vec();
        let stats = self.retrieve(tune_in, &scratch.buckets, &mut pois, rec);
        pois.retain(|p| windows.iter().any(|w| w.contains(p.pos)));
        OnAirWindowResult { pois, stats }
    }
}

/// Exact top-k of `pois` by Euclidean distance, ascending, into `out`
/// (cleared first). The order `(distance², id)` is total up to equal
/// ids, which are one table entry, so selecting the k nearest and
/// sorting only them gives what sorting every POI would.
fn top_k_by_distance(pois: &[Poi], q: Point, k: usize, out: &mut Vec<Poi>) {
    let nearer = |a: &Poi, b: &Poi| {
        a.pos
            .distance_sq(q)
            .total_cmp(&b.pos.distance_sq(q))
            .then(a.id.cmp(&b.id))
    };
    out.clear();
    out.extend_from_slice(pois);
    if out.len() > k {
        out.select_nth_unstable_by(k, nearer);
        out.truncate(k);
    }
    out.sort_unstable_by(nearer);
}

/// Clips a verified region to the data domain. A region disjoint from the
/// world collapses to the degenerate (zero-area) rect on the world
/// boundary nearest to it — never the unclipped input, which would claim
/// verification over space the index holds no data for.
fn clip_to_world(r: Rect, world: Rect) -> Rect {
    r.intersection(&world).unwrap_or_else(|| {
        let lo = world.clamp_point(Point::new(r.x1, r.y1));
        let hi = world.clamp_point(Point::new(r.x2, r.y2));
        Rect::from_coords(lo.x, lo.y, hi.x, hi.y)
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use airshare_hilbert::Grid;
    use airshare_obs::{MetricsSnapshot, NoopRecorder};

    /// A [`MetricsSnapshot`] plus a count of `FrameLost` events, which
    /// the snapshot leaves to the report, and the buckets downloaded.
    #[derive(Default)]
    struct Traced {
        metrics: MetricsSnapshot,
        frames_lost: u64,
        tuned: Vec<BucketId>,
    }

    impl Recorder for Traced {
        fn record(&mut self, event: TraceEvent) {
            match event {
                TraceEvent::FrameLost { .. } => self.frames_lost += 1,
                TraceEvent::DataBucketTuned { bucket, .. } => self.tuned.push(bucket as BucketId),
                _ => {}
            }
            self.metrics.record(event);
        }
    }

    /// [`OnAirClient::retrieve`] into a fresh vector.
    fn retrieved<B: AirIndexBackend + ?Sized>(
        client: &OnAirClient<'_, B>,
        tune_in: u64,
        buckets: &[BucketId],
        rec: &mut dyn Recorder,
    ) -> (Vec<Poi>, AccessStats) {
        let mut pois = Vec::new();
        let stats = client.retrieve(tune_in, buckets, &mut pois, rec);
        (pois, stats)
    }

    fn scatter(n: usize) -> Vec<Poi> {
        let mut state = 7u64;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let x = (state >> 16 & 0xFFFF) as f64 / 1024.0;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let y = (state >> 16 & 0xFFFF) as f64 / 1024.0;
                Poi::new(i as u32, Point::new(x, y))
            })
            .collect()
    }

    fn channel(n: usize, m: usize) -> (AirIndex, Schedule) {
        let world = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
        let index = AirIndex::try_build(scatter(n), Grid::new(world, 5), 8).unwrap();
        let schedule = Schedule::try_new(index.data_buckets(), index.index_buckets(), m).unwrap();
        (index, schedule)
    }

    #[test]
    fn knn_is_exact_against_brute_force() {
        let (index, schedule) = channel(500, 4);
        let client = OnAirClient::new(&index, &schedule);
        let q = Point::new(20.0, 40.0);
        for k in [1, 3, 7, 15] {
            let res = client
                .knn_rec(0, q, k, &mut QueryScratch::new(), &mut NoopRecorder)
                .unwrap();
            assert_eq!(res.neighbors.len(), k);
            let mut brute = scatter(500);
            brute.sort_by(|a, b| a.pos.distance_sq(q).total_cmp(&b.pos.distance_sq(q)));
            for (got, want) in res.neighbors.iter().zip(&brute) {
                assert!(
                    (got.distance_to(q) - want.distance_to(q)).abs() < 1e-9,
                    "k={k}: {} vs {}",
                    got.distance_to(q),
                    want.distance_to(q)
                );
            }
            // All returned POIs lie inside the verified MBR.
            for p in &res.neighbors {
                assert!(res.verified_mbr.contains(p.pos));
            }
        }
    }

    #[test]
    fn window_query_is_exact() {
        let (index, schedule) = channel(500, 2);
        let client = OnAirClient::new(&index, &schedule);
        let w = Rect::from_coords(5.0, 5.0, 20.0, 18.0);
        let res = client.window_rec(0, &w, &mut QueryScratch::new(), &mut NoopRecorder);
        let mut got: Vec<u32> = res.pois.iter().map(|p| p.id).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = scatter(500)
            .into_iter()
            .filter(|p| w.contains(p.pos))
            .map(|p| p.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(res.stats.latency > 0);
    }

    #[test]
    fn retrieval_counts_costs_sanely() {
        let (index, schedule) = channel(200, 1);
        let client = OnAirClient::new(&index, &schedule);
        let (pois, stats) = retrieved(&client, 0, &[0, 1], &mut NoopRecorder);
        assert_eq!(stats.buckets, 2);
        assert_eq!(stats.tuning, 1 + schedule.index_buckets() as u64 + 2);
        assert!(!pois.is_empty());
        // Latency at least index + both buckets.
        assert!(stats.latency >= schedule.index_buckets() as u64 + 2);
        // Empty bucket set: latency is just the index wait.
        let (none, s0) = retrieved(&client, 0, &[], &mut NoopRecorder);
        assert!(none.is_empty());
        assert_eq!(s0.buckets, 0);
        assert_eq!(s0.latency, schedule.index_buckets() as u64);
    }

    #[test]
    fn m_trades_probe_wait_for_cycle_growth() {
        // (1, m)'s contract: index replication shrinks the wait for the
        // next index segment by ~m, while the cycle grows by (m-1)·I.
        // Single-bucket access latency may therefore rise slightly with
        // m, but never by more than the added index overhead.
        let (index, _) = channel(400, 1);
        let stats = |m: usize| {
            let schedule =
                Schedule::try_new(index.data_buckets(), index.index_buckets(), m).unwrap();
            let client = OnAirClient::new(&index, &schedule);
            let cl = schedule.cycle_len();
            let mut lat = 0u64;
            let mut probe = 0u64;
            for t in 0..cl {
                lat += retrieved(&client, t, &[3], &mut NoopRecorder).1.latency;
                probe += schedule.next_index_start(t) - t;
            }
            (lat as f64 / cl as f64, probe as f64 / cl as f64, schedule)
        };
        let (lat1, probe1, s1) = stats(1);
        let (lat8, probe8, s8) = stats(8);
        // Probe wait must shrink markedly.
        assert!(probe8 < probe1 / 2.0, "probe {probe8} !< {probe1}/2");
        // Latency penalty bounded by the cycle growth.
        let growth = (s8.cycle_len() - s1.cycle_len()) as f64;
        assert!(lat8 <= lat1 + growth, "{lat8} > {lat1} + {growth}");
        // Tuning time is independent of m for a fixed bucket set.
        let c1 = OnAirClient::new(&index, &s1);
        let c8 = OnAirClient::new(&index, &s8);
        assert_eq!(
            retrieved(&c1, 0, &[3], &mut NoopRecorder).1.tuning,
            retrieved(&c8, 0, &[3], &mut NoopRecorder).1.tuning
        );
    }

    #[test]
    fn filtered_knn_matches_unfiltered_given_inner_knowledge() {
        let (index, schedule) = channel(600, 4);
        let client = OnAirClient::new(&index, &schedule);
        let q = Point::new(32.0, 32.0);
        let k = 8;
        let base = client
            .knn_rec(0, q, k, &mut QueryScratch::new(), &mut NoopRecorder)
            .unwrap();
        // Suppose peers verified everything within radius 6.
        let inner = 6.0;
        let known: Vec<Poi> = scatter(600)
            .into_iter()
            .filter(|p| p.distance_to(q) <= inner)
            .collect();
        let outer = base.neighbors.last().unwrap().distance_to(q) + 1.0;
        let filt = client
            .knn_filtered_rec(
                0,
                q,
                k,
                &known,
                Some(inner),
                Some(outer),
                &mut QueryScratch::new(),
                &mut NoopRecorder,
            )
            .unwrap();
        for (a, b) in base.neighbors.iter().zip(&filt.neighbors) {
            assert!((a.distance_to(q) - b.distance_to(q)).abs() < 1e-9);
        }
        // Filtering must not download more buckets.
        assert!(filt.stats.buckets <= base.stats.buckets);
    }

    /// With an inner bound, `index`'s kNN retrieval skips exactly the
    /// buckets whose MBR lies within the inner circle, and ranks the same
    /// neighbors from what the peers knew. Each backend's test module
    /// runs it on its own index.
    pub(crate) fn assert_filter_drops_fully_verified_buckets<B: AirIndexBackend>(index: &B) {
        let schedule = Schedule::try_new(index.data_buckets(), index.index_buckets(), 2).unwrap();
        let client = OnAirClient::new(index, &schedule);
        let (q, k, inner, outer) = (Point::new(32.0, 32.0), 100, 10.0, Some(20.0));
        let known: Vec<Poi> = (index.buckets().iter().flat_map(|b| &b.pois))
            .filter(|p| p.distance_to(q) <= inner)
            .copied()
            .collect();
        let scratch = &mut QueryScratch::new();
        let (mut cold, mut warm) = (Traced::default(), Traced::default());
        let all = client
            .knn_filtered_rec(0, q, k, &[], None, outer, scratch, &mut cold)
            .unwrap();
        let filt = client
            .knn_filtered_rec(0, q, k, &known, Some(inner), outer, scratch, &mut warm)
            .unwrap();
        assert!(warm.tuned.len() < cold.tuned.len(), "nothing filtered");
        for id in &cold.tuned {
            let within = index.buckets()[*id].mbr.max_distance_to_point(q) <= inner;
            assert_eq!(!warm.tuned.contains(id), within, "bucket {id}");
        }
        let ids = |r: &OnAirKnnResult| r.neighbors.iter().map(|p| p.id).collect::<Vec<_>>();
        assert_eq!(ids(&filt), ids(&all));
        assert_eq!(filt.stats.buckets, warm.tuned.len() as u64);
    }

    #[test]
    fn knn_too_large_returns_none() {
        let (index, schedule) = channel(5, 1);
        let client = OnAirClient::new(&index, &schedule);
        let scratch = &mut QueryScratch::new();
        assert!(client
            .knn_rec(0, Point::ORIGIN, 10, scratch, &mut NoopRecorder)
            .is_none());
    }

    #[test]
    fn verified_mbr_stays_inside_world_for_outside_query() {
        // Regression: a query posed outside the data domain used to fall
        // back to the *unclipped* search square when the intersection was
        // empty, claiming verification over space with no data.
        let (index, schedule) = channel(300, 2);
        let client = OnAirClient::new(&index, &schedule);
        let world = index.grid().world();
        let q = Point::new(-500.0, -500.0); // far outside [0,64]^2
        let res = client
            .knn_rec(0, q, 3, &mut QueryScratch::new(), &mut NoopRecorder)
            .unwrap();
        assert!(
            world.contains_rect(&res.verified_mbr),
            "verified MBR {:?} leaks outside world {:?}",
            res.verified_mbr,
            world
        );
    }

    #[test]
    fn clip_to_world_disjoint_rect_degenerates() {
        let (index, _) = channel(50, 1);
        let r = Rect::from_coords(-20.0, -20.0, -10.0, -10.0);
        let clipped = clip_to_world(r, index.grid().world());
        assert_eq!((clipped.width(), clipped.height()), (0.0, 0.0));
        assert!(index.grid().world().contains_rect(&clipped));
    }

    #[test]
    fn lossless_fault_model_is_transparent() {
        let (index, schedule) = channel(300, 2);
        let plain = OnAirClient::new(&index, &schedule);
        let faults = ChannelFaults::from_loss_prob(99, 0.0, 3);
        let faulty = OnAirClient::with_faults(&index, &schedule, &faults);
        for tune in [0u64, 7, 100] {
            let (p1, s1) = retrieved(&plain, tune, &[0, 2, 5], &mut NoopRecorder);
            let (p2, s2) = retrieved(&faulty, tune, &[0, 2, 5], &mut NoopRecorder);
            assert_eq!(s1, s2);
            assert_eq!(p1.len(), p2.len());
            assert_eq!(s2.retries, 0);
            assert_eq!(s2.lost_buckets, 0);
        }
    }

    #[test]
    fn retries_recover_all_data_at_higher_cost() {
        let (index, schedule) = channel(400, 2);
        let plain = OnAirClient::new(&index, &schedule);
        // 30% loss with a deep retry budget: every bucket eventually
        // arrives, so results match the ideal channel exactly.
        let faults = ChannelFaults::from_loss_prob(7, 0.3, 50);
        let faulty = OnAirClient::with_faults(&index, &schedule, &faults);
        let buckets: Vec<usize> = (0..index.data_buckets()).collect();
        let (p1, s1) = retrieved(&plain, 0, &buckets, &mut NoopRecorder);
        let (p2, s2) = retrieved(&faulty, 0, &buckets, &mut NoopRecorder);
        assert_eq!(s2.lost_buckets, 0);
        assert!(s2.retries > 0, "30% loss over {} buckets", buckets.len());
        assert_eq!(p1.len(), p2.len());
        assert!(s2.latency > s1.latency);
        assert_eq!(s2.tuning, s1.tuning + s2.retries);
        // Deterministic: same seed, same outcome.
        let (_, s3) = retrieved(&faulty, 0, &buckets, &mut NoopRecorder);
        assert_eq!(s2, s3);
    }

    #[test]
    fn exhausted_retry_budget_reports_lost_buckets() {
        let (index, schedule) = channel(200, 1);
        let faults = ChannelFaults::from_loss_prob(1, 1.0, 2);
        let client = OnAirClient::with_faults(&index, &schedule, &faults);
        let (pois, stats) = retrieved(&client, 0, &[0, 1, 2], &mut NoopRecorder);
        assert!(pois.is_empty());
        assert_eq!(stats.lost_buckets, 3);
        assert_eq!(stats.retries, 6); // 2 retries per bucket, all futile
        assert!(stats.is_degraded());
    }

    #[test]
    fn retry_budget_contract_is_pinned_at_zero_one_and_n() {
        // Budget N = up to N re-fetches after the free first appearance.
        // On a fully dead channel every appearance is corrupt, so the
        // counters are exact: N retries + 1 lost bucket per request, and
        // N + 1 FrameLost events apiece.
        let (index, schedule) = channel(200, 1);
        let buckets = [0usize, 1, 2];
        for budget in [0u32, 1, 5] {
            let faults = ChannelFaults::from_loss_prob(1, 1.0, budget);
            let client = OnAirClient::with_faults(&index, &schedule, &faults);
            let mut rec = Traced::default();
            let (pois, stats) = retrieved(&client, 0, &buckets, &mut rec);
            assert!(pois.is_empty());
            assert_eq!(stats.lost_buckets, buckets.len() as u64, "budget {budget}");
            assert_eq!(
                stats.retries,
                u64::from(budget) * buckets.len() as u64,
                "budget {budget}"
            );
            assert_eq!(
                rec.frames_lost,
                u64::from(budget + 1) * buckets.len() as u64,
                "budget {budget}"
            );
            // Each re-fetch costs one extra tuning tick over the
            // lossless base of probe + index + data appearances.
            let base = 1 + schedule.index_buckets() as u64 + buckets.len() as u64;
            assert_eq!(stats.tuning, base + stats.retries, "budget {budget}");

            // A kNN retrieval on the dead channel is one degraded access,
            // not a refusal: it returns what it holds (nothing).
            let mut rec = Traced::default();
            let q = Point::new(32.0, 32.0);
            let res = client
                .knn_filtered_rec(0, q, 3, &[], None, None, &mut QueryScratch::new(), &mut rec)
                .expect("the file holds at least k POIs");
            let stats = res.stats;
            assert!(res.neighbors.is_empty(), "budget {budget}");
            assert!(stats.is_degraded(), "budget {budget}");
            assert_eq!(stats.lost_buckets, stats.buckets, "budget {budget}");
            let frames = stats.retries + stats.lost_buckets;
            assert_eq!(rec.frames_lost, frames, "budget {budget}");
            assert_eq!(rec.metrics.probes_total, 1, "budget {budget}");
        }
    }

    #[test]
    fn traced_retrieval_matches_fault_counters() {
        let (index, schedule) = channel(300, 2);
        let faults = ChannelFaults::from_loss_prob(7, 0.3, 2);
        let client = OnAirClient::with_faults(&index, &schedule, &faults);
        let buckets: Vec<usize> = (0..index.data_buckets()).collect();
        let mut rec = Traced::default();
        let (pois, stats) = retrieved(&client, 0, &buckets, &mut rec);
        let snap = &rec.metrics;
        assert_eq!(snap.probes_total, 1);
        assert_eq!(snap.index_buckets_total, schedule.index_buckets() as u64);
        assert_eq!(
            snap.data_buckets_total,
            buckets.len() as u64 - stats.lost_buckets
        );
        // Every corrupt appearance is one FrameLost, including the final
        // appearance of an abandoned bucket.
        assert_eq!(rec.frames_lost, stats.retries + stats.lost_buckets);
        // Tracing must not perturb the protocol: plain call is identical.
        let (pois2, stats2) = retrieved(&client, 0, &buckets, &mut NoopRecorder);
        assert_eq!(stats, stats2);
        assert_eq!(pois.len(), pois2.len());
    }

    #[test]
    fn reduced_windows_return_union_contents() {
        let (index, schedule) = channel(500, 2);
        let client = OnAirClient::new(&index, &schedule);
        let w1 = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let w2 = Rect::from_coords(40.0, 40.0, 55.0, 50.0);
        let res =
            client.window_reduced_rec(0, &[w1, w2], &mut QueryScratch::new(), &mut NoopRecorder);
        let mut got: Vec<u32> = res.pois.iter().map(|p| p.id).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = scatter(500)
            .into_iter()
            .filter(|p| w1.contains(p.pos) || w2.contains(p.pos))
            .map(|p| p.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
