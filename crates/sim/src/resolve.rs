//! The query path: how the base station's world answers one query.
//!
//! Every query either client fleet submits — the closed-loop
//! [`crate::Simulation`] or the serving layer — is resolved here, by
//! [`LiveWorld`] methods run on the pool inside `execute_batch`'s
//! dispatch. A worker borrows the whole world read-only and the querying
//! host's [`LiveTask`] mutably: P2P gather against the epoch-start cache
//! column and grid, SBNN (Algorithm 2) or SBWQ with its channel fallback,
//! then one accounting tail shared by both query kinds, the chaos oracle
//! last. Outcomes land in the worker's [`BatchSink`] and are folded into
//! the report at the barrier, in nonce order, by [`fold_outcome`].

use crate::live::{LiveQuery, LiveWorld};
use crate::SimReport;
use airshare_broadcast::{OnAirClient, Poi, PoiCategory, PoiId, QueryScratch};
use airshare_cache::{CacheContext, HostCache, InsertOutcome, QuarantineLedger};
use airshare_core::{
    sbnn_rec, sbwq_rec, MergedRegion, NnCandidate, ResolvedBy, SbnnConfig, SbnnOutcome, SbwqConfig,
    SbwqOutcome,
};
use airshare_geom::Rect;
use airshare_obs::{
    AccessStats, AnswerQuality, CacheRejectReason, Recorder, ResolutionKind, ShareStats, TraceEvent,
};
use airshare_p2p::ShareFaults;
use std::ops::Range;

/// The single POI category the paper's experiments use (gas stations).
const CAT: PoiCategory = PoiCategory::GAS_STATION;

/// What one query asks — decoupled from the run-level `QueryKind`
/// knob so recorded traffic can replay its sampled windows verbatim and
/// the live service (`airshare-serve`) can mix query kinds per request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuerySpec {
    /// The `k` nearest neighbors around the querying position.
    Knn {
        /// Neighbors requested.
        k: usize,
    },
    /// All POIs inside a rectangle.
    Window {
        /// The query window.
        rect: Rect,
    },
}

/// One query's answer as a client receives it: the POI id set plus the
/// answer's quality grade. Produced for every query — warm-up included —
/// so a replay can check parity over the whole workload.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryAnswer {
    /// The query's global nonce (the simulator's event index, or the
    /// service's admission ticket).
    pub nonce: u64,
    /// The querying host.
    pub host: u32,
    /// Result POI ids, in resolution order.
    pub ids: Vec<u32>,
    /// Quality grade of the answer.
    pub quality: AnswerQuality,
}

/// One host's slice of an epoch batch: its session state, moved out of
/// the fleet's columns and updated in place by its queries, plus where
/// those queries sit in the batch.
pub(crate) struct LiveTask {
    pub(crate) host: usize,
    pub(crate) cache: HostCache,
    /// Simulated minute of the last successful channel access (or of
    /// coming online). Bounds the staleness of outage-served answers.
    pub(crate) last_sync_min: f64,
    /// The host answered queries without the channel (outage) or just
    /// came online; its next successful access counts as a resync.
    pub(crate) needs_resync: bool,
    pub(crate) quarantine: QuarantineLedger,
    /// Resync transitions this batch performed (warm-up included).
    pub(crate) resyncs: u64,
    /// This host's queries, nonce-ordered, as a range of the batch.
    pub(crate) queries: Range<usize>,
}

/// What one worker's tasks produced in a batch, kept in the worker's
/// [`QueryScratch`] (so its buffers outlive the batch) and drained at
/// the barrier.
#[derive(Default)]
pub(crate) struct BatchSink {
    pub(crate) outcomes: Vec<(u64, QueryOutcome)>,
    /// One per query when the batch wants answers, else empty.
    pub(crate) answers: Vec<QueryAnswer>,
}

/// Everything one measured query contributes to the report. Buffered
/// shard-locally and folded in global event order at the epoch barrier,
/// so float and counter accumulation order is independent of scheduling.
pub(crate) struct QueryOutcome {
    share: ShareStats,
    /// The answer's quality tier: `Exact`, `Degraded` (lossy retrieval),
    /// `Stale` or `Failed` (outage-served).
    quality: AnswerQuality,
    /// Staleness bound in minutes, for `Stale` answers.
    stale_age_min: f64,
    /// The answer broke its declared bound under the chaos oracle
    /// (validate runs only; must never happen).
    bound_violation: bool,
    resolution: ResolutionKind,
    air: Option<AccessStats>,
    /// On-air baseline `(latency, tuning)` for the same query.
    baseline: Option<(u64, u64)>,
    filter_saved: u64,
    /// MVR coverage, for window queries that needed the channel.
    window_coverage: Option<f64>,
    /// Lemma 3.2 calibration sample, for validated approximate answers.
    calibration: Option<(f64, bool)>,
    mismatch: bool,
}

impl QueryOutcome {
    /// An out-of-range query's contribution: a `Failed` answer that
    /// contacted no peer, used no channel and no series counts as
    /// resolved.
    fn unanswerable() -> Self {
        QueryOutcome {
            share: ShareStats::default(),
            quality: AnswerQuality::Failed,
            stale_age_min: 0.0,
            bound_violation: false,
            resolution: ResolutionKind::Unresolved,
            air: None,
            baseline: None,
            filter_saved: 0,
            window_coverage: None,
            calibration: None,
            mismatch: false,
        }
    }
}

/// One query's answer set as resolution found it. kNN candidates keep
/// their distances for the oracle.
enum Found {
    Neighbors(Vec<NnCandidate>),
    Pois(Vec<Poi>),
}

impl Found {
    /// Hands the answer's vector back to the pool it was drawn from.
    fn recycle(self, scratch: &mut QueryScratch) {
        match self {
            Found::Neighbors(v) => scratch.recycle(v),
            Found::Pois(v) => scratch.recycle(v),
        }
    }
}

/// What one [`QuerySpec`] arm of `process_query` resolved: all its
/// shared tail accounts for.
struct Resolved {
    found: Found,
    quality: AnswerQuality,
    resolution: ResolutionKind,
    air: Option<AccessStats>,
    /// MVR coverage, for window queries that needed the channel.
    window_coverage: Option<f64>,
    /// An approximate kNN answer's least predicted correctness among its
    /// unverified neighbors: the Lemma 3.2 calibration input.
    min_correctness: Option<f64>,
}

impl LiveWorld {
    /// Resolves one query of `task`'s host against the current epoch's
    /// committed world. Returns its contribution to the report, or
    /// `None` during warm-up (cache effects still apply).
    ///
    /// The query's inputs — position, heading, and the fully-sampled
    /// [`QuerySpec`] — are supplied by the client fleet (derived from
    /// mobility in the simulator, submitted over the wire in the serving
    /// layer). When `answer` is set, the answer's POI ids and
    /// [`AnswerQuality`] are always filled in, warm-up or not: the
    /// service answers every query, while the report only counts
    /// measured ones.
    ///
    /// Each [`QuerySpec`] arm only resolves (SBNN or SBWQ, then `settle`
    /// or `outage_served`); one tail then accounts, in order: LRU touch,
    /// answer, warm-up cut, `QueryQuality` trace, outcome, on-air
    /// baseline, chaos oracle.
    pub(crate) fn process_query(
        &self,
        item: &LiveQuery,
        task: &mut LiveTask,
        scratch: &mut QueryScratch,
        rec: &mut dyn Recorder,
        answer: Option<&mut QueryAnswer>,
    ) -> Option<QueryOutcome> {
        let cfg = &self.cfg;
        let &LiveQuery {
            nonce,
            host,
            at_min: t,
            pos: qpos,
            ref spec,
            ..
        } = item;
        let measuring = t >= cfg.warmup_min;
        let tune_in = (t * cfg.ticks_per_min as f64) as u64;
        rec.begin_query(nonce, tune_in);
        // A kNN query for no neighbor, or for more than the world holds,
        // has no answer: SBNN's heap holds at least one candidate, and
        // past the POI count even a live channel leaves it unresolved.
        // It is graded `Failed`, with no ids, before any peer, cache,
        // sync clock or resync flag is touched.
        if let QuerySpec::Knn { k } = *spec {
            if !(1..=self.table.len()).contains(&k) {
                return measuring.then(|| {
                    rec.record(TraceEvent::QueryQuality {
                        quality: AnswerQuality::Failed,
                    });
                    QueryOutcome::unanswerable()
                });
            }
        }
        let share_faults = ShareFaults {
            faults: self.faults.as_ref(),
            drop_prob: cfg.faults.peer_drop_prob,
            malform_prob: cfg.faults.peer_malform_prob,
            nonce,
        };
        // Base-station outage: membership is decided on the *epoch
        // number* — the same integer arithmetic that groups events —
        // so the sequential and parallel engines can never disagree on
        // a float edge.
        let silent = self.outage.is_silent(self.epoch);
        if silent {
            rec.record(TraceEvent::OutageBlocked { tick: tune_in });
        }

        // --- P2P gather against the epoch snapshot: peer positions from
        // the epoch-start grid, peer caches from the epoch-start commit
        // (a peer without a cache slot shows the empty template).
        // The ε-staleness is bounded by the epoch length and is the price
        // of a racefree shard; replies still pass through drop decisions
        // (fault layer) and region validation, so a flaky or inconsistent
        // peer costs coverage, never correctness. ---
        // The merged region is rebuilt in the worker's retained buffers,
        // and the replies land in the scratch's arena.
        let mut mvr = std::mem::take(scratch.retained::<MergedRegion>());
        let guard = Some((&mut task.quarantine, self.epoch));
        let (replies, share) = airshare_p2p::share_exchange(
            host,
            qpos,
            self.range,
            cfg.p2p_hops,
            CAT,
            &self.grid,
            &self.fleet,
            &self.table,
            Some(&self.bounds),
            share_faults,
            guard,
            scratch,
            rec,
        );
        if cfg.use_own_cache {
            // Own reads are live — a host always trusts its freshest self.
            let own_regions = task.cache.region_count(CAT);
            if own_regions > 0 {
                rec.record(TraceEvent::CacheHit {
                    regions: own_regions as u32,
                });
            }
        }
        // Merge: peer regions first (reply order, resolved while their
        // claims were checked), then the querier's own cache, resolved
        // here against the canonical table.
        let own = cfg
            .use_own_cache
            .then(|| task.cache.share_regions(CAT))
            .into_iter()
            .flatten();
        mvr.refill(replies, &self.table, own);

        let client = match &self.faults {
            Some(f) => OnAirClient::with_faults(self.index.as_ref(), &self.schedule, f),
            None => OnAirClient::new(self.index.as_ref(), &self.schedule),
        };
        let channel = (!silent).then_some((&client, tune_in));

        let r = match *spec {
            QuerySpec::Knn { k } => {
                let sbnn_cfg = SbnnConfig {
                    k,
                    accept_approx: cfg.accept_approx,
                    min_correctness: cfg.min_correctness,
                    lambda: cfg.params.poi_density(),
                    use_bound_filtering: cfg.use_bound_filtering,
                    vr_policy: cfg.vr_policy,
                    domain: cfg.clip_domain.then_some(self.bounds),
                };
                match sbnn_rec(qpos, &sbnn_cfg, &mvr, channel, scratch, rec) {
                    SbnnOutcome::Resolved(res) => {
                        let adopt = res.adoptable.as_ref().map(|(vr, p)| (*vr, p.as_slice()));
                        let quality = self.settle(task, item, res.air, adopt, scratch, rec);
                        if let Some((_, pois)) = res.adoptable {
                            scratch.recycle(pois);
                        }
                        let min_correctness = (res.resolved_by == ResolvedBy::PeersApproximate)
                            .then(|| {
                                (res.neighbors.iter())
                                    .filter(|n| !n.verified)
                                    .filter_map(|n| n.correctness)
                                    .fold(1.0_f64, f64::min)
                            });
                        Resolved {
                            found: Found::Neighbors(res.neighbors),
                            quality,
                            resolution: res.resolved_by.into(),
                            air: res.air,
                            window_coverage: None,
                            min_correctness,
                        }
                    }
                    SbnnOutcome::Unresolved(heap) => {
                        // Outage: no channel fallback. Serve whatever the
                        // merged peer/cache knowledge held, tagged Stale
                        // (or Failed when it held nothing).
                        let quality = if heap.is_empty() {
                            AnswerQuality::Failed
                        } else {
                            AnswerQuality::Stale
                        };
                        self.outage_served(task, Found::Neighbors(heap.into_entries()), quality)
                    }
                }
            }
            QuerySpec::Window { rect } => {
                let sbwq_cfg = SbwqConfig {
                    use_window_reduction: cfg.use_window_reduction,
                };
                match sbwq_rec(&rect, &sbwq_cfg, &mvr, channel, scratch, rec) {
                    SbwqOutcome::Resolved(res) => {
                        // A resolved window is fully known: its own
                        // verified region.
                        let adopt = Some((rect, res.pois.as_slice()));
                        let quality = self.settle(task, item, res.air, adopt, scratch, rec);
                        scratch.recycle(res.reduced_windows);
                        let window_coverage =
                            (res.resolved_by == ResolvedBy::Broadcast).then_some(res.coverage);
                        Resolved {
                            found: Found::Pois(res.pois),
                            quality,
                            resolution: res.resolved_by.into(),
                            air: res.air,
                            window_coverage,
                            min_correctness: None,
                        }
                    }
                    SbwqOutcome::Unresolved { partial, missing } => {
                        // Outage: answer from the covered sub-windows only.
                        // The answer is a *subset* of the truth: Stale when
                        // peers covered part of the window, Failed when the
                        // whole window is missing.
                        let quality = if missing[..] == [rect] {
                            AnswerQuality::Failed
                        } else {
                            AnswerQuality::Stale
                        };
                        scratch.recycle(missing);
                        self.outage_served(task, Found::Pois(partial), quality)
                    }
                }
            }
        };

        // --- Accounting: one tail for every arm. ---
        let area = match *spec {
            QuerySpec::Knn { .. } => Rect::centered_square(qpos, self.range),
            QuerySpec::Window { rect } => rect,
        };
        task.cache.touch(CAT, &area, t);
        let quality = r.quality;
        if let Some(a) = answer {
            a.ids = match &r.found {
                Found::Neighbors(found) => found.iter().map(|c| c.poi.id).collect(),
                Found::Pois(found) => found.iter().map(|p| p.id).collect(),
            };
            a.quality = quality;
        }
        if !measuring {
            r.found.recycle(scratch);
            *scratch.retained::<MergedRegion>() = mvr;
            return None;
        }
        rec.record(TraceEvent::QueryQuality { quality });
        let mut out = QueryOutcome {
            share,
            quality,
            stale_age_min: match quality {
                AnswerQuality::Stale | AnswerQuality::Failed => (t - task.last_sync_min).max(0.0),
                _ => 0.0,
            },
            bound_violation: false,
            resolution: r.resolution,
            air: r.air,
            baseline: None,
            filter_saved: 0,
            window_coverage: r.window_coverage,
            calibration: None,
            mismatch: false,
        };
        // What the pure on-air algorithm would have paid (not defined
        // during an outage — the baseline host faces the same silent
        // channel). Bound filtering (§3.3.3) saves kNN buckets only.
        let base = match *spec {
            _ if silent => None,
            QuerySpec::Knn { k } => client.knn_cost(tune_in, qpos, k, scratch),
            QuerySpec::Window { rect } => Some(client.window_cost(tune_in, &rect, scratch)),
        };
        if let Some(base) = base {
            out.baseline = Some((base.latency, base.tuning));
            if let (QuerySpec::Knn { .. }, Some(air)) = (spec, r.air) {
                debug_assert!(
                    air.buckets <= base.buckets,
                    "bound filtering fetched more than a cold query"
                );
                out.filter_saved = base.buckets.saturating_sub(air.buckets);
            }
        }
        if cfg.validate {
            let exact = quality == AnswerQuality::Exact;
            let holds = match &r.found {
                Found::Neighbors(found) => {
                    let truth = self.oracle.knn(qpos, found.len());
                    let ranks = found.iter().zip(&truth);
                    knn_holds(exact, ranks.map(|(a, b)| (a.distance, b.distance)))
                }
                Found::Pois(found) => {
                    let mut got: Vec<u32> = found.iter().map(|p| p.id).collect();
                    let window = self.oracle.window(&area);
                    let mut truth: Vec<u32> = window.into_iter().map(|(_, &id)| id).collect();
                    got.sort_unstable();
                    truth.sort_unstable();
                    window_holds(exact, &got, &truth)
                }
            };
            match r.min_correctness {
                Some(min_c) => out.calibration = Some((min_c, holds)),
                None if exact => out.mismatch = !holds,
                None => {
                    out.bound_violation = !holds;
                    debug_assert!(holds, "{quality:?} answer left ground truth at t={t}");
                }
            }
        }
        r.found.recycle(scratch);
        *scratch.retained::<MergedRegion>() = mvr;
        Some(out)
    }

    /// Settles a resolved query with the host. A channel access
    /// refreshes its sync clock, recording a resync if it was answering
    /// through an outage or restart. The answer's verified region, if
    /// any, is cached — unless retrieval lost buckets: a degraded answer
    /// may be missing POIs, and adopting its region would cache an
    /// incomplete "verified" claim and poison every peer it is later
    /// shared with. Returns the answer's grade. The region's handles are
    /// collected in a vector from `scratch`'s pool.
    fn settle(
        &self,
        task: &mut LiveTask,
        item: &LiveQuery,
        air: Option<AccessStats>,
        adopt: Option<(Rect, &[Poi])>,
        scratch: &mut QueryScratch,
        rec: &mut dyn Recorder,
    ) -> AnswerQuality {
        if air.is_some() {
            task.last_sync_min = item.at_min;
            if std::mem::take(&mut task.needs_resync) {
                task.resyncs += 1;
                rec.record(TraceEvent::Resynced {
                    host: item.host as u32,
                });
            }
        }
        if air.is_some_and(|a| a.is_degraded()) {
            return AnswerQuality::Degraded;
        }
        if let Some((vr, pois)) = adopt {
            let mut ids: Vec<PoiId> = scratch.take_vec();
            ids.extend(pois.iter().map(Poi::handle));
            let ctx = CacheContext {
                pos: item.pos,
                heading: item.heading,
                now: item.at_min,
            };
            let reason = match task
                .cache
                .insert_ids(&self.table, CAT, vr, &ids, item.at_min, &ctx)
            {
                InsertOutcome::Stored => None,
                InsertOutcome::RejectedInconsistent => Some(CacheRejectReason::Inconsistent),
                InsertOutcome::RejectedNoCapacity => Some(CacheRejectReason::NoCapacity),
            };
            if let Some(reason) = reason {
                rec.record(TraceEvent::CacheRejected { reason });
            }
            scratch.recycle(ids);
        }
        AnswerQuality::Exact
    }

    /// An answer served off peer and cache knowledge alone, through an
    /// outage: the host owes a resync. It is `Unresolved`, whatever its
    /// grade: no `by_*` series of the report counts it.
    fn outage_served(&self, task: &mut LiveTask, found: Found, quality: AnswerQuality) -> Resolved {
        debug_assert!(
            self.outage.is_silent(self.epoch),
            "unresolved on a live channel"
        );
        task.needs_resync = true;
        Resolved {
            found,
            quality,
            resolution: ResolutionKind::Unresolved,
            air: None,
            window_coverage: None,
            min_correctness: None,
        }
    }
}

/// The chaos oracle's kNN check over `(answer, truth)` distances, rank
/// by rank ascending. An `Exact` answer equals the truth within 1e-9.
/// Any other grade can only have *missed* POIs (lost buckets, or peer
/// knowledge alone), so no distance of it may beat the true one.
fn knn_holds(exact: bool, mut ranks: impl Iterator<Item = (f64, f64)>) -> bool {
    if exact {
        ranks.all(|(a, b)| (a - b).abs() < 1e-9)
    } else {
        !ranks.any(|(a, b)| a + 1e-9 < b)
    }
}

/// The chaos oracle's window check, on sorted ids. An `Exact` answer
/// equals the truth; any other grade can only have dropped POIs, so it
/// must be a subset.
fn window_holds(exact: bool, got: &[u32], truth: &[u32]) -> bool {
    if exact {
        got == truth
    } else {
        got.iter().all(|id| truth.binary_search(id).is_ok())
    }
}

/// Cap on recorded (predicted correctness, was-correct) samples for
/// approximate answers.
const CALIBRATION_CAP: usize = 100_000;

/// Folds one measured query into the report. Called in global event
/// order regardless of thread count.
pub(crate) fn fold_outcome(report: &mut SimReport, o: QueryOutcome) {
    report.queries.total += 1;
    report.record_share(&o.share);
    if o.quality == AnswerQuality::Degraded {
        report.faults.queries_degraded += 1;
    }
    report.record_quality(o.quality, o.stale_age_min);
    if o.bound_violation {
        report.bound_violations += 1;
    }
    match o.resolution {
        ResolutionKind::PeersVerified => report.queries.by_peers += 1,
        ResolutionKind::PeersApproximate => report.queries.by_approx += 1,
        ResolutionKind::Broadcast => report.queries.by_broadcast += 1,
        ResolutionKind::Unresolved => {}
    }
    if let Some(air) = o.air {
        report.record_air(air);
    }
    if let Some((latency, tuning)) = o.baseline {
        report.baseline_latency.record(latency);
        report.baseline_tuning.record(tuning);
    }
    report.filter_saved_buckets += o.filter_saved;
    if let Some(cov) = o.window_coverage {
        report.partial_coverage_sum += cov;
        report.partial_coverage_count += 1;
    }
    if o.mismatch {
        report.exact_mismatches += 1;
    }
    if let Some(sample) = o.calibration {
        if report.calibration.len() < CALIBRATION_CAP {
            report.calibration.push(sample);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_oracle_checks_exactness_and_the_bound() {
        let truth = [1.0, 2.0, 3.0];
        let holds = |exact: bool, got: &[f64]| knn_holds(exact, got.iter().copied().zip(truth));
        // Exact: every rank equal within 1e-9, in either direction.
        assert!(holds(true, &[1.0, 2.0 + 1e-12, 3.0]));
        assert!(!holds(true, &[1.0, 2.5, 3.0]), "farther at a rank");
        assert!(!holds(true, &[1.0, 2.0, 2.9]), "closer at a rank");
        // Any other grade may only have missed POIs: farther stays in
        // the bound, closer than the truth at any rank breaks it.
        assert!(holds(false, &truth));
        assert!(holds(false, &[1.0, 2.5, 4.0]));
        assert!(holds(false, &[]));
        assert!(!holds(false, &[1.0, 1.5, 4.0]));
    }

    #[test]
    fn window_oracle_checks_exactness_and_the_bound() {
        let truth = [2, 5, 9];
        // Exact: the very set, no id missing and none extra.
        assert!(window_holds(true, &[2, 5, 9], &truth));
        assert!(!window_holds(true, &[2, 9], &truth), "missing id");
        assert!(!window_holds(true, &[2, 5, 7, 9], &truth), "extra id");
        // Any other grade may only have dropped POIs: a subset holds,
        // an id outside the truth breaks the bound.
        assert!(window_holds(false, &[], &truth));
        assert!(window_holds(false, &[2, 9], &truth));
        assert!(!window_holds(false, &[2, 7], &truth));
    }
}
