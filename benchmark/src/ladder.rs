//! The layer ladder: each crate's public functions timed from outside,
//! one rung per layer boundary, against a world a workload left warm.
//!
//! Nothing below touches a line outside `benchmark/`. The inputs are
//! what `Simulation`/`LiveWorld` expose read-only after a run — the POI
//! table, the position column, each host's cache — and everything the
//! engine keeps private (air index, schedule, neighbor grid) is rebuilt
//! here through the same public constructors, which is itself a rung.
//! Sample queries come from the benchmark's own seeded stream.

use crate::span::Tracer;
use crate::spec::MetricSet;
use crate::stats::{median, Timing};
use crate::world::{self, Rng};
use airshare_broadcast::{
    AirIndex, AirIndexBackend, BuildParams, OnAirClient, Poi, PoiCategory, PoiId, PoiTable,
    QueryScratch, Schedule,
};
use airshare_cache::{CacheContext, HostCache};
use airshare_core::{sbnn_rec, sbwq_rec, MergedRegion, SbnnConfig, SbnnOutcome, SbwqConfig};
use airshare_exec::ExecPool;
use airshare_geom::{meters_to_miles, Point, Rect};
use airshare_hilbert::Grid;
use airshare_obs::NoopRecorder;
use airshare_p2p::{gather_peer_data_checked, NeighborGrid, PeerReply, ShareFaults};
use airshare_rtree::RTree;
use airshare_sim::{FleetStore, SimConfig};
use std::hint::black_box;

/// The engine models one POI type.
const CAT: PoiCategory = PoiCategory::GAS_STATION;
/// Sample queries per rung.
const SAMPLES: usize = 256;
/// Successive displaced position columns fed to the grid.
const REFRESHES: usize = 8;
/// Builds timed per structure; the median is reported.
const BUILDS: usize = 3;
/// Serial/parallel batch pairs behind `exec.par_speedup`.
const BATCH_PAIRS: usize = 5;

pub struct Warm<'a> {
    pub cfg: &'a SimConfig,
    pub table: &'a PoiTable,
    pub fleet: &'a FleetStore,
}

/// A window as the engine samples one: `window_pct` of the world by
/// area, centred about `distance_mi` from the host.
fn sample_window(cfg: &SimConfig, world: &Rect, at: Point, rng: &mut Rng) -> Rect {
    let p = &cfg.params;
    let half = (p.window_pct / 100.0).sqrt() * p.world_mi / 2.0;
    let dist = p.distance_mi * (0.5 + rng.unit());
    let theta = rng.unit() * std::f64::consts::TAU;
    let center = world.clamp_point(at.offset(dist * theta.cos(), dist * theta.sin()));
    let w = Rect::centered_square(center, half);
    w.intersection(world).unwrap_or(w)
}

/// One epoch of travel: four hosts in five move 15–45 mph for an epoch
/// in a fresh direction, the rest pause (the vehicular model's duty
/// cycle, near enough); the column is displaced in place.
fn displace(column: &mut [Point], cfg: &SimConfig, world: &Rect, rng: &mut Rng) {
    let per_epoch = cfg.epoch_min * cfg.params.speed_scale;
    for p in column.iter_mut() {
        if rng.unit() < 0.8 {
            let d = (0.25 + 0.5 * rng.unit()) * per_epoch;
            let theta = rng.unit() * std::f64::consts::TAU;
            *p = world.clamp_point(p.offset(d * theta.cos(), d * theta.sin()));
        }
    }
}

fn mean_ns(tracer: &Tracer, name: &str, per_span: usize) -> f64 {
    let d = tracer.durations(name);
    if d.is_empty() {
        0.0
    } else {
        d.iter().sum::<f64>() / (d.len() * per_span.max(1)) as f64
    }
}

pub fn climb(w: &Warm<'_>, seed: u64, tracer: &mut Tracer, out: &mut MetricSet) {
    tracer.span("ladder", |t| climb_inner(w, seed, t, out));
}

fn climb_inner(w: &Warm<'_>, seed: u64, tracer: &mut Tracer, out: &mut MetricSet) {
    let cfg = w.cfg;
    let table = w.table;
    let side = cfg.params.world_mi;
    let world = Rect::from_coords(0.0, 0.0, side, side);
    let range = meters_to_miles(cfg.params.tx_range_m);
    let k = cfg.params.knn_k;
    let positions = w.fleet.positions();
    let online = w.fleet.online();
    let n = positions.len();
    let mut rng = Rng::new(seed ^ 0x1ADD_E200);

    let up: Vec<usize> = (0..n).filter(|&h| online[h]).collect();
    let hosts: Vec<usize> = (0..SAMPLES.min(up.len()))
        .map(|_| up[rng.below(up.len())])
        .collect();
    let windows: Vec<Rect> = hosts
        .iter()
        .map(|&h| sample_window(cfg, &world, positions[h], &mut rng))
        .collect();
    let samples = hosts.len().max(1);

    // --- hilbert: the codec and the window decomposition -------------
    let grid = Grid::new(world, cfg.hilbert_order);
    let curve = grid.curve();
    let cells: Vec<(u32, u32)> = (0..4096)
        .map(|_| {
            (
                rng.below(curve.side() as usize) as u32,
                rng.below(curve.side() as usize) as u32,
            )
        })
        .collect();
    const ENCODE_PASSES: usize = 16;
    tracer.span("hilbert.encode", |_| {
        let mut acc = 0u64;
        for _ in 0..ENCODE_PASSES {
            for &(x, y) in &cells {
                acc ^= curve.encode(black_box(x), black_box(y));
            }
        }
        black_box(acc);
    });
    out.set(
        "hilbert.encode_ns",
        mean_ns(tracer, "hilbert.encode", ENCODE_PASSES * cells.len()),
    );
    let cell_rects: Vec<_> = windows
        .iter()
        .filter_map(|r| grid.cell_rect_for(r))
        .collect();
    let mut intervals = 0usize;
    tracer.span("hilbert.window_decompose", |_| {
        let mut buf = Vec::new();
        for cr in &cell_rects {
            curve.intervals_for_rect_into(black_box(cr), &mut buf);
            intervals += buf.len();
        }
    });
    out.set(
        "hilbert.window_decompose_ns",
        mean_ns(tracer, "hilbert.window_decompose", cell_rects.len()),
    );
    out.set(
        "hilbert.intervals_per_window",
        intervals as f64 / cell_rects.len().max(1) as f64,
    );

    // --- broadcast: index build, bucket planning, the on-air client --
    let build = BuildParams {
        world,
        hilbert_order: cfg.hilbert_order,
        bucket_capacity: cfg.bucket_capacity,
    };
    let mut index = None;
    for _ in 0..BUILDS {
        index = Some(tracer.span("broadcast.index_build", |_| {
            <AirIndex as AirIndexBackend>::try_build(table, &build).expect("capacity checked")
        }));
    }
    let index = index.expect("built above");
    out.set(
        "broadcast.index_build_ms",
        median(&tracer.durations("broadcast.index_build")) / 1e6,
    );
    let schedule = Schedule::try_for_backend(&index, cfg.index_m).expect("index_m checked");
    let client = OnAirClient::new(&index, &schedule);
    let tune_ins: Vec<u64> = hosts
        .iter()
        .map(|_| rng.next_u64() % schedule.cycle_len().max(1))
        .collect();
    let mut scratch = QueryScratch::new();
    let mut planned = 0usize;
    tracer.span("broadcast.plan_knn", |_| {
        for &h in &hosts {
            let q = positions[h];
            if let Some(r) = index.knn_search_radius(q, k) {
                index.buckets_for_knn_scratch(q, r, &mut scratch);
                planned += scratch.buckets().len();
            }
        }
    });
    tracer.span("broadcast.plan_window", |_| {
        for win in &windows {
            index.buckets_for_window_scratch(win, &mut scratch);
            planned += scratch.buckets().len();
        }
    });
    tracer.span("broadcast.onair_knn", |_| {
        for (&h, &t) in hosts.iter().zip(&tune_ins) {
            black_box(client.knn_rec(t, positions[h], k, &mut scratch, &mut NoopRecorder));
        }
    });
    tracer.span("broadcast.onair_window", |_| {
        for (win, &t) in windows.iter().zip(&tune_ins) {
            black_box(client.window_rec(t, win, &mut scratch, &mut NoopRecorder));
        }
    });
    black_box(planned);
    for (metric, span) in [
        ("broadcast.plan_knn_ns", "broadcast.plan_knn"),
        ("broadcast.plan_window_ns", "broadcast.plan_window"),
        ("broadcast.onair_knn_ns", "broadcast.onair_knn"),
        ("broadcast.onair_window_ns", "broadcast.onair_window"),
    ] {
        out.set(metric, mean_ns(tracer, span, samples));
    }

    // --- rtree: the oracle's bulk load and its kNN ------------------
    let mut tree = None;
    for _ in 0..BUILDS {
        tree = Some(tracer.span("rtree.build", |_| {
            RTree::bulk_load(table.iter().map(|p| (p.pos, p.id)).collect())
        }));
    }
    let tree = tree.expect("built above");
    out.set(
        "rtree.build_ms",
        median(&tracer.durations("rtree.build")) / 1e6,
    );
    tracer.span("rtree.knn", |_| {
        for &h in &hosts {
            black_box(tree.knn(positions[h], k));
        }
    });
    out.set("rtree.knn_ns", mean_ns(tracer, "rtree.knn", samples));

    // --- p2p: the neighbor grid, built cold and then read -----------
    let cell = range.max(1e-3);
    let mut fleet_grid = tracer.span("p2p.grid_build", |_| {
        let mut g = NeighborGrid::with_bounds(&world, cell, n);
        g.refresh_active(positions, online);
        g
    });
    out.set(
        "p2p.grid_build_ms",
        mean_ns(tracer, "p2p.grid_build", 1) / 1e6,
    );
    let mut neighbor_lists = Vec::with_capacity(hosts.len());
    tracer.span("p2p.neighbors_within", |_| {
        for &h in &hosts {
            neighbor_lists.push(fleet_grid.neighbors_within(positions[h], range, Some(h)));
        }
    });
    out.set(
        "p2p.neighbors_within_ns",
        mean_ns(tracer, "p2p.neighbors_within", samples),
    );
    out.set(
        "p2p.neighbors_per_lookup",
        neighbor_lists.iter().map(Vec::len).sum::<usize>() as f64 / samples as f64,
    );

    // The gather reads peer caches as a slice indexed by host id, which
    // no public accessor hands out; so the sampled queriers and every
    // neighbor they can reach are re-numbered into a small world of
    // their own, caches cloned out one by one, outside any span.
    let mut members: Vec<usize> = hosts
        .iter()
        .copied()
        .chain(neighbor_lists.iter().flatten().copied())
        .collect();
    members.sort_unstable();
    members.dedup();
    let local = |h: usize| members.binary_search(&h).expect("member by construction");
    let caches: Vec<HostCache> = members.iter().map(|&h| w.fleet.cache(h).clone()).collect();
    let local_grid = NeighborGrid::build(members.iter().map(|&h| positions[h]).collect(), cell);

    // --- per query: gather -> MVR -> SBNN / SBWQ --------------------
    let sbnn_cfg = SbnnConfig {
        k,
        accept_approx: cfg.accept_approx,
        min_correctness: cfg.min_correctness,
        lambda: cfg.params.poi_density(),
        use_bound_filtering: cfg.use_bound_filtering,
        vr_policy: cfg.vr_policy,
        domain: cfg.clip_domain.then_some(world),
    };
    let sbwq_cfg = SbwqConfig {
        use_window_reduction: cfg.use_window_reduction,
    };
    let dyn_client = client.as_dyn();
    let mut adoptable: Vec<(usize, Rect, Vec<PoiId>)> = Vec::new();
    for (i, &h) in hosts.iter().enumerate() {
        let (q, lh, tune_in) = (positions[h], local(h), tune_ins[i]);
        tracer.span("ladder.query", |t| {
            let (mut replies, _) = t.span("p2p.gather", |_| {
                gather_peer_data_checked(
                    lh,
                    q,
                    range,
                    CAT,
                    &local_grid,
                    &caches,
                    table,
                    Some(&world),
                    ShareFaults::default(),
                )
            });
            // The engine merges the querier's own cache after its
            // peers' replies; here it rides along as one more reply.
            replies.push(PeerReply {
                peer: lh,
                regions: caches[lh]
                    .share_regions(CAT)
                    .map(|(vr, ids)| (vr, ids.to_vec()))
                    .collect(),
            });
            let mvr = t.span("core.mvr_build", |_| {
                MergedRegion::from_replies(&replies, table)
            });
            let air = Some((&dyn_client, tune_in));
            let knn = t.span("core.sbnn", |_| {
                sbnn_rec(q, &sbnn_cfg, &mvr, air, &mut scratch, &mut NoopRecorder)
            });
            if let SbnnOutcome::Resolved(res) = knn {
                if let Some((vr, pois)) = res.adoptable {
                    adoptable.push((lh, vr, pois.iter().map(Poi::handle).collect()));
                }
            }
            black_box(t.span("core.sbwq", |_| {
                sbwq_rec(
                    &windows[i],
                    &sbwq_cfg,
                    &mvr,
                    air,
                    &mut scratch,
                    &mut NoopRecorder,
                )
            }));
        });
    }
    for (metric, span) in [
        ("p2p.gather_ns", "p2p.gather"),
        ("core.mvr_build_ns", "core.mvr_build"),
        ("core.sbnn_ns", "core.sbnn"),
        ("core.sbwq_ns", "core.sbwq"),
    ] {
        out.set(metric, mean_ns(tracer, span, 1));
    }

    // --- cache: admit a region, snapshot a cache, share one ---------
    for (lh, vr, ids) in &adoptable {
        let mut cache = caches[*lh].clone();
        let ctx = CacheContext {
            pos: local_grid.position(*lh),
            heading: None,
            now: cfg.total_min(),
        };
        tracer.span("cache.insert", |_| {
            black_box(cache.insert_ids(table, CAT, *vr, ids, ctx.now, &ctx));
        });
    }
    out.set("cache.insert_ns", mean_ns(tracer, "cache.insert", 1));
    let mut snapshot = caches.clone();
    tracer.span("cache.snapshot_clone", |_| {
        for (dst, src) in snapshot.iter_mut().zip(&caches) {
            dst.clone_from(src);
        }
    });
    out.set(
        "cache.snapshot_clone_ns",
        mean_ns(tracer, "cache.snapshot_clone", caches.len()),
    );
    let mut shared = 0usize;
    tracer.span("cache.share", |_| {
        for c in &caches {
            for (vr, ids) in c.share_regions(CAT) {
                shared += ids.len() + vr.is_degenerate() as usize;
            }
        }
    });
    black_box(shared);
    out.set(
        "cache.share_ns",
        mean_ns(tracer, "cache.share", caches.len()),
    );
    out.set(
        "cache.regions_per_host",
        (0..n)
            .map(|h| w.fleet.cache(h).region_count(CAT))
            .sum::<usize>() as f64
            / n.max(1) as f64,
    );

    // --- p2p: the grid kept up to date, epoch after epoch -----------
    let mut column = positions.to_vec();
    for _ in 0..REFRESHES {
        displace(&mut column, cfg, &world, &mut rng);
        tracer.span("p2p.grid_refresh", |_| {
            fleet_grid.refresh_active(&column, online)
        });
    }
    let refresh_ms: Vec<f64> = tracer
        .durations("p2p.grid_refresh")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    out.set("p2p.grid_refresh_ms_p50", median(&refresh_ms));
    out.set("p2p.grid_refresh_ms_p99", Timing::p99_of(&refresh_ms));
    out.set(
        "p2p.grid_refresh_ns_per_host",
        median(&refresh_ms) * 1e6 / n.max(1) as f64,
    );

    // --- exec: what a dispatch costs, what a second core buys -------
    let threads = world::threads();
    let pool = ExecPool::fixed(threads);
    let mut ctxs = vec![(); threads];
    for _ in 0..200 {
        tracer.span("exec.dispatch", |_| {
            pool.map_with(&mut ctxs, vec![(); 4 * threads], |_, _, _| ());
        });
    }
    out.set(
        "exec.dispatch_us",
        median(&tracer.durations("exec.dispatch")) / 1e3,
    );
    let spin = |_: usize, rounds: u64| {
        (0..rounds).fold(0x9E37_79B9u64, |a, i| {
            (a ^ i).wrapping_mul(0x0100_0000_01B3)
        })
    };
    let batch = || vec![black_box(200_000u64); 64];
    // A core that sat idle through the single-threaded rungs above
    // can take a batch to come back; the median of a few pairs does not
    // care.
    for _ in 0..BATCH_PAIRS {
        tracer.span("exec.serial_batch", |_| {
            black_box(ExecPool::fixed(1).map(batch(), spin));
        });
        tracer.span("exec.parallel_batch", |_| {
            black_box(pool.map(batch(), spin));
        });
    }
    out.set(
        "exec.par_speedup",
        median(&tracer.durations("exec.serial_batch"))
            / median(&tracer.durations("exec.parallel_batch")),
    );
}
