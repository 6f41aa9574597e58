//! The worlds the five workloads run in, as a function of the seed.
//!
//! All share the LA-City parameter set (the paper's densest region),
//! `cache_size 30`, `hilbert_order 8`, the Hilbert backend, inert
//! faults and churn, and `validate` off in timed runs. Every timed run
//! starts cold and counts every query (`warmup_min = 0`): the wall it
//! is divided by pays for all of them.

use airshare_sim::{params, ParamSet, QueryKind, SimConfig};

/// Worker threads for every pool the benchmark sizes itself.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn timed(params: ParamSet, kind: QueryKind, seed: u64, minutes: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_defaults(params, kind, seed);
    cfg.warmup_min = 0.0;
    cfg.measure_min = minutes;
    cfg.validate = false;
    cfg.hilbert_order = 8;
    cfg
}

fn la_scaled(area_factor: f64) -> ParamSet {
    ParamSet {
        cache_size: 30,
        ..params::la_city().scaled(area_factor)
    }
}

/// `city_knn` / `city_window` / `serve_closed`: a fifth of LA City by
/// area — 18,660 hosts, 550 POIs.
pub fn city(kind: QueryKind, seed: u64, minutes: f64) -> SimConfig {
    timed(la_scaled(0.2), kind, seed, minutes)
}

/// `fleet_sparse`: LA densities with the area stretched to hold `hosts`
/// hosts, and a light query load (0.2% of the fleet per minute) — the
/// recipe of `exp_million`, restated here so the benchmark owns its
/// inputs.
pub fn fleet(hosts: usize, seed: u64, minutes: f64) -> SimConfig {
    let base = params::la_city();
    let area = hosts as f64 / base.mh_density();
    let p = ParamSet {
        name: "LA densities, fleet-scale",
        poi_number: (base.poi_density() * area).round() as usize,
        mh_number: hosts,
        cache_size: 30,
        query_rate: hosts as f64 * 0.002,
        world_mi: area.sqrt(),
        ..base
    };
    timed(p, QueryKind::Knn, seed, minutes)
}

/// `serve_city`: a twentieth of LA City — 4,665 hosts, 138 POIs, kNN.
pub fn serve(seed: u64, minutes: f64) -> SimConfig {
    timed(la_scaled(0.05), QueryKind::Knn, seed, minutes)
}

/// SplitMix64: the benchmark's own seeded stream for the inputs it
/// generates itself (sample queries, position displacements, session
/// walks). The programs under test never see it, only its outputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}
