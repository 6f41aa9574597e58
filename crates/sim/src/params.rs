//! The paper's Table 3 parameter sets.

/// One column of Table 3: the workload and environment parameters for a
/// geographic region.
///
/// Units follow the paper: counts are absolute for a
/// `world_mi × world_mi` area, the query rate is aggregate queries per
/// minute, the transmission range is in meters, the window size in
/// percent of the search space, and the execution time in hours.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParamSet {
    /// Human-readable name.
    pub name: &'static str,
    /// `POINumber`: POIs in the system.
    pub poi_number: usize,
    /// `MHNumber`: mobile hosts in the simulation area.
    pub mh_number: usize,
    /// `CSize`: cache capacity (POIs) per data type per host.
    pub cache_size: usize,
    /// `Query`: mean queries per minute (aggregate).
    pub query_rate: f64,
    /// `TxRange`: wireless transmission range in meters.
    pub tx_range_m: f64,
    /// `kNN`: number of queried nearest neighbors.
    pub knn_k: usize,
    /// `Window`: query-window size as a percentage of the search space.
    pub window_pct: f64,
    /// `Distance`: mean distance (miles) between a querying host and the
    /// centre of its query window.
    pub distance_mi: f64,
    /// `Texecution`: simulation length in hours.
    pub t_execution_hr: f64,
    /// Side of the (square) simulation area in miles.
    pub world_mi: f64,
    /// Host speed multiplier applied by [`ParamSet::scaled`] so that the
    /// distance a host covers between two of its queries scales with the
    /// world side — without it, scaled-down worlds suffer cache
    /// staleness the paper's configuration never sees (1.0 at full
    /// scale).
    pub speed_scale: f64,
}

impl ParamSet {
    /// POI density per square mile.
    pub fn poi_density(&self) -> f64 {
        self.poi_number as f64 / (self.world_mi * self.world_mi)
    }

    /// Mobile-host density per square mile.
    pub fn mh_density(&self) -> f64 {
        self.mh_number as f64 / (self.world_mi * self.world_mi)
    }

    /// Scales the simulation region by an **area** factor while keeping
    /// every density (hosts/mi², POIs/mi², queries/min/host) fixed.
    ///
    /// Because the sharing mechanism is single-hop — a query sees only
    /// the peers within a couple hundred meters — per-query statistics
    /// depend on local densities, not on the absolute region size, so a
    /// scaled run reproduces the paper's fractions. EXPERIMENTS.md
    /// records scaled-vs-full comparisons.
    pub fn scaled(&self, area_factor: f64) -> ParamSet {
        assert!(area_factor > 0.0 && area_factor <= 1.0);
        let f = area_factor;
        ParamSet {
            name: self.name,
            poi_number: ((self.poi_number as f64 * f).round() as usize).max(20),
            mh_number: ((self.mh_number as f64 * f).round() as usize).max(10),
            query_rate: (self.query_rate * f).max(1.0),
            world_mi: self.world_mi * f.sqrt(),
            // The window workload and host kinematics are proportioned
            // to the world (window area, centre distance, and travel per
            // unit time all scale with the region side), so the coverage
            // geometry of the figures survives scaling.
            distance_mi: self.distance_mi * f.sqrt(),
            speed_scale: self.speed_scale * f.sqrt(),
            ..*self
        }
    }
}

/// Table 3, column 1: a very dense urban area.
pub fn la_city() -> ParamSet {
    ParamSet {
        name: "LA City",
        poi_number: 2750,
        mh_number: 93_300,
        cache_size: 50,
        query_rate: 6220.0,
        tx_range_m: 200.0,
        knn_k: 5,
        window_pct: 3.0,
        distance_mi: 1.0,
        t_execution_hr: 10.0,
        world_mi: 20.0,
        speed_scale: 1.0,
    }
}

/// Table 3, column 2: a low-density, more rural area.
pub fn riverside_county() -> ParamSet {
    ParamSet {
        name: "Riverside County",
        poi_number: 1450,
        mh_number: 9_700,
        cache_size: 50,
        query_rate: 650.0,
        tx_range_m: 200.0,
        knn_k: 5,
        window_pct: 3.0,
        distance_mi: 1.0,
        t_execution_hr: 10.0,
        world_mi: 20.0,
        speed_scale: 1.0,
    }
}

/// Table 3, column 3: the synthetic suburban blend.
pub fn synthetic_suburbia() -> ParamSet {
    ParamSet {
        name: "Synthetic Suburbia",
        poi_number: 2100,
        mh_number: 51_500,
        cache_size: 50,
        query_rate: 3440.0,
        tx_range_m: 200.0,
        knn_k: 5,
        window_pct: 3.0,
        distance_mi: 1.0,
        t_execution_hr: 10.0,
        world_mi: 20.0,
        speed_scale: 1.0,
    }
}

/// All three parameter sets in the paper's presentation order.
pub fn all() -> [ParamSet; 3] {
    [la_city(), synthetic_suburbia(), riverside_county()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values_match_paper() {
        let la = la_city();
        assert_eq!(la.poi_number, 2750);
        assert_eq!(la.mh_number, 93_300);
        assert_eq!(la.cache_size, 50);
        assert_eq!(la.query_rate, 6220.0);
        assert_eq!(la.tx_range_m, 200.0);
        assert_eq!(la.knn_k, 5);
        assert_eq!(la.window_pct, 3.0);
        assert_eq!(la.distance_mi, 1.0);
        assert_eq!(la.t_execution_hr, 10.0);

        let rc = riverside_county();
        assert_eq!(rc.poi_number, 1450);
        assert_eq!(rc.mh_number, 9_700);
        assert_eq!(rc.query_rate, 650.0);

        let sb = synthetic_suburbia();
        assert_eq!(sb.poi_number, 2100);
        assert_eq!(sb.mh_number, 51_500);
        assert_eq!(sb.query_rate, 3440.0);
    }

    #[test]
    fn density_ordering_la_gt_suburbia_gt_riverside() {
        assert!(la_city().mh_density() > synthetic_suburbia().mh_density());
        assert!(synthetic_suburbia().mh_density() > riverside_county().mh_density());
    }

    #[test]
    fn scaling_preserves_densities() {
        let la = la_city();
        let s = la.scaled(0.04);
        assert!((s.mh_density() - la.mh_density()).abs() / la.mh_density() < 0.02);
        assert!((s.poi_density() - la.poi_density()).abs() / la.poi_density() < 0.02);
        // Per-host query rate preserved.
        let per_host = la.query_rate / la.mh_number as f64;
        let per_host_s = s.query_rate / s.mh_number as f64;
        assert!((per_host - per_host_s).abs() / per_host < 0.05);
        assert!((s.world_mi - 4.0).abs() < 1e-9);
    }
}
