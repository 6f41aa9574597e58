//! Cache replacement policies.

use airshare_geom::{Point, Rect};

/// Which entry to evict when the cache is over capacity.
///
/// The paper (§4.1) uses a policy "based on the current moving direction
/// and the data distance between the current location of the MH and the
/// location of a data object", following Ren & Dunham's semantic caching
/// (ref \[13\] of the paper): data ahead of the vehicle is about to
/// become relevant; data
/// behind it is receding. The baselines exist for the `cache_policy`
/// ablation bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Distance to the region, discounted when the region lies in the
    /// direction of travel and penalized when behind (the paper's
    /// policy).
    #[default]
    DirectionDistance,
    /// Pure distance from the host to the region.
    DistanceOnly,
    /// Least-recently-used.
    Lru,
}

impl ReplacementPolicy {
    /// Eviction score for one entry — higher means evict sooner — from
    /// the two columns a decision reads: the entry's region `vr` and its
    /// last-used time.
    ///
    /// `pos` is the host's current position, `heading` its unit heading
    /// (None while paused), `now` the current time.
    pub fn score_parts(
        &self,
        vr: &Rect,
        last_used: f64,
        pos: Point,
        heading: Option<(f64, f64)>,
        now: f64,
    ) -> f64 {
        match self {
            ReplacementPolicy::Lru => now - last_used,
            ReplacementPolicy::DistanceOnly => vr.distance_to_point(pos),
            ReplacementPolicy::DirectionDistance => {
                let d = vr.distance_to_point(pos);
                match heading {
                    None => d,
                    Some((hx, hy)) => {
                        let c = vr.center();
                        let (vx, vy) = pos.vector_to(c);
                        let norm = vx.hypot(vy);
                        if norm < 1e-9 {
                            // Host is at the region's centre: maximally
                            // relevant regardless of heading.
                            return 0.0;
                        }
                        let cos = (vx * hx + vy * hy) / norm;
                        // cos ∈ [-1, 1]: ahead → halve the effective
                        // distance, behind → double it. Smooth in between.
                        d * (1.5 - cos)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A region of half-side 0.5 around `(x, y)`.
    fn at(x: f64, y: f64) -> Rect {
        Rect::centered_square(Point::new(x, y), 0.5)
    }

    #[test]
    fn direction_prefers_regions_ahead() {
        let policy = ReplacementPolicy::DirectionDistance;
        let pos = Point::ORIGIN;
        let heading = Some((1.0, 0.0)); // moving east
        let s_ahead = policy.score_parts(&at(5.0, 0.0), 0.0, pos, heading, 0.0);
        let s_behind = policy.score_parts(&at(-5.0, 0.0), 0.0, pos, heading, 0.0);
        assert!(
            s_ahead < s_behind,
            "ahead {s_ahead} should score lower (keep) than behind {s_behind}"
        );
    }

    #[test]
    fn direction_falls_back_to_distance_when_paused() {
        let policy = ReplacementPolicy::DirectionDistance;
        let s_near = policy.score_parts(&at(1.0, 0.0), 0.0, Point::ORIGIN, None, 0.0);
        let s_far = policy.score_parts(&at(9.0, 0.0), 0.0, Point::ORIGIN, None, 0.0);
        assert!(s_near < s_far);
    }

    #[test]
    fn lru_scores_by_staleness() {
        let policy = ReplacementPolicy::Lru;
        let region = at(0.0, 0.0);
        let old = policy.score_parts(&region, 1.0, Point::ORIGIN, None, 10.0);
        let fresh = policy.score_parts(&region, 9.0, Point::ORIGIN, None, 10.0);
        assert!(old > fresh);
    }

    #[test]
    fn containing_region_scores_minimal_distance() {
        let policy = ReplacementPolicy::DistanceOnly;
        let region = at(0.0, 0.0);
        assert_eq!(
            policy.score_parts(&region, 0.0, Point::new(0.1, 0.1), None, 0.0),
            0.0
        );
    }
}
