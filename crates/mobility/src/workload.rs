//! Poisson query workloads.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A homogeneous Poisson process: exponential inter-arrival times at a
/// fixed rate (events per minute).
#[derive(Clone, Debug)]
pub struct PoissonProcess {
    rate: f64,
    rng: SmallRng,
    next: f64,
}

impl PoissonProcess {
    /// Creates a process with the given rate (events/minute, > 0).
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        let mut p = Self {
            rate,
            rng: SmallRng::seed_from_u64(seed),
            next: 0.0,
        };
        p.next = p.sample_gap();
        p
    }

    /// The configured rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    fn sample_gap(&mut self) -> f64 {
        // Inverse-CDF sampling; `gen` yields [0, 1), so flip to (0, 1].
        let u: f64 = 1.0 - self.rng.gen::<f64>();
        -u.ln() / self.rate
    }

    /// Time of the next event; repeated calls advance the process.
    pub fn next_event(&mut self) -> f64 {
        let t = self.next;
        self.next += self.sample_gap();
        t
    }

    /// Peek at the upcoming event time without consuming it.
    pub fn peek(&self) -> f64 {
        self.next
    }
}

impl Iterator for PoissonProcess {
    type Item = f64;
    fn next(&mut self) -> Option<f64> {
        Some(self.next_event())
    }
}

/// A query issued by a specific mobile host at a specific time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryEvent {
    /// Simulation time in minutes.
    pub time: f64,
    /// Index of the issuing host.
    pub host: usize,
}

/// Assigns Poisson-timed queries to uniformly random hosts — the paper's
/// workload: "the simulator selects a random subset of the mobile hosts
/// to launch spatial queries (the query intervals are also based on a
/// Poisson distribution)", with the aggregate rate set by the `Query`
/// parameter of Table 4.
#[derive(Clone, Debug)]
pub struct QueryScheduler {
    process: PoissonProcess,
    hosts: usize,
    rng: SmallRng,
}

impl QueryScheduler {
    /// Creates a scheduler over `hosts` hosts at `rate` queries/minute.
    pub fn new(rate: f64, hosts: usize, seed: u64) -> Self {
        assert!(hosts > 0, "need at least one host");
        Self {
            process: PoissonProcess::new(rate, seed ^ 0x9E3779B97F4A7C15),
            hosts,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Draws the next query event.
    pub fn next_query(&mut self) -> QueryEvent {
        QueryEvent {
            time: self.process.next_event(),
            host: self.rng.gen_range(0..self.hosts),
        }
    }

    /// Time of the upcoming event, without consuming it. Lets callers
    /// pull events epoch by epoch (streaming): taking [`next_query`]
    /// while `peek_time() < t` yields every event before `t`, in the
    /// same draw sequence however the stream is cut into epochs.
    ///
    /// [`next_query`]: QueryScheduler::next_query
    pub fn peek_time(&self) -> f64 {
        self.process.peek()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event before `horizon`, pulled the way the engine streams
    /// them.
    fn drain_until(s: &mut QueryScheduler, horizon: f64) -> Vec<QueryEvent> {
        let mut out = Vec::new();
        while s.peek_time() < horizon {
            out.push(s.next_query());
        }
        out
    }

    #[test]
    fn poisson_rate_is_respected() {
        let mut p = PoissonProcess::new(10.0, 5);
        let n = 20_000;
        let mut last = 0.0;
        for _ in 0..n {
            last = p.next_event();
        }
        // n events should take ≈ n/rate minutes (±5%).
        let expected = n as f64 / 10.0;
        assert!(
            (last - expected).abs() < 0.05 * expected,
            "elapsed {last}, expected ≈ {expected}"
        );
    }

    #[test]
    fn events_strictly_increase() {
        let p = PoissonProcess::new(3.0, 9);
        let times: Vec<f64> = p.take(1000).collect();
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(times[0] > 0.0);
    }

    #[test]
    fn scheduler_spreads_load_over_hosts() {
        let mut s = QueryScheduler::new(100.0, 50, 3);
        let events = drain_until(&mut s, 600.0); // ~60k queries
        assert!((events.len() as f64 - 60_000.0).abs() < 3_000.0);
        let mut counts = vec![0usize; 50];
        for e in &events {
            counts[e.host] += 1;
        }
        let avg = events.len() / 50;
        for (h, &c) in counts.iter().enumerate() {
            assert!(c > avg / 2 && c < avg * 2, "host {h} got {c}, avg {avg}");
        }
    }

    #[test]
    fn streaming_respects_horizon() {
        let mut s = QueryScheduler::new(5.0, 10, 1);
        let events = drain_until(&mut s, 10.0);
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.time < 10.0));
        // Continuing yields events after the horizon.
        let next = s.next_query();
        assert!(next.time >= 10.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = QueryScheduler::new(7.0, 20, 77);
        let mut b = QueryScheduler::new(7.0, 20, 77);
        for _ in 0..100 {
            assert_eq!(a.next_query(), b.next_query());
        }
    }
}
