//! Deterministic parallel runtime for the airshare workspace.
//!
//! Raw threads and spatial simulation mix badly: float accumulation
//! order, RNG draw order, and cache commit order all leak scheduling
//! nondeterminism into results, and bit-identity across thread counts is
//! part of the system's contract (ROADMAP north-star 3). This crate is
//! the shared answer — a small, dependency-light runtime the simulator,
//! the service and the bench harness all sit on:
//!
//! * [`Parallelism`] — explicit sizing policy with an `AIRSHARE_THREADS`
//!   environment fallback, so one knob sizes every pool built by
//!   [`ExecPool::from_env`] and CI's thread matrix.
//! * [`ExecPool`] — a sized worker pool over the vendored `crossbeam`
//!   scoped threads. [`ExecPool::map`] fans a task list out with
//!   work stealing and returns results **in input order**, regardless of
//!   which worker ran what; [`ExecPool::map_with`] additionally threads a
//!   per-worker mutable context (e.g. a shard-local `MetricsRecorder`)
//!   through every task the worker executes.
//! * [`split_seed`] — the seed-splitting hash used to derive independent
//!   per-`(host, epoch)` RNG streams from one master seed, so parallel
//!   shards never share (or race on) a generator.
//!
//! The pool carries only its sizing; workers are scoped threads spawned
//! per call, so borrowed task state needs no `'static` bound and a pool
//! is freely reusable (and `Sync`) across calls. Determinism contract:
//! for a pure `f`, `pool.map(tasks, f)` returns the same vector for every
//! thread count, including 1 — scheduling affects only wall-clock time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::Mutex;

/// Environment variable consulted by [`Parallelism::from_env`] (and hence
/// [`ExecPool::from_env`]) for an explicit thread count.
pub const THREADS_ENV: &str = "AIRSHARE_THREADS";

/// Worker-pool sizing policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Use the hardware's available parallelism (falling back to 1 when
    /// it cannot be queried).
    #[default]
    Auto,
    /// Use exactly this many workers; `Fixed(0)` is treated as 1.
    Fixed(usize),
}

impl Parallelism {
    /// Reads `AIRSHARE_THREADS`. A positive integer means
    /// [`Parallelism::Fixed`]; absent, empty, zero, or unparseable means
    /// [`Parallelism::Auto`].
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => Parallelism::Fixed(n),
                _ => Parallelism::Auto,
            },
            Err(_) => Parallelism::Auto,
        }
    }

    /// Resolves the policy to a concrete worker count (always ≥ 1).
    #[must_use]
    pub fn resolve(self) -> usize {
        match self {
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Fixed(n) => n.max(1),
        }
    }
}

/// A deterministic worker pool.
///
/// The pool itself is just the resolved worker count — cheap to build,
/// `Copy`-free but `Clone`, and `Sync` so one pool can be shared across
/// a whole experiment harness. Each `map`/`map_with` call spawns scoped
/// workers, distributes tasks round-robin into per-worker queues, lets
/// idle workers steal from the back of busier queues, and scatters
/// results back into input order before returning.
#[derive(Clone, Debug)]
pub struct ExecPool {
    threads: usize,
}

impl ExecPool {
    /// Builds a pool from an explicit sizing policy.
    #[must_use]
    pub fn new(parallelism: Parallelism) -> Self {
        ExecPool {
            threads: parallelism.resolve(),
        }
    }

    /// Builds a pool with exactly `threads` workers (0 is treated as 1).
    #[must_use]
    pub fn fixed(threads: usize) -> Self {
        ExecPool::new(Parallelism::Fixed(threads))
    }

    /// Builds a pool sized by `AIRSHARE_THREADS`, falling back to the
    /// hardware's available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        ExecPool::new(Parallelism::from_env())
    }

    /// A single-worker pool: every `map` runs inline on the caller's
    /// thread. Useful as the deterministic baseline in tests.
    #[must_use]
    pub fn sequential() -> Self {
        ExecPool::fixed(1)
    }

    /// The number of workers this pool schedules onto.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every task, in parallel, returning results in input
    /// order. `f` receives the task's input index alongside the task.
    pub fn map<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let mut units = vec![(); self.threads];
        self.map_with(&mut units, tasks, |(), i, t| f(i, t))
    }

    /// Like [`ExecPool::map`], but each worker owns one of the supplied
    /// mutable contexts for the duration of the call — the idiom for
    /// shard-local accumulators that are merged after the barrier.
    ///
    /// At most `min(threads, ctxs.len())` workers run; a context is never
    /// shared between two live workers. Results come back in input order.
    ///
    /// # Panics
    /// Panics if `ctxs` is empty while `tasks` is not, or if a task
    /// panics (the worker's panic propagates).
    pub fn map_with<C, T, R, F>(&self, ctxs: &mut [C], tasks: Vec<T>, f: F) -> Vec<R>
    where
        C: Send,
        T: Send,
        R: Send,
        F: Fn(&mut C, usize, T) -> R + Sync,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        assert!(
            !ctxs.is_empty(),
            "ExecPool::map_with needs at least one worker context"
        );
        let workers = self.threads.min(ctxs.len()).min(n);
        if workers <= 1 {
            let ctx = &mut ctxs[0];
            return tasks
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(ctx, i, t))
                .collect();
        }

        // Round-robin distribution seeds locality; stealing from the
        // *back* of a victim's queue keeps owners and thieves off the
        // same end.
        let mut queues: Vec<Mutex<VecDeque<(usize, T)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            queues[i % workers].get_mut().unwrap().push_back((i, t));
        }
        let queues = &queues;
        let f = &f;

        let run = move |w: usize, ctx: &mut C| {
            let mut out = Vec::new();
            loop {
                let mut job = queues[w].lock().unwrap().pop_front();
                if job.is_none() {
                    for d in 1..workers {
                        let victim = (w + d) % workers;
                        job = queues[victim].lock().unwrap().pop_back();
                        if job.is_some() {
                            break;
                        }
                    }
                }
                match job {
                    Some((i, t)) => out.push((i, f(ctx, i, t))),
                    None => break,
                }
            }
            out
        };

        let pairs: Vec<(usize, R)> = crossbeam::scope(|s| {
            let handles: Vec<_> = ctxs[..workers]
                .iter_mut()
                .enumerate()
                .map(|(w, ctx)| s.spawn(move |_| run(w, ctx)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("exec worker panicked"))
                .collect()
        })
        .expect("exec scope failed");

        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in pairs {
            debug_assert!(results[i].is_none(), "task {i} ran twice");
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("task produced no result"))
            .collect()
    }

    /// Runs two independent closures, concurrently when the pool has
    /// more than one worker, and returns both results. The idiom for
    /// build-time work with exactly two coarse halves (e.g. the air
    /// index and the validation oracle), where `map`'s per-task
    /// machinery would be overhead.
    ///
    /// # Panics
    /// Propagates a panic from either closure.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        if self.threads <= 1 {
            return (a(), b());
        }
        crossbeam::scope(|s| {
            let hb = s.spawn(|_| b());
            let ra = a();
            (ra, hb.join().expect("exec join worker panicked"))
        })
        .expect("exec scope failed")
    }
}

impl Default for ExecPool {
    /// Equivalent to [`ExecPool::from_env`].
    fn default() -> Self {
        ExecPool::from_env()
    }
}

/// SplitMix64 finalizer: a bijective avalanche mix.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent RNG seed for one `(host, epoch)` stream from a
/// master seed.
///
/// Two chained SplitMix64 rounds, each folding in one coordinate offset
/// by a distinct odd constant; the composition of bijective mixes keeps
/// distinct `(seed, host, epoch)` triples from colliding in practice and
/// decorrelates neighboring hosts and consecutive epochs. The function is
/// pure, so a shard can derive its streams without any shared generator —
/// the root of the "bit-identical for any thread count" guarantee.
#[must_use]
pub fn split_seed(master: u64, host: u64, epoch: u64) -> u64 {
    let s = mix64(master ^ host.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    mix64(s ^ epoch.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fixed_zero_clamps_to_one() {
        assert_eq!(ExecPool::fixed(0).threads(), 1);
        assert_eq!(Parallelism::Fixed(0).resolve(), 1);
    }

    #[test]
    fn map_returns_results_in_input_order() {
        let pool = ExecPool::fixed(4);
        let tasks: Vec<u64> = (0..100).collect();
        let out = pool.map(tasks, |i, t| {
            assert_eq!(i as u64, t);
            t * t
        });
        assert_eq!(out, (0..100u64).map(|t| t * t).collect::<Vec<_>>());
    }

    #[test]
    fn map_is_identical_across_thread_counts() {
        let tasks: Vec<u64> = (0..257).collect();
        let reference = ExecPool::sequential().map(tasks.clone(), |i, t| split_seed(t, i as u64, 7));
        for threads in [2, 3, 4, 7, 16] {
            let got =
                ExecPool::fixed(threads).map(tasks.clone(), |i, t| split_seed(t, i as u64, 7));
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn stealing_drains_uneven_queues() {
        // Worker 0's round-robin share carries all the heavy tasks; the
        // pool still finishes and keeps order.
        let pool = ExecPool::fixed(4);
        let tasks: Vec<u32> = (0..64).collect();
        let out = pool.map(tasks, |_, t| {
            if t % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            t + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn map_with_gives_each_worker_a_private_context() {
        let pool = ExecPool::fixed(3);
        let mut tallies = vec![0usize; pool.threads()];
        let out = pool.map_with(&mut tallies, (0..50).collect::<Vec<usize>>(), |tally, i, t| {
            *tally += 1;
            assert_eq!(i, t);
            t
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        // Every task was tallied exactly once across the contexts.
        assert_eq!(tallies.iter().sum::<usize>(), 50);
    }

    #[test]
    fn map_with_runs_inline_on_one_context() {
        let main_thread = std::thread::current().id();
        let hits = AtomicUsize::new(0);
        let mut ctx = [0u8];
        ExecPool::fixed(8).map_with(&mut ctx, vec![1, 2, 3], |_, _, _| {
            assert_eq!(std::thread::current().id(), main_thread);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let pool = ExecPool::fixed(4);
        let out: Vec<u32> = pool.map(Vec::<u32>::new(), |_, t| t);
        assert!(out.is_empty());
        let out: Vec<u32> = pool.map_with(&mut [], Vec::<u32>::new(), |(), _, t| t);
        assert!(out.is_empty());
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = ExecPool::fixed(4).join(|| 6 * 7, || "ok".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
        // Sequential pools run both inline.
        let (a, b) = ExecPool::sequential().join(|| vec![1, 2], || 9u8);
        assert_eq!(a, vec![1, 2]);
        assert_eq!(b, 9);
    }

    #[test]
    fn join_can_borrow_local_state() {
        let xs: Vec<u64> = (0..1000).collect();
        let (sum, max) = ExecPool::fixed(2).join(
            || xs.iter().sum::<u64>(),
            || xs.iter().copied().max().unwrap_or(0),
        );
        assert_eq!(sum, 499_500);
        assert_eq!(max, 999);
    }

    #[test]
    fn split_seed_separates_streams() {
        let base = split_seed(42, 0, 0);
        assert_ne!(base, split_seed(42, 1, 0), "hosts must not share streams");
        assert_ne!(base, split_seed(42, 0, 1), "epochs must not share streams");
        assert_ne!(base, split_seed(43, 0, 0), "seeds must not share streams");
        // Deterministic: same triple, same stream.
        assert_eq!(split_seed(42, 17, 3), split_seed(42, 17, 3));
        // No pairwise collisions over a small host×epoch grid.
        let mut seen = std::collections::HashSet::new();
        for host in 0..64u64 {
            for epoch in 0..64u64 {
                assert!(seen.insert(split_seed(42, host, epoch)));
            }
        }
    }

    #[test]
    fn env_fallback_parses_thread_counts() {
        // Sole test touching the env var, to avoid cross-test races.
        std::env::set_var(THREADS_ENV, "6");
        assert_eq!(Parallelism::from_env(), Parallelism::Fixed(6));
        assert_eq!(ExecPool::from_env().threads(), 6);
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(Parallelism::from_env(), Parallelism::Auto);
        std::env::set_var(THREADS_ENV, "not a number");
        assert_eq!(Parallelism::from_env(), Parallelism::Auto);
        std::env::remove_var(THREADS_ENV);
        assert_eq!(Parallelism::from_env(), Parallelism::Auto);
        assert!(ExecPool::from_env().threads() >= 1);
    }
}
