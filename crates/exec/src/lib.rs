//! Deterministic parallel runtime for the airshare workspace.
//!
//! Raw threads and spatial simulation mix badly: float accumulation
//! order, RNG draw order, and cache commit order all leak scheduling
//! nondeterminism into results, and bit-identity across thread counts is
//! part of the system's contract (ROADMAP north-star 3). This crate is
//! the shared answer — a small runtime on `std` threads alone that the
//! simulator, the service and the bench harness all sit on:
//!
//! * [`ExecPool`] — a sized worker pool. [`ExecPool::map`] fans a task
//!   list out over one shared queue and returns results **in input
//!   order**, regardless of which worker ran what; [`ExecPool::map_with`]
//!   additionally threads a per-worker mutable context (e.g. a
//!   shard-local `MetricsSnapshot`) through every task the worker
//!   executes. Both sit on [`ExecPool::for_each_with`], which writes
//!   results through the tasks themselves and so allocates nothing of
//!   its own: the simulator's epoch loop dispatches through it.
//! * [`split_seed`] — the seed-splitting hash used to derive independent
//!   per-`(host, epoch)` RNG streams from one master seed, so parallel
//!   shards never share (or race on) a generator.
//!
//! The pool carries only its size; workers are scoped threads spawned
//! per call, so borrowed task state needs no `'static` bound and a pool
//! is freely reusable (and `Sync`) across calls. Determinism contract:
//! for a pure `f`, `pool.map(tasks, f)` returns the same vector for every
//! thread count, including 1 — scheduling affects only wall-clock time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Mutex, PoisonError};

/// A deterministic worker pool.
///
/// The pool itself is just its worker count — cheap to build, `Clone`,
/// and `Sync` so one pool can be shared across a whole experiment
/// harness. Each `map`/`map_with` call runs worker 0 on the caller's
/// thread and spawns the rest as scoped threads. Every worker pops the
/// next task from one shared queue until it is empty, so a worker that
/// drew cheap tasks simply draws more; results are sorted back into
/// input order before returning.
#[derive(Clone, Debug)]
pub struct ExecPool {
    threads: usize,
}

impl ExecPool {
    /// Builds a pool with exactly `threads` workers (0 is treated as 1).
    #[must_use]
    pub fn fixed(threads: usize) -> Self {
        ExecPool {
            threads: threads.max(1),
        }
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
    /// With one worker, one context or one task the call runs inline on
    /// the caller's thread.
    ///
    /// # Panics
    /// Panics if `ctxs` is empty while `tasks` is not. A panicking task
    /// re-raises its own payload on the caller's thread.
    pub fn map_with<C, T, R, F>(&self, ctxs: &mut [C], tasks: Vec<T>, f: F) -> Vec<R>
    where
        C: Send,
        T: Send,
        R: Send,
        F: Fn(&mut C, usize, T) -> R + Sync,
    {
        // One slot per task: the task goes in, its result comes out.
        let mut slots: Vec<(Option<T>, Option<R>)> =
            tasks.into_iter().map(|t| (Some(t), None)).collect();
        self.for_each_with(ctxs, slots.iter_mut(), |ctx, i, (task, out)| {
            *out = task.take().map(|t| f(ctx, i, t));
        });
        slots
            .into_iter()
            .map(|(_, out)| out.expect("every task ran"))
            .collect()
    }

    /// The dispatch behind every call: runs `f` on each task `tasks`
    /// yields, with its index, each worker owning one of `ctxs` as in
    /// [`ExecPool::map_with`]. Results go wherever the tasks point — a
    /// task is typically a mutable borrow of its own output slot — so the
    /// call itself allocates nothing beyond spawning the extra workers
    /// (and nothing at all when it runs inline: with one worker, one
    /// context or one task).
    ///
    /// Workers pop the next task from one shared queue (the iterator,
    /// behind a lock held only to pop), so a worker that drew cheap tasks
    /// simply draws more. Which worker runs which task — and so in what
    /// order a context sees its tasks — is up to scheduling; the result
    /// is not, for an `f` whose effects are confined to its task and its
    /// own context.
    ///
    /// # Panics
    /// Panics if `ctxs` is empty while `tasks` is not. A panicking task
    /// re-raises its own payload on the caller's thread.
    pub fn for_each_with<C, I, F>(&self, ctxs: &mut [C], tasks: I, f: F)
    where
        C: Send,
        I: ExactSizeIterator + Send,
        I::Item: Send,
        F: Fn(&mut C, usize, I::Item) + Sync,
    {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        let workers = self.threads.min(ctxs.len()).min(n);
        let Some((own, others)) = ctxs.split_first_mut() else {
            panic!("ExecPool needs at least one worker context");
        };
        if workers <= 1 {
            for (i, t) in tasks.enumerate() {
                f(own, i, t);
            }
            return;
        }

        // The lock is held only to pop, never across `f`, so a panicking
        // task cannot poison it; recover the guard anyway rather than
        // turn one task's panic into every worker's.
        let queue = Mutex::new(tasks.enumerate());
        let run = |ctx: &mut C| loop {
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            match next {
                Some((i, t)) => f(ctx, i, t),
                None => return,
            }
        };
        let run = &run;
        std::thread::scope(|s| {
            let handles: Vec<_> = others[..workers - 1]
                .iter_mut()
                .map(|ctx| s.spawn(move || run(ctx)))
                .collect();
            run(own);
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
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
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Condvar;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn fixed_zero_clamps_to_one() {
        assert_eq!(ExecPool::fixed(0).threads(), 1);
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
        let reference =
            ExecPool::sequential().map(tasks.clone(), |i, t| split_seed(t, i as u64, 7));
        for threads in [2, 3, 4, 7, 16] {
            let got =
                ExecPool::fixed(threads).map(tasks.clone(), |i, t| split_seed(t, i as u64, 7));
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn uneven_tasks_still_finish_in_order() {
        // Every fourth task is heavy; the pool still finishes and keeps
        // order.
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
        let out = pool.map_with(
            &mut tallies,
            (0..50).collect::<Vec<usize>>(),
            |tally, i, t| {
                *tally += 1;
                assert_eq!(i, t);
                t
            },
        );
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        // Every task was tallied exactly once across the contexts.
        assert_eq!(tallies.iter().sum::<usize>(), 50);
    }

    #[test]
    fn a_context_is_never_shared() {
        // More workers than contexts: two run. Each holds its first task
        // until the other has one too, so both contexts are in use at
        // once; each context records the threads that used it.
        let arrived = (Mutex::new(0usize), Condvar::new());
        let mut ctxs: Vec<(HashSet<ThreadId>, usize)> = vec![(HashSet::new(), 0); 2];
        ExecPool::fixed(8).map_with(&mut ctxs, (0..200).collect::<Vec<u32>>(), |ctx, _, _| {
            if ctx.1 == 0 {
                let (count, cv) = &arrived;
                let mut n = count.lock().unwrap();
                *n += 1;
                cv.notify_all();
                drop(cv.wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2));
            }
            ctx.0.insert(std::thread::current().id());
            ctx.1 += 1;
        });
        assert_eq!(*arrived.0.lock().unwrap(), 2, "both contexts took a task");
        for (threads, _) in &ctxs {
            assert_eq!(threads.len(), 1, "a context ran on {threads:?}");
        }
        assert!(ctxs[0].0.is_disjoint(&ctxs[1].0));
        assert_eq!(ctxs.iter().map(|c| c.1).sum::<usize>(), 200);
    }

    #[test]
    fn a_panicking_task_reraises_its_own_payload() {
        const MSG: &str = "task 1+ failed on purpose";
        let caught = std::panic::catch_unwind(|| {
            ExecPool::fixed(2).map((0..64).collect::<Vec<u32>>(), |i, t| {
                if i >= 1 {
                    std::panic::panic_any(MSG);
                }
                t
            })
        })
        .expect_err("tasks 1.. panic");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&MSG));
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
}
