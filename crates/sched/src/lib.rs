//! # raindrop-sched
//!
//! The reusable job scheduler underneath DSE batches, attack campaigns and
//! the protection server: a persistent [`Scheduler`] with warm per-worker
//! state ([`WorkerCtx`]), cancellation and per-job timing/outcome stats,
//! plus the borrowing batch helper [`scoped_map`].
//!
//! Two entry points cover the two job shapes in this workspace:
//!
//! * [`Scheduler`] — a persistent pool for long-running services: jobs are
//!   `'static` closures over warm per-worker state, queued FIFO on one
//!   channel and awaited through [`JobHandle`]s. The protection server
//!   (`raindrop-server`) and the attack campaign driver
//!   (`raindrop-attacks`) both run on it.
//! * [`scoped_map`] — a one-shot batch: borrows items and the job function
//!   (no `'static` bound), and each worker claims the next unclaimed item,
//!   so a slow item never idles the rest of the pool. Independent DSE
//!   attacks are sharded with it.
//!
//! Determinism: the scheduler moves *when and where* a job runs, never what
//! it computes. Jobs must be self-contained (seeds and inputs inside the
//! job, per-worker contexts holding scratch only — see [`WorkerCtx`]), and
//! then results are independent of the worker count; the attacks' 1-vs-N
//! tests and the server's determinism test pin this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod scheduler;

pub use scheduler::{
    JobDone, JobHandle, JobOutcome, JobStats, Scheduler, SchedulerStats, WorkerCtx,
};

use std::any::Any;
use std::sync::Mutex;

/// The message of a caught panic payload (`panic!` with a literal or a
/// formatted string), or a placeholder for any other payload type.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs `f` over every item on a temporary pool of `workers` threads and
/// returns the results in item order.
///
/// Each worker claims the next unclaimed item until none is left, so a
/// slow item only occupies its own worker while the others drain the rest.
/// Unlike [`Scheduler::submit`], items, results and `f` may borrow from the
/// caller — the pool lives inside a [`std::thread::scope`].
///
/// `f` must be deterministic per item for batch runs to be reproducible
/// across worker counts.
///
/// # Example
///
/// ```
/// let squares = raindrop_sched::scoped_map(4, (0u64..10).collect(), |i, v| {
///     assert_eq!(i as u64, v);
///     v * v
/// });
/// assert_eq!(squares, (0u64..10).map(|v| v * v).collect::<Vec<_>>());
/// ```
pub fn scoped_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    let unclaimed = Mutex::new(items.into_iter().enumerate());
    let mut results: Vec<(usize, R)> = std::thread::scope(|s| {
        let pool: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The guard is a temporary of this statement: the
                        // lock is released before `f` runs.
                        let Some((i, item)) = unclaimed.lock().expect("items lock").next() else {
                            return done;
                        };
                        done.push((i, f(i, item)));
                    }
                })
            })
            .collect();
        pool.into_iter().flat_map(|worker| worker.join().expect("scoped worker")).collect()
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_map_preserves_order_with_borrowed_state() {
        let offset = 100u64; // borrowed by `f`, not 'static-captured
        let out = scoped_map(3, (0u64..32).collect(), |_, v| v + offset);
        assert_eq!(out, (100u64..132).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_map_handles_empty_and_single() {
        assert_eq!(scoped_map(4, Vec::<u8>::new(), |_, v| v), Vec::<u8>::new());
        assert_eq!(scoped_map(0, vec![7u8], |_, v| v), vec![7]);
    }

    #[test]
    fn scoped_map_steals_from_stragglers() {
        // Worker 0's shard starts with one very slow item; the rest of its
        // shard must be stolen and completed by the other worker well
        // before the slow item finishes.
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let fast_done = AtomicUsize::new(0);
        let release = AtomicBool::new(false);
        let out = scoped_map(2, (0usize..8).collect(), |_, v| {
            if v == 0 {
                // Slow job: waits until every fast job completed, which is
                // only possible if worker 1 stole worker 0's remaining
                // shard (items 2, 4, 6).
                while !release.load(Ordering::Relaxed) {
                    if fast_done.load(Ordering::Relaxed) == 7 {
                        release.store(true, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
            } else {
                fast_done.fetch_add(1, Ordering::Relaxed);
            }
            v * 10
        });
        assert_eq!(out, (0usize..8).map(|v| v * 10).collect::<Vec<_>>());
    }
}
