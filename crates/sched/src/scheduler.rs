//! The persistent scheduler: a worker pool with warm per-worker state over
//! a [`WorkQueue`].

use crate::queue::WorkQueue;
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Warm per-worker state.
///
/// Every worker thread constructs one context when it starts and hands a
/// `&mut` of it to every job it runs, so expensive reusable state (a
/// `MaterializeCtx`, a warm emulator pair, scratch buffers) survives from
/// job to job instead of being rebuilt per job. Contexts are created *on*
/// the worker thread and never move across threads, so they do not need to
/// be `Send`.
///
/// Correctness rule for deterministic workloads: a context must only carry
/// *scratch* state (buffers, caches keyed by their inputs), never state
/// that changes job results — job outcomes have to be a function of the job
/// alone so a 1-worker and an N-worker pool produce identical results. In
/// particular, a context must not hold RNG state that jobs consume:
/// protection seeds always travel inside the job itself.
pub trait WorkerCtx: 'static {
    /// Builds the context for worker `worker` (0-based). Runs on the worker
    /// thread itself.
    fn create(worker: usize) -> Self;
}

/// The stateless context: workers hold nothing between jobs.
impl WorkerCtx for () {
    fn create(_worker: usize) {}
}

/// Cancellation/introspection handle passed to every running job.
pub struct JobCtl {
    cancelled: Arc<AtomicBool>,
    worker: usize,
}

impl JobCtl {
    /// Whether [`JobHandle::cancel`] was called for this job. Long-running
    /// jobs should poll this and bail out early; the scheduler never
    /// interrupts a running job preemptively.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// The 0-based index of the worker running this job.
    pub fn worker(&self) -> usize {
        self.worker
    }
}

/// Timing and placement record of one finished job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStats {
    /// Time the job spent queued before a worker picked it up.
    pub queued: Duration,
    /// Time the job spent running (zero for jobs cancelled while queued).
    pub run: Duration,
    /// The worker that handled the job.
    pub worker: usize,
}

/// How a job ended.
#[derive(Debug)]
pub enum JobOutcome<R> {
    /// The job ran to completion.
    Completed(R),
    /// The job was cancelled before a worker started it, or it observed
    /// [`JobCtl::is_cancelled`] and returned through a cancellation path of
    /// its own (in which case it is `Completed` with whatever it returned).
    Cancelled,
    /// The job panicked; the worker recovered and rebuilt its context.
    Panicked(String),
}

/// A finished job: outcome plus stats.
#[derive(Debug)]
pub struct JobDone<R> {
    /// How the job ended.
    pub outcome: JobOutcome<R>,
    /// Timing and placement.
    pub stats: JobStats,
}

impl<R> JobDone<R> {
    /// The completed result, panicking on cancellation/job panic. For
    /// callers that never cancel and treat a job panic as fatal.
    pub fn expect_completed(self) -> R {
        match self.outcome {
            JobOutcome::Completed(r) => r,
            JobOutcome::Cancelled => panic!("job was cancelled"),
            JobOutcome::Panicked(msg) => panic!("job panicked: {msg}"),
        }
    }
}

enum Slot {
    Pending,
    Done(Option<Box<dyn Any + Send>>, JobStats, Option<String>),
    Taken,
}

struct JobShared {
    cancelled: Arc<AtomicBool>,
    slot: Mutex<Slot>,
    done: Condvar,
}

impl JobShared {
    fn finish(&self, result: Option<Box<dyn Any + Send>>, stats: JobStats, panic: Option<String>) {
        *self.slot.lock().expect("job slot") = Slot::Done(result, stats, panic);
        self.done.notify_all();
    }
}

/// A handle on one submitted job: wait for the result, or cancel it.
pub struct JobHandle<R> {
    shared: Arc<JobShared>,
    _result: PhantomData<fn() -> R>,
}

impl<R> std::fmt::Debug for JobHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match *self.shared.slot.lock().expect("job slot") {
            Slot::Pending => "pending",
            Slot::Done(..) => "done",
            Slot::Taken => "taken",
        };
        f.debug_struct("JobHandle").field("state", &state).finish()
    }
}

fn decode_outcome<R: Any + Send>(
    result: Option<Box<dyn Any + Send>>,
    panic: Option<String>,
) -> JobOutcome<R> {
    match (result, panic) {
        (Some(boxed), _) => {
            JobOutcome::Completed(*boxed.downcast::<R>().expect("job result type matches submit"))
        }
        (None, Some(msg)) => JobOutcome::Panicked(msg),
        (None, None) => JobOutcome::Cancelled,
    }
}

impl<R: Any + Send> JobHandle<R> {
    /// Blocks until the job finishes and returns its outcome and stats.
    pub fn wait(self) -> JobDone<R> {
        let mut slot = self.shared.slot.lock().expect("job slot");
        loop {
            match std::mem::replace(&mut *slot, Slot::Taken) {
                Slot::Done(result, stats, panic) => {
                    return JobDone { outcome: decode_outcome(result, panic), stats };
                }
                pending => {
                    *slot = pending;
                    slot = self.shared.done.wait(slot).expect("job slot");
                }
            }
        }
    }

    /// Requests cancellation. A job still queued is dropped unrun (its
    /// outcome becomes [`JobOutcome::Cancelled`]); a job already running
    /// only observes this through [`JobCtl::is_cancelled`].
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the job has finished (completed, cancelled or panicked).
    pub fn is_finished(&self) -> bool {
        !matches!(*self.shared.slot.lock().expect("job slot"), Slot::Pending)
    }
}

struct QueuedJob<C> {
    #[allow(clippy::type_complexity)]
    fun: Box<dyn FnOnce(&mut C, &JobCtl) -> Box<dyn Any + Send> + Send>,
    shared: Arc<JobShared>,
    /// When the job entered the queue.
    submitted: Instant,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    panicked: AtomicU64,
}

/// Aggregate scheduler statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs cancelled before they started.
    pub cancelled: u64,
    /// Jobs that panicked.
    pub panicked: u64,
    /// Jobs stolen from another worker's local shard.
    pub stolen: u64,
}

/// A persistent thread-pool scheduler with warm per-worker state.
///
/// Workers are spawned at construction, each owning one
/// [`WorkerCtx`]; jobs are closures over `(&mut C, &JobCtl)`, run in
/// submission order and waited on through their [`JobHandle`]. Result
/// types may differ from job to job — the handle restores the concrete
/// type — which is what lets one scheduler instance serve heterogeneous
/// work (protection pipelines next to DSE campaigns).
///
/// Dropping the scheduler (or calling [`shutdown`](Scheduler::shutdown))
/// closes the queue, lets the workers drain every job already submitted,
/// and joins them.
///
/// # Example
///
/// ```
/// use raindrop_sched::Scheduler;
///
/// /// Warm per-worker state: an expensive buffer reused across jobs.
/// struct Scratch(Vec<u64>);
/// impl raindrop_sched::WorkerCtx for Scratch {
///     fn create(_worker: usize) -> Scratch {
///         Scratch(Vec::with_capacity(1024))
///     }
/// }
///
/// let sched: Scheduler<Scratch> = Scheduler::new(2);
/// let handles: Vec<_> = (0..8u64)
///     .map(|n| {
///         sched.submit(move |ctx: &mut Scratch, _ctl| {
///             ctx.0.clear();
///             ctx.0.extend(0..=n);
///             ctx.0.iter().sum::<u64>()
///         })
///     })
///     .collect();
/// let sums: Vec<u64> = handles.into_iter().map(|h| h.wait().expect_completed()).collect();
/// assert_eq!(sums, vec![0, 1, 3, 6, 10, 15, 21, 28]);
/// assert_eq!(sched.stats().completed, 8);
/// ```
pub struct Scheduler<C: WorkerCtx> {
    queue: Arc<WorkQueue<QueuedJob<C>>>,
    counters: Arc<Counters>,
    threads: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl<C: WorkerCtx> Scheduler<C> {
    /// Spawns a pool of `workers` threads (clamped to at least 1), each
    /// constructing its [`WorkerCtx`] up front.
    pub fn new(workers: usize) -> Scheduler<C> {
        let workers = workers.max(1);
        let queue: Arc<WorkQueue<QueuedJob<C>>> = Arc::new(WorkQueue::new(workers));
        let counters = Arc::new(Counters::default());
        let threads = (0..workers)
            .map(|w| {
                let queue = Arc::clone(&queue);
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || worker_loop(w, &queue, &counters))
            })
            .collect();
        Scheduler { queue, counters, threads, workers }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submits a job to the back of the queue and returns its handle.
    pub fn submit<R, F>(&self, f: F) -> JobHandle<R>
    where
        R: Any + Send,
        F: FnOnce(&mut C, &JobCtl) -> R + Send + 'static,
    {
        let shared = Arc::new(JobShared {
            cancelled: Arc::new(AtomicBool::new(false)),
            slot: Mutex::new(Slot::Pending),
            done: Condvar::new(),
        });
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue.push(QueuedJob {
            fun: Box::new(move |ctx, ctl| Box::new(f(ctx, ctl)) as Box<dyn Any + Send>),
            shared: Arc::clone(&shared),
            submitted: Instant::now(),
        });
        JobHandle { shared, _result: PhantomData }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            workers: self.workers,
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            panicked: self.counters.panicked.load(Ordering::Relaxed),
            stolen: self.queue.stolen(),
        }
    }

    /// Closes the queue, drains every submitted job and joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.queue.close();
        for t in self.threads.drain(..) {
            t.join().expect("scheduler worker thread");
        }
    }
}

impl<C: WorkerCtx> Drop for Scheduler<C> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The message of a caught panic payload (`panic!` with a literal or a
/// formatted string), or a placeholder for any other payload type.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn worker_loop<C: WorkerCtx>(worker: usize, queue: &WorkQueue<QueuedJob<C>>, counters: &Counters) {
    let mut ctx = C::create(worker);
    while let Some(job) = queue.pop(worker) {
        let started = Instant::now();
        let queued = started.duration_since(job.submitted);
        if job.shared.cancelled.load(Ordering::Relaxed) {
            counters.cancelled.fetch_add(1, Ordering::Relaxed);
            job.shared.finish(None, JobStats { queued, run: Duration::ZERO, worker }, None);
            continue;
        }
        let ctl = JobCtl { cancelled: Arc::clone(&job.shared.cancelled), worker };
        let fun = job.fun;
        let result = catch_unwind(AssertUnwindSafe(|| fun(&mut ctx, &ctl)));
        let stats = JobStats { queued, run: started.elapsed(), worker };
        match result {
            Ok(boxed) => {
                counters.completed.fetch_add(1, Ordering::Relaxed);
                job.shared.finish(Some(boxed), stats, None);
            }
            Err(payload) => {
                counters.panicked.fetch_add(1, Ordering::Relaxed);
                job.shared.finish(None, stats, Some(panic_message(payload.as_ref())));
                // The panicking job may have left the warm context in an
                // arbitrary state; rebuild it before the next job.
                ctx = C::create(worker);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_typed_and_heterogeneous() {
        let sched: Scheduler<()> = Scheduler::new(2);
        let a = sched.submit(|_, _| 41u64 + 1);
        let b = sched.submit(|_, _| "text".to_string());
        assert_eq!(a.wait().expect_completed(), 42);
        assert_eq!(b.wait().expect_completed(), "text");
        let stats = sched.stats();
        assert_eq!((stats.submitted, stats.completed), (2, 2));
    }

    #[test]
    fn worker_ctx_is_warm_across_jobs() {
        struct Counter(u64);
        impl WorkerCtx for Counter {
            fn create(_: usize) -> Counter {
                Counter(0)
            }
        }
        // One worker: every job sees the same context, so the per-job
        // increments accumulate.
        let sched: Scheduler<Counter> = Scheduler::new(1);
        let handles: Vec<_> = (0..5)
            .map(|_| {
                sched.submit(|ctx: &mut Counter, _| {
                    ctx.0 += 1;
                    ctx.0
                })
            })
            .collect();
        let seen: Vec<u64> = handles.into_iter().map(|h| h.wait().expect_completed()).collect();
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn cancellation_before_start_skips_the_job() {
        let sched: Scheduler<()> = Scheduler::new(1);
        // A blocker keeps the single worker busy long enough for the cancel
        // to land while the victim is still queued.
        let gate = Arc::new(AtomicBool::new(false));
        let blocker_gate = Arc::clone(&gate);
        let blocker = sched.submit(move |_, _| {
            while !blocker_gate.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
        });
        let ran = Arc::new(AtomicBool::new(false));
        let victim_ran = Arc::clone(&ran);
        let victim = sched.submit(move |_, _| victim_ran.store(true, Ordering::Relaxed));
        victim.cancel();
        gate.store(true, Ordering::Relaxed);
        blocker.wait().expect_completed();
        assert!(matches!(victim.wait().outcome, JobOutcome::Cancelled));
        assert!(!ran.load(Ordering::Relaxed), "cancelled job never ran");
        assert_eq!(sched.stats().cancelled, 1);
    }

    #[test]
    fn panics_are_contained_and_the_ctx_is_rebuilt() {
        struct Tainted(bool);
        impl WorkerCtx for Tainted {
            fn create(_: usize) -> Tainted {
                Tainted(false)
            }
        }
        let sched: Scheduler<Tainted> = Scheduler::new(1);
        let bad = sched.submit(|ctx: &mut Tainted, _| {
            ctx.0 = true;
            panic!("boom");
            #[allow(unreachable_code)]
            0u8
        });
        let after = sched.submit(|ctx: &mut Tainted, _| ctx.0);
        match bad.wait().outcome {
            JobOutcome::Panicked(msg) => assert!(msg.contains("boom")),
            other => panic!("expected panic outcome, got {other:?}"),
        }
        assert!(!after.wait().expect_completed(), "context was rebuilt after the panic");
        assert_eq!(sched.stats().panicked, 1);
    }

    #[test]
    fn job_stats_record_queue_and_run_time() {
        let sched: Scheduler<()> = Scheduler::new(1);
        let done = sched.submit(|_, _| std::thread::sleep(Duration::from_millis(2))).wait();
        assert!(done.stats.run >= Duration::from_millis(2));
        assert_eq!(done.stats.worker, 0);
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let sched: Scheduler<()> = Scheduler::new(2);
        let handles: Vec<_> = (0..16u32).map(|i| sched.submit(move |_, _| i * i)).collect();
        sched.shutdown();
        let out: Vec<u32> = handles.into_iter().map(|h| h.wait().expect_completed()).collect();
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }
}
