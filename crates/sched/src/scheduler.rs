//! The persistent scheduler: a worker pool with warm per-worker state over
//! one FIFO channel.

use crate::panic_message;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
    /// The job was cancelled before a worker started it.
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

/// A handle on one submitted job: wait for the result, or cancel it.
#[derive(Debug)]
pub struct JobHandle<R> {
    cancelled: Arc<AtomicBool>,
    reply: mpsc::Receiver<JobDone<R>>,
}

impl<R> JobHandle<R> {
    /// Blocks until the job finishes and returns its outcome and stats.
    pub fn wait(self) -> JobDone<R> {
        self.reply.recv().expect("a worker replies to every queued job")
    }

    /// Requests cancellation. A job still queued is dropped unrun (its
    /// outcome becomes [`JobOutcome::Cancelled`]); a job already running
    /// runs to completion.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }
}

struct QueuedJob<C, R> {
    fun: Box<dyn FnOnce(&mut C) -> R + Send>,
    cancelled: Arc<AtomicBool>,
    reply: mpsc::SyncSender<JobDone<R>>,
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
}

/// A persistent thread-pool scheduler with warm per-worker state.
///
/// Workers are spawned at construction, each owning one [`WorkerCtx`];
/// jobs are closures over `&mut C` returning an `R`, queued on one FIFO
/// channel, run in submission order and waited on through their
/// [`JobHandle`].
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
/// let sched: Scheduler<Scratch, u64> = Scheduler::new(2);
/// let handles: Vec<_> = (0..8u64)
///     .map(|n| {
///         sched.submit(move |ctx: &mut Scratch| {
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
pub struct Scheduler<C: WorkerCtx, R: Send + 'static> {
    /// `None` once shut down; dropping it ends the workers' loops after
    /// they drain the queue.
    jobs: Option<mpsc::Sender<QueuedJob<C, R>>>,
    counters: Arc<Counters>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl<C: WorkerCtx, R: Send + 'static> Scheduler<C, R> {
    /// Spawns a pool of `workers` threads (clamped to at least 1), each
    /// constructing its [`WorkerCtx`] up front.
    pub fn new(workers: usize) -> Scheduler<C, R> {
        let workers = workers.max(1);
        let (jobs, queue) = mpsc::channel();
        let queue = Arc::new(Mutex::new(queue));
        let counters = Arc::new(Counters::default());
        let threads = (0..workers)
            .map(|w| {
                let queue = Arc::clone(&queue);
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || worker_loop(w, &queue, &counters))
            })
            .collect();
        Scheduler { jobs: Some(jobs), counters, threads }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Submits a job to the back of the queue and returns its handle.
    pub fn submit<F>(&self, f: F) -> JobHandle<R>
    where
        F: FnOnce(&mut C) -> R + Send + 'static,
    {
        let cancelled = Arc::new(AtomicBool::new(false));
        let (reply, done) = mpsc::sync_channel(1);
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.jobs
            .as_ref()
            .expect("scheduler is running")
            .send(QueuedJob {
                fun: Box::new(f),
                cancelled: Arc::clone(&cancelled),
                reply,
                submitted: Instant::now(),
            })
            .expect("scheduler workers are alive");
        JobHandle { cancelled, reply: done }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            workers: self.workers(),
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            panicked: self.counters.panicked.load(Ordering::Relaxed),
        }
    }

    /// Closes the queue, drains every submitted job and joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.jobs = None;
        for t in self.threads.drain(..) {
            t.join().expect("scheduler worker thread");
        }
    }
}

impl<C: WorkerCtx, R: Send + 'static> Drop for Scheduler<C, R> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop<C: WorkerCtx, R>(
    worker: usize,
    queue: &Mutex<mpsc::Receiver<QueuedJob<C, R>>>,
    counters: &Counters,
) {
    let mut ctx = C::create(worker);
    loop {
        // The guard is a temporary of this statement: the lock is released
        // before the job runs.
        let Ok(job) = queue.lock().expect("job queue").recv() else {
            return; // the scheduler shut down and the queue is drained
        };
        let started = Instant::now();
        let queued = started.duration_since(job.submitted);
        let (outcome, run) = if job.cancelled.load(Ordering::Relaxed) {
            counters.cancelled.fetch_add(1, Ordering::Relaxed);
            (JobOutcome::Cancelled, Duration::ZERO)
        } else {
            let fun = job.fun;
            let result = catch_unwind(AssertUnwindSafe(|| fun(&mut ctx)));
            let run = started.elapsed();
            match result {
                Ok(r) => {
                    counters.completed.fetch_add(1, Ordering::Relaxed);
                    (JobOutcome::Completed(r), run)
                }
                Err(payload) => {
                    counters.panicked.fetch_add(1, Ordering::Relaxed);
                    // The panicking job may have left the warm context in
                    // an arbitrary state; rebuild it before the next job.
                    ctx = C::create(worker);
                    (JobOutcome::Panicked(panic_message(payload.as_ref())), run)
                }
            }
        };
        // A send fails only when the handle was dropped unwaited.
        let _ = job.reply.send(JobDone { outcome, stats: JobStats { queued, run, worker } });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_typed_and_heterogeneous() {
        let sched: Scheduler<(), Result<u64, String>> = Scheduler::new(2);
        let a = sched.submit(|_| Ok(41 + 1));
        let b = sched.submit(|_| Err("text".to_string()));
        assert_eq!(a.wait().expect_completed(), Ok(42));
        assert_eq!(b.wait().expect_completed(), Err("text".to_string()));
        let stats = sched.stats();
        assert_eq!((stats.submitted, stats.completed), (2, 2));
    }

    #[test]
    fn one_worker_runs_jobs_in_submission_order() {
        let sched: Scheduler<(), ()> = Scheduler::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..16u32)
            .map(|i| {
                let order = Arc::clone(&order);
                sched.submit(move |_| order.lock().unwrap().push(i))
            })
            .collect();
        handles.into_iter().for_each(|h| h.wait().expect_completed());
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
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
        let sched: Scheduler<Counter, u64> = Scheduler::new(1);
        let handles: Vec<_> = (0..5)
            .map(|_| {
                sched.submit(|ctx: &mut Counter| {
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
        let sched: Scheduler<(), ()> = Scheduler::new(1);
        // A blocker keeps the single worker busy long enough for the cancel
        // to land while the victim is still queued.
        let gate = Arc::new(AtomicBool::new(false));
        let blocker_gate = Arc::clone(&gate);
        let blocker = sched.submit(move |_| {
            while !blocker_gate.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
        });
        let ran = Arc::new(AtomicBool::new(false));
        let victim_ran = Arc::clone(&ran);
        let victim = sched.submit(move |_| victim_ran.store(true, Ordering::Relaxed));
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
        let sched: Scheduler<Tainted, bool> = Scheduler::new(1);
        let bad = sched.submit(|ctx: &mut Tainted| {
            ctx.0 = true;
            panic!("boom");
        });
        let after = sched.submit(|ctx: &mut Tainted| ctx.0);
        match bad.wait().outcome {
            JobOutcome::Panicked(msg) => assert!(msg.contains("boom")),
            other => panic!("expected panic outcome, got {other:?}"),
        }
        assert!(!after.wait().expect_completed(), "context was rebuilt after the panic");
        assert_eq!(sched.stats().panicked, 1);
    }

    #[test]
    fn job_stats_record_queue_and_run_time() {
        let sched: Scheduler<(), ()> = Scheduler::new(1);
        let done = sched.submit(|_| std::thread::sleep(Duration::from_millis(2))).wait();
        assert!(done.stats.run >= Duration::from_millis(2));
        assert_eq!(done.stats.worker, 0);
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let sched: Scheduler<(), u32> = Scheduler::new(2);
        let handles: Vec<_> = (0..16u32).map(|i| sched.submit(move |_| i * i)).collect();
        sched.shutdown();
        let out: Vec<u32> = handles.into_iter().map(|h| h.wait().expect_completed()).collect();
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }
}
