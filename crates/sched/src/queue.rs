//! The work-stealing queue underneath [`Scheduler`](crate::Scheduler) and
//! [`scoped_map`](crate::scoped_map).
//!
//! One [`WorkQueue`] serves a fixed set of workers. Jobs enter either
//! through the *injector* — a FIFO shared by every worker — or through a
//! worker's *local* deque ([`WorkQueue::push_local`], used to pre-shard a
//! batch). A worker takes, in order: the front of its own local deque, the
//! front of the injector, then the *back* of the longest other local deque
//! (a steal). Stealing is what keeps stragglers from
//! idling the rest of the pool: a worker stuck on one expensive job simply
//! loses the rest of its shard to its peers.
//!
//! All queue state sits behind one mutex; workers touch it once per job, so
//! for the job granularities this workspace schedules (whole protection
//! pipelines, whole DSE attacks) contention is immaterial.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct State<J> {
    injector: VecDeque<J>,
    locals: Vec<VecDeque<J>>,
    closed: bool,
    stolen: u64,
}

/// A blocking multi-producer work-stealing queue for a fixed worker set.
///
/// The injector serves [`Scheduler`](crate::Scheduler) submissions in
/// arrival order; per-worker deques plus stealing are what let pre-sharded
/// [`scoped_map`](crate::scoped_map) batches rebalance around slow items.
pub struct WorkQueue<J> {
    state: Mutex<State<J>>,
    signal: Condvar,
}

impl<J> WorkQueue<J> {
    /// Creates a queue for `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> WorkQueue<J> {
        let workers = workers.max(1);
        WorkQueue {
            state: Mutex::new(State {
                injector: VecDeque::new(),
                locals: (0..workers).map(|_| VecDeque::new()).collect(),
                closed: false,
                stolen: 0,
            }),
            signal: Condvar::new(),
        }
    }

    /// The number of workers this queue was sized for.
    pub fn workers(&self) -> usize {
        self.state.lock().expect("queue lock").locals.len()
    }

    /// Pushes a job onto the back of the shared injector. No-op after
    /// [`close`](WorkQueue::close).
    pub fn push(&self, job: J) {
        let mut st = self.state.lock().expect("queue lock");
        if st.closed {
            return;
        }
        st.injector.push_back(job);
        drop(st);
        self.signal.notify_one();
    }

    /// Pushes a job onto `worker`'s local deque (back). Used to pre-shard a
    /// batch; stealing rebalances whatever sharding gets wrong.
    pub fn push_local(&self, worker: usize, job: J) {
        let mut st = self.state.lock().expect("queue lock");
        if st.closed {
            return;
        }
        st.locals[worker].push_back(job);
        drop(st);
        self.signal.notify_one();
    }

    /// Closes the queue: no further pushes are accepted, and once the
    /// remaining jobs drain, every blocked [`pop`](WorkQueue::pop) returns
    /// `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.signal.notify_all();
    }

    /// Blocking dequeue for `worker`: own local front, then the injector,
    /// then a steal from the back of the longest other local deque. Returns
    /// `None` only when the queue is closed and fully drained.
    pub fn pop(&self, worker: usize) -> Option<J> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = st.locals[worker].pop_front() {
                return Some(job);
            }
            if let Some(job) = st.injector.pop_front() {
                return Some(job);
            }
            let victim = (0..st.locals.len())
                .filter(|&v| v != worker)
                .max_by_key(|&v| st.locals[v].len())
                .filter(|&v| !st.locals[v].is_empty());
            if let Some(v) = victim {
                let job = st.locals[v].pop_back().expect("victim non-empty");
                st.stolen += 1;
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.signal.wait(st).expect("queue lock");
        }
    }

    /// Number of jobs that were stolen from another worker's local deque.
    pub fn stolen(&self) -> u64 {
        self.state.lock().expect("queue lock").stolen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_runs_jobs_in_submission_order() {
        let q: WorkQueue<u32> = WorkQueue::new(1);
        for job in [3, 1, 4, 2] {
            q.push(job);
        }
        q.close();
        let order: Vec<u32> = std::iter::from_fn(|| q.pop(0)).collect();
        assert_eq!(order, vec![3, 1, 4, 2]);
    }

    #[test]
    fn local_jobs_are_stolen_when_a_worker_never_shows_up() {
        let q: WorkQueue<u32> = WorkQueue::new(2);
        q.push_local(1, 10);
        q.push_local(1, 11);
        q.close();
        // Worker 0 drains worker 1's shard from the back.
        assert_eq!(q.pop(0), Some(11));
        assert_eq!(q.pop(0), Some(10));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.stolen(), 2);
    }

    #[test]
    fn own_local_beats_injector_beats_steal() {
        let q: WorkQueue<u32> = WorkQueue::new(2);
        q.push_local(0, 1);
        q.push(2);
        q.push_local(1, 3);
        q.close();
        assert_eq!(q.pop(0), Some(1), "own local first");
        assert_eq!(q.pop(0), Some(2), "then injector");
        assert_eq!(q.pop(0), Some(3), "then steal");
    }

    #[test]
    fn pushes_after_close_are_dropped() {
        let q: WorkQueue<u32> = WorkQueue::new(1);
        q.close();
        q.push(1);
        q.push_local(0, 2);
        assert_eq!(q.pop(0), None);
    }
}
