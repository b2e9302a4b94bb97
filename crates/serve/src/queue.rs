//! Bounded job queue with request coalescing.
//!
//! The queue is the daemon's admission controller:
//!
//! - **Bounded**: at most `capacity` jobs may be *queued* (accepted but
//!   not yet picked up by a worker). A submission that would exceed it
//!   fails whole with [`Submit::Full`] and the server answers `busy` +
//!   `retry_after_ms` — backpressure instead of unbounded memory.
//! - **Coalescing**: jobs are keyed by the spec's content hash. A second
//!   submission of an in-flight hash joins the existing job and shares
//!   its one result — two clients asking for the same spec cost one
//!   simulation.
//! - **Draining**: [`JobQueue::close`] stops admission, but workers keep
//!   popping until the queue is empty, so every accepted job completes
//!   and every waiter is woken. Nothing accepted is ever abandoned.
//!
//! The in-flight map holds a job from submission until
//! [`JobQueue::complete`] — including while it executes — so latecomers
//! coalesce with *running* work, not just queued work.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use supermarq_obs::TraceContext;
use supermarq_store::{RunSpec, SweepResult};

/// One unit of work: a spec, a slot its result lands in, and the
/// telemetry a traced request wants back (queue wait, execute time,
/// the submitter's trace link).
#[derive(Debug)]
pub(crate) struct Job {
    /// The spec to resolve.
    pub spec: RunSpec,
    /// Trace context of the *first* submitter (coalesced joiners share
    /// it): the worker parents its execute span here, so a trace shows
    /// the simulation under the request that actually caused it.
    pub link: Option<TraceContext>,
    /// When the job was admitted (queue wait starts here).
    submitted: Instant,
    /// Nanoseconds spent queued before a worker picked the job up.
    queue_ns: AtomicU64,
    /// Nanoseconds the worker spent resolving the job.
    execute_ns: AtomicU64,
    result: Mutex<Option<SweepResult>>,
    done: Condvar,
}

impl Job {
    fn new(spec: RunSpec, link: Option<TraceContext>) -> Arc<Job> {
        Arc::new(Job {
            spec,
            link,
            submitted: Instant::now(),
            queue_ns: AtomicU64::new(0),
            execute_ns: AtomicU64::new(0),
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    /// Blocks until the job completes and returns its result. Safe to
    /// call from any number of coalesced waiters.
    pub(crate) fn wait(&self) -> SweepResult {
        let mut slot = self.result.lock().unwrap();
        while slot.is_none() {
            slot = self.done.wait(slot).unwrap();
        }
        slot.clone().unwrap()
    }

    /// Stamps the end of the queue-wait phase; called by the worker
    /// that pops the job, before executing it.
    pub(crate) fn mark_dequeued(&self) {
        self.queue_ns.store(
            self.submitted.elapsed().as_nanos() as u64,
            Ordering::Relaxed,
        );
    }

    /// Records how long the worker spent resolving the job.
    pub(crate) fn set_execute_ns(&self, ns: u64) {
        self.execute_ns.store(ns, Ordering::Relaxed);
    }

    /// Nanoseconds spent queued (0 until [`Job::mark_dequeued`]).
    pub(crate) fn queue_ns(&self) -> u64 {
        self.queue_ns.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent executing (0 until the worker finishes).
    pub(crate) fn execute_ns(&self) -> u64 {
        self.execute_ns.load(Ordering::Relaxed)
    }

    fn complete(&self, result: SweepResult) {
        *self.result.lock().unwrap() = Some(result);
        self.done.notify_all();
    }
}

/// Why a submission was refused.
#[derive(Debug)]
pub(crate) enum Submit {
    /// Queue at capacity — retry later.
    Full,
    /// Queue closed — the daemon is draining.
    Closed,
}

#[derive(Default)]
struct QueueState {
    /// Accepted, not yet picked up by a worker.
    queued: VecDeque<Arc<Job>>,
    /// Hash → job, from submission until completion (spans execution).
    inflight: HashMap<String, Arc<Job>>,
    closed: bool,
}

/// The bounded, coalescing job queue shared by connection handlers
/// (producers) and workers (consumers).
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    /// Signalled on enqueue and close; workers wait on it.
    available: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// A queue admitting at most `capacity` queued jobs (minimum 1).
    pub(crate) fn new(capacity: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Submits specs atomically: either every spec is admitted (as a new
    /// job or by joining an in-flight twin — duplicates among the specs
    /// coalesce too) or none is and the submission gets one `Full` /
    /// `Closed` answer. Returns one job per input spec, in order, plus
    /// how many coalesced. `link` is the submitter's trace context; it
    /// sticks only to jobs this submission creates (joiners inherit the
    /// first submitter's link).
    pub(crate) fn submit_all(
        &self,
        specs: &[RunSpec],
        link: Option<TraceContext>,
    ) -> Result<(Vec<Arc<Job>>, u64), Submit> {
        // Hash before taking the lock: workers and other connections
        // need not wait while a large batch is hashed.
        let hashes: Vec<String> = specs.iter().map(RunSpec::content_hash).collect();
        let mut state = self.state.lock().unwrap();
        if state.closed {
            return Err(Submit::Closed);
        }
        // First pass: count the genuinely new hashes so admission is
        // all-or-nothing under one lock, stopping at the first one that
        // does not fit.
        let mut fresh: HashSet<&str> = HashSet::new();
        for hash in &hashes {
            if !state.inflight.contains_key(hash)
                && fresh.insert(hash)
                && state.queued.len() + fresh.len() > self.capacity
            {
                return Err(Submit::Full);
            }
        }
        let mut jobs = Vec::with_capacity(specs.len());
        let mut coalesced = 0u64;
        for (spec, hash) in specs.iter().zip(&hashes) {
            if let Some(job) = state.inflight.get(hash) {
                coalesced += 1;
                jobs.push(Arc::clone(job));
                continue;
            }
            let job = Job::new(spec.clone(), link);
            state.inflight.insert(hash.clone(), Arc::clone(&job));
            state.queued.push_back(Arc::clone(&job));
            self.available.notify_one();
            jobs.push(job);
        }
        Ok((jobs, coalesced))
    }

    /// Blocks until a job is available and pops it. Returns `None` only
    /// when the queue is closed **and** drained — the worker-loop exit
    /// condition that guarantees every accepted job completes.
    pub(crate) fn pop(&self) -> Option<Arc<Job>> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(job) = state.queued.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap();
        }
    }

    /// Publishes `result`, wakes every waiter, and retires the hash so
    /// future submissions start a fresh job.
    pub(crate) fn complete(&self, job: &Job, result: SweepResult) {
        let mut state = self.state.lock().unwrap();
        state.inflight.remove(&job.spec.content_hash());
        drop(state);
        job.complete(result);
    }

    /// Jobs accepted but not yet picked up by a worker.
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().unwrap().queued.len()
    }

    /// Jobs between submission and completion — queued *plus*
    /// executing. The in-flight gauge the `metrics` op exposes.
    pub(crate) fn inflight(&self) -> usize {
        self.state.lock().unwrap().inflight.len()
    }

    /// Stops admission. Workers drain what was already accepted.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_store::{RunOutcome, RunRecord};

    fn spec(seed: u64) -> RunSpec {
        RunSpec::new(
            "ghz",
            vec![("size".into(), "3".into())],
            "IonQ",
            10,
            1,
            seed,
        )
    }

    fn result_for(spec: &RunSpec) -> SweepResult {
        SweepResult {
            spec: spec.clone(),
            from_cache: false,
            store_error: false,
            outcome: Ok(RunRecord {
                spec: spec.clone(),
                outcome: RunOutcome {
                    scores: vec![0.5],
                    swap_count: 0,
                    two_qubit_gates: 1,
                },
            }),
        }
    }

    /// Submits one spec: its job, and whether it joined an in-flight
    /// twin.
    fn submit(queue: &JobQueue, seed: u64) -> Result<(Arc<Job>, bool), Submit> {
        let (mut jobs, coalesced) = queue.submit_all(&[spec(seed)], None)?;
        Ok((jobs.remove(0), coalesced == 1))
    }

    #[test]
    fn duplicate_submissions_coalesce_onto_one_job() {
        let queue = JobQueue::new(4);
        let (first, joined) = submit(&queue, 1).unwrap();
        assert!(!joined);
        // Same hash joins — even after a worker picked the job up.
        assert!(submit(&queue, 1).unwrap().1);
        let picked = queue.pop().unwrap();
        assert!(submit(&queue, 1).unwrap().1);
        assert_eq!(queue.depth(), 0);
        queue.complete(&picked, result_for(&picked.spec));
        assert_eq!(first.wait().spec, spec(1));
        // Completion retires the hash: the next submission is new work.
        assert!(!submit(&queue, 1).unwrap().1);
    }

    #[test]
    fn capacity_rejects_with_full_but_joins_still_succeed() {
        let queue = JobQueue::new(2);
        assert!(!submit(&queue, 1).unwrap().1);
        assert!(!submit(&queue, 2).unwrap().1);
        assert!(matches!(submit(&queue, 3), Err(Submit::Full)));
        // Coalescing costs no slot, so it succeeds even at capacity.
        assert!(submit(&queue, 1).unwrap().1);
    }

    #[test]
    fn batch_admission_is_all_or_nothing_with_in_batch_coalescing() {
        let queue = JobQueue::new(2);
        // 3 specs, 2 unique → fits in capacity 2, one coalesced.
        let (jobs, coalesced) = queue
            .submit_all(&[spec(1), spec(2), spec(1)], None)
            .unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(coalesced, 1);
        assert!(Arc::ptr_eq(&jobs[0], &jobs[2]));
        assert_eq!(queue.depth(), 2);
        // A batch that does not fit is rejected whole: nothing enqueued.
        assert!(matches!(
            queue.submit_all(&[spec(3), spec(4), spec(5)], None),
            Err(Submit::Full)
        ));
        assert_eq!(queue.depth(), 2);
        // But a batch made entirely of joins is free.
        let (joined, n) = queue.submit_all(&[spec(1), spec(2)], None).unwrap();
        assert_eq!((joined.len(), n), (2, 2));
    }

    #[test]
    fn close_drains_accepted_work_then_stops_workers() {
        let queue = Arc::new(JobQueue::new(8));
        let jobs: Vec<_> = (0..4).map(|i| submit(&queue, i).unwrap().0).collect();
        queue.close();
        assert!(matches!(submit(&queue, 99), Err(Submit::Closed)));
        // A worker still sees all four, then the stop signal.
        let mut served = 0;
        while let Some(job) = queue.pop() {
            queue.complete(&job, result_for(&job.spec));
            served += 1;
        }
        assert_eq!(served, 4);
        for job in jobs {
            assert!(job.wait().outcome.is_ok());
        }
    }

    #[test]
    fn waiters_block_until_completion_across_threads() {
        let queue = Arc::new(JobQueue::new(4));
        let (job, _) = submit(&queue, 5).unwrap();
        let waiter = {
            let job = Arc::clone(&job);
            std::thread::spawn(move || job.wait())
        };
        let picked = queue.pop().unwrap();
        queue.complete(&picked, result_for(&picked.spec));
        assert_eq!(waiter.join().unwrap().spec, spec(5));
    }
}
