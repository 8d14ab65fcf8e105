//! # pbc-par
//!
//! A dependency-free, persistent, work-stealing thread pool for the
//! sweep hot path.
//!
//! The oracle sweep used to spawn scoped threads per call with static
//! chunking. That load-imbalances badly: infeasible allocations are
//! ~100x cheaper to reject than feasible ones are to solve, so one
//! static chunk can hold all the expensive points while the other
//! workers idle. This pool keeps its threads alive across calls and
//! splits each job into many small index ranges that idle executors
//! steal from busy ones.
//!
//! ## Execution model
//!
//! [`Pool::run`] executes `task(i)` for every `i in 0..n`, on the
//! calling thread *and* the pool's persistent workers. The call blocks
//! until every index is accounted for (run to completion, or skipped
//! after a cancellation), so `task` may borrow from the caller's stack.
//!
//! * **Sizing** — [`configured_threads`] honors the `PBC_THREADS`
//!   environment variable and falls back to
//!   `std::thread::available_parallelism()`. [`Pool::global`] is a
//!   process-wide pool of that size; it records the one-time
//!   `pool.threads` trace gauge so restricted environments that
//!   silently serialize are observable.
//! * **Panic contract** — a panicking task cancels the remaining
//!   indices (they are *accounted* but not *completed*) and the first
//!   panic payload is handed back in [`JobStats::panic`]. The caller
//!   decides how to account the loss (the sweep adds
//!   `n - completed` to `sweep.points_lost`) and then re-raises with
//!   `std::panic::resume_unwind`. Panics are never swallowed.
//! * **Re-entrancy** — a task that calls back into the pool runs the
//!   nested job inline on its own thread. Nested jobs never deadlock
//!   on the submission lock and never oversubscribe.
//! * **Tracing** — each job increments `pool.jobs`; every stolen range
//!   adds to `pool.steals`.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Number of executors a pool should use: the `PBC_THREADS` environment
/// variable when set to a positive integer, otherwise the machine's
/// available parallelism, floored at 1. Every thread-sizing decision in
/// the workspace goes through this so one knob controls them all.
///
/// `PBC_THREADS=0` clamps to 1 (serial) with a one-time warning on
/// stderr. It used to fall back to the machine's full parallelism —
/// the opposite of what a `0` plausibly meant to whoever exported it
/// ("as little as possible"), and a silent way for a misconfigured
/// deployment to oversubscribe a host it was told to go easy on.
/// Unparseable values still fall back to available parallelism.
pub fn configured_threads() -> usize {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var("PBC_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(0) => {
                warn_zero_threads_once();
                1
            }
            Ok(n) => n,
            Err(_) => fallback(),
        },
        Err(_) => fallback(),
    }
}

/// One warning per process, not one per pool construction.
fn warn_zero_threads_once() {
    static WARNED: AtomicBool = AtomicBool::new(false);
    if !WARNED.swap(true, Ordering::Relaxed) {
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr(),
            "pbc-par: PBC_THREADS=0 is not a valid executor count; clamping to 1 (serial)"
        );
    }
}

/// What happened to a job: how many indices ran to completion, how many
/// ranges were stolen, and the first panic payload if any task panicked.
#[must_use = "a job's panic payload must be re-raised or explicitly dropped"]
pub struct JobStats {
    /// Indices whose task ran to completion.
    pub completed: usize,
    /// Ranges executed by an executor that did not own them.
    pub steals: u64,
    /// First panic payload, if any task panicked. When this is `Some`,
    /// `completed < n` and the difference is the loss to account.
    pub panic: Option<Box<dyn Any + Send>>,
}

impl JobStats {
    fn empty() -> Self {
        JobStats { completed: 0, steals: 0, panic: None }
    }
}

/// Lock a mutex, treating poisoning as benign: the pool's own state is
/// only mutated under panic-free code paths (task panics are caught per
/// item), so a poisoned lock still holds consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A job with its closure lifetimes erased. Soundness: `run_pooled`
/// does not return until `accounted == n` *and* `active == 0`, and the
/// job is unpublished before that check completes, so no executor can
/// touch `task`/`wrap` after the borrowed closures go out of scope.
struct ErasedJob {
    seq: u64,
    n: usize,
    task: &'static (dyn Fn(usize) + Sync),
    wrap: &'static (dyn Fn(&mut dyn FnMut()) + Sync),
    /// Indices accounted for: run to completion, panicked, or skipped
    /// after cancellation. The job is done when this reaches `n`.
    accounted: AtomicUsize,
    completed: AtomicUsize,
    steals: AtomicU64,
    cancelled: AtomicBool,
    /// Workers currently inside `wrap` for this job. `run_pooled` waits
    /// for zero so the borrowed closures outlive every dereference.
    active: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ErasedJob {
    /// Record the first panic payload and cancel the remaining work.
    fn note_panic(&self, payload: Box<dyn Any + Send>) {
        self.cancelled.store(true, Ordering::Release);
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

struct Signal {
    job: Option<Arc<ErasedJob>>,
    shutdown: bool,
}

struct Shared {
    /// One chunk deque per executor slot (slot 0 is the calling thread).
    queues: Vec<Mutex<VecDeque<Range<usize>>>>,
    signal: Mutex<Signal>,
    /// Workers park here between jobs.
    to_workers: Condvar,
    /// The submitting thread parks here while waiting for completion.
    to_caller: Condvar,
}

thread_local! {
    /// True while this thread is executing pool work (worker threads
    /// always; the submitting thread during its participation). Nested
    /// [`Pool::run`] calls detect this and execute inline.
    static IN_POOL: std::cell::Cell<bool> = std::cell::Cell::new(false);
}

/// A persistent work-stealing thread pool. See the crate docs for the
/// execution model. Dropping the pool shuts its workers down.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes job submission: one job in flight at a time.
    submission: Mutex<()>,
    next_seq: AtomicU64,
}

impl Pool {
    /// Build a pool with `threads` total executors: the calling thread
    /// plus `threads - 1` persistent workers. `threads` is floored at 1
    /// (a one-thread pool runs everything inline on the caller).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            signal: Mutex::new(Signal { job: None, shutdown: false }),
            to_workers: Condvar::new(),
            to_caller: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(threads.saturating_sub(1));
        for slot in 1..threads {
            let shared = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("pbc-par-{slot}"));
            // A failed spawn degrades capacity instead of failing the
            // pool: the slot's queue is still drained via stealing.
            if let Ok(handle) = builder.spawn(move || worker_loop(&shared, slot)) {
                workers.push(handle);
            }
        }
        Pool { shared, workers, submission: Mutex::new(()), next_seq: AtomicU64::new(1) }
    }

    /// The process-wide pool, sized by [`configured_threads`]. First use
    /// records the `pool.threads` trace gauge so a silently serialized
    /// environment shows up in any exported trace.
    pub fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = configured_threads();
            pbc_trace::gauge(pbc_trace::names::POOL_THREADS).set(threads as f64);
            Pool::new(threads)
        })
    }

    /// Total executors (calling thread + persistent workers as sized at
    /// construction; spawn failures may leave fewer live workers).
    pub fn threads(&self) -> usize {
        self.shared.queues.len()
    }

    /// Run `task(i)` for every `i in 0..n` across the pool. Blocks until
    /// all indices are accounted for. See the crate docs for the panic
    /// contract.
    pub fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync)) -> JobStats {
        self.run_wrapped(n, &|inner: &mut dyn FnMut()| inner(), task)
    }

    /// Like [`Pool::run`], but each participating executor invokes
    /// `wrap` once around its whole share of the job. The sweep uses
    /// this to open one `sweep.worker` trace span per executor instead
    /// of one per point.
    pub fn run_wrapped(
        &self,
        n: usize,
        wrap: &(dyn Fn(&mut dyn FnMut()) + Sync),
        task: &(dyn Fn(usize) + Sync),
    ) -> JobStats {
        if n == 0 {
            return JobStats::empty();
        }
        if IN_POOL.with(|f| f.get()) {
            // Nested call from inside pool work: execute inline to avoid
            // deadlocking on the submission lock or oversubscribing.
            return run_inline(n, wrap, task);
        }
        self.run_pooled(n, wrap, task)
    }

    fn run_pooled(
        &self,
        n: usize,
        wrap: &(dyn Fn(&mut dyn FnMut()) + Sync),
        task: &(dyn Fn(usize) + Sync),
    ) -> JobStats {
        let _one_job_at_a_time = lock(&self.submission);

        static COUNTERS: OnceLock<(pbc_trace::Counter, pbc_trace::Counter)> = OnceLock::new();
        let (jobs_c, steals_c) = COUNTERS.get_or_init(|| {
            (
                pbc_trace::counter(pbc_trace::names::POOL_JOBS),
                pbc_trace::counter(pbc_trace::names::POOL_STEALS),
            )
        });
        jobs_c.incr();

        // SAFETY: lifetime erasure only. This function does not return
        // until every executor has left the job (`active == 0`) and the
        // job is unpublished, so the erased references never outlive
        // the real closures borrowed from our caller's frame.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        let wrap: &'static (dyn Fn(&mut dyn FnMut()) + Sync) = unsafe {
            std::mem::transmute::<
                &(dyn Fn(&mut dyn FnMut()) + Sync),
                &'static (dyn Fn(&mut dyn FnMut()) + Sync),
            >(wrap)
        };

        let job = Arc::new(ErasedJob {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            n,
            task,
            wrap,
            accounted: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });

        // Chunk the index space finely enough that stealing can balance
        // wildly uneven point costs, but coarsely enough that the
        // per-range locking stays in the noise.
        let k = self.shared.queues.len();
        let chunk = (n / (k * 8)).clamp(1, 64);
        let mut start = 0;
        let mut q = 0;
        while start < n {
            let end = (start + chunk).min(n);
            lock(&self.shared.queues[q % k]).push_back(start..end);
            q += 1;
            start = end;
        }

        {
            let mut sig = lock(&self.shared.signal);
            sig.job = Some(Arc::clone(&job));
        }
        self.shared.to_workers.notify_all();

        // The submitting thread is executor 0.
        let prev = IN_POOL.with(|f| f.replace(true));
        let participated = catch_unwind(AssertUnwindSafe(|| {
            wrap(&mut || drain(&self.shared, &job, 0));
        }));
        IN_POOL.with(|f| f.set(prev));
        if let Err(payload) = participated {
            job.note_panic(payload);
            // The wrap itself died before (or while) draining; sweep up
            // whatever is still queued so the job can complete. With the
            // job cancelled this only accounts skips.
            drain(&self.shared, &job, 0);
        }

        // Wait until every index is accounted and every worker has left
        // the job's closures, then unpublish it.
        {
            let mut sig = lock(&self.shared.signal);
            while !(job.accounted.load(Ordering::Acquire) == job.n
                && job.active.load(Ordering::Acquire) == 0)
            {
                sig = self
                    .shared
                    .to_caller
                    .wait(sig)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            sig.job = None;
        }

        let steals = job.steals.load(Ordering::Relaxed);
        steals_c.add(steals);
        let panic = lock(&job.panic).take();
        JobStats { completed: job.completed.load(Ordering::Relaxed), steals, panic }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut sig = lock(&self.shared.signal);
            sig.shutdown = true;
        }
        self.shared.to_workers.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// [`Pool::run_wrapped`] on the calling thread alone: the same
/// task/wrap/panic semantics, with no pool, no extra threads and no
/// `pool.*` accounting. Nested (re-entrant) pool jobs run this way, and
/// so does work a caller keeps on its own thread.
pub fn run_inline(
    n: usize,
    wrap: &(dyn Fn(&mut dyn FnMut()) + Sync),
    task: &(dyn Fn(usize) + Sync),
) -> JobStats {
    let mut completed = 0usize;
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    wrap(&mut || {
        for i in 0..n {
            if first_panic.is_some() {
                continue; // cancelled: account by skipping
            }
            match catch_unwind(AssertUnwindSafe(|| task(i))) {
                Ok(()) => completed += 1,
                Err(payload) => first_panic = Some(payload),
            }
        }
    });
    JobStats { completed, steals: 0, panic: first_panic }
}

/// Pop the next range for `slot`: own queue front first, then steal from
/// the back of the other executors' queues.
fn next_range(shared: &Shared, slot: usize) -> Option<(Range<usize>, bool)> {
    if let Some(r) = lock(&shared.queues[slot]).pop_front() {
        return Some((r, false));
    }
    let k = shared.queues.len();
    for offset in 1..k {
        let victim = (slot + offset) % k;
        if let Some(r) = lock(&shared.queues[victim]).pop_back() {
            return Some((r, true));
        }
    }
    None
}

/// Execute ranges for `job` until no work is left anywhere. Each index
/// is accounted exactly once: completed, panicked, or skipped after
/// cancellation.
fn drain(shared: &Shared, job: &ErasedJob, slot: usize) {
    while let Some((range, stolen)) = next_range(shared, slot) {
        if stolen {
            job.steals.fetch_add(1, Ordering::Relaxed);
        }
        for idx in range {
            if job.cancelled.load(Ordering::Acquire) {
                job.accounted.fetch_add(1, Ordering::Release);
                continue;
            }
            match catch_unwind(AssertUnwindSafe(|| (job.task)(idx))) {
                Ok(()) => {
                    job.completed.fetch_add(1, Ordering::Relaxed);
                    job.accounted.fetch_add(1, Ordering::Release);
                }
                Err(payload) => {
                    job.note_panic(payload);
                    job.accounted.fetch_add(1, Ordering::Release);
                }
            }
        }
    }
    // Wake the submitter under the signal lock so the wakeup cannot
    // race its condition check.
    let _sig = lock(&shared.signal);
    shared.to_caller.notify_all();
}

fn worker_loop(shared: &Shared, slot: usize) {
    IN_POOL.with(|f| f.set(true));
    let mut last_seq = 0u64;
    loop {
        let job: Arc<ErasedJob> = {
            let mut sig = lock(&shared.signal);
            loop {
                if sig.shutdown {
                    return;
                }
                if let Some(job) = &sig.job {
                    if job.seq != last_seq {
                        last_seq = job.seq;
                        // Register while holding the signal lock: the
                        // submitter checks `active == 0` under the same
                        // lock, so it cannot unpublish the job between
                        // our clone and this increment.
                        job.active.fetch_add(1, Ordering::AcqRel);
                        break Arc::clone(job);
                    }
                }
                sig = shared
                    .to_workers
                    .wait(sig)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let participated = catch_unwind(AssertUnwindSafe(|| {
            (job.wrap)(&mut || drain(shared, &job, slot));
        }));
        if let Err(payload) = participated {
            job.note_panic(payload);
            drain(shared, &job, slot);
        }
        job.active.fetch_sub(1, Ordering::AcqRel);
        let _sig = lock(&shared.signal);
        shared.to_caller.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executes_every_index_exactly_once() {
        let pool = Pool::new(4);
        let n = 1003;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let stats = pool.run(n, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.completed, n);
        assert!(stats.panic.is_none());
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn reusable_across_jobs() {
        let pool = Pool::new(3);
        for round in 1..=5usize {
            let n = round * 37;
            let sum = AtomicUsize::new(0);
            let stats = pool.run(n, &|i| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            assert_eq!(stats.completed, n);
            assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
        }
    }

    #[test]
    fn results_identical_across_pool_sizes() {
        let compute = |pool: &Pool| -> Vec<f64> {
            let n = 257;
            let out: Vec<Mutex<f64>> = (0..n).map(|_| Mutex::new(0.0)).collect();
            let stats = pool.run(n, &|i| {
                *lock(&out[i]) = (i as f64 + 0.5).sqrt().sin();
            });
            assert_eq!(stats.completed, n);
            out.iter().map(|m| *lock(m)).collect()
        };
        let one = compute(&Pool::new(1));
        let two = compute(&Pool::new(2));
        let eight = compute(&Pool::new(8));
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn imbalanced_work_gets_stolen() {
        // Executor 0 (the caller) owns chunks that include a slow item;
        // the worker drains its own queue and then must steal the
        // caller's remaining chunks to finish the job.
        let pool = Pool::new(2);
        let n = 64;
        let stats = pool.run(n, &|i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
        });
        assert_eq!(stats.completed, n);
        assert!(stats.steals > 0, "expected the idle executor to steal");
    }

    #[test]
    fn panic_is_reported_not_swallowed() {
        let pool = Pool::new(2);
        let n = 100;
        let stats = pool.run(n, &|i| {
            assert!(i != 17, "injected failure");
        });
        assert!(stats.panic.is_some(), "panic payload lost");
        assert!(stats.completed < n, "the panicked index must not count as completed");
    }

    #[test]
    fn nested_run_executes_inline() {
        let pool = Pool::new(2);
        let inner_total = AtomicUsize::new(0);
        let stats = pool.run(4, &|_| {
            let inner = Pool::global().run(10, &|_| {
                inner_total.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(inner.completed, 10);
        });
        assert_eq!(stats.completed, 4);
        assert_eq!(inner_total.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn zero_items_is_a_noop() {
        let pool = Pool::new(2);
        let stats = pool.run(0, &|_| unreachable!("no items to run"));
        assert_eq!(stats.completed, 0);
        assert!(stats.panic.is_none());
    }

    #[test]
    fn wrap_runs_once_per_participating_executor() {
        let pool = Pool::new(2);
        let wraps = AtomicUsize::new(0);
        let stats = pool.run_wrapped(
            200,
            &|inner| {
                wraps.fetch_add(1, Ordering::Relaxed);
                inner();
            },
            &|_| std::thread::sleep(std::time::Duration::from_micros(50)),
        );
        assert_eq!(stats.completed, 200);
        let w = wraps.load(Ordering::Relaxed);
        assert!((1..=2).contains(&w), "wrap ran {w} times for 2 executors");
    }

    #[test]
    fn configured_threads_honors_env() {
        // Process-global env var: this is the only test that writes it.
        std::env::set_var("PBC_THREADS", "3");
        assert_eq!(configured_threads(), 3);
        std::env::set_var("PBC_THREADS", "not-a-number");
        assert!(configured_threads() >= 1);
        // Zero clamps to serial — it must NOT fall back to the machine's
        // full parallelism like an unset or unparseable value does.
        std::env::set_var("PBC_THREADS", "0");
        assert_eq!(configured_threads(), 1);
        std::env::set_var("PBC_THREADS", " 0 ");
        assert_eq!(configured_threads(), 1, "whitespace-padded zero also clamps");
        std::env::remove_var("PBC_THREADS");
        assert!(configured_threads() >= 1);
    }
}
