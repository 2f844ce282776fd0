//! In-tree scoped worker pool for deterministic fan-out/merge.
//!
//! The workspace is hermetic (no rayon), so this crate provides the one
//! primitive the engine and the bench runner need: run `N` independent
//! tasks on a fixed set of persistent workers and hand the results back
//! **in task-index order**. Determinism is the caller's contract — a
//! task may only touch state disjoint from every other task's — and the
//! pool's contract is that the returned `Vec` is ordered by task index,
//! so a sequential merge over it reproduces the single-threaded fold
//! order bit-for-bit.
//!
//! Design, sized for per-simulation-step batches (tens of microseconds
//! of work, dispatched tens of thousands of times per simulated day):
//!
//! * **Persistent workers.** [`ExecPool::new`] spawns `threads - 1`
//!   workers once; [`ExecPool::run`] never spawns. (A scoped-thread
//!   pool would pay ~10 µs of spawn latency per worker per batch —
//!   more than the batch itself.)
//! * **Epoch dispatch with a spin fast-path.** Each batch bumps an
//!   epoch. Idle workers spin briefly on the epoch atomic before
//!   sleeping on a condvar, so back-to-back batches (the step loop)
//!   avoid futex round-trips.
//! * **Mutex-guarded task claiming.** Workers claim task indices under
//!   the batch mutex. Batches here are coarse (one task per shard, a
//!   handful of shards), so a lock per claim is noise — and it makes
//!   stale execution impossible by construction: a worker can only
//!   observe the current batch's job pointer.
//! * **Caller participation.** The calling thread claims tasks too,
//!   then waits on a completion counter; `threads = N` means `N` CPUs
//!   are busy, not `N + 1` threads fighting over `N` cores.
//!
//! A panicking task does not poison the pool: the panic is caught,
//! the batch completes, and the payload is re-thrown on the caller.
//!
//! ```
//! use baat_exec::ExecPool;
//!
//! let pool = ExecPool::new(4);
//! let squares = pool.run(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```
//!
//! # Metering
//!
//! [`ExecPool::set_metering`] turns on per-thread execution counters:
//! busy nanoseconds and task counts per thread (index 0 is the caller),
//! batch counts, batch wall time, and the caller's post-drain *merge
//! wait* — the time the calling thread spends waiting for stragglers
//! after the task cursor drains, which is exactly the serialization
//! cost a sharded stage pays over its slowest shard. Metering is off by
//! default and its disabled cost is a single relaxed atomic load per
//! batch: no clock reads, no allocation. Counters are relaxed atomics
//! read after the fact — they never influence task scheduling.

#![deny(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Iterations an idle worker spins on the epoch atomic before sleeping
/// on the condvar. Sized to cover the inter-batch gap of a hot step
/// loop (~1 µs) without burning a core when the pool is actually idle.
const SPIN_BUDGET: u32 = 4_096;

/// Lifetime-erased reference to the current batch's task closure. The
/// `'static` is a lie told once, inside `ExecPool::dispatch`: the
/// pointee lives on the caller's stack, and the erasure is sound
/// because a worker only obtains a `Job` under the batch mutex in the
/// same critical section that claims a task index — so it is always the
/// *current* batch's closure — and `dispatch` blocks on the completion
/// counter until every claimed task has executed before returning.
#[derive(Clone, Copy)]
struct Job(&'static (dyn Fn(usize) + Sync));

/// The current batch, guarded by one mutex: workers read the job and
/// claim indices only under this lock, so a worker can never run a
/// stale job against a new batch's cursor.
struct Batch {
    /// Monotonic batch id; bumped by every pooled batch.
    epoch: u64,
    /// The batch's task closure; `None` once the cursor drains.
    job: Option<Job>,
    /// Next unclaimed task index.
    cursor: usize,
    /// Total tasks in the batch.
    tasks: usize,
}

/// One thread's execution counters; all relaxed, written only by the
/// owning thread while metering is on.
#[derive(Default)]
struct ThreadMeter {
    busy_ns: AtomicU64,
    tasks: AtomicU64,
}

struct Shared {
    batch: Mutex<Batch>,
    work_cv: Condvar,
    /// Mirror of `batch.epoch` readable without the mutex — the
    /// workers' spin fast-path.
    epoch: AtomicU64,
    /// Tasks completed in the current batch (claimed *and* executed).
    finished: AtomicUsize,
    shutdown: AtomicBool,
    /// Metering switch; the whole disabled cost is one relaxed load of
    /// this flag per batch (workers re-check it once per task).
    meter: AtomicBool,
    /// Per-thread counters, index 0 = caller, 1.. = workers. Sized at
    /// construction so the metered path never allocates either.
    meters: Vec<ThreadMeter>,
    /// Batches dispatched while metering was on.
    batches: AtomicU64,
    /// Sum of metered batch wall times (dispatch to last task done).
    wall_ns: AtomicU64,
    /// Cumulative caller post-drain wait (merge wait) across metered
    /// batches, plus the most recent batch's wait on its own — the
    /// engine reads the latter right after a sharded stage returns to
    /// attribute the wait to that stage.
    caller_wait_ns: AtomicU64,
    last_caller_wait_ns: AtomicU64,
}

/// One thread's share of metered pool work. Index 0 of
/// [`PoolStats::threads_stats`] is the calling thread; workers follow
/// in spawn order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadStats {
    /// Nanoseconds this thread spent executing tasks.
    pub busy_ns: u64,
    /// Tasks this thread executed.
    pub tasks: u64,
}

/// Snapshot of pool execution counters since metering was enabled.
/// Values are relaxed-atomic reads: exact once the pool is quiescent
/// (no `run` in flight), approximate during one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Total threads batches run on (workers + caller).
    pub threads: usize,
    /// Batches dispatched while metering was on.
    pub batches: u64,
    /// Sum of metered batch wall times, dispatch to last task done.
    pub wall_ns: u64,
    /// Cumulative caller post-drain (merge) wait across metered batches.
    pub caller_wait_ns: u64,
    /// Per-thread busy time and task counts; index 0 is the caller.
    pub threads_stats: Vec<ThreadStats>,
}

/// A fixed-size worker pool; see the crate docs for the design.
pub struct ExecPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes batches: one `run` at a time, so the single shared
    /// batch slot and completion counter are never shared between two
    /// concurrent callers (e.g. cloned simulations holding one pool).
    run_lock: Mutex<()>,
    threads: usize,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ExecPool {
    /// Creates a pool that runs batches on `threads` OS threads total:
    /// `threads - 1` persistent workers plus the calling thread.
    /// `threads` is clamped to at least 1; a 1-thread pool spawns
    /// nothing and [`run`](Self::run) degenerates to a sequential loop.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            batch: Mutex::new(Batch {
                epoch: 0,
                job: None,
                cursor: 0,
                tasks: 0,
            }),
            work_cv: Condvar::new(),
            epoch: AtomicU64::new(0),
            finished: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            meter: AtomicBool::new(false),
            meters: (0..threads).map(|_| ThreadMeter::default()).collect(),
            batches: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            caller_wait_ns: AtomicU64::new(0),
            last_caller_wait_ns: AtomicU64::new(0),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("baat-exec-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            run_lock: Mutex::new(()),
            threads,
        }
    }

    /// Total threads batches run on (workers + the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Turns execution metering on or off. Off by default; toggling
    /// does not reset counters, so a consumer that enables metering
    /// once at startup reads monotonic totals.
    pub fn set_metering(&self, on: bool) {
        self.shared.meter.store(on, Ordering::Relaxed);
    }

    /// Whether execution metering is currently on.
    pub fn metering(&self) -> bool {
        self.shared.meter.load(Ordering::Relaxed)
    }

    /// The most recent metered batch's caller merge wait in
    /// nanoseconds: how long the calling thread idled behind its
    /// slowest worker after the task cursor drained. Zero for inline
    /// (single-thread or single-task) batches and while metering is
    /// off. Read it immediately after [`run`](Self::run) to attribute
    /// the wait to the stage that dispatched the batch.
    pub fn last_caller_wait_ns(&self) -> u64 {
        self.shared.last_caller_wait_ns.load(Ordering::Relaxed)
    }

    /// Snapshot of the pool's metered counters. Allocation happens
    /// here, on the cold read path — never inside [`run`](Self::run).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            batches: self.shared.batches.load(Ordering::Relaxed),
            wall_ns: self.shared.wall_ns.load(Ordering::Relaxed),
            caller_wait_ns: self.shared.caller_wait_ns.load(Ordering::Relaxed),
            threads_stats: self
                .shared
                .meters
                .iter()
                .map(|m| ThreadStats {
                    busy_ns: m.busy_ns.load(Ordering::Relaxed),
                    tasks: m.tasks.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Runs `f(0..tasks)` across the pool and returns the results in
    /// task-index order. Blocks until every task completed. If any task
    /// panicked, the first panic (by task index) is re-thrown here
    /// after the batch drains, leaving the pool reusable.
    pub fn run<T, F>(&self, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
        self.run_each(&mut slots, |i, slot| *slot = Some(f(i)));
        slots
            .into_iter()
            .map(|slot| slot.expect("every task ran"))
            .collect()
    }

    /// Runs `f(i, &mut items[i])` for every item across the pool, one
    /// task per item, and blocks until every task completed. Tasks
    /// report through their own slot, so a batch allocates nothing:
    /// the slots are the caller's, and each task claims the next one
    /// from an iterator over them. If any task panicked, the first
    /// panic (by item index) is re-thrown here after the batch drains,
    /// leaving the pool reusable.
    pub fn run_each<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let tasks = items.len();
        if tasks == 0 {
            return;
        }
        if self.workers.is_empty() || tasks == 1 {
            let started = self.inline_started();
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            self.record_inline(started, tasks);
            return;
        }
        let claims = Mutex::new(items.iter_mut().enumerate());
        let panicked: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
        self.dispatch(tasks, &|_| {
            let (i, item) = claims
                .lock()
                .expect("claim lock")
                .next()
                .expect("one item per task");
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                let mut first = panicked.lock().expect("panic lock");
                if first.as_ref().is_none_or(|(j, _)| i < *j) {
                    *first = Some((i, payload));
                }
            }
        });
        if let Some((_, payload)) = panicked.into_inner().expect("panic lock") {
            resume_unwind(payload);
        }
    }

    /// The start of an inline batch, when metering is on.
    fn inline_started(&self) -> Option<Instant> {
        self.shared.meter.load(Ordering::Relaxed).then(Instant::now)
    }

    /// Meters an inline batch of `tasks` that began at `started`: all
    /// of it is caller busy time, with no merge wait.
    fn record_inline(&self, started: Option<Instant>, tasks: usize) {
        let Some(started) = started else { return };
        let elapsed = started.elapsed().as_nanos() as u64;
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        self.shared.wall_ns.fetch_add(elapsed, Ordering::Relaxed);
        self.shared.meters[0]
            .busy_ns
            .fetch_add(elapsed, Ordering::Relaxed);
        self.shared.meters[0]
            .tasks
            .fetch_add(tasks as u64, Ordering::Relaxed);
        self.shared.last_caller_wait_ns.store(0, Ordering::Relaxed);
    }

    /// Runs `call(0..tasks)` on the workers and the caller and returns
    /// once every task has executed. `call` must catch its own panics:
    /// an unwinding task would leave the completion count short. No
    /// allocation.
    fn dispatch(&self, tasks: usize, call: &(dyn Fn(usize) + Sync)) {
        let meter = self.shared.meter.load(Ordering::Relaxed);
        // SAFETY: erases the closure's stack lifetime so workers can
        // hold the pointer. The pointee stays alive and unmoved until
        // this function returns, and the completion-counter wait below
        // guarantees no worker dereferences it after that.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(call)
        });

        let guard = self.run_lock.lock().expect("run lock");
        let batch_started = meter.then(Instant::now);
        self.shared.finished.store(0, Ordering::Relaxed);
        {
            let mut batch = self.shared.batch.lock().expect("batch lock");
            batch.epoch += 1;
            batch.job = Some(job);
            batch.cursor = 0;
            batch.tasks = tasks;
            self.shared.epoch.store(batch.epoch, Ordering::Release);
        }
        self.shared.work_cv.notify_all();

        // Participate until the cursor drains, then clear the job so
        // late-waking workers see an exhausted batch.
        let mut caller_busy_ns = 0u64;
        let mut caller_tasks = 0u64;
        loop {
            let claimed = {
                let mut batch = self.shared.batch.lock().expect("batch lock");
                if batch.cursor >= batch.tasks {
                    batch.job = None;
                    None
                } else {
                    let i = batch.cursor;
                    batch.cursor += 1;
                    Some(i)
                }
            };
            let Some(i) = claimed else { break };
            let task_started = meter.then(Instant::now);
            call(i);
            if let Some(at) = task_started {
                caller_busy_ns += at.elapsed().as_nanos() as u64;
                caller_tasks += 1;
            }
            self.shared.finished.fetch_add(1, Ordering::Release);
        }
        // Wait for tasks still running on workers. Every claimed index
        // increments `finished` (panics are caught), so this terminates.
        // Under metering this wait is the batch's *merge wait*: the
        // caller idling behind its slowest worker.
        let wait_started = meter.then(Instant::now);
        let mut spins = 0u32;
        while self.shared.finished.load(Ordering::Acquire) < tasks {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(SPIN_BUDGET) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        if let Some(batch_at) = batch_started {
            let wait_ns = wait_started
                .map(|at| at.elapsed().as_nanos() as u64)
                .unwrap_or(0);
            self.shared.batches.fetch_add(1, Ordering::Relaxed);
            self.shared
                .wall_ns
                .fetch_add(batch_at.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.shared
                .caller_wait_ns
                .fetch_add(wait_ns, Ordering::Relaxed);
            self.shared
                .last_caller_wait_ns
                .store(wait_ns, Ordering::Relaxed);
            self.shared.meters[0]
                .busy_ns
                .fetch_add(caller_busy_ns, Ordering::Relaxed);
            self.shared.meters[0]
                .tasks
                .fetch_add(caller_tasks, Ordering::Relaxed);
        }
        drop(guard);
    }

    /// Consumes `items`, applying `f` to each across the pool; results
    /// come back in item order. The batched equivalent of
    /// `items.into_iter().map(f).collect()`.
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let mut slots: Vec<(Option<T>, Option<U>)> =
            items.into_iter().map(|item| (Some(item), None)).collect();
        self.run_each(&mut slots, |_, (item, out)| {
            *out = Some(f(item.take().expect("each item is mapped once")));
        });
        slots
            .into_iter()
            .map(|(_, out)| out.expect("every task ran"))
            .collect()
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        // Set the flag under the batch lock: a worker checks it under
        // that lock and only then waits (releasing it atomically), so a
        // flag set between its check and its wait would miss the wake-up
        // below and leave `join` waiting forever. A poisoned lock still
        // guards the flag, so take it either way rather than panic here.
        {
            let _batch = self
                .shared
                .batch
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        // Fast path: spin briefly for the next batch before sleeping.
        let mut spins = 0u32;
        while shared.epoch.load(Ordering::Acquire) == seen
            && !shared.shutdown.load(Ordering::Relaxed)
        {
            spins += 1;
            if spins >= SPIN_BUDGET {
                break;
            }
            std::hint::spin_loop();
        }
        let mut batch = shared.batch.lock().expect("batch lock");
        while batch.epoch == seen {
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            batch = shared.work_cv.wait(batch).expect("batch lock");
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Claim and run tasks. The job is re-read under the lock on
        // every claim, so this loop seamlessly rolls into a newer
        // batch (and never runs a stale job against it).
        loop {
            seen = batch.epoch;
            let Some(job) = batch.job else { break };
            if batch.cursor >= batch.tasks {
                break;
            }
            let i = batch.cursor;
            batch.cursor += 1;
            drop(batch);
            let task_started = shared.meter.load(Ordering::Relaxed).then(Instant::now);
            (job.0)(i);
            if let Some(at) = task_started {
                let meter = &shared.meters[index];
                meter
                    .busy_ns
                    .fetch_add(at.elapsed().as_nanos() as u64, Ordering::Relaxed);
                meter.tasks.fetch_add(1, Ordering::Relaxed);
            }
            shared.finished.fetch_add(1, Ordering::Release);
            batch = shared.batch.lock().expect("batch lock");
        }
        drop(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_come_back_in_task_order() {
        let pool = ExecPool::new(4);
        let out = pool.run(64, |i| i * 3);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ExecPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.workers.is_empty());
        assert_eq!(pool.run(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_tasks_is_empty() {
        let pool = ExecPool::new(3);
        assert!(pool.run(0, |i| i).is_empty());
    }

    #[test]
    fn repeated_batches_reuse_the_same_workers() {
        let pool = ExecPool::new(4);
        for round in 0..200 {
            let out = pool.run(9, move |i| i + round);
            assert_eq!(out, (round..round + 9).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = ExecPool::new(8);
        let counts: Vec<AtomicU32> = (0..1_000).map(|_| AtomicU32::new(0)).collect();
        pool.run(counts.len(), |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn tasks_see_disjoint_mutable_state() {
        let pool = ExecPool::new(4);
        let mut data = vec![0u64; 40];
        let chunks: Vec<Mutex<Option<&mut [u64]>>> =
            data.chunks_mut(10).map(|c| Mutex::new(Some(c))).collect();
        pool.run(chunks.len(), |s| {
            let mut guard = chunks[s].lock().unwrap();
            for (k, v) in guard.as_mut().unwrap().iter_mut().enumerate() {
                *v = (s * 10 + k) as u64;
            }
        });
        drop(chunks);
        assert_eq!(data, (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn run_each_hands_every_task_its_own_slot() {
        for threads in [1, 2, 4] {
            let pool = ExecPool::new(threads);
            let mut slots = vec![0usize; 13];
            for round in 0..50 {
                pool.run_each(&mut slots, |i, slot| *slot = i * round);
                assert_eq!(slots, (0..13).map(|i| i * round).collect::<Vec<_>>());
            }
            pool.run_each(&mut [] as &mut [u8], |_, _| unreachable!("no items"));
        }
    }

    #[test]
    fn run_each_rethrows_the_first_panic_by_index() {
        let pool = ExecPool::new(4);
        let mut slots = [0u8; 8];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_each(&mut slots, |i, slot| {
                assert!(i != 6, "task six exploded");
                assert!(i != 2, "task two exploded");
                *slot = 1;
            })
        }));
        let payload = result.expect_err("two tasks panicked");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("task two exploded"));
        // Every other task still ran, and the pool is still usable.
        assert_eq!(slots, [1, 1, 0, 1, 1, 1, 0, 1]);
        assert_eq!(pool.run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_preserves_item_order() {
        let pool = ExecPool::new(3);
        let items: Vec<String> = (0..17).map(|i| format!("item-{i}")).collect();
        let lens = pool.map(items, |s| s.len());
        assert_eq!(lens.len(), 17);
        assert_eq!(lens[0], 6);
        assert_eq!(lens[16], 7);
    }

    #[test]
    fn panic_in_task_propagates_and_pool_survives() {
        let pool = ExecPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                assert!(i != 5, "task five exploded");
                i
            })
        }));
        assert!(result.is_err());
        // The pool is still usable after the panic.
        assert_eq!(pool.run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn oversubscribed_batches_complete() {
        let pool = ExecPool::new(2);
        let out = pool.run(333, |i| i as u64 * 2);
        assert_eq!(out.len(), 333);
        assert_eq!(out[332], 664);
    }

    #[test]
    fn metering_is_off_by_default_and_records_nothing() {
        let pool = ExecPool::new(4);
        assert!(!pool.metering());
        pool.run(16, |i| i);
        let stats = pool.stats();
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.wall_ns, 0);
        assert_eq!(stats.caller_wait_ns, 0);
        assert_eq!(stats.threads_stats.len(), 4);
        for t in &stats.threads_stats {
            assert_eq!(t.tasks, 0);
            assert_eq!(t.busy_ns, 0);
        }
    }

    #[test]
    fn metered_batches_account_every_task_exactly_once() {
        let pool = ExecPool::new(4);
        pool.set_metering(true);
        assert!(pool.metering());
        for _ in 0..10 {
            pool.run(32, |i| {
                std::hint::black_box(i);
            });
        }
        let stats = pool.stats();
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.batches, 10);
        let total_tasks: u64 = stats.threads_stats.iter().map(|t| t.tasks).sum();
        assert_eq!(total_tasks, 320, "every task attributed to one thread");
        assert!(stats.wall_ns > 0);
    }

    #[test]
    fn inline_batches_meter_as_pure_caller_work() {
        let pool = ExecPool::new(1);
        pool.set_metering(true);
        pool.run(7, |i| {
            std::hint::black_box(i);
        });
        let stats = pool.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.threads_stats[0].tasks, 7);
        assert_eq!(stats.caller_wait_ns, 0);
        assert_eq!(pool.last_caller_wait_ns(), 0);
    }

    #[test]
    fn merge_wait_reflects_a_straggling_worker() {
        let pool = ExecPool::new(2);
        pool.set_metering(true);
        // Two tasks: the caller claims one instantly, the worker's one
        // sleeps — the caller must log the difference as merge wait.
        // (Which index each thread claims is racy, so make both slow
        // except the first, guaranteeing the caller finishes early at
        // least once across attempts.)
        let mut saw_wait = false;
        for _ in 0..20 {
            pool.run(2, |i| {
                if i == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
            if pool.last_caller_wait_ns() > 0 {
                saw_wait = true;
                break;
            }
        }
        assert!(saw_wait, "caller never observed a merge wait");
        assert!(pool.stats().caller_wait_ns > 0);
    }

    #[test]
    fn disabling_metering_freezes_counters() {
        let pool = ExecPool::new(3);
        pool.set_metering(true);
        pool.run(9, |i| i);
        let before = pool.stats();
        pool.set_metering(false);
        pool.run(9, |i| i);
        let after = pool.stats();
        assert_eq!(before.batches, after.batches);
        let tasks = |s: &PoolStats| s.threads_stats.iter().map(|t| t.tasks).sum::<u64>();
        assert_eq!(tasks(&before), tasks(&after));
    }
}
