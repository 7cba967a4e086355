//! Process-wide work-stealing worker pool shared by all concurrent queries.
//!
//! Operators that spawn fresh worker threads per invocation are fine for
//! one query at a time, but N concurrent sessions would each spawn their
//! own lanes, oversubscribing the host and paying thread start/teardown on
//! every query. This module is instead **one persistent pool** the whole
//! process multiplexes, and the only place the execution engine spawns
//! threads:
//!
//! ```text
//!   query A ─ run_tasks([scan w0, scan w1, ...]) ─┐
//!   query B ─ run_tasks([build p0, build p1, ..]) ─┼─► shared set list
//!   query C ─ run_tasks([probe w0, ...]) ─────────┘      │
//!                  persistent workers steal tasks from any active set
//! ```
//!
//! * **Task sets, not bare tasks.** A caller submits a batch of jobs as one
//!   task set and blocks until the whole set finishes. Workers steal
//!   tasks from the front-most set with work remaining, so concurrent
//!   queries interleave at morsel-task granularity instead of fighting over
//!   raw threads.
//! * **Caller runs.** The submitting thread immediately starts draining its
//!   *own* set's queue alongside the workers. Two consequences: a pool of
//!   any size (even zero live workers) always completes every set — the
//!   caller is a guaranteed lane — and nested submission can't deadlock: a
//!   task that itself submits a set drains that set's queue before waiting,
//!   so a blocked submitter only ever waits on *running* tasks, and the
//!   waits-for graph bottoms out.
//! * **No panics across the boundary.** Jobs return [`DbResult`]; panics
//!   are caught and surfaced as [`DbError::Execution`], mirroring the old
//!   per-operator `JoinHandle` coordinators.
//! * **Sizing.** `VDB_POOL_WORKERS` pins the pool size directly; otherwise
//!   `VDB_EXEC_THREADS` (the per-operator lane knob, so existing CI lanes
//!   also pin the pool); otherwise the host's available parallelism.
//!   [`WorkerPool::resize`] retargets live workers at runtime (tests sweep
//!   {1, 2, 7}); excess workers exit when idle, missing ones spawn on
//!   demand. Correctness is size-independent — only throughput changes.
//!
//! The per-operator degree of parallelism (how many jobs an operator
//! submits) still clamps to the morsel count; the pool bounds how many of
//! those jobs make progress at once, across *all* queries.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use vdb_types::{DbError, DbResult};

/// Environment knob pinning the shared pool's worker count. Falls back to
/// [`crate::parallel::THREADS_ENV`], then to available parallelism.
pub const POOL_WORKERS_ENV: &str = "VDB_POOL_WORKERS";

/// One unit of work queued on the pool (a morsel-lane closure).
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A job handed to [`WorkerPool::run_tasks`]: runs on some lane, returns a
/// result or an error.
pub type Job<T> = Box<dyn FnOnce() -> DbResult<T> + Send + 'static>;

/// Cumulative pool counters (process lifetime), exposed so tests (and the
/// benchmark's `exec.pool_tasks_by_*` metrics) can prove workers are being
/// reused rather than respawned.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Task sets submitted via [`WorkerPool::run_tasks`].
    pub task_sets: AtomicU64,
    /// Tasks executed by persistent pool workers (stolen work).
    pub tasks_by_workers: AtomicU64,
    /// Tasks executed by the submitting thread itself (caller-runs lane).
    pub tasks_by_callers: AtomicU64,
    /// Worker threads spawned over the pool's lifetime. Reuse shows up as
    /// this staying flat while `tasks_by_workers` climbs.
    pub workers_spawned: AtomicU64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    pub task_sets: u64,
    pub tasks_by_workers: u64,
    pub tasks_by_callers: u64,
    pub workers_spawned: u64,
}

/// One submitted batch of tasks; lives until every task has finished.
struct TaskSet {
    /// Unclaimed tasks. Workers and the submitting caller both pop here.
    tasks: Mutex<VecDeque<Task>>,
    /// Tasks popped but not yet finished + tasks still queued.
    remaining: Mutex<usize>,
    done: Condvar,
}

impl TaskSet {
    fn new(tasks: VecDeque<Task>) -> TaskSet {
        let n = tasks.len();
        TaskSet {
            tasks: Mutex::new(tasks),
            remaining: Mutex::new(n),
            done: Condvar::new(),
        }
    }

    fn pop(&self) -> Option<Task> {
        self.tasks
            .lock()
            .expect("pool task queue poisoned")
            .pop_front()
    }

    /// Mark one task finished; wake the submitter when the set drains.
    fn finish_one(&self) {
        let mut remaining = self.remaining.lock().expect("pool set counter poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every task in the set has finished.
    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("pool set counter poisoned");
        while *remaining > 0 {
            remaining = self
                .done
                .wait(remaining)
                .expect("pool set counter poisoned");
        }
    }
}

struct Inner {
    /// Active sets, oldest first. Workers steal from the front-most set
    /// with queued work (FIFO across queries, LPT within a set because the
    /// morsel queue feeding the jobs dispenses heaviest-first).
    sets: VecDeque<Arc<TaskSet>>,
    target_workers: usize,
    live_workers: usize,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Signals workers: new work arrived or the target size changed.
    work: Condvar,
    stats: PoolStats,
}

/// The persistent work-stealing pool. One instance per process — use
/// [`shared`]; constructing private pools is for unit tests.
pub struct WorkerPool {
    shared: Arc<Shared>,
}

impl WorkerPool {
    /// A pool with `workers` persistent threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> WorkerPool {
        let pool = WorkerPool {
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner {
                    sets: VecDeque::new(),
                    target_workers: workers.max(1),
                    live_workers: 0,
                }),
                work: Condvar::new(),
                stats: PoolStats::default(),
            }),
        };
        pool.spawn_missing();
        pool
    }

    /// Current target worker count (the pool's capacity — the planner's
    /// default degree of parallelism).
    pub fn workers(&self) -> usize {
        self.shared
            .inner
            .lock()
            .expect("pool poisoned")
            .target_workers
    }

    /// Retarget the pool. Growing spawns workers immediately; shrinking
    /// lets excess workers exit as they go idle. In-flight sets finish
    /// either way (the caller-runs lane guarantees progress).
    pub fn resize(&self, workers: usize) {
        {
            let mut inner = self.shared.inner.lock().expect("pool poisoned");
            inner.target_workers = workers.max(1);
        }
        self.shared.work.notify_all();
        self.spawn_missing();
    }

    pub fn stats(&self) -> PoolStatsSnapshot {
        let s = &self.shared.stats;
        PoolStatsSnapshot {
            task_sets: s.task_sets.load(Ordering::Relaxed),
            tasks_by_workers: s.tasks_by_workers.load(Ordering::Relaxed),
            tasks_by_callers: s.tasks_by_callers.load(Ordering::Relaxed),
            workers_spawned: s.workers_spawned.load(Ordering::Relaxed),
        }
    }

    /// Run a batch of jobs on the pool and wait for all of them. Results
    /// come back in submission order; the first error (or panic, surfaced
    /// as `DbError::Execution("<what> panicked")`) wins. The calling thread
    /// helps drain its own set, so this completes even on a saturated (or
    /// zero-worker) pool and is safe to call from inside a pool task.
    pub fn run_tasks<T: Send + 'static>(&self, jobs: Vec<Job<T>>, what: &str) -> DbResult<Vec<T>> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let n = jobs.len();
        let slots: Arc<Mutex<Vec<Option<DbResult<T>>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let what_owned = what.to_string();
        let tasks: VecDeque<Task> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                let slots = slots.clone();
                let what = what_owned.clone();
                Box::new(move || {
                    let result = match catch_unwind(AssertUnwindSafe(job)) {
                        Ok(r) => r,
                        Err(_) => Err(DbError::Execution(format!("{what} panicked"))),
                    };
                    if let Ok(mut s) = slots.lock() {
                        s[i] = Some(result);
                    }
                }) as Task
            })
            .collect();
        let set = Arc::new(TaskSet::new(tasks));
        {
            let mut inner = self.shared.inner.lock().expect("pool poisoned");
            inner.sets.push_back(set.clone());
        }
        self.shared.stats.task_sets.fetch_add(1, Ordering::Relaxed);
        self.shared.work.notify_all();
        // Caller-runs: drain our own set's queue, then wait for stolen
        // stragglers.
        while let Some(task) = set.pop() {
            task();
            set.finish_one();
            self.shared
                .stats
                .tasks_by_callers
                .fetch_add(1, Ordering::Relaxed);
        }
        set.wait();
        let mut slots = slots
            .lock()
            .map_err(|_| DbError::Execution(format!("{what_owned} poisoned its result slots")))?;
        let mut out = Vec::with_capacity(n);
        let mut first_err: Option<DbError> = None;
        for slot in slots.drain(..) {
            match slot {
                Some(Ok(v)) => out.push(v),
                Some(Err(e)) => first_err = first_err.or(Some(e)),
                None => {
                    first_err = first_err
                        .or_else(|| Some(DbError::Execution(format!("{what_owned} lost a task"))))
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Spawn workers until `live == target`. Spawn failure is non-fatal:
    /// the caller-runs lane keeps every set completing regardless.
    fn spawn_missing(&self) {
        loop {
            {
                let mut inner = self.shared.inner.lock().expect("pool poisoned");
                if inner.live_workers >= inner.target_workers {
                    return;
                }
                inner.live_workers += 1;
            }
            let shared = self.shared.clone();
            let spawned = std::thread::Builder::new()
                .name("vdb-pool-worker".into())
                .spawn(move || worker_loop(&shared));
            match spawned {
                Ok(_) => {
                    self.shared
                        .stats
                        .workers_spawned
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    let mut inner = self.shared.inner.lock().expect("pool poisoned");
                    inner.live_workers -= 1;
                    return;
                }
            }
        }
    }
}

/// Persistent worker: steal a task from the front-most set with queued
/// work; park when there is none; exit when the pool shrank below us.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let stolen: Option<(Arc<TaskSet>, Task)> = {
            let mut inner = shared.inner.lock().expect("pool poisoned");
            loop {
                // Drop fully-drained sets (all tasks claimed); a set's
                // completion is tracked by its own `remaining` counter.
                let mut found = None;
                inner.sets.retain(|set| {
                    if found.is_some() {
                        return true;
                    }
                    match set.pop() {
                        Some(task) => {
                            found = Some((set.clone(), task));
                            true
                        }
                        None => false,
                    }
                });
                if let Some(hit) = found {
                    break Some(hit);
                }
                if inner.live_workers > inner.target_workers {
                    inner.live_workers -= 1;
                    break None;
                }
                inner = shared.work.wait(inner).expect("pool poisoned");
            }
        };
        match stolen {
            Some((set, task)) => {
                task();
                set.finish_one();
                shared
                    .stats
                    .tasks_by_workers
                    .fetch_add(1, Ordering::Relaxed);
            }
            None => return,
        }
    }
}

/// The process-wide pool, sized from `VDB_POOL_WORKERS`, then
/// `VDB_EXEC_THREADS`, then the host's available parallelism. All parallel
/// operators submit here; [`crate::parallel::ExecOptions::from_env`]
/// derives the default degree of parallelism from this pool's capacity.
pub fn shared() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(default_workers()))
}

fn default_workers() -> usize {
    let from = |name: &str| {
        std::env::var(name)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
    };
    from(POOL_WORKERS_ENV)
        .or_else(|| from(crate::parallel::THREADS_ENV))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<Job<usize>> = (0..32usize)
            .map(|i| Box::new(move || Ok(i * 10)) as Job<usize>)
            .collect();
        let got = pool.run_tasks(jobs, "order test").unwrap();
        assert_eq!(got, (0..32usize).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn first_error_wins_and_set_still_drains() {
        let pool = WorkerPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job<()>> = (0..8)
            .map(|i| {
                let ran = ran.clone();
                Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i % 2 == 1 {
                        Err(DbError::Execution("boom".into()))
                    } else {
                        Ok(())
                    }
                }) as Job<()>
            })
            .collect();
        let err = pool.run_tasks(jobs, "error test");
        assert!(err.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 8, "errors don't strand tasks");
    }

    #[test]
    fn panics_surface_as_execution_errors() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Job<()>> = vec![
            Box::new(|| Ok(())),
            Box::new(|| panic!("deliberate")),
            Box::new(|| Ok(())),
        ];
        match pool.run_tasks(jobs, "panic test") {
            Err(DbError::Execution(msg)) => assert!(msg.contains("panic test panicked")),
            other => panic!("expected Execution error, got {other:?}"),
        }
    }

    #[test]
    fn nested_submission_completes_even_on_one_worker() {
        let pool = Arc::new(WorkerPool::new(1));
        let inner_pool = pool.clone();
        let jobs: Vec<Job<usize>> = vec![Box::new(move || {
            let inner: Vec<Job<usize>> = (0..4usize)
                .map(|i| Box::new(move || Ok(i)) as Job<usize>)
                .collect();
            Ok(inner_pool
                .run_tasks(inner, "nested inner")?
                .into_iter()
                .sum())
        })];
        let got = pool.run_tasks(jobs, "nested outer").unwrap();
        assert_eq!(got, vec![6]);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        let handles: Vec<_> = (0..6usize)
            .map(|q| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    let jobs: Vec<Job<usize>> = (0..16usize)
                        .map(|i| Box::new(move || Ok(q * 100 + i)) as Job<usize>)
                        .collect();
                    pool.run_tasks(jobs, "concurrent test").unwrap()
                })
            })
            .collect();
        for (q, h) in handles.into_iter().enumerate() {
            let got = h.join().unwrap();
            assert_eq!(got, (0..16usize).map(|i| q * 100 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn resize_retargets_and_workers_persist_across_sets() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        pool.resize(1);
        assert_eq!(pool.workers(), 1);
        pool.resize(2);
        assert_eq!(pool.workers(), 2);
        let before = pool.stats().workers_spawned;
        for _ in 0..4 {
            let jobs: Vec<Job<()>> = (0..8).map(|_| Box::new(|| Ok(())) as Job<()>).collect();
            pool.run_tasks(jobs, "resize test").unwrap();
        }
        let after = pool.stats();
        assert_eq!(
            after.workers_spawned, before,
            "sets must reuse live workers, not spawn new ones"
        );
        assert!(after.tasks_by_workers + after.tasks_by_callers >= 32);
        assert_eq!(after.task_sets, 4);
    }

    #[test]
    fn shared_pool_is_a_singleton_with_positive_capacity() {
        assert!(shared().workers() >= 1);
        assert!(std::ptr::eq(shared(), shared()));
    }
}
