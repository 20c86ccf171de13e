//! Scoped-thread data-parallel helpers.
//!
//! The guides' recommended pattern (rayon's `par_chunks_mut`) implemented
//! directly on `std::thread::scope`: split a mutable slice into disjoint
//! chunks and hand each to its own thread. Disjointness makes this safe
//! without any locking, and `scope` guarantees the borrows end before the
//! function returns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Number of worker threads to use for data-parallel kernels.
///
/// Defaults to the machine's available parallelism, clamped to 8 — beyond
/// that, the memory-bound kernels in this crate stop scaling. Can be
/// overridden (for experiments and tests) via the `SDFLMQ_NN_THREADS`
/// environment variable, read once.
pub fn recommended_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("SDFLMQ_NN_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.clamp(1, 64);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8)
    })
}

/// A small reusable worker pool for data-parallel kernels.
///
/// Unlike [`for_each_chunk_mut`], which spawns a scoped thread per chunk,
/// the pool keeps its workers parked between jobs, so per-call overhead is
/// one lock + wakeup instead of N thread spawns — the difference matters
/// when the same model-sized encode runs every round. Tasks are pulled
/// from a shared atomic counter, so uneven chunks self-balance.
///
/// The pool runs *closures borrowed from the caller's stack* on persistent
/// threads. Safety rests on one invariant, enforced in [`WorkerPool::run`]:
/// the submitting call does not return (or unwind) until every task has
/// finished executing, and once the finished count reaches `tasks` no
/// worker can begin another task of that job (the task counter is already
/// exhausted). Workers therefore never touch the closure after `run`
/// returns.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
}

struct PoolInner {
    /// Monotonic job epoch + the current job, if any.
    job: Mutex<(u64, Option<Arc<JobCtl>>)>,
    work_cv: Condvar,
    /// Completion signal: submitters wait here for straggler workers.
    done: Mutex<()>,
    done_cv: Condvar,
    shutdown: AtomicBool,
}

struct JobCtl {
    /// Lifetime-erased borrow of the submitter's closure; only dereferenced
    /// while `finished < tasks` (see the safety note on [`WorkerPool`]).
    f: &'static (dyn Fn(usize) + Sync),
    tasks: usize,
    next: AtomicUsize,
    finished: AtomicUsize,
    panicked: AtomicBool,
}

impl JobCtl {
    /// Claims and runs tasks until the counter is exhausted.
    fn drain(&self, inner: &PoolInner) {
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.tasks {
                return;
            }
            if catch_unwind(AssertUnwindSafe(|| (self.f)(i))).is_err() {
                self.panicked.store(true, Ordering::SeqCst);
            }
            if self.finished.fetch_add(1, Ordering::SeqCst) + 1 == self.tasks {
                let _guard = inner.done.lock().unwrap();
                inner.done_cv.notify_all();
            }
        }
    }
}

impl WorkerPool {
    /// Creates a pool that runs jobs on `threads` executors: `threads - 1`
    /// parked worker threads plus the submitting thread itself. `threads`
    /// is clamped to `1..=64`; a 1-thread pool runs everything inline.
    ///
    /// Executors beyond the machine's available parallelism (floored at 2
    /// so the cross-thread protocol always runs when requested) are not
    /// spawned: on an oversubscribed host the extra workers only add
    /// wakeup contention, and chunk layout — hence every output bit —
    /// never depends on the executor count.
    pub fn new(threads: usize) -> WorkerPool {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = threads.clamp(1, 64).min(cpus.max(2));
        let inner = Arc::new(PoolInner {
            job: Mutex::new((0, None)),
            work_cv: Condvar::new(),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sdflmq-nn-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { inner, workers }
    }

    /// The shared process-wide pool, sized by [`recommended_threads`].
    pub fn global() -> Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(WorkerPool::new(recommended_threads()))))
    }

    /// Number of executors (workers + the submitting thread).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(0)`, `f(1)`, … `f(tasks - 1)`, distributing tasks over the
    /// pool, and returns once every task has finished. Tasks must be
    /// disjoint in whatever they mutate; the pool adds no locking of its
    /// own. Single-task jobs (and 1-thread pools) run inline with zero
    /// synchronization.
    pub fn run(&self, tasks: usize, f: impl Fn(usize) + Sync) {
        self.run_dyn(tasks, &f)
    }

    fn run_dyn(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if self.workers.is_empty() || tasks == 1 {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        // Erase the closure borrow's lifetime so it can sit in the shared
        // job slot.
        // SAFETY: this function only returns (or panics) after
        // `finished == tasks`, at which point the task counter is
        // exhausted and no worker will dereference `f` again.
        let f: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let ctl = Arc::new(JobCtl {
            f,
            tasks,
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        });
        {
            let mut slot = self.inner.job.lock().unwrap();
            slot.0 += 1;
            slot.1 = Some(Arc::clone(&ctl));
        }
        self.inner.work_cv.notify_all();
        // The submitter is an executor too (it would otherwise just block).
        ctl.drain(&self.inner);
        if ctl.finished.load(Ordering::SeqCst) < tasks {
            let mut guard = self.inner.done.lock().unwrap();
            while ctl.finished.load(Ordering::SeqCst) < tasks {
                guard = self.inner.done_cv.wait(guard).unwrap();
            }
        }
        if ctl.panicked.load(Ordering::SeqCst) {
            panic!("worker pool task panicked");
        }
    }

    /// Pool-based counterpart of [`for_each_chunk_mut`]: runs
    /// `f(chunk_index, chunk)` over disjoint `chunk_len`-sized chunks of
    /// `data` on the pool's executors.
    pub fn for_each_chunk_mut<T: Send, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk_len = chunk_len.max(1);
        if data.len() <= chunk_len {
            if !data.is_empty() {
                f(0, data);
            }
            return;
        }
        let chunks: Vec<Mutex<&mut [T]>> = data.chunks_mut(chunk_len).map(Mutex::new).collect();
        self.run(chunks.len(), |i| {
            let mut chunk = chunks[i].lock().unwrap();
            f(i, &mut chunk);
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.inner.job.lock().unwrap();
        }
        self.inner.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    let mut seen = 0u64;
    loop {
        let ctl = {
            let mut slot = inner.job.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if slot.0 > seen {
                    seen = slot.0;
                    break Arc::clone(slot.1.as_ref().expect("epoch implies job"));
                }
                slot = inner.work_cv.wait(slot).unwrap();
            }
        };
        ctl.drain(inner);
    }
}

/// Splits `len` elements into fixed `chunk_len` chunks and returns the
/// element range of chunk `i`. The layout is a pure function of `len` and
/// `chunk_len` — never of the worker count — which is what makes chunked
/// kernels bit-identical at any thread count.
pub fn chunk_range(len: usize, chunk_len: usize, i: usize) -> std::ops::Range<usize> {
    let start = i * chunk_len;
    start..((start + chunk_len).min(len))
}

/// Number of `chunk_len` chunks covering `len` elements.
pub fn chunk_count(len: usize, chunk_len: usize) -> usize {
    len.div_ceil(chunk_len.max(1))
}

/// Runs `f(chunk_index, chunk)` over disjoint chunks of `data`, each up to
/// `chunk_len` elements, in parallel. Falls back to an inline call when
/// there is only one chunk (or chunks are degenerate), so small inputs pay
/// no threading cost.
pub fn for_each_chunk_mut<T: Send, F>(data: &mut [T], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    if data.len() <= chunk_len {
        if !data.is_empty() {
            f(0, data);
        }
        return;
    }
    std::thread::scope(|scope| {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            let f = &f;
            scope.spawn(move || f(idx, chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_once() {
        let mut data = vec![0u32; 1000];
        for_each_chunk_mut(&mut data, 173, |_, chunk| {
            for v in chunk {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn chunk_indices_are_positional() {
        let mut data = vec![0usize; 100];
        for_each_chunk_mut(&mut data, 30, |idx, chunk| {
            for v in chunk {
                *v = idx;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[29], 0);
        assert_eq!(data[30], 1);
        assert_eq!(data[99], 3);
    }

    #[test]
    fn small_input_runs_inline() {
        let mut data = vec![1u8; 4];
        for_each_chunk_mut(&mut data, 100, |idx, chunk| {
            assert_eq!(idx, 0);
            assert_eq!(chunk.len(), 4);
        });
    }

    #[test]
    fn empty_input_is_noop() {
        let mut data: Vec<u8> = vec![];
        for_each_chunk_mut(&mut data, 8, |_, _| panic!("must not be called"));
    }

    #[test]
    fn pool_runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(16, |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 50 * 16);
    }

    #[test]
    fn pool_single_thread_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let tid = std::thread::current().id();
        pool.run(5, |_| assert_eq!(std::thread::current().id(), tid));
    }

    #[test]
    fn pool_zero_tasks_is_noop() {
        let pool = WorkerPool::new(2);
        pool.run(0, |_| panic!("must not be called"));
    }

    #[test]
    fn pool_chunk_helper_matches_scoped_version() {
        let pool = WorkerPool::new(4);
        let mut a = vec![0u32; 1000];
        let mut b = vec![0u32; 1000];
        pool.for_each_chunk_mut(&mut a, 173, |idx, chunk| {
            for v in chunk {
                *v = idx as u32 + 1;
            }
        });
        for_each_chunk_mut(&mut b, 173, |idx, chunk| {
            for v in chunk {
                *v = idx as u32 + 1;
            }
        });
        assert_eq!(a, b);
    }

    #[test]
    fn pool_task_panic_propagates_to_submitter() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool must remain usable after a panicked job.
        let counter = AtomicUsize::new(0);
        pool.run(8, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn chunk_range_covers_exactly() {
        for (len, cl) in [(0usize, 8usize), (1, 8), (7, 8), (8, 8), (9, 8), (100, 7)] {
            let n = chunk_count(len, cl);
            let mut covered = 0;
            for i in 0..n {
                let r = chunk_range(len, cl, i);
                assert_eq!(r.start, covered);
                assert!(r.len() <= cl);
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn threads_env_is_clamped() {
        // Only checks the static accessor works; the env var is read once
        // per process so we cannot vary it here.
        let n = recommended_threads();
        assert!((1..=64).contains(&n));
    }
}
