//! A persistent replay thread pool.
//!
//! [`crate::replay::expected_checksum`] used to spawn a fresh set of
//! scoped OS threads on every call. One call amortizes that fine, but
//! the verifier's hot paths call it in loops — calibration runs 100
//! sequential replays, and every fleet round replays once — so the
//! thread-creation cost lands on the online critical path each time.
//! This pool spawns its workers once and reuses them for every replay
//! (the same persistent-worker shape the simulator core was refactored
//! to avoid per-launch spawning).
//!
//! Design notes:
//!
//! - Jobs are index ranges executed by a caller-supplied `Fn(usize)`.
//!   [`ReplayPool::run_scoped`] blocks until every index completes, so
//!   borrowed job state never outlives the call (the lifetime extension
//!   below is sound for exactly that reason).
//! - The *calling* thread participates in the claim loop, so a nested
//!   `run_scoped` from inside a worker cannot deadlock: progress never
//!   depends on a free worker.
//! - `ReplayPool::serial()` (or `new(0)`) executes jobs inline on the
//!   caller — the deterministic single-threaded fallback tests use.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Task>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A fixed set of persistent worker threads executing scoped jobs.
pub struct ReplayPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

/// Ignores mutex poisoning: pool state stays consistent under panics
/// (all transitions happen-before the unlock), and the panic itself is
/// surfaced to the caller by [`ScopedState`].
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ReplayPool {
    /// Creates a pool with `threads` workers; `0` yields the serial
    /// (inline, deterministic) pool.
    pub fn new(threads: usize) -> ReplayPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        // Spawn failure (resource exhaustion) degrades to fewer workers —
        // run_scoped falls back to inline execution when none spawned —
        // rather than panicking the verifier.
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("sage-replay-{i}"))
                .spawn(move || worker_loop(&shared))
            {
                Ok(h) => handles.push(h),
                Err(_) => break,
            }
        }
        ReplayPool { shared, handles }
    }

    /// The inline pool: every job runs on the calling thread, in index
    /// order — deterministic and thread-free for tests.
    pub fn serial() -> ReplayPool {
        ReplayPool::new(0)
    }

    /// The process-wide shared pool (one worker per available core),
    /// created on first use.
    pub fn global() -> &'static ReplayPool {
        static POOL: OnceLock<ReplayPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            ReplayPool::new(threads)
        })
    }

    /// Number of worker threads (0 for the serial pool).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `f(0)..f(jobs-1)` across the pool and the calling thread,
    /// returning when all indices have completed.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job to the caller (after all claimed
    /// jobs have settled).
    pub fn run_scoped(&self, jobs: usize, f: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() || jobs <= 1 {
            for i in 0..jobs {
                f(i);
            }
            return;
        }
        // SAFETY (lifetime extension): `f` is only called by tasks that
        // claim an index < jobs; every such claim is settled (remaining
        // == 0) before run_scoped returns, and tasks that start late see
        // next >= jobs and never touch `f`. So no use outlives the
        // borrow despite the 'static annotation.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let state = Arc::new(ScopedState {
            f: f_static,
            next: AtomicUsize::new(0),
            jobs,
            remaining: Mutex::new(jobs),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        // Caller claims too, so at most jobs-1 helpers are useful.
        let helpers = self.handles.len().min(jobs - 1);
        {
            let mut q = lock_unpoisoned(&self.shared.queue);
            for _ in 0..helpers {
                let state = Arc::clone(&state);
                q.push_back(Box::new(move || state.work()));
            }
        }
        self.shared.available.notify_all();
        state.work();
        let mut remaining = lock_unpoisoned(&state.remaining);
        while *remaining > 0 {
            remaining = state
                .done
                .wait(remaining)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(remaining);
        if state.panicked.load(Ordering::Acquire) {
            panic!("replay worker panicked");
        }
    }
}

impl Drop for ReplayPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut q = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        task();
    }
}

struct ScopedState {
    /// Lifetime-extended in [`ReplayPool::run_scoped`]; only touched for
    /// indices the submitter is still blocked on.
    f: &'static (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    jobs: usize,
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl ScopedState {
    /// Claims and executes indices until none remain. Each claimed index
    /// is settled (the remaining count decremented) even if the job
    /// panics, so the submitting thread can never hang.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.jobs {
                return;
            }
            let f = self.f;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)));
            if result.is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            let mut remaining = lock_unpoisoned(&self.remaining);
            *remaining -= 1;
            if *remaining == 0 {
                self.done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_pool_runs_inline_in_order() {
        let pool = ReplayPool::serial();
        let order = Mutex::new(Vec::new());
        pool.run_scoped(5, &|i| lock_unpoisoned(&order).push(i));
        assert_eq!(*lock_unpoisoned(&order), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn threaded_pool_covers_every_index_exactly_once() {
        let pool = ReplayPool::new(3);
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run_scoped(64, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn pool_is_reusable_across_calls() {
        let pool = ReplayPool::new(2);
        for round in 0..10u64 {
            let sum = AtomicU64::new(0);
            pool.run_scoped(16, &|i| {
                sum.fetch_add(round * 100 + i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), round * 1600 + 120);
        }
    }

    #[test]
    fn nested_run_scoped_makes_progress() {
        // All workers may be busy with outer jobs; the inner call must
        // still complete because callers participate in their own work.
        let pool = ReplayPool::new(2);
        let total = AtomicU64::new(0);
        pool.run_scoped(4, &|_| {
            ReplayPool::global().run_scoped(4, &|j| {
                total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 6);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ReplayPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_scoped(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool keeps working after a job panic.
        let sum = AtomicU64::new(0);
        pool.run_scoped(4, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }
}
