//! A persistent worker-thread pool with a shared injector queue and
//! work-helping scope completion.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::config::PoolConfig;
use crate::scope::{Scope, ScopeState};

/// A unit of work executed by a pool worker.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of worker threads.
///
/// Jobs are injected into a shared MPMC channel; idle workers block on the
/// channel. The pool supports *scoped* execution ([`ThreadPool::scope`]),
/// which is what the band-scheduled [`ThreadPool::par_chunks_mut`] is built
/// on. While waiting for a scope to complete, the waiting thread *helps* by
/// draining jobs from the shared queue, so nested parallelism (a task that
/// itself spawns a scope) cannot deadlock the pool.
pub struct ThreadPool {
    sender: Sender<Job>,
    receiver: Receiver<Job>,
    workers: Vec<std::thread::JoinHandle<()>>,
    num_threads: usize,
    jobs_executed: Arc<AtomicUsize>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.num_threads)
            .field("jobs_executed", &self.jobs_executed.load(Ordering::Relaxed))
            .finish()
    }
}

impl ThreadPool {
    /// Create a pool with the given configuration.
    pub fn new(config: PoolConfig) -> Self {
        let num_threads = config.resolve_threads();
        let (sender, receiver) = unbounded::<Job>();
        let jobs_executed = Arc::new(AtomicUsize::new(0));
        let mut workers = Vec::with_capacity(num_threads);
        for idx in 0..num_threads {
            let rx = receiver.clone();
            let counter = Arc::clone(&jobs_executed);
            let mut builder =
                std::thread::Builder::new().name(format!("{}-{idx}", config.thread_name));
            if let Some(stack) = config.stack_size {
                builder = builder.stack_size(stack);
            }
            let handle = builder
                .spawn(move || {
                    // Workers exit when the channel disconnects (pool drop).
                    while let Ok(job) = rx.recv() {
                        job();
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .expect("failed to spawn bcpnn worker thread");
            workers.push(handle);
        }
        Self {
            sender,
            receiver,
            workers,
            num_threads,
            jobs_executed,
        }
    }

    /// Number of worker threads owned by the pool.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Total number of jobs executed by the workers since the pool was
    /// created (diagnostic; does not include jobs run by helping threads).
    pub fn jobs_executed(&self) -> usize {
        self.jobs_executed.load(Ordering::Relaxed)
    }

    /// Submit a free-standing (`'static`) job for asynchronous execution.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.inject(Box::new(f));
    }

    pub(crate) fn inject(&self, job: Job) {
        self.sender
            .send(job)
            .expect("bcpnn thread pool queue disconnected");
    }

    /// Run `f` with a [`Scope`] that allows spawning tasks which borrow from
    /// the caller's stack. The call returns only after the scope body *and*
    /// every spawned task have completed. If the body or any task panicked,
    /// the panic is re-raised here.
    ///
    /// ```
    /// use bcpnn_parallel::{PoolConfig, ThreadPool};
    ///
    /// let pool = ThreadPool::new(PoolConfig::with_threads(2));
    /// let data = vec![1u32, 2, 3, 4];
    /// let mut partials = vec![0u32; 2];
    /// pool.scope(|s| {
    ///     let (lo, hi) = partials.split_at_mut(1);
    ///     let (a, b) = data.split_at(2);
    ///     s.spawn(move || lo[0] = a.iter().sum());
    ///     s.spawn(move || hi[0] = b.iter().sum());
    /// });
    /// assert_eq!(partials[0] + partials[1], 10);
    /// ```
    pub fn scope<'scope, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'scope, '_>) -> R,
    {
        let state = ScopeState::new();
        let scope = Scope::new(self, Arc::clone(&state));
        let body_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&scope)));
        // Always wait for spawned tasks, even if the body panicked: tasks
        // may borrow data owned by our caller.
        self.complete_scope(&state);
        match body_result {
            Ok(r) => {
                if state.any_panicked() {
                    panic!("a task spawned in ThreadPool::scope panicked");
                }
                r
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Wait for every task of `state` to finish, helping to drain the shared
    /// queue in the meantime so nested scopes cannot deadlock.
    fn complete_scope(&self, state: &Arc<ScopeState>) {
        while !state.is_done() {
            match self.receiver.try_recv() {
                Ok(job) => job(),
                Err(_) => state.wait_briefly(),
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Replace the sender so the channel disconnects and workers exit.
        let (dummy_tx, _dummy_rx) = unbounded::<Job>();
        let old = std::mem::replace(&mut self.sender, dummy_tx);
        drop(old);
        drop(std::mem::replace(&mut self.receiver, _dummy_rx));
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

static GLOBAL_POOL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool behind the free slice helpers such as
/// [`crate::par_chunks_mut`].
///
/// Created lazily on first use with [`PoolConfig::default`], i.e. sized by
/// `BCPNN_NUM_THREADS` or the number of available cores.
pub fn global_pool() -> &'static ThreadPool {
    GLOBAL_POOL.get_or_init(|| ThreadPool::new(PoolConfig::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_reports_thread_count() {
        let pool = ThreadPool::new(PoolConfig::with_threads(3));
        assert_eq!(pool.num_threads(), 3);
    }

    #[test]
    fn spawn_executes_static_jobs() {
        let pool = ThreadPool::new(PoolConfig::with_threads(2));
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Scoped no-op acts as a soft barrier only for scoped work, so poll.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while counter.load(Ordering::SeqCst) != 64 {
            assert!(std::time::Instant::now() < deadline, "jobs did not finish");
            std::thread::yield_now();
        }
        assert!(pool.jobs_executed() >= 64);
    }

    #[test]
    fn scope_waits_for_all_tasks() {
        let pool = ThreadPool::new(PoolConfig::with_threads(4));
        let hits = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..257 {
                let hits = &hits;
                s.spawn(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 257);
    }

    #[test]
    fn scope_returns_body_value() {
        let pool = ThreadPool::new(PoolConfig::with_threads(2));
        let v = pool.scope(|_| 42u32);
        assert_eq!(v, 42);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = Arc::new(ThreadPool::new(PoolConfig::with_threads(2)));
        let total = AtomicU64::new(0);
        pool.scope(|outer| {
            for _ in 0..8 {
                let total = &total;
                let pool2 = &pool;
                outer.spawn(move || {
                    pool2.scope(|inner| {
                        for _ in 0..8 {
                            let total = &total;
                            inner.spawn(move || {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 64);
    }

    #[test]
    #[should_panic(expected = "a task spawned in ThreadPool::scope panicked")]
    fn task_panic_propagates() {
        let pool = ThreadPool::new(PoolConfig::with_threads(2));
        pool.scope(|s| {
            s.spawn(|| panic!("boom"));
        });
    }

    #[test]
    fn single_thread_pool_still_completes_scopes() {
        let pool = ThreadPool::new(PoolConfig::with_threads(1));
        let hits = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..32 {
                let hits = &hits;
                s.spawn(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn global_pool_is_reusable() {
        let p1 = global_pool();
        let p2 = global_pool();
        assert!(std::ptr::eq(p1, p2));
        assert!(p1.num_threads() >= 1);
    }
}
