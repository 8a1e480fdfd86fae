//! Offline stand-in for `rayon` (see `benchmark/stubs/libc` for why).
//!
//! The workspace uses one shape only: build a pool of `n` threads, then
//! `pool.scope(|s| s.spawn(move |_| ...))` to fan independent jobs out and
//! wait for all of them. This stand-in keeps that shape and keeps it
//! parallel: `scope` runs the caller's closure to collect the jobs, then
//! `n` scoped OS threads drain the job queue. Jobs spawned from inside a job
//! join the same queue. A panicking job panics the scope, as in rayon.
use std::collections::VecDeque;
use std::sync::Mutex;

/// Stand-in for `rayon::ThreadPoolBuildError`; never produced.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Stand-in for `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the host's parallelism as its thread count.
    pub fn new() -> Self {
        ThreadPoolBuilder { threads: 0 }
    }

    /// Sets the thread count; 0 means the host's parallelism.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Builds the pool. Threads are started per `scope` call, not here.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Ok(ThreadPool { threads })
    }
}

/// Stand-in for `rayon::ThreadPool`.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

type Job<'scope> = Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>;

/// Stand-in for `rayon::Scope`: the queue jobs are spawned into.
pub struct Scope<'scope> {
    queue: Mutex<VecDeque<Job<'scope>>>,
}

impl<'scope> Scope<'scope> {
    /// Queues `job`; it has run by the time the enclosing `scope` returns.
    pub fn spawn<F>(&self, job: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.lock().push_back(Box::new(job));
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Job<'scope>>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn drain(&self) {
        loop {
            let job = self.lock().pop_front();
            match job {
                Some(job) => job(self),
                None => return,
            }
        }
    }
}

impl ThreadPool {
    /// Runs `op`, then every job it spawned, on the pool's threads; returns
    /// once all of them have finished.
    pub fn scope<'scope, OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            queue: Mutex::new(VecDeque::new()),
        };
        let result = op(&scope);
        let workers = self.threads.min(scope.lock().len());
        if workers <= 1 {
            scope.drain();
        } else {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| scope.drain());
                }
            });
        }
        result
    }
}
