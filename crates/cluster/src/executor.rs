//! The worker-pool executor.
//!
//! A [`Cluster`] owns a fixed number of logical workers (the paper's
//! "cores" axis in the scale-up experiments). A job is a list of
//! [`TaskSpec`]s, each pinned to a worker — exactly Spark's model where a
//! partition is the basic execution unit and tasks run where their partition
//! lives. Workers execute their queues concurrently on real OS threads;
//! per-task compute time is measured and incoming shipments are charged to
//! the network model.
//!
//! # Who owns the threads
//!
//! Like Spark's executors, the workers exist before any job does:
//! [`Cluster::new`] creates one OS thread per logical worker, named
//! `dita-worker-{wid}`, each blocked on its own FIFO. Clones of a
//! `Cluster` share the threads; the last clone to drop closes the FIFOs
//! and joins them, so no thread outlives the cluster. A job spawns
//! nothing: the driver hands every *non-empty* per-worker queue to that
//! worker's FIFO as one closure and blocks until each has reported back.
//! Idle workers are not woken.
//!
//! Two consequences for callers:
//!
//! * **Jobs from different driver threads interleave per worker** in
//!   hand-off order; each driver gets its own results back.
//! * **Jobs do not nest.** A task that submits a job to the cluster it is
//!   running on would queue work behind itself and wait for it forever,
//!   so the executor refuses it with a panic (which the retry path turns
//!   into a job abort carrying that message) instead of hanging.

use crate::network::NetworkModel;
use crate::stats::{JobStats, TaskCost, WorkerStats};
use dita_obs::{names, Counter, Histogram, Obs};
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// CPU time consumed by the calling thread. Unlike wall-clock deltas, this
/// is immune to preemption, so per-task compute costs stay accurate even
/// when the host has fewer physical cores than the cluster has workers.
///
/// Re-exported from `dita-obs` so the executor's task pricing and the
/// tracer's span CPU accounting read the same clock.
pub use dita_obs::thread_cpu_time;

/// How many times a failing task is retried before the job fails —
/// mirroring Spark's `spark.task.maxFailures` (default 4 attempts total).
pub const MAX_TASK_ATTEMPTS: usize = 4;

/// A recoverable task failure.
///
/// Worker-executed code reports failures by returning `Err(TaskError)`
/// from an [`Cluster::execute_try`] closure instead of panicking: the
/// executor's retry path treats the error exactly like a task panic
/// (retried up to [`MAX_TASK_ATTEMPTS`], then the job aborts), but the
/// failure carries a message, costs no unwind, and — unlike a panic —
/// is visible to `dita-lint`'s `worker-panic` rule as the sanctioned
/// alternative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Human-readable description, surfaced in the job-abort message
    /// when every attempt fails.
    pub message: String,
}

impl TaskError {
    /// A task error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        TaskError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task error: {}", self.message)
    }
}

impl std::error::Error for TaskError {}

thread_local! {
    /// Compute time charged to the current worker task by helper threads it
    /// spawned (see [`charge_compute`]); drained once per task.
    static EXTRA_COMPUTE_NS: Cell<u64> = const { Cell::new(0) };
}

/// Adds `d` of CPU time to the current worker task's compute cost.
///
/// The executor measures each task with the *worker thread's* CPU clock,
/// which cannot see work done on other threads. A task that fans out to a
/// local thread pool (e.g. rayon-parallel verification) measures its helper
/// threads' CPU time itself and reports the total here; the executor folds
/// it into the task's compute stats, keeping the cost model honest — the
/// simulated makespan reflects the work done, not the parallelism of the
/// host it happened to run on.
///
/// Calls from outside a cluster task are discarded at the next task start.
pub fn charge_compute(d: Duration) {
    EXTRA_COMPUTE_NS.with(|c| c.set(c.get().saturating_add(d.as_nanos() as u64)));
}

/// Drains the compute time reported via [`charge_compute`] on this thread.
fn take_extra_compute() -> Duration {
    Duration::from_nanos(EXTRA_COMPUTE_NS.with(|c| c.replace(0)))
}

/// The compute time charged to a task given its CPU-clock delta and its
/// wall-clock duration. Hosts without a usable per-thread CPU clock (where
/// [`thread_cpu_time`] reads zero) fall back to wall time — workers run
/// their queues sequentially, so the wall delta is a faithful stand-in
/// there, and a priced task cost beats an unpriced one for the dynamic
/// scheduler and the cost-feedback store.
fn task_compute(cpu: Duration, wall: Duration) -> Duration {
    if cpu.is_zero() {
        wall
    } else {
        cpu
    }
}

/// Whether the per-thread CPU clock actually advances on this host.
///
/// Probed once from the driver thread (which has burned plenty of CPU by
/// the time a job runs): a broken clock reads zero forever. When it is
/// broken, [`task_compute`] falls back to wall time, and co-running worker
/// threads would bill each other's timeslices to every task — so
/// `execute_impl` serializes task bodies in that case (see the `gate`
/// there).
fn cpu_clock_works() -> bool {
    static WORKS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *WORKS.get_or_init(|| !thread_cpu_time().is_zero())
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of logical workers (≥ 1).
    pub num_workers: usize,
    /// Network model used to charge shipments.
    pub network: NetworkModel,
    /// Optional per-worker compute slowdown factors (straggler injection);
    /// missing entries default to 1.0.
    pub slowdowns: Vec<f64>,
}

impl ClusterConfig {
    /// A healthy cluster of `n` workers with the default network.
    pub fn with_workers(n: usize) -> Self {
        ClusterConfig {
            num_workers: n,
            network: NetworkModel::default(),
            slowdowns: Vec::new(),
        }
    }
}

/// One unit of work, pinned to a worker.
#[derive(Debug, Clone)]
pub struct TaskSpec<T> {
    /// Index of the worker that must run this task.
    pub worker: usize,
    /// Bytes shipped to the worker for this task (charged to the network
    /// model before the task runs).
    pub incoming_bytes: u64,
    /// Partition this task computes, when the job attributes one — it
    /// flows into [`TaskCost::partition`] and onto the task's span, where
    /// the cost-feedback store and the critical-path analyzer read it.
    pub partition: Option<usize>,
    /// Task payload handed to the job function.
    pub payload: T,
}

/// One worker's share of a job, boxed for the hand-off to its thread.
type Work = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Id of the [`Pool`] this thread is a worker of; 0 on every other
    /// thread. Lets a nested job fail loudly instead of deadlocking.
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
}

/// The long-lived worker threads of a [`Cluster`], shared by its clones.
struct Pool {
    /// Process-unique and non-zero (see [`WORKER_OF`]).
    id: usize,
    /// One FIFO per worker. Dropping the senders is the shutdown signal:
    /// a worker exits when its `recv` reports the channel closed.
    fifos: Vec<mpsc::Sender<Work>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns `num_workers` threads named `dita-worker-{wid}` — the only
    /// thread creation in this crate.
    fn new(num_workers: usize) -> Self {
        // Relaxed: the id only has to be unique, it publishes nothing.
        static NEXT_ID: AtomicUsize = AtomicUsize::new(1);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let mut pool = Pool {
            id,
            fifos: Vec::with_capacity(num_workers),
            threads: Vec::with_capacity(num_workers),
        };
        for wid in 0..num_workers {
            let (tx, rx) = mpsc::channel::<Work>();
            let thread = thread::Builder::new()
                .name(format!("dita-worker-{wid}"))
                .spawn(move || {
                    WORKER_OF.with(|w| w.set(id));
                    // Every `Work` catches its own task panics, so the
                    // loop only ends when the pool drops its senders.
                    while let Ok(work) = rx.recv() {
                        work();
                    }
                })
                .expect("the OS refused a cluster worker thread");
            pool.fifos.push(tx);
            pool.threads.push(thread);
        }
        pool
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.fifos.clear();
        for thread in self.threads.drain(..) {
            // A worker cannot have panicked (see `Pool::new`), and `Drop`
            // must not: nothing to report either way.
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("id", &self.id)
            .field("workers", &self.threads.len())
            .finish()
    }
}

/// The driver's view of the queues it has handed to workers: how many
/// have not reported back yet, and the channel they report on.
///
/// Dropping it **blocks until none is outstanding**. That is the whole
/// safety argument of the lifetime erasure in [`Cluster::execute_impl`]:
/// the guard is created before the first hand-off, so neither a return
/// nor an unwind can pop the driver's frame while a worker still borrows
/// from it.
struct InFlight<M> {
    /// The driver's own sender, cloned into every handed-off queue and
    /// dropped before the first wait so that a closed channel means
    /// "every queue has run or been dropped".
    report: Option<mpsc::Sender<M>>,
    reports: mpsc::Receiver<M>,
    outstanding: usize,
}

impl<M> InFlight<M> {
    fn new() -> Self {
        let (report, reports) = mpsc::channel();
        InFlight {
            report: Some(report),
            reports,
            outstanding: 0,
        }
    }

    /// A sender for one queue about to be handed off.
    fn reporter(&self) -> mpsc::Sender<M> {
        self.report
            .clone()
            .expect("queues are handed off before the first wait")
    }

    /// Blocks for the next report; `None` once nothing is outstanding.
    fn next(&mut self) -> Option<M> {
        self.report = None;
        if self.outstanding == 0 {
            return None;
        }
        match self.reports.recv() {
            Ok(m) => {
                self.outstanding -= 1;
                Some(m)
            }
            // Every sender is gone without a report: the remaining
            // queues were dropped unrun, nothing borrows the job any more.
            Err(mpsc::RecvError) => {
                self.outstanding = 0;
                None
            }
        }
    }
}

impl<M> Drop for InFlight<M> {
    fn drop(&mut self) {
        while self.next().is_some() {}
    }
}

/// One worker's metric handles in the attached [`Obs`]. Each half is
/// resolved on first use — not per job, the registry takes a lock — and
/// only then, so a worker that never runs a task registers no series.
#[derive(Debug, Default)]
struct WorkerObs {
    run: OnceLock<RunObs>,
    /// `dita_worker_wait_seconds{worker}`; apart from `run` because the
    /// dynamic path records waits for the *scheduled* worker, which need
    /// not have run anything physically.
    wait: OnceLock<Histogram>,
}

/// What a worker records while it runs a queue (all no-ops when the
/// context is disabled).
#[derive(Debug)]
struct RunObs {
    span_label: String,
    tasks: Counter,
    retries: Counter,
    bytes: Counter,
    net: Histogram,
    cpu: Histogram,
}

impl RunObs {
    fn resolve(obs: &Obs, wid: usize) -> Self {
        let wlabel = wid.to_string();
        let labels: &[(&str, &str)] = &[("worker", wlabel.as_str())];
        RunObs {
            span_label: format!("worker={wid}"),
            tasks: obs.counter_labeled(names::TASKS_TOTAL, labels),
            retries: obs.counter_labeled(names::TASK_RETRIES_TOTAL, labels),
            bytes: obs.counter_labeled(names::NETWORK_BYTES_TOTAL, labels),
            net: obs.histogram_seconds_labeled(names::TASK_NETWORK_SECONDS, labels),
            cpu: obs.histogram_seconds_labeled(names::TASK_COMPUTE_SECONDS, labels),
        }
    }
}

fn unresolved_worker_obs(num_workers: usize) -> Arc<[WorkerObs]> {
    (0..num_workers).map(|_| WorkerObs::default()).collect()
}

/// A simulated cluster: a pool of logical workers plus a network model.
///
/// Cloning is cheap and shares the worker threads; they are joined when
/// the last clone drops.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    obs: Obs,
    /// Handles into `obs`, shared with clones until one re-attaches.
    worker_obs: Arc<[WorkerObs]>,
    pool: Arc<Pool>,
}

impl Cluster {
    /// Creates a cluster and starts its worker threads.
    ///
    /// # Panics
    /// Panics if `num_workers == 0` or any slowdown factor is < 1.0.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(
            config.num_workers >= 1,
            "a cluster needs at least one worker"
        );
        assert!(
            config.slowdowns.iter().all(|&s| s >= 1.0),
            "slowdown factors must be >= 1.0"
        );
        Cluster {
            worker_obs: unresolved_worker_obs(config.num_workers),
            pool: Arc::new(Pool::new(config.num_workers)),
            config,
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability context: subsequent jobs record per-worker
    /// task/retry/network/compute metrics and a per-task span timeline into
    /// it. Detach by attaching [`Obs::disabled`]. Clones made earlier keep
    /// their own context.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
        self.worker_obs = unresolved_worker_obs(self.config.num_workers);
    }

    /// The cluster's observability context (disabled unless attached).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.config.num_workers
    }

    /// The network model.
    pub fn network(&self) -> &NetworkModel {
        &self.config.network
    }

    fn slowdown(&self, worker: usize) -> f64 {
        self.config.slowdowns.get(worker).copied().unwrap_or(1.0)
    }

    /// Executes a job: every task runs on its pinned worker's thread;
    /// workers run concurrently, tasks within a worker sequentially. The
    /// calling thread (the driver) blocks until the last worker is done.
    /// Returns the task results in submission order plus the job
    /// statistics.
    ///
    /// # Panics
    /// Panics if any task names a worker `>= num_workers`, or if called
    /// from inside a task of this same cluster (jobs do not nest, see the
    /// module docs).
    pub fn execute<T, R, F>(&self, tasks: Vec<TaskSpec<T>>, f: F) -> (Vec<R>, JobStats)
    where
        T: Send + Clone,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.execute_try(tasks, move |w, t| Ok(f(w, t)))
    }

    /// [`Cluster::execute`] for fallible tasks: a closure returning
    /// `Err(TaskError)` is retried with an identical (cloned) payload up
    /// to [`MAX_TASK_ATTEMPTS`] times — the same fault-tolerance path
    /// that covers task panics — and the job aborts only when the final
    /// attempt still fails.
    ///
    /// Worker-executed code should prefer returning `TaskError` over
    /// panicking: the failure is explicit, carries a message into the
    /// abort diagnostics, and keeps unwinding out of the hot path.
    ///
    /// # Panics
    /// Panics like [`Cluster::execute`], and when a task fails all of its
    /// attempts (the job abort). The abort re-raises the worker's own
    /// panic on the driver — "task failed after 4 attempts: task error:
    /// …" for a [`TaskError`], the task's last panic payload otherwise —
    /// after every other worker has finished its queue. The worker
    /// threads survive it; the cluster stays usable.
    pub fn execute_try<T, R, F>(&self, tasks: Vec<TaskSpec<T>>, f: F) -> (Vec<R>, JobStats)
    where
        T: Send + Clone,
        R: Send,
        F: Fn(usize, T) -> Result<R, TaskError> + Sync,
    {
        self.execute_impl(tasks, f, true)
    }

    /// Shared body of [`Cluster::execute_try`] and the physical run
    /// inside [`Cluster::execute_dynamic`]. `record_wait` gates the
    /// per-worker barrier-wait metric: the dynamic path prices waits from
    /// its *scheduled* assignment instead, so its physical round-robin
    /// run must not pollute the series.
    ///
    /// The hand-off protocol: split the tasks into per-worker queues;
    /// box each non-empty queue's run as one closure and send it down
    /// that worker's FIFO; receive one report per handed-off queue
    /// (stats and results, or the panic that ended it); re-raise the
    /// lowest-numbered worker's panic, if any; otherwise assemble
    /// [`JobStats`]. The closures borrow this frame (`f`, the payloads'
    /// and results' lifetimes), which [`InFlight`] makes sound.
    fn execute_impl<T, R, F>(
        &self,
        tasks: Vec<TaskSpec<T>>,
        f: F,
        record_wait: bool,
    ) -> (Vec<R>, JobStats)
    where
        T: Send + Clone,
        R: Send,
        F: Fn(usize, T) -> Result<R, TaskError> + Sync,
    {
        let nw = self.config.num_workers;
        for t in &tasks {
            assert!(t.worker < nw, "task pinned to unknown worker {}", t.worker);
        }
        assert!(
            WORKER_OF.with(Cell::get) != self.pool.id,
            "a task submitted a job to the cluster it is running on: the job would \
             queue behind the task that waits for it — jobs do not nest"
        );

        // Split tasks into per-worker queues, remembering submission order.
        let mut queues: Vec<Vec<(usize, TaskSpec<T>)>> = (0..nw).map(|_| Vec::new()).collect();
        let total = tasks.len();
        for (i, t) in tasks.into_iter().enumerate() {
            queues[t.worker].push((i, t));
        }

        let started = Instant::now();
        let f = &f;
        let net = &self.config.network;
        let obs = &self.obs;
        let worker_obs = &*self.worker_obs;
        // The driver thread's current span (if any) becomes the parent of
        // every worker span, stitching the per-worker subtrees into the
        // caller's operation span across the thread boundary.
        let parent = obs.current_span();
        // Wall-clock measurement gate: with a dead CPU clock each task is
        // billed by wall time, so task bodies must not co-run or every
        // task absorbs its neighbours' timeslices. Logical workers keep
        // their own queues, spans and stats — only the measured region is
        // serialized.
        let gate = (!cpu_clock_works()).then(|| {
            dita_obs::OrderedMutex::with_obs(&dita_obs::sync::locks::EXECUTOR_GATE, (), obs)
        });
        let gate = &gate;

        type TaskOut<R> = (usize, R, TaskCost);
        type QueueOut<R> = (WorkerStats, Vec<TaskOut<R>>);
        type Report<R> = (usize, Result<QueueOut<R>, Box<dyn Any + Send>>);
        let mut in_flight = InFlight::<Report<R>>::new();
        for (wid, queue) in queues.into_iter().enumerate() {
            // Idle workers are not woken and record nothing: no span, no
            // zero-valued metric series.
            if queue.is_empty() {
                continue;
            }
            let report = in_flight.reporter();
            let work: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                // The unwind of a job abort stops here, so the worker
                // thread lives on and the driver hears about it.
                let out = catch_unwind(AssertUnwindSafe(move || {
                    let mut stats = WorkerStats::default();
                    let mut results = Vec::with_capacity(queue.len());
                    let m = worker_obs[wid]
                        .run
                        .get_or_init(|| RunObs::resolve(obs, wid));
                    // A disabled context builds no span label.
                    let _worker_span = if obs.is_enabled() {
                        obs.span_under_labeled(parent, names::SPAN_WORKER, m.span_label.clone())
                    } else {
                        dita_obs::SpanGuard::noop()
                    };
                    for (i, task) in queue {
                        stats.bytes_received += task.incoming_bytes;
                        let net_sec = net.transfer_sec(task.incoming_bytes);
                        stats.network += Duration::from_secs_f64(net_sec);
                        m.bytes.add(task.incoming_bytes);
                        m.net.observe(net_sec);
                        let mut task_span = match task.partition {
                            Some(pid) => {
                                dita_obs::span!(obs, names::SPAN_TASK, worker = wid, pid = pid)
                            }
                            None => dita_obs::span!(obs, names::SPAN_TASK, worker = wid),
                        };
                        // Attribute the span for the critical-path
                        // analyzer: which lane ran it and what its
                        // shipment cost.
                        task_span.set_worker(wid as u32);
                        task_span.set_bytes(task.incoming_bytes);
                        task_span.set_net_sec(net_sec);
                        let _slot = gate.as_ref().map(|g| g.lock());
                        // Discard stale charges: one made outside any task,
                        // or left on this thread by an earlier job.
                        let _ = take_extra_compute();
                        let wall0 = Instant::now();
                        let t0 = thread_cpu_time();
                        // Task-level fault tolerance: a task that
                        // panics *or* returns Err(TaskError) is retried
                        // up to MAX_TASK_ATTEMPTS times with an
                        // identical (cloned) payload — Spark's
                        // spark.task.maxFailures behaviour.
                        let mut outcome: Result<R, TaskError> =
                            Err(TaskError::new("task never attempted"));
                        for attempt in 1..=MAX_TASK_ATTEMPTS {
                            let payload = task.payload.clone();
                            match catch_unwind(AssertUnwindSafe(|| f(wid, payload))) {
                                Ok(Ok(v)) => {
                                    outcome = Ok(v);
                                    break;
                                }
                                Ok(Err(e)) => {
                                    outcome = Err(e);
                                    if attempt < MAX_TASK_ATTEMPTS {
                                        stats.retries += 1;
                                        m.retries.inc();
                                    }
                                }
                                Err(_) if attempt < MAX_TASK_ATTEMPTS => {
                                    stats.retries += 1;
                                    m.retries.inc();
                                }
                                Err(p) => resume_unwind(p),
                            }
                        }
                        let extra = take_extra_compute();
                        let cpu =
                            task_compute(thread_cpu_time().saturating_sub(t0), wall0.elapsed())
                                + extra;
                        task_span.add_cpu(extra);
                        drop(task_span);
                        stats.compute += cpu;
                        stats.tasks += 1;
                        m.tasks.inc();
                        m.cpu.observe(cpu.as_secs_f64());
                        let v = match outcome {
                            Ok(v) => v,
                            Err(e) => {
                                // The job abort: the unwind ends this
                                // worker's queue and is re-raised on the
                                // driver, failing the whole job —
                                // mirroring Spark aborting a stage once a
                                // task exhausts its attempts.
                                // lint: allow(worker-panic, reason = "deliberate job abort after MAX_TASK_ATTEMPTS exhausted")
                                panic!("task failed after {MAX_TASK_ATTEMPTS} attempts: {e}");
                            }
                        };
                        results.push((
                            i,
                            v,
                            TaskCost {
                                worker: wid,
                                partition: task.partition,
                                compute_sec: cpu.as_secs_f64(),
                                network_sec: net_sec,
                                bytes: task.incoming_bytes,
                            },
                        ));
                    }
                    (stats, results)
                }));
                // Last: once this is received the driver may return. A
                // failed send would mean the driver dropped `in_flight`
                // early, which its `Drop` rules out.
                let _ = report.send((wid, out));
            });
            // SAFETY: the transmute only erases the closure's lifetime —
            // both types are the same fat pointer — so that it can cross
            // the worker's `'static` FIFO; `thread::scope` does the same
            // internally. What the lifetime protected is everything the
            // closure borrows from this frame: `f`, `gate`, the cluster
            // behind `net`/`obs`/`worker_obs`, and whatever the caller's
            // `T` and `R` borrow. Those borrows stay valid because this
            // frame cannot end while the closure is alive: `in_flight`
            // was created before this first hand-off, counts the closure
            // from the line after the send, and blocks in `next`/`Drop`
            // — on return and on unwind alike — until the closure has
            // sent its report or been dropped unrun (a closed channel).
            // The report is the closure's last use of anything borrowed:
            // by then the queue, its payloads and all spans are dropped,
            // the results have moved into the message (dropped, like
            // every message, by this thread), and all that remains is its
            // own `Sender`, a handle to the channel's heap state. A
            // closure the FIFO refuses comes back in the error and is
            // dropped right here, before the panic. Nothing can leak the
            // guard: it is a local of this function and never moved.
            let work: Work = unsafe { std::mem::transmute(work) };
            self.pool.fifos[wid]
                .send(work)
                .expect("cluster worker threads live as long as the cluster");
            in_flight.outstanding += 1;
        }

        let handed_off = in_flight.outstanding;
        let mut reports: Vec<Report<R>> = std::iter::from_fn(|| in_flight.next()).collect();
        assert_eq!(
            reports.len(),
            handed_off,
            "a cluster worker thread exited with a job in flight"
        );
        // Every queue has finished either way; in worker order, so the
        // abort a caller sees does not depend on which worker lost a race.
        reports.sort_by_key(|&(wid, _)| wid);
        let mut per_worker: Vec<QueueOut<R>> = (0..nw)
            .map(|_| (WorkerStats::default(), Vec::new()))
            .collect();
        for (wid, out) in reports {
            match out {
                Ok(done) => per_worker[wid] = done,
                // The job abort, with the worker's own message.
                Err(payload) => resume_unwind(payload),
            }
        }

        let elapsed = started.elapsed();
        let mut workers = Vec::with_capacity(nw);
        let mut slots: Vec<Option<(R, TaskCost)>> = (0..total).map(|_| None).collect();
        for (wid, (mut stats, results)) in per_worker.drain(..).enumerate() {
            stats.slowdown = self.slowdown(wid);
            workers.push(stats);
            for (i, r, cost) in results {
                slots[i] = Some((r, cost));
            }
        }
        let mut results = Vec::with_capacity(total);
        let mut task_costs = Vec::with_capacity(total);
        for s in slots {
            let (r, cost) = s.expect("every task produces a result");
            results.push(r);
            task_costs.push(cost);
        }
        let stats = JobStats {
            elapsed,
            workers,
            task_costs,
        };
        if record_wait && self.obs.is_enabled() {
            self.record_worker_waits(&stats);
        }
        (results, stats)
    }

    /// Mirrors each participating worker's barrier wait (makespan minus
    /// its own total) into the `dita_worker_wait_seconds` histogram. Idle
    /// workers record nothing, matching the executor's no-zero-series
    /// convention.
    fn record_worker_waits(&self, stats: &JobStats) {
        let waits = stats.wait_secs();
        for (wid, (ws, wait)) in stats.workers.iter().zip(waits).enumerate() {
            if ws.tasks == 0 {
                continue;
            }
            self.worker_obs[wid]
                .wait
                .get_or_init(|| {
                    self.obs.histogram_seconds_labeled(
                        names::WORKER_WAIT_SECONDS,
                        &[("worker", wid.to_string().as_str())],
                    )
                })
                .observe(wait);
        }
    }

    /// Round-robin placement: maps item `i` of `n` to a worker. The default
    /// partition→worker assignment used across the system.
    pub fn place(&self, i: usize) -> usize {
        i % self.config.num_workers
    }

    /// Executes a job under **dynamic scheduling**, Spark-style: tasks are
    /// not pinned; each is assigned to whichever worker finishes earliest,
    /// accounting for the data it must receive there.
    ///
    /// Mechanically, every task runs once (its CPU cost is measured with the
    /// thread CPU clock) and the assignment is then derived by an online
    /// greedy list schedule in submission order — the deterministic
    /// equivalent of executors pulling tasks as they go idle. A task with a
    /// `home` worker carries `home_data_bytes` of already-resident data;
    /// running it elsewhere charges that shipment too.
    ///
    /// Returns results in submission order plus the scheduled [`JobStats`].
    pub fn execute_dynamic<T, R, F>(&self, tasks: Vec<DynTaskSpec<T>>, f: F) -> (Vec<R>, JobStats)
    where
        T: Send + Clone,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let nw = self.config.num_workers;
        // Covers both the physical run (whose worker spans nest under it)
        // and the greedy list schedule that prices the assignment.
        let _span = self.obs.span(names::SPAN_EXECUTE_DYNAMIC);
        let specs: Vec<(u64, Option<usize>, u64, Option<usize>)> = tasks
            .iter()
            .map(|t| (t.shipped_bytes, t.home, t.home_data_bytes, t.partition))
            .collect();

        // Run every task (spread round-robin purely to use host cores),
        // measuring per-task CPU cost.
        let started = Instant::now();
        let pinned: Vec<TaskSpec<T>> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| TaskSpec {
                worker: i % nw,
                incoming_bytes: 0,
                partition: t.partition,
                payload: t.payload,
            })
            .collect();
        let f = &f;
        let obs = &self.obs;
        let (outcome, _raw) = self.execute_impl(
            pinned,
            move |_w, payload| {
                // The task span is current while the closure runs; keep
                // its handle so the schedule below can re-attribute the
                // span to the worker the task is actually assigned to.
                let span = obs.current_span();
                let wall0 = Instant::now();
                let t0 = thread_cpu_time();
                let r = f(payload);
                // Include CPU time the task reported from helper threads
                // so the schedule below prices the task's real cost.
                Ok((
                    r,
                    task_compute(thread_cpu_time().saturating_sub(t0), wall0.elapsed())
                        + take_extra_compute(),
                    span,
                ))
            },
            false,
        );
        let elapsed = started.elapsed();

        // Greedy list schedule: assign each task, in submission order, to
        // the worker where it would *complete* earliest.
        let net = &self.config.network;
        let mut clock = vec![0.0f64; nw];
        let mut workers: Vec<WorkerStats> = (0..nw)
            .map(|w| WorkerStats {
                slowdown: self.slowdown(w),
                ..WorkerStats::default()
            })
            .collect();
        let mut results = Vec::with_capacity(outcome.len());
        let mut task_costs = Vec::with_capacity(specs.len());
        for ((r, cpu, span), (shipped, home, home_bytes, partition)) in
            outcome.into_iter().zip(specs)
        {
            let mut best_w = 0;
            let mut best_done = f64::INFINITY;
            for (w, &busy_until) in clock.iter().enumerate() {
                let bytes = shipped + if Some(w) == home { 0 } else { home_bytes };
                let done = busy_until
                    + net.transfer_sec(bytes)
                    + cpu.as_secs_f64() * self.slowdown(w).max(1.0);
                if done < best_done {
                    best_done = done;
                    best_w = w;
                }
            }
            let bytes = shipped + if Some(best_w) == home { 0 } else { home_bytes };
            let net_sec = net.transfer_sec(bytes);
            clock[best_w] = best_done;
            let ws = &mut workers[best_w];
            ws.bytes_received += bytes;
            ws.network += Duration::from_secs_f64(net_sec);
            ws.compute += cpu;
            ws.tasks += 1;
            // Re-attribute the task's span from its physical round-robin
            // lane to the scheduled assignment, with the priced shipment.
            if let (Some(t), Some(handle)) = (self.obs.tracer(), span) {
                t.annotate(handle, Some(best_w as u32), Some(bytes), Some(net_sec));
            }
            task_costs.push(TaskCost {
                worker: best_w,
                partition,
                compute_sec: cpu.as_secs_f64(),
                network_sec: net_sec,
                bytes,
            });
            results.push(r);
        }
        let stats = JobStats {
            elapsed,
            workers,
            task_costs,
        };
        if self.obs.is_enabled() {
            self.obs
                .counter(names::DYN_TASKS_TOTAL)
                .add(results.len() as u64);
            self.obs
                .counter(names::DYN_SCHEDULED_BYTES_TOTAL)
                .add(stats.workers.iter().map(|w| w.bytes_received).sum());
            self.record_worker_waits(&stats);
        }
        (results, stats)
    }
}

/// One unit of work for [`Cluster::execute_dynamic`]: unpinned, with the
/// data-shipment facts the scheduler needs.
#[derive(Debug, Clone)]
pub struct DynTaskSpec<T> {
    /// Bytes that must reach whichever worker runs the task.
    pub shipped_bytes: u64,
    /// Worker already holding this task's resident data (e.g. the
    /// destination partition's index), if any.
    pub home: Option<usize>,
    /// Size of that resident data; charged when scheduled off-home.
    pub home_data_bytes: u64,
    /// Partition this task computes, when the job attributes one (see
    /// [`TaskSpec::partition`]).
    pub partition: Option<usize>,
    /// Task payload.
    pub payload: T,
}

/// The text of a caught panic, as the default hook would print it.
#[cfg(test)]
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic payload>")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            num_workers: n,
            network: NetworkModel {
                bandwidth_bytes_per_sec: 1_000_000.0,
                latency_sec: 0.001,
            },
            slowdowns: Vec::new(),
        })
    }

    #[test]
    fn results_preserve_submission_order() {
        let c = cluster(3);
        let tasks: Vec<TaskSpec<usize>> = (0..20)
            .map(|i| TaskSpec {
                worker: i % 3,
                incoming_bytes: 0,
                partition: None,
                payload: i,
            })
            .collect();
        let (results, stats) = c.execute(tasks, |_w, i| i * 10);
        assert_eq!(results, (0..20).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(stats.workers.len(), 3);
        assert_eq!(stats.workers.iter().map(|w| w.tasks).sum::<usize>(), 20);
    }

    #[test]
    fn tasks_run_on_their_pinned_worker() {
        let c = cluster(4);
        let tasks: Vec<TaskSpec<usize>> = (0..12)
            .map(|i| TaskSpec {
                worker: i % 4,
                incoming_bytes: 0,
                partition: None,
                payload: i,
            })
            .collect();
        let (results, _) = c.execute(tasks, |w, i| (w, i));
        for (w, i) in results {
            assert_eq!(w, i % 4);
        }
    }

    #[test]
    fn network_charges_accumulate() {
        let c = cluster(2);
        let tasks = vec![
            TaskSpec {
                worker: 0,
                incoming_bytes: 1_000_000,
                partition: None,
                payload: (),
            },
            TaskSpec {
                worker: 0,
                incoming_bytes: 1_000_000,
                partition: None,
                payload: (),
            },
            TaskSpec {
                worker: 1,
                incoming_bytes: 0,
                partition: None,
                payload: (),
            },
        ];
        let (_, stats) = c.execute(tasks, |_, _| ());
        assert_eq!(stats.workers[0].bytes_received, 2_000_000);
        // 2 × (1s transfer + 1ms latency).
        assert!((stats.workers[0].network.as_secs_f64() - 2.002).abs() < 1e-9);
        assert_eq!(stats.workers[1].bytes_received, 0);
        assert!(stats.total_bytes() == 2_000_000);
    }

    #[test]
    fn stragglers_inflate_makespan_not_wallclock() {
        let mut cfg = ClusterConfig::with_workers(2);
        cfg.slowdowns = vec![1.0, 10.0];
        let c = Cluster::new(cfg);
        let tasks = vec![
            TaskSpec {
                worker: 0,
                incoming_bytes: 0,
                partition: None,
                payload: 200_000u64,
            },
            TaskSpec {
                worker: 1,
                incoming_bytes: 0,
                partition: None,
                payload: 200_000u64,
            },
        ];
        let (_, stats) = c.execute(tasks, |_, spin| {
            // A tiny busy loop so compute time is measurable.
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
        });
        let w0 = stats.workers[0].total_sec();
        let w1 = stats.workers[1].total_sec();
        assert!(w1 > w0 * 2.0, "straggler not reflected: {w0} vs {w1}");
        assert!(stats.load_ratio() >= 2.0);
    }

    #[test]
    fn more_workers_shrink_makespan() {
        // Scale-up sanity on the *simulated* makespan: spreading the same 8
        // tasks over 4 workers must cut the busiest worker's total roughly
        // 4×. (Wall-clock speedup additionally needs physical cores, which
        // CI hosts may not have, so the assertion uses makespan.)
        let spin = |_: usize, n: u64| {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(std::hint::black_box(i).wrapping_mul(2654435761));
            }
            std::hint::black_box(acc)
        };
        let mk_tasks = |nw: usize| {
            (0..8)
                .map(|i| TaskSpec {
                    worker: i % nw,
                    incoming_bytes: 0,
                    partition: None,
                    payload: 3_000_000u64,
                })
                .collect::<Vec<_>>()
        };
        let c1 = cluster(1);
        let c4 = cluster(4);
        let (_, s1) = c1.execute(mk_tasks(1), spin);
        let (_, s4) = c4.execute(mk_tasks(4), spin);
        assert!(
            s4.makespan_sec() < s1.makespan_sec() * 0.6,
            "no makespan improvement: 1w {} vs 4w {}",
            s1.makespan_sec(),
            s4.makespan_sec()
        );
        assert_eq!(s4.workers.iter().filter(|w| w.tasks == 2).count(), 4);
    }

    #[test]
    #[should_panic(expected = "unknown worker")]
    fn unknown_worker_rejected() {
        let c = cluster(2);
        let _ = c.execute(
            vec![TaskSpec {
                worker: 5,
                incoming_bytes: 0,
                partition: None,
                payload: (),
            }],
            |_, _| (),
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Cluster::new(ClusterConfig::with_workers(0));
    }

    #[test]
    fn charged_compute_reaches_worker_stats() {
        let c = cluster(1);
        let tasks = vec![TaskSpec {
            worker: 0,
            incoming_bytes: 0,
            partition: None,
            payload: (),
        }];
        let (_, stats) = c.execute(tasks, |_, ()| {
            // Pretend helper threads burned 250ms of CPU on our behalf.
            charge_compute(Duration::from_millis(250));
        });
        assert!(
            stats.workers[0].compute >= Duration::from_millis(250),
            "charged compute missing: {:?}",
            stats.workers[0].compute
        );
    }

    #[test]
    fn stale_charges_are_discarded_before_a_task() {
        // A charge made outside any task (here: on the main thread) must not
        // leak into worker stats.
        charge_compute(Duration::from_secs(500));
        let c = cluster(1);
        let task = || {
            vec![TaskSpec {
                worker: 0,
                incoming_bytes: 0,
                partition: None,
                payload: (),
            }]
        };
        let (_, stats) = c.execute(task(), |_, ()| ());
        assert!(
            stats.workers[0].compute < Duration::from_secs(100),
            "stale charge leaked: {:?}",
            stats.workers[0].compute
        );
        // Worker threads outlive a job, so neither may a charge that job
        // n left on one be billed to job n + 1: an aborted task unwinds
        // past the point where its charges are drained.
        let aborted = catch_unwind(AssertUnwindSafe(|| {
            c.execute(task(), |_, ()| {
                charge_compute(Duration::from_secs(500));
                panic!("abort with the charge still pending");
            })
        }));
        assert!(aborted.is_err());
        let (_, stats) = c.execute(task(), |_, ()| ());
        assert!(
            stats.workers[0].compute < Duration::from_secs(100),
            "the previous job's charge leaked: {:?}",
            stats.workers[0].compute
        );
    }

    #[test]
    fn placement_is_round_robin() {
        let c = cluster(3);
        assert_eq!(c.place(0), 0);
        assert_eq!(c.place(4), 1);
        assert_eq!(c.place(11), 2);
    }
}

#[cfg(test)]
mod dynamic_tests {
    use super::*;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            num_workers: n,
            network: NetworkModel {
                bandwidth_bytes_per_sec: 1_000_000.0,
                latency_sec: 0.0,
            },
            slowdowns: Vec::new(),
        })
    }

    fn spin_task(n: u64) -> DynTaskSpec<u64> {
        DynTaskSpec {
            shipped_bytes: 0,
            home: None,
            home_data_bytes: 0,
            partition: None,
            payload: n,
        }
    }

    fn spin(n: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..n {
            // black_box defeats the closed-form summation LLVM would
            // otherwise apply, keeping the loop a real CPU cost.
            acc = acc.wrapping_add(std::hint::black_box(i).wrapping_mul(2654435761));
        }
        std::hint::black_box(acc)
    }

    #[test]
    fn results_in_submission_order() {
        let c = cluster(3);
        let tasks: Vec<DynTaskSpec<u64>> = (0..10).map(spin_task).collect();
        let (results, stats) = c.execute_dynamic(tasks, |n| n * 2);
        assert_eq!(results, (0..10).map(|n| n * 2).collect::<Vec<_>>());
        assert_eq!(stats.workers.iter().map(|w| w.tasks).sum::<usize>(), 10);
    }

    #[test]
    fn one_giant_task_dominates_without_splitting() {
        // 1 giant + 7 small tasks on 4 workers: the giant task sets the
        // makespan no matter the schedule.
        let c = cluster(4);
        let mut tasks = vec![spin_task(8_000_000)];
        tasks.extend((0..7).map(|_| spin_task(200_000)));
        let (_, stats) = c.execute_dynamic(tasks, spin);
        let giant = stats
            .workers
            .iter()
            .map(WorkerStats::total_sec)
            .fold(0.0f64, f64::max);
        // Splitting the giant into 4 pieces would cut the makespan.
        let split: Vec<DynTaskSpec<u64>> = (0..4)
            .map(|_| spin_task(2_000_000))
            .chain((0..7).map(|_| spin_task(200_000)))
            .collect();
        let (_, split_stats) = c.execute_dynamic(split, spin);
        assert!(
            split_stats.makespan_sec() < giant * 0.7,
            "split {} vs giant {giant}",
            split_stats.makespan_sec()
        );
    }

    #[test]
    fn scheduler_prefers_home_when_data_is_heavy() {
        // A task whose home data is huge should stay home even if another
        // worker is slightly freer.
        let c = cluster(2);
        let tasks = vec![
            // Small warm-up task that lands on some worker first.
            spin_task(100_000),
            DynTaskSpec {
                shipped_bytes: 0,
                home: Some(1),
                home_data_bytes: 50_000_000, // 50s to ship: stay home
                partition: None,
                payload: 100_000u64,
            },
        ];
        let (_, stats) = c.execute_dynamic(tasks, spin);
        // Worker 1 must have received zero bytes (task ran at home).
        assert_eq!(stats.workers[1].bytes_received, 0);
        assert!(stats.workers[1].tasks >= 1);
    }

    #[test]
    fn dynamic_beats_static_on_skewed_queues() {
        // 8 tasks of very different sizes: dynamic list scheduling must
        // spread them better than the worst static pin (all on one worker).
        let c = cluster(4);
        let sizes = [
            4_000_000u64,
            100_000,
            100_000,
            100_000,
            3_000_000,
            100_000,
            100_000,
            100_000,
        ];
        let tasks: Vec<DynTaskSpec<u64>> = sizes.iter().map(|&s| spin_task(s)).collect();
        let (_, stats) = c.execute_dynamic(tasks, spin);
        let total: f64 = stats.workers.iter().map(|w| w.compute.as_secs_f64()).sum();
        // Makespan close to the biggest single task, far below the serial sum.
        assert!(stats.makespan_sec() < total * 0.6);
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;

    #[test]
    fn execute_records_worker_spans_and_task_metrics() {
        let mut c = Cluster::new(ClusterConfig::with_workers(3));
        let obs = Obs::enabled();
        c.attach_obs(obs.clone());

        let _root = obs.span("job");
        let tasks: Vec<TaskSpec<u64>> = (0..4)
            .map(|i| TaskSpec {
                worker: (i % 2) as usize, // worker 2 stays idle
                incoming_bytes: 100,
                partition: None,
                payload: i,
            })
            .collect();
        let (results, _) = c.execute(tasks, |_w, i| i + 1);
        assert_eq!(results, vec![1, 2, 3, 4]);
        drop(_root);

        let report = obs.report();
        // Worker spans hang off the driver's `job` span; idle worker 2
        // contributes neither spans nor metric series.
        assert_eq!(report.profile.len(), 1);
        assert_eq!(report.profile[0].name, "job");
        let worker_spans = &report.profile[0].children;
        assert_eq!(worker_spans.len(), 2);
        assert!(worker_spans.iter().all(|w| w.name == "worker"));
        assert!(worker_spans
            .iter()
            .all(|w| w.children.iter().any(|t| t.name == "task")));

        let tasks_per_worker: Vec<f64> = report
            .metrics
            .iter()
            .filter(|m| m.name == "dita_tasks_total")
            .map(|m| m.value)
            .collect();
        assert_eq!(tasks_per_worker, vec![2.0, 2.0]);
        let bytes: f64 = report
            .metrics
            .iter()
            .filter(|m| m.name == "dita_network_bytes_total")
            .map(|m| m.value)
            .sum();
        assert_eq!(bytes, 400.0);
        // Per-task compute histogram saw every task.
        let cpu_count: u64 = report
            .metrics
            .iter()
            .filter(|m| m.name == "dita_task_compute_seconds")
            .map(|m| m.count)
            .sum();
        assert_eq!(cpu_count, 4);
        // The timeline carries one row per task plus the worker rows.
        assert_eq!(
            report.timeline.iter().filter(|r| r.name == "task").count(),
            4
        );
    }

    #[test]
    fn retries_are_counted_in_metrics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut c = Cluster::new(ClusterConfig::with_workers(1));
        let obs = Obs::enabled();
        c.attach_obs(obs.clone());
        let failures = AtomicUsize::new(0);
        let tasks = vec![TaskSpec {
            worker: 0,
            incoming_bytes: 0,
            partition: None,
            payload: (),
        }];
        let _ = c.execute(tasks, |_w, ()| {
            if failures.fetch_add(1, Ordering::SeqCst) < 1 {
                panic!("transient");
            }
        });
        let report = obs.report();
        let retried: f64 = report
            .metrics
            .iter()
            .filter(|m| m.name == "dita_task_retries_total")
            .map(|m| m.value)
            .sum();
        assert_eq!(retried, 1.0);
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let c = Cluster::new(ClusterConfig::with_workers(2));
        assert!(!c.obs().is_enabled());
        let tasks = vec![TaskSpec {
            worker: 0,
            incoming_bytes: 10,
            partition: None,
            payload: (),
        }];
        let (_, stats) = c.execute(tasks, |_, ()| ());
        assert_eq!(stats.workers[0].tasks, 1);
        assert!(c.obs().report().metrics.is_empty());
    }

    #[test]
    fn dynamic_jobs_nest_under_their_span() {
        let mut c = Cluster::new(ClusterConfig::with_workers(2));
        let obs = Obs::enabled();
        c.attach_obs(obs.clone());
        let tasks: Vec<DynTaskSpec<u64>> = (0..4)
            .map(|n| DynTaskSpec {
                shipped_bytes: 8,
                home: None,
                home_data_bytes: 0,
                partition: None,
                payload: n,
            })
            .collect();
        let (results, _) = c.execute_dynamic(tasks, |n| n);
        assert_eq!(results.len(), 4);
        let report = obs.report();
        assert_eq!(report.profile[0].name, "execute_dynamic");
        assert!(report.profile[0]
            .children
            .iter()
            .any(|n| n.name == "worker"));
        assert!(report
            .metrics
            .iter()
            .any(|m| m.name == "dita_dyn_scheduled_bytes_total" && m.value == 32.0));
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn poisoned_task_error_is_retried_not_aborted() {
        // Fault injection for the TaskError path: a task that *returns*
        // an error (no panic, no unwind) on its first two attempts must be
        // retried by the same path that covers panics and then succeed.
        let c = Cluster::new(ClusterConfig::with_workers(1));
        let failures = AtomicUsize::new(0);
        let tasks = vec![TaskSpec {
            worker: 0,
            incoming_bytes: 0,
            partition: None,
            payload: (),
        }];
        let (results, stats) = c.execute_try(tasks, |_w, ()| {
            if failures.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(TaskError::new("poisoned candidate list"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(results, vec![7]);
        assert_eq!(stats.workers[0].retries, 2);
        assert_eq!(stats.workers[0].tasks, 1);
    }

    #[test]
    fn permanently_erroring_task_aborts_with_its_message() {
        let c = Cluster::new(ClusterConfig::with_workers(1));
        let tasks = vec![TaskSpec {
            worker: 0,
            incoming_bytes: 0,
            partition: None,
            payload: (),
        }];
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            c.execute_try(tasks, |_w, ()| -> Result<(), TaskError> {
                Err(TaskError::new("bad shard"))
            })
        }));
        let payload = r.expect_err("a task erroring on all attempts must fail the job");
        assert_eq!(
            panic_message(payload.as_ref()),
            "task failed after 4 attempts: task error: bad shard"
        );
    }

    #[test]
    fn task_error_retries_are_counted_in_metrics() {
        let mut c = Cluster::new(ClusterConfig::with_workers(1));
        let obs = Obs::enabled();
        c.attach_obs(obs.clone());
        let failures = AtomicUsize::new(0);
        let tasks = vec![TaskSpec {
            worker: 0,
            incoming_bytes: 0,
            partition: None,
            payload: (),
        }];
        let _ = c.execute_try(tasks, |_w, ()| {
            if failures.fetch_add(1, Ordering::SeqCst) < 1 {
                Err(TaskError::new("transient"))
            } else {
                Ok(())
            }
        });
        let report = obs.report();
        let retried: f64 = report
            .metrics
            .iter()
            .filter(|m| m.name == names::TASK_RETRIES_TOTAL)
            .map(|m| m.value)
            .sum();
        assert_eq!(retried, 1.0);
    }

    #[test]
    fn flaky_task_is_retried_and_succeeds() {
        let c = Cluster::new(ClusterConfig::with_workers(2));
        let failures = AtomicUsize::new(0);
        let tasks: Vec<TaskSpec<usize>> = (0..4)
            .map(|i| TaskSpec {
                worker: i % 2,
                incoming_bytes: 0,
                partition: None,
                payload: i,
            })
            .collect();
        let (results, stats) = c.execute(tasks, |_w, i| {
            // Task 2 fails on its first two attempts.
            if i == 2 && failures.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient failure");
            }
            i * 10
        });
        assert_eq!(results, vec![0, 10, 20, 30]);
        assert_eq!(stats.workers.iter().map(|w| w.retries).sum::<usize>(), 2);
    }

    #[test]
    fn permanently_failing_task_aborts_the_job() {
        let c = Cluster::new(ClusterConfig::with_workers(1));
        let tasks = vec![TaskSpec {
            worker: 0,
            incoming_bytes: 0,
            partition: None,
            payload: (),
        }];
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            c.execute(tasks, |_w, ()| -> () { panic!("permanent failure") })
        }));
        let payload = r.expect_err("a task failing all attempts must fail the job");
        assert_eq!(panic_message(payload.as_ref()), "permanent failure");
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;
    use std::sync::Barrier;

    fn one_task_per_worker(n: usize) -> Vec<TaskSpec<()>> {
        (0..n)
            .map(|w| TaskSpec {
                worker: w,
                incoming_bytes: 0,
                partition: None,
                payload: (),
            })
            .collect()
    }

    #[test]
    fn a_job_spawns_no_thread() {
        // The deterministic "spawns per job = 0" gate: worker w is the
        // same OS thread in every job, and a different one per worker.
        let c = Cluster::new(ClusterConfig::with_workers(3));
        let seen = |c: &Cluster| {
            c.execute(one_task_per_worker(3), |_w, ()| {
                let me = thread::current();
                (me.id(), me.name().map(str::to_owned))
            })
            .0
        };
        let first = seen(&c);
        for (w, (id, name)) in first.iter().enumerate() {
            assert_eq!(name.as_deref(), Some(format!("dita-worker-{w}").as_str()));
            assert_ne!(*id, thread::current().id(), "the driver runs no queue");
            assert!(first[..w].iter().all(|(other, _)| other != id));
        }
        for job in 0..100 {
            assert_eq!(seen(&c), first, "job {job} ran on other threads");
        }
        // Clones share the threads rather than starting their own.
        assert_eq!(seen(&c.clone()), first);
    }

    #[test]
    fn the_pool_survives_a_job_abort() {
        let c = Cluster::new(ClusterConfig::with_workers(2));
        let before = c.execute(one_task_per_worker(2), |_w, ()| thread::current().id());
        let aborted = catch_unwind(AssertUnwindSafe(|| {
            c.execute(one_task_per_worker(2), |w, ()| {
                if w == 1 {
                    panic!("worker 1 cannot do this");
                }
                w
            })
        }));
        let payload = aborted.expect_err("a task panicking on every attempt aborts the job");
        assert_eq!(panic_message(payload.as_ref()), "worker 1 cannot do this");
        // Same cluster, same threads, next job is fine.
        let after = c.execute(one_task_per_worker(2), |_w, ()| thread::current().id());
        assert_eq!(before.0, after.0);
        assert_eq!(after.1.workers.iter().map(|w| w.tasks).sum::<usize>(), 2);
    }

    #[test]
    fn the_lowest_failing_worker_is_the_one_reported() {
        let c = Cluster::new(ClusterConfig::with_workers(3));
        let aborted = catch_unwind(AssertUnwindSafe(|| {
            c.execute_try(one_task_per_worker(3), |w, ()| {
                if w == 0 {
                    Ok(())
                } else {
                    Err(TaskError::new(format!("shard {w}")))
                }
            })
        }));
        let payload = aborted.expect_err("two workers failed");
        assert_eq!(
            panic_message(payload.as_ref()),
            "task failed after 4 attempts: task error: shard 1"
        );
    }

    #[test]
    fn concurrent_drivers_get_their_own_results_in_order() {
        let c = Cluster::new(ClusterConfig::with_workers(3));
        // Both drivers are submitting before either has finished.
        let start = Barrier::new(2);
        thread::scope(|s| {
            for driver in 0..2u64 {
                let (c, start) = (c.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for job in 0..1_000u64 {
                        let tasks: Vec<TaskSpec<u64>> = (0..5)
                            .map(|i| TaskSpec {
                                worker: ((job + i) % 3) as usize,
                                incoming_bytes: 0,
                                partition: None,
                                payload: i,
                            })
                            .collect();
                        let (results, stats) = c.execute(tasks, |_w, i| (driver, job, i));
                        let expect: Vec<_> = (0..5).map(|i| (driver, job, i)).collect();
                        assert_eq!(results, expect);
                        assert_eq!(stats.workers.iter().map(|w| w.tasks).sum::<usize>(), 5);
                    }
                });
            }
        });
    }

    /// Targeted exercise of the lifetime erasure in `execute_impl` (see
    /// its SAFETY comment), in the style of `dita_obs::time`'s
    /// `unsafe_call_contract`: the closure, the payloads and the results
    /// all borrow a `Vec` on this stack, and the driver mutates that
    /// `Vec` between jobs — which is only sound, and only yields the
    /// sums asserted here, if no worker touches a job's borrows once
    /// `execute` has returned. `the_pool_survives_a_job_abort` and
    /// `stale_charges_are_discarded_before_a_task` cover the unwinding
    /// exit.
    #[test]
    fn ten_thousand_jobs_borrow_the_drivers_stack() {
        let c = Cluster::new(ClusterConfig::with_workers(2));
        let mut data: Vec<u64> = (0..64).collect();
        for job in 0..10_000usize {
            let offset = data[0];
            let tasks: Vec<TaskSpec<&[u64]>> = data
                .chunks(16)
                .enumerate()
                .map(|(i, chunk)| TaskSpec {
                    worker: i % 2,
                    incoming_bytes: 0,
                    partition: None,
                    payload: chunk,
                })
                .collect();
            let bias = &offset;
            let (firsts, _) = c.execute(tasks, |_w, chunk: &[u64]| {
                (&chunk[0], chunk.iter().sum::<u64>() + *bias)
            });
            let total: u64 = firsts.iter().map(|&(_, sum)| sum).sum();
            assert_eq!(total, data.iter().sum::<u64>() + 4 * offset, "job {job}");
            assert!(std::ptr::eq(firsts[3].0, &data[48]));
            data[job % 64] += 1;
        }
    }

    #[test]
    fn a_nested_job_fails_loudly_instead_of_hanging() {
        let c = Cluster::new(ClusterConfig::with_workers(2));
        let other = Cluster::new(ClusterConfig::with_workers(1));
        let nested = catch_unwind(AssertUnwindSafe(|| {
            c.execute(one_task_per_worker(1), |_w, ()| {
                // Worker 1 is idle, so this is not even the w0 → w0 case.
                c.execute(
                    vec![TaskSpec {
                        worker: 1,
                        incoming_bytes: 0,
                        partition: None,
                        payload: (),
                    }],
                    |_w, ()| (),
                );
            })
        }));
        let payload = nested.expect_err("a task may not drive its own cluster");
        assert!(
            panic_message(payload.as_ref()).contains("jobs do not nest"),
            "{}",
            panic_message(payload.as_ref())
        );
        // A task driving *another* cluster waits on other threads: fine.
        let (sums, _) = c.execute(one_task_per_worker(2), |_w, ()| {
            other.execute(one_task_per_worker(1), |_w, ()| 7).0[0]
        });
        assert_eq!(sums, vec![7, 7]);
    }

    /// `Threads:` of `/proc/self/status`.
    #[cfg(target_os = "linux")]
    fn process_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("Threads: line")
    }

    /// [`process_threads`] once it reads `expect`, or whatever it reads
    /// after five seconds: a joined thread leaves the kernel's count a
    /// moment after `join` returns.
    #[cfg(target_os = "linux")]
    fn settled_threads(expect: usize) -> usize {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let n = process_threads();
            if n == expect || Instant::now() > deadline {
                return n;
            }
            thread::yield_now();
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn dropping_the_last_clone_joins_the_workers() {
        // The count is the process's, so it only means something while no
        // other test runs: re-run this test alone in a child process
        // unless the harness is already serial.
        const NAME: &str = "dropping_the_last_clone_joins_the_workers";
        if !std::env::args().any(|a| a == "--test-threads=1") {
            let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
                .args([NAME, "--test-threads=1"])
                .output()
                .expect("re-run the test binary");
            let stdout = String::from_utf8_lossy(&child.stdout);
            assert!(
                child.status.success() && stdout.contains("1 passed"),
                "{stdout}\n{}",
                String::from_utf8_lossy(&child.stderr)
            );
            return;
        }
        let before = process_threads();
        let c = Cluster::new(ClusterConfig::with_workers(4));
        assert_eq!(process_threads(), before + 4);
        let clone = c.clone();
        let _ = clone.execute(one_task_per_worker(4), |_w, ()| ());
        assert_eq!(process_threads(), before + 4, "no thread per job");
        drop(c);
        assert_eq!(process_threads(), before + 4, "a clone is alive");
        drop(clone);
        assert_eq!(settled_threads(before), before, "workers not joined");
    }
}
