//! The worker-pool executor.
//!
//! A [`Cluster`] owns a fixed number of logical workers (the paper's
//! "cores" axis in the scale-up experiments). A job is a list of
//! [`TaskSpec`]s, each pinned to a worker — exactly Spark's model where a
//! partition is the basic execution unit and tasks run where their partition
//! lives. Workers execute their queues concurrently on real OS threads;
//! per-task compute time is measured and incoming shipments are charged to
//! the network model.

use crate::network::NetworkModel;
use crate::stats::{JobStats, TaskCost, WorkerStats};
use dita_obs::{names, Obs};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// A simulated cluster: a pool of logical workers plus a network model.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    obs: Obs,
}

impl Cluster {
    /// Creates a cluster.
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
            config,
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability context: subsequent jobs record per-worker
    /// task/retry/network/compute metrics and a per-task span timeline into
    /// it. Detach by attaching [`Obs::disabled`].
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
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

    /// Executes a job: every task runs on its pinned worker; workers run
    /// concurrently, tasks within a worker sequentially. Returns the task
    /// results in submission order plus the job statistics.
    ///
    /// # Panics
    /// Panics if any task names a worker `>= num_workers`.
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
    /// Panics if any task names a worker `>= num_workers`, or when a task
    /// fails all of its attempts (the job abort).
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
        // The driver thread's current span (if any) becomes the parent of
        // every worker span, stitching the per-worker subtrees into the
        // caller's operation span across the thread boundary.
        let parent = obs.current_span();
        // Wall-clock measurement gate: with a dead CPU clock each task is
        // billed by wall time, so task bodies must not co-run or every
        // task absorbs its neighbours' timeslices. Logical workers keep
        // their own queues, spans and stats — only the measured region is
        // serialized.
        let serialize = !cpu_clock_works();
        let gate = dita_obs::OrderedMutex::with_obs(&dita_obs::sync::locks::EXECUTOR_GATE, (), obs);
        let gate = &gate;

        type TaskOut<R> = (usize, R, TaskCost);
        let mut per_worker: Vec<(WorkerStats, Vec<TaskOut<R>>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = queues
                .into_iter()
                .enumerate()
                .map(|(wid, queue)| {
                    scope.spawn(move || {
                        let mut stats = WorkerStats::default();
                        let mut results = Vec::with_capacity(queue.len());
                        // Idle workers record nothing: no span, no
                        // zero-valued metric series. Neither does a disabled
                        // context, so it builds none of the labels.
                        let record = obs.is_enabled() && !queue.is_empty();
                        let _worker_span = if record {
                            obs.span_under_labeled(
                                parent,
                                names::SPAN_WORKER,
                                format!("worker={wid}"),
                            )
                        } else {
                            dita_obs::SpanGuard::noop()
                        };
                        let (m_tasks, m_retries, m_bytes, h_net, h_cpu) = if record {
                            let wlabel = wid.to_string();
                            let labels: &[(&str, &str)] = &[("worker", wlabel.as_str())];
                            (
                                obs.counter_labeled(names::TASKS_TOTAL, labels),
                                obs.counter_labeled(names::TASK_RETRIES_TOTAL, labels),
                                obs.counter_labeled(names::NETWORK_BYTES_TOTAL, labels),
                                obs.histogram_seconds_labeled(names::TASK_NETWORK_SECONDS, labels),
                                obs.histogram_seconds_labeled(names::TASK_COMPUTE_SECONDS, labels),
                            )
                        } else {
                            Default::default()
                        };
                        for (i, task) in queue {
                            stats.bytes_received += task.incoming_bytes;
                            let net_sec = net.transfer_sec(task.incoming_bytes);
                            stats.network += Duration::from_secs_f64(net_sec);
                            m_bytes.add(task.incoming_bytes);
                            h_net.observe(net_sec);
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
                            let _slot = serialize.then(|| gate.lock());
                            let _ = take_extra_compute(); // discard stale charges
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
                                            m_retries.inc();
                                        }
                                    }
                                    Err(_) if attempt < MAX_TASK_ATTEMPTS => {
                                        stats.retries += 1;
                                        m_retries.inc();
                                    }
                                    Err(p) => std::panic::resume_unwind(p),
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
                            m_tasks.inc();
                            h_cpu.observe(cpu.as_secs_f64());
                            let v = match outcome {
                                Ok(v) => v,
                                Err(e) => {
                                    // The job abort: the worker thread's
                                    // unwind reaches the driver's join and
                                    // fails the whole job, mirroring Spark
                                    // aborting a stage once a task exhausts
                                    // its attempts.
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
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

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
            let wlabel = wid.to_string();
            self.obs
                .histogram_seconds_labeled(
                    names::WORKER_WAIT_SECONDS,
                    &[("worker", wlabel.as_str())],
                )
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
        // leak into worker stats — and worker threads are fresh anyway.
        charge_compute(Duration::from_secs(500));
        let c = cluster(1);
        let tasks = vec![TaskSpec {
            worker: 0,
            incoming_bytes: 0,
            partition: None,
            payload: (),
        }];
        let (_, stats) = c.execute(tasks, |_, ()| ());
        assert!(
            stats.workers[0].compute < Duration::from_secs(100),
            "stale charge leaked: {:?}",
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
        assert!(
            r.is_err(),
            "a task erroring on all attempts must fail the job"
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
        assert!(r.is_err(), "a task failing all attempts must fail the job");
    }
}
