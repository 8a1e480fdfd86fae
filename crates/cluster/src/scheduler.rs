//! Concurrent query admission and batch formation.
//!
//! The batched execution paths (`dita-core`'s `search_batch`/`knn_batch`)
//! answer many queries per cluster job, but something has to decide *which*
//! queries share a job. This scheduler does, under explicit resource
//! bounds:
//!
//! * **Bounded admission.** A fixed-capacity queue; a submit against a full
//!   queue is *shed* (counted, never silently dropped) so an open-loop
//!   arrival process cannot grow memory without bound. Queue depth is
//!   exported as a gauge for backpressure monitoring.
//! * **Per-query cost budgets.** Every query arrives priced (the caller
//!   estimates work, e.g. with `dita-core`'s `price_query`, the structural
//!   candidate-pair estimate); a query priced over the per-query budget is
//!   rejected up front rather than starving the batch it lands in.
//! * **Fair-share batch formation.** Queries are grouped by a caller-chosen
//!   *compatibility class* (same table + distance function can share a trie
//!   walk; different classes cannot). Each batch draws from exactly one
//!   class, classes are served round-robin, and a batch is capped both by
//!   query count and by summed cost — so one chatty class cannot starve the
//!   others and one batch cannot absorb unbounded work.
//! * **Cooperative cancellation.** `submit` hands back a [`CancelToken`];
//!   cancelling marks the entry and batch formation discards it, so a
//!   cancelled query frees its queue slot instead of occupying a worker.
//!
//! The scheduler is execution-agnostic: it forms batches of opaque
//! payloads; the caller runs them (typically through
//! [`Cluster::execute_try`](crate::Cluster::execute_try), where a batch
//! task runs once and, like any other task, aborts its job if it fails).
//! All methods are panic-free and safe to call from many threads.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Outcome of reaping one queued entry at batch formation.
enum Reap {
    /// Still runnable — dispatch it.
    Live,
    /// Its cancel token fired (client disconnect, caller abort).
    Cancelled,
    /// Its deadline passed while it sat in the queue.
    Expired,
}

use dita_obs::sync::locks;
use dita_obs::{names, Obs, OrderedMutex};

/// Resource bounds for a [`QueryScheduler`].
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Admission queue capacity; submits beyond it are shed.
    pub queue_capacity: usize,
    /// Maximum queries per formed batch.
    pub max_batch: usize,
    /// Maximum priced cost of a single query; dearer submits are rejected.
    pub max_query_cost: f64,
    /// Maximum summed priced cost of one batch. A batch closes early when
    /// the next query would push it past this budget (the first query of a
    /// batch is always taken, so progress never stalls).
    pub max_batch_cost: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            queue_capacity: 256,
            max_batch: 32,
            max_query_cost: f64::INFINITY,
            max_batch_cost: f64::INFINITY,
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The admission queue is at capacity (open-loop backpressure).
    QueueFull,
    /// The query's priced cost exceeds [`SchedulerConfig::max_query_cost`].
    OverBudget,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::QueueFull => f.write_str("admission queue full"),
            AdmitError::OverBudget => f.write_str("query cost over budget"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Cooperative cancellation handle for one admitted query.
///
/// Cancellation is lazy: the entry stays queued until the next batch
/// formation touches its class, at which point it is discarded (and
/// counted) instead of dispatched.
#[derive(Debug, Clone)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Marks the query cancelled; batch formation will skip it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

struct Pending<Q> {
    payload: Q,
    cost: f64,
    submitted: Instant,
    /// Entries past this instant are discarded at batch formation — the
    /// queue-side half of a request deadline (the caller-side half cancels
    /// the token). `None` never expires.
    deadline: Option<Instant>,
    cancelled: Arc<AtomicBool>,
}

impl<Q> Pending<Q> {
    fn reap(&self, now: Instant) -> Reap {
        if self.cancelled.load(Ordering::Relaxed) {
            Reap::Cancelled
        } else if self.deadline.is_some_and(|d| now >= d) {
            Reap::Expired
        } else {
            Reap::Live
        }
    }
}

struct Inner<Q> {
    classes: BTreeMap<u64, VecDeque<Pending<Q>>>,
    /// Total queued entries, cancelled-but-unreaped included — this is the
    /// number actually occupying queue memory, which is what the capacity
    /// bound protects.
    depth: usize,
    /// The class key the next batch starts searching from (round-robin).
    cursor: u64,
}

/// Plain counters mirrored into the obs registry — kept on the scheduler
/// itself so tests and callers can assert on scheduling behaviour without
/// an enabled obs context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerCounters {
    /// Queries admitted into the queue.
    pub admitted: usize,
    /// Submits refused because the queue was full.
    pub shed: usize,
    /// Submits refused because the query was priced over budget.
    pub over_budget: usize,
    /// Cancelled entries discarded at batch formation.
    pub cancelled: usize,
    /// Entries whose deadline passed in the queue, discarded at batch
    /// formation.
    pub expired: usize,
    /// Batches formed (empty draws not counted).
    pub batches: usize,
    /// Queries dispatched inside formed batches.
    pub dispatched: usize,
}

/// A formed batch: compatible queries ready to run as one job.
#[derive(Debug)]
pub struct QueryBatch<Q> {
    /// The compatibility class every payload in this batch shares.
    pub class: u64,
    /// The admitted payloads, in submission order.
    pub payloads: Vec<Q>,
    /// Summed priced cost of the payloads.
    pub cost: f64,
}

/// The concurrent query scheduler. See the module docs for semantics.
pub struct QueryScheduler<Q> {
    config: SchedulerConfig,
    inner: OrderedMutex<Inner<Q>>,
    counters: OrderedMutex<SchedulerCounters>,
    obs: Obs,
}

impl<Q> QueryScheduler<Q> {
    /// A scheduler with the given bounds and no observability.
    pub fn new(config: SchedulerConfig) -> Self {
        Self::with_obs(config, Obs::disabled())
    }

    /// A scheduler recording queue depth, admission waits, sheds,
    /// cancellations and batch counts into `obs`.
    pub fn with_obs(config: SchedulerConfig, obs: Obs) -> Self {
        QueryScheduler {
            config,
            inner: OrderedMutex::with_obs(
                &locks::SCHEDULER_QUEUE,
                Inner {
                    classes: BTreeMap::new(),
                    depth: 0,
                    cursor: 0,
                },
                &obs,
            ),
            counters: OrderedMutex::with_obs(
                &locks::SCHEDULER_COUNTERS,
                SchedulerCounters::default(),
                &obs,
            ),
            obs,
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// A snapshot of the scheduling counters.
    pub fn counters(&self) -> SchedulerCounters {
        *self.counters.lock()
    }

    /// Entries currently occupying the queue (cancelled-but-unreaped
    /// included). Never exceeds [`SchedulerConfig::queue_capacity`].
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().depth
    }

    /// Admits one query of compatibility class `class` with priced cost
    /// `cost`, or refuses it with backpressure ([`AdmitError::QueueFull`])
    /// or a budget violation ([`AdmitError::OverBudget`]).
    pub fn submit(&self, class: u64, cost: f64, payload: Q) -> Result<CancelToken, AdmitError> {
        self.submit_with_deadline(class, cost, payload, None)
    }

    /// [`QueryScheduler::submit`] with a queue-side deadline: an entry
    /// still queued when `deadline` passes is discarded (and counted as
    /// expired) at the next batch formation instead of dispatched, so a
    /// timed-out request cannot occupy a worker after its caller has given
    /// up. The returned [`CancelToken`] covers the complementary caller
    /// paths (client disconnect, explicit abort).
    pub fn submit_with_deadline(
        &self,
        class: u64,
        cost: f64,
        payload: Q,
        deadline: Option<Instant>,
    ) -> Result<CancelToken, AdmitError> {
        if cost.is_nan() || cost > self.config.max_query_cost {
            // An unpriceable (NaN) query is refused like an over-budget one.
            self.bump(|c| c.over_budget += 1);
            if self.obs.is_enabled() {
                self.obs.counter(names::QUERIES_SHED_TOTAL).inc();
            }
            return Err(AdmitError::OverBudget);
        }
        let mut inner = self.inner.lock();
        if inner.depth >= self.config.queue_capacity {
            drop(inner);
            self.bump(|c| c.shed += 1);
            if self.obs.is_enabled() {
                self.obs.counter(names::QUERIES_SHED_TOTAL).inc();
            }
            return Err(AdmitError::QueueFull);
        }
        let cancelled = Arc::new(AtomicBool::new(false));
        inner.classes.entry(class).or_default().push_back(Pending {
            payload,
            cost,
            submitted: Instant::now(),
            deadline,
            cancelled: Arc::clone(&cancelled),
        });
        inner.depth += 1;
        let depth = inner.depth;
        drop(inner);
        self.bump(|c| c.admitted += 1);
        if self.obs.is_enabled() {
            self.obs.gauge(names::QUERY_QUEUE_DEPTH).set(depth as f64);
        }
        Ok(CancelToken(cancelled))
    }

    /// Forms the next batch, or `None` when nothing runnable is queued.
    ///
    /// Draws from exactly one compatibility class — the first non-empty
    /// class at or after the round-robin cursor — taking queries in
    /// submission order up to [`SchedulerConfig::max_batch`] and
    /// [`SchedulerConfig::max_batch_cost`]; cancelled and deadline-expired
    /// entries are discarded (and counted) without consuming batch
    /// capacity. The cursor then advances past the served class, so under
    /// sustained load every class gets a turn.
    pub fn next_batch(&self) -> Option<QueryBatch<Q>> {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        let mut cancelled = 0usize;
        let mut expired = 0usize;
        let mut formed: Option<QueryBatch<Q>> = None;
        let mut waits: Vec<f64> = Vec::new();
        // Visit every class at most once, starting at the cursor.
        let keys: Vec<u64> = inner.classes.keys().copied().collect();
        let start = keys.partition_point(|&k| k < inner.cursor);
        for off in 0..keys.len() {
            let class = keys[(start + off) % keys.len()];
            let mut payloads = Vec::new();
            let mut cost = 0.0f64;
            if let Some(mut queue) = inner.classes.remove(&class) {
                let before = queue.len();
                while payloads.len() < self.config.max_batch {
                    let Some(front) = queue.front() else { break };
                    match front.reap(now) {
                        Reap::Cancelled => {
                            queue.pop_front();
                            cancelled += 1;
                            continue;
                        }
                        Reap::Expired => {
                            queue.pop_front();
                            expired += 1;
                            continue;
                        }
                        Reap::Live => {}
                    }
                    // The first query always fits; afterwards stop before
                    // the budget is crossed.
                    if !payloads.is_empty() && cost + front.cost > self.config.max_batch_cost {
                        break;
                    }
                    let Some(p) = queue.pop_front() else { break };
                    cost += p.cost;
                    waits.push(p.submitted.elapsed().as_secs_f64());
                    payloads.push(p.payload);
                }
                inner.depth -= before - queue.len();
                if !queue.is_empty() {
                    inner.classes.insert(class, queue);
                }
            }
            if !payloads.is_empty() {
                // Serve this class, then start the next batch after it.
                inner.cursor = class.wrapping_add(1);
                formed = Some(QueryBatch {
                    class,
                    payloads,
                    cost,
                });
                break;
            }
        }
        let depth = inner.depth;
        drop(inner);
        let dispatched = formed.as_ref().map_or(0, |b| b.payloads.len());
        self.bump(|c| {
            c.cancelled += cancelled;
            c.expired += expired;
            if dispatched > 0 {
                c.batches += 1;
                c.dispatched += dispatched;
            }
        });
        if self.obs.is_enabled() {
            self.obs.gauge(names::QUERY_QUEUE_DEPTH).set(depth as f64);
            // Expired entries count as cancellations on the wire: both are
            // queries the scheduler reclaimed instead of dispatching.
            if cancelled + expired > 0 {
                self.obs
                    .counter(names::QUERIES_CANCELLED_TOTAL)
                    .add((cancelled + expired) as u64);
            }
            let h = self.obs.histogram_seconds(names::ADMISSION_WAIT_SECONDS);
            for w in &waits {
                h.observe(*w);
            }
            if dispatched > 0 {
                self.obs.counter(names::BATCHES_FORMED_TOTAL).inc();
                self.obs
                    .counter(names::BATCHED_QUERIES_TOTAL)
                    .add(dispatched as u64);
            }
        }
        formed
    }

    /// Drains the queue into batches until empty, in round-robin order.
    pub fn drain(&self) -> Vec<QueryBatch<Q>> {
        let mut out = Vec::new();
        while let Some(b) = self.next_batch() {
            out.push(b);
        }
        out
    }

    fn bump(&self, f: impl FnOnce(&mut SchedulerCounters)) {
        f(&mut self.counters.lock());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig, TaskSpec};
    use std::sync::atomic::AtomicUsize;

    fn sched(capacity: usize, max_batch: usize) -> QueryScheduler<usize> {
        QueryScheduler::new(SchedulerConfig {
            queue_capacity: capacity,
            max_batch,
            ..SchedulerConfig::default()
        })
    }

    #[test]
    fn open_loop_overload_is_shed_at_capacity() {
        let s = sched(4, 8);
        let mut admitted = 0;
        let mut shed = 0;
        for i in 0..10 {
            match s.submit(0, 1.0, i) {
                Ok(_) => admitted += 1,
                Err(AdmitError::QueueFull) => shed += 1,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(s.queue_depth() <= 4, "queue depth must stay capped");
        }
        assert_eq!(admitted, 4);
        assert_eq!(shed, 6);
        let c = s.counters();
        assert_eq!(c.admitted, 4);
        assert_eq!(c.shed, 6);
        // Draining frees capacity again.
        assert_eq!(s.next_batch().unwrap().payloads, vec![0, 1, 2, 3]);
        assert!(s.submit(0, 1.0, 99).is_ok());
    }

    #[test]
    fn over_budget_queries_are_rejected_up_front() {
        let s = QueryScheduler::new(SchedulerConfig {
            queue_capacity: 8,
            max_batch: 8,
            max_query_cost: 10.0,
            max_batch_cost: f64::INFINITY,
        });
        assert!(s.submit(0, 10.0, 1usize).is_ok());
        assert_eq!(s.submit(0, 10.1, 2).unwrap_err(), AdmitError::OverBudget);
        assert_eq!(
            s.submit(0, f64::NAN, 3).unwrap_err(),
            AdmitError::OverBudget
        );
        assert_eq!(s.counters().over_budget, 2);
    }

    #[test]
    fn batch_respects_count_and_cost_caps() {
        let s = QueryScheduler::new(SchedulerConfig {
            queue_capacity: 64,
            max_batch: 3,
            max_query_cost: f64::INFINITY,
            max_batch_cost: 5.0,
        });
        for i in 0..6 {
            s.submit(0, 2.0, i).unwrap();
        }
        // Cost cap closes the batch at 2 queries (2.0 + 2.0; a third would
        // reach 6.0 > 5.0) even though max_batch allows 3.
        let b = s.next_batch().unwrap();
        assert_eq!(b.payloads, vec![0, 1]);
        assert!((b.cost - 4.0).abs() < 1e-12);
        // A single query over the batch budget still dispatches alone.
        let s2 = QueryScheduler::new(SchedulerConfig {
            queue_capacity: 8,
            max_batch: 4,
            max_query_cost: f64::INFINITY,
            max_batch_cost: 1.0,
        });
        s2.submit(0, 9.0, 7usize).unwrap();
        assert_eq!(s2.next_batch().unwrap().payloads, vec![7]);
    }

    #[test]
    fn classes_are_served_round_robin() {
        let s = sched(64, 8);
        for i in 0..4 {
            s.submit(1, 1.0, 10 + i).unwrap();
            s.submit(2, 1.0, 20 + i).unwrap();
            s.submit(7, 1.0, 70 + i).unwrap();
        }
        let classes: Vec<u64> = s.drain().into_iter().map(|b| b.class).collect();
        // Every batch holds one class; classes alternate, none starves.
        assert_eq!(classes, vec![1, 2, 7]);
        // Interleaved arrivals under a small max_batch still rotate.
        let s = sched(64, 2);
        for i in 0..4 {
            s.submit(1, 1.0, 10 + i).unwrap();
            s.submit(2, 1.0, 20 + i).unwrap();
        }
        let classes: Vec<u64> = s.drain().into_iter().map(|b| b.class).collect();
        assert_eq!(classes, vec![1, 2, 1, 2]);
    }

    #[test]
    fn cancellation_frees_slots_without_dispatch() {
        let s = sched(8, 8);
        let mut tokens = Vec::new();
        for i in 0..6 {
            tokens.push(s.submit(0, 1.0, i).unwrap());
        }
        tokens[1].cancel();
        tokens[4].cancel();
        let b = s.next_batch().unwrap();
        assert_eq!(b.payloads, vec![0, 2, 3, 5]);
        assert_eq!(s.counters().cancelled, 2);
        assert_eq!(s.queue_depth(), 0);
    }

    #[test]
    fn deadline_expired_entries_are_reaped_not_dispatched() {
        let s = sched(8, 8);
        let now = Instant::now();
        // One already-expired entry, one with a generous deadline, one
        // without any deadline.
        s.submit_with_deadline(0, 1.0, 1usize, Some(now)).unwrap();
        s.submit_with_deadline(0, 1.0, 2, Some(now + std::time::Duration::from_secs(60)))
            .unwrap();
        s.submit(0, 1.0, 3).unwrap();
        assert_eq!(s.queue_depth(), 3);
        let b = s.next_batch().unwrap();
        assert_eq!(b.payloads, vec![2, 3]);
        let c = s.counters();
        assert_eq!(c.expired, 1);
        assert_eq!(c.cancelled, 0);
        assert_eq!(c.admitted, c.dispatched + c.cancelled + c.expired);
        assert_eq!(s.queue_depth(), 0, "expired entries free their slots");
    }

    #[test]
    fn expired_entries_count_into_the_cancelled_metric() {
        let obs = Obs::enabled();
        let s = QueryScheduler::with_obs(SchedulerConfig::default(), obs.clone());
        s.submit_with_deadline(0, 1.0, 1usize, Some(Instant::now()))
            .unwrap();
        assert!(s.next_batch().is_none());
        let report = obs.report();
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == names::QUERIES_CANCELLED_TOTAL)
            .expect("cancelled metric present");
        assert_eq!(m.value, 1.0);
    }

    #[test]
    fn obs_records_depth_sheds_and_batches() {
        let obs = Obs::enabled();
        let s = QueryScheduler::with_obs(
            SchedulerConfig {
                queue_capacity: 2,
                max_batch: 8,
                ..SchedulerConfig::default()
            },
            obs.clone(),
        );
        let t = s.submit(0, 1.0, 1usize).unwrap();
        s.submit(0, 1.0, 2).unwrap();
        assert!(s.submit(0, 1.0, 3).is_err());
        t.cancel();
        assert_eq!(s.next_batch().unwrap().payloads, vec![2]);
        let report = obs.report();
        let get = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        assert_eq!(get(names::QUERIES_SHED_TOTAL).value, 1.0);
        assert_eq!(get(names::QUERIES_CANCELLED_TOTAL).value, 1.0);
        assert_eq!(get(names::BATCHES_FORMED_TOTAL).value, 1.0);
        assert_eq!(get(names::BATCHED_QUERIES_TOTAL).value, 1.0);
        assert_eq!(get(names::QUERY_QUEUE_DEPTH).value, 0.0);
        assert!(report
            .metrics
            .iter()
            .any(|m| m.name == names::ADMISSION_WAIT_SECONDS));
    }

    /// Scheduler-formed batches run through the executor: each batch
    /// task runs once, and every dispatched query is answered exactly
    /// once.
    #[test]
    fn scheduler_batches_run_through_the_executor_exactly_once() {
        let s = sched(64, 4);
        for i in 0..8usize {
            s.submit(0, 1.0, i).unwrap();
        }
        let cluster = Cluster::new(ClusterConfig::with_workers(2));
        let calls = AtomicUsize::new(0);
        let mut batches = 0;
        let mut answered = Vec::new();
        while let Some(batch) = s.next_batch() {
            batches += 1;
            let tasks = vec![TaskSpec {
                worker: 0,
                incoming_bytes: 0,
                partition: None,
                payload: batch.payloads,
            }];
            let (results, _) = cluster.execute_try(tasks, |_w, qs| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(qs.iter().map(|&q| q * 10).collect::<Vec<_>>())
            });
            answered.extend(results.into_iter().flatten());
        }
        answered.sort_unstable();
        assert_eq!(answered, (0..8).map(|q| q * 10).collect::<Vec<_>>());
        assert_eq!(batches, 2);
        assert_eq!(calls.into_inner(), batches, "one task call a batch");
    }
}
