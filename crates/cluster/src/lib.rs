//! A simulated distributed in-memory runtime.
//!
//! DITA runs on Spark: a driver plus executors holding partitions in memory,
//! exchanging trajectories over a network. This crate substitutes for that
//! substrate at laptop scale (DESIGN.md §2):
//!
//! * [`Cluster`] executes partition-pinned tasks on real, long-lived worker
//!   threads, so scale-up behaviour (more workers → shorter makespan) is
//!   physically real, not modelled.
//! * every inter-worker shipment is charged through a [`NetworkModel`]
//!   (`bytes / bandwidth + latency`), giving the λ = 1/(Δ·B) constant the
//!   paper's cost model (§6.2) needs, and letting experiments report
//!   transmission cost without a physical network.
//! * [`JobStats`] records per-worker compute time, simulated network time,
//!   bytes moved and task counts — the raw material for the paper's
//!   load-ratio and scale experiments (Figures 7–10, 16).
//! * Stragglers are injected by per-worker slowdown factors, exercising the
//!   division-based load balancing of §6.3.
//! * Attaching a `dita_obs::Obs` context ([`Cluster::attach_obs`]) makes the
//!   executor record per-worker task/retry/network/compute metrics and a
//!   per-task span timeline, parented under whatever span the driver holds.

#![warn(missing_docs)]

pub mod executor;
pub mod network;
pub mod scheduler;
pub mod stats;

pub use executor::{
    charge_compute, thread_cpu_time, Cluster, ClusterConfig, DynTaskSpec, TaskError, TaskSpec,
    MAX_TASK_ATTEMPTS,
};
pub use network::NetworkModel;
pub use scheduler::{
    AdmitError, CancelToken, QueryBatch, QueryScheduler, SchedulerConfig, SchedulerCounters,
};
pub use stats::{JobStats, WorkerStats};
