//! `dita-obs`: the unified observability layer.
//!
//! Every other crate in the workspace reports what it does through this
//! one, replacing the ad-hoc stats structs and hand-rolled JSON dumps that
//! grew alongside the paper experiments:
//!
//! * [`registry`] — a thread-safe metrics registry: monotonic counters,
//!   gauges and fixed-bucket histograms. Handles are cheap atomics on the
//!   hot path and complete no-ops when observability is disabled.
//! * [`trace`] — span-based tracing: a [`trace::SpanGuard`] measures wall
//!   time and thread CPU time (plus any compute charged back from helper
//!   threads) and records it into a hierarchical profile tree. Spans nest
//!   through a thread-local stack and can be parented across threads with
//!   [`trace::SpanHandle`] — how per-worker task spans attach to the
//!   driver's `search`/`join` span.
//! * [`funnel`] — the pruning-funnel abstraction: an ordered list of
//!   filter stages with entered/pruned counts (the paper's "pruning
//!   power" tables fall out of it).
//! * [`names`] — the central registry of metric/span/funnel name consts;
//!   call sites must use these instead of inline string literals (the
//!   `dita-lint` `obs-names` rule enforces it).
//! * [`sync`] — ranked synchronization primitives
//!   ([`sync::OrderedMutex`], [`sync::OrderedRwLock`],
//!   [`sync::OrderedCondvar`]): every lock in the workspace is declared
//!   with a rank in [`sync::locks`], acquisitions assert rank order per
//!   thread under `debug_assertions`, and contended acquisitions export
//!   wait-time metrics (the `dita-lint` `lock-order` rule forbids raw
//!   `std::sync` lock construction anywhere else).
//! * [`json`] — a small self-contained JSON value/parser/printer with
//!   `ToJson`/`FromJson` traits; every schema in this crate serializes
//!   through it.
//! * [`export`] — exporters for the whole picture: human-readable table,
//!   schema-versioned JSON (`results/PROFILE_SMOKE.json` is one) and
//!   Prometheus text format.
//! * [`critpath`] — post-job critical-path analysis: assembles a
//!   program-activity graph from spans, worker timelines and network
//!   charges, extracts the critical path and attributes the makespan to
//!   activity classes (`dita-obs/critpath/v1`).
//!
//! The entry point is [`Obs`]: a cheap, clonable context that is either
//! disabled (the default — every operation is a no-op costing one branch)
//! or carries a shared [`Registry`](registry::Registry) +
//! [`Tracer`](trace::Tracer).

#![warn(missing_docs)]

pub mod critpath;
pub mod export;
pub mod funnel;
pub mod json;
pub mod names;
pub mod registry;
pub mod sync;
pub mod time;
pub mod trace;

pub use critpath::{ActivityClass, ActivityTimeline, CritPathReport};
pub use export::Report;
pub use funnel::{Funnel, FunnelStage};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use sync::{LockDef, OrderedCondvar, OrderedMutex, OrderedRwLock};
pub use time::thread_cpu_time;
pub use trace::{ProfileNode, SpanGuard, SpanHandle, TimelineRow, Tracer};

use std::sync::Arc;

/// The JSON schema tag written by [`Obs::report`] (bump on breaking
/// changes to [`Report`]).
pub const SCHEMA: &str = "dita-obs/v1";

/// An observability context: a shared metrics registry plus tracer.
///
/// `Obs` is designed to be embedded in long-lived objects (a cluster, an
/// indexed table) and cloned freely — clones share the same registry and
/// tracer. The default value is *disabled*: every metric and span
/// operation short-circuits on a single `Option` check, so instrumented
/// code pays nothing when nobody is watching.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

#[derive(Debug)]
struct ObsInner {
    registry: registry::Registry,
    tracer: trace::Tracer,
}

impl Obs {
    /// A live context with a fresh registry and tracer.
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Arc::new(ObsInner {
                registry: registry::Registry::new(),
                tracer: trace::Tracer::new(),
            })),
        }
    }

    /// The disabled context (same as `Obs::default()`).
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// `true` when metrics and spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The registry, when enabled.
    pub fn registry(&self) -> Option<&registry::Registry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// The tracer, when enabled.
    pub fn tracer(&self) -> Option<&trace::Tracer> {
        self.inner.as_deref().map(|i| &i.tracer)
    }

    /// A counter handle (detached no-op when disabled).
    pub fn counter(&self, name: &str) -> registry::Counter {
        match self.registry() {
            Some(r) => r.counter(name),
            None => registry::Counter::detached(),
        }
    }

    /// A labeled counter handle.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> registry::Counter {
        match self.registry() {
            Some(r) => r.counter_labeled(name, labels),
            None => registry::Counter::detached(),
        }
    }

    /// A gauge handle.
    pub fn gauge(&self, name: &str) -> registry::Gauge {
        match self.registry() {
            Some(r) => r.gauge(name),
            None => registry::Gauge::detached(),
        }
    }

    /// A histogram handle with the default latency buckets (seconds).
    pub fn histogram_seconds(&self, name: &str) -> registry::Histogram {
        match self.registry() {
            Some(r) => r.histogram(name, registry::default_seconds_buckets()),
            None => registry::Histogram::detached(),
        }
    }

    /// A labeled histogram handle with the default latency buckets.
    pub fn histogram_seconds_labeled(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> registry::Histogram {
        match self.registry() {
            Some(r) => r.histogram_labeled(name, labels, registry::default_seconds_buckets()),
            None => registry::Histogram::detached(),
        }
    }

    /// Opens a span parented to the calling thread's current span.
    pub fn span(&self, name: &'static str) -> trace::SpanGuard<'_> {
        match self.tracer() {
            Some(t) => t.span(name),
            None => trace::SpanGuard::noop(),
        }
    }

    /// Opens a labeled span parented to the current span.
    pub fn span_labeled(
        &self,
        name: &'static str,
        label: impl Into<String>,
    ) -> trace::SpanGuard<'_> {
        let mut g = self.span(name);
        g.set_label(label);
        g
    }

    /// Opens a span under an explicit parent — the cross-thread form used
    /// by the cluster executor to attach worker task spans to the driver's
    /// operation span. `None` opens a root span.
    pub fn span_under(
        &self,
        parent: Option<trace::SpanHandle>,
        name: &'static str,
    ) -> trace::SpanGuard<'_> {
        match self.tracer() {
            Some(t) => t.span_under(parent, name),
            None => trace::SpanGuard::noop(),
        }
    }

    /// [`Obs::span_under`] with a label.
    pub fn span_under_labeled(
        &self,
        parent: Option<trace::SpanHandle>,
        name: &'static str,
        label: impl Into<String>,
    ) -> trace::SpanGuard<'_> {
        let mut g = self.span_under(parent, name);
        g.set_label(label);
        g
    }

    /// The calling thread's current span, if any — pass it to another
    /// thread to parent spans across the boundary.
    pub fn current_span(&self) -> Option<trace::SpanHandle> {
        self.tracer().and_then(|t| t.current())
    }

    /// Snapshots everything recorded so far into an exportable report.
    pub fn report(&self) -> export::Report {
        let mut report = export::Report {
            schema: SCHEMA.to_string(),
            ..export::Report::default()
        };
        if let Some(r) = self.registry() {
            report.metrics = r.snapshot();
        }
        if let Some(t) = self.tracer() {
            report.profile = t.profile();
            report.timeline = t.timeline();
        }
        report
    }
}

/// Opens a labeled span on an [`Obs`] context:
/// `span!(obs, "verify", worker = wid, pid = pid)` labels the span
/// `"worker=<wid> pid=<pid>"`. With no key/value pairs it is equivalent to
/// `obs.span(name)`. The label is built — and its value expressions
/// evaluated — only on an enabled context, so a disabled one pays for no
/// formatting on the query path.
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr $(,)?) => {
        $obs.span($name)
    };
    ($obs:expr, $name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        match &$obs {
            obs => {
                let mut guard = obs.span($name);
                if obs.is_enabled() {
                    guard.set_label(
                        [$(format!(concat!(stringify!($key), "={}"), $value)),+].join(" "),
                    );
                }
                guard
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_context_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.counter("x").inc();
        obs.gauge("y").set(1.0);
        obs.histogram_seconds("z").observe(0.5);
        {
            let _g = obs.span("root");
            assert!(obs.current_span().is_none());
        }
        let report = obs.report();
        assert!(report.metrics.is_empty());
        assert!(report.profile.is_empty());
    }

    #[test]
    fn enabled_context_records() {
        let obs = Obs::enabled();
        obs.counter("requests_total").add(3);
        {
            let _g = obs.span("op");
            assert!(obs.current_span().is_some());
            let _h = span!(obs, "inner", worker = 7);
        }
        let report = obs.report();
        assert_eq!(report.schema, SCHEMA);
        assert_eq!(report.metrics.len(), 1);
        assert_eq!(report.profile.len(), 1);
        assert_eq!(report.profile[0].name, "op");
        assert_eq!(report.profile[0].children[0].label, "worker=7");
    }

    #[test]
    fn disabled_context_never_evaluates_a_label() {
        let evaluated = std::cell::Cell::new(0u32);
        let value = || {
            evaluated.set(evaluated.get() + 1);
            7
        };
        let obs = Obs::disabled();
        {
            let _g = span!(obs, "inner", worker = value(), pid = value());
        }
        assert_eq!(evaluated.get(), 0, "disabled: label built anyway");
        let obs = Obs::enabled();
        {
            let _g = span!(obs, "inner", worker = value(), pid = value());
        }
        assert_eq!(evaluated.get(), 2);
        assert_eq!(obs.report().profile[0].label, "worker=7 pid=7");
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.counter("shared").inc();
        obs.counter("shared").inc();
        assert_eq!(obs.report().metrics[0].value, 2.0);
    }
}
