//! Exporters: schema-versioned JSON, Prometheus text format, and a
//! human-readable table.
//!
//! [`Report`] is the single exportable snapshot shape. Its JSON form is
//! schema-versioned (see [`crate::SCHEMA`]) and stable under
//! [`crate::json`] round-trips, so `results/PROFILE_SMOKE.json` can be
//! diffed and re-read across PRs.

use crate::critpath::CritPathReport;
use crate::funnel::Funnel;
use crate::json::{FromJson, Obj, Result as JsonResult, ToJson, Value};
use crate::registry::{MetricKind, MetricSample};
use crate::trace::{ProfileNode, TimelineRow};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A complete observability snapshot: metrics, profile forest, timeline
/// and any explicitly attached funnels and critical-path analyses.
///
/// Every field defaults, so reports written by older schema revisions
/// still deserialize.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Schema tag, e.g. `dita-obs/v1`.
    pub schema: String,
    /// Metric snapshots, sorted by `(name, labels)`.
    pub metrics: Vec<MetricSample>,
    /// Aggregated span forest.
    pub profile: Vec<ProfileNode>,
    /// Flat chronological span list.
    pub timeline: Vec<TimelineRow>,
    /// Pruning funnels attached via [`Report::attach_funnel`].
    pub funnels: Vec<Funnel>,
    /// Critical-path analyses attached via [`Report::attach_critpath`]
    /// (one per analyzed operation, schema `dita-obs/critpath/v1`).
    pub critpath: Vec<CritPathReport>,
}

impl ToJson for Report {
    fn to_json(&self) -> Value {
        Obj::new()
            .field("schema", &self.schema)
            .field("metrics", &self.metrics)
            .field("profile", &self.profile)
            .field("timeline", &self.timeline)
            .field("funnels", &self.funnels)
            .field_if(!self.critpath.is_empty(), "critpath", &self.critpath)
            .build()
    }
}

impl FromJson for Report {
    fn from_json(v: &Value) -> JsonResult<Report> {
        Ok(Report {
            schema: v.or_default("schema")?,
            metrics: v.or_default("metrics")?,
            profile: v.or_default("profile")?,
            timeline: v.or_default("timeline")?,
            funnels: v.or_default("funnels")?,
            critpath: v.or_default("critpath")?,
        })
    }
}

impl Report {
    /// Attaches a pruning funnel to the report.
    pub fn attach_funnel(&mut self, funnel: Funnel) {
        self.funnels.push(funnel);
    }

    /// Runs the critical-path analysis over the recorded timeline and
    /// attaches the per-operation results (replacing any prior analyses).
    pub fn attach_critpath(&mut self) {
        self.critpath = crate::critpath::analyze_report(self);
    }

    /// Pretty-printed JSON.
    pub fn to_json_pretty(&self) -> crate::json::Result<String> {
        Ok(self.to_json().pretty())
    }

    /// Parses a report from JSON.
    pub fn from_json(s: &str) -> crate::json::Result<Report> {
        FromJson::from_json(&Value::parse(s)?)
    }

    /// Writes pretty JSON (with trailing newline) to `path`, creating
    /// parent directories as needed.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let json = self.to_json().pretty();
        std::fs::write(path, format!("{json}\n"))
    }

    /// Prometheus text exposition format (metrics only — spans and
    /// funnels have no Prometheus shape).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for m in &self.metrics {
            if m.name != last_family {
                let kind = match m.kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                    MetricKind::Histogram => "histogram",
                };
                let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
                last_family = &m.name;
            }
            match m.kind {
                MetricKind::Counter | MetricKind::Gauge => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        m.name,
                        prom_labels(&m.labels, None),
                        m.value
                    );
                }
                MetricKind::Histogram => {
                    for b in &m.buckets {
                        let le = match b.le {
                            Some(bound) => format!("{bound}"),
                            None => "+Inf".to_string(),
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            m.name,
                            prom_labels(&m.labels, Some(&le)),
                            b.count
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        m.name,
                        prom_labels(&m.labels, None),
                        m.value
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        m.name,
                        prom_labels(&m.labels, None),
                        m.count
                    );
                }
            }
        }
        out
    }

    /// Human-readable rendering: metrics table, profile tree and funnel
    /// tables.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.metrics.is_empty() {
            let _ = writeln!(out, "== metrics ==");
            for m in &self.metrics {
                let labels = if m.labels.is_empty() {
                    String::new()
                } else {
                    prom_labels(&m.labels, None)
                };
                match m.kind {
                    MetricKind::Histogram => {
                        let mean = if m.count > 0 {
                            m.value / m.count as f64
                        } else {
                            0.0
                        };
                        let _ = writeln!(
                            out,
                            "{:<48} count={} sum={:.6} mean={:.6}",
                            format!("{}{labels}", m.name),
                            m.count,
                            m.value,
                            mean
                        );
                    }
                    _ => {
                        let _ = writeln!(out, "{:<48} {}", format!("{}{labels}", m.name), m.value);
                    }
                }
            }
        }
        if !self.profile.is_empty() {
            let _ = writeln!(out, "== profile ==");
            let _ = writeln!(
                out,
                "{:<44} {:>7} {:>12} {:>12}",
                "span", "count", "wall_ms", "cpu_ms"
            );
            for node in &self.profile {
                render_node(&mut out, node, 0);
            }
        }
        for funnel in &self.funnels {
            let _ = writeln!(out, "== funnel: {} ==", funnel.name);
            let _ = writeln!(
                out,
                "{:<24} {:>12} {:>12} {:>12}",
                "stage", "entered", "pruned", "survivors"
            );
            for stage in &funnel.stages {
                let _ = writeln!(
                    out,
                    "{:<24} {:>12} {:>12} {:>12}",
                    stage.name,
                    stage.entered,
                    stage.pruned,
                    stage.survivors()
                );
            }
        }
        for cp in &self.critpath {
            let title = if cp.label.is_empty() {
                cp.op.clone()
            } else {
                format!("{} [{}]", cp.op, cp.label)
            };
            let _ = writeln!(
                out,
                "== critical path: {title} (makespan {:.3} ms) ==",
                cp.makespan_sec * 1e3
            );
            let _ = writeln!(out, "{:<16} {:>12} {:>8}", "class", "seconds", "pct");
            for share in &cp.attribution {
                let _ = writeln!(
                    out,
                    "{:<16} {:>12.6} {:>7.2}%",
                    share.class.as_str(),
                    share.seconds,
                    share.pct
                );
            }
            if !cp.path.is_empty() {
                let _ = writeln!(out, "path:");
                for step in &cp.path {
                    let worker = match step.worker {
                        Some(w) => format!(" w{w}"),
                        None => String::new(),
                    };
                    let _ = writeln!(
                        out,
                        "  {:<14} {:<16}{worker:<4} {:>12.3} ms",
                        step.class.as_str(),
                        step.name,
                        step.dur_sec * 1e3
                    );
                }
            }
            for lane in &cp.workers {
                let _ = writeln!(
                    out,
                    "worker {:<4} busy {:>10.3} ms  wait {:>10.3} ms",
                    lane.worker,
                    lane.busy_sec * 1e3,
                    lane.wait_sec * 1e3
                );
            }
        }
        out
    }
}

fn render_node(out: &mut String, node: &ProfileNode, depth: usize) {
    let mut title = format!("{}{}", "  ".repeat(depth), node.name);
    if !node.label.is_empty() {
        let _ = write!(title, " [{}]", node.label);
    }
    let _ = writeln!(
        out,
        "{:<44} {:>7} {:>12.3} {:>12.3}",
        title,
        node.count,
        node.wall_sec * 1e3,
        node.cpu_sec * 1e3
    );
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

fn prom_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn sample_report() -> Report {
        let obs = Obs::enabled();
        obs.counter("dita_tasks_total").add(7);
        obs.counter_labeled("dita_bytes_total", &[("worker", "0")])
            .add(64);
        obs.histogram_seconds("dita_task_seconds").observe(0.02);
        {
            let _root = obs.span("search");
            let _child = obs.span("filter");
        }
        let mut report = obs.report();
        let mut funnel = Funnel::new("trie-filter");
        funnel.push_stage("node-length", 10, 4);
        report.attach_funnel(funnel);
        report
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample_report();
        let json = report.to_json_pretty().unwrap();
        let back = Report::from_json(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn json_missing_fields_default() {
        let back = Report::from_json("{\"schema\": \"dita-obs/v1\"}").unwrap();
        assert_eq!(back.schema, crate::SCHEMA);
        assert!(back.metrics.is_empty());
        assert!(back.profile.is_empty());
    }

    #[test]
    fn prometheus_output_has_type_lines_and_buckets() {
        let text = sample_report().to_prometheus();
        assert!(text.contains("# TYPE dita_tasks_total counter"));
        assert!(text.contains("dita_tasks_total 7"));
        assert!(text.contains("dita_bytes_total{worker=\"0\"} 64"));
        assert!(text.contains("# TYPE dita_task_seconds histogram"));
        assert!(text.contains("dita_task_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("dita_task_seconds_count 1"));
    }

    #[test]
    fn table_lists_metrics_spans_and_funnels() {
        let text = sample_report().render_table();
        assert!(text.contains("== metrics =="));
        assert!(text.contains("dita_tasks_total"));
        assert!(text.contains("== profile =="));
        assert!(text.contains("search"));
        assert!(text.contains("  filter"));
        assert!(text.contains("== funnel: trie-filter =="));
        assert!(text.contains("node-length"));
    }

    #[test]
    fn table_renders_critical_path_section() {
        let mut report = sample_report();
        report.attach_critpath();
        assert!(!report.critpath.is_empty());
        let text = report.render_table();
        assert!(text.contains("== critical path: search"));
        assert!(text.contains("straggler-wait"));
        assert!(text.contains("path:"));
        // Attached analyses survive the JSON round trip.
        let back = Report::from_json(&report.to_json_pretty().unwrap()).unwrap();
        assert_eq!(report, back);
    }
}
