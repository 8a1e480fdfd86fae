//! Critical-path analysis over the program-activity graph.
//!
//! After a job, the recorded spans, per-worker task timelines and network
//! transfer charges are assembled into a *program-activity graph* in the
//! style of SnailTrail: nodes are task/transfer/wait activities with
//! durations, edges are happens-before constraints (span parenting within
//! a worker chain, shipment before compute, barrier joins at stage ends).
//! Walking the graph yields
//!
//! * the **critical path** — the chain of activities that actually set
//!   the makespan (wait-padded chains lose ties to worked chains, so the
//!   path runs through the straggler), and
//! * a **makespan attribution** by activity class (filter / verify /
//!   build / shipment / straggler-wait / other) whose percentages sum to
//!   100% of the modeled makespan: driver activities count fully, stage
//!   activities count at `1/n` of their duration for an `n`-worker stage,
//!   and the per-worker barrier gaps contribute the straggler-wait share
//!   (`max busy − mean busy` per stage).
//!
//! The result is exported as a schema'd [`CritPathReport`]
//! (`dita-obs/critpath/v1`) section of [`Report`] and rendered as a table
//! by `profile_smoke`.

use crate::export::Report;
use crate::json::{Error as JsonError, FromJson, Obj, Result as JsonResult, ToJson, Value};
use crate::names;
use crate::trace::TimelineRow;
use std::collections::BTreeMap;

/// Schema tag of the critical-path JSON section.
pub const CRITPATH_SCHEMA: &str = "dita-obs/critpath/v1";

/// What kind of work an activity represents — the attribution buckets of
/// the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivityClass {
    /// Trie candidate generation.
    Filter,
    /// Candidate verification (MBR/cell/kernel cascade).
    Verify,
    /// Index or plan construction (trie builds, edge weighting,
    /// orientation).
    Build,
    /// Network shipment of task inputs.
    Shipment,
    /// Barrier wait: a worker idle because another worker (the straggler)
    /// is still running.
    StragglerWait,
    /// Everything else (task overhead, unclassified spans).
    Other,
}

impl ActivityClass {
    /// All classes, in the fixed order every attribution is emitted in.
    pub const ALL: [ActivityClass; 6] = [
        ActivityClass::Filter,
        ActivityClass::Verify,
        ActivityClass::Build,
        ActivityClass::Shipment,
        ActivityClass::StragglerWait,
        ActivityClass::Other,
    ];

    /// Stable string form, used in the JSON schema.
    pub fn as_str(self) -> &'static str {
        match self {
            ActivityClass::Filter => "filter",
            ActivityClass::Verify => "verify",
            ActivityClass::Build => "build",
            ActivityClass::Shipment => "shipment",
            ActivityClass::StragglerWait => "straggler-wait",
            ActivityClass::Other => "other",
        }
    }

    fn index(self) -> usize {
        ActivityClass::ALL
            .iter()
            .position(|c| *c == self)
            .unwrap_or(5)
    }

    /// Maps a recorded span name to its activity class.
    pub fn of_span(name: &str) -> ActivityClass {
        if name == names::SPAN_FILTER {
            ActivityClass::Filter
        } else if name == names::SPAN_VERIFY {
            ActivityClass::Verify
        } else if matches!(
            name,
            n if n == names::SPAN_BUILD_EDGES
                || n == names::SPAN_ORIENT
                || n == names::SPAN_INDEX_BUILD
                || n == names::SPAN_SEGMENT_BUILD
                || n == names::SPAN_COMPACT
        ) {
            ActivityClass::Build
        } else {
            ActivityClass::Other
        }
    }
}

impl FromJson for ActivityClass {
    fn from_json(v: &Value) -> JsonResult<ActivityClass> {
        let s = String::from_json(v)?;
        ActivityClass::ALL
            .into_iter()
            .find(|c| c.as_str() == s)
            .ok_or_else(|| JsonError::msg(format!("unknown activity class `{s}`")))
    }
}

impl ToJson for ActivityClass {
    fn to_json(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

/// One node of the program-activity graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    /// Attribution bucket.
    pub class: ActivityClass,
    /// Display name (span name or synthetic `shipment` /
    /// `straggler-wait` / `barrier`).
    pub name: String,
    /// Worker lane, `None` for driver activities and barriers.
    pub worker: Option<u32>,
    /// Modeled duration, seconds.
    pub dur_sec: f64,
}

/// A single worker's ordered activities within one parallel stage.
#[derive(Debug, Clone)]
pub struct WorkerChain {
    /// Worker id of the lane.
    pub worker: u32,
    /// Activities in happens-before order (shipment first).
    pub activities: Vec<Activity>,
}

impl WorkerChain {
    fn busy_sec(&self) -> f64 {
        self.activities.iter().map(|a| a.dur_sec).sum()
    }
}

/// One sequential segment of an operation.
#[derive(Debug, Clone)]
pub enum Segment {
    /// Serial driver-side work (planning, orientation, result merge).
    Driver(Activity),
    /// A parallel stage: per-worker chains ending in a barrier join.
    Stage {
        /// Stage name (the anchor span, e.g. `execute_dynamic`).
        name: String,
        /// One chain per participating worker.
        chains: Vec<WorkerChain>,
    },
}

/// The per-operation activity timeline the graph is assembled from:
/// sequential segments, each either driver work or a parallel stage.
#[derive(Debug, Clone, Default)]
pub struct ActivityTimeline {
    /// Operation name (the root span: `search`, `join`, …).
    pub op: String,
    /// Root span label.
    pub label: String,
    /// Observed wall-clock seconds of the root span.
    pub wall_sec: f64,
    /// Segments in time order.
    pub segments: Vec<Segment>,
}

/// The materialized program-activity graph: activities plus
/// happens-before edges (always from a lower to a higher node id, so the
/// node order is a topological order).
#[derive(Debug, Clone, Default)]
pub struct ActivityGraph {
    /// Graph nodes.
    pub nodes: Vec<Activity>,
    /// Happens-before edges `(from, to)` with `from < to`.
    pub edges: Vec<(usize, usize)>,
}

impl ActivityGraph {
    /// Adds a node, returning its id.
    pub fn add(&mut self, a: Activity) -> usize {
        self.nodes.push(a);
        self.nodes.len() - 1
    }

    /// Adds a happens-before edge. Panics if it would break topological
    /// node order (a wiring bug in the builder).
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(from < to, "activity edges must respect insertion order");
        self.edges.push((from, to));
    }

    /// Longest path through the graph: maximizes total duration, breaking
    /// ties toward more *worked* (non-wait) seconds and then toward the
    /// smaller predecessor id. Complete chains through a barrier all span
    /// the same wall interval, so the work tie-break is what routes the
    /// path through the straggler instead of a wait-padded lane.
    ///
    /// Returns the node ids along the path plus its total duration.
    pub fn critical_path(&self) -> (Vec<usize>, f64) {
        let n = self.nodes.len();
        if n == 0 {
            return (Vec::new(), 0.0);
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(from, to) in &self.edges {
            preds[to].push(from);
        }
        // best[i] = (total, work, chosen predecessor)
        let mut best: Vec<(f64, f64, Option<usize>)> = Vec::with_capacity(n);
        for (i, node) in self.nodes.iter().enumerate() {
            let own_work = if node.class == ActivityClass::StragglerWait {
                0.0
            } else {
                node.dur_sec
            };
            let mut chosen: (f64, f64, Option<usize>) = (0.0, 0.0, None);
            for &p in &preds[i] {
                let cand = (best[p].0, best[p].1, Some(p));
                let better = match cmp_total(cand.0, chosen.0) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => match cand.1.total_cmp(&chosen.1) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Less => false,
                        std::cmp::Ordering::Equal => match (chosen.2, cand.2) {
                            (None, _) => true,
                            (Some(c), Some(new)) => new < c,
                            _ => false,
                        },
                    },
                };
                if better {
                    chosen = cand;
                }
            }
            best.push((chosen.0 + node.dur_sec, chosen.1 + own_work, chosen.2));
        }
        let end = (0..n)
            .max_by(|&a, &b| {
                cmp_total(best[a].0, best[b].0)
                    .then(best[a].1.total_cmp(&best[b].1))
                    .then(b.cmp(&a))
            })
            .unwrap_or(0);
        let mut path = Vec::new();
        let mut cur = Some(end);
        while let Some(i) = cur {
            path.push(i);
            cur = best[i].2;
        }
        path.reverse();
        (path, best[end].0)
    }
}

/// Orders two path totals, taking sums that differ only by float rounding
/// as equal: the chains into a barrier are padded to one span but add it up
/// in different orders, and a rounding error must not outrank the work
/// tie-break.
fn cmp_total(a: f64, b: f64) -> std::cmp::Ordering {
    if (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) {
        std::cmp::Ordering::Equal
    } else {
        a.total_cmp(&b)
    }
}

impl ActivityTimeline {
    /// Materializes the happens-before graph: driver activities chain
    /// sequentially; each stage fans out into per-worker chains (shipment
    /// → compute activities → wait padding) that re-join at a zero-cost
    /// barrier node.
    pub fn build_graph(&self) -> ActivityGraph {
        let mut g = ActivityGraph::default();
        let mut prev: Option<usize> = None;
        for seg in &self.segments {
            match seg {
                Segment::Driver(a) => {
                    let id = g.add(a.clone());
                    if let Some(p) = prev {
                        g.add_edge(p, id);
                    }
                    prev = Some(id);
                }
                Segment::Stage { name, chains } => {
                    if chains.is_empty() {
                        continue;
                    }
                    let span = chains
                        .iter()
                        .map(WorkerChain::busy_sec)
                        .fold(0.0f64, f64::max);
                    let mut tails = Vec::with_capacity(chains.len());
                    for chain in chains {
                        let mut last = prev;
                        for a in &chain.activities {
                            let mut a = a.clone();
                            a.worker = Some(chain.worker);
                            let id = g.add(a);
                            if let Some(p) = last {
                                g.add_edge(p, id);
                            }
                            last = Some(id);
                        }
                        let wait = span - chain.busy_sec();
                        if wait > 1e-12 {
                            let id = g.add(Activity {
                                class: ActivityClass::StragglerWait,
                                name: "straggler-wait".to_string(),
                                worker: Some(chain.worker),
                                dur_sec: wait,
                            });
                            if let Some(p) = last {
                                g.add_edge(p, id);
                            }
                            last = Some(id);
                        }
                        if let Some(t) = last {
                            tails.push(t);
                        }
                    }
                    let barrier = g.add(Activity {
                        class: ActivityClass::Other,
                        name: format!("barrier:{name}"),
                        worker: None,
                        dur_sec: 0.0,
                    });
                    for t in tails {
                        g.add_edge(t, barrier);
                    }
                    prev = Some(barrier);
                }
            }
        }
        g
    }

    /// Runs the full analysis: graph assembly, critical-path extraction
    /// and class attribution.
    pub fn analyze(&self) -> CritPathReport {
        let mut seconds = [0.0f64; 6];
        let mut makespan = 0.0f64;
        let mut lanes: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
        for seg in &self.segments {
            match seg {
                Segment::Driver(a) => {
                    seconds[a.class.index()] += a.dur_sec;
                    makespan += a.dur_sec;
                }
                Segment::Stage { chains, .. } => {
                    if chains.is_empty() {
                        continue;
                    }
                    let n = chains.len() as f64;
                    let span = chains
                        .iter()
                        .map(WorkerChain::busy_sec)
                        .fold(0.0f64, f64::max);
                    makespan += span;
                    for chain in chains {
                        for a in &chain.activities {
                            seconds[a.class.index()] += a.dur_sec / n;
                        }
                        let busy = chain.busy_sec();
                        seconds[ActivityClass::StragglerWait.index()] += (span - busy) / n;
                        let lane = lanes.entry(chain.worker).or_insert((0.0, 0.0));
                        lane.0 += busy;
                        lane.1 += span - busy;
                    }
                }
            }
        }
        let graph = self.build_graph();
        let (path_ids, _) = graph.critical_path();
        let path = path_ids
            .into_iter()
            .map(|i| &graph.nodes[i])
            .filter(|a| a.dur_sec > 0.0)
            .map(|a| PathStep {
                class: a.class,
                name: a.name.clone(),
                worker: a.worker,
                dur_sec: a.dur_sec,
            })
            .collect();
        let attribution = ActivityClass::ALL
            .into_iter()
            .map(|c| ClassShare {
                class: c,
                seconds: seconds[c.index()],
                pct: if makespan > 0.0 {
                    100.0 * seconds[c.index()] / makespan
                } else {
                    0.0
                },
            })
            .collect();
        CritPathReport {
            schema: CRITPATH_SCHEMA.to_string(),
            op: self.op.clone(),
            label: self.label.clone(),
            makespan_sec: makespan,
            wall_sec: self.wall_sec,
            attribution,
            path,
            workers: lanes
                .into_iter()
                .map(|(worker, (busy_sec, wait_sec))| WorkerLane {
                    worker,
                    busy_sec,
                    wait_sec,
                })
                .collect(),
        }
    }
}

/// One class's share of the makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassShare {
    /// Activity class.
    pub class: ActivityClass,
    /// Attributed seconds.
    pub seconds: f64,
    /// `100 · seconds / makespan`.
    pub pct: f64,
}

/// One activity along the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Activity class.
    pub class: ActivityClass,
    /// Activity name.
    pub name: String,
    /// Worker lane, when the activity ran on one.
    pub worker: Option<u32>,
    /// Duration, seconds.
    pub dur_sec: f64,
}

/// Per-worker busy/wait totals across all stages of the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerLane {
    /// Worker id.
    pub worker: u32,
    /// Modeled busy seconds (shipment + compute).
    pub busy_sec: f64,
    /// Barrier-wait seconds (stage span minus busy, summed over stages).
    pub wait_sec: f64,
}

/// The exported critical-path analysis of one operation
/// (`dita-obs/critpath/v1`).
#[derive(Debug, Clone, PartialEq)]
pub struct CritPathReport {
    /// Schema tag ([`CRITPATH_SCHEMA`]).
    pub schema: String,
    /// Operation (root span) name.
    pub op: String,
    /// Root span label.
    pub label: String,
    /// Modeled makespan the attribution sums to, seconds.
    pub makespan_sec: f64,
    /// Observed wall-clock seconds of the root span, for reference (the
    /// modeled makespan excludes driver overhead outside any segment).
    pub wall_sec: f64,
    /// Per-class attribution, all six classes in fixed order; `pct` sums
    /// to ~100 whenever `makespan_sec > 0`.
    pub attribution: Vec<ClassShare>,
    /// The critical path, zero-duration barrier nodes elided.
    pub path: Vec<PathStep>,
    /// Per-worker busy/wait lanes.
    pub workers: Vec<WorkerLane>,
}

impl ToJson for ClassShare {
    fn to_json(&self) -> Value {
        Obj::new()
            .field("class", &self.class)
            .field("seconds", &self.seconds)
            .field("pct", &self.pct)
            .build()
    }
}

impl FromJson for ClassShare {
    fn from_json(v: &Value) -> JsonResult<ClassShare> {
        Ok(ClassShare {
            class: v.req("class")?,
            seconds: v.or_default("seconds")?,
            pct: v.or_default("pct")?,
        })
    }
}

impl ToJson for PathStep {
    fn to_json(&self) -> Value {
        Obj::new()
            .field("class", &self.class)
            .field("name", &self.name)
            .field_if(self.worker.is_some(), "worker", &self.worker)
            .field("dur_sec", &self.dur_sec)
            .build()
    }
}

impl FromJson for PathStep {
    fn from_json(v: &Value) -> JsonResult<PathStep> {
        Ok(PathStep {
            class: v.req("class")?,
            name: v.or_default("name")?,
            worker: v.opt("worker")?,
            dur_sec: v.or_default("dur_sec")?,
        })
    }
}

impl ToJson for WorkerLane {
    fn to_json(&self) -> Value {
        Obj::new()
            .field("worker", &self.worker)
            .field("busy_sec", &self.busy_sec)
            .field("wait_sec", &self.wait_sec)
            .build()
    }
}

impl FromJson for WorkerLane {
    fn from_json(v: &Value) -> JsonResult<WorkerLane> {
        Ok(WorkerLane {
            worker: v.req("worker")?,
            busy_sec: v.or_default("busy_sec")?,
            wait_sec: v.or_default("wait_sec")?,
        })
    }
}

impl ToJson for CritPathReport {
    fn to_json(&self) -> Value {
        Obj::new()
            .field("schema", &self.schema)
            .field("op", &self.op)
            .field("label", &self.label)
            .field("makespan_sec", &self.makespan_sec)
            .field("wall_sec", &self.wall_sec)
            .field("attribution", &self.attribution)
            .field("path", &self.path)
            .field("workers", &self.workers)
            .build()
    }
}

impl FromJson for CritPathReport {
    fn from_json(v: &Value) -> JsonResult<CritPathReport> {
        Ok(CritPathReport {
            schema: v.or_default("schema")?,
            op: v.or_default("op")?,
            label: v.or_default("label")?,
            makespan_sec: v.or_default("makespan_sec")?,
            wall_sec: v.or_default("wall_sec")?,
            attribution: v.or_default("attribution")?,
            path: v.or_default("path")?,
            workers: v.or_default("workers")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Report-driven assembly: timeline rows → ActivityTimeline per operation.
// ---------------------------------------------------------------------------

/// Analyzes every top-level operation in a [`Report`]'s timeline,
/// returning one [`CritPathReport`] per root span that contains recorded
/// work.
pub fn analyze_report(report: &Report) -> Vec<CritPathReport> {
    let rows = &report.timeline;
    let by_id: BTreeMap<usize, &TimelineRow> = rows.iter().map(|r| (r.id, r)).collect();
    let mut children: BTreeMap<usize, Vec<&TimelineRow>> = BTreeMap::new();
    for r in rows {
        if let Some(p) = r.parent {
            children.entry(p).or_default().push(r);
        }
    }
    rows.iter()
        .filter(|r| r.parent.is_none())
        .map(|root| extract_op(root, &by_id, &children).analyze())
        .collect()
}

/// Extracts one operation's [`ActivityTimeline`] from its root span's
/// subtree.
fn extract_op(
    root: &TimelineRow,
    by_id: &BTreeMap<usize, &TimelineRow>,
    children: &BTreeMap<usize, Vec<&TimelineRow>>,
) -> ActivityTimeline {
    // A task's stage anchor is its grandparent when the parent is a
    // `worker` span (the executor's shape), otherwise its parent.
    let anchor_of = |task: &TimelineRow| -> Option<usize> {
        let parent = by_id.get(&task.parent?)?;
        if parent.name == names::SPAN_WORKER {
            parent.parent.or(Some(parent.id))
        } else {
            Some(parent.id)
        }
    };
    // All tasks under the root, grouped by anchor.
    let mut tasks_by_anchor: BTreeMap<usize, Vec<&TimelineRow>> = BTreeMap::new();
    let mut stack = vec![root.id];
    while let Some(id) = stack.pop() {
        for c in children.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
            if c.name == names::SPAN_TASK {
                if let Some(anchor) = anchor_of(c) {
                    tasks_by_anchor.entry(anchor).or_default().push(c);
                }
            } else {
                stack.push(c.id);
            }
        }
    }
    // Anchors inside a root child's subtree collapse into one stage per
    // child; tasks anchored at the root itself form their own stage.
    let subtree_contains = |top: usize, mut id: usize| -> bool {
        loop {
            if id == top {
                return true;
            }
            match by_id.get(&id).and_then(|r| r.parent) {
                Some(p) => id = p,
                None => return false,
            }
        }
    };
    let mut segments: Vec<(f64, Segment)> = Vec::new();
    if let Some(tasks) = tasks_by_anchor.get(&root.id) {
        let start = tasks.iter().map(|t| t.start_sec).fold(f64::MAX, f64::min);
        segments.push((start, stage_segment(root.name.clone(), tasks, children)));
    }
    for child in children.get(&root.id).map(Vec::as_slice).unwrap_or(&[]) {
        let stage_tasks: Vec<&TimelineRow> = tasks_by_anchor
            .iter()
            .filter(|(anchor, _)| **anchor != root.id && subtree_contains(child.id, **anchor))
            .flat_map(|(_, ts)| ts.iter().copied())
            .collect();
        let seg = if stage_tasks.is_empty() {
            Segment::Driver(Activity {
                class: ActivityClass::of_span(&child.name),
                name: child.name.clone(),
                worker: None,
                dur_sec: child.wall_sec,
            })
        } else {
            stage_segment(child.name.clone(), &stage_tasks, children)
        };
        segments.push((child.start_sec, seg));
    }
    segments.sort_by(|a, b| a.0.total_cmp(&b.0));
    ActivityTimeline {
        op: root.name.clone(),
        label: root.label.clone(),
        wall_sec: root.wall_sec,
        segments: segments.into_iter().map(|(_, s)| s).collect(),
    }
}

/// Builds a stage segment from its task rows: one chain per worker, each
/// task contributing a shipment activity (its network charge) plus its
/// CPU time split by descendant span class.
fn stage_segment(
    name: String,
    tasks: &[&TimelineRow],
    children: &BTreeMap<usize, Vec<&TimelineRow>>,
) -> Segment {
    let mut per_worker: BTreeMap<u32, Vec<&TimelineRow>> = BTreeMap::new();
    for t in tasks {
        per_worker.entry(t.worker.unwrap_or(0)).or_default().push(t);
    }
    let chains = per_worker
        .into_iter()
        .map(|(worker, mut ts)| {
            ts.sort_by(|a, b| a.start_sec.total_cmp(&b.start_sec).then(a.id.cmp(&b.id)));
            let mut activities = Vec::new();
            let mut class_cpu = [0.0f64; 6];
            for t in &ts {
                if t.net_sec > 0.0 {
                    activities.push(Activity {
                        class: ActivityClass::Shipment,
                        name: "shipment".to_string(),
                        worker: Some(worker),
                        dur_sec: t.net_sec,
                    });
                }
                accumulate_exclusive_cpu(t, children, &mut class_cpu);
            }
            for class in ActivityClass::ALL {
                let cpu = class_cpu[class.index()];
                if cpu > 0.0 {
                    activities.push(Activity {
                        class,
                        name: class.as_str().to_string(),
                        worker: Some(worker),
                        dur_sec: cpu,
                    });
                }
            }
            WorkerChain { worker, activities }
        })
        .collect();
    Segment::Stage { name, chains }
}

/// Adds each subtree span's *exclusive* CPU (its own minus its direct
/// children's) into the per-class accumulator. The task span itself
/// classifies as `Other` — the residual overhead around its child
/// filter/verify spans.
fn accumulate_exclusive_cpu(
    row: &TimelineRow,
    children: &BTreeMap<usize, Vec<&TimelineRow>>,
    class_cpu: &mut [f64; 6],
) {
    let kids = children.get(&row.id).map(Vec::as_slice).unwrap_or(&[]);
    let child_cpu: f64 = kids.iter().map(|c| c.cpu_sec).sum();
    let exclusive = (row.cpu_sec - child_cpu).max(0.0);
    class_cpu[ActivityClass::of_span(&row.name).index()] += exclusive;
    for c in kids {
        accumulate_exclusive_cpu(c, children, class_cpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(class: ActivityClass, name: &str, dur: f64) -> Activity {
        Activity {
            class,
            name: name.to_string(),
            worker: None,
            dur_sec: dur,
        }
    }

    /// The deterministic straggler scenario the ISSUE pins: one driver
    /// build second, then a two-worker stage where worker 0 verifies for
    /// 8s and worker 1 for 2s.
    fn straggler_timeline() -> ActivityTimeline {
        ActivityTimeline {
            op: "join".to_string(),
            label: String::new(),
            wall_sec: 9.5,
            segments: vec![
                Segment::Driver(act(ActivityClass::Build, "build-edges", 1.0)),
                Segment::Stage {
                    name: "execute_dynamic".to_string(),
                    chains: vec![
                        WorkerChain {
                            worker: 0,
                            activities: vec![act(ActivityClass::Verify, "verify", 8.0)],
                        },
                        WorkerChain {
                            worker: 1,
                            activities: vec![act(ActivityClass::Verify, "verify", 2.0)],
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn straggler_lands_on_critical_path_with_expected_attribution() {
        let report = straggler_timeline().analyze();
        assert_eq!(report.makespan_sec, 9.0);
        // Attribution: build 1s, verify (8+2)/2 = 5s, straggler-wait
        // (0+6)/2 = 3s; everything else zero.
        let share = |class: ActivityClass| {
            report
                .attribution
                .iter()
                .find(|s| s.class == class)
                .unwrap()
        };
        assert!((share(ActivityClass::Build).seconds - 1.0).abs() < 1e-12);
        assert!((share(ActivityClass::Verify).seconds - 5.0).abs() < 1e-12);
        assert!((share(ActivityClass::StragglerWait).seconds - 3.0).abs() < 1e-12);
        assert!((share(ActivityClass::Build).pct - 100.0 / 9.0).abs() < 1e-9);
        assert!((share(ActivityClass::Verify).pct - 500.0 / 9.0).abs() < 1e-9);
        assert!((share(ActivityClass::StragglerWait).pct - 300.0 / 9.0).abs() < 1e-9);
        let pct_sum: f64 = report.attribution.iter().map(|s| s.pct).sum();
        assert!((pct_sum - 100.0).abs() < 1e-9);
        // The critical path runs through the straggler (worker 0), not
        // the wait-padded lane of worker 1.
        assert_eq!(report.path.len(), 2);
        assert_eq!(report.path[0].name, "build-edges");
        assert_eq!(report.path[1].class, ActivityClass::Verify);
        assert_eq!(report.path[1].worker, Some(0));
        assert_eq!(report.path[1].dur_sec, 8.0);
        // Lanes record the straggler gap on worker 1.
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.workers[0].wait_sec, 0.0);
        assert_eq!(report.workers[1].wait_sec, 6.0);
    }

    #[test]
    fn critical_path_prefers_work_over_wait_on_total_ties() {
        let t = ActivityTimeline {
            op: "op".to_string(),
            label: String::new(),
            wall_sec: 4.0,
            segments: vec![Segment::Stage {
                name: "s".to_string(),
                chains: vec![
                    WorkerChain {
                        worker: 0,
                        activities: vec![
                            act(ActivityClass::Shipment, "shipment", 1.0),
                            act(ActivityClass::Filter, "filter", 3.0),
                        ],
                    },
                    WorkerChain {
                        worker: 1,
                        activities: vec![act(ActivityClass::Verify, "verify", 1.0)],
                    },
                ],
            }],
        };
        let g = t.build_graph();
        let (path, total) = g.critical_path();
        assert!((total - 4.0).abs() < 1e-12);
        // Both lanes total 4.0s through the barrier (worker 1 is padded
        // with 3s of wait); the work tie-break picks worker 0's chain.
        let classes: Vec<ActivityClass> = path.iter().map(|&i| g.nodes[i].class).collect();
        assert!(classes.contains(&ActivityClass::Shipment));
        assert!(classes.contains(&ActivityClass::Filter));
        assert!(!classes.contains(&ActivityClass::StragglerWait));
    }

    #[test]
    fn empty_and_driver_only_timelines_are_safe() {
        let empty = ActivityTimeline::default().analyze();
        assert_eq!(empty.makespan_sec, 0.0);
        assert!(empty.path.is_empty());
        assert!(empty.attribution.iter().all(|s| s.pct == 0.0));

        let t = ActivityTimeline {
            op: "compact".to_string(),
            label: String::new(),
            wall_sec: 2.0,
            segments: vec![Segment::Driver(act(ActivityClass::Build, "compact", 2.0))],
        };
        let r = t.analyze();
        assert_eq!(r.makespan_sec, 2.0);
        let pct_sum: f64 = r.attribution.iter().map(|s| s.pct).sum();
        assert!((pct_sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = straggler_timeline().analyze();
        let json = report.to_json().pretty();
        let back = CritPathReport::from_json(&Value::parse(&json).unwrap()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn analyze_report_reconstructs_executor_shape() {
        // Simulate the executor's span shape directly on a tracer: a
        // `search` root with two worker lanes, each running one task with
        // filter/verify children and a shipment charge.
        let obs = crate::Obs::enabled();
        {
            let root = obs.span(names::SPAN_SEARCH);
            let handle = root.handle();
            std::thread::scope(|s| {
                for w in 0..2u32 {
                    let obs = &obs;
                    s.spawn(move || {
                        let mut wspan = obs.span_under(handle, names::SPAN_WORKER);
                        wspan.set_worker(w);
                        let mut task = obs.span(names::SPAN_TASK);
                        task.set_bytes(100);
                        task.set_net_sec(0.5);
                        {
                            let mut f = obs.span(names::SPAN_FILTER);
                            f.add_cpu(std::time::Duration::from_millis(250));
                        }
                        let mut v = obs.span(names::SPAN_VERIFY);
                        v.add_cpu(std::time::Duration::from_millis(500 * (w as u64 + 1)));
                    });
                }
            });
        }
        let report = obs.report();
        let analyses = analyze_report(&report);
        assert_eq!(analyses.len(), 1);
        let cp = &analyses[0];
        assert_eq!(cp.op, "search");
        assert_eq!(cp.schema, CRITPATH_SCHEMA);
        assert!(cp.makespan_sec > 0.0);
        assert_eq!(cp.workers.len(), 2);
        let pct_sum: f64 = cp.attribution.iter().map(|s| s.pct).sum();
        assert!((pct_sum - 100.0).abs() < 1e-6, "pct_sum={pct_sum}");
        let share = |class: ActivityClass| {
            cp.attribution
                .iter()
                .find(|s| s.class == class)
                .unwrap()
                .seconds
        };
        assert!(share(ActivityClass::Shipment) >= 0.5 - 1e-9);
        assert!(share(ActivityClass::Filter) > 0.0);
        assert!(share(ActivityClass::Verify) > 0.0);
        // Worker 1 burned more verify CPU, so it is the straggler lane.
        assert!(cp
            .path
            .iter()
            .any(|p| p.class == ActivityClass::Verify && p.worker == Some(1)));
    }
}
