//! The DITA-specific rules L1–L7 (see STATIC_ANALYSIS.md).
//!
//! L1–L5 are per-file and live here; L6/L7 (lock-order and
//! blocking-under-lock) need crate-level context and live in
//! [`crate::concurrency`], sharing the rule consts and allow-comment
//! machinery below.
//!
//! All matchers run on masked, test-stripped source (see
//! [`crate::mask`]), so tokens inside comments, literals and
//! `#[cfg(test)]` items never fire.

use crate::mask::{
    blank_test_code, find_all, fn_spans, line_of, mask, mask_literals, matching_paren,
};
use crate::Finding;

/// L1: no panicking operator in worker-executed code.
pub const RULE_WORKER_PANIC: &str = "worker-panic";
/// L2: no NaN-unsafe float ordering.
pub const RULE_NAN_ORDERING: &str = "nan-ordering";
/// L3: observability names must come from `dita_obs::names`.
pub const RULE_OBS_NAMES: &str = "obs-names";
/// L4: helper-pool parallelism must charge the cost model.
pub const RULE_UNPRICED_PARALLELISM: &str = "unpriced-parallelism";
/// L5: span/task transfer attribution must be priced by the network model.
pub const RULE_UNPRICED_TRANSFER: &str = "unpriced-transfer";
/// L6: lock acquisitions must follow the declared rank order, and every
/// lock must be a ranked `dita_obs::sync` wrapper.
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// L7: no indefinite blocking while a lock guard is live.
pub const RULE_BLOCKING_UNDER_LOCK: &str = "blocking-under-lock";
/// An allow comment that is unparsable or missing its reason.
pub const RULE_MALFORMED_ALLOW: &str = "malformed-allow";

/// Operators that can unwind a worker thread.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Trie methods on the search/join filter hot path (worker-executed): the
/// single-query probes, the local join's run probe (`probe_rows` and what
/// it calls per run, per node and per member) and the shared predicates.
const TRIE_HOT_FNS: &[&str] = &[
    "candidates",
    "candidates_with_stats",
    "candidates_with_scratch",
    "candidate_count",
    "candidates_batch",
    "probe",
    "probe_soa",
    "walk_query",
    "probe_rows",
    "probe_run",
    "run_rects",
    "run_admits",
    "node_admits",
    "edr_lengths_apart",
    "member_survives",
    "member_admits",
    "edit_family_admits",
    "suffix_scan",
    "get",
    "try_get",
];

/// `dita_distance::bounds` functions verification runs per candidate, on
/// worker threads, from outside `core/src/verify.rs`.
const BOUNDS_WORKER_FNS: &[&str] = &[
    "mbr_coverage_prune",
    "point_mbr_sum",
    "point_mbr_max",
    "length_bound_edr",
    "dist_sum_to",
    "magnitude_bound_erp",
];

/// Cluster task-closure call shapes: the closure argument of each of
/// these runs on a simulated worker thread under `catch_unwind`.
const EXECUTOR_CALLS: &[&str] = &[".execute(", ".execute_try(", ".execute_dynamic("];

/// Crates participating in the simulated cost model: helper-pool CPU
/// time spent here must be charged back to the owning task.
const COST_MODELED_PREFIXES: &[&str] =
    &["crates/index/src", "crates/core/src", "crates/ingest/src"];

/// `FanOut::new(` is `dita_index::FanOut`, the workspace's one pool: a fn
/// that builds one owes the cost model what `.helper_cpu()` returns.
const POOL_TOKENS: &[&str] = &[
    "ThreadPoolBuilder",
    "FanOut::new(",
    "thread::scope(",
    "rayon::scope(",
    ".par_iter(",
    ".par_iter_mut(",
    ".into_par_iter(",
    ".par_chunks(",
];
const CHARGE_TOKENS: &[&str] = &["charge_compute(", "thread_cpu_time(", ".helper_cpu("];

/// The crate owning the simulated network: a fn here that attaches
/// shipment facts to spans or task costs feeds the critical-path
/// analyzer and the dynamic scheduler, so the numbers must come from
/// the network model, not ad-hoc arithmetic.
const TRANSFER_MODELED_PREFIX: &str = "crates/cluster/src";

/// APIs that attribute transfer facts to a span or a scheduled task.
const TRANSFER_ATTR_TOKENS: &[&str] = &[".set_bytes(", ".set_net_sec(", ".annotate("];
/// The network model's pricing call.
const TRANSFER_PRICE_TOKEN: &str = "transfer_sec(";

/// Obs APIs whose FIRST argument is a metric/span/funnel name.
const OBS_FIRST_ARG: &[&str] = &[
    ".counter(",
    ".counter_labeled(",
    ".gauge(",
    ".gauge_labeled(",
    ".histogram(",
    ".histogram_seconds(",
    ".histogram_seconds_labeled(",
    ".span(",
    ".span_labeled(",
    "Funnel::new(",
    ".stage(",
];
/// Obs APIs whose SECOND argument is the name (first is obs/parent).
const OBS_SECOND_ARG: &[&str] = &["span!(", ".span_under(", ".span_under_labeled("];

/// Result of linting one file: surviving findings plus the count of
/// findings suppressed by well-formed allow comments.
pub struct FileLint {
    /// Findings not covered by an allow comment.
    pub findings: Vec<Finding>,
    /// Findings suppressed by `// lint: allow(...)`.
    pub allowed: usize,
}

/// Lints one source file. `rel` is the workspace-relative path (with
/// `/` separators) — rule scoping keys off it.
pub fn lint_source(rel: &str, src: &str) -> FileLint {
    let masked = blank_test_code(&mask(src));
    let mut findings = Vec::new();
    l1_worker_panic(rel, src, &masked, &mut findings);
    l2_nan_ordering(rel, src, &masked, &mut findings);
    l3_raw_names(rel, src, &masked, &mut findings);
    l4_unpriced_parallelism(rel, src, &masked, &mut findings);
    l5_unpriced_transfer(rel, src, &masked, &mut findings);
    findings.sort_by_key(|f| (f.line, f.rule));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    // Allow comments are read from a literals-masked, test-stripped
    // view: a `lint: allow(...)` inside a string or a test module is
    // not an annotation.
    apply_allows(rel, &blank_test_code(&mask_literals(src)), findings)
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

// ---------------------------------------------------------------- L1

fn l1_worker_panic(rel: &str, src: &str, masked: &str, out: &mut Vec<Finding>) {
    let mut scopes: Vec<(std::ops::Range<usize>, &str)> = Vec::new();
    if rel == "crates/core/src/verify.rs" {
        scopes.push((0..masked.len(), "core::verify worker path"));
    }
    // The flat node arena / trajectory store is dereferenced on every
    // probe and verification; all of it is worker-reachable.
    if rel == "crates/index/src/flat.rs" {
        scopes.push((0..masked.len(), "flat trie arena (probe hot path)"));
    }
    // The admission scheduler sits on every query's path; a panic here
    // takes down the whole intake loop, not one query.
    if rel == "crates/cluster/src/scheduler.rs" {
        scopes.push((0..masked.len(), "query scheduler admission path"));
    }
    // The HTTP service's request handlers, connection threads and
    // dispatcher all serve concurrent clients: a panic there kills a
    // worker thread (or poisons the engine lock) for every later
    // request, not just the offending one. The demo binary's `main` is
    // single-shot setup code and stays out of scope.
    if rel.starts_with("crates/server/src/") && !rel.ends_with("/main.rs") {
        scopes.push((0..masked.len(), "server request/connection path"));
    }
    // The ranked-lock layer runs under every subsystem's locks; an
    // unwind here poisons whichever mutex the caller holds and takes
    // the rank bookkeeping with it.
    if rel == "crates/obs/src/sync.rs" {
        scopes.push((0..masked.len(), "ranked-lock layer"));
    }
    // Files where only the named functions run on worker threads.
    let by_fn: [(&[&str], &[&str], &str); 2] = [
        (
            &["crates/index/src/trie.rs", "crates/index/src/pointer.rs"],
            TRIE_HOT_FNS,
            "trie filter hot path",
        ),
        (
            &["crates/distance/src/bounds.rs"],
            BOUNDS_WORKER_FNS,
            "verification bound (worker path)",
        ),
    ];
    for (files, fns, scope) in by_fn {
        if files.contains(&rel) {
            for f in fn_spans(masked) {
                if fns.contains(&f.name.as_str()) {
                    scopes.push((f.start..f.end, scope));
                }
            }
        }
    }
    for pat in EXECUTOR_CALLS {
        for at in find_all(masked, pat, 0, masked.len()) {
            let open = at + pat.len() - 1;
            if let Some(close) = matching_paren(masked.as_bytes(), open) {
                scopes.push((open..close, "cluster task closure"));
            }
        }
    }
    for (range, scope) in scopes {
        for tok in PANIC_TOKENS {
            for at in find_all(masked, tok, range.start, range.end) {
                out.push(Finding {
                    rule: RULE_WORKER_PANIC,
                    file: rel.to_string(),
                    line: line_of(src, at),
                    message: format!(
                        "`{}` in {} — worker code must return TaskError (or use \
                         try_* variants) so the executor retry path sees the failure",
                        tok.trim_start_matches('.').trim_end_matches('('),
                        scope
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- L2

fn l2_nan_ordering(rel: &str, src: &str, masked: &str, out: &mut Vec<Finding>) {
    let b = masked.as_bytes();
    // `partial_cmp(...)` chained straight into unwrap/expect.
    for at in find_all(masked, "partial_cmp", 0, masked.len()) {
        if at > 0 && is_ident(b[at - 1]) {
            continue;
        }
        let after = at + "partial_cmp".len();
        if after >= b.len() || b[after] != b'(' {
            continue;
        }
        if let Some(close) = matching_paren(b, after) {
            let mut i = close + 1;
            while i < b.len() && (b[i] == b' ' || b[i] == b'\n') {
                i += 1;
            }
            if masked[i..].starts_with(".unwrap()") || masked[i..].starts_with(".expect(") {
                out.push(Finding {
                    rule: RULE_NAN_ORDERING,
                    file: rel.to_string(),
                    line: line_of(src, at),
                    message: "`partial_cmp(..).unwrap()` is NaN-unsafe; use \
                              `f64::total_cmp` for float ordering"
                        .to_string(),
                });
            }
        }
    }
    // Comparator closures built on partial_cmp.
    for pat in [
        ".sort_by(",
        ".sort_unstable_by(",
        ".min_by(",
        ".max_by(",
        ".binary_search_by(",
    ] {
        for at in find_all(masked, pat, 0, masked.len()) {
            let open = at + pat.len() - 1;
            if let Some(close) = matching_paren(b, open) {
                if !find_all(masked, "partial_cmp", open, close).is_empty() {
                    out.push(Finding {
                        rule: RULE_NAN_ORDERING,
                        file: rel.to_string(),
                        line: line_of(src, at),
                        message: format!(
                            "`{}` comparator uses `partial_cmp`, which panics or \
                             misorders on NaN; use `f64::total_cmp`",
                            pat.trim_start_matches('.').trim_end_matches('(')
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------- L3

fn l3_raw_names(rel: &str, src: &str, masked: &str, out: &mut Vec<Finding>) {
    // The registry itself is the one place literals belong; the obs
    // crate's internals take `name` parameters, not literals.
    if rel == "crates/obs/src/names.rs" {
        return;
    }
    let b = masked.as_bytes();
    let mut flag = |at: usize, pat: &str| {
        out.push(Finding {
            rule: RULE_OBS_NAMES,
            file: rel.to_string(),
            line: line_of(src, at),
            message: format!(
                "raw string literal passed to `{}` — use a `dita_obs::names` \
                 const so the registry, code and OBSERVABILITY.md stay in sync",
                pat.trim_start_matches('.').trim_end_matches('(')
            ),
        });
    };
    for pat in OBS_FIRST_ARG {
        for at in find_all(masked, pat, 0, masked.len()) {
            let open = at + pat.len() - 1;
            let mut i = open + 1;
            while i < b.len() && (b[i] == b' ' || b[i] == b'\n') {
                i += 1;
            }
            if i < b.len() && b[i] == b'"' {
                flag(at, pat);
            }
        }
    }
    for pat in OBS_SECOND_ARG {
        for at in find_all(masked, pat, 0, masked.len()) {
            let open = at + pat.len() - 1;
            let Some(close) = matching_paren(b, open) else {
                continue;
            };
            // First comma at paren depth 1 separates arg 1 from arg 2.
            let mut depth = 0i64;
            let mut comma = None;
            for (i, &ch) in b.iter().enumerate().take(close).skip(open) {
                match ch {
                    b'(' => depth += 1,
                    b')' => depth -= 1,
                    b',' if depth == 1 => {
                        comma = Some(i);
                        break;
                    }
                    _ => {}
                }
            }
            let Some(comma) = comma else { continue };
            let mut i = comma + 1;
            while i < b.len() && (b[i] == b' ' || b[i] == b'\n') {
                i += 1;
            }
            if i < b.len() && b[i] == b'"' {
                flag(at, pat);
            }
        }
    }
}

// ---------------------------------------------------------------- L4

fn l4_unpriced_parallelism(rel: &str, src: &str, masked: &str, out: &mut Vec<Finding>) {
    if !COST_MODELED_PREFIXES.iter().any(|p| rel.starts_with(p)) {
        return;
    }
    for f in fn_spans(masked) {
        let uses_pool = POOL_TOKENS
            .iter()
            .any(|t| !find_all(masked, t, f.start, f.end).is_empty());
        if !uses_pool {
            continue;
        }
        let charges = CHARGE_TOKENS
            .iter()
            .any(|t| !find_all(masked, t, f.start, f.end).is_empty());
        if !charges {
            out.push(Finding {
                rule: RULE_UNPRICED_PARALLELISM,
                file: rel.to_string(),
                line: line_of(src, f.start),
                message: format!(
                    "fn `{}` spins up helper threads in a cost-modeled crate \
                     without `charge_compute`/`thread_cpu_time`/`helper_cpu` charge-back — \
                     the simulated cost model would under-price this work",
                    f.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- L5

fn l5_unpriced_transfer(rel: &str, src: &str, masked: &str, out: &mut Vec<Finding>) {
    if !rel.starts_with(TRANSFER_MODELED_PREFIX) {
        return;
    }
    for f in fn_spans(masked) {
        let attributes = TRANSFER_ATTR_TOKENS
            .iter()
            .any(|t| !find_all(masked, t, f.start, f.end).is_empty());
        if !attributes {
            continue;
        }
        let priced = !find_all(masked, TRANSFER_PRICE_TOKEN, f.start, f.end).is_empty();
        if !priced {
            out.push(Finding {
                rule: RULE_UNPRICED_TRANSFER,
                file: rel.to_string(),
                line: line_of(src, f.start),
                message: format!(
                    "fn `{}` attaches shipment bytes/seconds to spans or task \
                     costs without pricing them via `transfer_sec` — transfer \
                     edges would reach the critical-path analyzer and the \
                     scheduler unpriced",
                    f.name
                ),
            });
        }
    }
}

// ---------------------------------------------------- allow comments

/// Parses `// lint: allow(RULE, reason = "...")` comments out of the
/// literals-masked, test-stripped text: a map from suppressed line to
/// rule names, plus malformed-allow findings.
fn collect_allows(
    rel: &str,
    src: &str,
) -> (std::collections::HashMap<usize, Vec<String>>, Vec<Finding>) {
    use std::collections::HashMap;
    let mut allows: HashMap<usize, Vec<String>> = HashMap::new();
    let mut malformed = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let Some(comment_at) = raw.find("//") else {
            continue;
        };
        let comment = &raw[comment_at..];
        let Some(at) = comment.find("lint: allow(") else {
            continue;
        };
        let rest = &comment[at + "lint: allow(".len()..];
        let rule_end = rest.find([',', ')']).unwrap_or(rest.len());
        let rule = rest[..rule_end].trim().to_string();
        // Prose in doc comments writes placeholders like `allow(...)`
        // or `allow(RULE)`; only kebab-case lowercase tokens are
        // treated as annotation attempts.
        if rule.is_empty() || !rule.bytes().all(|b| b.is_ascii_lowercase() || b == b'-') {
            continue;
        }
        let known = [
            RULE_WORKER_PANIC,
            RULE_NAN_ORDERING,
            RULE_OBS_NAMES,
            RULE_UNPRICED_PARALLELISM,
            RULE_UNPRICED_TRANSFER,
            RULE_LOCK_ORDER,
            RULE_BLOCKING_UNDER_LOCK,
        ]
        .contains(&rule.as_str());
        let has_reason = rest[rule_end..].contains("reason");
        if !known || !has_reason {
            malformed.push(Finding {
                rule: RULE_MALFORMED_ALLOW,
                file: rel.to_string(),
                line: lineno,
                message: if known {
                    format!("allow({rule}) without a `reason = ...`; justify every suppression")
                } else {
                    format!("allow(...) names unknown rule `{rule}`")
                },
            });
            continue;
        }
        allows.entry(lineno).or_default().push(rule.clone());
        allows.entry(lineno + 1).or_default().push(rule);
    }
    (allows, malformed)
}

/// Applies allow comments to per-file findings: suppression plus
/// malformed-allow diagnostics (emitted once per file, here only).
fn apply_allows(rel: &str, src: &str, findings: Vec<Finding>) -> FileLint {
    let (allows, malformed) = collect_allows(rel, src);
    let mut kept = Vec::new();
    let mut allowed = 0usize;
    for f in findings {
        let hit = allows
            .get(&f.line)
            .is_some_and(|rules| rules.iter().any(|r| r == f.rule));
        if hit {
            allowed += 1;
        } else {
            kept.push(f);
        }
    }
    kept.extend(malformed);
    kept.sort_by_key(|f| f.line);
    FileLint {
        findings: kept,
        allowed,
    }
}

/// Filters workspace-level findings (the [`crate::concurrency`] pass)
/// for one file through its allow comments. Malformed allows are NOT
/// re-reported here — [`lint_source`] already emits them. Returns the
/// surviving findings and the suppressed count.
pub fn filter_allows(raw_src: &str, findings: Vec<Finding>) -> (Vec<Finding>, usize) {
    let view = blank_test_code(&mask_literals(raw_src));
    let (allows, _) = collect_allows("", &view);
    let mut kept = Vec::new();
    let mut allowed = 0usize;
    for f in findings {
        let hit = allows
            .get(&f.line)
            .is_some_and(|rules| rules.iter().any(|r| r == f.rule));
        if hit {
            allowed += 1;
        } else {
            kept.push(f);
        }
    }
    (kept, allowed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_suppresses_next_line_only_for_named_rule() {
        let src = "\
fn f(v: Vec<u32>) {
    // lint: allow(nan-ordering, reason = \"test\")
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
";
        let r = lint_source("crates/core/src/x.rs", src);
        assert_eq!(r.allowed, 1);
        let nan: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == RULE_NAN_ORDERING)
            .collect();
        assert_eq!(nan.len(), 1);
        assert_eq!(nan[0].line, 4);
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let src = "// lint: allow(worker-panic)\n";
        let r = lint_source("crates/core/src/x.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, RULE_MALFORMED_ALLOW);
    }

    #[test]
    fn server_request_path_is_panic_free_scope() {
        let src = "\
fn handle(req: Request) -> Response {
    let body = req.body.unwrap();
    route(body)
}
";
        let r = lint_source("crates/server/src/server.rs", src);
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == RULE_WORKER_PANIC && f.line == 2));
        // The demo binary's single-shot `main` stays out of scope.
        assert!(lint_source("crates/server/src/main.rs", src)
            .findings
            .is_empty());
    }

    #[test]
    fn executor_closures_are_scanned_everywhere() {
        let src = "\
fn f(c: &Cluster) {
    let (r, _) = c.execute(tasks, |_w, t| {
        t.payload.unwrap()
    });
}
";
        let r = lint_source("crates/baselines/src/x.rs", src);
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == RULE_WORKER_PANIC && f.line == 3));
    }

    #[test]
    fn unpriced_transfer_fires_only_in_cluster() {
        let src = "\
fn attribute(span: &mut SpanGuard, bytes: u64) {
    span.set_bytes(bytes);
    span.set_net_sec(bytes as f64 / 1e8);
}
";
        let r = lint_source("crates/cluster/src/x.rs", src);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == RULE_UNPRICED_TRANSFER && f.line == 1),
            "hand-rolled pricing must be flagged: {:?}",
            r.findings
        );
        // Same source outside the cluster crate: out of scope.
        assert!(lint_source("crates/obs/src/x.rs", src).findings.is_empty());
    }

    #[test]
    fn transfer_priced_by_the_network_model_is_clean() {
        let src = "\
fn attribute(span: &mut SpanGuard, net: &NetworkModel, bytes: u64) {
    let net_sec = net.transfer_sec(bytes);
    span.set_bytes(bytes);
    span.set_net_sec(net_sec);
}
";
        let r = lint_source("crates/cluster/src/x.rs", src);
        assert!(
            !r.findings.iter().any(|f| f.rule == RULE_UNPRICED_TRANSFER),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t(c: &Cluster) {
        let _ = c.execute(tasks, |_w, t| t.unwrap());
    }
}
";
        let r = lint_source("crates/core/src/verify.rs", src);
        assert!(r.findings.is_empty());
    }
}
