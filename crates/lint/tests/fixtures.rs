//! Each rule must fire on its known-bad fixture (ISSUE acceptance:
//! "each of L1–L4 has a fixture test that fails on a known-bad
//! snippet", extended to L6/L7 by the concurrency-lint issue) and
//! allow comments must suppress exactly their rule.

use dita_lint::concurrency::{check_files, parse_rank_table};
use dita_lint::rules::{
    lint_source, RULE_BLOCKING_UNDER_LOCK, RULE_LOCK_ORDER, RULE_NAN_ORDERING, RULE_OBS_NAMES,
    RULE_UNPRICED_PARALLELISM, RULE_WORKER_PANIC,
};

fn rule_lines(findings: &[dita_lint::Finding], rule: &str) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn l1_fires_on_cluster_closures() {
    let src = include_str!("../fixtures/l1_worker_panic.rs");
    let r = lint_source("crates/baselines/src/fixture.rs", src);
    let lines = rule_lines(&r.findings, RULE_WORKER_PANIC);
    // unwrap + expect in the execute closure, unreachable! in the
    // execute_dynamic closure.
    assert_eq!(lines.len(), 3, "{:?}", r.findings);
}

#[test]
fn l1_covers_verify_and_trie_hot_path_scopes() {
    let verify = "pub fn verify_pair(x: Option<f64>) -> f64 { x.unwrap() }\n";
    let r = lint_source("crates/core/src/verify.rs", verify);
    assert_eq!(rule_lines(&r.findings, RULE_WORKER_PANIC).len(), 1);
    // Same content is NOT flagged at an unscoped path…
    let r = lint_source("crates/core/src/other.rs", verify);
    assert!(rule_lines(&r.findings, RULE_WORKER_PANIC).is_empty());
    // …and trie.rs only flags the filter hot-path functions.
    let trie = "\
pub fn probe(x: Option<u32>) -> u32 { x.unwrap() }
pub fn build(x: Option<u32>) -> u32 { x.unwrap() }
";
    let r = lint_source("crates/index/src/trie.rs", trie);
    assert_eq!(rule_lines(&r.findings, RULE_WORKER_PANIC), vec![1]);
}

#[test]
fn l1_covers_the_run_probe_and_the_soa_probe() {
    let src = include_str!("../fixtures/l1_trie_run_probe.rs");
    let r = lint_source("crates/index/src/trie.rs", src);
    // expect in probe_rows, unwrap + unreachable! in probe_run, unwrap in
    // probe_soa; build is not on the probe path and stays out of scope.
    assert_eq!(
        rule_lines(&r.findings, RULE_WORKER_PANIC),
        vec![7, 12, 14, 19]
    );
    let clean = include_str!("../fixtures/l1_trie_run_probe_clean.rs");
    let r = lint_source("crates/index/src/trie.rs", clean);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

#[test]
fn l1_covers_the_bounds_verification_calls() {
    let src = include_str!("../fixtures/l1_bounds_worker.rs");
    let r = lint_source("crates/distance/src/bounds.rs", src);
    // unwrap in point_mbr_sum, expect in magnitude_bound_erp; pamd is
    // driver-side and stays out of scope.
    assert_eq!(rule_lines(&r.findings, RULE_WORKER_PANIC), vec![6, 11]);
    let r = lint_source("crates/distance/src/dtw.rs", src);
    assert!(rule_lines(&r.findings, RULE_WORKER_PANIC).is_empty());
}

#[test]
fn l2_fires_on_partial_cmp_ordering() {
    let src = include_str!("../fixtures/l2_nan_ordering.rs");
    let r = lint_source("crates/core/src/fixture.rs", src);
    let lines = rule_lines(&r.findings, RULE_NAN_ORDERING);
    // broken_sort, broken_min, broken_chain; fine_sort stays clean.
    assert_eq!(lines.len(), 3, "{:?}", r.findings);
}

#[test]
fn l3_fires_on_raw_name_literals() {
    let src = include_str!("../fixtures/l3_raw_obs_name.rs");
    let r = lint_source("crates/core/src/fixture.rs", src);
    let lines = rule_lines(&r.findings, RULE_OBS_NAMES);
    // counter, gauge, histogram_seconds, span, span!, Funnel::new,
    // stage — and none from fine_metrics.
    assert_eq!(lines.len(), 7, "{:?}", r.findings);
}

#[test]
fn l4_fires_only_in_cost_modeled_crates() {
    let src = include_str!("../fixtures/l4_unpriced_parallelism.rs");
    let r = lint_source("crates/core/src/fixture.rs", src);
    let lines = rule_lines(&r.findings, RULE_UNPRICED_PARALLELISM);
    // broken_pool and broken_fan_out flagged; priced_pool charges compute
    // and priced_fan_out hands the fan-out's helper CPU on: both clean.
    assert_eq!(lines.len(), 2, "{:?}", r.findings);
    // Outside the cost-modeled crates the rule is silent.
    let r = lint_source("crates/baselines/src/fixture.rs", src);
    assert!(rule_lines(&r.findings, RULE_UNPRICED_PARALLELISM).is_empty());
}

/// The L6/L7 fixtures are checked against the REAL rank registry so
/// fixture consts can never drift from `dita_obs::sync::locks`.
fn real_rank_table() -> dita_lint::concurrency::RankTable {
    let table = parse_rank_table(include_str!("../../obs/src/sync.rs"));
    assert!(table.locks.len() >= 11, "rank registry parse broke");
    table
}

fn concurrency_findings(fixture: &str) -> Vec<dita_lint::Finding> {
    check_files(
        &real_rank_table(),
        &[(
            "crates/server/src/fixture.rs".to_string(),
            fixture.to_string(),
        )],
    )
}

#[test]
fn l6_fires_on_inverted_order_call_edges_and_raw_construction() {
    let f = concurrency_findings(include_str!("../fixtures/l6_lock_order.rs"));
    let lines = rule_lines(&f, RULE_LOCK_ORDER);
    // inverted, inverted_via_call, unranked raw construction; the
    // ascending / drop-released / block-scoped functions stay clean.
    assert_eq!(lines.len(), 3, "{f:?}");
    assert!(rule_lines(&f, RULE_BLOCKING_UNDER_LOCK).is_empty(), "{f:?}");
    assert!(
        f.iter()
            .any(|x| x.message.contains("`takes_engine` acquires")),
        "call-edge finding missing: {f:?}"
    );
    assert!(
        f.iter().any(|x| x.message.contains("raw `Mutex::new`")),
        "raw-construction finding missing: {f:?}"
    );
}

#[test]
fn l7_fires_on_blocking_under_live_guards() {
    let f = concurrency_findings(include_str!("../fixtures/l7_blocking_under_lock.rs"));
    let lines = rule_lines(&f, RULE_BLOCKING_UNDER_LOCK);
    // sleep, recv, join, read+write_all, unbounded wait; the scoped
    // and bounded-wait functions stay clean.
    assert_eq!(lines.len(), 6, "{f:?}");
    assert!(rule_lines(&f, RULE_LOCK_ORDER).is_empty(), "{f:?}");
}

#[test]
fn allow_comments_suppress_with_reason() {
    let src = include_str!("../fixtures/allow_clean.rs");
    let r = lint_source("crates/core/src/fixture.rs", src);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.allowed, 2);
}
