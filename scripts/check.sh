#!/usr/bin/env bash
# The local CI gate: formatting, release build, full test suite, clippy
# clean, dita-lint clean. Run before every push.
#
#   scripts/check.sh [parent-ref]
#
# Given a parent ref it ends with the change's net Rust lines
# (scripts/loc.sh), the number a CHANGES.md entry quotes.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
# Dev-profile tests compile with debug_assertions, so the ranked-lock
# layer's per-thread rank checks are live for the whole suite; the
# rank_canary_matches_build_profile test (crates/obs/tests/
# lock_stress.rs) fails the run if that ever stops being true.
cargo test -q
# One table of experiments: the ids `exp --list` prints and the ids in the
# last column of DESIGN.md §4's table must be the same 17, so a figure cannot
# be added to one and not the other.
diff <(cargo run --release --quiet -p dita-bench --bin exp -- --list | sort) \
  <(sed -n '/^## 4\./,/^## 5\./p' DESIGN.md | grep '^|' | grep -o '`exp [a-z0-9_]*`' \
      | tr -d '`' | cut -d' ' -f2 | sort -u)
# The benchmark is a package of its own outside the workspace, so the line
# above does not reach it. Its contract test builds it against the measured
# crates (every name it imports must still compile), runs every workload's
# traced run with its correctness checks, and requires the exact work
# counters (nodes visited, members checked, candidates, bytes shipped) to
# repeat for a seed — so a refactor of the query path it measures is gated
# here. The stand-in config is the one the benchmark driver builds with;
# the committed benchmark/Cargo.lock matches it.
cargo test --release --offline --config benchmark/offline/config.toml \
  --manifest-path benchmark/Cargo.toml
cargo bench --no-run
cargo clippy --workspace --all-targets -- -D warnings

# Workspace-specific invariants (STATIC_ANALYSIS.md): worker panics,
# NaN-unsafe float ordering, obs-name registry sync, cost-model
# charge-back, transfer pricing, lock-rank order and blocking-under-
# lock hygiene (incl. the CONCURRENCY.md rank-table sync). The JSON
# report (schema dita-lint/v1) is written via --out so it lands next to
# the other artifacts even when the gate fails; the scan itself is
# budgeted under 5 seconds and reports its runtime in the JSON.
mkdir -p results
cargo run -p dita-lint --release --quiet -- --workspace --deny --out results/lint.json

# End-to-end observability smoke: runs an instrumented search/join/kNN,
# self-validates the span hierarchy, funnel consistency and per-op
# critical-path attribution (~100%), and refreshes the checked-in
# artifact the critpath golden test pins.
scripts/profile_smoke.sh results/PROFILE_SMOKE.json > /dev/null
if [ $# -ge 1 ]; then
  scripts/loc.sh "$1"
fi
echo "check.sh: all green"
