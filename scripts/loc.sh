#!/usr/bin/env bash
# Net Rust lines of a change — the "net lines removed" number ROADMAP aim 2
# asks every simplicity PR to state, computed the same way each time.
#
#   scripts/loc.sh <parent-ref>
#
# Compares <parent-ref> with the working tree (tracked changes and files
# git does not track yet) over every `*.rs` file and prints lines added,
# removed and net, in three buckets: `crates/*/src` (unit-test modules
# included — they live in the same files), tests and benches
# (`crates/*/{tests,benches}`, `tests/`, `benches/`), and any other Rust
# (`src/`, `examples/`, `benchmark/`). Blank lines and comment-only lines
# (`//`, `///`, `//!`) are not counted on either side.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  sed -n '2,13p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi

{
  git diff --no-color --no-ext-diff -U0 "$1" -- '*.rs'
  # A file git does not track yet is all additions.
  git ls-files -z --others --exclude-standard -- '*.rs' |
    while IFS= read -r -d '' f; do
      printf 'diff --git a/%s b/%s\n+++ b/%s\n@@\n' "$f" "$f" "$f"
      sed 's/^/+/' "$f"
    done
} | awk '
  /^diff --git /          { header = 1; next }
  header && /^--- a\//    { file = substr($0, 7); next }
  header && /^\+\+\+ b\// { file = substr($0, 7); next }
  header && /^@@/         { header = 0; next }
  header                  { next }
  /^[-+]/ {
    text = substr($0, 2)
    sub(/^[ \t]+/, "", text)
    if (text == "" || text ~ /^\/\//) next
    if (file ~ /^crates\/[^\/]+\/src\//) b = 1
    else if (file ~ /^(crates\/[^\/]+\/(tests|benches)|tests|benches)\//) b = 2
    else b = 3
    if (substr($0, 1, 1) == "+") added[b]++; else removed[b]++
  }
  END {
    name[1] = "crates/*/src"; name[2] = "tests and benches"; name[3] = "other Rust"
    for (b = 1; b <= 3; b++)
      printf "%-18s +%-5d -%-5d net %+d\n", name[b], added[b], removed[b], added[b] - removed[b]
  }'
