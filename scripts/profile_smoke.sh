#!/usr/bin/env bash
# Runs the instrumented profile smoke (see OBSERVABILITY.md): a tiny search,
# join and kNN probe with tracing on. The binary self-validates its span
# tree, funnel consistency and per-operation critical-path attribution
# (class percentages must sum to ~100%); this script additionally checks
# the JSON export is non-empty and parseable.
#
# Usage: scripts/profile_smoke.sh [artifact-path]
# Without a path the report goes to a temp file and is discarded; with one
# (check.sh passes results/PROFILE_SMOKE.json) the artifact is kept, which
# is what the critpath golden test pins.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ge 1 ]; then
    out="$1"
else
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' EXIT
    out="$tmpdir/profile_smoke.json"
fi

cargo run --release -p dita-bench --bin profile_smoke -- "$out"

[ -s "$out" ] || { echo "profile_smoke.sh: empty JSON report" >&2; exit 1; }
# The binary already parsed its report back with dita_obs::json; this is the
# one reading of that writer's output by a parser that is not its own.
python3 -m json.tool "$out" > /dev/null
grep -q '"dita-obs/v1"' "$out" || {
    echo "profile_smoke.sh: missing schema tag" >&2; exit 1;
}
grep -q '"dita-obs/critpath/v1"' "$out" || {
    echo "profile_smoke.sh: missing critical-path section" >&2; exit 1;
}
echo "profile_smoke.sh: all green ($out valid)"
