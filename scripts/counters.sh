#!/usr/bin/env bash
# Exact work counters of the traced run, parent beside change — the gate a
# change to the query path is held to on this host (ROADMAP aim 1: counts
# repeat per seed, wall-clock does not).
#
#   scripts/counters.sh <parent-ref> [--expect <metric>]... [workload...]
#                                                      (default: all four)
#
# Both sides are copied out of the repository and built by
# scripts/sides.sh. Each workload gets one `--trace 1 --seed 1` run a side;
# every per-layer metric that `--list` marks `exact` is printed side by
# side, with the runs' `correct`/`failed`. Exits non-zero when a counter
# differs, a run is incorrect or an operation failed.
#
# `--expect <metric>` (repeatable) names an exact counter the change moves
# by design: it must then differ on at least one of the workloads run, and
# every counter not named must still be identical everywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent_ref=$1
shift
expected=()
while [ "${1:-}" = "--expect" ]; do
  [ $# -ge 2 ] || { echo "--expect needs a metric name" >&2; exit 2; }
  expected+=("$2")
  shift 2
done
if [ $# -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

source scripts/sides.sh

bench change --list | awk '$1 == "per_layer" && $NF == "exact" { print $2 }' >"$work/exact"
for workload in "${workloads[@]}"; do
  for side in parent change; do
    bench "$side" --workload "$workload" --seed 1 --seconds "$seconds" --trace 1 \
      2>"$work/$side.$workload.err" | tail -n 1 >"$work/$side.$workload.json" ||
      { echo "$workload: the $side run failed:" >&2; tail -n 20 "$work/$side.$workload.err" >&2; exit 1; }
    echo "$workload: $side done" >&2
  done
done

(IFS=,; echo "${expected[*]:-}") >"$work/expected"
python3 - "$work" "$parent_ref" "${workloads[@]}" <<'EOF2'
import json, sys

work, parent_ref, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
exact = open(f"{work}/exact").read().split()
expected = {m: False for m in open(f"{work}/expected").read().strip().split(",") if m}
unknown = sorted(set(expected) - set(exact))
if unknown:
    sys.exit(f"--expect: not an exact counter: {', '.join(unknown)}")
differs = False
for workload in workloads:
    runs = {s: json.load(open(f"{work}/{s}.{workload}.json")) for s in ("parent", "change")}
    print(f"\n{workload}, seed 1, traced run: parent = {parent_ref}, change = working tree")
    for side, r in runs.items():
        print(f"  {side}: correct {r['correct']}, {r['failed']} of {r['attempted']} operations failed")
        differs |= not r["correct"] or r["failed"] > 0
    print(f"  {'metric':40} {'parent':>18} {'change':>18}")
    for name in exact:
        p, c = (runs[s]["metrics"][name]["value"] for s in ("parent", "change"))
        mark = ""
        if p != c and name in expected:
            mark = "   <-- differs, as expected"
            expected[name] = True
        elif p != c:
            mark = "   <-- differs"
            differs = True
        print(f"  {name:40} {p:18.6f} {c:18.6f}{mark}")
unmoved = sorted(m for m, moved in expected.items() if not moved)
if unmoved:
    print(f"\nexpected to differ, identical everywhere: {', '.join(unmoved)}")
if differs:
    print("\ncounters differ")
elif expected and not unmoved:
    print("\ncounters identical but for the expected ones")
elif not unmoved:
    print("\ncounters identical")
sys.exit(1 if differs or unmoved else 0)
EOF2
