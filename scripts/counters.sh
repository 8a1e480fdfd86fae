#!/usr/bin/env bash
# Exact work counters of the traced run, parent beside change — the gate a
# change to the query path is held to on this host (ROADMAP aim 1: counts
# repeat per seed, wall-clock does not).
#
#   scripts/counters.sh <parent-ref> [workload...]     (default: all four)
#
# Both sides are copied out of the repository and built by
# scripts/sides.sh. Each workload gets one `--trace 1 --seed 1` run a side;
# every per-layer metric that `--list` marks `exact` is printed side by
# side, with the runs' `correct`/`failed`. Exits non-zero when a counter
# differs, a run is incorrect or an operation failed.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  sed -n '2,12p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent_ref=$1
shift
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

python3 - "$work" "$parent_ref" "${workloads[@]}" <<'EOF2'
import json, sys

work, parent_ref, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
exact = open(f"{work}/exact").read().split()
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
        mark = "" if p == c else "   <-- differs"
        differs |= p != c
        print(f"  {name:40} {p:18.6f} {c:18.6f}{mark}")
print("\ncounters differ" if differs else "\ncounters identical")
sys.exit(1 if differs else 0)
EOF2
