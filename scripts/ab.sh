#!/usr/bin/env bash
# Interleaved parent/change A/B of one benchmark workload — the rule a perf
# claim is held to (choosing-metrics guide §8): at least ten pairs,
# alternating which side runs first; the change must win nine tenths of
# the pairs (ties count for neither) and move the median by more than the
# distance between the parent's own quartiles.
#
#   scripts/ab.sh <parent-ref> <workload> [pairs=10] [seed=1]
#
# Both sides are copied out of the repository and built by
# scripts/sides.sh (fresh directories under TMPDIR, BENCHMARK.json's own
# command line and `run_seconds`, nothing written into the repository).
# Prints every run, then per end-to-end metric each side's median and
# quartiles, the pair wins, the parent's quartile distance, and the
# verdict against the metric's bound.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
  sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
seed=${4:-1}

source scripts/sides.sh

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order="parent change"; else order="change parent"; fi
  for side in $order; do
    bench "$side" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
      2>"$work/$side.$i.err" | tail -n 1 >>"$work/$side.jsonl" ||
      { echo "pair $i: the $side run failed:" >&2; tail -n 20 "$work/$side.$i.err" >&2; exit 1; }
    echo "pair $i/$pairs: $side done" >&2
  done
done

python3 - "$work" "$workload" "$seed" "$parent_ref" <<'EOF'
import json, statistics, sys

work, workload, seed, parent_ref = sys.argv[1:5]
spec = json.load(open("BENCHMARK.json"))
runs = {
    side: [json.loads(line) for line in open(f"{work}/{side}.jsonl")]
    for side in ("parent", "change")
}
pairs = len(runs["parent"])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"workload {workload}, seed {seed}, {pairs} pairs, parent = {parent_ref}")
for side in ("parent", "change"):
    bad = [i + 1 for i, r in enumerate(runs[side]) if not r["correct"]]
    attempted = sum(r["attempted"] for r in runs[side])
    failed = sum(r["failed"] for r in runs[side])
    print(f"  {side}: {failed} of {attempted} operations failed; incorrect runs: {bad or 'none'}")

for m in spec["end_to_end"]:
    name, better, bound = m["name"], m["better"], m["bound"]
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    losses = sum(sign * (b - a) < 0 for a, b in zip(p, c))
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    iqr = pq3 - pq1
    gain = sign * (cmed - pmed)
    rel = gain / abs(pmed) if pmed else 0.0
    if wins * 10 >= 9 * pairs and gain > iqr:
        verdict = "GAIN (>= 9/10 pairs, median moved by more than the parent's quartile distance)"
        if pairs < 10:
            verdict += " -- but fewer than ten pairs make no claim"
    elif rel < -bound:
        verdict = f"REGRESSION beyond the bound {bound}"
    elif iqr > bound * abs(pmed):
        verdict = f"unresolved (parent spread wider than the bound {bound})"
    else:
        verdict = f"no regression (bound {bound})"
    print(f"\n{name} [{m['unit']}, {better} is better]")
    print(f"  parent  median {pmed:.6g}  quartiles {pq1:.6g} .. {pq3:.6g}  (distance {iqr:.4g})")
    print(f"  change  median {cmed:.6g}  quartiles {cq1:.6g} .. {cq3:.6g}")
    print(f"  change better in {wins}/{pairs} pairs, worse in {losses}; median {'better' if gain >= 0 else 'worse'} by {abs(rel):.1%}")
    print(f"  {verdict}")
    print("  runs parent: " + " ".join(f"{x:.5g}" for x in p))
    print("  runs change: " + " ".join(f"{x:.5g}" for x in c))
EOF
