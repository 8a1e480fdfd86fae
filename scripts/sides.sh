# Sourced by scripts/ab.sh and scripts/counters.sh (not run on its own):
# parent and change side by side, outside the repository.
#
#   parent_ref=<git ref>; source scripts/sides.sh
#
# Copies both sides into fresh sibling directories under a temporary
# directory (the parent from `git archive $parent_ref`, the change from the
# working tree's tracked and untracked-but-not-ignored files) and builds
# them there with BENCHMARK.json's own command line. Nothing is written
# into the repository; the temporary directory (honours TMPDIR) is removed
# on exit. Leaves behind: $work, $seconds (BENCHMARK.json's `run_seconds`)
# and `bench <parent|change> <benchmark args...>`.
work=$(mktemp -d "${TMPDIR:-/tmp}/dita-sides.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/change"
git archive "$parent_ref" | tar -x -C "$work/parent"
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
  tar -c --null -T - | tar -x -C "$work/change"

# The driver's command line and run length (the same on both sides: a
# change that claims a gain may not edit BENCHMARK.json).
mapfile -t cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
bench() { # <side> <benchmark args...>
  (cd "$work/$1" && CARGO_TARGET_DIR="$work/target-$1" "${cmd[@]}" "${@:2}")
}

echo "building parent ($parent_ref) and change (working tree) ..." >&2
bench parent --list >/dev/null
bench change --list >/dev/null
