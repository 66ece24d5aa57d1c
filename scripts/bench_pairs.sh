#!/usr/bin/env bash
# Run the benchmark on a git revision and on the working tree in alternating
# pairs, and summarise the end-to-end metrics of both.
#
#   scripts/bench_pairs.sh <rev> <workload> [pairs]
#
# Unpacks <rev> with `git archive` and copies the working tree's src/,
# perfbench/, problems/ and BENCHMARK.json, each into its own temporary
# directory.  The copy leaves out __pycache__ directories, which the archive
# never has, so where bytecode is written both sides compile it alike.  For
# seeds 1 to <pairs> (10 by default) it runs
#
#   python3 perfbench/run.py --workload <workload> --seed <n> --seconds 12 --trace 0
#
# in both trees, <rev> first on odd seeds and the working tree first on even
# seeds.  run.py's progress goes to standard error.  Standard output is one
# JSON object, ready for a BENCH_<n>.json: for each end-to-end metric, the
# runs of both sides in seed order, their medians and inclusive quartiles,
# the distance between the quartiles of <rev>'s runs (parent_iqr), the
# number of pairs in which the working tree reads lower, better (by the
# metric's direction in BENCHMARK.json) or the same, and the ratio of the
# medians; also the operations attempted and failed on each side and
# whether every run's checks passed.  Values are printed to 4 decimals; the
# pair counts compare the unrounded values.
set -euo pipefail

usage="usage: scripts/bench_pairs.sh <rev> <workload> [pairs]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
tar -C "$root" --exclude=__pycache__ -c src perfbench problems BENCHMARK.json | tar -x -C "$tmp/change"

# run <side> <seed>: append run.py's result line to <side>.jsonl
run() {
  (cd "$tmp/$1" && python3 perfbench/run.py --workload "$workload" --seed "$2" --seconds 12 --trace 0) |
    tail -n 1 >>"$tmp/$1.jsonl"
}

for seed in $(seq 1 "$pairs"); do
  if ((seed % 2)); then
    run parent "$seed"
    run change "$seed"
  else
    run change "$seed"
    run parent "$seed"
  fi
done

python3 - "$tmp" "$rev" "$workload" "$pairs" <<'EOF'
import json, statistics, sys

tmp, rev, workload, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
runs = {side: [json.loads(line) for line in open(f"{tmp}/{side}.jsonl")] for side in ("parent", "change")}
better = {m["name"]: m["better"] for m in json.load(open(f"{tmp}/change/BENCHMARK.json"))["end_to_end"]}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": [round(v, 4) for v in values]}


out = {
    "rev": rev,
    "workload": workload,
    "command": f"python3 perfbench/run.py --workload {workload} --seed <n> --seconds 12 --trace 0",
    "seeds": list(range(1, pairs + 1)),
    "order": "parent first on odd seeds, change first on even seeds",
    "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
    "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
    "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
}
for name, direction in better.items():
    parent, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in ("parent", "change"))
    lower = sum(c < p for p, c in zip(parent, change))
    tied = sum(c == p for p, c in zip(parent, change))
    entry = {"parent": summary(parent), "change": summary(change)}
    entry["pairs_change_lower"] = lower
    entry["pairs_change_better"] = lower if direction == "lower" else pairs - lower - tied
    entry["pairs_tied"] = tied
    entry["parent_iqr"] = round(entry["parent"]["q3"] - entry["parent"]["q1"], 4)
    pm, cm = statistics.median(parent), statistics.median(change)
    entry["change_over_parent"] = round(cm / pm, 4) if pm else None
    out[name] = entry
print(json.dumps(out, indent=1))
EOF
