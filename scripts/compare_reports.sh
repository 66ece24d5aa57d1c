#!/usr/bin/env bash
# Compare the program's outputs at a git revision with the working tree.
#
#   scripts/compare_reports.sh <rev>
#
# Unpacks <rev> with `git archive` into a temporary directory and runs the
# same commands on both source trees:
#   - `analyze --best --reproducible` and `riccati-check` on every
#     problems/*.json;
#   - `analyze --solve-rho t0=0.5,rho0=-2.546 --reproducible` on exeq04, and
#     `analyze --solve-rho t0=0.5,rho0=-2 --best --reproducible` on exeq06,
#     whose real powers t^(-a) the Riccati right-hand side evaluates at one
#     point per step;
#   - `analyze --fast-path --reproducible` on const-i, const-ii and const-iii;
#   - `empirical --trials 4 --seed 7 --reproducible` on exeq01, exeq03,
#     exeq04 and exeq06 (report and .extremal.csv);
#   - `corpus run`;
#   - `analyze`, `empirical` and `riccati-check` on three bad-input
#     documents written to the temporary directory: an unbound parameter in
#     alpha, one in rho, and a bare "." as gamma.
# Each command's standard output, last line of standard error, exit status
# and written files land in one output directory per tree.  The script
# lists the files that differ and keeps both output directories for
# inspection; it exits 1 when any differ.
set -euo pipefail

rev=${1:?usage: scripts/compare_reports.sh <rev>}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/compare_reports.XXXXXX")
mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

# doc <alpha> <gamma> <rho>: exeq01's document with these three fields
doc() {
  printf '{"alpha": "%s", "beta": "2 - t", "gamma": "%s", "forcing": "0", "interval": {"lower": 0.0, "upper": 1.0}, "rho": "%s"}\n' "$@"
}
mkdir "$tmp/bad"
doc "a*t" "1" "-1/t" >"$tmp/bad/unbound-alpha.json"
doc "t*(1 - t)" "1" "-b/t" >"$tmp/bad/unbound-rho.json"
doc "t*(1 - t)" "." "-1/t" >"$tmp/bad/bare-dot.json"

# run <tree> <out dir> <name> <cli args...>: stdout to <name>.out, the last
# stderr line to <name>.err (a structured error or a traceback's last line),
# status to <name>.exit
run() {
  local tree=$1 out=$2 name=$3 status=0
  shift 3
  (cd "$out" && PYTHONPATH="$tree/src" python3 -m ulamstab.cli "$@" >"$name.out" 2>"$name.stderr") || status=$?
  echo "$status" >"$out/$name.exit"
  tail -n 1 "$out/$name.stderr" >"$out/$name.err"
  rm "$out/$name.stderr"
}

contract() {
  local tree=$1 out=$2 p stem
  mkdir -p "$out"
  for p in "$tree"/problems/*.json; do
    stem=$(basename "$p" .json)
    run "$tree" "$out" "analyze.$stem" analyze "$p" --best --reproducible
    run "$tree" "$out" "riccati-check.$stem" riccati-check "$p"
  done
  run "$tree" "$out" solve-rho.exeq04 analyze "$tree/problems/exeq04.json" \
    --solve-rho t0=0.5,rho0=-2.546 --reproducible
  run "$tree" "$out" solve-rho.exeq06 analyze "$tree/problems/exeq06.json" \
    --solve-rho t0=0.5,rho0=-2 --best --reproducible
  for stem in const-i const-ii const-iii; do
    run "$tree" "$out" "fast-path.$stem" analyze "$tree/problems/$stem.json" --fast-path --reproducible
  done
  for stem in exeq01 exeq03 exeq04 exeq06; do
    run "$tree" "$out" "empirical.$stem" empirical "$tree/problems/$stem.json" \
      --trials 4 --seed 7 --reproducible --out "$out/empirical"
  done
  run "$tree" "$out" corpus corpus run
  for p in "$tmp"/bad/*.json; do
    stem=$(basename "$p" .json)
    for cmd in analyze empirical riccati-check; do
      run "$tree" "$out" "$cmd.bad-$stem" "$cmd" "$p"
    done
  done
}

contract "$tmp/base" "$tmp/out-base"
contract "$root" "$tmp/out-worktree"
rm -rf "$tmp/base" "$tmp/bad"

echo "outputs of $rev and of the working tree: $tmp/out-base, $tmp/out-worktree" >&2
cd "$tmp"
if diff -rq out-base out-worktree; then
  echo "no file differs"
else
  exit 1
fi
