#!/usr/bin/env bash
# Compare the program's outputs at a git revision with the working tree.
#
#   scripts/compare_reports.sh <rev>
#
# Unpacks <rev> with `git archive` into a temporary directory and runs the
# same commands on both source trees:
#   - `analyze --best --reproducible` and `riccati-check` on every
#     problems/*.json;
#   - the numeric companion rho = x'/x of `--solve-rho`:
#     `analyze --solve-rho t0=0.5,rho0=-2.546 --reproducible` on exeq04;
#     `analyze --solve-rho t0=0.5,rho0=-2 --best --reproducible` on exeq06,
#     whose coefficients are real powers t^(-a), and on exeq01;
#     `riccati-check --solve-rho t0=0.5,rho0=-2` on exeq01; and both
#     commands on a blow-up document (alpha 1, beta 0, gamma 1 on (0, 2),
#     `--solve-rho t0=0.5,rho0=-0.5463024898437905`, which is -tan 0.5), whose
#     rho = -tan(t) has its pole at pi/2, where x = cos(t)/cos(0.5) vanishes;
#     `analyze --solve-rho t0=0.5,rho0=1e25 --best --reproducible` on
#     exeq01, whose x vanishes within an ulp below t0; and `riccati-check
#     --solve-rho t0=0.5,rho0=-1` on a beta-pole document (alpha 1, beta
#     1/(t - 0.75), gamma 1 on (0, 1)), whose upper side collocation does
#     not resolve, so coverage ends short of 0.75;
#   - `riccati-check` and `analyze --best --reproducible` on a whole-line
#     document (alpha 1, beta 0, gamma 1/16, forcing 0, rho -tan(t/4)/4 on
#     (-inf, inf)), where x = cos(t/4) and rho's poles at -2 pi and 2 pi lie
#     beyond the first coverage window's reach on both sides, so coverage
#     evaluates the rest of both sides' grids (exeq05's pole at pi/2 lies
#     within that reach);
#   - `analyze --fast-path --reproducible` on const-i, const-ii and const-iii;
#   - `analyze --best --reproducible` and `empirical --trials 4 --seed 7
#     --reproducible` on const-iii over (-inf, inf), whose caches end at
#     the cumulative integral's budget;
#   - `analyze --tol 1e-8 --best --reproducible` on exeq01 and const-iii;
#   - `analyze --best --reproducible` and `empirical --trials 8 --seed 7
#     --reproducible` on a complex constant-coefficient problem (gamma
#     2.25 - 0.5i, rho -2 - 0.5i, roots -1 + 0.5i and -2 - 0.5i on
#     (-40, 40)), whose exponent caches are complex and whose extremal
#     member and trials take complex nearest-solution fits (report and
#     .extremal.csv), and `analyze --solve-rho t0=0,rho0=-2 --reproducible`
#     and `riccati-check --solve-rho t0=0,rho0=-2` on it, whose collocation
#     panels are complex;
#   - `analyze --best --reproducible` on exeq01 moved to (1000, 1001), with
#     B = 1/2 as on (0, 1): there ulp(t) is 1,024 times its size just below
#     t = 1, so the resolution floor of the bisection acts on every panel
#     next to either singular end;
#   - `analyze --reproducible` on exeq05 with its witness written around a
#     parameter k = 2 and a term (-0)*cos(t):
#     eps/(8*t)*(cos(t) + k*t*sin(t) - k*t^2*cos(t)) + (-0)*cos(t).  The
#     probe compiles the witness and its two derivatives, which hold a
#     parameter, repeated subtrees and a negative-zero constant subtree;
#   - `analyze --reproducible` on an alpha-zero document with a witness
#     (alpha t - 3, beta 2/t, gamma 0, forcing -1 on (1, inf), rho -1/t,
#     witness (eps - 1)*t^2/6): the probe's collocation resolves the side
#     below t0 = 2 and not the one above, where alpha vanishes at t = 3, so
#     its `instability.error` names the per-side panel budget and the t of
#     the first unresolved side;
#   - `empirical --trials 4 --seed 7 --reproducible` on exeq01, exeq03,
#     exeq04 and exeq06, on exeq03 moved to (1e5, 1e5 + 1), where the
#     caches and the experiment grid must still cover each other, and on
#     exeq03 multiplied through by -1 (alpha -1, beta -2/t, forcing 1),
#     whose unit forcing's first cache is built adaptively, not taken from
#     A4, and whose extremal perturbation is the constant sign(alpha) = -1,
#     so that its extremal ratio is exeq03's B = 1/6 (report and
#     .extremal.csv);
#   - `empirical --trials 4 --seed 7 --reproducible` at large epsilon:
#     `--epsilon 3e6` on exeq01, `--epsilon 1e308` on exeq03 and on the
#     complex constant-coefficient document.  The experiments run at unit
#     scale, so the ratios are those of epsilon = 0.1 and only the reported
#     distances, coefficients and .extremal.csv values scale;
#   - `analyze --best --reproducible` and `empirical --trials 4 --seed 7
#     --reproducible` on two documents whose alpha = t^2 vanishes only at
#     t = 0, the anchor of their symmetric interval, which the probe grid
#     misses: beta 1, rho 1/(1 + t^2) on (-5, 5) and beta 1, rho -2 on
#     (-inf, inf), each with gamma = -(alpha (rho' + rho^2) + beta rho); the
#     problem check reports the alpha_zero violation at t = 0;
#   - `analyze --best --reproducible`, `analyze --fast-path --reproducible`,
#     `empirical --trials 4 --seed 7 --reproducible` and `riccati-check` on
#     const-iii moved to (-1.7e308, 1.7e308), two finite ends whose
#     difference overflows, which the problem input check rejects;
#   - `analyze --best --reproducible` on an oscillating document (alpha 1,
#     beta 3 + 0.5 cos(t), gamma 2 + cos(t), forcing 0, rho -2 on
#     (0, inf)), where the cumulative integral closes Pc's upper side at its
#     budget while later roots of that side are still being bisected;
#   - `analyze`, `empirical --trials 4 --seed 7 --reproducible` and
#     `riccati-check` on const-iii moved to (2e8, inf) and to (-inf, -2e8),
#     whose finite end lies beyond `quad.RANGE_CAP`, where the coverage of
#     an infinite side ends, which the problem input check rejects;
#   - `analyze --best --reproducible` on the twelve documents of the
#     benchmark's `closed-form-sweep` workload for each of seeds 1, 2 and 3
#     (seeded exeq03, exeq04, exeq06 and constant-coefficient problems),
#     written by importing perfbench/workloads.py;
#   - `corpus run`;
#   - `analyze`, `empirical` and `riccati-check` on seven bad-input
#     documents written to the temporary directory: an unbound parameter in
#     alpha, one in rho, and a bare "." as gamma; and four that the problem
#     schema rejects, whose `schema` error lines compare the two trees'
#     schema checks: an unknown key `tolerances`, no `alpha`, an empty
#     `beta`, and an interval lower end of "minus-inf".  Each runs once as
#     it is, and under `analyze` and `empirical` once more with `--tol nan`.
# Every command runs under a 2 GiB address-space limit (`ulimit -v`), so a
# tree whose bisection does not stop fails instead of filling memory.
# Each command's standard output, last line of standard error, exit status
# and written files land in one output directory per tree.  The script
# lists the files that differ and keeps both output directories for
# inspection; it exits 1 when any differ.  For each differing pair that
# parses as JSON or CSV it also prints the largest relative change of a
# numeric field found in both, with that field's path, and the paths found
# in only one of them.  Fields named error_bound, integrand_calls and
# integrand_points are left out of that maximum: error bounds are
# rounding-level estimates that move with any last-bit change, and the
# other two count work, not results.  For each of the three names it prints
# instead how many such fields moved.
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
# schema-bad: exeq01's document with one fault each
printf '{"alpha": "t*(1 - t)", "beta": "2 - t", "gamma": "1", "interval": {"lower": 0.0, "upper": 1.0}, "rho": "-1/t", "tolerances": {"tail_k": 0}}\n' \
  >"$tmp/bad/schema-tolerances.json"
printf '{"beta": "2 - t", "gamma": "1", "interval": {"lower": 0.0, "upper": 1.0}, "rho": "-1/t"}\n' \
  >"$tmp/bad/schema-no-alpha.json"
printf '{"alpha": "t*(1 - t)", "beta": "", "gamma": "1", "interval": {"lower": 0.0, "upper": 1.0}, "rho": "-1/t"}\n' \
  >"$tmp/bad/schema-empty-beta.json"
printf '{"alpha": "t*(1 - t)", "beta": "2 - t", "gamma": "1", "interval": {"lower": "minus-inf", "upper": 1.0}, "rho": "-1/t"}\n' \
  >"$tmp/bad/schema-minus-inf.json"
# exeq03 on (1e5, 1e5 + 1), with B = 1/6 as on (0, 1)
printf '{"name": "exeq03-at-1e5", "alpha": "1", "beta": "2/(t - 100000)", "gamma": "0", "forcing": "-1", "interval": {"lower": 100000.0, "upper": 100001.0}, "rho": "-1/(t - 100000)"}\n' \
  >"$tmp/exeq03-at-1e5.json"
# exeq03 times -1: alpha = -1 < 0, the same solutions and B = 1/6
printf '{"name": "exeq03-negated", "alpha": "-1", "beta": "-2/t", "gamma": "0", "forcing": "1", "interval": {"lower": 0.0, "upper": 1.0}, "rho": "-1/t"}\n' \
  >"$tmp/exeq03-negated.json"
# exeq01 on (1000, 1001), with B = 1/2 as on (0, 1)
printf '{"name": "exeq01-at-1e3", "alpha": "(t - 1000)*(1001 - t)", "beta": "2 - (t - 1000)", "gamma": "1", "forcing": "0", "interval": {"lower": 1000.0, "upper": 1001.0}, "rho": "-1/(t - 1000)"}\n' \
  >"$tmp/exeq01-at-1e3.json"
# exeq05 with a witness that holds a parameter, repeated subtrees and a -0
printf '{"name": "exeq05-witness-k", "alpha": "1", "beta": "2/t", "gamma": "1", "forcing": "0", "interval": {"lower": 0.0, "upper": "inf"}, "rho": "-tan(t) - 1/t", "params": {"k": 2.0}, "witness": "eps/(8*t)*(cos(t) + k*t*sin(t) - k*t^2*cos(t)) + (-0)*cos(t)"}\n' \
  >"$tmp/exeq05-witness-k.json"
# exeq02 with alpha = t - 3: the probe's upper side runs into the zero of alpha at t = 3
printf '{"name": "alpha-zero", "alpha": "t - 3", "beta": "2/t", "gamma": "0", "forcing": "-1", "interval": {"lower": 1.0, "upper": "inf"}, "rho": "-1/t", "witness": "(eps - 1)*t^2/6"}\n' \
  >"$tmp/alpha-zero.json"
# rho' + rho^2 + 1 = 0 with no rho: --solve-rho from -tan(0.5) meets the pole of -tan(t) at pi/2
printf '{"name": "tan-pole", "alpha": "1", "beta": "0", "gamma": "1", "forcing": "0", "interval": {"lower": 0.0, "upper": 2.0}}\n' \
  >"$tmp/tan-pole.json"
# alpha 1, beta 1/(t - 0.75), gamma 1: --solve-rho from t0 = 0.5 does not resolve x next to the pole of beta
printf '{"name": "beta-pole", "alpha": "1", "beta": "1/(t - 0.75)", "gamma": "1", "forcing": "0", "interval": {"lower": 0.0, "upper": 1.0}}\n' \
  >"$tmp/beta-pole.json"
# const-iii on the whole line
printf '{"name": "const-iii-line", "alpha": "1", "beta": "3", "gamma": "2", "forcing": "0", "interval": {"lower": "-inf", "upper": "inf"}, "rho": "-2"}\n' \
  >"$tmp/const-iii-line.json"
# x = cos(t/4) on the whole line: rho = -tan(t/4)/4 has its poles at -2 pi and 2 pi
printf '{"name": "tan-quarter-line", "alpha": "1", "beta": "0", "gamma": "1/16", "forcing": "0", "interval": {"lower": "-inf", "upper": "inf"}, "rho": "-tan(t/4)/4"}\n' \
  >"$tmp/tan-quarter-line.json"
# alpha = t^2 vanishes at t = 0, the anchor of a symmetric interval, which the probe grid misses
printf '{"name": "alpha-at-anchor", "alpha": "t^2", "beta": "1", "gamma": "-(t^2*(-2*t/(1 + t^2)^2 + 1/(1 + t^2)^2) + 1/(1 + t^2))", "forcing": "0", "interval": {"lower": -5.0, "upper": 5.0}, "rho": "1/(1 + t^2)"}\n' \
  >"$tmp/alpha-at-anchor.json"
printf '{"name": "alpha-at-anchor-line", "alpha": "t^2", "beta": "1", "gamma": "2 - 4*t^2", "forcing": "0", "interval": {"lower": "-inf", "upper": "inf"}, "rho": "-2"}\n' \
  >"$tmp/alpha-at-anchor-line.json"
# const-iii on (-1.7e308, 1.7e308): upper - lower overflows
printf '{"name": "const-iii-overflow", "alpha": "1", "beta": "3", "gamma": "2", "forcing": "0", "interval": {"lower": -1.7e308, "upper": 1.7e308}, "rho": "-2"}\n' \
  >"$tmp/const-iii-overflow.json"
# const-iii beyond RANGE_CAP: a finite end at or past 1e8 next to an infinite one
printf '{"name": "const-iii-far-right", "alpha": "1", "beta": "3", "gamma": "2", "forcing": "0", "interval": {"lower": 2e8, "upper": "inf"}, "rho": "-2"}\n' \
  >"$tmp/const-iii-far-right.json"
printf '{"name": "const-iii-far-left", "alpha": "1", "beta": "3", "gamma": "2", "forcing": "0", "interval": {"lower": "-inf", "upper": -2e8}, "rho": "-2"}\n' \
  >"$tmp/const-iii-far-left.json"
# an oscillating problem on (0, inf) with rho = -2: Pc's upper side closes at its budget mid-bisection
printf '{"name": "oscillating", "alpha": "1", "beta": "3 + 0.5*cos(t)", "gamma": "2 + cos(t)", "forcing": "0", "interval": {"lower": 0.0, "upper": "inf"}, "rho": "-2"}\n' \
  >"$tmp/oscillating.json"
# const-iii with complex gamma and rho: roots -1 + 0.5i and -2 - 0.5i, L = 1/2
printf '{"name": "const-iii-complex", "alpha": "1", "beta": "3", "gamma": "2.25 - 0.5*i", "forcing": "0", "interval": {"lower": -40.0, "upper": 40.0}, "rho": "-2 - 0.5*i"}\n' \
  >"$tmp/const-iii-complex.json"

# the closed-form-sweep documents of seeds 1 to 3, as the benchmark writes them
python3 - "$root/perfbench" "$tmp/sweep" <<'EOF'
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import workloads

for seed in (1, 2, 3):
    workloads.write_documents(workloads.operations("closed-form-sweep", seed), Path(sys.argv[2]) / f"seed{seed}")
EOF

# run <tree> <out dir> <name> <cli args...>: stdout to <name>.out, the last
# stderr line to <name>.err (a structured error or a traceback's last line),
# status to <name>.exit
run() {
  local tree=$1 out=$2 name=$3 status=0
  shift 3
  (ulimit -v 2097152 && cd "$out" && PYTHONPATH="$tree/src" python3 -m ulamstab.cli "$@" >"$name.out" 2>"$name.stderr") ||
    status=$?
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
  run "$tree" "$out" solve-rho.exeq01 analyze "$tree/problems/exeq01.json" \
    --solve-rho t0=0.5,rho0=-2 --best --reproducible
  run "$tree" "$out" solve-rho-check.exeq01 riccati-check "$tree/problems/exeq01.json" --solve-rho t0=0.5,rho0=-2
  run "$tree" "$out" solve-rho.tan-pole analyze "$tmp/tan-pole.json" \
    --solve-rho t0=0.5,rho0=-0.5463024898437905 --best --reproducible
  run "$tree" "$out" solve-rho-check.tan-pole riccati-check "$tmp/tan-pole.json" \
    --solve-rho t0=0.5,rho0=-0.5463024898437905
  run "$tree" "$out" solve-rho.exeq01-1e25 analyze "$tree/problems/exeq01.json" \
    --solve-rho t0=0.5,rho0=1e25 --best --reproducible
  run "$tree" "$out" solve-rho-check.beta-pole riccati-check "$tmp/beta-pole.json" --solve-rho t0=0.5,rho0=-1
  run "$tree" "$out" riccati-check.tan-quarter-line riccati-check "$tmp/tan-quarter-line.json"
  run "$tree" "$out" analyze.tan-quarter-line analyze "$tmp/tan-quarter-line.json" --best --reproducible
  for stem in const-i const-ii const-iii; do
    run "$tree" "$out" "fast-path.$stem" analyze "$tree/problems/$stem.json" --fast-path --reproducible
  done
  run "$tree" "$out" analyze.const-iii-line analyze "$tmp/const-iii-line.json" --best --reproducible
  run "$tree" "$out" empirical.const-iii-line empirical "$tmp/const-iii-line.json" \
    --trials 4 --seed 7 --reproducible --out "$out/empirical"
  for stem in exeq01 const-iii; do
    run "$tree" "$out" "tol.$stem" analyze "$tree/problems/$stem.json" --tol 1e-8 --best --reproducible
  done
  run "$tree" "$out" analyze.const-iii-complex analyze "$tmp/const-iii-complex.json" --best --reproducible
  run "$tree" "$out" empirical.const-iii-complex empirical "$tmp/const-iii-complex.json" \
    --trials 8 --seed 7 --reproducible --out "$out/empirical"
  run "$tree" "$out" solve-rho.const-iii-complex analyze "$tmp/const-iii-complex.json" \
    --solve-rho t0=0,rho0=-2 --reproducible
  run "$tree" "$out" solve-rho-check.const-iii-complex riccati-check "$tmp/const-iii-complex.json" --solve-rho t0=0,rho0=-2
  run "$tree" "$out" analyze.exeq01-at-1e3 analyze "$tmp/exeq01-at-1e3.json" --best --reproducible
  run "$tree" "$out" analyze.exeq05-witness-k analyze "$tmp/exeq05-witness-k.json" --reproducible
  run "$tree" "$out" analyze.alpha-zero analyze "$tmp/alpha-zero.json" --reproducible
  for stem in exeq01 exeq03 exeq04 exeq06; do
    run "$tree" "$out" "empirical.$stem" empirical "$tree/problems/$stem.json" \
      --trials 4 --seed 7 --reproducible --out "$out/empirical"
  done
  run "$tree" "$out" empirical.exeq03-at-1e5 empirical "$tmp/exeq03-at-1e5.json" \
    --trials 4 --seed 7 --reproducible --out "$out/empirical"
  run "$tree" "$out" empirical.exeq03-negated empirical "$tmp/exeq03-negated.json" \
    --trials 4 --seed 7 --reproducible --out "$out/empirical"
  run "$tree" "$out" empirical-eps.exeq01 empirical "$tree/problems/exeq01.json" \
    --epsilon 3e6 --trials 4 --seed 7 --reproducible --out "$out/empirical-eps"
  run "$tree" "$out" empirical-eps.exeq03 empirical "$tree/problems/exeq03.json" \
    --epsilon 1e308 --trials 4 --seed 7 --reproducible --out "$out/empirical-eps"
  run "$tree" "$out" empirical-eps.const-iii-complex empirical "$tmp/const-iii-complex.json" \
    --epsilon 1e308 --trials 4 --seed 7 --reproducible --out "$out/empirical-eps"
  for stem in alpha-at-anchor alpha-at-anchor-line; do
    run "$tree" "$out" "analyze.$stem" analyze "$tmp/$stem.json" --best --reproducible
    run "$tree" "$out" "empirical.$stem" empirical "$tmp/$stem.json" \
      --trials 4 --seed 7 --reproducible --out "$out/empirical"
  done
  run "$tree" "$out" analyze.const-iii-overflow analyze "$tmp/const-iii-overflow.json" --best --reproducible
  run "$tree" "$out" fast-path.const-iii-overflow analyze "$tmp/const-iii-overflow.json" --fast-path --reproducible
  run "$tree" "$out" empirical.const-iii-overflow empirical "$tmp/const-iii-overflow.json" \
    --trials 4 --seed 7 --reproducible --out "$out/empirical"
  run "$tree" "$out" riccati-check.const-iii-overflow riccati-check "$tmp/const-iii-overflow.json"
  run "$tree" "$out" analyze.oscillating analyze "$tmp/oscillating.json" --best --reproducible
  for stem in const-iii-far-right const-iii-far-left; do
    run "$tree" "$out" "analyze.$stem" analyze "$tmp/$stem.json"
    run "$tree" "$out" "empirical.$stem" empirical "$tmp/$stem.json" \
      --trials 4 --seed 7 --reproducible --out "$out/empirical"
    run "$tree" "$out" "riccati-check.$stem" riccati-check "$tmp/$stem.json"
  done
  for p in "$tmp"/sweep/seed*/*.json; do
    stem=$(basename "$(dirname "$p")").$(basename "$p" .json)
    run "$tree" "$out" "sweep.$stem" analyze "$p" --best --reproducible
  done
  run "$tree" "$out" corpus corpus run
  for p in "$tmp"/bad/*.json; do
    stem=$(basename "$p" .json)
    for cmd in analyze empirical riccati-check; do
      run "$tree" "$out" "$cmd.bad-$stem" "$cmd" "$p"
    done
    for cmd in analyze empirical; do
      run "$tree" "$out" "$cmd.bad-$stem.tol-nan" "$cmd" "$p" --tol nan
    done
  done
}

contract "$tmp/base" "$tmp/out-base"
contract "$root" "$tmp/out-worktree"
rm -rf "$tmp/base" "$tmp/bad" "$tmp/sweep" "$tmp/exeq03-at-1e5.json" "$tmp/exeq03-negated.json" "$tmp/exeq01-at-1e3.json" "$tmp/exeq05-witness-k.json" \
  "$tmp/alpha-zero.json" "$tmp/const-iii-complex.json" "$tmp/const-iii-overflow.json" "$tmp/tan-pole.json" \
  "$tmp/tan-quarter-line.json" "$tmp/beta-pole.json" "$tmp/const-iii-line.json" "$tmp/const-iii-far-right.json" \
  "$tmp/const-iii-far-left.json" "$tmp/oscillating.json" "$tmp/alpha-at-anchor.json" "$tmp/alpha-at-anchor-line.json"

echo "outputs of $rev and of the working tree: $tmp/out-base, $tmp/out-worktree" >&2
cd "$tmp"
if diff -rq out-base out-worktree; then
  echo "no file differs"
else
  diff -rq out-base out-worktree | sed -n 's/^Files out-base\/\(.*\) and .* differ$/\1/p' | python3 -c '
import csv, json, math, sys

# error estimates and work counters, counted apart from the largest change
APART = ("error_bound", "integrand_calls", "integrand_points")

def fields(text, name):
    """{path: leaf value} of a JSON document or, for a .csv file, of its rows."""
    if name.endswith(".csv"):
        rows = list(csv.reader(text.splitlines()))
        return {f"row {i}.{key}": value for i, row in enumerate(rows[1:], 1) for key, value in zip(rows[0], row)}
    out = {}

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
        if items is None:
            out[path] = node
            return
        for key, child in items:
            walk(child, f"{path}.{key}" if isinstance(key, str) else f"{path}[{key}]")

    walk(json.loads(text), "")
    return out

def number(v):
    if isinstance(v, bool):
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None

for name in sys.stdin.read().split():
    try:
        old, new = (fields(open(f"{side}/{name}").read(), name) for side in ("out-base", "out-worktree"))
    except ValueError:
        continue  # neither JSON nor CSV
    worst, where = 0.0, None
    moved = dict.fromkeys(APART, 0)
    for path in old.keys() & new.keys():
        a, b = number(old[path]), number(new[path])
        if a is None or b is None or a == b or (math.isnan(a) and math.isnan(b)):
            continue
        field = path.rsplit(".", 1)[-1]
        if field in moved:
            moved[field] += 1
            continue
        rel = abs(b - a) / abs(a) if a else math.inf
        if not rel <= worst:
            worst, where = rel, f"{path} {old[path]!r} -> {new[path]!r}"
    print(f"{name}: largest relative change {worst:.2g}" + (f" at {where}" if where else ""))
    if any(moved.values()):
        print("  moved, not in that maximum: " + ", ".join(f"{n} {field}" for field, n in moved.items() if n))
    for label, only in (("base", old.keys() - new.keys()), ("worktree", new.keys() - old.keys())):
        if only:
            print(f"  only in {label}: {sorted(only)}")
'
  exit 1
fi
