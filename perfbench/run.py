"""Benchmark of the ulamstab CLI: time to a certified Ulam constant.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout and imports the program from
``src/``; exits with status 2 and prints no result when that is missing.
One process issues the workload's commands in-process, each only after the
previous one returned (a closed loop with one caller), and repeats whole
rounds of them until ``--seconds`` have passed, at least twice.  Outputs
are checked against the closed forms in `oracles.py`; repeated rounds
must print byte-identical reports.  The last line of standard output is
one JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics
from wrapped program layers with ``--trace 1``.  See README.md.
"""

import os

# pin BLAS/OpenMP pools before numpy is imported, here and in set-up children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from speed import SHARE, Speedometer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_ROUNDS = 2
SETUP_REPEATS = 3
SETUP_SAMPLE_S = 0.15  # reference-kernel time before and after each set-up
SETUP_TIMEOUT_S = 60
B_RTOL = 1e-4  # best constant against its closed form (the corpus tolerance)
EXTREMAL_RTOL = 1e-3  # extremal ratio against B
TRIAL_FACTOR = 1.02  # every random-trial ratio stays below this multiple of B
GROWTH = 10.0  # distance growth per truncation that evidences instability
# program's probe distances against the reference LP; see README.md
DISTANCE_RTOL = 1e-2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import ``ulamstab`` from this checkout's ``src/``, or None."""
    if not (SRC / "ulamstab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import ulamstab
    from ulamstab import cli

    if Path(ulamstab.__file__).resolve().parent != (SRC / "ulamstab").resolve():
        return None
    return cli


def pin_to_current_cpu():
    """Keep this process and its children on one core.

    The reference kernel then samples the core the commands run on.
    """
    try:
        stat = Path("/proc/self/stat").read_text()
        os.sched_setaffinity(0, {int(stat.rsplit(")", 1)[1].split()[36])})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


def measure_setup(ops, speed):
    """Median time, in reference seconds, of fresh interpreters that import the CLI and load the documents."""
    argv = [sys.executable, str(HERE / "setup_child.py"), str(SRC)] + [str(op.path) for op in ops]
    times = []
    for _ in range(SETUP_REPEATS):
        speed.reset()
        speed.sample(SETUP_SAMPLE_S)
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL, cwd=ROOT)
        dt = time.perf_counter() - t0
        speed.sample(SETUP_SAMPLE_S)
        times.append(dt * speed.scale())
    return statistics.median(times)


def invoke(cli, argv):
    """Run one CLI command in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main.main(argv, prog_name="ulamstab", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the command crashed: count it as a failed operation
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def check(op, text, report_dir):
    """Problems found in one command's output, and its digits against the oracle."""
    problems = []
    try:
        doc = json.loads(text)
        report = doc["report"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"], None
    if report.get("verdict") != op.verdict:
        problems.append(f"verdict {report.get('verdict')!r}, expected {op.verdict!r}")
    if op.B is not None:
        if report.get("case") != op.case:
            problems.append(f"case {report.get('case')!r}, expected {op.case!r}")
        b = report.get("constant", {}).get("B")
        if not isinstance(b, float):
            return problems + ["no best constant"], None
        digits = oracles.digits(b, op.B)
        if abs(b - op.B) > B_RTOL * op.B:
            problems.append(f"B={b!r}, closed form {op.B!r}")
    if op.command == "empirical":
        exp = doc.get("experiments", {})
        ratio = exp.get("extremal", {}).get("ratio")
        if not isinstance(ratio, float) or abs(ratio - op.B) > EXTREMAL_RTOL * op.B:
            problems.append(f"extremal ratio {ratio!r}, closed form {op.B!r}")
        records = exp.get("random", {}).get("records", [])
        if len(records) != workloads.TRIALS:
            problems.append(f"{len(records)} random trials, expected {workloads.TRIALS}")
        bad = [r["ratio"] for r in records if not r["ratio"] <= TRIAL_FACTOR * op.B]
        if bad:
            problems.append(f"random-trial ratios {bad} above {TRIAL_FACTOR}*B")
        saved = report_dir / f"{op.stem}.report.json"
        if not saved.is_file() or saved.read_text() != text:
            problems.append("--out report differs from the printed report")
    if op.distances is not None:
        probe = doc.get("instability", {})
        if probe.get("growth_ok") is not True:
            problems.append("probe reports no growth")
        eps = probe.get("epsilon")
        if not isinstance(eps, float) or not probe.get("residual_sup", math.inf) <= eps * (1.0 + 1e-6):
            problems.append(f"probe residual {probe.get('residual_sup')!r} above epsilon {eps!r}")
        ref = op.distances
        if not all(ref[k + 1] >= GROWTH * ref[k] for k in range(len(ref) - 1)):
            problems.append(f"reference distances {ref} do not grow {GROWTH}x per truncation")
        got = [rec.get("sup_distance") for rec in probe.get("trace", [])]
        if len(got) != len(ref) or not all(isinstance(g, float) for g in got):
            return problems + [f"probe trace {got!r}"], None
        rel = [abs(g - r) / r for g, r in zip(got, ref)]
        if max(rel) > DISTANCE_RTOL:
            problems.append(f"probe distances {got} vs reference {ref}")
        digits = -math.log10(max(max(rel), oracles.EPS))
    return problems, digits


def run_rounds(cli, ops, seconds, run_dir, tracer, speed):
    """Whole rounds for ``seconds``.

    Returns the round times in wall and in reference seconds, the attempted
    and failed operation counts, whether the checks passed, and the digits.
    Each command is timed between two samples of the reference kernel and
    rescaled by them.
    """
    report_dir = run_dir / "reports"
    raw, scaled, attempted, failed, problems, digits = [], [], 0, 0, [], []
    last = [0.0] * len(ops)
    first = None
    t_begin = time.perf_counter()
    while len(raw) < MIN_ROUNDS or time.perf_counter() - t_begin < seconds:
        outputs, busy, busy_ref = [], 0.0, 0.0
        for i, op in enumerate(ops):
            argv = [op.command, str(op.path), *op.options]
            if op.command == "empirical":
                argv += ["--out", str(report_dir)]
            speed.reset()
            speed.sample(0.5 * SHARE * last[i])
            if tracer is not None:
                tracer.command = f"r{len(raw)}-{op.stem}"
                with tracer.span(f"cli.{op.command}"):
                    code, text, err, dt = invoke(cli, argv)
            else:
                code, text, err, dt = invoke(cli, argv)
            speed.sample(0.5 * SHARE * dt)
            last[i] = dt
            busy += dt
            busy_ref += dt * speed.scale()
            attempted += 1
            if code != op.exit_code:
                failed += 1
                print(f"FAILED {op.stem}: exit {code}\n{err}", file=sys.stderr)
                outputs.append(None)
                continue
            outputs.append(text)
            if first is None:
                found, d = check(op, text, report_dir)
                problems += [f"{op.stem}: {msg}" for msg in found]
                if d is not None:
                    digits.append(d)
        if first is None:
            first = outputs
        elif outputs != first:
            problems.append(f"round {len(raw)} output differs from round 0")
        raw.append(busy)
        scaled.append(busy_ref)
    for msg in problems:
        print(f"CHECK {msg}", file=sys.stderr)
    return raw, scaled, attempted, failed, not problems and bool(digits), digits


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()
    if cli is None:
        print(f"run.py: no ulamstab sources under {SRC}", file=sys.stderr)
        return 2
    pin_to_current_cpu()
    speed = Speedometer()
    ops = workloads.operations(args.workload, args.seed)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        workloads.write_documents(ops, run_dir / "docs")
        setup_s = measure_setup(ops, speed)
        tracer = None
        if args.trace:
            from tracing import Tracer, install

            tracer = Tracer()
            install(tracer)
        raw, scaled, attempted, failed, correct, digits = run_rounds(cli, ops, args.seconds, run_dir, tracer, speed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"{args.workload} seed={args.seed}: {len(raw)} rounds, wall seconds {raw}, reference seconds {scaled}",
          file=sys.stderr)

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(scaled), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "B_digits": (min(digits) if digits else 0.0, "digits"),
        }
    else:
        from tracing import layer_metrics

        layer = layer_metrics(tracer.spans, len(raw), workloads.TRIALS)
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: (layer[name], unit) for name, unit in units.items()}
        tracer.dump(OUT / "trace" / f"{args.workload}-seed{args.seed}.json")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
