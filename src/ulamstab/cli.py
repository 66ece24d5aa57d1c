"""Command-line front end: problem files in, JSON reports out.

Subcommands: ``analyze`` (classification and constants), ``empirical``
(perturbation experiments), ``corpus`` (built-in examples), and
``riccati-check`` (candidate validation).  Exit codes: 0 stable, 1 input
error (a usage error included), 2 inconclusive, 3 instability evidence.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__, exprlang, riccati, schemacheck, stability
from .model import Config, probe_grid, problem_from_dict

EXIT_STABLE = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_INSTABILITY = 3
EXTREMAL_RTOL = 1e-6  # largest relative distance of a real problem's extremal ratio from its constant
DOMINANCE_FACTOR = 1.02  # a randomized trial's ratio may exceed the constant by this factor

_VERDICT_EXIT = {
    "stable_with_constant": EXIT_STABLE,
    "best_constant": EXIT_STABLE,
    "inconclusive": EXIT_INCONCLUSIVE,
    "instability_evidence": EXIT_INSTABILITY,
}


def _fail(kind, detail, code=EXIT_INPUT_ERROR):
    click.echo(json.dumps({"error": {"kind": kind, "detail": str(detail)}}, sort_keys=True), err=True)
    sys.exit(code)


def _jsonable(obj):
    """Recursively coerce report payloads into JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.generic,)):
        obj = obj.item()
    if isinstance(obj, complex):
        if abs(obj.imag) <= 1e-12 * (1.0 + abs(obj.real)):
            obj = obj.real
        else:
            return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def _dumps(obj):
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, in one recursive pass.

    With ``indent`` the standard library encodes in pure Python; here each
    string goes through its C ``encode_basestring_ascii`` and each number
    through ``int.__repr__`` or ``float.__repr__``, into one list of parts.
    Keys are strings, as in every report; any other key raises `TypeError`.
    """
    parts = []
    _encode(obj, "\n", parts)
    return "".join(parts)


def _float_text(x):
    if x != x:
        return "NaN"
    return "Infinity" if x == math.inf else "-Infinity" if x == -math.inf else float.__repr__(x)


_quote = json.encoder.encode_basestring_ascii
# the JSON text of a scalar by its type; a subclass of str, int or float is
# written as its base is, as json writes it
_SCALARS = {
    str: _quote,
    float: _float_text,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _encode(obj, indent, parts):
    """Append the JSON text of ``obj`` to ``parts``; ``indent`` is the newline and indentation of its closing bracket."""
    scalar = _SCALARS.get(type(obj))
    if scalar is None and not isinstance(obj, (dict, list, tuple)):
        scalar = next((text for base, text in _SCALARS.items() if isinstance(obj, base)), None)
        if scalar is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if scalar is not None:
        parts.append(scalar(obj))
        return
    inner = indent + "  "
    if not obj:
        parts.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            parts.append(sep + _quote(key) + ": ")
            _encode(value, inner, parts)
            sep = "," + inner
        parts.append(indent + "}")
    else:
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _encode(value, inner, parts)
            sep = "," + inner
        parts.append(indent + "]")


def _load_document(path):
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        _fail("read", exc)
    try:
        schemacheck.check(data, "problem.schema.json")
    except schemacheck.SchemaViolation as exc:
        _fail("schema", exc)
    return data


def _build_problem(data):
    try:
        return problem_from_dict(data)
    except (exprlang.ExprError, ValueError, KeyError) as exc:
        _fail("problem", exc)


def _make_config(tol):
    """The config of ``--tol``: cumulative caches are built to a tenth of it."""
    if tol is None:
        return Config()
    if not (math.isfinite(tol) and tol > 0):
        _fail("tol", f"--tol must be a finite positive number, got {tol!r}")
    return Config(cum_tol=0.1 * tol)


def _config_hash(config: Config):
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _parse_solve_rho(spec):
    fields = {}
    for part in spec.split(","):
        if "=" not in part:
            _fail("solve-rho", f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        try:
            fields[k.strip()] = float(v)
        except ValueError:
            _fail("solve-rho", f"non-numeric value in {part!r}")
    if set(fields) != {"t0", "rho0"}:
        _fail("solve-rho", "expected exactly t0=..,rho0=..")
    return fields["t0"], fields["rho0"]


def _resolve_rho(problem, solve_rho):
    if solve_rho:
        t0, rho0 = _parse_solve_rho(solve_rho)
        try:
            return riccati.solve_riccati(problem, t0, rho0)
        except ValueError as exc:  # t0 outside the domain, or a value that is not finite
            _fail("solve-rho", exc)
    if problem.rho is not None:
        return problem.rho
    _fail("rho", 'no Riccati candidate: supply "rho" in the problem file or --solve-rho t0=..,rho0=..')


def _escalate_instability(doc, problem, data):
    """Attach the document's witness-family probe; upgrade the verdict if it evidences growth."""
    witness = data.get("witness")
    if not witness:
        return
    # imported here: every fresh command would load the experiment layer, and only
    # the probe, `empirical` and the corpus use it
    from . import dynamics

    try:
        probe, evidenced = dynamics.instability_evidence(problem, witness)
    except (exprlang.ExprError, ValueError) as exc:
        doc["instability"] = {"error": str(exc)}
        return
    doc["instability"] = _jsonable({"witness": witness, **probe})
    if evidenced:
        doc["report"]["verdict"] = "instability_evidence"


def _report_doc(problem_data, report_dict, config, wall_time, reproducible, extra=None):
    doc = {
        "schema": "ulamstab-report/1",
        "tool": {
            "name": "ulamstab",
            "version": __version__,
            "config_hash": _config_hash(config),
            "config": config.to_dict(),
        },
        "problem": problem_data,
        "report": _jsonable(report_dict),
    }
    if extra:
        doc.update(_jsonable(extra))
    if not reproducible:
        doc["wall_time_s"] = round(wall_time, 3)
    return doc


def _emit(doc, out, stem):
    schemacheck.check(doc, "report.schema.json")
    text = _dumps(doc) + "\n"
    click.echo(text, nl=False)
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}.report.json").write_text(text)


def _finish(doc, problem, data, out, stem):
    """Probe an inconclusive report's witness, write the report and exit by its verdict."""
    if doc["report"]["verdict"] == "inconclusive":
        _escalate_instability(doc, problem, data)
    _emit(doc, out, stem)
    sys.exit(_VERDICT_EXIT[doc["report"]["verdict"]])


def _fast_path_report(problem):
    # constancy on the grid that validates the problem; a non-finite value fails it
    grid = probe_grid(problem.domain)
    consts = []
    for which in ("alpha", "beta", "gamma"):
        vals = problem.fn(which)(grid)
        with np.errstate(all="ignore"):
            constant = np.all(np.abs(vals - vals[0]) <= 1e-12 * (1.0 + np.max(np.abs(vals))))
        if not constant:
            _fail("fast-path", f"{which} is not constant; the closed-form route does not apply")
        consts.append(complex(vals[0]))
    try:
        cc = stability.constant_coefficients(*consts)
    except stability.DegenerateLeadingCoefficient as exc:
        _fail("fast-path", exc)
    l1, l2 = cc["roots"].lambda1, cc["roots"].lambda2
    if l1.real > 0 and l2.real > 0:
        case = "i"
    elif l1.real > 0 > l2.real:
        case = "ii"
    elif l1.real < 0 and l2.real < 0:
        case = "iii"
    else:
        case = "none"
    constant = {}
    if cc["L"] is not None:
        constant["L"] = cc["L"]
    if cc["B"] is not None:
        constant["B"] = cc["B"]
    if case == "none" or not constant:
        verdict = "inconclusive"
    elif "B" in constant:
        verdict = "best_constant"
    else:
        verdict = "stable_with_constant"
    return {
        "case": case,
        "f_sups": {},
        "divergence": [],
        "constant": constant,
        "verdict": verdict,
        "diagnostics": {
            "fast_path": True,
            "roots": {"lambda1": l1, "lambda2": l2},
        },
    }


class _Group(click.Group):
    """A click group whose usage errors, its own and its subcommands', are input errors."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            _fail("usage", exc.format_message())

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail("usage", exc.format_message())


# without no_args_is_help a bare group is click's "Missing command." usage error, not help text
@click.group(cls=_Group, no_args_is_help=False)
@click.version_option(__version__, prog_name="ulamstab")
def main():
    """Ulam stability analysis for second-order linear oscillators."""


@main.command()
@click.argument("problem_path", type=click.Path())
@click.option("--best/--no-best", default=True, help="Also certify the minimal constant.")
@click.option("--fast-path", is_flag=True, help="Closed-form route for constant coefficients.")
@click.option("--solve-rho", default=None, metavar="t0=..,rho0=..", help="Numeric companion x'/x with x(t0) = 1, x'(t0) = rho0.")
@click.option(
    "--tol",
    type=float,
    default=None,
    help="Quadrature tolerance, finite and positive; cumulative caches are built to a tenth of it.",
)
@click.option("--reproducible", is_flag=True, help="Omit timing fields for byte-identical output.")
@click.option("--out", type=click.Path(file_okay=False), default=None, help="Directory for report artifacts.")
def analyze(problem_path, best, fast_path, solve_rho, tol, reproducible, out):
    """Classify a problem and compute its Ulam constant(s)."""
    t_start = time.perf_counter()
    data = _load_document(problem_path)
    problem = _build_problem(data)
    config = _make_config(tol)

    if fast_path:
        report_dict = _fast_path_report(problem)
    else:
        rho = _resolve_rho(problem, solve_rho)
        report_dict = stability.analyze(problem, rho, config, best=best).to_dict()

    doc = _report_doc(data, report_dict, config, time.perf_counter() - t_start, reproducible)
    _finish(doc, problem, data, out, Path(problem_path).stem)


@main.command()
@click.argument("problem_path", type=click.Path())
@click.option("--epsilon", type=float, default=0.1, show_default=True)
@click.option("--trials", type=click.IntRange(min=0), default=32, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=7, show_default=True)
@click.option("--solve-rho", default=None, metavar="t0=..,rho0=..")
@click.option("--tol", type=float, default=None)
@click.option("--reproducible", is_flag=True)
@click.option("--out", type=click.Path(file_okay=False), default=None)
def empirical(problem_path, epsilon, trials, seed, solve_rho, tol, reproducible, out):
    """Extremal and randomized perturbation experiments."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        _fail("epsilon", f"--epsilon must be a finite positive number, got {epsilon!r}")
    t_start = time.perf_counter()
    data = _load_document(problem_path)
    problem = _build_problem(data)
    config = _make_config(tol)
    rho = _resolve_rho(problem, solve_rho)

    analysis = stability.StabilityEngine(problem, rho, config)
    report = stability.analyze(problem, rho, config, best=True, engine=analysis)
    doc_report = report.to_dict()
    bound = report.constant.get("B", report.constant.get("L"))
    if bound is None:
        doc = _report_doc(data, doc_report, config, time.perf_counter() - t_start, reproducible)
        _finish(doc, problem, data, out, Path(problem_path).stem)

    from . import dynamics

    engine = dynamics.SolutionEngine(analysis)
    extremal = dynamics.extremal_experiment(engine, report.case)
    ratio = extremal["ratio"]
    # the proof's member reproduces the constant on real data; complex
    # data's nearest-solution fit may stay below it
    if analysis.is_real and not abs(ratio - bound) <= EXTREMAL_RTOL * bound:
        _fail("extremal", f"ratio {ratio!r} differs from the constant {bound!r}", code=EXIT_INCONCLUSIVE)
    records = dynamics.random_perturbation_test(engine, trials, seed)
    allowed = bound * DOMINANCE_FACTOR
    for rec in records:
        if rec["ratio"] > allowed:
            detail = f"trial {rec['trial']}: ratio {rec['ratio']:.6g} exceeds allowed {allowed:.6g}"
            _fail("dominance", detail, code=EXIT_INCONCLUSIVE)
    grid, dist = dynamics.extremal_profile(engine, report.case)

    # the experiments run at unit scale: the solution is linear in the
    # forcing, so epsilon scales the distances and the member, not a ratio
    detail = extremal["detail"]
    experiments = {
        "extremal": {
            **extremal,
            "epsilon": epsilon,
            "sup_distance": epsilon * ratio,
            "detail": {**detail, "params": [epsilon * d for d in detail["params"]]},
        },
        "random": {
            "trials": trials,
            "seed": seed,
            "epsilon": epsilon,
            "max_ratio": max([0.0] + [rec["ratio"] for rec in records]),
            "records": [{**rec, "sup_distance": epsilon * rec["ratio"]} for rec in records],
            # the trials' forcing caches, replayed on the unit forcing's panels
            "replay": dict(engine.replay_counts),
        },
    }
    doc = _report_doc(
        data, doc_report, config, time.perf_counter() - t_start, reproducible, extra={"experiments": experiments}
    )
    _emit(doc, out, Path(problem_path).stem)

    csv_dir = Path(out) if out else Path(".")
    csv_dir.mkdir(parents=True, exist_ok=True)
    csv_path = csv_dir / f"{Path(problem_path).stem}.extremal.csv"
    rows = zip(grid.tolist(), (epsilon * dist).tolist())
    csv_path.write_text("t,value\n" + "".join([f"{t!r},{v!r}\n" for t, v in rows]))
    sys.exit(_VERDICT_EXIT[doc["report"]["verdict"]])


@main.command("riccati-check")
@click.argument("problem_path", type=click.Path())
@click.option("--solve-rho", default=None, metavar="t0=..,rho0=..")
def riccati_check(problem_path, solve_rho):
    """Validate the Riccati candidate: residual and usable coverage."""
    data = _load_document(problem_path)
    problem = _build_problem(data)
    rho = _resolve_rho(problem, solve_rho)
    resid = riccati.residual_sup(problem, rho)
    cov = riccati.rho_coverage(problem, rho)
    ok = resid <= riccati.RESIDUAL_TOL
    click.echo(
        _dumps(
            _jsonable(
                {
                    "residual_sup": resid,
                    "tolerance": riccati.RESIDUAL_TOL,
                    "ok": ok,
                    "coverage": cov.to_dict(),
                }
            )
        )
    )
    sys.exit(EXIT_STABLE if ok else EXIT_INCONCLUSIVE)


@main.group(no_args_is_help=False)
def corpus():
    """Built-in example problems with analytic targets."""


@corpus.command("list")
def corpus_list():
    """Show the corpus entries and their targets."""
    from . import corpus as corpus_mod

    for entry in corpus_mod.entries():
        v = entry.default
        target = f"B={v.expected_B:.6g}" if v.expected_B is not None else "unstable"
        click.echo(f"{entry.name:10s} {target:14s} case={v.expected_case:4s} {entry.description}")


@corpus.command("run")
@click.option("--tol", type=float, default=None)
def corpus_run(tol):
    """Run every corpus problem and compare against the analytic targets."""
    from . import corpus as corpus_mod

    config = _make_config(tol)
    failures = 0
    for result in corpus_mod.run_all(config):
        status = "PASS" if result["passed"] else "FAIL"
        failures += 0 if result["passed"] else 1
        d = result["detail"]
        if "B" in d:
            rel = d.get("rel_error")
            info = f"B={d['B']:.10g} target={d['expected_B']:.10g} rel={rel:.2e}" if rel is not None else "no constant"
        else:
            info = f"residual={d['residual_sup']:.3e} growth_ok={d['growth_ok']}"
        click.echo(f"{status} {result['name']:10s} {result['label']:22s} {info}")
    if failures:
        click.echo(f"{failures} corpus check(s) failed", err=True)
        sys.exit(EXIT_INCONCLUSIVE)
    click.echo("all corpus checks passed")


if __name__ == "__main__":
    main()
