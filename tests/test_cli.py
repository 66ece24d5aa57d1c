"""CLI: exit codes, report schema, determinism, error objects."""

import copy
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONST_III_COMPLEX, empirical_run, problem_document
from ulamstab import cli, exprlang, quad, schemacheck, stability

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def _invoke(runner, args):
    return runner.invoke(cli.main, args, catch_exceptions=False)


def _json_out(result):
    # stdout holds exactly one JSON document
    return json.loads(result.output)


def test_corpus_list(runner):
    result = _invoke(runner, ["corpus", "list"])
    assert result.exit_code == 0
    lines = [ln for ln in result.output.splitlines() if ln.strip()]
    assert len(lines) == 9


def test_analyze_stable_problem(runner):
    result = _invoke(runner, ["analyze", str(PROBLEMS / "exeq01.json"), "--reproducible"])
    assert result.exit_code == 0
    doc = _json_out(result)
    assert doc["schema"] == "ulamstab-report/1"
    assert doc["report"]["verdict"] == "best_constant"
    assert doc["report"]["case"] == "iii"
    assert doc["report"]["constant"]["B"] == pytest.approx(0.5, rel=1e-4)
    assert doc["tool"]["name"] == "ulamstab" and doc["tool"]["config_hash"]


@pytest.mark.parametrize("command", ["analyze", "riccati-check"])
def test_rho_is_compiled_once(runner, monkeypatch, command):
    # the four coefficients and rho when the problem is built, and rho' for
    # the residual check; the engine and the coverage reuse the bound rho
    compiled = []
    compile_expr = exprlang.compile_expr

    def counting(e, params=None):
        compiled.append(exprlang.to_string(e))
        return compile_expr(e, params)

    monkeypatch.setattr(exprlang, "compile_expr", counting)
    result = _invoke(runner, [command, str(PROBLEMS / "exeq01.json")])
    assert result.exit_code == 0
    assert len(compiled) == 6
    assert compiled.count("-1.0/t") == 1


def test_analyze_unstable_problem(runner):
    result = _invoke(runner, ["analyze", str(PROBLEMS / "exeq02.json"), "--reproducible"])
    assert result.exit_code == 3
    doc = _json_out(result)
    assert doc["report"]["verdict"] == "instability_evidence"
    assert doc["instability"]["growth_ok"] is True


def test_witness_comes_from_the_document(runner, tmp_path):
    # a document named like a corpus entry does not borrow its witness
    doc = json.loads((PROBLEMS / "exeq02.json").read_text())
    del doc["witness"]
    path = tmp_path / "exeq02.json"
    path.write_text(json.dumps(doc))
    result = _invoke(runner, ["analyze", str(path), "--reproducible"])
    assert result.exit_code == 2
    out = _json_out(result)
    assert out["report"]["verdict"] == "inconclusive"
    assert "instability" not in out


def test_analyze_deterministic_bytes(runner):
    args = ["analyze", str(PROBLEMS / "const-iii.json"), "--fast-path", "--reproducible"]
    first = _invoke(runner, args)
    second = _invoke(runner, args)
    assert first.output == second.output
    assert "wall_time_s" not in _json_out(first)


def test_analyze_and_empirical_repeat_in_one_process(runner, tmp_path):
    # the caches of a command remember their reads; a second run of the same
    # command in the same process prints and writes the same bytes
    doc = str(PROBLEMS / "exeq01.json")
    analyze = [_invoke(runner, ["analyze", doc, "--best", "--reproducible"]) for _ in range(2)]
    assert analyze[0].exit_code == 0 and analyze[0].output == analyze[1].output
    runs = []
    for k in range(2):
        out = tmp_path / str(k)
        args = ["empirical", doc, "--trials", "2", "--reproducible", "--out", str(out)]
        result = _invoke(runner, args)
        assert result.exit_code == 0
        runs.append((result.output, (out / "exeq01.report.json").read_bytes(), (out / "exeq01.extremal.csv").read_bytes()))
    assert runs[0] == runs[1]


_TRICKY_TEXT = ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "\u2028", "\ud800", "\U0001f600", "a\"b\\c"]
_JSON_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e300, math.nan, math.inf, -math.inf])
_JSON_TEXT = st.text() | st.sampled_from(_TRICKY_TEXT)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_FLOATS | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(obj=_JSON_VALUES)
def test_report_text_is_json_dumps_text(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_fast_path_constant_coefficients(runner):
    result = _invoke(runner, ["analyze", str(PROBLEMS / "const-iii.json"), "--fast-path", "--reproducible"])
    assert result.exit_code == 0
    doc = _json_out(result)
    assert doc["report"]["case"] == "iii"
    assert doc["report"]["constant"] == {"B": 0.5, "L": 0.5}


def test_fast_path_rejects_variable_coefficients(runner, tmp_path):
    # exeq01, and an alpha that runs from 1 to 11 on an interval shorter
    # than one unit
    narrow = tmp_path / "narrow.json"
    narrow.write_text(
        json.dumps({"alpha": "1 + 100*t", "beta": "3", "gamma": "2", "interval": {"lower": 0.0, "upper": 0.1}})
    )
    for path in (PROBLEMS / "exeq01.json", narrow):
        result = _invoke(runner, ["analyze", str(path), "--fast-path"])
        assert result.exit_code == 1, path.name
        error = json.loads(result.stderr)["error"]
        assert error == {"kind": "fast-path", "detail": "alpha is not constant; the closed-form route does not apply"}


def test_missing_rho_is_input_error(runner, tmp_path):
    doc = json.loads((PROBLEMS / "exeq01.json").read_text())
    del doc["rho"]
    path = tmp_path / "norho.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(cli.main, ["analyze", str(path)])
    assert result.exit_code == 1


def test_schema_violation_is_input_error(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alpha": "1"}))
    result = runner.invoke(cli.main, ["analyze", str(path)])
    assert result.exit_code == 1


@pytest.mark.parametrize("command", ["analyze", "empirical", "riccati-check"])
@pytest.mark.parametrize(
    "field, text, detail",
    [
        ("alpha", "a*t", "parameter 'a' is not bound"),
        ("rho", "-b/t", "parameter 'b' is not bound"),
        ("gamma", ".", "at offset 0"),
    ],
    ids=["alpha-unbound", "rho-unbound", "gamma-bare-dot"],
)
def test_bad_expression_is_input_error(runner, tmp_path, command, field, text, detail):
    # a structured error on stderr, not a traceback
    doc = json.loads((PROBLEMS / "exeq01.json").read_text())
    doc[field] = text
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = _invoke(runner, [command, str(path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["kind"] == "problem"
    assert detail in error["detail"]


def _const_iii_on(tmp_path, lower, upper):
    """const-iii's document on (lower, upper), written to ``tmp_path``."""
    doc = json.loads((PROBLEMS / "const-iii.json").read_text())
    doc["interval"] = {"lower": lower, "upper": upper}
    path = tmp_path / "const-iii-wide.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "args",
    [["analyze", "--fast-path"], ["analyze"], ["empirical"], ["riccati-check"]],
    ids=["fast-path", "analyze", "empirical", "riccati-check"],
)
def test_overflowing_interval_is_input_error(runner, tmp_path, args):
    # two finite ends whose difference is not finite
    result = _invoke(runner, [*args, str(_const_iii_on(tmp_path, -1.7e308, 1.7e308))])
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["kind"] == "problem"
    assert "overflows" in error["detail"]


@pytest.mark.parametrize(
    "args",
    [["analyze", "--fast-path"], ["analyze"], ["empirical"], ["riccati-check"]],
    ids=["fast-path", "analyze", "empirical", "riccati-check"],
)
@pytest.mark.parametrize("lower, upper", [(2e8, "inf"), (1e8, "inf"), ("-inf", -2e8)])
def test_end_beyond_range_cap_is_input_error(runner, tmp_path, args, lower, upper):
    # an infinite side's coverage ends at |t| = quad.RANGE_CAP: beyond it
    # the problem has no interval left to analyze
    result = _invoke(runner, [*args, str(_const_iii_on(tmp_path, lower, upper))])
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["kind"] == "problem"
    assert "at or beyond 1e+08" in error["detail"]


def test_widest_finite_interval_gives_the_best_constant(runner, tmp_path):
    # the span 1.6e308 is still finite
    result = _invoke(runner, ["analyze", str(_const_iii_on(tmp_path, -8e307, 8e307)), "--reproducible"])
    assert result.exit_code == 0
    report = _json_out(result)["report"]
    assert report["verdict"] == "best_constant"
    assert abs(report["constant"]["B"] - 0.5) <= 1.3e-10


@pytest.mark.parametrize("command", ["analyze", "empirical", "riccati-check"])
@pytest.mark.parametrize(
    "spec, detail",
    [
        ("t0=0.5", "expected exactly t0=..,rho0=.."),
        ("t0=0.5,rho0=x", "non-numeric value"),
        ("t0=5,rho0=-2", "anchor t0=5.0 outside the problem domain"),
        ("t0=inf,rho0=-2", "anchor t0=inf outside the problem domain"),
        ("t0=nan,rho0=-2", "anchor t0=nan outside the problem domain"),
        ("t0=0.5,rho0=nan", "rho0=nan is not finite"),
        ("t0=0.5,rho0=-inf", "rho0=-inf is not finite"),
    ],
    ids=["no-rho0", "non-numeric", "t0-outside", "t0-inf", "t0-nan", "rho0-nan", "rho0-inf"],
)
def test_bad_solve_rho_spec(runner, command, spec, detail):
    # a structured error on stderr, not a traceback
    result = _invoke(runner, [command, str(PROBLEMS / "exeq01.json"), "--solve-rho", spec])
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["kind"] == "solve-rho"
    assert detail in error["detail"]


def test_solve_rho_analyze(runner):
    # the numeric companion from rho(0.5) = -tan(0.5) - 2 reaches the
    # closed-form constant of exeq04 (sigma = 1)
    args = ["analyze", str(PROBLEMS / "exeq04.json"), "--solve-rho", "t0=0.5,rho0=-2.546", "--reproducible"]
    result = _invoke(runner, args)
    assert result.exit_code == 0
    report = _json_out(result)["report"]
    assert report["verdict"] == "best_constant"
    assert report["case"] == "iii"
    assert report["constant"]["B"] == pytest.approx(1.0 - math.sin(1.0), rel=1e-6)


def test_riccati_check(runner):
    result = _invoke(runner, ["riccati-check", str(PROBLEMS / "exeq01.json")])
    assert result.exit_code == 0
    doc = _json_out(result)
    assert doc["ok"] is True
    assert doc["residual_sup"] < 1e-12
    assert doc["coverage"]["full"] is True


def test_empirical_writes_report_and_csv(runner, tmp_path):
    result = _invoke(
        runner,
        [
            "empirical",
            str(PROBLEMS / "exeq01.json"),
            "--trials",
            "2",
            "--seed",
            "7",
            "--reproducible",
            "--out",
            str(tmp_path),
        ],
    )
    assert result.exit_code == 0
    doc = _json_out(result)
    assert doc["experiments"]["extremal"]["ratio"] == pytest.approx(0.5, rel=1e-3)
    assert doc["experiments"]["random"]["max_ratio"] <= 0.5 * 1.02
    assert (tmp_path / "exeq01.report.json").exists()
    csv = (tmp_path / "exeq01.extremal.csv").read_text().splitlines()
    assert csv[0] == "t,value"
    assert len(csv) > 100


def test_empirical_builds_one_engine(runner, tmp_path, engine_builds):
    args = ["empirical", str(PROBLEMS / "exeq03.json"), "--trials", "1", "--reproducible", "--out", str(tmp_path)]
    result = _invoke(runner, args)
    assert result.exit_code == 0
    assert len(engine_builds) == 1


def test_empirical_builds_h1_once(runner, tmp_path, monkeypatch):
    # the solution engine reads the stability engine's exp(-(R+P)) cache
    calls = []
    cumulative = quad.cumulative

    def counting(*args, **kwargs):
        calls.append(None)
        return cumulative(*args, **kwargs)

    monkeypatch.setattr(quad, "cumulative", counting)
    trials = 2
    args = ["empirical", str(PROBLEMS / "exeq03.json"), "--trials", str(trials), "--reproducible", "--out", str(tmp_path)]
    result = _invoke(runner, args)
    assert result.exit_code == 0
    # Rc, Pc, A2, A4, C3 and H1 for the analysis, then the unit forcing's
    # second cache (its F is A4, since alpha = 1); the extremal experiment
    # reads the unit forcing's member, and each trial's forcing is replayed
    # on the unit caches' panels
    assert len(calls) == 6 + 1


def test_empirical_without_a_constant_writes_the_analyze_report(runner, tmp_path, monkeypatch):
    # a case whose kernel hypothesis fails carries no constant: no
    # experiment runs, and the report and exit are those of `analyze`
    why = "hypothesis on kernel_iii failed: budget"
    monkeypatch.setattr(stability.StabilityEngine, "ulam_constant", lambda self, case: (None, why))
    doc = str(PROBLEMS / "exeq01.json")
    analyzed = _invoke(runner, ["analyze", doc, "--reproducible"])
    result = _invoke(runner, ["empirical", doc, "--reproducible", "--out", str(tmp_path)])
    assert result.exit_code == analyzed.exit_code == 2
    assert result.stdout == analyzed.stdout
    report = _json_out(result)["report"]
    assert (report["case"], report["constant"], report["diagnostics"]["error"]) == ("iii", {}, why)
    assert [f.name for f in tmp_path.iterdir()] == ["exeq01.report.json"]


def test_empirical_dominance_gate(runner, tmp_path, monkeypatch):
    # every trial may exceed the constant by DOMINANCE_FACTOR only; at a
    # millionth of it trial 0 already does
    monkeypatch.setattr(cli, "DOMINANCE_FACTOR", 1e-6)
    args = ["empirical", str(PROBLEMS / "exeq01.json"), "--trials", "2", "--reproducible", "--out", str(tmp_path)]
    result = _invoke(runner, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["kind"] == "dominance"
    assert re.fullmatch(r"trial 0: ratio 0\.\d+ exceeds allowed 5e-07", error["detail"]), error["detail"]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_side_closed_while_bisection_is_pending(tmp_path):
    # Pc's upper side on (0, inf) meets its budget while later roots of the
    # oscillating integrand are still being bisected; closing the side leaves
    # them alone, where bisecting them on asks for a (1572864, 15) complex
    # array at one level.  Run in a child process under a 2 GiB address
    # space, so that a side that is not closed fails instead of filling memory
    doc = {
        "name": "oscillating",
        "alpha": "1",
        "beta": "3 + 0.5*cos(t)",
        "gamma": "2 + cos(t)",
        "forcing": "0",
        "interval": {"lower": 0.0, "upper": "inf"},
        "rho": "-2",
    }
    path = tmp_path / "oscillating.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "ulamstab.cli", "analyze", str(path), "--best", "--reproducible"],
        env={**os.environ, "PYTHONPATH": str(PROBLEMS.parent / "src")},
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 0, proc.stderr
    pc = json.loads(proc.stdout)["report"]["diagnostics"]["cache_Pc"]
    assert pc["upper_status"] == "budget"
    assert pc["integrand_points"] <= 150_000


# const-iii with gamma = 2.25 - 0.5i: complex data, B = 1/|rho1 - rho2|
def test_empirical_sets_up_the_extremal_pair_once(runner, tmp_path, monkeypatch):
    # on complex data the extremal member is a nearest-solution fit; the
    # experiment and the written profile share one setup, so one fit
    from ulamstab import dynamics

    fits = []
    fit = dynamics._fit
    monkeypatch.setattr(dynamics, "_fit", lambda *args: fits.append(None) or fit(*args))
    path = tmp_path / "const-iii-complex.json"
    path.write_text(json.dumps(CONST_III_COMPLEX))
    result = _invoke(runner, ["empirical", str(path), "--trials", "0", "--reproducible", "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert len(fits) == 1
    assert (tmp_path / "const-iii-complex.extremal.csv").exists()


@pytest.mark.parametrize("shift", [1000.0, 1e5])
def test_empirical_on_a_translated_interval(runner, tmp_path, shift):
    # exeq03 moved to (shift, shift + 1), where B = 1/6: the experiment grid
    # stays inside the forcing caches, and the caches reach the endpoints to
    # within their skeleton's last gap of 1e-13 * shift
    doc = json.loads((PROBLEMS / "exeq03.json").read_text())
    doc.update(beta=f"2/(t - {shift})", rho=f"-1/(t - {shift})", interval={"lower": shift, "upper": shift + 1.0})
    path = tmp_path / "exeq03-shifted.json"
    path.write_text(json.dumps(doc))
    result = _invoke(runner, ["empirical", str(path), "--trials", "1", "--reproducible", "--out", str(tmp_path)])
    assert result.exit_code == 0
    out = _json_out(result)
    b = out["report"]["constant"]["B"]
    assert b == pytest.approx(1.0 / 6.0, rel=2e-7)
    assert out["experiments"]["extremal"]["ratio"] == pytest.approx(b, rel=1e-9)


@pytest.mark.parametrize("command", ["analyze", "empirical"])
def test_partial_coverage_reports_no_case(runner, tmp_path, command):
    # rho = -tan(t) - 1/t has a pole at pi/2: only (0, pi/2) is analyzed
    args = [command, str(PROBLEMS / "exeq05.json"), "--reproducible", "--out", str(tmp_path)]
    result = _invoke(runner, args)
    assert result.exit_code == 3
    report = _json_out(result)["report"]
    assert report["verdict"] == "instability_evidence"
    assert report["case"] == "none"
    assert report["constant"] == {}
    diag = report["diagnostics"]
    assert diag["subinterval_verdict"] == "best_constant"
    assert diag["subinterval_case"] == "iii"
    # B of the covered piece (0, pi/2): 1 - sin(sigma)/sigma at sigma = pi/2
    assert diag["subinterval_constant"]["B"] == pytest.approx(0.363, abs=1e-3)


def test_empirical_rejects_zero_epsilon(runner):
    result = runner.invoke(cli.main, ["empirical", str(PROBLEMS / "exeq01.json"), "--epsilon", "0"])
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "document, option, kind, detail",
    [
        ("exeq03", ["--epsilon", "inf"], "epsilon", "finite positive"),
        ("exeq03", ["--epsilon", "-1"], "epsilon", "finite positive"),
        ("exeq03", ["--seed", "-1"], "usage", "Invalid value for '--seed': -1 is not in the range x>=0."),
        ("exeq03", ["--trials", "-1"], "usage", "Invalid value for '--trials': -1 is not in the range x>=0."),
    ],
    ids=["epsilon-inf", "epsilon-negative", "seed-negative", "trials-negative"],
)
def test_bad_empirical_option_is_input_error(runner, tmp_path, document, option, kind, detail):
    # a structured input error, not a traceback or a report of no trials
    path = PROBLEMS / f"{document}.json"
    out = tmp_path / "out"
    result = _invoke(runner, ["empirical", str(path), *option, "--reproducible", "--out", str(out)])
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["kind"] == kind and detail in error["detail"]
    assert not out.exists()


def _empirical_doc(runner, path, out, epsilon):
    args = ["empirical", str(path), "--epsilon", epsilon, "--trials", "2", "--reproducible", "--out", str(out)]
    result = _invoke(runner, args)
    assert result.exit_code == 0
    return _json_out(result)["experiments"]


@pytest.mark.parametrize("document, epsilon", [("exeq01", "3e6"), ("exeq03", "1e308"), ("const-iii-complex", "1e308")])
def test_empirical_ratios_do_not_depend_on_epsilon(runner, tmp_path, document, epsilon):
    # the experiments run at unit scale: a large epsilon reports the ratios
    # of epsilon = 0.1, and scales only the distances
    path = PROBLEMS / f"{document}.json"
    if document == "const-iii-complex":
        path = tmp_path / f"{document}.json"
        path.write_text(json.dumps(CONST_III_COMPLEX))
    ref = _empirical_doc(runner, path, tmp_path / "ref", "0.1")
    got = _empirical_doc(runner, path, tmp_path / "out", epsilon)
    assert got["extremal"]["ratio"] == ref["extremal"]["ratio"]
    assert got["extremal"]["sup_distance"] == float(epsilon) * got["extremal"]["ratio"]
    assert [r["ratio"] for r in got["random"]["records"]] == [r["ratio"] for r in ref["random"]["records"]]


def _complex(value):
    """A number of a report, where a complex one is written {"re": .., "im": ..}."""
    return complex(value["re"], value["im"]) if isinstance(value, dict) else value


@pytest.mark.parametrize("document", ["exeq01", "exeq03", "const-iii", "const-iii-complex"])
def test_empirical_alone_scales_by_epsilon(tmp_path, document):
    # the experiments run at unit scale: at every epsilon the ratios are
    # those of epsilon = 1 bit for bit, and each reported distance, member
    # coefficient and profile value is epsilon times its value there
    path = problem_document(tmp_path, document)
    unit, unit_rows = empirical_run(path, tmp_path / "unit", 1.0)
    extremal, records = unit["extremal"], unit["random"]["records"]
    for eps in (1e-300, 0.1, 1e308):
        got, rows = empirical_run(path, tmp_path / repr(eps), eps)
        assert got["extremal"]["ratio"] == extremal["ratio"]
        assert [r["ratio"] for r in got["random"]["records"]] == [r["ratio"] for r in records]
        assert got["extremal"]["sup_distance"] == eps * extremal["sup_distance"]
        assert got["extremal"]["detail"]["params"] == [cli._jsonable(eps * _complex(d)) for d in extremal["detail"]["params"]]
        assert [r["sup_distance"] for r in got["random"]["records"]] == [eps * r["sup_distance"] for r in records]
        assert rows == [(t, eps * v) for t, v in unit_rows]
        assert got["extremal"]["detail"].get("member") == extremal["detail"].get("member")
    if document == "const-iii-complex":
        assert extremal["detail"]["member"] == "nearest-solution fit on the experiment grid"
    else:
        assert "member" not in extremal["detail"]


# alpha = t^2 vanishes only at t = 0, the anchor of a symmetric interval,
# which the probe grid misses; gamma = -(alpha (rho' + rho^2) + beta rho)
_ALPHA_AT_ANCHOR = {
    "finite": {
        "alpha": "t^2",
        "beta": "1",
        "gamma": "-(t^2*(-2*t/(1 + t^2)^2 + 1/(1 + t^2)^2) + 1/(1 + t^2))",
        "forcing": "0",
        "interval": {"lower": -5.0, "upper": 5.0},
        "rho": "1/(1 + t^2)",
    },
    "line": {
        "alpha": "t^2",
        "beta": "1",
        "gamma": "2 - 4*t^2",
        "forcing": "0",
        "interval": {"lower": "-inf", "upper": "inf"},
        "rho": "-2",
    },
}


@pytest.mark.parametrize("command", [["analyze", "--best"], ["empirical", "--trials", "4", "--seed", "7"]], ids=lambda c: c[0])
@pytest.mark.parametrize("document", sorted(_ALPHA_AT_ANCHOR))
def test_alpha_zero_at_the_anchor_is_a_violation(runner, tmp_path, document, command):
    # every cache starts at the anchor: the problem check evaluates alpha
    # there too, so the report is the alpha_zero violation, not a traceback
    path = tmp_path / f"alpha-at-anchor-{document}.json"
    path.write_text(json.dumps(_ALPHA_AT_ANCHOR[document]))
    result = _invoke(runner, [command[0], str(path), *command[1:], "--reproducible", "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    report = _json_out(result)["report"]
    assert report["verdict"] == "inconclusive"
    assert report["diagnostics"]["violations"] == [
        {"kind": "alpha_zero", "which": "alpha", "detail": "alpha vanishes or changes sign on the probe grid", "first_t": 0.0}
    ]


def test_wrong_extremal_ratio_is_inconclusive(runner, tmp_path, monkeypatch):
    # a member that does not reproduce the constant: exit 2 before any trial
    from ulamstab import dynamics

    member = stability.StabilityEngine.extremal_member

    def spoiled(self, case):
        d1, d2 = member(self, case)
        return 1.01 * d1, d2

    monkeypatch.setattr(stability.StabilityEngine, "extremal_member", spoiled)
    trials = []
    monkeypatch.setattr(dynamics, "_random_smooth", lambda *args: trials.append(None))
    out = tmp_path / "out"
    result = _invoke(runner, ["empirical", str(PROBLEMS / "exeq03.json"), "--reproducible", "--out", str(out)])
    assert result.exit_code == 2
    assert result.stdout == "" and not trials and not out.exists()
    error = json.loads(result.stderr)["error"]
    assert error["kind"] == "extremal" and "differs from the constant" in error["detail"]


@pytest.mark.parametrize(
    "command", [["analyze"], ["empirical"], ["riccati-check"], ["corpus", "run"]], ids=lambda c: "-".join(c)
)
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_bad_tol_is_input_error(runner, command, tol):
    # refused before any cache is built: a NaN or negative tolerance never
    # converges a panel, and bisection ran until its arrays filled memory
    document = [] if command[0] == "corpus" else [str(PROBLEMS / "exeq01.json")]
    result = _invoke(runner, [*command, *document, f"--tol={tol}"])
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)["error"]
    if command == ["riccati-check"]:
        # it takes no --tol at all, so any value is a usage error
        assert error == {"kind": "usage", "detail": "No such option '--tol'."}
    else:
        assert error["kind"] == "tol" and "finite positive" in error["detail"]


def test_riccati_check_takes_no_tol(runner):
    # it builds no cumulative cache, the one thing --tol sets
    result = _invoke(runner, ["riccati-check", str(PROBLEMS / "exeq01.json"), "--tol", "1e-3"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == {"kind": "usage", "detail": "No such option '--tol'."}


@pytest.mark.parametrize("standalone", [True, False], ids=["standalone", "embedded"])
@pytest.mark.parametrize(
    "args, kind, detail",
    [
        (["analyze", str(PROBLEMS / "missing.json")], "read", "No such file or directory"),
        (["analyze", str(PROBLEMS / "exeq01.json"), "--tol", "abc"], "usage", "'abc' is not a valid float"),
        (["riccati-check", str(PROBLEMS / "exeq01.json"), "--bogus"], "usage", "No such option '--bogus'"),
        (["corpus"], "usage", "Missing command."),
    ],
    ids=["missing-file", "tol-not-a-number", "unknown-option", "missing-command"],
)
def test_usage_error_is_input_error(runner, standalone, args, kind, detail):
    # exit 1 with the structured error, not click's usage text and exit 2 (inconclusive)
    result = runner.invoke(cli.main, args, standalone_mode=standalone)
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["kind"] == kind and detail in error["detail"]


@pytest.mark.parametrize("option", ["--help", "--version"])
def test_help_and_version_exit_0(runner, option):
    result = _invoke(runner, [option])
    assert result.exit_code == 0
    assert result.stdout and result.stderr == ""


def test_tol_sets_the_cache_tolerance(runner):
    path = str(PROBLEMS / "exeq01.json")
    default = _json_out(_invoke(runner, ["analyze", path, "--reproducible"]))
    result = _invoke(runner, ["analyze", path, "--tol", "1e-8", "--reproducible"])
    assert result.exit_code == 0
    doc = _json_out(result)
    assert default["tool"]["config"] == {"cum_tol": 1e-10}
    assert doc["tool"]["config"] == {"cum_tol": 1e-9}
    assert doc["tool"]["config_hash"] != default["tool"]["config_hash"]
    assert doc["report"]["verdict"] == "best_constant"
    assert doc["report"]["constant"]["B"] == pytest.approx(0.5, abs=1e-4)


def test_document_tolerances_are_a_schema_error(runner, tmp_path):
    # the tuning values other than --tol are constants; a document cannot set them
    doc = json.loads((PROBLEMS / "exeq01.json").read_text())
    doc["tolerances"] = {"tail_k": 0}
    path = tmp_path / "tolerances.json"
    path.write_text(json.dumps(doc))
    result = _invoke(runner, ["analyze", str(path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)["error"]
    assert error["kind"] == "schema" and "tolerances" in error["detail"]


@pytest.mark.parametrize("name", ["problem.schema.json", "report.schema.json"])
def test_bundled_schemas_are_draft7_and_implemented(name):
    # `load` refuses a keyword the checker does not implement
    jsonschema.Draft7Validator.check_schema(schemacheck.load(name))


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "pattern": "^a"},
        {"properties": {"a": {"maxLength": 2}}},
        {"oneOf": [{"type": "number"}, {"$ref": "#"}]},
        {"additionalProperties": {"minimum": 0}},
        {"additionalProperties": True},
        {"type": ["number", "integer"]},
    ],
    ids=["pattern", "in-properties", "in-oneOf", "in-additionalProperties", "boolean-subschema", "unknown-type"],
)
def test_unimplemented_schema_keyword_is_refused(schema):
    with pytest.raises(ValueError, match="not implemented|not an object"):
        schemacheck._implemented(schema)


# replacement values: every JSON type, empty strings, and strings a schema's enums and consts hold or miss
_VALUES = st.one_of(
    st.integers(-2, 2),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "x", "inf", "-inf", "minus-inf", "iii", "best_constant", "ulamstab", "ulamstab-report/1"]),
    st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(st.sampled_from(["a", "lower"]), st.integers(0, 1), max_size=2),
)
# keys to add: unknown ones, and optional ones the documents leave out
_NEW_KEYS = ["tolerances", "witness", "lower_closed", "wall_time_s", "experiments", "config", "L"]


@st.composite
def _mutated(draw, doc):
    """``doc`` after one to three edits, each to a random object in it: a key dropped, added or set."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while draw(st.booleans()):
            inner = sorted(k for k, v in node.items() if isinstance(v, dict))
            if not inner:
                break
            node = node[draw(st.sampled_from(inner))]
        keys = sorted(node)
        edit = draw(st.sampled_from(["drop", "add", "set"] if keys else ["add"]))
        if edit == "drop":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys if edit == "set" else _NEW_KEYS))] = draw(_VALUES)
    return doc


@pytest.fixture(scope="module")
def schema_bases(runner):
    """(schema, document) pairs: every bundled problem, and exeq01's report with its wall time."""
    report = _json_out(_invoke(runner, ["analyze", str(PROBLEMS / "exeq01.json")]))
    problems = [json.loads(p.read_text()) for p in sorted(PROBLEMS.glob("*.json"))]
    return [("problem.schema.json", doc) for doc in problems] + [("report.schema.json", report)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_schema_check_agrees_with_jsonschema(schema_bases, data):
    name, base = data.draw(st.sampled_from(schema_bases))
    doc = data.draw(_mutated(base))
    errors = list(jsonschema.Draft7Validator(schemacheck.load(name)).iter_errors(doc))
    try:
        schemacheck.check(doc, name)
        message = None
    except schemacheck.SchemaViolation as exc:
        message = str(exc)
    assert (message is None) == (not errors)
    # the error jsonschema would report: the only one, or its best match among several
    best = jsonschema.exceptions.best_match(errors)
    assert message == (best.message if best else None)


@pytest.mark.parametrize(
    "schema, doc",
    [
        ({"oneOf": [{"type": "object", "required": ["a"]}, {"type": "string"}]}, {}),
        ({"oneOf": [{"type": "number"}, {"type": "null"}, {"enum": [1]}, {"const": 1.0}]}, 1),
        ({"properties": {"x": {"oneOf": [{"type": "number"}, {"enum": ["inf"]}]}}}, {"x": None}),
    ],
    ids=["one-alternative-stands-out", "valid-under-several", "alternatives-tie"],
)
def test_one_of_error_matches_jsonschema(schema, doc):
    # the bundled schemas' one oneOf always ties, so these cases use schemas of their own
    best = jsonschema.exceptions.best_match(jsonschema.Draft7Validator(schema).iter_errors(doc))
    assert schemacheck._best(schemacheck._errors(doc, schema)).message == best.message
