"""Stability engine: case selection, constants, divergence certificates."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_problem
from ulamstab import exprlang, quad, stability
from ulamstab.model import Config, StabilityReport, problem_from_dict
from ulamstab.riccati import RhoCoverage
from ulamstab.stability import (
    DegenerateLeadingCoefficient,
    StabilityEngine,
    analyze,
    constant_coefficients,
)


def test_classify_case_iii(exeq01_engine):
    sel = exeq01_engine.classify()
    assert sel.case == "iii"
    assert set(sel.f_sups) == {"f3", "f4"}


def test_f_sups_match_closed_forms(exeq01_engine):
    (f3, why3), (f4, why4) = exeq01_engine.f_sup("f3"), exeq01_engine.f_sup("f4")
    assert why3 is why4 is None
    assert f3.sup_value == pytest.approx(0.5, abs=1e-6)
    assert f4.sup_value == pytest.approx(1.0, abs=1e-6)


def test_exeq01_accuracy_beyond_the_corpus_gate(exeq01, cfg, exeq01_engine):
    # pinned well inside the corpus's 1e-6: a change of the resolution floor
    # or of the leaf budget must update these on purpose
    p, rho = exeq01
    report = analyze(p, rho, cfg, best=True, engine=exeq01_engine)
    assert report.verdict == "best_constant"
    assert report.constant["B"] == pytest.approx(0.5, rel=2e-12)
    assert report.constant["L"] == pytest.approx(0.5, rel=2e-12)
    assert report.f_sups["f3"]["value"] == pytest.approx(0.5, abs=2e-13)
    # f4 reads A4's interpolants next to the singular end t = 1
    assert report.f_sups["f4"]["value"] == pytest.approx(1.0, abs=2e-7)


def test_divergent_f_says_why(exeq01_engine):
    # f1 has a 1/t(1-t) weight toward sigma: not summable
    res, why = exeq01_engine.f_sup("f1")
    assert res is None
    assert why == "divergent" or why.startswith("unresolved:")


def test_ulam_constant(exeq01_engine):
    res, why = exeq01_engine.ulam_constant("iii")
    assert why is None
    assert res.sup_value == pytest.approx(0.5, rel=1e-6)


def test_best_constant_with_certificates(exeq01_engine):
    assert exeq01_engine.is_real
    evidence = exeq01_engine.check_divergence("iii")
    assert len(evidence) == 2
    assert all(ev.holds for ev in evidence)


@pytest.mark.parametrize(
    "coeffs, rho, case, expected_b",
    [
        (("1", "3", "2"), "-2", "iii", 0.5),
        (("2", "-2", "-4"), "-1", "ii", 0.25),
        (("1", "-3", "2"), "1", "i", 0.5),
    ],
)
def test_constant_coefficient_cases(coeffs, rho, case, expected_b, cfg):
    a, b, g = coeffs
    p = make_problem(a, b, g, "0", -40.0, 40.0)
    rep = analyze(p, exprlang.parse(rho), cfg)
    assert rep.case == case
    assert rep.verdict == "best_constant"
    assert rep.constant["B"] == pytest.approx(expected_b, rel=1e-4)


def test_analyze_unclassifiable(cfg):
    p = make_problem("1", "2/t", "0", "-1", 1.0, math.inf, name="exeq02")
    rep = analyze(p, exprlang.parse("-1/t"), cfg)
    assert rep.case == "none"
    assert rep.verdict == "inconclusive"
    assert rep.f_sups["f1"]["status"] in ("unbounded", "divergent")


def test_analyze_reduced_coverage_is_inconclusive(cfg):
    p = make_problem("1", "2/t", "1", "0", 0.0, math.inf, name="exeq05")
    rep = analyze(p, exprlang.parse("-tan(t) - 1/t"), cfg)
    assert rep.verdict == "inconclusive"
    assert rep.diagnostics.get("subinterval_verdict") == "best_constant"


def test_analyze_rejects_bad_rho(exeq01, cfg):
    p, _ = exeq01
    rep = analyze(p, exprlang.parse("-2/t"), cfg)
    assert rep.verdict == "inconclusive"
    assert "residual" in rep.diagnostics["error"]


def test_analyze_reports_violations(cfg):
    p = make_problem("t", "0", "1", "0", -1.0, 1.0)
    rep = analyze(p, exprlang.parse("0"), cfg)
    assert rep.verdict == "inconclusive"
    assert rep.diagnostics["violations"]


def test_best_constant_requires_real_data(cfg):
    p = make_problem("1", "3", "2", "0", -5.0, 5.0)
    rho = lambda t: np.full(np.shape(np.atleast_1d(t)), -2.0 + 0.5j)
    eng = StabilityEngine(p, rho, cfg)
    assert eng.coverage == RhoCoverage(-5.0, 5.0, True)
    assert not eng.is_real
    # the callable rho has no residual check: classify and bound directly
    rep = StabilityReport()
    stability._classify_and_bound(rep, eng, best=True)
    assert rep.verdict == "stable_with_constant" and "B" not in rep.constant
    assert rep.diagnostics["best_constant"] == "coefficients or rho are not real-valued on the probe grid"
    assert rep.divergence == []


_PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
_CACHES = ("Rc", "Pc", "A2", "A4", "C3", "H1")


@pytest.mark.parametrize("name", ["exeq01", "const-iii"])
def test_real_problem_builds_real_caches(name, cfg):
    p = problem_from_dict(json.loads((_PROBLEMS / f"{name}.json").read_text()))
    eng = StabilityEngine(p, p.rho, cfg)
    assert analyze(p, p.rho, cfg, engine=eng).verdict == "best_constant"
    assert sorted(eng._cache) == sorted(_CACHES)
    for cache in eng._cache.values():
        assert cache.panel_vals.dtype == cache.antider.dtype == np.float64
        ts = np.linspace(cache.lo, cache.hi, 5)
        assert cache.value(ts).dtype == cache.from_edge("upper", ts).dtype == np.float64


@pytest.mark.parametrize("name, case", [("const-ii", "ii"), ("exeq03", "iii")])
def test_classify_computes_each_sup_once(name, case, cfg, monkeypatch):
    # case i and case ii both ask for f1; its sup is computed the first time only
    p = problem_from_dict(json.loads((_PROBLEMS / f"{name}.json").read_text()))
    eng = StabilityEngine(p, p.rho, cfg)
    asked, sups = [], []
    f_sup, sup_over = eng.f_sup, quad.sup_over
    monkeypatch.setattr(eng, "f_sup", lambda f: asked.append(f) or f_sup(f))
    monkeypatch.setattr(quad, "sup_over", lambda h, lo, hi: sups.append(h) or sup_over(h, lo, hi))
    assert eng.classify().case == case
    assert asked.count("f1") == 2
    assert len(sups) == len(set(asked))


def test_complex_problem_keeps_complex_exponent_caches(cfg):
    # characteristic roots -1 + 0.5i and -2 - 0.5i: L = 1/|Re l1 Re l2| = 1/2
    p = make_problem("1", "3", "2.25 - 0.5*i", "0", -40.0, 40.0)
    rho = exprlang.parse("-2 - 0.5*i")
    eng = StabilityEngine(p, rho, cfg)
    rep = analyze(p, rho, cfg, engine=eng)
    assert rep.verdict == "stable_with_constant"
    assert rep.constant["L"] == pytest.approx(0.5, abs=1e-8)
    # the exponents and H1 carry the imaginary part; the kernels read only real parts
    dtypes = {key: getattr(eng, key).panel_vals.dtype for key in _CACHES}
    assert dtypes == {"Rc": complex, "Pc": complex, "H1": complex, "A2": float, "A4": float, "C3": float}


# -- closed-form constant-coefficient route --------------------------------


def test_constant_coefficients_known():
    out = constant_coefficients(1.0, 3.0, 2.0)
    assert out["L"] == pytest.approx(0.5)
    assert out["B"] == pytest.approx(0.5)
    r = out["roots"]
    assert (r.lambda1, r.lambda2) == (-1.0, -2.0)


def test_constant_coefficients_complex_roots():
    out = constant_coefficients(1.0, 0.0, 1.0)  # roots +-i: no real parts
    assert out["L"] is None and out["B"] is None


def test_constant_coefficients_degenerate():
    with pytest.raises(DegenerateLeadingCoefficient):
        constant_coefficients(0.0, 1.0, 1.0)


@given(
    a0=st.floats(min_value=0.1, max_value=10).flatmap(lambda v: st.sampled_from([v, -v])),
    a1=st.floats(min_value=-10, max_value=10),
    a2=st.floats(min_value=-10, max_value=10),
)
@settings(max_examples=150, deadline=None)
def test_characteristic_roots_invariant(a0, a1, a2):
    r = constant_coefficients(a0, a1, a2)["roots"]
    scale = max(abs(r.lambda1), abs(r.lambda2), 1.0)
    for lam in (r.lambda1, r.lambda2):
        assert abs(a0 * lam * lam + a1 * lam + a2) <= 1e-10 * (1.0 + scale**2) * max(abs(a0), abs(a1), abs(a2), 1.0)
    assert r.lambda1.real >= r.lambda2.real
