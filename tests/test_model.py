"""Domain objects: intervals, validation, JSON mapping, config."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_problem
from expr_oracle import evaluate
from ulamstab import exprlang
from ulamstab.model import (
    Config,
    Endpoint,
    Interval,
    probe_grid,
    problem_from_dict,
    problem_to_dict,
    validate_problem,
)


def test_infinite_endpoint_never_included():
    with pytest.raises(ValueError):
        Endpoint(math.inf, included=True)


def test_interval_ordering():
    with pytest.raises(ValueError):
        Interval.open(1.0, 1.0)


@pytest.mark.parametrize(
    "lo, hi, anchor",
    [
        (0.0, 1.0, 0.5),
        (1.0, math.inf, 2.0),
        (-math.inf, 3.0, 2.0),
        (-math.inf, math.inf, 0.0),
    ],
)
def test_default_anchor(lo, hi, anchor):
    assert Interval.open(lo, hi).default_anchor() == anchor


def test_contains_respects_closedness():
    iv = Interval(Endpoint(0.0, included=True), Endpoint(1.0))
    assert iv.contains(0.0)
    assert not iv.contains(1.0)
    assert iv.contains(0.5)


def test_probe_grid_interior():
    g = probe_grid(Interval.open(0.0, 1.0))
    assert g[0] > 0.0 and g[-1] < 1.0
    assert len(g) == 1024


# -- validation ------------------------------------------------------------


def test_validate_clean_problem():
    p = make_problem("t*(1 - t)", "2 - t", "1", "0", 0.0, 1.0)
    assert validate_problem(p) == []


def test_validate_alpha_zero_crossing():
    p = make_problem("t", "0", "0", "0", -1.0, 1.0)
    kinds = {v["kind"] for v in validate_problem(p)}
    assert "alpha_zero" in kinds


def test_validate_unbounded_domain_ok():
    p = make_problem("1", "2/t", "0", "-1", 1.0, math.inf)
    assert validate_problem(p) == []


def test_validate_bad_expression_reported():
    p = make_problem("1", "1/(t - t)", "0", "0", 0.0, 1.0)
    # beta is non-finite everywhere; flagged as data, not raised
    assert any(v["which"] == "beta" for v in validate_problem(p))


# -- JSON mapping ----------------------------------------------------------


def _doc(lo="0.0", hi=1.0):
    return {
        "name": "x",
        "alpha": "t*(1 - t)",
        "beta": "2 - t",
        "gamma": "1",
        "forcing": "0",
        "interval": {"lower": float(lo), "upper": hi, "lower_closed": False, "upper_closed": False},
        "rho": "-1/t",
        "params": {"a": 1.5},
    }


def test_problem_roundtrip_fields():
    p = problem_from_dict(_doc())
    p2 = problem_from_dict(problem_to_dict(p))
    assert p2.domain == p.domain
    assert p2.params == p.params
    assert exprlang.to_string(p2.rho) == exprlang.to_string(p.rho)


@given(t=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=40, deadline=None)
def test_problem_roundtrip_evaluation(t):
    p = problem_from_dict(_doc())
    p2 = problem_from_dict(problem_to_dict(p))
    for which in ("alpha", "beta", "gamma", "forcing"):
        assert evaluate(getattr(p2, which), t, p2.params) == pytest.approx(
            evaluate(getattr(p, which), t, p.params), rel=1e-14, abs=1e-14
        )


def test_infinite_endpoints_as_strings():
    doc = _doc()
    doc["interval"] = {"lower": 1.0, "upper": "inf"}
    p = problem_from_dict(doc)
    assert p.domain.sigma == math.inf
    back = problem_to_dict(p)
    assert back["interval"]["upper"] == "inf"


# -- config ----------------------------------------------------------------


def test_config_roundtrip():
    c = Config(cum_tol=1e-7)
    assert c.to_dict() == {"cum_tol": 1e-7}
    assert Config(**c.to_dict()) == c


def test_config_rejects_a_removed_knob():
    # the other tuning values are module constants, not fields
    with pytest.raises(TypeError):
        Config(tail_k=5)
