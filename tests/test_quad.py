"""Quadrature layer: cumulative caches, graded grids, sup search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamstab import quad


# -- cumulative ------------------------------------------------------------


@pytest.fixture(scope="module")
def cos_cum():
    return quad.cumulative(np.cos, 0.0, -5.0, 5.0)


def test_cumulative_value(cos_cum):
    ts = np.linspace(-4.5, 4.5, 21)
    got = cos_cum.value(ts)
    assert np.max(np.abs(got - np.sin(ts))) < 1e-10


def test_cumulative_between_additive(cos_cum):
    a, b, c = -3.2, 0.7, 4.1
    ab = cos_cum.between(np.array([a]), np.array([b]))[0]
    bc = cos_cum.between(np.array([b]), np.array([c]))[0]
    ac = cos_cum.between(np.array([a]), np.array([c]))[0]
    assert ab + bc == pytest.approx(ac, abs=1e-12)


def test_cumulative_coverage_error(cos_cum):
    with pytest.raises(quad.CoverageError):
        cos_cum.value(np.array([6.0]))


def test_tail_mode_converged_upper():
    # int_t^inf e^-s = e^-t; the truncated tail must not pollute small values
    c = quad.cumulative(lambda s: np.exp(-s), 1.0, 0.0, math.inf, tail_mode=True)
    assert c.upper_info.usable_as_limit
    ts = np.linspace(0.5, 8.0, 16)
    got = c.from_upper(ts).real
    assert np.max(np.abs(got - np.exp(-ts)) / np.exp(-ts)) < 1e-7


def test_tail_mode_detects_divergence():
    c = quad.cumulative(lambda s: np.exp(s), 1.0, 0.0, math.inf, tail_mode=True, log_budget=60.0)
    assert c.upper_info.status == "diverging"
    assert not c.upper_info.usable_as_limit


def test_tail_mode_finite_singular_edge():
    # int_0^t 1/sqrt(s) resolves the lower endpoint exactly
    c = quad.cumulative(lambda s: 1.0 / np.sqrt(s), 0.5, 0.0, 1.0, tail_mode=True)
    assert c.lower_info.usable_as_limit
    t = np.array([0.25])
    # the unresolvable sliver below the edge gap carries ~2 sqrt(1e-13) mass
    assert c.from_lower(t)[0].real == pytest.approx(1.0, rel=2e-6)


# -- graded_grid -----------------------------------------------------------


@given(
    lo=st.floats(min_value=-10, max_value=0.9),
    span=st.floats(min_value=0.1, max_value=20),
    n=st.integers(min_value=16, max_value=200),
)
@settings(max_examples=50, deadline=None)
def test_graded_grid_properties(lo, span, n):
    hi = lo + span
    g = quad.graded_grid(lo, hi, n)
    assert np.all(np.diff(g) > 0)
    assert g[0] > lo and g[-1] < hi  # open endpoints by default


def test_graded_grid_closed_endpoints():
    g = quad.graded_grid(0.0, 1.0, 64, include_lo=True, include_hi=True)
    assert g[0] == 0.0 and g[-1] == 1.0


def test_graded_grid_reaches_deep():
    g = quad.graded_grid(0.0, 1.0, 257)
    assert g[0] < 1e-10  # geometric grading toward the ends


# -- sup_over --------------------------------------------------------------


def test_sup_interior_maximum():
    res = quad.sup_over(lambda t: np.sin(t), 0.0, 4.0)
    assert not res.unbounded
    assert res.sup_value == pytest.approx(1.0, abs=1e-9)
    assert res.attained_near == pytest.approx(math.pi / 2, abs=1e-4)


def test_sup_at_open_endpoint():
    # sup t on (0,1) is the (unattained) limit 1
    res = quad.sup_over(lambda t: np.asarray(t), 0.0, 1.0)
    assert not res.unbounded
    assert res.sup_value == pytest.approx(1.0, abs=1e-6)


def test_sup_unbounded_pole():
    res = quad.sup_over(lambda t: 1.0 / t, 0.0, 1.0)
    assert res.unbounded


def test_sup_unbounded_slow_divergence():
    # t^{-1/2} diverges but never reaches the big-value threshold nearby
    res = quad.sup_over(lambda t: 1.0 / np.sqrt(t), 0.0, 1.0)
    assert res.unbounded


def test_sup_never_below_samples():
    h = lambda t: -((np.asarray(t) - 0.3) ** 2)
    res = quad.sup_over(h, 0.0, 1.0)
    assert res.sup_value >= -1e-12
    assert res.sup_value == pytest.approx(0.0, abs=1e-9)
