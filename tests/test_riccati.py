"""Riccati companion equation: residuals, numeric solving, coverage."""

import math

import numpy as np
import pytest

from conftest import make_problem
from ulamstab import exprlang, riccati


def test_residual_exact_candidate(exeq01):
    p, rho = exeq01
    assert riccati.residual_sup(p, rho) < 1e-12


def test_residual_exact_tan_candidate():
    p = make_problem("1", "2/t", "1", "0", 0.0, 1.0)
    assert riccati.residual_sup(p, exprlang.parse("-tan(t) - 1/t")) < 1e-12


def test_residual_rejects_wrong_candidate(exeq01):
    p, _ = exeq01
    assert riccati.residual_sup(p, exprlang.parse("-2/t")) > 1e-3


def test_solve_riccati_reproduces_analytic(exeq01):
    p, _ = exeq01
    sol = riccati.solve_riccati(p, 0.5, -2.0)
    ts = np.linspace(0.05, 0.95, 181)
    assert np.max(np.abs(sol(ts) - (-1.0 / ts))) < 1e-8


def test_solve_riccati_residual_passes_gate(exeq01):
    p, _ = exeq01
    sol = riccati.solve_riccati(p, 0.5, -2.0)
    assert riccati.residual_sup(p, sol) <= riccati.RESIDUAL_TOL


def test_blowup_detected_before_pole():
    # rho' + rho^2 + 1 = 0 from rho(0)=0 is -tan(t): pole at pi/2
    p = make_problem("1", "0", "1", "0", 0.0, 2.0)
    sol = riccati.solve_riccati(p, 1e-6, 0.0)
    assert sol.blowup_upper
    assert sol.hi < math.pi / 2 + 1e-3


def test_coverage_full(exeq01):
    p, rho = exeq01
    cov = riccati.rho_coverage(p, rho)
    assert cov.full
    assert (cov.lo, cov.hi) == (0.0, 1.0)


def test_coverage_reduced_by_interior_pole():
    p = make_problem("1", "2/t", "1", "0", 0.0, math.inf)
    cov = riccati.rho_coverage(p, exprlang.parse("-tan(t) - 1/t"))
    assert not cov.full
    assert cov.hi == pytest.approx(math.pi / 2, abs=1e-2)
    # the detail names the range reported, resolved lower edge included
    assert cov.lo == 0.0
    assert cov.detail.endswith(f"coverage limited to [{cov.lo:.6g}, {cov.hi:.6g}]")


def test_coverage_between_two_interior_poles():
    # tan has poles at pi/2 and 3 pi/2 on either side of the anchor 3, so the
    # good run ends next to a bad sample on both sides
    p = make_problem("1", "0", "1", "0", 0.0, 6.0)
    assert p.domain.default_anchor() == 3.0
    cov = riccati.rho_coverage(p, exprlang.parse("tan(t)"))
    assert not cov.full
    assert cov.lo == pytest.approx(math.pi / 2, abs=1e-2) and cov.lo > math.pi / 2
    assert cov.hi == pytest.approx(3 * math.pi / 2, abs=1e-2) and cov.hi < 3 * math.pi / 2
