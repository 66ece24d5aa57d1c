"""Riccati companion equation: residuals, numeric solving, coverage.

`solve_riccati` reads rho = x'/x off the collocation panels of x; its rho
is checked against closed forms and against x'/x of the independent DOP853
integration in `ivp_oracle`.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import coverage_oracle
from conftest import make_problem
from ivp_oracle import dop853_state
from ulamstab import exprlang, riccati, stability
from ulamstab.dynamics import IvpData
from ulamstab.model import Endpoint, Interval, OscillatorProblem, probe_grid, problem_from_dict

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


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


@pytest.mark.parametrize(
    "name, rho0, closed_form",
    [
        ("exeq01", -2.0, 0.5),
        ("exeq04", -math.tan(0.5) - 2.0, 1.0 - math.sin(1.0)),
        ("exeq06", -2.0, 1.0 / 6.0),
    ],
    ids=["exeq01", "exeq04", "exeq06"],
)
def test_solve_rho_best_constant_matches_closed_form(name, rho0, closed_form):
    # the numeric companion from t0 = 0.5 reaches 1e-12 of both singular ends
    problem = problem_from_dict(json.loads((PROBLEMS / f"{name}.json").read_text()))
    sol = riccati.solve_riccati(problem, 0.5, rho0)
    assert (sol.lo, sol.hi) == (1e-12, 1.0 - 1e-12)
    assert not (sol.blowup_lower or sol.blowup_upper)
    report = stability.analyze(problem, sol, best=True)
    assert report.verdict == "best_constant"
    assert report.constant["B"] == pytest.approx(closed_form, rel=1e-11)


def test_solve_riccati_complex_rho0_is_the_oracle_ratio(exeq01):
    # x never vanishes for a complex rho0 with real coefficients; rho is x'/x
    p, _ = exeq01
    rho0 = -2.0 + 0.5j
    sol = riccati.solve_riccati(p, 0.5, rho0)
    assert not (sol.blowup_lower or sol.blowup_upper)
    ts = np.linspace(0.05, 0.95, 37)
    x, xp = dop853_state(p, IvpData(0.5, 1.0, rho0), ts)
    want = xp / x
    assert np.max(np.abs(sol(ts) - want) / np.abs(want)) < 1e-9
    assert riccati.residual_sup(p, sol) <= riccati.RESIDUAL_TOL


def test_solve_riccati_derivative_is_differentiated(exeq01):
    # rho = -1/t, so rho' = 1/t^2; `derivative` reads x'' off the panels
    p, _ = exeq01
    sol = riccati.solve_riccati(p, 0.5, -2.0)
    ts = np.concatenate([np.geomspace(1e-6, 0.5, 40), 1.0 - np.geomspace(1e-6, 0.5, 40)])
    assert np.max(np.abs(sol.derivative(ts) * ts**2 - 1.0)) < 1e-8
    assert sol(0.25) == pytest.approx(-4.0, rel=1e-12)


@pytest.mark.parametrize(
    "alpha, beta",
    [("t - 0.75", "1"), ("(t - 0.75)^2", "1"), ("1", "1/(t - 0.75)")],
    ids=["alpha-zero", "alpha-double-zero", "beta-pole"],
)
def test_unresolved_side_is_blowup_data(alpha, beta):
    # collocation cannot resolve x next to t = 0.75: the upper side ends at
    # its last resolved panel, recorded as a blow-up, and nothing is raised
    p = make_problem(alpha, beta, "1", "0", 0.0, 1.0)
    sol = riccati.solve_riccati(p, 0.5, -1.0)
    assert sol.blowup_upper and 0.7 < sol.hi < 0.75
    assert not sol.blowup_lower and sol.lo == 1e-12
    assert np.all(np.isfinite(sol(np.linspace(0.1, sol.hi, 50))))
    cov = riccati.rho_coverage(p, sol)
    assert not cov.full and cov.hi == sol.hi


@pytest.mark.parametrize(
    "alpha, beta",
    [("t - 0.75", "1"), ("1", "1/(t - 0.75)")],
    ids=["alpha-zero", "beta-pole"],
)
def test_side_with_no_panels_is_blowup_at_t0(alpha, beta):
    # with t0 on the zero of alpha or the pole of beta, the first panel of
    # each side has its bad node at t0: neither side keeps a panel, and each
    # ends as a blow-up at t0 instead of raising
    p = make_problem(alpha, beta, "1", "0", 0.0, 1.0)
    sol = riccati.solve_riccati(p, 0.75, -1.0)
    assert (sol.lo, sol.hi) == (0.75, 0.75)
    assert sol.blowup_lower and sol.blowup_upper
    assert sol._sides == (None, None)


@pytest.mark.parametrize("rho0", [1e19, 1e25, 1e100, -1e25, -1e100])
def test_zero_within_an_ulp_of_t0_is_a_blowup(exeq01, rho0):
    # x = 1 + rho0 (t - 0.5) + ... vanishes within 1/|rho0| of t0, below it
    # for rho0 > 0: past that zero rho = x'/x is near 1/(t - t0), which
    # solves the equation too, and the stability engine must not integrate
    # across the pole at its anchor
    p, _ = exeq01
    sol = riccati.solve_riccati(p, 0.5, rho0)
    assert (sol.blowup_lower, sol.blowup_upper) == (rho0 > 0, rho0 < 0)
    assert (sol.lo if rho0 > 0 else sol.hi) == pytest.approx(0.5, abs=1e-14)
    assert stability.analyze(p, sol, best=True).verdict != "best_constant"


@pytest.mark.parametrize(
    "lo, hi, t0",
    [(-math.inf, math.inf, 0.0), (0.0, math.inf, 1.0), (-40.0, 40.0, 0.0)],
    ids=["line", "half-line", "const-iii"],
)
def test_solve_rho_ends_short_of_far_ends_without_blowup(lo, hi, t0):
    # rho0 = -2 makes x = exp(-2 (t - t0)), which decays against exp(-t):
    # the upper side ends where x would hold fewer than 8 digits, a whole
    # lower side where its panels run out, and neither is a blow-up
    p = make_problem("1", "3", "2", "0", lo, hi)
    sol = riccati.solve_riccati(p, t0, -2.0)
    assert not (sol.blowup_lower or sol.blowup_upper)
    assert 10.0 < sol.hi - t0 < 20.0
    assert sol.lo < -1e4 if lo == -math.inf else sol.lo == lo + 1e-12 * max(1.0, abs(lo))
    ts = np.linspace(max(sol.lo, -100.0), sol.hi, 201)
    assert np.max(np.abs(sol(ts) + 2.0)) < 2e-8
    cov = riccati.rho_coverage(p, sol)
    assert cov.full and (cov.lo, cov.hi) == (sol.lo, sol.hi)
    assert cov.detail.startswith("numeric solution resolved only on")
    report = stability.analyze(p, sol, best=True)
    assert report.verdict == "best_constant"
    # B of the interval the solution covers: on the half-line (1e-12, 16) it
    # is 1.1e-7 below the 1/2 of (0, inf)
    assert report.constant["B"] == pytest.approx(0.5, rel=1e-6)


def test_pole_ends_the_march_at_its_chunk():
    # exeq05's equation from t0 = 1 with rho0 = -tan(1) - 1: x = cos(t)/(t cos 1),
    # whose zero at pi/2 lies in the first chunk, [1, 2], of the infinite side
    p = make_problem("1", "2/t", "1", "0", 0.0, math.inf)
    sol = riccati.solve_riccati(p, 1.0, -math.tan(1.0) - 1.0)
    assert sol.blowup_upper and sol.hi == pytest.approx(math.pi / 2, abs=1e-12)
    assert sol._sides[1][0][0].size < 50


def test_anchor_reads_the_side_with_panels():
    # t0 at the closed lower end: t0 reads the upper side, below it is NaN
    p = OscillatorProblem(*(exprlang.parse(e) for e in ("1", "0", "1", "0")), Interval(Endpoint(0.5, True), Endpoint(2.0)), {}, "")
    sol = riccati.solve_riccati(p, 0.5, -math.tan(0.5))
    assert sol._sides[0] is None and sol.lo == 0.5 and not sol.blowup_lower
    assert sol(0.5) == pytest.approx(-math.tan(0.5), rel=1e-14)
    assert sol(0.7) == pytest.approx(-math.tan(0.7), rel=1e-12)
    assert np.isnan(sol(0.4))


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


def _coverage_cases():
    """(problem, rho) pairs whose poles lie within and beyond the first window's reach, on both sides."""
    for path in sorted(PROBLEMS.glob("*.json")):
        p = problem_from_dict(json.loads(path.read_text()))
        yield p, p.rho
    one = exprlang.parse("1")
    for lo, hi, closed in ((0.0, 6.0, False), (0.0, 6.0, True), (0.0, math.inf, False), (1.0, math.inf, False), (-math.inf, math.inf, False)):
        domain = Interval(Endpoint(lo, True), Endpoint(hi, True)) if closed else Interval.open(lo, hi)
        p = OscillatorProblem(one, exprlang.parse("0"), one, exprlang.parse("0"), domain)
        anchor = p.domain.default_anchor()
        texts = [f"{c}*tan({k}*t + {ph})" for c in (1, -0.25) for k in (1, 0.25, 3) for ph in (0, 0.4, -1.2)]
        for d in (-40.1, -4.3, -1.3, -1.005, -0.5, 0.0, 1e-3, 0.5, 1.005, 1.3, 4.3, 40.1):
            if p.domain.contains(anchor + d):
                # 300/(t - p) and 1e8/(t - p) pass the flip test's 100 between
                # grid points 3 and 1e6 apart: the grid beyond the reach is
                # only probe points until its side is evaluated whole
                texts += [f"{c}/(t - {anchor + d!r})" for c in (1, 300, 1e8)]
                # at least 1e12 within 0.13 of the anchor: the nearest good sample is looked for
                texts.append(f"1e13/(1 + ((t - {anchor!r})/0.1)^8) + 300/(t - {anchor + d!r})")
        # complex only at the probe point nearest the anchor, in the grid's first block
        grid = probe_grid(domain)
        c = float(grid[np.argmin(np.abs(grid - anchor))])
        texts.append(f"300/(t - {anchor + 40.1!r}) + 1e-3*i*exp(-((t - {c!r})/1e-6)^2)")
        texts.append("-2 - 0.5*i")
        for text in texts:
            yield p, exprlang.parse(text)


def test_coverage_is_the_full_grid_coverage():
    # the nearest bad samples around the anchor, found without the whole
    # grid, give the coverage of the whole grid, field for field
    cases = list(_coverage_cases())
    assert len(cases) > 150
    for p, rho in cases:
        assert riccati.rho_coverage(p, rho) == coverage_oracle.rho_coverage(p, rho), (p.domain, rho)


def test_coverage_evaluates_rho_only_up_to_the_pole():
    # exeq05's pole at pi/2 lies within the first window's reach, so the
    # windows out to 1e8 (about 55,000 points in all) are not evaluated
    p = problem_from_dict(json.loads((PROBLEMS / "exeq05.json").read_text()))
    fn, points = p.bind(p.rho), []

    def counting(t):
        points.append(np.size(t))
        return fn(t)

    cov = riccati.rho_coverage(p, counting)
    assert cov == riccati.rho_coverage(p, p.rho)
    assert not cov.full and cov.hi < math.pi / 2
    assert sum(points) <= 6000


def test_coverage_keeps_the_flip_test_of_a_rho_real_where_evaluated():
    # tan(t) with a narrow imaginary bump at a grid point 30 past the pole:
    # the whole grid sees it and switches the sign-flip test off, so the
    # pole at pi/2 goes unseen; evaluated up to the pole, rho is real
    p = make_problem("1", "0", "1", "0", 0.0, math.inf)
    c = float(np.linspace(0.0, 65.0, 2048)[1000])  # a point of the window 64 wide
    rho = exprlang.parse(f"tan(t) + 1e-3*i*exp(-((t - {c!r})/1e-6)^2)")
    assert abs(p.bind(rho)(c).imag) == 1e-3
    assert coverage_oracle.rho_coverage(p, rho).full
    cov = riccati.rho_coverage(p, rho)
    assert not cov.full and cov.hi == pytest.approx(math.pi / 2, abs=1e-2) and cov.hi < math.pi / 2


def test_sign_flips_are_found_across_blocks():
    # rho alternating between 1000 and -1000 flips between every pair of
    # samples, the pairs that straddle two blocks included
    n = 3 * riccati._BLOCK + 5
    grid = np.arange(n, dtype=float)
    vals = np.where(np.arange(n) % 2 == 0, 1000.0, -1000.0).astype(complex)
    assert np.array_equal(riccati._bad_samples(grid, vals), np.arange(n) < n - 1)
    # one complex sample in the first block switches the flip test off everywhere
    vals[0] = 1000.0 + 1.0j
    assert not np.any(riccati._bad_samples(grid, vals))
