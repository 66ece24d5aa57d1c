"""Solution representation and perturbation experiments."""

import math

import numpy as np
import pytest

from conftest import make_problem
from ulamstab import corpus, dynamics, exprlang, quad
from ulamstab.dynamics import (
    IvpData,
    RatioExceedsConstant,
    SolutionEngine,
    SolutionFamilyParams,
)
from ulamstab.model import Config, Interval, probe_grid
from ulamstab.stability import StabilityEngine

EXEQ02 = ("1", "2/t", "0", "-1", 1.0, math.inf)
EXEQ05 = ("1", "2/t", "1", "0", 0.0, math.inf)
EXEQ05_WITNESS = "eps/(8*t)*(cos(t) + 2*t*sin(t) - 2*t^2*cos(t))"


def _engine(p, r, cfg):
    return SolutionEngine(StabilityEngine(p, r, cfg))


@pytest.fixture(scope="module")
def eng01(exeq01, cfg):
    return _engine(*exeq01, cfg)


@pytest.fixture(scope="module")
def eng03(exeq03, cfg):
    return _engine(*exeq03, cfg)


def test_representation_matches_closed_form(eng01):
    # x(t) = 2 - 1/(4t) - t solves the IVP x(1/2)=1, x'(1/2)=0
    x = eng01.representation(IvpData(0.5, 1.0, 0.0))
    ts = np.linspace(0.1, 0.9, 33)
    assert np.max(np.abs(x(ts) - (2.0 - 1.0 / (4.0 * ts) - ts))) < 1e-9


def test_zero_ivp_gives_zero(eng01):
    z = eng01.representation(IvpData(0.5, 0.0, 0.0))
    assert np.max(np.abs(z(np.linspace(0.1, 0.9, 17)))) == 0.0


def test_representation_vs_rk_oracle(exeq03, eng03):
    p, _ = exeq03
    ivp = IvpData(0.5, 0.3, -0.2)
    x = eng03.representation(ivp, forcing_key="problem")
    ts = np.linspace(0.05, 0.95, 41)
    oracle = dynamics.ivp_solution(p, (ivp,), ts, (None,))[0]
    assert np.max(np.abs(x(ts) - oracle)) < 1e-6


def test_homogeneous_member_solves_equation(exeq03, eng03):
    # w(t0)=d2, w'(t0)=d1 + rho(t0) d2; compare against direct integration
    d1, d2 = 0.7, -0.3
    w = eng03.homogeneous(0.5, SolutionFamilyParams(d1, d2))
    rho0 = -1.0 / 0.5
    ivp = IvpData(0.5, d2, d1 + rho0 * d2)
    p, _ = exeq03
    ts = np.linspace(0.05, 0.95, 41)
    zero = lambda s: np.zeros_like(np.asarray(s, float))
    oracle = dynamics.ivp_solution(p, (ivp,), ts, (zero,))[0]
    assert np.max(np.abs(w(ts) - oracle)) < 1e-6


def test_coverage_exceeded(eng01):
    x = eng01.representation(IvpData(0.5, 1.0, 0.0))
    with pytest.raises(quad.CoverageError):
        x(np.array([1.5]))


@pytest.mark.parametrize(
    "name, case",
    [("exeq01", "iii"), ("const-i", "i"), ("const-ii", "ii"), ("const-iii", "iii")],
    ids=["exeq01", "const-i", "const-ii", "const-iii"],
)
def test_extremal_reproduces_best_constant(cfg, name, case):
    # each case row of the kernel table: cache, edge and signs of (d1, d2)
    variant = corpus.get(name).default
    p, r = corpus.build(variant)
    exp = dynamics.extremal_experiment(_engine(p, r, cfg), case, 0.1)
    assert exp.ratio == pytest.approx(variant.expected_B, rel=1e-6)


def test_solution_engine_reads_stability_h1(exeq01, cfg):
    p, r = exeq01
    se = StabilityEngine(p, r, cfg)
    eng = SolutionEngine(se)
    assert eng.H1c is se.H1
    assert eng.problem is p


def test_every_sup_reads_the_engine_config(exeq03, monkeypatch):
    # the f-sups, the kernel and the extremal distance all search with the
    # engine config's scan, divergence threshold and tail length
    calls = []
    sup_over = quad.sup_over

    def recording(h, lo, hi, **kwargs):
        calls.append(kwargs)
        return sup_over(h, lo, hi, **kwargs)

    monkeypatch.setattr(quad, "sup_over", recording)
    cfg = Config(tail_k=5)
    eng = _engine(*exeq03, cfg)
    case = eng.se.classify().case
    eng.se.ulam_constant(case)
    dynamics.extremal_experiment(eng, case, 0.1)
    want = {"n_scan": cfg.sup_scan, "threshold": cfg.divergence_threshold, "tail_k": 5}
    assert len(calls) >= 3 and all(kwargs == want for kwargs in calls)


def test_extremal_linear_in_epsilon(eng01):
    e1 = dynamics.extremal_experiment(eng01, "iii", 0.05)
    e2 = dynamics.extremal_experiment(eng01, "iii", 0.2)
    assert e2.sup_distance == pytest.approx(4.0 * e1.sup_distance, rel=1e-6)
    assert e2.ratio == pytest.approx(e1.ratio, rel=1e-6)


def test_epsilon_must_be_positive(eng01):
    with pytest.raises(ValueError):
        dynamics.extremal_experiment(eng01, "iii", 0.0)
    with pytest.raises(ValueError):
        dynamics.random_perturbation_test(eng01, -1.0, 4, 7, 0.5)


def test_random_trials_stay_under_constant(eng01):
    max_ratio, records = dynamics.random_perturbation_test(eng01, 0.1, 4, 11, 0.5)
    assert len(records) == 4
    assert 0.0 < max_ratio <= 0.5 * 1.02
    assert all(rec["ratio"] <= 0.5 * 1.02 for rec in records)


def test_random_trials_are_seed_deterministic(eng01):
    a, _ = dynamics.random_perturbation_test(eng01, 0.1, 3, 5, 0.5)
    b, _ = dynamics.random_perturbation_test(eng01, 0.1, 3, 5, 0.5)
    assert a == b


def test_ratio_exceeds_constant_raises(eng01):
    with pytest.raises(RatioExceedsConstant):
        dynamics.random_perturbation_test(eng01, 0.1, 4, 7, 1e-6)


def test_nearest_solution_recovers_member(eng01):
    member = eng01.homogeneous(0.5, SolutionFamilyParams(0.4, 0.9))
    out = dynamics.nearest_solution(member, eng01)
    assert out["sup_distance"] < 1e-8


def _reference_min_sup_distance(target, basis):
    """The nearest-solution fit on complex arrays, as every fit once ran."""
    scale = float(np.max(np.abs(target))) or 1.0
    m1, m2 = (scale / (float(np.max(np.abs(b))) or 1.0) for b in basis)
    starts = [(s1 * m1, s2 * m2) for s1 in (-1.0, 0.0, 1.0) for s2 in (-1.0, 0.0, 1.0)]

    def objective(c):
        diff = target - sum(ck * bk for ck, bk in zip(c, basis))
        m = np.abs(diff)
        return float(np.max(m)) if np.all(np.isfinite(m)) else 1e300

    best = None
    for start in starts:
        res = dynamics._scipy_minimize(
            objective,
            np.asarray(start, float),
            method="Nelder-Mead",
            options={"xatol": 1e-12 * max(scale, 1.0), "fatol": 1e-14 * max(scale, 1.0), "maxiter": 2000},
        )
        if best is None or res.fun < best.fun:
            best = res
    return best.x, float(best.fun)


def _family(t0):
    """y1, y2 and the particular solution p, with the probe's forcings."""
    return (IvpData(t0, 1.0, 0.0), IvpData(t0, 0.0, 1.0), IvpData(t0, 0.0, 0.0)), (0.0, 0.0, None)


@pytest.mark.parametrize(
    "coeffs, t0, ts",
    [
        (EXEQ02, 2.0, [5.0, 1.5, 2.0, 30.0, 1.5, 1.1, 10.0, 5.0, 1.0 + 1e-6]),
        (EXEQ05, 1.0, [0.01, 3.0, 1.0, 0.5, 3.0, 20.0, 0.01, 1e-5]),
    ],
    ids=["exeq02", "exeq05"],
)
def test_stacked_ivp_matches_single_solves(coeffs, t0, ts):
    # unsorted points on both sides of t0, with duplicates and t0 itself
    p = make_problem(*coeffs)
    ts = np.asarray(ts)
    ivps, forcings = _family(t0)
    zero = lambda s: np.zeros_like(np.asarray(s, float))
    stacked = dynamics.ivp_solution(p, ivps, ts, forcings)
    assert stacked.shape == (3, ts.size)
    for row, ivp, f in zip(stacked, ivps, (zero, zero, None)):
        single = dynamics.ivp_solution(p, (ivp,), ts, (f,))[0]
        assert single.shape == ts.shape
        scale = float(np.max(np.abs(single)))
        assert np.max(np.abs(row - single)) <= 1e-8 * scale
        assert row[ts == t0] == pytest.approx(complex(ivp.x0), abs=0.0)
    dup = np.flatnonzero(ts == ts[0])
    assert len(dup) == 2 and np.all(stacked[:, dup[0]] == stacked[:, dup[1]])


def test_stacked_ivp_requires_common_t0():
    p = make_problem(*EXEQ02)
    with pytest.raises(ValueError):
        dynamics.ivp_solution(p, (IvpData(2.0, 1.0), IvpData(3.0, 1.0)), [2.5], (0.0, 0.0))


def test_ivp_solution_reports_failed_solve(monkeypatch):
    # a solve that stops early returns fewer points than asked for; it must
    # not be read as a solution
    class Stopped:
        success = False
        message = "Required step size is less than spacing between numbers."

    monkeypatch.setattr(dynamics, "_scipy_solve_ivp", lambda *args, **kwargs: Stopped())
    with pytest.raises(ValueError, match="step size"):
        dynamics.ivp_solution(make_problem(*EXEQ02), (IvpData(2.0, 1.0),), [2.5, 3.0], (None,))


@pytest.fixture
def solver_calls(monkeypatch):
    """Count `ivp_solution` calls and the scipy solves under them."""
    calls = {"ivp_solution": 0, "solve_ivp": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(dynamics, "ivp_solution", counting("ivp_solution", dynamics.ivp_solution))
    monkeypatch.setattr(dynamics, "_scipy_solve_ivp", counting("solve_ivp", dynamics._scipy_solve_ivp))
    return calls


@pytest.mark.parametrize(
    "coeffs, witness",
    [(EXEQ02, "(eps - 1)*t^2/6"), (EXEQ05, EXEQ05_WITNESS)],
    ids=["exeq02", "exeq05"],
)
def test_instability_probe_integrates_once(solver_calls, cfg, coeffs, witness):
    out = dynamics.instability_probe(make_problem(*coeffs), exprlang.parse(witness), 0.1, cfg)
    assert len(out["trace"]) == 3
    assert solver_calls["ivp_solution"] == 1
    assert solver_calls["solve_ivp"] <= 2


def test_min_sup_distance_real_path_is_bit_identical(cfg):
    # exeq02's probe data on the T = 10 truncation, and random real data
    p = make_problem(*EXEQ02)
    grid = probe_grid(Interval.open(1.0, 10.0), cfg.probe_points, cfg.range_cap)
    ivps, forcings = _family(2.0)
    y1, y2, part = dynamics.ivp_solution(p, ivps, grid, forcings)
    xi = exprlang.compile_expr(exprlang.parse("(eps - 1)*t^2/6"), {"eps": 0.1})
    rng = np.random.default_rng(3)
    cases = [(np.asarray(xi(grid), dtype=complex) - part, (y1, y2))]
    cases.append((rng.normal(size=200) + 0j, (rng.normal(size=200) + 0j, np.linspace(-1.0, 3.0, 200) + 0j)))
    for target, basis in cases:
        assert not np.any(target.imag) and not np.any(basis[0].imag) and not np.any(basis[1].imag)
        got_c, got_d = dynamics._min_sup_distance(target, basis)
        ref_c, ref_d = _reference_min_sup_distance(target, basis)
        assert np.array_equal(got_c, ref_c) and got_d == ref_d


def test_nearest_solution_complex_member(eng01):
    # real coefficients cannot absorb the imaginary part 0.2j of d1, so the
    # distance is 0.2 sup|w1| (a fit of the real parts alone would give 0);
    # the optimal coefficients are not unique here
    member = eng01.homogeneous(0.5, SolutionFamilyParams(0.4 + 0.2j, 0.9))
    out = dynamics.nearest_solution(member, eng01)
    grid = eng01.experiment_grid(0.5)
    w1 = eng01.homogeneous(0.5, SolutionFamilyParams(1.0, 0.0))(grid)
    w2 = eng01.homogeneous(0.5, SolutionFamilyParams(0.0, 1.0))(grid)
    assert out["sup_distance"] == pytest.approx(0.2 * float(np.max(np.abs(w1))), rel=1e-6)
    ref_c, ref_d = _reference_min_sup_distance(np.asarray(member(grid)), (w1, w2))
    assert out["sup_distance"] == ref_d
    assert np.array_equal([out["params"].d1, out["params"].d2], ref_c)


def test_instability_probe_exeq02(cfg):
    p = make_problem("1", "2/t", "0", "-1", 1.0, math.inf, name="exeq02")
    out = dynamics.instability_probe(p, exprlang.parse("(eps - 1)*t^2/6"), 0.1, cfg)
    assert out["residual_sup"] == pytest.approx(0.1, rel=1e-9)
    assert out["growth_ok"]
    dists = [rec["sup_distance"] for rec in out["trace"]]
    assert dists[1] >= 10.0 * dists[0] and dists[2] >= 10.0 * dists[1]
    # pinned, so that a change in the coefficient or fit numerics shows
    assert dists == pytest.approx([0.5634384017071673, 76.8162302578564, 8184.073571855228], rel=1e-10)


def test_instability_probe_exeq05(cfg):
    p = make_problem("1", "2/t", "1", "0", 0.0, math.inf, name="exeq05")
    wit = exprlang.parse("eps/(8*t)*(cos(t) + 2*t*sin(t) - 2*t^2*cos(t))")
    out = dynamics.instability_probe(p, wit, 0.1, cfg)
    assert out["residual_sup"] <= 0.1 * (1.0 + 1e-4)
    assert out["growth_ok"]
    # pinned more loosely than exeq02: Nelder-Mead stops in an
    # ill-conditioned valley here (see CHANGES.md)
    dists = [rec["sup_distance"] for rec in out["trace"]]
    assert dists == pytest.approx([0.23560869994576542, 2.4345199545009493, 24.974391643544884], rel=1e-5)
