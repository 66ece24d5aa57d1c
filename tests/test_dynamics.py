"""Solution representation and perturbation experiments."""

import dataclasses
import hashlib
import itertools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linprog

import exchange_oracle
from conftest import PROBLEMS, corpus_entry, empirical_run, make_problem, problem_document
from ivp_oracle import dop853
from ulamstab import collocation, corpus, dynamics, exprlang, quad
from ulamstab.dynamics import (
    IvpData,
    SolutionEngine,
    SolutionFamilyParams,
)
from ulamstab.model import Interval, probe_grid
from ulamstab.stability import StabilityEngine, analyze

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
    # x(t) = 2 - 1/(4t) - t solves the IVP x(1/2)=1, x'(1/2)=0 at the anchor 1/2
    assert eng01.se.anchor == 0.5
    x = eng01.representation(1.0, 0.0)
    ts = np.linspace(0.1, 0.9, 33)
    assert np.max(np.abs(x(ts) - (2.0 - 1.0 / (4.0 * ts) - ts))) < 1e-9


def test_zero_ivp_gives_zero(eng01):
    z = eng01.representation(0.0, 0.0)
    assert np.max(np.abs(z(np.linspace(0.1, 0.9, 17)))) == 0.0


def test_representation_vs_rk_oracle(exeq03, eng03):
    p, _ = exeq03
    ivp = IvpData(eng03.se.anchor, 0.3, -0.2)
    x = eng03.representation(ivp.x0, ivp.x0p, forcing_key="problem")
    ts = np.linspace(0.05, 0.95, 41)
    oracle = dynamics.ivp_solution(p, (ivp,), ts, (None,))[0]
    assert np.max(np.abs(x(ts) - oracle)) < 1e-6


def test_homogeneous_member_solves_equation(exeq03, eng03):
    # w = d2, w' = d1 + rho d2 at the anchor t0; compare against direct integration
    d1, d2 = 0.7, -0.3
    w = eng03.homogeneous(SolutionFamilyParams(d1, d2))
    t0 = eng03.se.anchor
    rho0 = -1.0 / t0
    ivp = IvpData(t0, d2, d1 + rho0 * d2)
    p, _ = exeq03
    ts = np.linspace(0.05, 0.95, 41)
    zero = lambda s: np.zeros_like(np.asarray(s, float))
    oracle = dynamics.ivp_solution(p, (ivp,), ts, (zero,))[0]
    assert np.max(np.abs(w(ts) - oracle)) < 1e-6


def test_coverage_exceeded(eng01):
    x = eng01.representation(1.0, 0.0)
    with pytest.raises(quad.CoverageError):
        x(np.array([1.5]))


@pytest.mark.parametrize(
    "name, case",
    [("exeq01", "iii"), ("const-i", "i"), ("const-ii", "ii"), ("const-iii", "iii")],
    ids=["exeq01", "const-i", "const-ii", "const-iii"],
)
def test_extremal_reproduces_best_constant(cfg, name, case):
    # each case row of the kernel table: cache, edge and signs of (d1, d2)
    variant = corpus_entry(name).default
    p, r = corpus.build(variant)
    exp = dynamics.extremal_experiment(_engine(p, r, cfg), case)
    assert exp["ratio"] == pytest.approx(variant.expected_B, rel=1e-6)


def test_complex_extremal_member_is_the_nearest_solution(cfg, eng01):
    # the proof's member reads real-data kernels, and on this problem its
    # distance at unit scale is 345; the nearest member on the grid stays
    # under L = 1/2 (characteristic roots -1 + 0.5i and -2 - 0.5i)
    p = make_problem("1", "3", "2.25 - 0.5*i", "0", -40.0, 40.0)
    rho = exprlang.parse("-2 - 0.5*i")
    se = StabilityEngine(p, rho, cfg)
    rep = analyze(p, rho, cfg, best=True, engine=se)
    exp = dynamics.extremal_experiment(SolutionEngine(se), rep.case)
    assert 0.4 < exp["ratio"] <= rep.constant["L"]
    assert exp["detail"]["member"] == "nearest-solution fit on the experiment grid"
    assert "member" not in dynamics.extremal_experiment(eng01, "iii")["detail"]


def test_solution_engine_reads_stability_h1(exeq01, cfg):
    p, r = exeq01
    se = StabilityEngine(p, r, cfg)
    eng = SolutionEngine(se)
    assert eng.H1c is se.H1
    assert eng.problem is p


def test_members_read_the_forcing_free_caches_once_per_grid(exeq03, cfg, monkeypatch):
    # Rc and H1 do not depend on the forcing: the basis and every trial's
    # member read them on the experiment grid, and each cache remembers its
    # recent reads, so each takes one Clenshaw pass there between them
    eng = _engine(*exeq03, cfg)
    reads = []  # (cache name, points) of each Clenshaw pass
    for name in ("Rc", "H1"):
        cache = getattr(eng.se, name)
        monkeypatch.setattr(cache, "_locate", lambda t, name=name, locate=cache._locate: reads.append((name, t.tobytes())) or locate(t))
    grid = eng.experiment_grid()
    dynamics.random_perturbation_test(eng, 3, 7)
    assert reads.count(("Rc", grid.tobytes())) == reads.count(("H1", grid.tobytes())) == 1
    # a member reads the same bits as on an engine that never read the grid
    g = lambda t: 0.1 * np.cos(t)
    got = eng.representation(0.0, 0.0, forcing=g)(grid)
    fresh = _engine(*exeq03, cfg)
    assert got.tobytes() == fresh.representation(0.0, 0.0, forcing=g)(grid).tobytes()


def _anchor_problem(name):
    """(problem, rho) of a corpus default, the complex document or exeq03 times -1."""
    if name == "const-iii-complex":
        return make_problem("1", "3", "2.25 - 0.5*i", "0", -40.0, 40.0), exprlang.parse("-2 - 0.5*i")
    if name == "exeq03-negated":
        return make_problem("-1", "-2/t", "0", "1", 0.0, 1.0), exprlang.parse("-1/t")
    return corpus.build(corpus_entry(name).default)


@pytest.mark.parametrize("name", [entry.name for entry in corpus.entries()] + ["const-iii-complex", "exeq03-negated"])
def test_every_cache_reads_zero_at_the_anchor(name, cfg):
    # the members and certificates take their data at the anchor and read no
    # cache there: every cache, the unit forcing's and a replayed trial's
    # included, is anchored at it and reads exactly 0 there
    se = StabilityEngine(*_anchor_problem(name), cfg)
    eng = SolutionEngine(se)
    caches = {key: getattr(se, key) for key in ("Rc", "Pc", "A2", "A4", "C1", "C3", "H1")}
    caches.update(zip(("unit F", "unit H2"), eng.forcing_caches(dynamics._unit, key="unit")))
    g, _ = dynamics._random_smooth(np.random.default_rng([7, 0]), eng.experiment_grid())
    caches.update(zip(("trial F", "trial H2"), eng.forcing_caches(g)))
    assert eng.replay_counts["fallbacks"] == 0
    at = np.array([se.anchor])
    for key, cache in caches.items():
        assert cache.t_ref == se.anchor, key
        assert cache.value(at).tolist() == [0.0], key


def test_extremal_linear_in_epsilon(exeq01, cfg, tmp_path):
    # the experiments run at unit scale and `empirical` alone applies
    # epsilon: it scales the reported distance, coefficients and profile only
    eng = _engine(*exeq01, cfg)
    unit = dynamics.extremal_experiment(eng, "iii")
    grid, unit_profile = dynamics.extremal_profile(eng, "iii")
    for eps in (0.05, 0.2):
        experiments, rows = empirical_run(PROBLEMS / "exeq01.json", tmp_path / repr(eps), eps)
        extremal = experiments["extremal"]
        assert extremal["ratio"] == unit["ratio"] and extremal["sup_distance"] == eps * unit["ratio"]
        assert extremal["detail"]["params"] == [eps * d for d in unit["detail"]["params"]]
        assert rows == list(zip(grid.tolist(), (eps * unit_profile).tolist()))


_SWEEP_EPSILONS = [1e-300, 1e-6, 0.1, 1e6, 3e6, 1e7, 1e12, 1e308]


@pytest.mark.parametrize("name", ["exeq01", "exeq03", "const-iii", "const-iii-complex"])
def test_ratios_do_not_depend_on_epsilon(name, cfg, tmp_path):
    # every epsilon, up to the largest double, reports the extremal and
    # trial ratios of the unit-scale experiments, bit for bit
    se = StabilityEngine(*_anchor_problem(name), cfg)
    case = analyze(se.problem, se.rho, cfg, best=True, engine=se).case
    eng = SolutionEngine(se)
    ratio = dynamics.extremal_experiment(eng, case)["ratio"]
    trial_ratios = [rec["ratio"] for rec in dynamics.random_perturbation_test(eng, 4, 7)]
    path = problem_document(tmp_path, name)
    for eps in _SWEEP_EPSILONS:
        experiments, _ = empirical_run(path, tmp_path / repr(eps), eps)
        records = experiments["random"]["records"]
        assert experiments["extremal"]["ratio"] == ratio
        assert [rec["ratio"] for rec in records] == trial_ratios
        assert all(rec["sup_distance"] == eps * rec["ratio"] for rec in records)


@pytest.mark.parametrize("name", ["exeq01", "exeq03", "exeq04", "exeq06", "const-i", "const-ii", "const-iii"])
def test_negated_problem_gives_the_same_extremal_ratio(name, cfg):
    # alpha x'' + beta x' + gamma x = f times -1 has the same solutions and
    # constant; its extremal perturbation is the constant -1, sign(alpha)
    variant = corpus_entry(name).default
    negated = {k: f"-({variant.data[k]})" for k in ("alpha", "beta", "gamma", "forcing")}
    ratios = []
    for data in (variant.data, {**variant.data, **negated}):
        p, r = corpus.build(dataclasses.replace(variant, data=data))
        ratios.append(dynamics.extremal_experiment(_engine(p, r, cfg), variant.expected_case)["ratio"])
    assert ratios[1] == ratios[0]
    assert ratios[0] == pytest.approx(variant.expected_B, rel=1e-6)


def test_random_trials_stay_under_constant(eng01):
    records = dynamics.random_perturbation_test(eng01, 4, 11)
    assert len(records) == 4
    assert 0.0 < max(rec["ratio"] for rec in records) <= 0.5 * 1.02
    assert all(rec["ratio"] <= 0.5 * 1.02 for rec in records)


def test_random_trials_are_seed_deterministic(eng01):
    a = dynamics.random_perturbation_test(eng01, 3, 5)
    b = dynamics.random_perturbation_test(eng01, 3, 5)
    assert a == b


def test_ratio_exceeding_constant_is_recorded(eng01):
    # the trials are returned, not judged: a constant of 1e-6 is exceeded by
    # a recorded ratio, which `empirical` then reports as a dominance failure
    records = dynamics.random_perturbation_test(eng01, 4, 7)
    assert [rec["trial"] for rec in records] == [0, 1, 2, 3]
    assert any(rec["ratio"] > 1e-6 * 1.02 for rec in records)


def test_nearest_solution_recovers_member(eng01):
    member = eng01.homogeneous(SolutionFamilyParams(0.4, 0.9))
    out = dynamics.nearest_solution(member, eng01)
    assert out["sup_distance"] < 1e-8


def _family(t0):
    """y1, y2 and the particular solution p, with the probe's forcings."""
    return (IvpData(t0, 1.0, 0.0), IvpData(t0, 0.0, 1.0), IvpData(t0, 0.0, 0.0)), (0.0, 0.0, None)


def _grid_optimum(target, basis, fit=None):
    """The 40-digit minimax optimum of real data, on the fit's reference.

    Levels the three reference points in mpmath: |h| bounds the optimum from
    below, and the residual of the levelled coefficients over the whole grid
    bounds it from above.  The two must agree to 1e-10.
    """
    fit = fit or dynamics._fit(target, basis)
    rows = [np.asarray(v).real.tolist() for v in (target, *basis)]
    with mpmath.workdps(40):
        y, w1, w2 = ([mpmath.mpf(v) for v in row] for row in rows)
        i, j, k = fit.reference
        lam = [w1[j] * w2[k] - w1[k] * w2[j], w1[k] * w2[i] - w1[i] * w2[k], w1[i] * w2[j] - w1[j] * w2[i]]
        h = (lam[0] * y[i] + lam[1] * y[j] + lam[2] * y[k]) / sum(abs(v) for v in lam)
        m = mpmath.matrix([[w1[r], w2[r]] for r in (i, j)])
        c = mpmath.lu_solve(m, mpmath.matrix([y[r] - mpmath.sign(v) * h for r, v in zip((i, j), lam)]))
        top = max(abs(y[r] - c[0] * w1[r] - c[1] * w2[r]) for r in range(len(y)))
        assert top <= abs(h) * (1 + mpmath.mpf("1e-10"))
        return float(abs(h))


def _brute_optimum(target, basis):
    """Largest levelled |h| over every (m + 1)-point subset: the optimum for m <= 2 columns."""
    W = np.column_stack(basis)
    idx = np.array(list(itertools.combinations(range(target.size), W.shape[1] + 1)))
    sub = W[idx]
    if W.shape[1] == 2:
        lam = np.cross(sub[:, :, 0], sub[:, :, 1])
    else:
        lam = np.column_stack([sub[:, 1, 0], -sub[:, 0, 0]])
    den = np.sum(np.abs(lam), axis=1)
    ok = den > 0
    return float(np.max(np.abs(np.sum(lam * target[idx], axis=1))[ok] / den[ok], initial=0.0))


@pytest.fixture
def fits(monkeypatch):
    """Record every fit as (target, basis, `dynamics._Fit`)."""
    calls = []
    fit = dynamics._fit

    def recording(target, basis):
        out = fit(target, basis)
        calls.append((target, basis, out))
        return out

    monkeypatch.setattr(dynamics, "_fit", recording)
    return calls


@pytest.fixture
def lp_calls(monkeypatch):
    """Count the solves of the exchange's fallback, the barrier fit."""
    calls = []
    barrier_fit = dynamics._barrier_fit

    def counting(*args):
        calls.append(args)
        return barrier_fit(*args)

    monkeypatch.setattr(dynamics, "_barrier_fit", counting)
    return calls


_T = np.linspace(0.0, 1.0, 40)
_W1 = np.cos(3.0 * _T) + 0.1
_W2 = np.exp(_T)
_Y = np.random.default_rng(1).normal(size=_T.size)


@pytest.mark.parametrize(
    "target, basis, one_column, fallback",
    [
        (np.zeros(_T.size), (_W1, _W2), False, False),
        (_Y, (_W1, np.zeros(_T.size)), True, True),
        (_Y, (_W1, 2.0 * _W1), True, True),
        (_Y[:3], (_W1[:3], _W2[:3]), False, False),
        (_Y, (_W1, _W2), False, False),
    ],
    ids=["zero-target", "w2-zero", "w2-twice-w1", "three-points", "generic"],
)
def test_fit_edge_cases(lp_calls, target, basis, one_column, fallback):
    fit = dynamics._fit(target, basis)
    want = _brute_optimum(target, basis[:1] if one_column else basis)
    assert fit.lower <= fit.distance == pytest.approx(want, rel=1e-12, abs=1e-300)
    resid = target - fit.coeffs[0] * basis[0] - fit.coeffs[1] * basis[1]
    assert float(np.max(np.abs(resid))) == pytest.approx(fit.distance, rel=1e-12, abs=1e-300)
    assert fit.distance <= fit.lower * (1.0 + 1e-12)
    assert bool(lp_calls) == fallback


# sha256 of the fits of `test_integer_exchange_is_the_rational_exchange`
# other than those of `_LP_UNCERTIFIED`, as the fallback through HiGHS
# (`scipy.optimize.linprog`) and pivoted QR gave them at commit 2b5d257; the
# digest of all 340 was a3ad5111db7de5a3af380fc75b4b1f73feb3937c5004fe8798ae4d7a318e9115
# there, and so before `_fit` scaled data near overflow
_EXCHANGE_DIGEST = "dc9863d69752ca61ca71abb3af09abf345f214afe7985e6fca8afc69a48c1435"

# the seeded fits (by position) for which that fallback, with the exchange
# failing again from the LP's dual support, returned lower = 0.0, and the
# distance it returned
_LP_UNCERTIFIED = {
    85: float.fromhex("0x1.e494a316b3364p-858"),
    99: float.fromhex("0x1.16122ce8562aap-512"),
    140: float.fromhex("0x1.e0bff2e5baa57p+607"),
    174: float.fromhex("0x1.7108c800e3a6dp-469"),
    225: float.fromhex("0x1.ecdfa23660ee3p+112"),
    254: float.fromhex("0x1.bf76e752e9b3cp-237"),
    259: float.fromhex("0x1.406f2706bd2a4p+46"),
}


def _exchange_case(rng):
    """A seeded real fit: smooth or random columns, the second possibly 0 or
    the first over a power of two, scaled by powers of ten from 1e-300 to
    1e299, with a few subnormal entries now and then."""
    n = int(rng.integers(3, 60))
    t = np.sort(rng.uniform(0.0, 4.0, n))
    smooth = lambda: np.exp(rng.normal() * t) * np.cos(rng.uniform(0.0, 3.0) * t + rng.uniform(0.0, 3.0))
    w1 = smooth() if rng.random() < 0.6 else rng.normal(size=n)
    w2 = smooth() if rng.random() < 0.6 else rng.normal(size=n)
    y = smooth() + 1e-3 * rng.normal(size=n) if rng.random() < 0.5 else rng.normal(size=n)
    # each vector's largest entry is 10^e with e up to 299: Dekker's split
    # multiplies by 2^27 + 1, which overflows beyond about 1.3e300
    e_y = int(rng.integers(-300, 300))
    e_1, e_2 = (int(np.clip(e_y + rng.integers(-8, 9), -300, 299)) for _ in range(2))
    y, w1, w2 = (v / np.max(np.abs(v)) * 10.0**e for v, e in ((y, e_y), (w1, e_1), (w2, e_2)))
    w2 = (w2, np.zeros(n), w1 / 2.0 ** int(rng.integers(0, 9)))[rng.choice(3, p=(0.8, 0.1, 0.1))]
    if rng.random() < 0.25:
        for v in (y, w1, w2):
            v[rng.integers(n, size=2)] = rng.integers(1, 2**40, size=2) * 5e-324
    return y, (w1, w2)


def test_integer_exchange_is_the_rational_exchange(monkeypatch, lp_calls):
    # the same fit, bit for bit, as the exchange levelled in Fractions
    rng = np.random.default_rng(24)
    exchange = dynamics._exchange
    fits = one_column = 0
    digest = hashlib.sha256()
    for case in range(340):
        y, basis = _exchange_case(rng)
        got, want = [], []
        for run, out in ((exchange, got), (exchange_oracle.exchange, want)):
            monkeypatch.setattr(dynamics, "_exchange", run)
            try:
                fit = dynamics._fit(y, basis)
                out.append((fit.coeffs.tobytes(), fit.distance, fit.lower, fit.reference))
            except (ValueError, OverflowError) as exc:
                out.append((type(exc), str(exc)))
        assert got == want
        fits += isinstance(got[0][1], float)
        one_column += isinstance(got[0][1], float) and len(got[0][3]) == 2
        if case in _LP_UNCERTIFIED:
            continue  # `test_fallback_certifies_what_the_lp_left_uncertified`
        fit = got[0]
        if isinstance(fit[1], float):
            fit = (fit[0], fit[1].hex(), float(fit[2]).hex(), tuple(map(int, fit[3])))
        digest.update(repr(fit).encode())
    assert fits >= 300 and one_column >= 40
    assert len(lp_calls) >= 2 * 50  # a case that falls back solves it under each exchange
    # and the fits themselves, bit for bit, are those of the LP fallback and
    # before `_fit` scaled data near overflow: 7 of these cases have an entry
    # above 2^960
    assert digest.hexdigest() == _EXCHANGE_DIGEST


def test_fallback_certifies_what_the_lp_left_uncertified(lp_calls):
    # the exchange fails again from the barrier fit's dual support, and the
    # barrier fit is the result: certified, at the LP's distance
    rng = np.random.default_rng(24)
    for case in range(max(_LP_UNCERTIFIED) + 1):
        y, basis = _exchange_case(rng)
        if case not in _LP_UNCERTIFIED:
            continue
        calls = len(lp_calls)
        fit = dynamics._fit(y, basis)
        assert len(lp_calls) == calls + 1 and fit.reference == ()
        assert 0.0 < fit.lower and fit.distance <= fit.lower * (1.0 + 1e-9)
        assert fit.distance == pytest.approx(_LP_UNCERTIFIED[case], rel=1e-10, abs=0.0)
        assert fit.distance == float(np.max(np.abs(y - np.column_stack(basis) @ fit.coeffs)))


def test_fit_near_overflow_is_certified():
    # entries up to 2e306: Dekker's split and the rank test would overflow
    # without the power-of-two scaling; the same data times 1e-10 agrees
    t = np.linspace(0.0, 3.0, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = dynamics._fit(np.sin(5.0 * t) * 1e305, (np.exp(t) * 1e305, np.cos(3.0 * t) * 1e305))
    small = dynamics._fit(np.sin(5.0 * t) * 1e295, (np.exp(t) * 1e295, np.cos(3.0 * t) * 1e295))
    assert big.lower == big.distance
    assert big.distance == pytest.approx(1e10 * small.distance, rel=1e-12)
    assert np.allclose(big.coeffs, small.coeffs, rtol=1e-10, atol=0.0)
    assert big.reference == small.reference


def test_fit_zero_basis():
    fit = dynamics._fit(_Y, (np.zeros(_T.size), np.zeros(_T.size)))
    assert fit.distance == fit.lower == float(np.max(np.abs(_Y)))
    assert not np.any(fit.coeffs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_fit_rejects_non_finite(bad, where):
    data = [_Y.copy(), _W1.copy(), _W2.copy()]
    data[where][7] = bad
    with pytest.raises(ValueError, match="not finite"):
        dynamics._fit(data[0], tuple(data[1:]))


def test_random_trial_with_non_finite_data_raises(eng01, monkeypatch):
    # a NaN distance would pass the dominance check, since NaN > bound is False
    fit_basis = dynamics._fit_basis

    def spoiled(*args):
        w1, w2 = fit_basis(*args)
        w2 = w2.copy()
        w2[3] = np.nan
        return w1, w2

    monkeypatch.setattr(dynamics, "_fit_basis", spoiled)
    with pytest.raises(ValueError, match="not finite"):
        dynamics.random_perturbation_test(eng01, 1, 5)


def _polygon_bracket(target, W, k=64):
    """[t, t / cos(pi/k)] around the complex minimax: an LP on a k-gon modulus."""
    n, m = W.shape
    theta = np.exp(-2j * np.pi * np.arange(k) / k)[:, None]
    # Re(theta (y - W c)) <= t with c = u + i v
    rows_u = -(theta[:, :, None] * W[None]).real.reshape(-1, m)
    rows_v = -(1j * theta[:, :, None] * W[None]).real.reshape(-1, m)
    a_ub = np.column_stack([rows_u, rows_v, -np.ones(n * k)])
    b_ub = -(theta * target[None]).real.ravel()
    bounds = [(None, None)] * (2 * m) + [(0, None)]
    sol = linprog(np.r_[np.zeros(2 * m), 1.0], A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert sol.success
    return sol.fun, sol.fun / math.cos(math.pi / k)


# the distances Lawson's iteratively reweighted least squares gave these sets
# at commit 2b5d257, to its gap of 1e-10
_LAWSON_DISTANCES = [
    2.315237243362814,
    2.6395640393837505,
    2.484506563028319,
    2.899369644500365,
    2.2396354802858127,
    2.5852708461645,
    2.402461869621577,
    2.490548957482068,
    2.2766360512813217,
    2.5305336199471635,
]


@pytest.mark.parametrize("seed", range(10))
def test_fit_complex_data_is_certified(seed):
    rng = np.random.default_rng([5, seed])
    target = rng.normal(size=60) + 1j * rng.normal(size=60)
    W = rng.normal(size=(60, 2)) + 1j * rng.normal(size=(60, 2))
    fit = dynamics._fit(target, (W[:, 0], W[:, 1]))
    assert fit.lower <= fit.distance <= fit.lower * (1.0 + 1e-9)
    assert fit.distance == pytest.approx(float(np.max(np.abs(target - W @ fit.coeffs))), rel=1e-12)
    assert fit.distance == pytest.approx(_LAWSON_DISTANCES[seed], rel=1e-9)
    lo, hi = _polygon_bracket(target, W)
    assert lo * (1.0 - 1e-9) <= fit.distance <= hi * (1.0 + 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_barrier_fit_keeps_the_pivoted_qr_columns_and_real_coefficients(seed):
    # scipy's pivoted QR is the oracle for the columns kept: the largest
    # 2-norm first, the first on a tie, and a second column only when it is
    # independent of the first; real data gets real coefficients, exactly
    rng = np.random.default_rng([9, seed])
    y = rng.normal(size=30)
    w1 = rng.normal(size=30)
    w2 = [rng.normal(size=30), w1 / 4.0, w1.copy(), np.zeros(30), -w1, 4.0 * w1][seed]
    W = np.column_stack([w1, w2])
    _, R, piv = scipy.linalg.qr(W, mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    rank = int(np.sum(d > d[0] * W.shape[0] * np.finfo(float).eps))
    cols, coeffs, lower, _ = dynamics._barrier_fit(y, W)
    assert cols.tolist() == piv[:rank].tolist()
    assert np.all(coeffs.imag == 0.0)
    distance = float(np.max(np.abs(y - W[:, cols] @ coeffs.real)))
    assert lower <= distance <= lower * (1.0 + 1e-9)
    assert distance == pytest.approx(_brute_optimum(y, tuple(W[:, cols].T)), rel=1e-9)


def test_random_trials_reach_grid_optimum(eng01, fits):
    dynamics.random_perturbation_test(eng01, 4, 11)
    assert len(fits) == 4
    for target, basis, fit in fits:
        assert fit.distance == pytest.approx(_grid_optimum(target, basis, fit), rel=1e-10)


def test_replay_bisects_a_forcing_finer_than_the_unit(exeq03, cfg):
    # cos(100 t) oscillates faster than the unit forcing's panels resolve
    p, _ = exeq03
    eng = _engine(*exeq03, cfg)
    g = lambda s: np.cos(100.0 * np.asarray(s, float))
    ivp = IvpData(eng.se.anchor, 0.3, -0.2)
    x = eng.representation(ivp.x0, ivp.x0p, forcing=g)
    assert eng.replay_counts["bisected_panels"] > 0 and eng.replay_counts["fallbacks"] == 0
    unit = eng.forcing_caches(dynamics._unit, key="unit")
    replayed = eng.forcing_caches(g)
    for c, u in zip(replayed, unit):
        assert len(c.panel_vals) > len(u.panel_vals)
        assert (c.lo, c.hi, c.lower_info, c.upper_info) == (u.lo, u.hi, u.lower_info, u.upper_info)
    ts = np.linspace(0.05, 0.95, 41)
    oracle = dynamics.ivp_solution(p, (ivp,), ts, (g,))[0]
    adaptive = eng._member(0.3, -0.2 + 2.0 * 0.3, eng._build(g))  # rho(0.5) = -2
    assert np.max(np.abs(x(ts) - oracle)) < 1e-10
    assert np.max(np.abs(x(ts) - adaptive(ts))) < 1e-12


def test_non_finite_forcing_takes_the_adaptive_build(exeq03, cfg):
    eng = _engine(*exeq03, cfg)
    # infinite at one node of the unit forcing's panels, 1 elsewhere
    node = float(eng.forcing_caches(dynamics._unit, key="unit")[0].nodes()[40, 7])
    g = lambda s: np.where(np.asarray(s) == node, np.inf, 1.0)
    fc, h2 = eng.forcing_caches(g)
    assert eng.replay_counts == {"bisected_panels": 0, "fallbacks": 1}
    for c, ref in zip((fc, h2), eng._build(g)):
        assert np.array_equal(c.bps, ref.bps) and np.array_equal(c.panel_vals, ref.panel_vals)
        assert np.all(np.isfinite(c.panel_vals))


def _pick(name, label):
    (variant,) = (v for v in corpus_entry(name).variants if v.label == label)
    return corpus.build(variant)


_PICKS = [("exeq01", "default"), ("exeq03", "sigma=1.0"), ("exeq04", "sigma=1.0"), ("exeq06", "a=0.5 b=1.5 sigma=1.0")]


def _adaptive_unit_f(eng):
    """The unit forcing's F as `quad.cumulative` builds it."""
    return eng._build(dynamics._unit)[0]


def _same_cache(a, b):
    """Bitwise equal panels, values, errors and antiderivatives, and equal side infos."""
    for f in ("bps", "panel_vals", "panel_errs", "antider"):
        x, y = getattr(a, f), getattr(b, f)
        if x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return (a.t_ref, a.lower_info, a.upper_info) == (b.t_ref, b.lower_info, b.upper_info)


@pytest.mark.parametrize(
    "name, label", _PICKS + [("const-i", "(1.0,-3.0,2.0)"), ("const-ii", "(2.0,-2.0,-4.0)"), ("const-iii", "(1.0,3.0,2.0)")]
)
def test_unit_forcing_takes_f_from_a4(name, label, cfg):
    # real data with alpha > 0: F = int e^P/alpha is A4 = int e^P/|alpha|,
    # which is also what the adaptive build gives, bit for bit
    eng = _engine(*_pick(name, label), cfg)
    fc, _ = eng.forcing_caches(dynamics._unit, key="unit")
    assert fc is eng.se.A4
    assert _same_cache(fc, _adaptive_unit_f(eng))


def test_negative_alpha_builds_the_unit_forcing_adaptively(exeq03, cfg, monkeypatch):
    # exeq03 times -1: alpha = -1, so A4 = int e^P/|alpha| is not F
    p = make_problem("-1", "-2/t", "0", "1", 0.0, 1.0)
    eng = _engine(p, exeq03[1], cfg)
    a4, _ = eng.se.A4, eng.H1c
    calls = []
    cumulative = quad.cumulative
    monkeypatch.setattr(quad, "cumulative", lambda *args, **kwargs: calls.append(None) or cumulative(*args, **kwargs))
    fc, h2 = eng.forcing_caches(dynamics._unit, key="unit")
    assert len(calls) == 2
    monkeypatch.undo()
    assert fc is not a4
    assert _same_cache(fc, _adaptive_unit_f(eng))
    # and the solution is exeq03's
    ts = np.linspace(0.01, 0.99, 57)
    ref = _engine(*exeq03, cfg)
    x = eng.representation(0.3, -0.2, forcing_key="problem")(ts)
    assert np.max(np.abs(x - ref.representation(0.3, -0.2, forcing_key="problem")(ts))) < 1e-12


def test_complex_data_builds_the_unit_forcing_adaptively(cfg):
    # gamma = 2.25 - 0.5i, rho = -2 - 0.5i: Pc is complex, F is not A4
    p = make_problem("1", "3", "2.25 - 0.5*i", "0", -40.0, 40.0)
    eng = _engine(p, exprlang.parse("-2 - 0.5*i"), cfg)
    fc, _ = eng.forcing_caches(dynamics._unit, key="unit")
    assert np.iscomplexobj(eng.se.Pc.panel_vals) and np.iscomplexobj(fc.panel_vals)
    assert fc is not eng.se.A4


@pytest.mark.parametrize("name, which", [("const-i", "first"), ("const-iii", "second")])
def test_overflowing_forcing_raises(name, which, cfg):
    # weight times g overflows at the unit caches' nodes: no adaptive build,
    # which would evaluate the same products
    eng = _engine(*corpus.build(corpus_entry(name).default), cfg)
    with pytest.raises(ValueError, match=f"{which} cache overflows"):
        eng.forcing_caches(lambda s: np.full(np.shape(s), 1e280))
    assert eng.replay_counts == {"bisected_panels": 0, "fallbacks": 0}


@pytest.mark.parametrize("name, label", _PICKS)
def test_replayed_trials_match_adaptive_builds(name, label, cfg):
    # each trial as the parent algorithm computed it: adaptive caches for the
    # problem's forcing plus g, less the solution for the problem's forcing
    eng = _engine(*_pick(name, label), cfg)
    records = dynamics.random_perturbation_test(eng, 32, 7)
    assert eng.replay_counts["fallbacks"] == 0
    grid = eng.experiment_grid()
    basis = dynamics._fit_basis(eng, grid)
    base = eng.problem.fn("forcing")
    p_arr = eng._member(0j, 0j, eng._build(base))(grid)
    for trial, rec in enumerate(records):
        g, _ = dynamics._random_smooth(np.random.default_rng([7, trial]), grid)
        forced = eng._build(lambda s: np.asarray(base(s)) + g(s))
        dist = dynamics._fit(eng._member(0j, 0j, forced)(grid) - p_arr, basis).distance
        assert rec["ratio"] == pytest.approx(dist, rel=1e-10, abs=0.0)


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


def test_ivp_solution_reports_failed_solve():
    # alpha = t - 3 vanishes at t = 3, where the solution has a branch
    # point: no panel there resolves it, and it must not be read as a solution
    p = make_problem("t - 3", "2/t", "0", "-1", 1.0, math.inf)
    with pytest.raises(ValueError, match=r"near t=(2\.99999|3\.00000)"):
        dynamics.ivp_solution(p, (IvpData(2.0, 1.0),), [2.5, 3.5], (None,))
    # the side below t0 resolves; the one above still names t near 3
    with pytest.raises(ValueError, match=r"near t=(2\.99999|3\.00000)"):
        dynamics.ivp_solution(p, (IvpData(2.0, 1.0),), [1.5, 3.5], (None,))
    # with beta = gamma = 0, alpha = 0 at the node t = 3 makes the panels
    # ending there singular; they are bisected as unresolved
    p = make_problem("t - 3", "0", "0", "-1", 1.0, math.inf)
    with pytest.raises(ValueError, match=r"near t=(2\.99999|3\.00000)"):
        dynamics.ivp_solution(p, (IvpData(2.0, 1.0),), [2.5, 4.0], (None,))
    # gamma is infinite at t = 3, a Chebyshev node of the first panel of [2, 3]
    p = make_problem("1", "2/t", "1/(t - 3)", "-1", 1.0, math.inf)
    with pytest.raises(ValueError, match=r"not finite .* t=3$"):
        dynamics.ivp_solution(p, (IvpData(2.0, 1.0),), [2.5, 3.0], (None,))


@pytest.fixture
def solver_calls(monkeypatch):
    """Count `ivp_solution` calls and log the work under them.

    ``watch(problem)`` wraps the problem's coefficients: an array call made
    inside `ivp_solution` appends the coefficient's name to ``log``, and
    every panel batch (one bisection level of both sides of t0) appends
    "batch" once it is solved.
    """
    calls = {"ivp_solution": 0, "log": [], "inside": False}
    ivp_solution = dynamics.ivp_solution
    panel_solutions = collocation.panel_solutions

    def counting(*args, **kwargs):
        calls["ivp_solution"] += 1
        calls["inside"] = True
        try:
            return ivp_solution(*args, **kwargs)
        finally:
            calls["inside"] = False

    def batch(*args):
        out = panel_solutions(*args)
        calls["log"].append("batch")
        return out

    def watch(problem):
        for name, fn in list(problem._fns.items()):

            def logged(t, name=name, fn=fn):
                if calls["inside"] and np.ndim(t) > 0:
                    calls["log"].append(name)
                return fn(t)

            problem._fns[name] = logged
        return problem

    monkeypatch.setattr(dynamics, "ivp_solution", counting)
    monkeypatch.setattr(collocation, "panel_solutions", batch)
    calls["watch"] = watch
    return calls


@pytest.mark.parametrize(
    "coeffs, witness, depth",
    [(EXEQ02, "(eps - 1)*t^2/6", 5), (EXEQ05, EXEQ05_WITNESS, 11)],
    ids=["exeq02", "exeq05"],
)
def test_instability_probe_integrates_once(solver_calls, coeffs, witness, depth):
    p = solver_calls["watch"](make_problem(*coeffs))
    out = dynamics.instability_probe(p, exprlang.parse(witness), 0.1)
    assert len(out["trace"]) == 3
    assert solver_calls["ivp_solution"] == 1
    # every bisection level calls each coefficient and the forcing once, on
    # the nodes of the panels of both sides
    log = solver_calls["log"]
    assert log[-1] == "batch"
    levels = " ".join(log).split("batch")[:-1]
    # as many levels as the deeper side needs (below and above t0: exeq02
    # 2 and 5, exeq05 7 and 11)
    assert len(levels) == depth
    for level in levels:
        assert sorted(level.split()) == ["alpha", "beta", "forcing", "gamma"]


def _exact_family(name, t):
    """y1, y2 and p of `_family` in closed form: exeq02 from t0 = 2, exeq05 from t0 = 1."""
    if name == "exeq02":
        # 1 and 1/t solve x'' + 2x'/t = 0, and -t^2/6 the forced equation
        return np.ones_like(t), 2.0 - 4.0 / t, 2.0 - 8.0 / (3.0 * t) - t * t / 6.0
    # sin(t - 1)/t and cos(t - 1)/t solve x'' + 2x'/t + x = 0
    s, c = np.sin(t - 1.0) / t, np.cos(t - 1.0) / t
    return s + c, s, np.zeros_like(t)


@pytest.mark.parametrize(
    "name, coeffs, t0, witness",
    [("exeq02", EXEQ02, 2.0, "(eps - 1)*t^2/6"), ("exeq05", EXEQ05, 1.0, EXEQ05_WITNESS)],
    ids=["exeq02", "exeq05"],
)
def test_ivp_solution_matches_closed_form_family(name, coeffs, t0, witness):
    # the probe's three grids, out to T = 1000 (and down to 1e-9 on exeq05)
    p = make_problem(*coeffs)
    lo = coeffs[4]
    grids = [probe_grid(Interval.open(lo, T)) for T in (10.0, 100.0, 1000.0)]
    grids = [g[g > lo] for g in grids]
    ts = np.concatenate(grids)
    ivps, forcings = _family(t0)
    for member, exact in zip(dynamics.ivp_solution(p, ivps, ts, forcings), _exact_family(name, ts)):
        assert np.max(np.abs(member - exact)) <= 5e-11 * np.max(np.abs(exact))
    # the probe's distances against fits of the exact family on the same grids
    out = dynamics.instability_probe(p, exprlang.parse(witness), 0.1)
    xi = exprlang.compile_expr(exprlang.parse(witness), {"eps": 0.1})
    for grid, rec in zip(grids, out["trace"]):
        y1, y2, part = _exact_family(name, grid)
        dist = dynamics._fit(np.asarray(xi(grid), dtype=complex) - part, (y1 + 0j, y2 + 0j)).distance
        assert rec["sup_distance"] == pytest.approx(dist, rel=1e-11)


_MIXED_GAMMA = "1 + i*((abs(t - 2) + t - 2)/8)^7"
_ORACLE_CASES = [(entry.name, entry.default) for entry in corpus.entries()]


@pytest.mark.parametrize("variant", [v for _, v in _ORACLE_CASES], ids=[n for n, _ in _ORACLE_CASES])
def test_ivp_solution_matches_dop853_oracle(cfg, variant):
    # criterion 10's points and data, against step-by-step DOP853
    p, r = corpus.build(variant)
    eng = _engine(p, r, cfg)
    grid = eng.experiment_grid()
    ts = grid[:: max(1, len(grid) // 25)]
    ivp = IvpData(eng.se.anchor, 0.3, -0.2)
    oracle = dop853(p, ivp, ts)
    x = dynamics.ivp_solution(p, (ivp,), ts, (None,))[0]
    assert np.max(np.abs(x - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_ivp_solution_complex_coefficients_match_dop853_oracle():
    # gamma is real up to t = 2 and complex past it (with six continuous
    # derivatives there), so the panels of one level are solved partly in
    # real and partly in complex arithmetic
    p = make_problem("1", "2/t", _MIXED_GAMMA, "cos(t)", 0.0, math.inf)
    ts = np.concatenate([np.linspace(0.3, 6.0, 40), [0.5]])
    ivp = IvpData(0.5, 0.3 + 0.1j, -0.2j)
    oracle = dop853(p, ivp, ts)
    x = dynamics.ivp_solution(p, (ivp,), ts, (None,))[0]
    assert np.max(np.abs(x - oracle)) <= 1e-10 * np.max(np.abs(oracle))
    assert x[-1] == ivp.x0


@pytest.mark.parametrize(
    "coeffs, t0, fars",
    [
        (EXEQ05, 1.0, (1000.0,)),
        (EXEQ05, 1.0, (1e-9,)),
        (("1", "2/t", _MIXED_GAMMA, "cos(t)", 0.0, math.inf), 0.5, (6.0,)),
        (EXEQ05, 1.0, (1e-9, 1000.0)),
        (("1", "2/t", _MIXED_GAMMA, "cos(t)", 0.0, math.inf), 0.5, (0.3, 6.0)),
    ],
    ids=["exeq05-upper", "exeq05-lower", "mixed-real-complex", "exeq05-both-sides", "mixed-both-sides"],
)
def test_panel_solutions_do_not_depend_on_the_batch(coeffs, t0, fars):
    # a panel's local solutions are bit-identical solved alone and in a
    # batch, which may mix panels below and above t0
    p = make_problem(*coeffs)
    fns = [p.fn(which) for which in ("alpha", "beta", "gamma", "forcing")]
    sides = collocation.panels(fns, t0, *fars)
    assert len(sides) == len(fars) and all(why is None for _, why in sides)
    near, end, u, ends = (np.concatenate(part) for part in zip(*(side for side, _ in sides)))
    if len(fars) > 1:
        assert np.any(end < near) and np.any(end > near)
    batch = collocation.panel_solutions(fns, near, end)
    assert np.all(batch[2])
    for i in range(near.size):
        alone = collocation.panel_solutions(fns, near[i : i + 1], end[i : i + 1])
        for got, want in zip(alone, batch):
            assert np.array_equal(got[0], want[i], equal_nan=True)
        assert np.array_equal(alone[0][0], u[i]) and np.array_equal(alone[1][0], ends[i])


def _node_stacks():
    """1,024 panels of 3 members' node values, at magnitudes 1e-8 to 1e8: real, complex, complex with a zero imaginary part, strided, and of one member."""
    rng = np.random.default_rng(7)
    shape = (1024, 3, collocation.N)
    real = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape[:2] + (1,))
    cplx = real + 1j * rng.standard_normal(shape)
    # the node axis strided, as the solve's output before it is made contiguous
    strided = np.moveaxis(np.moveaxis(cplx, -1, 1).copy(), 1, -1)
    # one-member: one row per panel, where a product over all panels' rows at
    # once would change from a matrix-vector to a matrix-matrix product with the batch
    return {"real": real, "complex": cplx, "zero-imag": real + 0j, "strided": strided, "strided-real": strided.real, "one-member": real[:, :1]}


def _operators():
    """Matrices as `panel_solutions` and `differentiate` apply them: per panel, shared, and one row per panel."""
    back = np.random.default_rng(8).integers(0, 2, 1024)
    far = collocation._INT[back, 0][np.arange(1024), back * (collocation.N - 1)]
    return {"per-panel": collocation._INT[back, 1], "shared": collocation._DIFF, "row": far[:, None]}


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("op", list(_operators()))
@pytest.mark.parametrize("stack", list(_node_stacks()))
def test_apply_does_not_depend_on_the_batch(stack, op):
    # each panel's product is bit-identical alone and in batches of 2, 3 and
    # 1,024 panels, and within 4 ulp of the node-order sum
    U, M = _node_stacks()[stack], _operators()[op]
    per_panel = M.ndim == 3
    batch = collocation._apply(M, U)
    for size in (1, 2, 3):
        parts = [collocation._apply(M[i : i + size] if per_panel else M, U[i : i + size]) for i in range(0, len(U), size)]
        assert np.array_equal(_bits(np.concatenate(parts)), _bits(batch))
    if np.iscomplexobj(U):
        # each part is the real product of that part alone
        for part in (np.real, np.imag):
            assert np.array_equal(_bits(part(batch)), _bits(collocation._apply(M, part(U))))
    if stack == "zero-imag":
        assert np.array_equal(_bits(batch.real), _bits(collocation._apply(M, _node_stacks()["real"]))) and not np.any(batch.imag)
    W = M[:, None] if per_panel else M
    for part in (np.real, np.imag):
        # each row's scale: the largest sum of |M_ij u_j| over its entries
        scale = np.max(quad.node_sum(np.abs(W), np.abs(part(U))[..., None, :]), axis=-1, keepdims=True)
        assert np.all(np.abs(part(batch) - quad.node_sum(W, part(U)[..., None, :])) <= 4.0 * np.spacing(scale))


def test_apply_keeps_a_nonfinite_imaginary_part_out_of_the_real_part():
    U = _node_stacks()["complex"]
    U.imag[:, :, 5] = np.inf
    got = collocation._apply(collocation._DIFF, U)
    assert np.array_equal(_bits(got.real), _bits(collocation._apply(collocation._DIFF, U.real)))
    assert np.all(np.isfinite(got.real))


def test_differentiate_does_not_depend_on_the_chunk():
    # a side longer than CHUNK panels reads the same bits as its halves
    m = collocation.CHUNK + collocation.CHUNK // 2
    rng = np.random.default_rng(9)
    near = np.linspace(1.0, 2.0, m + 1)
    u = rng.standard_normal((m, 2, collocation.N)) + 1j * rng.standard_normal((m, 2, collocation.N))
    side = (near[:-1], near[1:], u, np.zeros((m, 2, 2)))
    halves = [collocation.differentiate(tuple(v[i : i + m // 2] for v in side))[2] for i in (0, m // 2)]
    assert np.array_equal(_bits(collocation.differentiate(side)[2]), _bits(np.concatenate(halves)))


def test_panel_failing_at_a_point_stops_its_side_at_the_floor(monkeypatch):
    # a stub fails every panel that holds t = 3.1: the upper side is split
    # down to a few ulp there and stops; the lower side resolves
    p = make_problem("1", "2/t", "1", "-1", 0.0, math.inf)
    fns = [p.fn(which) for which in ("alpha", "beta", "gamma", "forcing")]
    panel_solutions = collocation.panel_solutions

    def failing(fns, near, end):
        u, ends, ok, bad = panel_solutions(fns, near, end)
        return u, ends, ok & ~((np.minimum(near, end) <= 3.1) & (3.1 <= np.maximum(near, end))), bad

    monkeypatch.setattr(collocation, "panel_solutions", failing)
    (lower, why_lower), (upper, why_upper) = collocation.panels(fns, 2.0, 1.0, 4.0)
    assert why_lower is None and lower[0][0] == 2.0 and lower[1][-1] == 1.0
    match = re.fullmatch(r"collocation does not resolve the solution near t=(\S+): the panel is a few ulp wide", why_upper)
    assert match and abs(float(match[1]) - 3.1) <= 1e-14
    near, end = upper[0], upper[1]
    assert near[0] == 2.0 and np.array_equal(near[1:], end[:-1])
    assert np.all(end < 3.1) and end[-1] > 3.1 - 1e-14


def test_min_sup_distance_reaches_grid_optimum():
    # exeq02's probe data on the T = 10 truncation, and random real data
    p = make_problem(*EXEQ02)
    grid = probe_grid(Interval.open(1.0, 10.0))
    ivps, forcings = _family(2.0)
    y1, y2, part = dynamics.ivp_solution(p, ivps, grid, forcings)
    xi = exprlang.compile_expr(exprlang.parse("(eps - 1)*t^2/6"), {"eps": 0.1})
    rng = np.random.default_rng(3)
    cases = [(np.asarray(xi(grid), dtype=complex) - part, (y1, y2))]
    cases.append((rng.normal(size=200) + 0j, (rng.normal(size=200) + 0j, np.linspace(-1.0, 3.0, 200) + 0j)))
    for target, basis in cases:
        fit = dynamics._fit(target, basis)
        assert fit.distance == pytest.approx(_grid_optimum(target, basis), rel=1e-10)
        resid = target - fit.coeffs[0] * basis[0] - fit.coeffs[1] * basis[1]
        assert fit.distance == pytest.approx(np.max(np.abs(resid)), rel=1e-10)


def test_nearest_solution_complex_member(eng01):
    # the member with a complex d1 is its own nearest solution
    member = eng01.homogeneous(SolutionFamilyParams(0.4 + 0.2j, 0.9))
    out = dynamics.nearest_solution(member, eng01)
    grid = eng01.experiment_grid()
    w1 = eng01.homogeneous(SolutionFamilyParams(1.0, 0.0))(grid)
    assert out["sup_distance"] <= 1e-12 * float(np.max(np.abs(w1)))
    assert out["params"].d1 == pytest.approx(0.4 + 0.2j, abs=1e-9)
    assert out["params"].d2 == pytest.approx(0.9, abs=1e-9)


def test_instability_probe_exeq02(fits):
    p = make_problem("1", "2/t", "0", "-1", 1.0, math.inf, name="exeq02")
    out = dynamics.instability_probe(p, exprlang.parse("(eps - 1)*t^2/6"), 0.1)
    assert out["residual_sup"] == pytest.approx(0.1, rel=1e-9)
    assert out["growth_ok"]
    dists = [rec["sup_distance"] for rec in out["trace"]]
    assert dists[1] >= 10.0 * dists[0] and dists[2] >= 10.0 * dists[1]
    for (target, basis, fit), dist in zip(fits, dists):
        assert dist == fit.distance == pytest.approx(_grid_optimum(target, basis, fit), rel=1e-10)
    # pinned, so that a change in the coefficient or fit numerics shows
    assert dists == pytest.approx([0.5634384017071673, 76.8162302578564, 8184.073571855228], rel=1e-10)


def test_instability_probe_exeq05(fits):
    p = make_problem("1", "2/t", "1", "0", 0.0, math.inf, name="exeq05")
    wit = exprlang.parse("eps/(8*t)*(cos(t) + 2*t*sin(t) - 2*t^2*cos(t))")
    out = dynamics.instability_probe(p, wit, 0.1)
    assert out["residual_sup"] <= 0.1 * (1.0 + 1e-4)
    assert out["growth_ok"]
    dists = [rec["sup_distance"] for rec in out["trace"]]
    assert len(fits) == 3
    for (target, basis, fit), dist in zip(fits, dists):
        assert dist == fit.distance == pytest.approx(_grid_optimum(target, basis, fit), rel=1e-10)
    assert dists == pytest.approx([0.235608260501823, 2.43420753819139, 24.9743916430664], rel=1e-10)
