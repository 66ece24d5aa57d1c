"""Quadrature layer: cumulative caches, graded grids, sup search."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg

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


# closed-form endpoint singularities: (integrand, antiderivative, panels)
_SINGULAR = {
    "log-lower": (lambda s: np.log(s), lambda t: t * np.log(t) - t, 92),
    "log-upper": (lambda s: np.log(1.0 - s), lambda t: -t - (1.0 - t) * np.log(1.0 - t), 92),
    "power-lower": (lambda s: s**-0.5, lambda t: 2.0 * np.sqrt(t), 97),
    "power-upper": (lambda s: (1.0 - s) ** -0.5, lambda t: -2.0 * np.sqrt(1.0 - t), 100),
}


@pytest.mark.parametrize("name", sorted(_SINGULAR))
def test_cumulative_endpoint_singularity(name):
    g, antiderivative, panels = _SINGULAR[name]
    c = quad.cumulative(g, 0.5, 0.0, 1.0)
    ts = np.array([1e-9, 1e-4, 0.1, 0.3, 0.7, 0.9, 1.0 - 1e-4, 1.0 - 1e-9])
    err = np.abs(c.value(ts).real - (antiderivative(ts) - antiderivative(0.5)))
    assert np.all(err <= c.error_bound) and c.error_bound < 1e-11
    # pinned: a change of the splitting rule must update these on purpose
    assert len(c.panel_vals) == panels
    assert c.lower_info.status == c.upper_info.status == "resolved"
    assert c.max_depth_leaves == 0


def test_max_depth_leaves_recorded():
    # a jump cannot be resolved by bisection; the leaf holding it is kept at
    # max_depth and counted, and its error still bounds the value
    c = quad.cumulative(lambda s: np.sign(s - 0.3), 0.5, 0.0, 1.0)
    assert c.max_depth_leaves >= 1
    ts = np.linspace(0.01, 0.99, 99)
    exact = np.where(ts >= 0.3, ts - 0.5, 0.1 - ts)
    assert np.max(np.abs(c.value(ts).real - exact)) <= c.error_bound


def test_exeq01_panel_counts(exeq01_engine):
    # exeq01's Pc splits to ulp width near t=1; pinned so a
    # change of the splitting rule updates these on purpose
    assert len(exeq01_engine.Pc.panel_vals) == 5481
    assert len(exeq01_engine.A4.panel_vals) == 685
    diag = exeq01_engine.diagnostics()
    assert diag["cache_Pc"]["max_depth_leaves"] == diag["cache_A4"]["max_depth_leaves"] == 0
    # each side's skeleton panels are bisected together: one call per level
    assert (diag["cache_Pc"]["integrand_calls"], diag["cache_Pc"]["integrand_points"]) == (14, 163080)
    assert (diag["cache_A4"]["integrand_calls"], diag["cache_A4"]["integrand_points"]) == (10, 19200)


def test_in_panel_matches_legval():
    rng = np.random.default_rng(3)
    n = 9
    bps = np.cumsum(rng.uniform(0.1, 1.0, n + 1))
    antider = rng.normal(size=(14, n)) + 1j * rng.normal(size=(14, n))
    c = quad.CumulativeIntegral(bps[0], bps, np.zeros(n, complex), np.zeros(n), antider)
    ts = np.concatenate([rng.uniform(bps[0], bps[-1], 190), bps])
    idx, got = c._in_panel(ts.reshape(20, 10))
    assert got.shape == (20, 10)
    idx, got = idx.ravel(), got.ravel()
    assert np.array_equal(idx, np.clip(np.searchsorted(bps, ts, side="right") - 1, 0, n - 1))
    xi = 2.0 * (ts - bps[idx]) / (bps[idx + 1] - bps[idx]) - 1.0
    want = np.array([npleg.legval(x, antider[:, i]) for x, i in zip(xi, idx)])
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


def _leaf_reference(g, lo, hi, leaf_tol, leaf_rel=1e-13, max_depth=28):
    """`quad._leaf` one panel at a time, depth first, with per-panel fits.

    Returns sorted (left, right, value, error, antiderivative, width * max|g|).
    """
    out = []
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        hw = 0.5 * (b - a)
        y = np.asarray(g(0.5 * (a + b) + hw * quad._XGK), dtype=complex)
        val = hw * np.sum(quad._WGK * y)
        err = abs(val - hw * np.sum(quad._WG * y[1::2]))
        resabs = hw * np.sum(quad._WGK * np.abs(y))
        if resabs > 0 and err > 0 and err / resabs < 1:
            err = min(err, resabs * (200.0 * err / resabs) ** 1.5)
        ymax = float(np.max(np.abs(y)))
        budget = leaf_tol + leaf_rel * max(abs(val), (b - a) * ymax)
        if np.all(np.isfinite(y)) and (err <= budget or depth >= max_depth):
            coef = npleg.legfit(quad._XGK, y, quad._LEG_DEG)
            resid = float(np.max(np.abs(npleg.legval(quad._XGK, coef) - y))) * (b - a)
            pos_noise = 64.0 * np.finfo(float).eps * max(abs(a), abs(b)) * ymax
            if not resid > budget + pos_noise or depth >= max_depth:
                anti = npleg.legint(coef) * hw
                anti[0] -= npleg.legval(-1.0, anti)
                out.append((a, b, val, err + 0.1 * resid, anti, (b - a) * ymax))
                continue
        elif depth >= max_depth:
            raise FloatingPointError("non-finite integrand inside panel")
        stack += [(a, 0.5 * (a + b), depth + 1), (0.5 * (a + b), b, depth + 1)]
    out.sort(key=lambda leaf: leaf[0])
    return [np.array(part) for part in zip(*out)]


def _leaves_alone(g, lo, hi, leaf_tol, work, leaf_rel=1e-13):
    """`quad._leaf` on the single root [lo, hi]: its leaves, or "singular"."""
    ((_, leaves),) = quad._leaf(g, [lo], [hi], leaf_tol, work, leaf_rel)
    return leaves


@pytest.mark.parametrize("leaf_tol", [1e-12, 0.0])
@pytest.mark.parametrize(
    "g, lo, hi",
    [
        (np.cos, 0.0, 5.0),
        (lambda s: np.log(1.0 - s), 0.5, 1.0 - 1e-13),
        (lambda s: s * np.exp(40j * s), 0.0, 3.0),
        (lambda s: np.sign(s - 0.3), 0.25, 0.325),
    ],
)
def test_leaf_matches_panel_by_panel_reference(g, lo, hi, leaf_tol):
    # same leaves and values; the fit residual and the antiderivative come
    # from constant matrices instead of per-panel fits, so they agree to
    # rounding of the panel's scale
    eps = np.finfo(float).eps
    edges = lo + (hi - lo) * np.array([0.0, 0.3, 0.55, 1.0])
    batch_work = Counter()
    batch = list(quad._leaf(g, edges[:-1], edges[1:], leaf_tol, batch_work))
    assert [i for i, _ in batch] == [0, 1, 2]
    alone_work = []
    for i, (a, b) in enumerate([(lo, hi), *zip(edges[:-1], edges[1:])]):
        work = Counter()
        alone = _leaves_alone(g, a, b, leaf_tol, work)
        alone_work.append(work)
        r_left, r_right, r_vals, r_errs, r_anti, scale = _leaf_reference(g, a, b, leaf_tol)
        # the whole range alone, then each of three roots alone and in the batch
        for left, right, vals, errs, anti, _ in [alone] if i == 0 else [alone, batch[i - 1][1]]:
            assert np.array_equal(left, r_left) and np.array_equal(right, r_right)
            assert np.array_equal(vals, r_vals)
            assert np.all(np.abs(errs - r_errs) <= 16 * eps * scale)
            assert np.all(np.abs(anti - r_anti.T) <= 16 * eps * scale)
    # one integrand call per level of the deepest root, on every panel once
    assert batch_work["calls"] == max(w["calls"] for w in alone_work[1:])
    assert batch_work["points"] == sum(w["points"] for w in alone_work[1:])


def _cumulative_reference(
    g, t_ref, lower, upper, tol=1e-10, log_budget=300.0, range_cap=1e8, tail_mode=False, leaf_rel=1e-13, max_panels=4000
):
    """`quad.cumulative` one skeleton panel at a time, stopping where a rule fires."""
    leaf_tol = 0.0 if tail_mode else tol * 1e-2
    work = Counter()
    leaves = []
    max_depth_leaves = 0
    infos = {}
    for side, endpoint in (("upper", upper), ("lower", lower)):
        sign = 1 if side == "upper" else -1
        cum = 0.0 + 0.0j
        contribs = []
        edge = t_ref
        status = None
        tail_bound = 0.0
        diverging = False
        k = 0
        if math.isinf(endpoint):
            pts, n_grow = None, 0
        else:
            pts, n_grow = quad._finite_skeleton(t_ref, endpoint, sign)
        while True:
            k += 1
            if k > max_panels:
                status = "range_cap"
                break
            if pts is None:
                h0 = max(1.0, 0.05 * abs(t_ref))
                nxt = t_ref + sign * h0 * (2.0**k - 1.0)
                if abs(nxt) > range_cap:
                    status = "range_cap"
                    break
            else:
                if k > len(pts):
                    status = "resolved"
                    break
                nxt = pts[k - 1]
            lo_, hi_ = (edge, nxt) if sign > 0 else (nxt, edge)
            new = _leaves_alone(g, lo_, hi_, leaf_tol, work, leaf_rel)
            if new == "singular":
                status = "singular"
                break
            *new, forced = new
            pv = sum(new[2].tolist())
            cum += pv
            if k > n_grow:
                contribs.append(abs(pv))
            leaves.append(new)
            max_depth_leaves += forced
            edge = nxt
            if tail_mode:
                if len(contribs) >= 3:
                    c1, c2, c3 = contribs[-3], contribs[-2], contribs[-1]
                    if len(contribs) > 6 and c3 >= c2 >= c1 and c3 > 10.0 * (contribs[0] + tol):
                        diverging = True
                    if (
                        len(contribs) > 8
                        and math.isfinite(endpoint)
                        and c3 > tol
                        and c3 >= 0.999 * c2
                        and c2 >= 0.999 * c1
                    ):
                        diverging = True
                if abs(cum) > math.exp(min(log_budget, 700.0)):
                    status = "budget"
                    break
            elif abs(cum.real) > log_budget:
                status = "budget"
                break
        if tail_mode and len(contribs) >= 3:
            c1, c2, c3 = contribs[-3], contribs[-2], contribs[-1]
            if diverging:
                status = "diverging"
            elif status in ("budget", "range_cap"):
                if c3 <= tol and c2 <= tol and c1 <= tol and c3 <= c2 <= c1:
                    ratio = c3 / c2 if c2 > 0 else 0.0
                    tail_bound = c3 * ratio / (1.0 - ratio) if ratio < 1 else c3
                    status = "converged"
                elif c3 > tol and c3 >= 0.7 * c2:
                    status = "diverging"
        infos[side] = quad.SideInfo(status, tail_bound)
    left, right, vals, errs, anti = (np.concatenate(part, axis=-1) for part in zip(*leaves))
    order = np.lexsort((right, left))
    return quad.CumulativeIntegral(
        t_ref=float(t_ref),
        bps=np.append(left[order], right[order[-1]]),
        panel_vals=vals[order],
        panel_errs=errs[order],
        antider=anti[:, order],
        lower_info=infos["lower"],
        upper_info=infos["upper"],
        max_depth_leaves=max_depth_leaves,
        integrand_calls=work["calls"],
        integrand_points=work["points"],
    )


def _spike(c, halfwidth):
    """1/sqrt|s - c|, and inf within ``halfwidth`` of c."""

    def g(s):
        d = np.abs(s - c)
        return np.where(d < halfwidth, np.inf, 1.0 / np.sqrt(np.maximum(d, halfwidth)))

    return g


# one case per way a side ends: (integrand, t_ref, lower, upper, options,
# (lower status, upper status), integrand calls, integrand points)
_STOPS = {
    "resolved": (np.cos, 0.0, -5.0, 5.0, {}, ("resolved", "resolved"), 2, 1380),
    "converged": (lambda s: np.exp(-s), 1.0, 0.0, math.inf, {"tail_mode": True}, ("resolved", "converged"), 15, 15750),
    # exp(s) overflows past the budget stop: those panels are dropped, not split
    "diverging": (
        lambda s: np.exp(s),
        1.0,
        0.0,
        math.inf,
        {"tail_mode": True, "log_budget": 60.0},
        ("resolved", "diverging"),
        6,
        3210,
    ),
    "range_cap": (lambda s: 1.0 / (1.0 + s * s), 0.0, -math.inf, math.inf, {}, ("range_cap", "range_cap"), 6, 1500),
    # |cum.real| > log_budget
    "budget": (lambda s: s, 1.0, 0.0, math.inf, {"log_budget": 50.0}, ("resolved", "budget"), 2, 1080),
    # |cum| > e^700; past s = 708 the integrand is subnormal noise that
    # never converges, which the batch must not reach
    "tail_budget": (
        lambda s: 1e305 * np.exp(-s),
        1.0,
        0.0,
        math.inf,
        {"tail_mode": True, "log_budget": 1000.0},
        ("budget", "budget"),
        2,
        1080,
    ),
    # inf within 1e-9 of 2.3, after finite panels
    "singular": (_spike(2.3, 1e-9), 1.0, 0.0, 4.0, {}, ("resolved", "singular"), 30, 3465),
    # inf only at the centre node of the skeleton panel [2.5, 3.25]: the
    # batch drops that panel while [1.15, 1.45] still splits at the kink,
    # and the walk evaluates it alone
    "dropped": (
        lambda s: np.where(s == 2.875, np.inf, np.sqrt(np.abs(s - 1.3))),
        1.0,
        0.0,
        4.0,
        {},
        ("resolved", "resolved"),
        23,
        2580,
    ),
}


def _counted(g):
    calls = Counter()

    def counted(s):
        calls["calls"] += 1
        calls["points"] += s.size
        return g(s)

    return counted, calls


@pytest.mark.parametrize("case", list(_STOPS))
def test_cumulative_matches_sequential_reference(case):
    g, t_ref, lower, upper, opts, statuses, _, _ = _STOPS[case]
    got = quad.cumulative(g, t_ref, lower, upper, **opts)
    ref = _cumulative_reference(g, t_ref, lower, upper, **opts)
    assert (got.lower_info.status, got.upper_info.status) == statuses
    assert got.lower_info == ref.lower_info and got.upper_info == ref.upper_info
    assert np.array_equal(got.bps, ref.bps)
    assert got.max_depth_leaves == ref.max_depth_leaves
    # panel scale: width times the largest |g| on the panel's nodes
    eps = np.finfo(float).eps
    mid, hw = 0.5 * (ref.bps[1:] + ref.bps[:-1]), 0.5 * np.diff(ref.bps)
    scale = 2.0 * hw * np.max(np.abs(g(mid[:, None] + hw[:, None] * quad._XGK)), axis=1)
    assert np.all(np.abs(got.panel_vals - ref.panel_vals) <= 16 * eps * np.abs(ref.panel_vals))
    assert np.all(np.abs(got.panel_errs - ref.panel_errs) <= 16 * eps * scale)
    assert np.all(np.abs(got.antider - ref.antider) <= 16 * eps * scale)


@pytest.mark.parametrize("case", list(_STOPS))
def test_cumulative_work_is_pinned(case):
    # panels past a stop are bisected only until the walk reaches the stop,
    # and a panel that turns non-finite there is dropped, not split; pinned
    # so that a change of either rule updates these on purpose
    g, t_ref, lower, upper, opts, _, calls, points = _STOPS[case]
    counted, work = _counted(g)
    c = quad.cumulative(counted, t_ref, lower, upper, **opts)
    assert (c.integrand_calls, c.integrand_points) == (work["calls"], work["points"]) == (calls, points)


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


def test_sup_highest_of_five_maxima():
    # five narrow bumps; the scan ranks the highest one last of its top five,
    # so only the refinement of all five brackets finds it
    centers = np.array([0.7, 1.9, 3.05, 4.2, 5.3])
    heights = np.array([0.996, 0.998, 1.0, 0.999, 0.997])

    def h(t):
        t = np.asarray(t)[None, :]
        return np.sum(heights[:, None] * np.exp(-(((t - centers[:, None]) / 0.02) ** 2)), axis=0)

    res = quad.sup_over(h, 0.0, 6.0)
    assert not res.unbounded
    assert res.sup_value == pytest.approx(1.0, abs=1e-12)
    assert res.attained_near == pytest.approx(3.05, abs=1e-6)
    scan = max(v for t, v in res.trace)
    assert scan < 0.99


def _golden_scalar(h, a, b, iters=80):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = float(h(np.array([x1]))[0]), float(h(np.array([x2]))[0])
    for _ in range(iters):
        if b - a < 1e-13 * max(1.0, abs(a), abs(b)):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = float(h(np.array([x2]))[0])
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = float(h(np.array([x1]))[0])
    return (x1, f1) if f1 >= f2 else (x2, f2)


@pytest.mark.parametrize(
    "h",
    [
        lambda t: np.sin(3.0 * t) * np.exp(-0.1 * t),
        lambda t: np.round(np.cos(t), 6),  # plateaus: ties between probes
        lambda t: np.where(t > 2.0, np.nan, -((t - 1.0) ** 2)),
    ],
)
def test_golden_lockstep_matches_scalar_search(h):
    rng = np.random.default_rng(5)
    a = rng.uniform(-5.0, 25.0, 5)
    b = a + rng.uniform(1e-12, 2.0, 5)
    t, v = quad._golden_lockstep(h, a, b)
    for i in range(5):
        t0, v0 = _golden_scalar(h, a[i], b[i])
        assert t[i] == t0 and (v[i] == v0 or (math.isnan(v[i]) and math.isnan(v0)))


def test_sup_never_below_samples():
    h = lambda t: -((np.asarray(t) - 0.3) ** 2)
    res = quad.sup_over(h, 0.0, 1.0)
    assert res.sup_value >= -1e-12
    assert res.sup_value == pytest.approx(0.0, abs=1e-9)
