"""Quadrature layer: cumulative caches, graded grids, sup search."""

import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as npleg

import cumulative_oracle
import sup_oracle
from conftest import make_problem
from ulamstab import corpus, exprlang, quad, stability
from ulamstab.model import Config
from ulamstab.stability import StabilityEngine


# -- cumulative ------------------------------------------------------------


@pytest.fixture(scope="module")
def cos_cum():
    return quad.cumulative(np.cos, 0.0, -5.0, 5.0)


def test_cumulative_value(cos_cum):
    ts = np.linspace(-4.5, 4.5, 21)
    got = cos_cum.value(ts)
    assert np.max(np.abs(got - np.sin(ts))) < 1e-10


def test_cumulative_between_additive(cos_cum):
    # the integral between two points is a difference of values
    a, b, c = cos_cum.value(np.array([-3.2, 0.7, 4.1]))
    assert (b - a) + (c - b) == pytest.approx(c - a, abs=1e-12)
    assert c - a == pytest.approx(math.sin(4.1) - math.sin(-3.2), abs=1e-10)


def test_reference_offset_is_read_on_first_value():
    # a cache read only from its edges never takes the one-point read at t_ref
    cum = quad.cumulative(np.cos, 0.3, -5.0, 5.0)
    cum.from_edge("upper", np.array([1.0]))
    assert "_ref_offset" not in vars(cum)
    assert cum.value(np.array([0.3]))[0] == 0.0
    assert "_ref_offset" in vars(cum)


def test_prefix_sums_are_built_on_first_use():
    # a cache read only from its upper edge builds only that edge's sums
    cum = quad.cumulative(np.cos, 0.3, -5.0, 5.0)
    cum.from_edge("upper", np.array([1.0]))
    assert "_right" in vars(cum) and not {"_left", "_anch", "_ref_offset"} & set(vars(cum))
    cum.from_edge("lower", np.array([1.0]))
    assert "_left" in vars(cum) and "_anch" not in vars(cum)
    cum.value(np.array([1.0]))
    assert "_anch" in vars(cum)


# a real and a complex cache whose reads are remembered
_READ_CACHES = {
    "real": lambda: quad.cumulative(np.cos, 0.3, -5.0, 5.0),
    "complex": lambda: quad.cumulative(lambda s: np.exp((0.5 + 1j) * s), 0.3, -5.0, 5.0),
}


def _read_bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def _fresh(c):
    """A cache on ``c``'s panels that has read nothing."""
    return quad.CumulativeIntegral(c.t_ref, c.bps, c.panel_vals, c.panel_errs, c.antider)


def _reads(c, q):
    """The bits of ``c``'s three reads at ``q``."""
    return [_read_bits(c.value(q)), _read_bits(c.from_edge("upper", q)), _read_bits(c.from_edge("lower", q))]


def _count_passes(monkeypatch, c):
    """The list that gets one entry for each Clenshaw pass of ``c`` from now on."""
    passes = []
    monkeypatch.setattr(c, "_locate", lambda t, locate=c._locate: passes.append(t.shape) or locate(t))
    return passes


@pytest.mark.parametrize("kind", list(_READ_CACHES))
def test_remembered_read_is_a_fresh_read(kind, monkeypatch):
    c = _READ_CACHES[kind]()
    ts = np.concatenate([c.bps, [c.t_ref], np.linspace(c.lo, c.hi, 37)])
    queries = {
        "0-d": np.asarray(c.bps[3]),
        "lo": np.array([c.lo]),
        "hi": np.array([c.hi]),
        "one point": np.array([0.7]),
        "breakpoints and more": ts,
        # the same bytes in two shapes
        "first 40": ts[:40],
        "2-d": ts[:40].reshape(8, 5),
    }
    passes = _count_passes(monkeypatch, c)
    for name, q in queries.items():
        want = _reads(_fresh(c), q)
        assert _reads(c, q) == _reads(c, q) == want, name
    # one pass per query, and one at t_ref for the offset of `value`
    assert len(passes) == len(queries) + 1
    idx, part = c._in_panel(ts)
    assert not (idx.flags.writeable or part.flags.writeable)
    # a read's result is the caller's own
    got = c.value(ts)
    got[:] = 0.0
    assert _read_bits(c.value(ts)) == _read_bits(_fresh(c).value(ts))


def test_query_changed_in_place_is_read_afresh():
    c = _READ_CACHES["complex"]()
    q = np.linspace(-4.0, 4.0, 9)
    c.value(q)
    q[3] = 0.123
    assert _reads(c, q) == _reads(_fresh(c), q)


def test_uncovered_query_raises_every_time():
    c = _READ_CACHES["real"]()
    for _ in range(3):
        for read in (c.value, lambda t: c.from_edge("upper", t), lambda t: c.from_edge("lower", t)):
            with pytest.raises(quad.CoverageError):
                read(np.array([0.0, 6.0]))
    assert c._memo == ()


def test_read_memo_stays_bounded(monkeypatch):
    c = _READ_CACHES["real"]()
    queries = [np.array([x]) for x in np.linspace(-4.0, 4.0, 10)]
    for q in queries:
        c.from_edge("upper", q)
    assert len(c._memo) == quad._MEMO
    passes = _count_passes(monkeypatch, c)
    c.from_edge("upper", queries[-quad._MEMO])
    assert passes == []
    c.from_edge("upper", queries[0])
    assert passes == [(1,)]


def test_shared_cache_reads_alike_in_every_thread():
    # threads reading one cache at more point sets than it remembers, with
    # frequent switches, each read what a fresh cache reads
    c = _READ_CACHES["complex"]()
    queries = [np.linspace(-4.0, 4.0, 5 + k) for k in range(2 * quad._MEMO)]
    want = [_reads(_fresh(c), q) for q in queries]
    bad = []

    def reader(shift):
        for r in range(40):
            k = (r + shift) % len(queries)
            if _reads(c, queries[k]) != want[k]:
                bad.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == [] and len(c._memo) <= quad._MEMO


def test_cumulative_coverage_error(cos_cum):
    with pytest.raises(quad.CoverageError):
        cos_cum.value(np.array([6.0]))


def test_tail_mode_converged_upper():
    # int_t^inf e^-s = e^-t; the truncated tail must not pollute small values
    c = quad.cumulative(lambda s: np.exp(-s), 1.0, 0.0, math.inf, tail_mode=True)
    assert c.upper_info.usable_as_limit
    ts = np.linspace(0.5, 8.0, 16)
    got = c.from_edge("upper", ts).real
    assert np.max(np.abs(got - np.exp(-ts)) / np.exp(-ts)) < 1e-7


def test_tail_mode_detects_divergence():
    c = quad.cumulative(lambda s: np.exp(s), 1.0, 0.0, math.inf, tail_mode=True)
    assert c.upper_info.status == "diverging"
    assert not c.upper_info.usable_as_limit


def test_tail_mode_finite_singular_edge():
    # int_0^t 1/sqrt(s) resolves the lower endpoint exactly
    c = quad.cumulative(lambda s: 1.0 / np.sqrt(s), 0.5, 0.0, 1.0, tail_mode=True)
    assert c.lower_info.usable_as_limit
    t = np.array([0.25])
    # the unresolvable sliver below the edge gap carries ~2 sqrt(1e-13) mass
    assert c.from_edge("lower", t)[0].real == pytest.approx(1.0, rel=2e-6)


# closed-form endpoint singularities: (integrand, antiderivative, panels)
_SINGULAR = {
    "log-lower": (lambda s: np.log(s), lambda t: t * np.log(t) - t, 92),
    "log-upper": (lambda s: np.log(1.0 - s), lambda t: -t - (1.0 - t) * np.log(1.0 - t), 92),
    "power-lower": (lambda s: s**-0.5, lambda t: 2.0 * np.sqrt(t), 97),
    "power-upper": (lambda s: (1.0 - s) ** -0.5, lambda t: -2.0 * np.sqrt(1.0 - t), 99),
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
    # exeq01's Pc and A4 split down to the resolution floor near t=1;
    # pinned so a change of the splitting rule updates these on purpose
    assert len(exeq01_engine.Pc.panel_vals) == 784
    assert len(exeq01_engine.A4.panel_vals) == 272
    diag = exeq01_engine.diagnostics()
    assert diag["cache_Pc"]["max_depth_leaves"] == diag["cache_A4"]["max_depth_leaves"] == 0
    assert (diag["cache_Pc"]["resolution_floor_leaves"], diag["cache_A4"]["resolution_floor_leaves"]) == (259, 126)
    # the skeleton panels of both sides are bisected together: one call per
    # level of the deeper side
    assert (diag["cache_Pc"]["integrand_calls"], diag["cache_Pc"]["integrand_points"]) == (9, 22170)
    assert (diag["cache_A4"]["integrand_calls"], diag["cache_A4"]["integrand_points"]) == (7, 6810)


def test_in_panel_matches_chebval():
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
    want = np.array([npcheb.chebval(x, antider[:, i]) for x, i in zip(xi, idx)])
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


def _clenshaw_longdouble(c, xi):
    """The Chebyshev series with coefficient columns ``c`` at ``xi``, summed in long double."""
    x = xi.astype(np.longdouble)
    parts = []
    for coef in (c.real, c.imag):
        coef = coef.astype(np.longdouble)
        b1, b2 = coef[-1], np.zeros_like(x)
        for k in range(coef.shape[0] - 2, 0, -1):
            b1, b2 = coef[k] + 2 * x * b1 - b2, b1
        parts.append(coef[0] + x * b1 - b2)
    return parts


def test_in_panel_matches_longdouble_clenshaw(exeq01_engine):
    # every panel of exeq01's largest caches, read at both panel ends
    # (xi = -1, and +1 or its neighbour below) and at random interior points
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    for cache in (exeq01_engine.Pc, exeq01_engine.A4):
        bps = cache.bps
        ts = np.concatenate([bps, np.nextafter(bps[1:], -np.inf), rng.uniform(bps[0], bps[-1], 2000)])
        ts = np.clip(ts, bps[0], bps[-1])
        idx, got = cache._in_panel(ts)
        xi = 2.0 * (ts - bps[idx]) / (bps[idx + 1] - bps[idx]) - 1.0
        assert np.any(xi == -1.0) and np.any(xi == 1.0)
        c = cache.antider[:, idx]
        re, im = _clenshaw_longdouble(c, xi)
        # |T_k| <= 1 on [-1, 1], so sum |c_k| bounds the panel's series
        scale = np.sum(np.abs(c), axis=0)
        err = np.maximum(np.abs(got.real - re), np.abs(got.imag - im)).astype(float)
        assert np.all(err <= 4 * eps * scale)


def test_query_does_not_depend_on_the_batch(exeq01_engine):
    rng = np.random.default_rng(2)
    cache = exeq01_engine.Pc
    ts = np.concatenate([rng.uniform(cache.lo, cache.hi, 300), cache.bps[:: len(cache.bps) // 50]])
    reads = (cache.value, lambda t: cache.from_edge("lower", t), lambda t: cache.from_edge("upper", t))
    for read in reads:
        batch = read(ts)
        alone = np.concatenate([read(ts[i : i + 1]) for i in range(ts.size)])
        assert alone.tobytes() == batch.tobytes()


def _parts_sum(w, y):
    """sum w * y of one panel, the real and imaginary parts summed apart."""
    return np.sum(w * y.real) + 1j * np.sum(w * y.imag) if np.iscomplexobj(y) else np.sum(w * y)


def _leaf_reference(g, lo, hi, leaf_tol, leaf_rel, max_depth=28):
    """`quad._leaf` one panel at a time, depth first, with per-panel fits.

    A panel is not split at ``max_depth`` or when it is narrower than
    ``quad._FLOOR_ULPS`` ulp of its larger end.  A panel whose values have an
    imaginary part of exactly zero is computed in float64, and a complex
    one's sums add the real and imaginary parts apart.  Returns sorted
    (left, right, value, error, antiderivative, width * max|g|, why a leaf
    was kept unconverged as a `quad._Block.forced` code).
    """
    out = []
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        hw = 0.5 * (b - a)
        x = 0.5 * (a + b) + hw * quad._XGK
        floor = b - a < quad._FLOOR_ULPS * np.spacing(max(abs(a), abs(b)))
        final = depth >= max_depth or floor
        y = np.asarray(g(x), dtype=complex)
        if not np.any(y.imag):
            y = y.real
        val = hw * _parts_sum(quad._WGK, y)
        err = abs(val - hw * _parts_sum(quad._WG, y[1::2]))
        resabs = hw * np.sum(quad._WGK * np.abs(y))
        if resabs > 0 and err > 0 and err / resabs < 1:
            err = min(err, resabs * (200.0 * err / resabs) ** 1.5)
        ymax = float(np.max(np.abs(y)))
        budget = leaf_tol + leaf_rel * max(abs(val), (b - a) * ymax)
        if np.all(np.isfinite(y)) and (err <= budget or final):
            coef = npleg.legfit(quad._XGK, y, quad._FIT_DEG)
            resid = float(np.max(np.abs(npleg.legval(quad._XGK, coef) - y))) * (b - a)
            pos_noise = 64.0 * np.finfo(float).eps * max(abs(a), abs(b)) * ymax
            fit_ok = not resid > budget + pos_noise
            if fit_ok or final:
                anti = npcheb.chebint(npcheb.chebfit(quad._XGK, y, quad._FIT_DEG)) * hw
                anti[0] -= npcheb.chebval(-1.0, anti)
                why = 0 if err <= budget and fit_ok else quad._AT_MAX_DEPTH if depth >= max_depth else quad._AT_FLOOR
                out.append((a, b, val, err + 0.1 * resid, anti, (b - a) * ymax, why))
                continue
        elif final:
            raise FloatingPointError("non-finite integrand inside panel")
        stack += [(a, 0.5 * (a + b), depth + 1), (0.5 * (a + b), b, depth + 1)]
    out.sort(key=lambda leaf: leaf[0])
    return [np.array(part) for part in zip(*out)]


def _roots(blocks):
    """(root, leaves or "singular") for each root of `quad._leaf`'s blocks, in order.

    ``leaves`` are arrays (left, right, value, error, antiderivative
    coefficients (14, n)) and the leaves counted by their `quad._Block.forced`
    code.
    """
    for blk in blocks:
        for j, singular in enumerate(blk.singular):
            i = slice(blk.bounds[j], blk.bounds[j + 1])
            forced = np.bincount(blk.forced[i], minlength=3)
            yield blk.first + j, "singular" if singular else (blk.left[i], blk.right[i], blk.vals[i], blk.errs[i], blk.anti[i].T, forced)


def _leaves_alone(g, lo, hi, leaf_tol, leaf_rel, work):
    """`quad._leaf` on the single root [lo, hi]: its leaves, or "singular"."""
    ((_, leaves),) = _roots(quad._leaf(g, [([lo], [hi])], (), leaf_tol, leaf_rel, work, None))
    return leaves


# the budgets `quad.cumulative` sets: plain caches, then tail caches
@pytest.mark.parametrize("leaf_tol, leaf_rel", [(1e-12, 1e-13), (0.0, 1e-8)], ids=["1e-12", "0.0"])
@pytest.mark.parametrize(
    "g, lo, hi",
    [
        (np.cos, 0.0, 5.0),
        (lambda s: np.log(1.0 - s), 0.5, 1.0 - 1e-13),
        (lambda s: s * np.exp(40j * s), 0.0, 3.0),
        (lambda s: np.sign(s - 0.3), 0.25, 0.325),
        # exeq01's Pc integrand, split down to the resolution floor near 1
        pytest.param(lambda s: (2.0 - s) / (s * (1.0 - s)) - 1.0 / s, 1.0 - 1e-6, 1.0 - 1e-13, id="exeq01-Pc"),
        # imaginary on the first root, mixed on the second and real on the
        # third, which shares complex levels with the others in the batch
        pytest.param(lambda s: np.sqrt(s - 0.3 + 0j), 0.1, 0.6, id="sqrt-mixed"),
    ],
)
def test_leaf_matches_panel_by_panel_reference(g, lo, hi, leaf_tol, leaf_rel):
    # same leaves and values; the fit residual and the antiderivative come
    # from constant matrices instead of per-panel fits, so they agree to
    # rounding of the panel's scale
    eps = np.finfo(float).eps
    edges = lo + (hi - lo) * np.array([0.0, 0.3, 0.55, 1.0])
    batch_work = Counter()
    batch = list(_roots(quad._leaf(g, [(edges[:-1], edges[1:])], (), leaf_tol, leaf_rel, batch_work, None)))
    assert [i for i, _ in batch] == [0, 1, 2]
    alone_work = []
    for i, (a, b) in enumerate([(lo, hi), *zip(edges[:-1], edges[1:])]):
        work = Counter()
        alone = _leaves_alone(g, a, b, leaf_tol, leaf_rel, work)
        alone_work.append(work)
        r_left, r_right, r_vals, r_errs, r_anti, scale, r_why = _leaf_reference(g, a, b, leaf_tol, leaf_rel)
        # the whole range alone, then each of three roots alone and in the batch
        for left, right, vals, errs, anti, forced in [alone] if i == 0 else [alone, batch[i - 1][1]]:
            assert np.array_equal(forced, np.bincount(r_why, minlength=3))
            assert np.array_equal(left, r_left) and np.array_equal(right, r_right)
            assert np.array_equal(vals, r_vals)
            assert np.all(np.abs(errs - r_errs) <= 16 * eps * scale)
            assert np.all(np.abs(anti - r_anti.T) <= 16 * eps * scale)
    # one integrand call per level of the deepest root, on every panel once
    assert batch_work["calls"] == max(w["calls"] for w in alone_work[1:])
    assert batch_work["points"] == sum(w["points"] for w in alone_work[1:])


@pytest.mark.parametrize("leaf_tol, leaf_rel", [(1e-12, 1e-13), (0.0, 1e-8)], ids=["1e-12", "0.0"])
def test_leaf_stops_at_the_floor_on_exeq01_pc(leaf_tol, leaf_rel):
    # exeq01's Pc integrand near its singular end t = 1, where panels reach
    # the floor: _FLOOR_ULPS ulp of their larger end
    g = lambda s: (2.0 - s) / (s * (1.0 - s)) - 1.0 / s
    lo, hi = 1.0 - 1e-6, 1.0 - 1e-13
    (blk,) = quad._leaf(g, [([lo], [hi])], (), leaf_tol, leaf_rel, Counter(), None)
    r_left, r_right, r_vals, _, _, _, r_why = _leaf_reference(g, lo, hi, leaf_tol, leaf_rel)
    assert np.array_equal(blk.left, r_left) and np.array_equal(blk.right, r_right)
    assert np.array_equal(blk.vals, r_vals) and np.array_equal(blk.forced, r_why)
    width = blk.right - blk.left
    ulp = np.spacing(np.maximum(np.abs(blk.left), np.abs(blk.right)))
    at_floor = blk.forced == quad._AT_FLOOR
    assert np.count_nonzero(at_floor) > 0
    assert np.all(width[at_floor] < quad._FLOOR_ULPS * ulp[at_floor])
    # every leaf is half of a panel at least the floor wide, less one ulp
    # of rounding in the midpoint
    assert len(width) > 1
    assert np.all(width >= (quad._FLOOR_ULPS / 2 - 1) * ulp)


def test_non_finite_panel_at_the_resolution_floor_is_singular():
    # a pole at 0.7 that is inf within 16 ulp of it: the panel around the
    # pole reaches the floor 731 ulp wide, with its node nearest the pole
    # 8 ulp from it, so some of its nodes are finite and some not
    c = 0.7
    g = lambda s: np.where(np.abs(s - c) <= 16 * np.spacing(c), np.inf, 1.0 / (s - c))
    work = Counter()
    ((_, fate),) = _roots(quad._leaf(g, [([c - 1e-12], [c + 3e-13])], (), 0.0, 1e-8, work, None))
    assert fate == "singular"
    # five levels bring the root to the floor, well before _MAX_DEPTH
    assert work["calls"] == 5


# kinks at 0.3 and -1.7, and inf only at the centre nodes of the roots
# (2, 3), (-1, 0) and (-3, -2)
def _kinked_with_poles(s):
    return np.where((s == 2.5) | (s == -0.5) | (s == -2.5), np.inf, np.sqrt(np.abs(s - 0.3)) + np.sqrt(np.abs(s + 1.7)))


# an upper and a lower side, as `quad.cumulative` groups them: each has a
# non-finite root after its kinked one, and the lower side's first root is
# non-finite too
_GROUPS = [([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]), ([-1.0, -2.0, -3.0], [0.0, -1.0, -2.0])]


def _by_root(blocks):
    """{(group, root): leaves or "singular"} of `quad._leaf`'s blocks."""
    out = {}
    for blk in blocks:
        for root, leaves in _roots([blk]):
            out[blk.group, root] = leaves
    return out


def _assert_same_roots(g, got, want):
    """The same roots, singular flags, leaves and values; errors and antiderivatives to rounding of each leaf's scale."""
    eps = np.finfo(float).eps
    assert got.keys() == want.keys()
    for key, leaves in want.items():
        if isinstance(leaves, str):
            assert got[key] == leaves
            continue
        (left, right, vals, errs, anti, forced), (w_left, w_right, w_vals, w_errs, w_anti, w_forced) = got[key], leaves
        assert np.array_equal(left, w_left) and np.array_equal(right, w_right)
        assert np.array_equal(vals, w_vals) and np.array_equal(forced, w_forced)
        # width times the largest |g| on the leaf's nodes
        scale = (right - left) * np.max(np.abs(g(quad._nodes(left, right)[2])), axis=1)
        assert np.all(np.abs(errs - w_errs) <= 16 * eps * scale)
        assert np.all(np.abs(anti - w_anti) <= 16 * eps * scale)


def test_leaf_groups_match_each_group_alone():
    work = Counter()
    both = _by_root(quad._leaf(_kinked_with_poles, _GROUPS, (), 1e-12, 1e-13, work, None))
    alone_work = [Counter(), Counter()]
    alone = {}
    for k, group in enumerate(_GROUPS):
        blocks = list(quad._leaf(_kinked_with_poles, [group], (), 1e-12, 1e-13, alone_work[k], None))
        alone.update({(k, root): leaves for (_, root), leaves in _by_root(blocks).items()})
    _assert_same_roots(_kinked_with_poles, both, alone)
    # a root inf at its centre node is split there, in the batch, as any
    # panel is: its halves have the pole as an end, not as a node
    for key, centre in [((0, 2), 2.5), ((1, 0), -0.5), ((1, 2), -2.5)]:
        assert centre in both[key][0]
    # one integrand call per level of the deeper group, on every panel once
    assert work["calls"] == max(w["calls"] for w in alone_work)
    assert work["points"] == sum(w["points"] for w in alone_work)


def test_closed_leaf_group_yields_no_more_blocks():
    # the lower side's first root is done long before its kinked second one
    closed = set()
    blocks = []
    for blk in quad._leaf(_kinked_with_poles, _GROUPS, closed, 1e-12, 1e-13, Counter(), None):
        blocks.append(blk)
        if blk.group == 1:
            closed.add(1)
    assert [(blk.group, blk.first, len(blk.singular)) for blk in blocks if blk.group == 1] == [(1, 0, 1)]
    alone = list(quad._leaf(_kinked_with_poles, _GROUPS[:1], (), 1e-12, 1e-13, Counter(), None))
    _assert_same_roots(
        _kinked_with_poles,
        {key: v for key, v in _by_root(blocks).items() if key[0] == 0},
        _by_root(alone),
    )


def _cumulative_reference(g, t_ref, lower, upper, tol=1e-10, tail_mode=False, max_panels=4000):
    """`quad.cumulative` one skeleton panel at a time, stopping where a rule fires."""
    leaf_tol = 0.0 if tail_mode else tol * 1e-2
    leaf_rel = 1e-8 if tail_mode else 1e-13
    work = Counter()
    leaves = []
    kept_unconverged = np.zeros(3, dtype=int)  # by `quad._Block.forced` code
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
                if abs(nxt) > quad.RANGE_CAP:
                    status = "range_cap"
                    break
            else:
                if k > len(pts):
                    status = "resolved"
                    break
                nxt = pts[k - 1]
            lo_, hi_ = (edge, nxt) if sign > 0 else (nxt, edge)
            new = _leaves_alone(g, lo_, hi_, leaf_tol, leaf_rel, work)
            if new == "singular":
                status = "singular"
                break
            *new, forced = new
            pv = sum(new[2].tolist())
            cum += pv
            if k > n_grow:
                contribs.append(abs(pv))
            leaves.append(new)
            kept_unconverged += forced
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
                if abs(cum) > math.exp(quad.LOG_BUDGET):
                    status = "budget"
                    break
            elif abs(cum.real) > quad.LOG_BUDGET:
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
    order = np.argsort(left)
    return quad.CumulativeIntegral(
        t_ref=float(t_ref),
        bps=np.append(left[order], right[order[-1]]),
        panel_vals=vals[order],
        panel_errs=errs[order],
        antider=anti[:, order],
        lower_info=infos["lower"],
        upper_info=infos["upper"],
        max_depth_leaves=int(kept_unconverged[quad._AT_MAX_DEPTH]),
        resolution_floor_leaves=int(kept_unconverged[quad._AT_FLOOR]),
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
    "resolved": (np.cos, 0.0, -5.0, 5.0, {}, ("resolved", "resolved"), 1, 1380),
    "converged": (lambda s: np.exp(-s), 1.0, 0.0, math.inf, {"tail_mode": True}, ("resolved", "converged"), 14, 9270),
    # exp(s) overflows past the budget stop: the skeleton panel across the
    # overflow is split once, and its upper half, inf at every node, makes
    # it singular; the walk stops at the budget before it
    "diverging": (
        lambda s: np.exp(s),
        1.0,
        0.0,
        math.inf,
        {"tail_mode": True},
        ("resolved", "diverging"),
        7,
        4710,
    ),
    "range_cap": (lambda s: 1.0 / (1.0 + s * s), 0.0, -math.inf, math.inf, {}, ("range_cap", "range_cap"), 3, 1500),
    # |cum.real| > LOG_BUDGET
    "budget": (lambda s: s, 1.0, 0.0, math.inf, {}, ("resolved", "budget"), 1, 1080),
    # |cum| > e^LOG_BUDGET; past s = 708 the integrand is subnormal noise that
    # never converges, which the batch must not reach
    "tail_budget": (
        lambda s: 1e131 * np.exp(-s),
        1.0,
        0.0,
        math.inf,
        {"tail_mode": True},
        ("budget", "budget"),
        1,
        1080,
    ),
    # inf within 1e-9 of 2.3, after finite panels
    "singular": (_spike(2.3, 1e-9), 1.0, 0.0, 4.0, {}, ("resolved", "singular"), 29, 3465),
    # inf only at the centre node of the skeleton panel [2.5, 3.25]: the
    # batch splits that panel, whose halves have 2.875 as an end, not as a
    # node, while [1.15, 1.45] still splits at the kink
    "non_finite_split": (
        lambda s: np.where(s == 2.875, np.inf, np.sqrt(np.abs(s - 1.3))),
        1.0,
        0.0,
        4.0,
        {},
        ("resolved", "resolved"),
        20,
        2565,
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
    assert got.resolution_floor_leaves == ref.resolution_floor_leaves
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
    # and a non-finite panel is split in the batch like any other; pinned
    # so that a change of either rule updates these on purpose
    g, t_ref, lower, upper, opts, _, calls, points = _STOPS[case]
    counted, work = _counted(g)
    c = quad.cumulative(counted, t_ref, lower, upper, **opts)
    assert (c.integrand_calls, c.integrand_points) == (work["calls"], work["points"]) == (calls, points)


@pytest.mark.parametrize("case", list(_STOPS))
def test_cumulative_is_one_leaf_batch(case, monkeypatch):
    # both sides' skeleton panels, as two groups of one `_leaf` call
    g, t_ref, lower, upper, opts, *_ = _STOPS[case]
    leaf, groups = quad._leaf, []
    monkeypatch.setattr(quad, "_leaf", lambda g, gs, *rest: groups.append(len(gs)) or leaf(g, gs, *rest))
    quad.cumulative(g, t_ref, lower, upper, **opts)
    assert groups == [2]


def _same_cache(got, ref):
    """Assert that ``got`` and the oracle's ``ref`` hold the same bits and read the same bits."""
    for name in ("bps", "panel_vals", "panel_errs", "antider"):
        assert _read_bits(getattr(got, name)) == _read_bits(getattr(ref, name)), name
    assert (got.lower_info, got.upper_info) == (ref.lower_info, ref.upper_info)
    for name in ("t_ref", "error_bound", "max_depth_leaves", "resolution_floor_leaves", "integrand_calls", "integrand_points"):
        assert getattr(got, name) == getattr(ref, name), name
    ts = np.concatenate([got.bps, [got.t_ref], np.random.default_rng(5).uniform(got.lo, got.hi, 64)])
    for _ in range(2):
        for q in (ts, ts[:1], np.asarray(ts[-1])):
            assert _reads(got, q) == _reads(ref, q)


# stops of a walk over roots of many leaves each: (integrand, t_ref, lower,
# upper, options, (lower status, upper status))
_MANY_LEAVES = {
    "budget": (lambda s: s * (1.0 + 0.5 * np.sin(40.0 * s)), 1.0, 0.0, math.inf, {}, ("resolved", "budget")),
    "converged": (
        lambda s: np.exp(-s) * (1.0 + 0.5 * np.sin(40.0 * s)),
        1.0,
        0.0,
        math.inf,
        {"tail_mode": True},
        ("resolved", "converged"),
    ),
    "diverging": (lambda s: 1.0 / s + 1.0 / (1.0 - s), 0.5, 0.0, 1.0, {"tail_mode": True}, ("diverging", "diverging")),
}


_BUILDS = {**_STOPS, **{f"many-leaves-{case}": v for case, v in _MANY_LEAVES.items()}}


@pytest.mark.parametrize("case", list(_BUILDS))
def test_cumulative_matches_the_earlier_build(case):
    g, t_ref, lower, upper, opts, statuses, *_ = _BUILDS[case]
    got = quad.cumulative(g, t_ref, lower, upper, **opts)
    assert (got.lower_info.status, got.upper_info.status) == statuses
    _same_cache(got, cumulative_oracle.cumulative(g, t_ref, lower, upper, **opts))


def _seeded_problem(family, seed):
    """(problem, rho) of ``family`` with parameters drawn from ``seed``, inside the corpus ranges."""
    rng = np.random.default_rng([family == "exeq06", seed])
    draw = lambda lo, hi: round(float(rng.uniform(lo, hi)), 4)
    if family == "exeq03":
        return corpus.build(corpus._exeq03_variant(draw(0.5, 2.0)))
    if family == "exeq06":
        return corpus.build(corpus._exeq06_variant(draw(0.5, 2.0), draw(1.5, 2.0), draw(0.5, 1.0)))
    if family == "const-iii-complex":
        return make_problem("1", "3", "2.25 - 0.5*i", "0", -40.0, 40.0), exprlang.parse("-2 - 0.5*i")
    # roots l1 > l2 < 0 of a0 x'' + a1 x' + a2 x; rho is the smaller one
    a0, m1, m2 = draw(1.0, 2.0), draw(1.0, 1.4), draw(1.6, 2.0)
    l1, l2 = (m1, -m2) if family == "const-ii" else (-m1, -m2)
    return corpus.build(corpus._const_variant(family, a0, -a0 * (l1 + l2), a0 * l1 * l2, repr(l2), family[6:]))


@pytest.mark.parametrize(
    "family, seed",
    [("exeq03", 1), ("exeq03", 2), ("exeq06", 1), ("exeq06", 2), ("const-iii", 1), ("const-ii", 2), ("const-iii-complex", 0)],
)
def test_engine_caches_match_the_earlier_build(family, seed, monkeypatch):
    # every cache an analysis builds, rebuilt by the earlier `cumulative`
    # from the same integrand
    builds = []
    build = quad.cumulative
    monkeypatch.setattr(quad, "cumulative", lambda g, *args, **kw: builds.append((g, args, kw, build(g, *args, **kw))) or builds[-1][3])
    problem, rho = _seeded_problem(family, seed)
    report = stability.analyze(problem, rho, Config())
    assert report.verdict in ("stable_with_constant", "best_constant")
    assert len(builds) >= 5
    for g, args, kw, got in builds:
        _same_cache(got, cumulative_oracle.cumulative(g, *args, **kw))


def test_panel_non_finite_at_every_node_ends_the_side():
    # NaN on all of (0.7, 1): bisecting would double the NaN panels per level
    # down to _MAX_DEPTH; a panel NaN at all 15 nodes makes the root singular
    counted, work = _counted(lambda s: np.where(s > 0.7, np.nan, 1.0))
    c = quad.cumulative(counted, 0.5, 0.0, 1.0)
    assert c.upper_info.status == "singular" and c.lower_info.status == "resolved"
    assert work["points"] == c.integrand_points < 10_000
    assert c.lo < 1e-12 and 0.5 < c.hi <= 0.7
    ts = np.linspace(c.lo, c.hi, 50)
    assert np.max(np.abs(c.value(ts).real - (ts - 0.5))) < 1e-12


@pytest.mark.parametrize(
    "g",
    [lambda s: np.full_like(s, np.inf), lambda s: np.where(np.abs(s) < 0.5, np.nan, 1.0)],
    ids=["inf-everywhere", "nan-around-t_ref"],
)
def test_both_sides_singular_at_t_ref_is_a_value_error(g):
    # both sides end singular at their first skeleton panel, so no panel is covered
    with pytest.raises(ValueError, match="empty coverage"):
        quad.cumulative(g, 0.0, -1.0, 1.0)


@pytest.mark.parametrize(
    "t_ref, lower, upper, match",
    [
        (2.0, -1.0, 1.0, "t_ref 2.0 is not a finite point"),
        (-1.5, -1.0, 1.0, "t_ref -1.5 is not a finite point"),
        (math.nan, -1.0, 1.0, "t_ref nan is not a finite point"),
        (math.inf, 0.0, math.inf, "t_ref inf is not a finite point"),
        (0.0, 1.0, -1.0, "lower end 1.0 is not below upper end -1.0"),
        (0.0, 0.0, 0.0, "lower end 0.0 is not below upper end 0.0"),
    ],
)
def test_bad_ends_or_t_ref_are_value_errors(t_ref, lower, upper, match):
    with pytest.raises(ValueError, match=match):
        quad.cumulative(np.cos, t_ref, lower, upper)


@pytest.mark.parametrize("t_ref", [-1.0, 1.0])
def test_t_ref_at_an_end_is_allowed(t_ref):
    c = quad.cumulative(np.cos, t_ref, -1.0, 1.0)
    # coverage reaches t_ref and stops within 1e-12 of the other end
    assert t_ref in (c.lo, c.hi) and c.lo < -1.0 + 1e-12 and c.hi > 1.0 - 1e-12
    ts = np.linspace(c.lo, c.hi, 9)
    assert np.max(np.abs(c.value(ts) - (np.sin(ts) - math.sin(t_ref)))) < 1e-13


class _ProductRows(np.ndarray):
    """A leaf operator (`quad._RESID`, `quad._ANTI`) that records the rows of each product ``y @ op.T``."""

    def __array_finalize__(self, obj):
        self.rows = getattr(obj, "rows", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.rows.append(inputs[0].shape[0])
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


def _product_rows(monkeypatch, build):
    """(rows of each residual product, rows of each antiderivative product, result) of ``build()``."""
    resid, anti = quad._RESID.view(_ProductRows), quad._ANTI.view(_ProductRows)
    resid.rows, anti.rows = [], []
    monkeypatch.setattr(quad, "_RESID", resid)
    monkeypatch.setattr(quad, "_ANTI", anti)
    out = build()
    return resid.rows, anti.rows, out


# BLAS rounds `y @ _RESID.T` and `y @ _ANTI.T` differently with the row count
# of `y`, so the rows of every product, one of each per bisection level, are
# pinned: an edit that changes them moves fits and interpolants by an ulp
_PRODUCT_ROWS = {
    "exeq01-Pc": (
        [72, 107, 16, 28, 25, 79, 179, 226, 104],
        [20, 107, 16, 28, 25, 79, 179, 226, 104],
    ),
    "converged": (
        [66, 5, 8, 16, 32, 66, 93, 56, 1, 6, 21, 45, 62, 4],
        [65, 3, 4, 8, 16, 33, 65, 54, 0, 0, 1, 30, 62, 4],
    ),
    "diverging": ([50, 4, 8, 16, 32, 64, 64], [49, 2, 4, 8, 16, 32, 64]),
}


@pytest.mark.parametrize("case", list(_PRODUCT_ROWS))
def test_leaf_product_rows_are_pinned(case, monkeypatch, exeq01, cfg):
    if case == "exeq01-Pc":
        build = lambda: StabilityEngine(*exeq01, cfg).Pc
    else:
        g, t_ref, lower, upper, opts, *_ = _STOPS[case]
        build = lambda: quad.cumulative(g, t_ref, lower, upper, **opts)
    want = build()
    resid, anti, got = _product_rows(monkeypatch, build)
    assert (resid, anti) == _PRODUCT_ROWS[case]
    # recording does not move the cache
    assert np.array_equal(got.panel_vals, want.panel_vals) and np.array_equal(got.antider, want.antider)


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

# the scan, divergence threshold and tail length of `quad.sup_over`
_SUP = {"n_scan": 257, "threshold": 1e6, "tail_k": 8}


def _call_sizes(h):
    calls = []

    def counting(t):
        calls.append(np.size(t))
        return h(t)

    return counting, calls


def test_sup_interior_maximum():
    h, calls = _call_sizes(np.sin)
    res = quad.sup_over(h, 0.0, 4.0)
    assert not res.unbounded
    assert res.sup_value == pytest.approx(1.0, abs=1e-12)
    assert res.attained_near == pytest.approx(math.pi / 2, abs=1e-4)
    # the scan, the zoom steps and the two endpoint sequences
    assert len(calls) <= 16


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
    # the scan of 257 points misses every bump top
    assert np.max(h(quad.graded_grid(0.0, 6.0, 257))) < 0.99


@pytest.mark.parametrize(
    "h",
    [
        lambda t: np.sin(3.0 * t) * np.exp(-0.1 * t),
        lambda t: np.round(np.cos(t), 6),  # plateaus: ties between samples
        lambda t: np.where(t > 2.0, np.nan, -((t - 1.0) ** 2)),
    ],
)
def test_zoom_lockstep_bracket_does_not_depend_on_the_batch(h):
    rng = np.random.default_rng(5)
    a = rng.uniform(-5.0, 25.0, 5)
    b = a + rng.uniform(1e-12, 2.0, 5)
    fa, fb = h(a).tolist(), h(b).tolist()
    a, b = a.tolist(), b.tolist()
    t, v = quad._zoom_lockstep(h, a, b, fa, fb)
    for i in range(5):
        t0, v0 = quad._zoom_lockstep(h, a[i : i + 1], b[i : i + 1], fa[i : i + 1], fb[i : i + 1])
        assert t[i] == t0[0] and v[i] == v0[0]
        assert a[i] <= t[i] <= b[i]


@pytest.mark.parametrize("h", [lambda t: 1.0 / t, lambda t: 1.0 / np.sqrt(1.0 - t)], ids=["pole", "slow-divergence"])
def test_unbounded_sup_costs_one_call(h):
    # the endpoint tests read the first call only, and come before the zoom
    h, calls = _call_sizes(h)
    assert quad.sup_over(h, 0.0, 1.0).unbounded
    assert len(calls) == 1


def test_sup_of_a_constant_stops_when_flat():
    h, calls = _call_sizes(lambda t: np.full(np.shape(t), 2.5))
    res = quad.sup_over(h, -40.0, 40.0)
    assert res.sup_value == 2.5 and not res.unbounded
    assert len(calls) <= 4


def test_sup_never_below_samples():
    h = lambda t: -((np.asarray(t) - 0.3) ** 2)
    res = quad.sup_over(h, 0.0, 1.0)
    assert res.sup_value >= -1e-12
    assert res.sup_value == pytest.approx(0.0, abs=1e-9)


def _sup_over_reference(h, lo, hi, n_scan, threshold, tail_k):
    """`quad.sup_over` with the scan and each endpoint's approach as separate calls of ``h``."""
    grid = quad.graded_grid(lo, hi, n_scan)
    with np.errstate(all="ignore"):
        vals = np.real(np.asarray(h(grid), dtype=complex))
    ok = np.isfinite(vals)
    grid, vals = grid[ok], vals[ok]
    order = np.argsort(vals)[::-1]
    best_val, best_t = float(vals[order[0]]), float(grid[order[0]])
    top = order[:5]
    ia, ib = np.maximum(top - 1, 0), np.minimum(top + 1, grid.size - 1)
    ia, ib = ia[ib > ia], ib[ib > ia]
    t_loc, v_loc = sup_oracle.zoom_lockstep(h, grid[ia], grid[ib], vals[ia], vals[ib])
    for t, v in zip(t_loc.tolist(), v_loc.tolist()):
        if v > best_val:
            best_val, best_t = v, t
    span, ratio = hi - lo, 0.5
    for endpoint, sign in ((lo, 1.0), (hi, -1.0)):
        pts = endpoint + sign * (0.25 * span * ratio ** np.arange(28))
        pts = pts[(pts > lo) & (pts < hi) & (pts != endpoint)]
        if pts.size < 4:
            continue
        with np.errstate(all="ignore"):
            seq = np.real(np.asarray(h(pts), dtype=complex))
        ok = np.isfinite(seq)
        pts, seq = pts[ok], seq[ok]
        if seq.size < 4:
            continue
        tail = seq[-tail_k:]
        incr = np.diff(tail)
        if tail.size >= tail_k and np.all(incr > 0):
            if tail[-1] >= threshold:
                return quad.SupResult(math.inf, endpoint, unbounded=True)
            noise = 1e-9 * (1.0 + np.abs(tail[-1]))
            if np.all(incr > noise) and np.all(incr[1:] >= 0.95 * incr[:-1]):
                return quad.SupResult(math.inf, endpoint, unbounded=True)
        limit = sup_oracle.richardson(list(seq[-6:]), ratio)
        if np.isfinite(limit) and limit > best_val:
            best_val, best_t = max(limit, float(np.max(seq))), endpoint
        elif float(np.max(seq)) > best_val:
            best_val, best_t = float(np.max(seq)), float(pts[int(np.argmax(seq))])
    return quad.SupResult(best_val, best_t, unbounded=False)


@pytest.mark.parametrize(
    "h, lo, hi",
    [
        (lambda t: np.sin(3.0 * t) * np.exp(-0.1 * t), 0.0, 4.0),  # smooth, interior maximum
        (lambda t: np.asarray(t, dtype=float), 0.0, 1.0),  # supremum at an open endpoint
        (lambda t: 1.0 / t, 0.0, 1.0),  # diverges at the lower endpoint
        (lambda t: 1.0 / np.sqrt(1.0 - t), 0.0, 1.0),  # diverges slowly at the upper endpoint
        # NaN on part of the upper approach sequence
        (lambda t: np.where((t > 0.99) & (t < 0.999), np.nan, t * (1.0 - t) + t**4), 0.0, 1.0),
    ],
    ids=["smooth", "open-endpoint", "pole", "slow-divergence", "nan-approach"],
)
def test_sup_over_matches_separate_calls(h, lo, hi):
    h_one, one = _call_sizes(h)
    h_sep, sep = _call_sizes(h)
    got = quad.sup_over(h_one, lo, hi)
    want = _sup_over_reference(h_sep, lo, hi, **_SUP)
    assert (got.sup_value, got.attained_near, got.unbounded) == (want.sup_value, want.attained_near, want.unbounded)
    # the scan and both approach sequences of 28 points each share one call
    assert one[0] == quad.graded_grid(lo, hi, _SUP["n_scan"]).size + 2 * 28


def _bits(xs):
    """The bit patterns of the floats ``xs``, so that -0.0 and 0.0 differ."""
    return np.asarray(xs, dtype=float).view(np.int64).tolist()


# h of each zoom case; non-finite samples count as -inf, and equal samples tie
_ZOOM_H = {
    "smooth": lambda t: np.sin(3.0 * t) * np.exp(-0.1 * t),
    "plateaus": lambda t: np.round(np.cos(t), 2),  # ties at the maximum
    "nan-and-minus-inf": lambda t: np.where(
        np.sin(7.0 * t) > 0.5, np.nan, np.where(np.sin(7.0 * t) < -0.5, -np.inf, np.cos(t))
    ),
    "plus-inf": lambda t: np.where(np.cos(5.0 * t) > 0.9, np.inf, np.sin(t)),
    "flat": lambda t: np.full(np.shape(t), 2.5),
    "signed-zeros": lambda t: np.copysign(0.0, np.sin(9.0 * t)),
    "complex": lambda t: np.exp(1j * t) * (1.0 + t),  # the real part counts
}


def _zoom_brackets(seed, n):
    """``n`` seeded brackets in [-5, 25], from below 1e-13 relative (already narrow) to 3 wide."""
    rng = np.random.default_rng([32, seed])
    a = rng.uniform(-5.0, 25.0, n)
    rel = rng.choice([1e-14, 9e-14, 2e-13, 1e-6, 0.3, 3.0], n)
    return a, a + rel * np.maximum(1.0, np.abs(a))


@pytest.mark.parametrize("seed, n", [(1, 0), (2, 1), (3, 5), (4, 9)])
@pytest.mark.parametrize("name", list(_ZOOM_H))
def test_zoom_lockstep_matches_the_numpy_oracle(name, seed, n):
    h = _ZOOM_H[name]
    a, b = _zoom_brackets(seed, n)
    with np.errstate(all="ignore"):
        fa, fb = np.real(h(a)), np.real(h(b))
    h_new, new = _call_sizes(h)
    h_old, old = _call_sizes(h)
    t, v = quad._zoom_lockstep(h_new, a.tolist(), b.tolist(), fa.tolist(), fb.tolist())
    t_ref, v_ref = sup_oracle.zoom_lockstep(h_old, a, b, fa, fb)
    assert (_bits(t), _bits(v)) == (_bits(t_ref), _bits(v_ref))
    assert new == old
    assert len(t) == len(v) == n


# sup_over cases whose approach sequences end in non-finite values, rise
# strictly past the divergence threshold or slowly, or converge
_SUP_TAILS = {
    "nan-near-lower": (lambda t: np.where(t < 1e-4, np.nan, np.sqrt(t) + 1.0), 0.0, 1.0),
    "inf-near-upper": (lambda t: np.where(1.0 - t < 1e-6, np.inf, t * t), 0.0, 1.0),
    "minus-inf-near-both": (lambda t: np.where(np.minimum(t, 2.0 - t) < 1e-5, -np.inf, np.cos(t)), 0.0, 2.0),
    "past-threshold": (lambda t: 1.0 / (t * t), 0.0, 1.0),
    "rising-below-threshold": (lambda t: 10.0 / np.sqrt(1.0 - t), 0.0, 1.0),
    "log-divergence": (lambda t: -np.log(t), 0.0, 1.0),
    "rising-to-a-limit": (lambda t: np.exp(-t), 0.0, 3.0),
    "converging-oscillation": (lambda t: np.sin(t) / t, 0.0, 3.0),
    "limit-at-upper": (lambda t: t / (1.0 + t), 0.0, 5.0),
    # the supremum is the Richardson limit itself, not a sample
    "extrapolated-limit": (lambda t: t * np.log(t), 0.0, 1.0),
    "interior": (lambda t: np.sin(3.0 * t) * np.exp(-0.1 * t), -1.0, 4.0),
    "constant": (lambda t: np.full(np.shape(t), -0.0), -40.0, 40.0),
}


@pytest.mark.parametrize("name", list(_SUP_TAILS))
def test_sup_over_matches_the_numpy_oracle(name):
    h, lo, hi = _SUP_TAILS[name]
    h_new, new = _call_sizes(h)
    h_old, old = _call_sizes(h)
    with np.errstate(all="ignore"):
        got = quad.sup_over(h_new, lo, hi)
        want = sup_oracle.sup_over(h_old, lo, hi)
    assert _bits([got.sup_value, got.attained_near]) == _bits([want.sup_value, want.attained_near])
    assert got.unbounded == want.unbounded
    assert new == old
