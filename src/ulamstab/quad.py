"""Integration machinery.

Provides cached cumulative antiderivatives built from adaptive
Gauss-Kronrod 15(7) panels with per-panel Legendre interpolants, graded
evaluation grids, and sup-over-interval search with endpoint limit
extrapolation.  Coverage of a cumulative grows from an interior anchor
toward each endpoint, finite or infinite, and stops where the endpoint is
resolved or a budget is hit; the reason is recorded per side.

The numeric work runs as numpy batches.  All skeleton panels of a side are
bisected together one level at a time, with one integrand call on the
nodes of the whole level (as in `scipy.integrate.quad_vec`), while the
stopping rules walk the finished panels in skeleton order.  The nodes are
fixed, so a panel's fit residual and antiderivative coefficients are
constant matrices applied to its node values.  A query reads its panel's interpolant with one
complex Clenshaw recurrence, and the sup search refines its candidate
maxima in lockstep, one call of the function per golden-section step.

Everything here is pure; `CumulativeIntegral` objects are built once and
read-only afterwards, so they can be shared freely between threads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg

__all__ = [
    "Divergent",
    "CoverageError",
    "CumulativeIntegral",
    "cumulative",
    "SupResult",
    "sup_over",
    "graded_grid",
]


class Divergent(Exception):
    """Integral grows without bound under refinement."""


class CoverageError(Exception):
    """Query point outside the covered range of a cumulative cache."""


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15(7) rule on [-1, 1]

_XGK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)


# ---------------------------------------------------------------------------
# cumulative antiderivative cache

_LEG_DEG = 12


def _leaf_operators():
    """Fit residual and antiderivative as constant maps of the node values.

    With ``FIT = pinv(V)`` the least-squares Legendre fit of the 15 node
    values, ``V @ FIT - I`` maps them to the fit residual at the nodes and
    ``S @ legint @ FIT`` to the coefficients of the fit's antiderivative on
    [-1, 1] (times the half-width), where ``S`` shifts it to zero at -1.
    """
    vander = npleg.legvander(_XGK, _LEG_DEG)
    fit = np.linalg.pinv(vander)
    integ = npleg.legint(np.eye(_LEG_DEG + 1))
    integ[0] -= npleg.legval(-1.0, integ)
    return vander @ fit - np.eye(_XGK.size), integ @ fit


_RESID, _ANTI = _leaf_operators()
_EPS = np.finfo(float).eps


@dataclass
class SideInfo:
    status: str  # "resolved" | "converged" | "budget" | "range_cap" | "diverging" | "singular"
    tail_bound: float = 0.0

    @property
    def usable_as_limit(self):
        # the cache edge can stand in for the (improper) endpoint value
        return self.status in ("resolved", "converged")


@dataclass
class CumulativeIntegral:
    """Cached antiderivative P(t) = int_{t_ref}^t g with panel interpolants.

    Values are queried as differences anchored at an edge or at ``t_ref``;
    differences anchored at an edge accumulate the tiny near-edge panel
    contributions first, preserving relative accuracy of small tails.
    """

    t_ref: float
    bps: np.ndarray
    panel_vals: np.ndarray  # complex, per panel
    panel_errs: np.ndarray
    antider: np.ndarray  # (deg+2, n_panels) Legendre coeffs, zero at panel start
    lower_info: SideInfo = field(default_factory=lambda: SideInfo("resolved"))
    upper_info: SideInfo = field(default_factory=lambda: SideInfo("resolved"))
    max_depth_leaves: int = 0  # leaves kept only because bisection hit max_depth
    integrand_calls: int = 0  # calls of the integrand while building the cache
    integrand_points: int = 0  # points it was evaluated at, past a stop too

    def __post_init__(self):
        self._left = np.concatenate([[0.0 + 0.0j], np.cumsum(self.panel_vals)])
        self._right = np.concatenate([np.cumsum(self.panel_vals[::-1])[::-1], [0.0 + 0.0j]])
        # accumulation anchored at the reference panel: differences near
        # t_ref must not be formed by cancelling huge edge-anchored sums
        k = int(np.clip(np.searchsorted(self.bps, self.t_ref, side="right") - 1, 0, len(self.panel_vals) - 1))
        anch = np.empty(len(self.panel_vals) + 1, dtype=complex)
        anch[k] = 0.0
        anch[k + 1 :] = np.cumsum(self.panel_vals[k:])
        anch[:k] = -np.cumsum(self.panel_vals[:k][::-1])[::-1]
        self._anch = anch
        self._ref_offset = complex(self._anch_prefix(np.array([self.t_ref]))[0])
        self.error_bound = float(np.sum(self.panel_errs))

    @property
    def lo(self):
        return float(self.bps[0])

    @property
    def hi(self):
        return float(self.bps[-1])

    def covers(self, t):
        t = np.asarray(t, float)
        return (t >= self.bps[0]) & (t <= self.bps[-1])

    def _in_panel(self, t):
        """(panel index, int from the panel start to t) for covered t."""
        t = np.asarray(t, float)
        if np.any(t < self.bps[0]) or np.any(t > self.bps[-1]):
            raise CoverageError(
                f"query outside coverage [{self.bps[0]}, {self.bps[-1]}]"
            )
        # covered t has idx >= 0; t at the upper edge reads the last panel
        idx = np.minimum(np.searchsorted(self.bps, t, side="right") - 1, len(self.panel_vals) - 1)
        x0 = self.bps[idx]
        x1 = self.bps[idx + 1]
        xi = 2.0 * (t - x0) / (x1 - x0) - 1.0
        # Clenshaw recurrence of (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1},
        # over the complex coefficient columns of every query's panel at once
        c = self.antider[:, idx]
        b0, b1 = c[-2], c[-1]
        for j in range(c.shape[0] - 2, 0, -1):
            b0, b1 = c[j - 1] - b1 * (j / (j + 1)), b0 + b1 * xi * ((2 * j + 1) / (j + 1))
        return idx, b0 + b1 * xi

    def _anch_prefix(self, t):
        """int from the reference panel start to t."""
        idx, part = self._in_panel(t)
        return self._anch[idx] + part

    def from_lower(self, t):
        """int over (lower edge, t]; accurate for t near the lower edge."""
        idx, part = self._in_panel(t)
        return self._left[idx] + part

    def from_upper(self, t):
        """int over [t, upper edge); accurate for t near the upper edge."""
        idx, part = self._in_panel(t)
        return self._right[idx] - part

    def value(self, t):
        """P(t) with P(t_ref) = 0."""
        return self._anch_prefix(t) - self._ref_offset

    def between(self, a, b):
        """int over (a, b) for covered a, b."""
        return self._anch_prefix(np.asarray(b, float)) - self._anch_prefix(np.asarray(a, float))

    @property
    def total(self):
        return complex(self._left[-1])


def _leaf(g, lo, hi, leaf_tol, work, leaf_rel=1e-13, max_depth=28):
    """Adaptively split the root panels [lo_i, hi_i] into converged leaves.

    The bisection trees of all roots are walked together one level at a
    time: the integrand is called once on the (m, 15) nodes of the level's m
    panels, and the GK15 value and error, the fit residual and the
    accept/split decision of every panel are computed as arrays.  A panel's
    numbers depend on its own nodes only, so every root gets the leaves it
    would get alone.  A panel is accepted when its error estimate and its fit
    residual meet the budget, or when it sits at ``max_depth``.

    A generator: it yields ``(i, leaves)`` for the roots in index order,
    each once it and every root before it are done, and bisects the next
    level only when asked for a root that is not done yet, so a consumer
    that stops early leaves the later roots alone.  ``leaves`` are the
    root's accepted leaves sorted by left edge, as arrays (left, right,
    value, error, antiderivative coefficients (14, n)) and the number of
    leaves kept only because they reached ``max_depth``.

    A panel with a non-finite node is split further only while its root is
    the first unfinished one; a later root that turns non-finite is dropped
    and yields "dropped", so no bisection is spent on a root the consumer
    may never ask for (a root given alone is never dropped).  A non-finite
    panel at ``max_depth`` makes its root yield "singular".  The integrand
    is evaluated quietly: its non-finite values are handled here, as data.
    ``work`` (a `collections.Counter`) counts integrand calls and points.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    n = a.size
    root = np.arange(n)
    fate = np.full(n, "", dtype=object)  # "dropped" or "singular" once a root fails
    kept = []
    done = 0  # roots below this index are yielded
    for depth in range(max_depth + 1):
        mid = 0.5 * (a + b)
        hw = 0.5 * (b - a)
        x = mid[:, None] + hw[:, None] * _XGK
        work["calls"] += 1
        work["points"] += x.size
        with np.errstate(all="ignore"):
            y = np.asarray(g(x), dtype=complex)
            # row sums along the contiguous node axis round as a 1-d np.sum
            # of the panel would, so a panel's value does not depend on its
            # level or on the other panels of the batch
            val = hw * np.sum(_WGK * y, axis=1)
            gauss = hw * np.sum(_WG * y[:, 1::2], axis=1)
            err = np.abs(val - gauss)
            # standard sharper error model
            resabs = hw * np.sum(_WGK * np.abs(y), axis=1)
            sharp = (resabs > 0) & (err > 0) & (err / resabs < 1)
            # fmin keeps err where the model gives NaN, as a scalar min() would
            err = np.where(sharp, np.fmin(err, resabs * (200.0 * err / resabs) ** 1.5), err)
            width = b - a
            ymax = np.max(np.abs(y), axis=1)
            # relative scale: panel value, or sample magnitude when it cancels
            budget = leaf_tol + leaf_rel * np.maximum(np.abs(val), width * ymax)
        finite = np.all(np.isfinite(y), axis=1)
        at_max = depth >= max_depth
        converged = finite & (err <= budget)
        fit = np.flatnonzero(converged | (finite & at_max))
        # interior value() queries read the interpolant, so the fit must
        # meet the same budget as the integral before the leaf is kept;
        # node abscissas are rounded to ulp(|t|), which floors the
        # attainable residual of steep narrow panels far from 0
        resid = np.max(np.abs(y[fit] @ _RESID.T), axis=1, initial=0.0) * width[fit]
        pos_noise = 64.0 * _EPS * np.maximum(np.abs(a[fit]), np.abs(b[fit])) * ymax[fit]
        fit_ok = ~(resid > budget[fit] + pos_noise)
        if at_max:
            forced = ~(converged[fit] & fit_ok)
            acc = fit
        else:
            acc = fit[fit_ok]
            resid = resid[fit_ok]
            forced = np.zeros(acc.size, dtype=bool)
        anti = (y[acc] @ _ANTI.T) * hw[acc, None]
        kept.append((root[acc], a[acc], b[acc], val[acc], err[acc] + 0.1 * resid, anti, forced))
        split = np.ones(a.size, dtype=bool)
        split[acc] = False
        if not np.all(finite):
            bad = np.unique(root[~finite])
            if at_max:
                fate[bad] = "singular"
            else:
                # only the first unfinished root splits its non-finite panels
                fate[bad[bad != root[split].min()]] = "dropped"
            split &= fate[root] == ""
        root, a, mid, b = root[split], a[split], mid[split], b[split]
        # roots done: every one below the first that still has a panel to split
        ready = int(root.min()) if root.size else n
        if ready > done:
            kr, left, right, vals, errs, anti, forced = (np.concatenate(part) for part in zip(*kept))
            now = kr < ready
            # a root's leaves in left-edge order; ties keep their order of acceptance
            order = np.flatnonzero(now)[np.lexsort((left[now], kr[now]))]
            bounds = np.searchsorted(kr[order], np.arange(done, ready + 1)).tolist()
            kept = [tuple(part[~now] for part in (kr, left, right, vals, errs, anti, forced))]
            for r in range(done, ready):
                i = order[bounds[r - done] : bounds[r - done + 1]]
                leaves = (left[i], right[i], vals[i], errs[i], anti[i].T, int(np.count_nonzero(forced[i])))
                yield r, fate[r] or leaves
            done = ready
        if not root.size:
            return
        root, a, b = np.concatenate([root, root]), np.concatenate([a, mid]), np.concatenate([mid, b])


def _finite_skeleton(t_ref, endpoint, sign):
    """Breakpoints from the anchor toward a finite endpoint.

    Gaps double away from the anchor, then halve toward the endpoint.  The
    width of every panel stays comparable to its distance from the nearer
    end, which bounds the per-panel dynamic range of growing integrands --
    a single panel spanning most of a huge range would pass the integral
    tolerance yet leave interior interpolant queries with absolute error
    on the scale of the whole panel mass.  Returns (points, n_grow) where
    the first ``n_grow`` points belong to the doubling phase.
    """
    span = abs(endpoint - t_ref)
    half = 0.5 * span
    h0 = min(1.0, 0.05 * span)
    pts = []
    k = 1
    while True:
        d = h0 * (2.0**k - 1.0)
        if d >= half:
            break
        pts.append(t_ref + sign * d)
        k += 1
    n_grow = len(pts)
    gap = half
    eps_gap = 1e-13 * max(abs(endpoint), 1.0)
    while gap >= eps_gap:
        pts.append(endpoint - sign * gap)
        gap *= 0.5
    return pts, n_grow


def _skeleton(t_ref, endpoint, sign, range_cap, max_panels):
    """Skeleton points from the anchor toward one endpoint, all known up front.

    Returns (points, n_grow, status): the first ``n_grow`` points belong to
    the doubling phase, and ``status`` is the side's status when coverage
    reaches the last point.  A finite side uses `_finite_skeleton`; an
    infinite one doubles its gaps until ``range_cap``.  Both stop at
    ``max_panels`` points.
    """
    if math.isinf(endpoint):
        h0 = max(1.0, 0.05 * abs(t_ref))
        pts = []
        while len(pts) < max_panels:
            nxt = t_ref + sign * h0 * (2.0 ** (len(pts) + 1) - 1.0)
            if abs(nxt) > range_cap:
                break
            pts.append(nxt)
        return pts, 0, "range_cap"
    pts, n_grow = _finite_skeleton(t_ref, endpoint, sign)
    return pts[:max_panels], n_grow, "range_cap" if len(pts) >= max_panels else "resolved"


def cumulative(
    g,
    t_ref,
    lower,
    upper,
    tol=1e-10,
    log_budget=300.0,
    range_cap=1e8,
    tail_mode=False,
    leaf_rel=1e-13,
    max_panels=4000,
):
    """Build a `CumulativeIntegral` of ``g`` anchored at ``t_ref``.

    Coverage expands from ``t_ref`` toward each endpoint with geometrically
    graded skeleton panels until the endpoint is resolved, the real part of
    the accumulated value exceeds ``log_budget``, the range cap is hit, or
    (with ``tail_mode``) the endpoint tail has converged or is evidently
    diverging.  Coverage limits are recorded as data, never raised.

    All skeleton panels of a side are bisected together by one `_leaf`
    batch, and the stopping rules walk the panels' sums in skeleton order as
    the batch finishes them.  The batch stops with the walk; a panel it
    dropped is evaluated alone once the walk reaches it.
    """
    # tail caches serve edge-anchored partial sums over exponential dynamic
    # range: an absolute tolerance floor would let deep-decay panels carry
    # huge relative errors that downstream prefactors amplify
    leaf_tol = 0.0 if tail_mode else tol * 1e-2

    leaves = []
    max_depth_leaves = 0
    work = Counter()
    infos = {}
    for side, endpoint in (("upper", upper), ("lower", lower)):
        sign = 1 if side == "upper" else -1
        pts, n_grow, status = _skeleton(t_ref, endpoint, sign, range_cap, max_panels)
        edges = np.array([t_ref, *pts], dtype=float)
        lo_, hi_ = (edges[:-1], edges[1:]) if sign > 0 else (edges[1:], edges[:-1])
        cum = 0.0 + 0.0j
        contribs = []
        tail_bound = 0.0
        diverging = False
        for k, new in _leaf(g, lo_, hi_, leaf_tol, work, leaf_rel) if pts else ():
            if new == "dropped":
                ((_, new),) = _leaf(g, lo_[k : k + 1], hi_[k : k + 1], leaf_tol, work, leaf_rel)
            if new == "singular":
                status = "singular"
                break
            *new, forced = new
            pv = sum(new[2].tolist())
            cum += pv
            # only the endpoint-approach phase feeds the tail heuristics;
            # panels still growing away from the anchor carry growing mass
            # for perfectly integrable functions
            if k >= n_grow:
                contribs.append(abs(pv))
            leaves.append(new)
            max_depth_leaves += forced
            if tail_mode:
                if len(contribs) >= 3:
                    c1, c2, c3 = contribs[-3], contribs[-2], contribs[-1]
                    # divergence is flagged but never stops the expansion:
                    # truncating coverage early would poison edge-anchored
                    # queries whose prefactor amplifies the missing mass
                    if len(contribs) > 6 and c3 >= c2 >= c1 and c3 > 10.0 * (contribs[0] + tol):
                        diverging = True
                    # log-type endpoint divergence: halved panels keep
                    # contributing the same mass instead of decaying
                    if (
                        len(contribs) > 8
                        and math.isfinite(endpoint)
                        and c3 > tol
                        and c3 >= 0.999 * c2
                        and c2 >= 0.999 * c1
                    ):
                        diverging = True
                # tail caches hold exponential-scale values; budget their log
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
                    # cut off by range only after the tail had already died
                    ratio = c3 / c2 if c2 > 0 else 0.0
                    tail_bound = c3 * ratio / (1.0 - ratio) if ratio < 1 else c3
                    status = "converged"
                elif c3 > tol and c3 >= 0.7 * c2:
                    # tail not decaying by the time expansion was cut off
                    status = "diverging"
        infos[side] = SideInfo(status, tail_bound)

    if not leaves:
        raise ValueError("empty coverage; t_ref too close to both endpoints")
    left, right, vals, errs, anti = (np.concatenate(part, axis=-1) for part in zip(*leaves))
    # a zero-width leaf (a split at ulp width) goes before the leaf that
    # starts at the same point, so every panel reads its own edges in bps
    order = np.lexsort((right, left))
    return CumulativeIntegral(
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


# ---------------------------------------------------------------------------
# graded grids and sup search


def graded_grid(lo, hi, n, include_lo=False, include_hi=False):
    """Points in [lo, hi] clustered geometrically toward both ends.

    Used for probe grids and sup scans; endpoints are included only when
    the corresponding flag is set (closed endpoint).
    """
    span = hi - lo
    if span <= 0:
        raise ValueError("empty grid range")
    n_uni = max(n // 2, 8)
    n_geo = max(n // 4, 8)
    pts = [np.linspace(lo, hi, n_uni + 2)[1:-1]]
    ratios = np.exp(np.linspace(math.log(0.25), math.log(1e-12), n_geo))
    pts.append(lo + span * ratios)
    pts.append(hi - span * ratios)
    grid = np.concatenate(pts)
    grid = grid[(grid > lo) & (grid < hi)]
    if include_lo:
        grid = np.append(grid, lo)
    if include_hi:
        grid = np.append(grid, hi)
    return np.unique(grid)


@dataclass
class SupResult:
    sup_value: float
    attained_near: float | str
    unbounded: bool = False
    trace: list = field(default_factory=list)


def _golden_lockstep(h, a, b, iters=80):
    """Golden-section maxima of ``h`` on the brackets [a_i, b_i], refined together.

    Each bracket takes exactly the steps of a scalar golden-section search
    and freezes once it is narrower than 1e-13 relative; every iteration
    makes one ``h`` call on the new points of the brackets still active.
    Returns the best probe point and value of each bracket (the upper probe
    only when it is strictly higher).
    """
    if a.size == 0:
        return a, a
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = a.copy(), b.copy()
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = np.split(np.real(np.asarray(h(np.concatenate([x1, x2])))).astype(float), 2)
    active = np.ones(a.size, dtype=bool)
    for _ in range(iters):
        active &= ~(b - a < 1e-13 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))
        if not np.any(active):
            break
        up = np.flatnonzero(active & (f1 < f2))
        down = np.flatnonzero(active & ~(f1 < f2))
        # up: the maximum lies above x1, which becomes the new lower end
        a[up], x1[up], f1[up] = x1[up], x2[up], f2[up]
        x2[up] = a[up] + phi * (b[up] - a[up])
        # down: it lies below x2, which becomes the new upper end
        b[down], x2[down], f2[down] = x2[down], x1[down], f1[down]
        x1[down] = b[down] - phi * (b[down] - a[down])
        fn = np.real(np.asarray(h(np.concatenate([x2[up], x1[down]])))).astype(float)
        f2[up], f1[down] = fn[: up.size], fn[up.size :]
    lower = f1 >= f2
    return np.where(lower, x1, x2), np.where(lower, f1, f2)


def _richardson(values, ratio):
    """Extrapolate v_j = v* + O(d_j), d_{j+1} = ratio * d_j."""
    table = [list(values)]
    best = values[-1]
    for m in range(1, min(len(values), 6)):
        prev = table[-1]
        row = []
        rm = ratio**m
        for j in range(1, len(prev)):
            row.append((prev[j] - rm * prev[j - 1]) / (1.0 - rm))
        table.append(row)
        if row:
            best = row[-1]
    return best


def sup_over(
    h,
    lo,
    hi,
    lo_open=True,
    hi_open=True,
    n_scan=257,
    threshold=1e6,
    tail_k=8,
    n_approach=28,
):
    """Supremum of real-valued ``h`` over (lo, hi) within the covered range.

    Coarse graded scan, golden-section refinement around the top five scan
    maxima, then endpoint limit handling: a geometric approach sequence per
    open endpoint, flagged as unbounded evidence if its tail is strictly
    increasing past ``threshold``, otherwise Richardson-extrapolated.  The
    five brackets are refined in lockstep (one ``h`` call per step on the
    brackets still narrowing), each taking the steps a scalar golden-section
    search would; their results are then taken in scan order, a later one
    replacing the best only when strictly higher.
    """
    grid = graded_grid(lo, hi, n_scan, include_lo=not lo_open, include_hi=not hi_open)
    with np.errstate(all="ignore"):
        vals = np.real(np.asarray(h(grid), dtype=complex))
    ok = np.isfinite(vals)
    grid, vals = grid[ok], vals[ok]
    if grid.size == 0:
        raise ValueError("sup_over: no evaluable points")
    trace = list(zip(grid.tolist(), vals.tolist()))

    order = np.argsort(vals)[::-1]
    best_val = float(vals[order[0]])
    best_t = float(grid[order[0]])
    # local refinement around the top-5 scan maxima, all five in lockstep
    top = order[:5]
    a = grid[np.maximum(top - 1, 0)]
    b = grid[np.minimum(top + 1, grid.size - 1)]
    t_loc, v_loc = _golden_lockstep(h, a[b > a], b[b > a])
    for t, v in zip(t_loc.tolist(), v_loc.tolist()):
        if v > best_val:
            best_val, best_t = v, t

    span = hi - lo
    ratio = 0.5
    for side, endpoint, is_open in (("lower", lo, lo_open), ("upper", hi, hi_open)):
        if not is_open:
            continue
        sign = 1.0 if side == "lower" else -1.0
        d0 = 0.25 * span
        ds = d0 * ratio ** np.arange(n_approach)
        pts = endpoint + sign * ds
        pts = pts[(pts > lo) & (pts < hi) & (pts != endpoint)]
        if pts.size < 4:
            continue
        with np.errstate(all="ignore"):
            seq = np.real(np.asarray(h(pts), dtype=complex))
        ok = np.isfinite(seq)
        pts, seq = pts[ok], seq[ok]
        if seq.size < 4:
            continue
        trace.extend(zip(pts.tolist(), seq.tolist()))
        tail = seq[-tail_k:]
        incr = np.diff(tail)
        if tail.size >= tail_k and np.all(incr > 0):
            if tail[-1] >= threshold:
                return SupResult(math.inf, endpoint, unbounded=True, trace=trace)
            # slow (power/log) divergence: increments along a geometric
            # approach keep their size instead of decaying with the gap
            noise = 1e-9 * (1.0 + np.abs(tail[-1]))
            if np.all(incr > noise) and np.all(incr[1:] >= 0.95 * incr[:-1]):
                return SupResult(math.inf, endpoint, unbounded=True, trace=trace)
        limit = _richardson(list(seq[-6:]), ratio)
        if np.isfinite(limit) and limit > best_val:
            # never report below a sampled value
            best_val = max(limit, float(np.max(seq)))
            best_t = endpoint
        elif float(np.max(seq)) > best_val:
            best_val = float(np.max(seq))
            best_t = float(pts[int(np.argmax(seq))])
    return SupResult(best_val, best_t, unbounded=False, trace=trace)
