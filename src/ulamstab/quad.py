"""Integration machinery.

Provides cached cumulative antiderivatives built from adaptive
Gauss-Kronrod 15(7) panels with per-panel Legendre interpolants, graded
evaluation grids, and sup-over-interval search with endpoint limit
extrapolation.  Coverage of a cumulative grows from an interior anchor
toward each endpoint, finite or infinite, and stops where the endpoint is
resolved or a budget is hit; the reason is recorded per side.

Everything here is pure; `CumulativeIntegral` objects are built once and
read-only afterwards, so they can be shared freely between threads.
"""

from __future__ import annotations

import math
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


def _gk15(g, a, b):
    """Return (kronrod value, error estimate, node values) on [a, b]."""
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    x = mid + hw * _XGK
    y = np.asarray(g(x), dtype=complex)
    k = hw * np.sum(_WGK * y)
    gauss = hw * np.sum(_WG * y[1::2])
    err = abs(k - gauss)
    # standard sharper error model
    resabs = hw * np.sum(_WGK * np.abs(y))
    if resabs > 0 and err > 0:
        err = min(err, resabs * (200.0 * err / resabs) ** 1.5) if err / resabs < 1 else err
    return k, err, y


# ---------------------------------------------------------------------------
# cumulative antiderivative cache

_LEG_DEG = 12


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
    antider: np.ndarray  # (deg+1, n_panels) Legendre coeffs, zero at panel start
    lower_info: SideInfo = field(default_factory=lambda: SideInfo("resolved"))
    upper_info: SideInfo = field(default_factory=lambda: SideInfo("resolved"))

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
        idx = np.clip(np.searchsorted(self.bps, t, side="right") - 1, 0, len(self.panel_vals) - 1)
        x0 = self.bps[idx]
        x1 = self.bps[idx + 1]
        xi = 2.0 * (t - x0) / (x1 - x0) - 1.0
        part_re = npleg.legval(xi, self.antider.real[:, idx], tensor=False)
        part_im = npleg.legval(xi, self.antider.imag[:, idx], tensor=False)
        return idx, part_re + 1j * part_im

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


def _leaf(g, lo, hi, leaf_tol, leaf_rel=1e-13, max_depth=28):
    """Adaptively split [lo, hi] into converged leaves with interpolants."""
    out = []
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        val, err, y = _gk15(g, a, b)
        finite = np.all(np.isfinite(y.real)) and np.all(np.isfinite(y.imag))
        # relative scale: panel value, or sample magnitude when it cancels
        mag = max(abs(val), (b - a) * float(np.max(np.abs(y))) if y.size else 0.0)
        if finite and (err <= leaf_tol + leaf_rel * mag or depth >= max_depth):
            coef = npleg.legfit(_XGK, y, _LEG_DEG)
            resid = float(np.max(np.abs(npleg.legval(_XGK, coef) - y))) * (b - a)
            # interior value() queries read the interpolant, so the fit must
            # meet the same budget as the integral before the leaf is kept;
            # node abscissas are rounded to ulp(|t|), which floors the
            # attainable residual of steep narrow panels far from 0
            ymax = float(np.max(np.abs(y))) if y.size else 0.0
            pos_noise = 64.0 * np.finfo(float).eps * max(abs(a), abs(b)) * ymax
            if resid > leaf_tol + leaf_rel * mag + pos_noise and depth < max_depth:
                mid = 0.5 * (a + b)
                stack.append((a, mid, depth + 1))
                stack.append((mid, b, depth + 1))
                continue
            anti = npleg.legint(coef) * (0.5 * (b - a))
            anti[0] -= npleg.legval(-1.0, anti)
            out.append((a, b, val, err + 0.1 * resid, anti))
            continue
        if depth >= max_depth:
            # non-finite leaf that refuses to resolve; signal to caller
            raise FloatingPointError("non-finite integrand inside panel")
        mid = 0.5 * (a + b)
        stack.append((a, mid, depth + 1))
        stack.append((mid, b, depth + 1))
    out.sort(key=lambda leaf: leaf[0])
    return out


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
    """
    # tail caches serve edge-anchored partial sums over exponential dynamic
    # range: an absolute tolerance floor would let deep-decay panels carry
    # huge relative errors that downstream prefactors amplify
    leaf_tol = 0.0 if tail_mode else tol * 1e-2

    leaves = []
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
            pts, n_grow = _finite_skeleton(t_ref, endpoint, sign)
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
            try:
                new = _leaf(g, lo_, hi_, leaf_tol, leaf_rel)
            except FloatingPointError:
                status = "singular"
                break
            pv = sum(leaf[2] for leaf in new)
            cum += pv
            # only the endpoint-approach phase feeds the tail heuristics;
            # panels still growing away from the anchor carry growing mass
            # for perfectly integrable functions
            if k > n_grow:
                contribs.append(abs(pv))
            leaves.extend(new)
            edge = nxt
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
        infos[side] = SideInfo(status or "resolved", tail_bound)

    leaves.sort(key=lambda leaf: leaf[0])
    if not leaves:
        raise ValueError("empty coverage; t_ref too close to both endpoints")
    bps = np.array([leaf[0] for leaf in leaves] + [leaves[-1][1]])
    vals = np.array([leaf[2] for leaf in leaves], dtype=complex)
    errs = np.array([leaf[3] for leaf in leaves], dtype=float)
    deg = max(leaf[4].shape[0] for leaf in leaves)
    anti = np.zeros((deg, len(leaves)), dtype=complex)
    for j, leaf in enumerate(leaves):
        anti[: leaf[4].shape[0], j] = leaf[4]
    return CumulativeIntegral(
        t_ref=float(t_ref),
        bps=bps,
        panel_vals=vals,
        panel_errs=errs,
        antider=anti,
        lower_info=infos["lower"],
        upper_info=infos["upper"],
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


def _golden_refine(h, a, b, iters=80):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1 = float(np.real(h(np.array([x1]))[0]))
    f2 = float(np.real(h(np.array([x2]))[0]))
    for _ in range(iters):
        if b - a < 1e-13 * max(1.0, abs(a), abs(b)):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = float(np.real(h(np.array([x2]))[0]))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = float(np.real(h(np.array([x1]))[0]))
    if f1 >= f2:
        return x1, f1
    return x2, f2


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
    increasing past ``threshold``, otherwise Richardson-extrapolated.
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
    # local refinement around top-5 scan maxima
    for idx in order[:5]:
        i = int(idx)
        a = grid[i - 1] if i > 0 else grid[0]
        b = grid[i + 1] if i < grid.size - 1 else grid[-1]
        if b > a:
            t_loc, v_loc = _golden_refine(h, float(a), float(b))
            if v_loc > best_val:
                best_val, best_t = v_loc, t_loc

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
