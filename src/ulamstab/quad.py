"""Integration machinery.

Provides cached cumulative antiderivatives built from adaptive
Gauss-Kronrod 15(7) panels with per-panel Chebyshev interpolants, graded
evaluation grids, and sup-over-interval search with endpoint limit
extrapolation.  Coverage of a cumulative grows from an interior anchor
toward each endpoint, finite or infinite, and stops where the endpoint is
resolved or a budget is hit; the reason is recorded per side.

The numeric work on wide arrays runs as numpy batches: the (panels x 15)
node and value matrices of a bisection level, the (brackets x ``_ZOOM_K``)
sample matrix of a zoom step, and the calls of the integrand and of the sup
search's function.  All skeleton panels of both sides of a cumulative are
bisected together one level at a time, with one integrand call on the nodes
of the whole level (as in `scipy.integrate.quad_vec`).  Each level hands the
panels it finished to the caller as one block of arrays per side, and each
side's stopping rules walk its panels' sums in skeleton order as Python
floats, so the walk costs one numpy pass per level, not per panel; a side
whose walk stops is bisected no further.  The nodes are fixed, so a panel's
fit residual and antiderivative coefficients are constant matrices applied
to its node values.  BLAS rounds those two products by the row count of the
batch, so each is fed exactly the rows of the level's fitted panels and of
its kept ones; a level that fits, or keeps, every panel passes its
C-contiguous value matrix itself, the same rows.  Bisection stops at the
resolution floor: a panel narrower than ``_FLOOR_ULPS`` = 2^10 ulp of its
larger end, whose node positions round by more than 2^-11 of its width, is
kept as a panel at the depth cap is, and counted.

`replay` integrates a second integrand on the panels of a built cache: it
is given the integrand's values at that cache's nodes, keeps every panel
that meets its budget and bisects the others as an adaptive build would.
The solution engine replays every forcing on the unit forcing's panels.

The arithmetic follows the data: a bisection level whose integrand values
have an imaginary part of exactly zero at every node is computed in
float64, any other in complex128, so a real integrand gives a float64 cache
and only exact zeros are dropped.  A query reads its panel's interpolant, a
Chebyshev series, with one Clenshaw recurrence of three array operations
per term, in the cache's dtype.  The sup search evaluates its scan and its
endpoint approach sequences in one call of the function, stops there when
an endpoint is unbounded, and otherwise zooms in on its candidate maxima in
lockstep, one call per step on ``_ZOOM_K`` equispaced points of every
bracket, until the bracket is narrower than rounding or its samples agree
to rounding.  The state of so few brackets and tail values is Python floats
and lists, where numpy's fixed cost per call would exceed the arithmetic:
the zoom's bracket ends, end values, best samples and active list, the
endpoint tests, the Richardson table and the tail limits.

A `CumulativeIntegral` remembers its recent reads: the panel index and
in-panel integral of its last few query point sets, so a cache read again at
the same points (two boundedness functions scanning one grid, the members
of every forcing on one experiment grid) costs no second Clenshaw pass.

Everything here is pure: a remembered read returns the bits of a fresh
one.  A `CumulativeIntegral` is built once; what it adds afterwards, its
prefix sums on first use and its recent reads, is the same whichever thread
adds it, so a built cache can be shared between threads.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as npleg

__all__ = [
    "CoverageError",
    "CumulativeIntegral",
    "cumulative",
    "replay",
    "SupResult",
    "sup_over",
    "graded_grid",
    "node_sum",
]


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

_FIT_DEG = 12
_MAX_DEPTH = 28  # bisection levels below a skeleton panel
_AT_MAX_DEPTH, _AT_FLOOR = 1, 2  # why a leaf was kept unconverged (0: it converged)
# the resolution floor: a panel narrower than this many ulp of its larger end
# is not split, as its node positions round by more than 2^-11 of its width
_FLOOR_ULPS = 2**10
_MAX_PANELS = 4000  # skeleton panels per side of a cumulative
RANGE_CAP = 1e8  # an infinite side's coverage ends before |t| passes this
# a side's coverage ends once |Re cum| passes this, or |cum| its exponential
# in a tail cache
LOG_BUDGET = 300.0
_MEMO = 4  # query point sets a cache remembers its reads of


def _leaf_operators():
    """Fit residual and antiderivative as constant maps of the node values.

    The least-squares polynomial of degree ``_FIT_DEG`` through the 15 node
    values is ``V @ pinv(V)`` of them for the Legendre Vandermonde matrix
    ``V``, so ``V @ pinv(V) - I`` maps them to the fit residual at the nodes.
    With the Chebyshev one ``C``, ``S @ chebint @ pinv(C)`` maps them to the
    Chebyshev coefficients of the same fit's antiderivative on [-1, 1] (times
    the half-width), where ``S`` shifts it to zero at -1.
    """
    vander = npleg.legvander(_XGK, _FIT_DEG)
    cheb = npcheb.chebvander(_XGK, _FIT_DEG)
    integ = npcheb.chebint(np.eye(_FIT_DEG + 1))
    integ[0] -= npcheb.chebval(-1.0, integ)
    return vander @ np.linalg.pinv(vander) - np.eye(_XGK.size), integ @ np.linalg.pinv(cheb)


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
    Reads come back in the panels' dtype: float64 for a real integrand.
    Each set of prefix sums is built on first use, and a repeated read, from
    either edge or from ``t_ref``, is answered from the last `_MEMO` point
    sets read (`_in_panel`).
    """

    t_ref: float
    bps: np.ndarray
    panel_vals: np.ndarray  # per panel; float64 for a real integrand, else complex128
    panel_errs: np.ndarray
    antider: np.ndarray  # (deg+2, n_panels) Chebyshev coeffs, zero at panel start
    lower_info: SideInfo = field(default_factory=lambda: SideInfo("resolved"))
    upper_info: SideInfo = field(default_factory=lambda: SideInfo("resolved"))
    max_depth_leaves: int = 0  # leaves kept only because bisection hit _MAX_DEPTH
    resolution_floor_leaves: int = 0  # leaves kept only because they hit the resolution floor
    integrand_calls: int = 0  # calls of the integrand while building the cache
    integrand_points: int = 0  # points it was evaluated at, past a stop too

    def __post_init__(self):
        self.error_bound = float(np.sum(self.panel_errs))
        self._memo = ()  # (key, panel index, in-panel integral) of the last reads, newest first

    # the prefix sums keep the panels' dtype, so a real cache reads real
    @functools.cached_property
    def _left(self):
        return np.concatenate([np.zeros(1, self.panel_vals.dtype), np.cumsum(self.panel_vals)])

    @functools.cached_property
    def _right(self):
        return np.concatenate([np.cumsum(self.panel_vals[::-1])[::-1], np.zeros(1, self.panel_vals.dtype)])

    @functools.cached_property
    def _anch(self):
        """Prefix sums anchored at the reference panel's start.

        Differences near t_ref must not be formed by cancelling huge
        edge-anchored sums.
        """
        k = int(np.clip(np.searchsorted(self.bps, self.t_ref, side="right") - 1, 0, len(self.panel_vals) - 1))
        anch = np.empty(len(self.panel_vals) + 1, dtype=self.panel_vals.dtype)
        anch[k] = 0.0
        anch[k + 1 :] = np.cumsum(self.panel_vals[k:])
        anch[:k] = -np.cumsum(self.panel_vals[:k][::-1])[::-1]
        return anch

    @functools.cached_property
    def _ref_offset(self):
        """int from the reference panel start to t_ref; only `value` reads it."""
        return self._anch_prefix(np.array([self.t_ref]))[0]

    @property
    def lo(self):
        return float(self.bps[0])

    @property
    def hi(self):
        return float(self.bps[-1])

    def _in_panel(self, t):
        """(panel index, int from the panel start to t) for covered t, read-only.

        The last `_MEMO` point sets read are remembered with their results,
        keyed by the shape and bytes of the float64 query, so a repeated read
        costs no Clenshaw pass.  The memo is one tuple, replaced whole, so a
        thread that shares the cache never sees it half updated.
        """
        t = np.asarray(t, float)
        key = (t.shape, t.tobytes())
        for entry in self._memo:
            if entry[0] == key:
                return entry[1], entry[2]
        idx, part = self._locate(t)
        if t.ndim:  # a 0-d query reads numpy scalars, which are immutable
            idx.setflags(write=False)
            part.setflags(write=False)
        self._memo = ((key, idx, part), *self._memo[: _MEMO - 1])
        return idx, part

    def _locate(self, t):
        """(panel index, int from the panel start to t) of covered float64 t, by one Clenshaw pass."""
        if t.min(initial=np.inf) < self.bps[0] or t.max(initial=-np.inf) > self.bps[-1]:
            raise CoverageError(
                f"query outside coverage [{self.bps[0]}, {self.bps[-1]}]"
            )
        # covered t has idx >= 0; t at the upper edge reads the last panel
        idx = np.minimum(self.bps.searchsorted(t, side="right") - 1, len(self.panel_vals) - 1)
        x0 = self.bps[idx]
        x1 = self.bps[idx + 1]
        xi = 2.0 * (t - x0) / (x1 - x0) - 1.0
        # Clenshaw recurrence b_k = c_k + 2 xi b_{k+1} - b_{k+2} of the
        # Chebyshev series, over the coefficient columns of every query's
        # panel at once
        c = self.antider.take(idx, axis=1)
        x2 = 2.0 * xi
        b1, b2 = c[-1], 0.0
        for k in range(c.shape[0] - 2, 0, -1):
            b1, b2 = c[k] + x2 * b1 - b2, b1
        return idx, c[0] + xi * b1 - b2

    def _anch_prefix(self, t):
        """int from the reference panel start to t."""
        idx, part = self._in_panel(t)
        return self._anch[idx] + part

    def value(self, t):
        """P(t) with P(t_ref) = 0."""
        return self._anch_prefix(t) - self._ref_offset

    def from_edge(self, side, t):
        """int over [t, upper edge) or (lower edge, t], as ``side`` says; accurate near that edge."""
        idx, part = self._in_panel(t)
        return self._right[idx] - part if side == "upper" else self._left[idx] + part

    def nodes(self):
        """The (n, 15) GK15 nodes of the n panels, where `replay` takes its first values."""
        return _nodes(self.bps[:-1], self.bps[1:])[2]


class _Block(NamedTuple):
    """The roots ``first, first + 1, ...`` of group ``group`` that one bisection level finished.

    Roots are counted within their group.  ``singular[j]`` is True for a
    root the integrand is not finite on (see `_leaf`).  Root ``first + j``
    owns rows ``bounds[j]:bounds[j + 1]`` of the leaf arrays, sorted by left
    edge; a singular root owns none.
    """

    group: int
    first: int
    singular: list
    bounds: list
    left: np.ndarray
    right: np.ndarray
    vals: np.ndarray  # float64 when every level the block was built from was real, else complex128
    errs: np.ndarray
    anti: np.ndarray  # (n, 14) Chebyshev coefficients of each leaf's antiderivative
    forced: np.ndarray  # _AT_MAX_DEPTH or _AT_FLOOR for a leaf kept unconverged, else 0

    def rows(self, stop):
        """(left, right, value, error, antiderivative) of the rows before ``stop``."""
        return self.left[:stop], self.right[:stop], self.vals[:stop], self.errs[:stop], self.anti[:stop]


def node_sum(w, u):
    """sum_j w_j u[..., j], the real and imaginary parts each summed in node order.

    A panel's sum is then the same whatever else is in its batch, and
    whether or not the batch is complex.
    """
    s = np.add.reduce(w * u.real, axis=-1)
    return s + 1j * np.add.reduce(w * u.imag, axis=-1) if np.iscomplexobj(u) else s


def _real_if_zero_imag(y):
    """``y`` as float64 when its imaginary part is exactly zero everywhere, else as complex128; C-contiguous."""
    y = np.asarray(y)
    if np.iscomplexobj(y) and np.any(y.imag):
        return np.ascontiguousarray(y, dtype=complex)
    return np.ascontiguousarray(y.real, dtype=float)


def _nodes(a, b):
    """Midpoints, half-widths and (n, 15) GK15 nodes of the panels [a_i, b_i]."""
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    return mid, hw, mid[:, None] + hw[:, None] * _XGK


def _leaf(g, groups, closed, leaf_tol, leaf_rel, work, y0):
    """Adaptively split root panels into converged leaves.

    ``groups`` is a list of (lo, hi) arrays: group k's roots are the panels
    [lo_i, hi_i], counted from 0 within the group.  The bisection trees of
    the roots of every group are walked together one level at a time: the
    integrand is called once on the (m, 15) nodes of the level's m panels,
    and the GK15 value and error, the fit residual and the accept/split
    decision of every panel are computed as arrays.  A level whose values
    have an imaginary part of exactly zero at every node is computed in
    float64, any other in complex128.  A panel's value and error depend on
    its own nodes only (`node_sum` adds the real and imaginary parts apart).
    Its fit residual ``y @ _RESID.T`` and antiderivative ``y @ _ANTI.T`` do
    not: BLAS rounds those products differently with the batch's row count
    (one row alone and in a batch of 500 differ in about two thirds of the
    entries), so a borderline accept/split decision and a leaf's interpolant
    can move with the other panels of a level (open ROADMAP item 2).  So the
    residual product takes exactly the rows of the fitted panels (finite, and
    converged or not split) and the antiderivative product those of the kept
    ones; where these are all of the level's rows, ``y`` itself goes in, the
    same C-contiguous matrix as a gathered copy.  A
    panel is accepted when its error estimate and its fit residual meet the
    budget, or when it is not split: at ``_MAX_DEPTH``, or at the resolution
    floor, narrower than ``_FLOOR_ULPS`` ulp of its larger end, where
    further levels would resolve the rounding of its node positions, not
    the integrand.
    ``forced`` in the blocks says which of the two kept an unconverged leaf.
    ``y0``, when not None, holds the integrand's values on the roots' own
    nodes (`_nodes`), group after group, which then cost no integrand call.

    A generator of `_Block`s: after a level it yields, group by group, one
    block with the group's roots that are now done and were not yet yielded
    (a root is done once it and every root before it in its group have no
    panel left to split), and bisects the next level only when asked for
    more, so a consumer that stops early leaves the later roots alone.  A
    group whose index the consumer adds to the set ``closed`` while that
    level's blocks are out is done: its roots are not bisected further and it
    yields no more blocks.

    A panel with a non-finite node is split like any other.  One that is not
    split (at ``_MAX_DEPTH`` or at the resolution floor), or one non-finite
    at all its nodes at any depth, makes its root singular: the root is not
    bisected further and keeps no leaves.  The integrand is evaluated
    quietly: its non-finite values are handled here, as data.  ``work`` (a
    `collections.Counter`) counts integrand calls and points.
    """
    a = np.concatenate([np.asarray(lo, dtype=float) for lo, _ in groups])
    b = np.concatenate([np.asarray(hi, dtype=float) for _, hi in groups])
    sizes = [len(lo) for lo, _ in groups]
    ends = np.cumsum(sizes)
    starts = ends - sizes  # group k owns the roots starts[k] to ends[k] - 1
    grp = np.repeat(np.arange(len(groups)), sizes)  # the group of each root
    root = np.arange(a.size)
    singular = np.zeros(a.size, dtype=bool)
    kept = []
    done = starts.copy()  # group k's roots below done[k] are yielded

    for depth in range(_MAX_DEPTH + 1):
        if not root.size:
            return
        mid, hw, x = _nodes(a, b)
        with np.errstate(all="ignore"):
            if depth == 0 and y0 is not None:
                y = _real_if_zero_imag(y0)
            else:
                work["calls"] += 1
                work["points"] += x.size
                y = _real_if_zero_imag(g(x))
            # row sums along the contiguous node axis round as a 1-d np.sum
            # of the panel would, so a panel's value does not depend on its
            # level or on the other panels of the batch
            val = hw * node_sum(_WGK, y)
            gauss = hw * node_sum(_WG, y[:, 1::2])
            err = np.abs(val - gauss)
            # standard sharper error model
            ay = np.abs(y)
            resabs = hw * node_sum(_WGK, ay)
            sharp = (resabs > 0) & (err > 0) & (err / resabs < 1)
            # fmin keeps err where the model gives NaN, as a scalar min() would
            err = np.where(sharp, np.fmin(err, resabs * (200.0 * err / resabs) ** 1.5), err)
            width = b - a
            ymax = np.max(ay, axis=1)
            # relative scale: panel value, or sample magnitude when it cancels
            budget = leaf_tol + leaf_rel * np.maximum(np.abs(val), width * ymax)
        finite = np.all(np.isfinite(y), axis=1)
        every_finite = bool(finite.all())
        # a panel is not split at _MAX_DEPTH or at the resolution floor: one
        # at least _FLOOR_ULPS ulp wide has its nodes at least 21 ulp apart
        # and 4 ulp inside it, so its halves' nodes are still distinct
        mag = np.maximum(np.abs(a), np.abs(b))
        final = (depth >= _MAX_DEPTH) | (width < _FLOOR_ULPS * np.spacing(mag))
        # only finite panels are fitted, so `converged` needs no finite mask
        converged = err <= budget
        fit = np.flatnonzero(converged | final)
        if not every_finite:
            fit = fit[finite[fit]]
        # the products get the rows of the fitted (kept) panels; when those are
        # all of the level's, `y` itself, the same C-contiguous matrix
        y_fit = y if fit.size == len(y) else y[fit]
        # interior value() queries read the interpolant, so the fit must
        # meet the same budget as the integral before the leaf is kept;
        # node abscissas are rounded to ulp(|t|), which floors the
        # attainable residual of steep narrow panels far from 0
        resid = np.max(np.abs(y_fit @ _RESID.T), axis=1, initial=0.0) * width[fit]
        pos_noise = 64.0 * _EPS * mag[fit] * ymax[fit]
        fit_ok = ~(resid > budget[fit] + pos_noise)
        keep = fit_ok | final[fit]
        every_kept = bool(keep.all())
        acc = fit if every_kept else fit[keep]
        forced = np.where(converged[acc] & fit_ok[keep], 0, _AT_MAX_DEPTH if depth >= _MAX_DEPTH else _AT_FLOOR)
        anti = ((y_fit if every_kept else y[acc]) @ _ANTI.T) * hw[acc, None]
        kept.append((root[acc], a[acc], b[acc], val[acc], err[acc] + 0.1 * resid[keep], anti, forced))
        split = np.ones(a.size, dtype=bool)
        split[acc] = False
        if not every_finite:
            # a non-finite panel that is not split, or one non-finite at every
            # node (which would only double its non-finite panels per level)
            singular[root[~finite & (final | ~np.any(np.isfinite(y), axis=1))]] = True
            split &= ~singular[root]
        root, a, mid, b = root[split], a[split], mid[split], b[split]
        # a group's roots are done below its first root that still has a panel to split
        ready = ends.copy()
        np.minimum.at(ready, grp[root], root)
        if np.any(ready > done):
            parts = kept[0] if len(kept) == 1 else [np.concatenate(part) for part in zip(*kept)]
            kr = parts[0]
            later = kr >= ready[grp[kr]]
            if later.any():
                kept = [tuple(part[later] for part in parts)]
                now = ~later & ~singular[kr]
            else:
                kept = []
                now = ~singular[kr]
            # a singular root keeps none of its leaves; a root's leaves in
            # left-edge order, ties in their order of acceptance (at depth 0,
            # one leaf per root, kept in root order)
            order = np.flatnonzero(now)
            if depth:
                order = order[np.lexsort((parts[1][now], kr[now]))]
            kr = kr[order]
            parts = [part[order] for part in parts[1:]]
            for k in np.flatnonzero(ready > done).tolist():
                first, stop = int(done[k]), int(ready[k])
                bounds = np.searchsorted(kr, np.arange(first, stop + 1))
                rows = slice(bounds[0], bounds[-1])
                done[k] = stop
                flags = singular[first:stop].tolist()
                yield _Block(k, first - int(starts[k]), flags, (bounds - bounds[0]).tolist(), *(p[rows] for p in parts))
        shut = [k for k in closed if done[k] < ends[k]]
        if shut:
            # a closed group is done: its roots are not split further, and the
            # leaves it has kept fall out with the next blocks, in none of them
            done[shut] = ends[shut]
            live = root >= done[grp[root]]
            root, a, mid, b = root[live], a[live], mid[live], b[live]
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


def _skeleton(t_ref, endpoint, sign):
    """Skeleton points from the anchor toward one endpoint, all known up front.

    Returns (points, n_grow, status): the first ``n_grow`` points belong to
    the doubling phase, and ``status`` is the side's status when coverage
    reaches the last point.  A finite side uses `_finite_skeleton`; an
    infinite one doubles its gaps until `RANGE_CAP`.  Both stop at
    ``_MAX_PANELS`` points.
    """
    if math.isinf(endpoint):
        h0 = max(1.0, 0.05 * abs(t_ref))
        pts = []
        while len(pts) < _MAX_PANELS:
            nxt = t_ref + sign * h0 * (2.0 ** (len(pts) + 1) - 1.0)
            if abs(nxt) > RANGE_CAP:
                break
            pts.append(nxt)
        return pts, 0, "range_cap"
    pts, n_grow = _finite_skeleton(t_ref, endpoint, sign)
    return pts[:_MAX_PANELS], n_grow, "range_cap" if len(pts) >= _MAX_PANELS else "resolved"


class _Side:
    """One side of a `cumulative` build: its skeleton panels and the state of their walk."""

    def __init__(self, t_ref, endpoint, sign):
        pts, self.n_grow, self.status = _skeleton(t_ref, endpoint, sign)
        edges = np.array([t_ref, *pts], dtype=float)
        # root panels in skeleton order, from the anchor toward the endpoint
        self.lo, self.hi = (edges[:-1], edges[1:]) if sign > 0 else (edges[1:], edges[:-1])
        self.endpoint = endpoint
        self.cum = 0.0 + 0.0j
        self.contribs = []  # |sum| of each endpoint-approach panel walked
        self.diverging = False

    def info(self, tol, tail_mode):
        """The side's `SideInfo` once its walk has ended."""
        status, tail_bound = self.status, 0.0
        if tail_mode and len(self.contribs) >= 3:
            c1, c2, c3 = self.contribs[-3:]
            if self.diverging:
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
        return SideInfo(status, tail_bound)


def cumulative(g, t_ref, lower, upper, tol=1e-10, tail_mode=False):
    """Build a `CumulativeIntegral` of ``g`` anchored at ``t_ref``.

    Coverage expands from ``t_ref`` toward each endpoint with geometrically
    graded skeleton panels until the endpoint is resolved, the real part of
    the accumulated value exceeds `LOG_BUDGET`, `RANGE_CAP` is hit, or
    (with ``tail_mode``) the endpoint tail has converged or is evidently
    diverging.  Coverage limits are recorded as data, never raised.

    The skeleton panels of both sides are bisected together by one `_leaf`
    batch, the upper side's as one group and the lower side's as another,
    so both share each level's integrand call.  The stopping rules walk each
    side's panel sums in skeleton order, one block of finished panels per
    side and level, in a `_Side` per side, so the two sides' blocks may come
    interleaved.  A side whose walk stops is closed in the batch, which then
    bisects the other side alone.  A side ends "singular" at its first
    singular skeleton panel.

    Raises `ValueError` unless ``lower < upper`` and ``t_ref`` is a finite
    point of [lower, upper] (an end included), and when both sides end
    singular at their first skeleton panel, so that no panel is covered.
    """
    if not lower < upper:
        raise ValueError(f"cumulative: lower end {lower} is not below upper end {upper}")
    if not (math.isfinite(t_ref) and lower <= t_ref <= upper):
        raise ValueError(f"cumulative: t_ref {t_ref} is not a finite point of [{lower}, {upper}]")
    leaf_tol, leaf_rel = _leaf_budget(tol, tail_mode)
    leaves = []
    forced = np.zeros(3, dtype=int)  # leaves by `_Block.forced` code
    work = Counter()
    sides = (_Side(t_ref, upper, 1), _Side(t_ref, lower, -1))
    closed = set()  # the groups, by index into sides, whose walk has stopped
    exp_budget = math.exp(LOG_BUDGET)
    for blk in _leaf(g, [(s.lo, s.hi) for s in sides], closed, leaf_tol, leaf_rel, work, None):
        side = sides[blk.group]
        vals, bounds = blk.vals.tolist(), blk.bounds
        taken = len(vals)  # rows of the block the walk keeps
        # the walk runs on locals, written back to the side after the block
        cum, contribs, diverging = side.cum, side.contribs, side.diverging
        approach = side.n_grow - blk.first  # the block's first endpoint-approach root
        finite_end = math.isfinite(side.endpoint)
        for j, singular in enumerate(blk.singular):
            if singular:
                side.status = "singular"
                taken = bounds[j]
                closed.add(blk.group)
                break
            start, stop = bounds[j], bounds[j + 1]
            # sum() of one leaf is 0 + it, which adds to cum and to |pv| as it
            pv = vals[start] if stop - start == 1 else sum(vals[start:stop])
            cum += pv
            # only the endpoint-approach phase feeds the tail heuristics;
            # panels still growing away from the anchor carry growing mass
            # for perfectly integrable functions
            if j >= approach:
                contribs.append(abs(pv))
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
                    if len(contribs) > 8 and finite_end and c3 > tol and c3 >= 0.999 * c2 and c2 >= 0.999 * c1:
                        diverging = True
                # tail caches hold exponential-scale values; budget their log
                over = abs(cum) > exp_budget
            else:
                over = abs(cum.real) > LOG_BUDGET
            if over:
                side.status = "budget"
                taken = stop
                closed.add(blk.group)
                break
        side.cum, side.diverging = cum, diverging
        leaves.append(blk.rows(taken))
        forced += np.bincount(blk.forced[:taken], minlength=3)

    if not any(len(rows[0]) for rows in leaves):
        raise ValueError(f"cumulative: empty coverage, both sides end singular next to t_ref {t_ref}")
    upper_info, lower_info = (side.info(tol, tail_mode) for side in sides)
    return _assemble(t_ref, leaves, lower_info, upper_info, forced, work)


def replay(template, y0, g, tol, tail_mode):
    """A `CumulativeIntegral` of ``g`` on the panels of the built cache ``template``.

    ``y0`` holds ``g`` on the template's nodes (`CumulativeIntegral.nodes`),
    so a panel that meets its budget costs no integrand call; one that misses
    it is bisected exactly as in `cumulative`, with ``tol`` and ``tail_mode``
    setting the budget as there.  The blocks of `_leaf` are taken whole, with
    no stopping rules: the result keeps the template's coverage and
    `SideInfo`.  Returns the cache and the number of template panels that were
    bisected, or None when ``y0`` is not finite (the integrand has a
    singularity the template was not built for) or a panel comes back
    singular.
    """
    if not np.all(np.isfinite(y0)):
        return None
    leaf_tol, leaf_rel = _leaf_budget(tol, tail_mode)
    work = Counter()
    blocks = []
    for blk in _leaf(g, [(template.bps[:-1], template.bps[1:])], (), leaf_tol, leaf_rel, work, y0):
        if any(blk.singular):
            return None
        blocks.append(blk)
    bisected = sum(int(np.count_nonzero(np.diff(blk.bounds) > 1)) for blk in blocks)
    forced = sum(np.bincount(blk.forced, minlength=3) for blk in blocks)
    leaves = [blk.rows(len(blk.vals)) for blk in blocks]
    return _assemble(template.t_ref, leaves, template.lower_info, template.upper_info, forced, work), bisected


def _leaf_budget(tol, tail_mode):
    """(leaf_tol, leaf_rel): the absolute and relative budget of a leaf."""
    # tail caches serve edge-anchored partial sums over exponential dynamic
    # range: an absolute tolerance floor would let deep-decay panels carry
    # huge relative errors that downstream prefactors amplify; their
    # integrands are built on other caches and carry their interpolation
    # noise, so demanding tighter relative accuracy only forces full-depth
    # splitting against that noise floor
    return (0.0, 1e-8) if tail_mode else (tol * 1e-2, 1e-13)


def _assemble(t_ref, leaves, lower_info, upper_info, forced, work):
    """The `CumulativeIntegral` of ``leaves``, (left, right, value, error, anti) arrays, ``forced`` counted by code."""
    left, right, vals, errs, anti = (np.concatenate(part) for part in zip(*leaves))
    order = np.argsort(left)
    return CumulativeIntegral(
        t_ref=float(t_ref),
        bps=np.append(left[order], right[order[-1]]),
        panel_vals=vals[order],
        panel_errs=errs[order],
        antider=np.ascontiguousarray(anti[order].T),
        lower_info=lower_info,
        upper_info=upper_info,
        max_depth_leaves=int(forced[_AT_MAX_DEPTH]),
        resolution_floor_leaves=int(forced[_AT_FLOOR]),
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


_ZOOM_K = 16  # interior points per bracket and zoom step
_ZOOM_FRAC = np.arange(1, _ZOOM_K + 1) / (_ZOOM_K + 1)
_ZOOM_STEPS = 24
_ZOOM_REL = 1e-13  # bracket width and sample spread that count as rounding
SUP_SCAN = 257  # points of the coarse scan
# an approach sequence whose last TAIL_K values increase strictly is
# unbounded once it passes DIVERGENCE_THRESHOLD; the divergence
# certificates hold their traces to the same two numbers
DIVERGENCE_THRESHOLD = 1e6
TAIL_K = 8


def _zoom_lockstep(h, a, b, fa, fb):
    """Maxima of ``h`` on the brackets [a_i, b_i], refined together by a multi-point zoom.

    ``a``, ``b``, ``fa`` and ``fb`` are lists of floats: the bracket ends and
    the values there.  Each step makes one ``h`` call on ``_ZOOM_K``
    equispaced interior points of every bracket still active and keeps the
    two cells next to the bracket's best sample (one cell when that sample is
    an end), so a bracket shrinks by (K + 1)/2 per step.  A bracket stops when
    it is narrower than 1e-13 relative, when its samples agree to 1e-13
    relative (flat to rounding), or after ``_ZOOM_STEPS`` steps.  Non-finite
    values count as -inf.  A bracket's numbers depend on its own samples only,
    so it gets the same result alone as in a batch.  Returns the lists of the
    best sample of each bracket and its value, ends included; a later sample
    replaces the best only when strictly higher, and within a step the lowest
    t wins a tie.

    Only the (brackets x ``_ZOOM_K``) sample matrix and the call of ``h`` are
    numpy, one block per step; the ends, their values, the best samples and
    the active list are Python floats and lists, and the width and flatness
    tests compare floats.  ``fs.index(max(fs))`` keeps ``np.argmax``'s first
    maximum, and the arithmetic is that of the same doubles.
    """
    a, b = list(a), list(b)
    fa = [v if math.isfinite(v) else -math.inf for v in fa]
    fb = [v if math.isfinite(v) else -math.inf for v in fb]
    # np.maximum's choice between equal values: the second
    best_t = [bi if vb > va else ai for ai, bi, va, vb in zip(a, b, fa, fb)]
    best_v = [va if va > vb else vb for va, vb in zip(fa, fb)]
    active = range(len(a))
    for _ in range(_ZOOM_STEPS):
        active = [i for i in active if not b[i] - a[i] < _ZOOM_REL * max(1.0, abs(a[i]), abs(b[i]))]
        if not active:
            break
        lo = np.array([a[i] for i in active])
        hi = np.array([b[i] for i in active])
        x = lo[:, None] + (hi - lo)[:, None] * _ZOOM_FRAC
        with np.errstate(all="ignore"):
            vals = np.real(h(x.ravel())).reshape(-1, _ZOOM_K)
        vals = np.where(np.isfinite(vals), vals, -np.inf).tolist()
        still = []
        for i, xs, fs in zip(active, x.tolist(), vals):
            xs = [a[i], *xs, b[i]]
            fs = [fa[i], *fs, fb[i]]
            top, low = max(fs), min(fs)
            j = fs.index(top)
            if top > best_v[i]:
                best_t[i], best_v[i] = xs[j], top
            # keep the cells on both sides of the best sample
            left, right = max(j - 1, 0), min(j + 1, _ZOOM_K + 1)
            a[i], b[i], fa[i], fb[i] = xs[left], xs[right], fs[left], fs[right]
            # a bracket with a -inf sample is never flat
            if not (math.isfinite(low) and top - low <= _ZOOM_REL * max(abs(top), abs(low))):
                still.append(i)
        active = still
    return best_t, best_v


def _richardson(values, ratio):
    """Extrapolate v_j = v* + O(d_j), d_{j+1} = ratio * d_j, from a list of floats."""
    table = [values]
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


def sup_over(h, lo, hi):
    """Supremum of real-valued ``h`` over the open interval (lo, hi).

    Coarse graded scan of `SUP_SCAN` points and a geometric approach
    sequence per endpoint, a multi-point zoom around the top five scan
    maxima, then endpoint limit handling.  An approach sequence whose last
    `TAIL_K` values increase strictly past `DIVERGENCE_THRESHOLD` (or with
    increments that keep their size) is unbounded evidence; the lower
    endpoint is tested first, then the upper, both before the zoom, whose
    result an unbounded return does not use.  Otherwise each sequence is
    Richardson-extrapolated after the zoom.  Each maximum's bracket spans its
    two scan neighbours, and the five are zoomed in lockstep by
    `_zoom_lockstep` (one ``h`` call per step on ``_ZOOM_K`` points of every
    bracket still narrowing, until it is 1e-13 wide or flat to rounding);
    their results are then taken in scan order, a later one replacing the
    best only when strictly higher.  ``h`` is pointwise, so the scan and both
    approach sequences are evaluated in one call, and an unbounded ``h``
    costs that one call.
    """
    grid = graded_grid(lo, hi, SUP_SCAN)
    span = hi - lo
    ratio = 0.5
    ds = 0.25 * span * ratio ** np.arange(28)
    approach = []
    for endpoint, sign in ((lo, 1.0), (hi, -1.0)):
        pts = endpoint + sign * ds
        approach.append((endpoint, pts[(pts > lo) & (pts < hi) & (pts != endpoint)]))
    with np.errstate(all="ignore"):
        allv = np.real(h(np.concatenate([grid, *(pts for _, pts in approach)])))
    vals, seqs = allv[: grid.size], np.split(allv[grid.size :], [approach[0][1].size])
    ok = np.isfinite(vals)
    grid, vals = grid[ok], vals[ok]
    if grid.size == 0:
        raise ValueError("sup_over: no evaluable points")

    # the endpoint tests first: an unbounded endpoint needs no zoom; they and
    # the tail limits run on Python floats
    tails = []  # (endpoint, points, values) of each approach sequence to extrapolate
    for (endpoint, pts), seq in zip(approach, seqs):
        kept = [(t, v) for t, v in zip(pts.tolist(), seq.tolist()) if math.isfinite(v)]
        if len(kept) < 4:
            continue
        pts, seq = [t for t, _ in kept], [v for _, v in kept]
        tail = seq[-TAIL_K:]
        incr = [v1 - v0 for v0, v1 in zip(tail, tail[1:])]
        if len(tail) >= TAIL_K and all(d > 0 for d in incr):
            if tail[-1] >= DIVERGENCE_THRESHOLD:
                return SupResult(math.inf, endpoint, unbounded=True)
            # slow (power/log) divergence: increments along a geometric
            # approach keep their size instead of decaying with the gap
            noise = 1e-9 * (1.0 + abs(tail[-1]))
            if all(d > noise for d in incr) and all(d1 >= 0.95 * d0 for d0, d1 in zip(incr, incr[1:])):
                return SupResult(math.inf, endpoint, unbounded=True)
        tails.append((endpoint, pts, seq))

    order = np.argsort(vals)[::-1]
    best_val = float(vals[order[0]])
    best_t = float(grid[order[0]])
    # local refinement around the top-5 scan maxima, all five in lockstep
    top = order[:5]
    ia, ib = np.maximum(top - 1, 0), np.minimum(top + 1, grid.size - 1)
    ia, ib = ia[ib > ia], ib[ib > ia]
    t_loc, v_loc = _zoom_lockstep(h, grid[ia].tolist(), grid[ib].tolist(), vals[ia].tolist(), vals[ib].tolist())
    for t, v in zip(t_loc, v_loc):
        if v > best_val:
            best_val, best_t = v, t

    for endpoint, pts, seq in tails:
        limit = _richardson(seq[-6:], ratio)
        top = max(seq)
        if math.isfinite(limit) and limit > best_val:
            # never report below a sampled value
            best_val = max(limit, top)
            best_t = endpoint
        elif top > best_val:
            best_val = top
            best_t = pts[seq.index(top)]
    return SupResult(best_val, best_t, unbounded=False)
