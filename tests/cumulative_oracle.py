"""Reference build for `quad.cumulative`: the per-root walk on each side's attributes, with eager prefix sums.

This is the program's earlier `cumulative`, kept as it was, with the
`_assemble` it called and the `CumulativeIntegral` it built: that class
computes its prefix sums ``_left``, ``_right`` and ``_anch`` when it is
built and reads every query with a Clenshaw pass of its own, remembering
none.  The program builds its prefix sums on first use, remembers its last
reads, walks a block's roots on local variables and takes a one-leaf root's
value without a slice and ``sum``; its caches and reads are this module's,
bit for bit.  The bisection batch (`quad._leaf`), the sides (`quad._Side`)
and the leaf budget are the program's own.
"""

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ulamstab.quad import (
    _AT_FLOOR,
    _AT_MAX_DEPTH,
    LOG_BUDGET,
    CoverageError,
    SideInfo,
    _leaf,
    _leaf_budget,
    _nodes,
    _Side,
)


@dataclass
class CumulativeIntegral:
    """Cached antiderivative P(t) = int_{t_ref}^t g with panel interpolants.

    Values are queried as differences anchored at an edge or at ``t_ref``;
    differences anchored at an edge accumulate the tiny near-edge panel
    contributions first, preserving relative accuracy of small tails.
    Reads come back in the panels' dtype: float64 for a real integrand.
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
        # the prefix sums keep the panels' dtype, so a real cache reads real
        zero = np.zeros(1, self.panel_vals.dtype)
        self._left = np.concatenate([zero, np.cumsum(self.panel_vals)])
        self._right = np.concatenate([np.cumsum(self.panel_vals[::-1])[::-1], zero])
        # accumulation anchored at the reference panel: differences near
        # t_ref must not be formed by cancelling huge edge-anchored sums
        k = int(np.clip(np.searchsorted(self.bps, self.t_ref, side="right") - 1, 0, len(self.panel_vals) - 1))
        anch = np.empty(len(self.panel_vals) + 1, dtype=self.panel_vals.dtype)
        anch[k] = 0.0
        anch[k + 1 :] = np.cumsum(self.panel_vals[k:])
        anch[:k] = -np.cumsum(self.panel_vals[:k][::-1])[::-1]
        self._anch = anch
        self.error_bound = float(np.sum(self.panel_errs))

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
        """(panel index, int from the panel start to t) for covered t."""
        t = np.asarray(t, float)
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
    for blk in _leaf(g, [(s.lo, s.hi) for s in sides], closed, leaf_tol, leaf_rel, work, None):
        side = sides[blk.group]
        vals = blk.vals.tolist()
        taken = len(vals)  # rows of the block the walk keeps
        for j, singular in enumerate(blk.singular):
            if singular:
                side.status = "singular"
                taken = blk.bounds[j]
                closed.add(blk.group)
                break
            pv = sum(vals[blk.bounds[j] : blk.bounds[j + 1]])
            side.cum += pv
            contribs = side.contribs
            # only the endpoint-approach phase feeds the tail heuristics;
            # panels still growing away from the anchor carry growing mass
            # for perfectly integrable functions
            if blk.first + j >= side.n_grow:
                contribs.append(abs(pv))
            if tail_mode:
                if len(contribs) >= 3:
                    c1, c2, c3 = contribs[-3], contribs[-2], contribs[-1]
                    # divergence is flagged but never stops the expansion:
                    # truncating coverage early would poison edge-anchored
                    # queries whose prefactor amplifies the missing mass
                    if len(contribs) > 6 and c3 >= c2 >= c1 and c3 > 10.0 * (contribs[0] + tol):
                        side.diverging = True
                    # log-type endpoint divergence: halved panels keep
                    # contributing the same mass instead of decaying
                    if (
                        len(contribs) > 8
                        and math.isfinite(side.endpoint)
                        and c3 > tol
                        and c3 >= 0.999 * c2
                        and c2 >= 0.999 * c1
                    ):
                        side.diverging = True
                # tail caches hold exponential-scale values; budget their log
                if abs(side.cum) > math.exp(LOG_BUDGET):
                    side.status = "budget"
            elif abs(side.cum.real) > LOG_BUDGET:
                side.status = "budget"
            if side.status == "budget":
                taken = blk.bounds[j + 1]
                closed.add(blk.group)
                break
        leaves.append(blk.rows(taken))
        forced += np.bincount(blk.forced[:taken], minlength=3)

    if not any(len(rows[0]) for rows in leaves):
        raise ValueError(f"cumulative: empty coverage, both sides end singular next to t_ref {t_ref}")
    upper_info, lower_info = (side.info(tol, tail_mode) for side in sides)
    return _assemble(t_ref, leaves, lower_info, upper_info, forced, work)


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

