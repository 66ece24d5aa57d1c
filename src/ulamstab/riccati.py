"""Validation and numeric construction of first-order companion solutions.

Given the oscillator ``alpha x'' + beta x' + gamma x = f``, a function rho
factorizes the homogeneous operator when it solves

    alpha (rho' + rho^2) + beta rho + gamma = 0.

This module measures how well a candidate rho satisfies that equation
(`residual_sup`), builds one as x'/x of a homogeneous solution x when none
is supplied (`solve_riccati`), and determines the subinterval on which a
candidate is actually usable (`rho_coverage`) -- candidates with interior
poles only certify stability on the part they cover.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import exprlang
from .model import Interval, OscillatorProblem, probe_grid
from .quad import RANGE_CAP

__all__ = ["NumericSolution", "RhoCoverage", "RESIDUAL_TOL", "residual_sup", "solve_riccati", "rho_coverage"]

RESIDUAL_TOL = 1e-6  # the largest `residual_sup` of a candidate the analysis accepts
_ROUNDING = 20 * float(np.finfo(float).eps)  # the error of a panel's local solutions, relative to x and x'
_BLOCK = 8192  # samples per numpy call in `rho_coverage`: larger temporaries leave the cache and fault in fresh pages


@dataclass
class NumericSolution:
    """rho = x'/x, where alpha x'' + beta x' + gamma x = 0, x(t0) = 1 and x'(t0) = rho0.

    x and its derivatives are read off the collocation panels of each side.
    """

    t0: float
    rho0: complex
    lo: float
    hi: float
    blowup_lower: bool
    blowup_upper: bool
    _sides: tuple  # per side of t0, None or the panels of x, x' and x'' and the carried state

    def _ratios(self, t, k):
        """x'/x up to the k-th derivative of x over x, at the points t; NaN on a side without panels."""
        from . import collocation

        t = np.asarray(t, dtype=float)
        out = np.full((k + 1,) + t.shape, np.nan, dtype=complex)
        below = (t < self.t0) | ((t == self.t0) & (self._sides[1] is None))
        for side, mask in zip(self._sides, (below, ~below)):
            if side is not None and np.any(mask):
                for j in range(k + 1):
                    out[j, mask] = collocation.read(side[j], side[3], [None], t[mask])[0]
        with np.errstate(all="ignore"):
            return out[1:] / out[0]

    def __call__(self, t):
        return self._ratios(t, 1)[0][()]

    def derivative(self, t):
        """x''/x - rho^2, with x'' from the panels and not from the equation."""
        rho, xpp = self._ratios(t, 2)
        with np.errstate(all="ignore"):
            return (xpp - rho**2)[()]


@dataclass(frozen=True)
class RhoCoverage:
    lo: float
    hi: float
    full: bool
    detail: str = ""

    def to_dict(self):
        return asdict(self)


def residual_sup(problem: OscillatorProblem, rho):
    """Relative residual sup of the companion equation on a probe grid.

    The pointwise residual |alpha (rho' + rho^2) + beta rho + gamma| is
    scaled by the magnitude of the terms being cancelled, so a candidate
    that is exact up to floating-point cancellation scores near machine
    epsilon even where individual terms blow up.
    """
    a = problem.fn("alpha")
    b = problem.fn("beta")
    c = problem.fn("gamma")
    if isinstance(rho, exprlang.Expr):
        r = problem.bind(rho)
        rp = exprlang.compile_expr(exprlang.differentiate(rho), problem.params)
        grid = probe_grid(problem.domain)
    elif isinstance(rho, NumericSolution):
        r = rho
        rp = rho.derivative
        pad = 1e-6 * max(1.0, abs(rho.hi - rho.lo))
        if not rho.lo + pad < rho.hi - pad:
            return math.inf
        grid = probe_grid(Interval.open(rho.lo + pad, rho.hi - pad))
    else:
        raise TypeError("rho must be an expression or a NumericSolution")
    with np.errstate(all="ignore"):
        av, bv, cv = a(grid), b(grid), c(grid)
        rv, rpv = np.asarray(r(grid)), np.asarray(rp(grid))
        res = np.abs(av * (rpv + rv**2) + bv * rv + cv)
        scale = 1.0 + np.abs(av) * (np.abs(rpv) + np.abs(rv) ** 2) + np.abs(bv * rv) + np.abs(cv)
        rel = res / scale
    rel = rel[np.isfinite(rel)]
    if rel.size == 0:
        return math.inf
    return float(np.max(rel))


def solve_riccati(problem: OscillatorProblem, t0, rho0):
    """rho = x'/x, with x(t0) = 1 and x'(t0) = rho0, as a `NumericSolution`.

    A pole of rho is a zero of x (Reid, *Riccati Differential Equations*,
    1972, ch. 2).  Each side of t0 is marched out by `_side` to the
    domain's end (1e-12 max(1, |end|) inside an open one) or RANGE_CAP from
    t0.  A t0 outside the domain or a rho0 that is not finite raises
    ValueError.
    """
    dom, t0 = problem.domain, float(t0)
    if not dom.contains(t0):
        raise ValueError(f"anchor t0={t0} outside the problem domain")
    if not np.isfinite(complex(rho0)):
        raise ValueError(f"rho0={rho0} is not finite")
    fns = [problem.fn(which) for which in ("alpha", "beta", "gamma")]
    out = []
    for end, sign in ((dom.lower, -1.0), (dom.upper, 1.0)):
        far = float(np.clip(t0 + sign * RANGE_CAP, -RANGE_CAP, RANGE_CAP))
        if end.finite:
            far = end.value - (0.0 if end.included else sign * 1e-12 * max(1.0, abs(end.value)))
        out.append(_side(fns, t0, far, complex(rho0)))
    (lo, blow_lo, lower), (hi, blow_hi, upper) = out
    return NumericSolution(t0, complex(rho0), lo, hi, blow_lo, blow_hi, (lower, upper))


def _side(fns, t0, far, rho0):
    """Where x'/x reaches from t0 toward ``far``, whether it ends at a blow-up, and its panels.

    The side is marched out in chunks 1, 2, 4, ... wide, each one
    `collocation.panels` call, with (x, x') carried on from the last.  It
    ends at the first zero of x, or at its last resolved panel where
    collocation does not resolve x: a blow-up, recorded as data and never
    raised.  It also ends, short of ``far`` but not at a blow-up, where x
    would hold fewer than 8 digits, as when x decays against a growing
    solution, and where the next chunk would take it past `MAX_PANELS`
    panels at the last chunk's density, as an exponential needs panels a
    few units wide all the way.  The digits are those of a probe solution
    with data (0, 1), which a rounding error at t0 grows as.
    """
    # imported here: only --solve-rho solves, and a plain analyze loads no collocation
    from . import collocation

    sign, a, width, count = np.sign(far - t0), t0, 1.0, 0
    state = np.array([1.0, 0.0, rho0, 1.0])  # x, the probe, x', the probe's derivative
    parts = []
    while a != far:
        b = far if abs(far - a) <= width else a + sign * width
        ((side, why),) = collocation.panels(fns, a, b)
        states = collocation.carry(side, list(state[:2]), list(state[2:]), [None, None], True)
        lost = _ROUNDING * max(1.0, abs(rho0)) * np.max(np.abs(states[:, 1::2]), axis=1) > 1e-8 * np.max(np.abs(states[:, ::2]), axis=1)
        m = int(np.argmax(lost)) if np.any(lost) else side[0].size
        zero = collocation.first_zero(tuple(v[:m] for v in side), states[: m + 1, ::2])
        if zero is not None:
            b, m = zero[0], zero[1] + 1
        elif m < side[0].size or why is not None:
            b = side[0][m] if m < side[0].size else side[1][m - 1] if m else a
        side, states = tuple(v[:m] for v in side), states[: m + 1]
        parts.append((side, states[:-1, ::2]))
        count, a, width, state = count + m, b, 2.0 * width, states[-1]
        blowup = zero is not None or (why is not None and not np.any(lost))
        if blowup or np.any(lost) or count + 2 * m > collocation.MAX_PANELS:
            break
    else:
        blowup = False
    if not count:
        return t0, blowup, None
    side = tuple(np.concatenate(v) for v in zip(*(s for s, _ in parts)))
    first = collocation.differentiate(side)
    return float(a), blowup, (side, first, collocation.differentiate(first), np.concatenate([st for _, st in parts]))


def rho_coverage(problem: OscillatorProblem, rho):
    """Maximal grid subinterval around the anchor where rho is usable.

    A candidate may blow up at interior points (poles); the stability
    theory then only applies to the contiguous piece containing the anchor.
    Blow-up *at* an endpoint is fine and does not reduce coverage.

    The grid is the probe grid plus windows of 2,046 points (a `linspace`
    of 2,048 without its ends) around the anchor, 1, 2, 4, ... wide on
    each side and cut at the domain's ends, doubling until they cover it
    or reach 1e8.  A sample is bad where rho is not finite or
    |rho| >= 1e12, and, when rho is real on every good sample evaluated,
    where it changes sign across a large value that the grid resolves;
    such a flip marks the lower sample of the pair.  The coverage is the
    run of good samples around the anchor, so it depends only on the
    nearest bad sample on each side.

    The grid is evaluated in two passes.  The first takes the probe grid
    and every grid point within the first window's reach,
    |t - anchor| <= 1.  A side is settled when the grid ends within that
    reach or a bad sample lies there; the outermost sample above the
    anchor does not count, as its sign-flip test needs the next point
    out.  The second pass evaluates the rest of each side that is not
    settled, each point once; an anchor sample that is bad takes the
    whole grid.  A grid whose windows hold at most two blocks of `_BLOCK`
    points is evaluated whole in the first pass.  The real-valuedness is
    judged on the samples evaluated, so a rho that is real on all of them
    but complex at a grid point further out keeps its sign-flip test,
    which the whole grid would switch off everywhere.
    """
    dom = problem.domain
    lo_edge, hi_edge = dom.capped_ends()
    if isinstance(rho, NumericSolution):
        lo, hi = rho.lo, rho.hi
        short = (lo > lo_edge + 1e-6 * max(1.0, abs(lo_edge)), hi < hi_edge - 1e-6 * max(1.0, abs(hi_edge)))
        full = not (rho.blowup_lower and short[0] or rho.blowup_upper and short[1])
        detail = "" if not any(short) else f"numeric {'solution resolved only on' if full else 'blow-up limits coverage to'} [{lo:.6g}, {hi:.6g}]"
        return RhoCoverage(lo, hi, full, detail)

    fn = problem.bind(rho)
    anchor = dom.default_anchor()

    def points(*pieces):
        """The distinct points of the pieces that lie in the domain, sorted."""
        g = np.concatenate(pieces)
        g.sort()
        distinct = np.ones(g.size, dtype=bool)
        distinct[1:] = g[1:] != g[:-1]
        if not np.all(distinct):
            g = g[distinct]
        return g[np.searchsorted(g, lo_edge, "left" if dom.lower.included else "right") : np.searchsorted(g, hi_edge, "right" if dom.upper.included else "left")]

    # probe grid plus dense windows doubling outward from the anchor, so
    # interior poles near the working region are actually resolved
    probe = probe_grid(dom)  # sorted, distinct and in the domain
    ends = []
    width = 1.0
    while True:
        w_lo = max(lo_edge, anchor - width)
        w_hi = min(hi_edge, anchor + width)
        if w_hi > w_lo:
            ends.append((w_lo, w_hi))
        if w_lo == lo_edge and w_hi == hi_edge:
            break
        width *= 2.0
        if width > 2.0 * (hi_edge - lo_edge):
            break
    windows = np.linspace(*np.reshape(ends, (-1, 2)).T, 2048)[1:-1]  # one window a column

    # the grid in three sorted parts: below the first window's reach, within
    # it and above it; an outer part holds only its probe points until its
    # side is evaluated whole.  A grid of two blocks takes one pass: a
    # second would cost more than it saves.
    if windows.size > 2 * _BLOCK:
        reach = (anchor - 1.0, anchor + 1.0)
        outer = (windows < reach[0], windows > reach[1])
        parts = [probe[probe < reach[0]], points(probe[(probe >= reach[0]) & (probe <= reach[1])], windows[~(outer[0] | outer[1])]), probe[probe > reach[1]]]
        whole = [not np.any(m) for m in outer]
    else:
        parts, whole = [probe[:0], points(probe, windows.ravel()), probe[:0]], [True, True]
    grid, vals = np.empty(0), np.empty(0, dtype=complex)
    while True:
        old, grid = grid, np.concatenate(parts)
        a, b = parts[0].size, parts[0].size + parts[1].size  # the samples within reach are grid[a:b]
        parts = [grid[:a], grid[a:b], grid[b:]]
        known = np.searchsorted(grid, old)
        old_vals, vals = vals, np.empty(grid.size, dtype=complex)
        vals[known] = old_vals
        fresh = np.ones(grid.size, dtype=bool)
        fresh[known] = False
        _evaluate(fn, grid, vals, fresh)
        bad = _bad_samples(grid, vals)
        k = min(int(np.searchsorted(grid, anchor)), grid.size - 1)
        # a bad sample within reach settles its side, but the last one above
        # the anchor is not known to be good: its flip test needs the next point
        todo = [s for s, settled in enumerate((np.any(bad[a:k]), np.any(bad[k : b - 1]))) if not (whole[s] or settled)]
        if not todo and not (a <= k < b and not bad[k]):
            todo = [s for s in (0, 1) if not whole[s]]  # a bad anchor sample takes the whole grid
        if not todo:
            break
        for s in todo:
            parts[2 * s], whole[s] = points(windows[outer[s]], parts[2 * s]), True
    good = ~bad

    if not good[k]:
        good_idx = np.flatnonzero(good)
        if good_idx.size == 0:
            return RhoCoverage(anchor, anchor, False, "rho not evaluable anywhere on the probe grid")
        k = int(good_idx[np.argmin(np.abs(grid[good_idx] - anchor))])
    # the good run around k ends next to the nearest bad samples on either side
    bad_idx = np.flatnonzero(bad)
    pos = int(np.searchsorted(bad_idx, k))
    i = int(bad_idx[pos - 1]) + 1 if pos > 0 else 0
    j = int(bad_idx[pos]) - 1 if pos < bad_idx.size else grid.size - 1
    lo, hi = float(grid[i]), float(grid[j])

    span = hi_edge - lo_edge
    lo_ok = (i == 0) or (lo - lo_edge) <= 1e-6 * span
    hi_ok = (j == grid.size - 1) or (hi_edge - hi) <= 1e-6 * span
    full = lo_ok and hi_ok
    if lo_ok:
        lo = dom.tau
    if hi_ok:
        hi = dom.sigma
    detail = ""
    if not full:
        bad_at = grid[j + 1] if not hi_ok else grid[i - 1]
        detail = f"rho not finite near t={float(bad_at):.6g}; coverage limited to [{lo:.6g}, {hi:.6g}]"
    return RhoCoverage(lo, hi, full, detail)


def _evaluate(fn, t, out, where):
    """Write rho(t) into ``out`` where ``where`` holds, `_BLOCK` points at a time."""
    with np.errstate(all="ignore"):
        for i in range(0, t.size, _BLOCK):
            w = where[i : i + _BLOCK]
            if np.all(w):
                out[i : i + _BLOCK] = fn(t[i : i + _BLOCK])
            else:
                out[i : i + _BLOCK][w] = fn(t[i : i + _BLOCK][w])


def _bad_samples(grid, vals):
    """Where rho is not finite or |rho| >= 1e12, or, for a real rho, flips sign across a resolved large value.

    Each block of `_BLOCK` samples is tested with the first sample of the next.
    """
    bad = np.empty(grid.size, dtype=bool)
    flip = np.zeros(grid.size, dtype=bool)
    real = True
    for i in range(0, grid.size, _BLOCK):
        j = min(i + _BLOCK, grid.size)
        re, im = vals.real[i : j + 1], vals.imag[i:j]
        size = np.abs(re)
        zero_im = not np.any(im)  # then |rho| is |Re rho| and rho is real, with no hypot
        np.logical_or(~np.isfinite(vals[i:j]), (size[: j - i] if zero_im else np.abs(vals[i:j])) >= 1e12, out=bad[i:j])
        real = real and (zero_im or np.all((np.abs(im) < 1e-9 * (1.0 + size[: j - i])) | bad[i:j]))
        # a sign flip at large magnitude between neighbouring samples that
        # resolve the growth marks a pole of a real-valued candidate
        least = np.minimum(size[:-1], size[1:])
        flip[i : i + least.size] = (re[:-1] * re[1:] < 0) & (least * np.diff(grid[i : j + 1]) > 0.5) & (least > 100.0)
    if real:
        bad |= flip
    return bad
