"""Validation and numeric construction of first-order companion solutions.

Given the oscillator ``alpha x'' + beta x' + gamma x = f``, a function rho
factorizes the homogeneous operator when it solves

    alpha (rho' + rho^2) + beta rho + gamma = 0.

This module measures how well a candidate rho satisfies that equation
(`residual_sup`), solves it as an IVP when no candidate is supplied
(`solve_riccati`), and determines the subinterval on which a candidate is
actually usable (`rho_coverage`) -- candidates with interior poles only
certify stability on the part they cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exprlang
from .model import Interval, OscillatorProblem, probe_grid
from .quad import RANGE_CAP

__all__ = ["NumericSolution", "RhoCoverage", "RESIDUAL_TOL", "residual_sup", "solve_riccati", "rho_coverage"]

_BLOWUP_CAP = 1e8
RESIDUAL_TOL = 1e-6  # the largest `residual_sup` of a candidate the analysis accepts


@dataclass
class NumericSolution:
    """Dense-output trajectory of the companion equation around an anchor."""

    t0: float
    rho0: complex
    lo: float
    hi: float
    blowup_lower: bool
    blowup_upper: bool
    _interp_lo: object = None  # scipy OdeSolution for t < t0 (may be None)
    _interp_hi: object = None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        out = np.empty(tt.shape, dtype=complex)
        below = tt < self.t0
        if np.any(below):
            if self._interp_lo is None:
                out[below] = complex(self.rho0)
            else:
                y = self._interp_lo(tt[below])
                out[below] = y[0] + 1j * y[1]
        if np.any(~below):
            if self._interp_hi is None:
                out[~below] = complex(self.rho0)
            else:
                y = self._interp_hi(tt[~below])
                out[~below] = y[0] + 1j * y[1]
        return out[0] if scalar else out

    def derivative(self, t):
        """Central difference of the interpolant (used by residual checks)."""
        t = np.asarray(t, dtype=float)
        h = np.maximum(1e-12, 1e-7 * np.abs(t))
        lo = np.clip(t - h, self.lo, self.hi)
        hi = np.clip(t + h, self.lo, self.hi)
        return (self(hi) - self(lo)) / (hi - lo)


@dataclass(frozen=True)
class RhoCoverage:
    lo: float
    hi: float
    full: bool
    detail: str = ""


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
    """Integrate rho' = -(beta rho + gamma)/alpha - rho^2 from (t0, rho0).

    Runs an adaptive high-order Runge-Kutta in both directions with dense
    output.  Blow-up (|rho| crossing 1e8, or solver stall) is recorded as
    data, never raised; the covered interval ends at the last reliable t.
    """
    # imported here: scipy is most of the CLI's start-up, and only --solve-rho integrates
    from scipy.integrate import solve_ivp

    a = problem.fn("alpha")
    b = problem.fn("beta")
    c = problem.fn("gamma")

    def rhs(t, y):
        rho = y[0] + 1j * y[1]
        val = -(b(t) * rho + c(t)) / a(t) - rho * rho
        return [val.real, val.imag]

    def too_big(t, y):
        return math.hypot(y[0], y[1]) - _BLOWUP_CAP

    too_big.terminal = True

    dom = problem.domain
    t0 = float(t0)
    if not dom.contains(t0):
        raise ValueError(f"anchor t0={t0} outside the problem domain")
    y0 = [complex(rho0).real, complex(rho0).imag]
    lo_target = dom.tau if dom.lower.finite else max(-RANGE_CAP, t0 - RANGE_CAP)
    hi_target = dom.sigma if dom.upper.finite else min(RANGE_CAP, t0 + RANGE_CAP)
    # stay strictly interior to singular finite endpoints
    span = hi_target - lo_target
    eps = 1e-12 * max(1.0, abs(lo_target), abs(hi_target))
    if dom.lower.finite and not dom.lower.included:
        lo_target += max(eps, 1e-10 * span)
    if dom.upper.finite and not dom.upper.included:
        hi_target -= max(eps, 1e-10 * span)

    out = {}
    for side, target in (("lower", lo_target), ("upper", hi_target)):
        if (side == "lower" and target >= t0) or (side == "upper" and target <= t0):
            out[side] = (t0, False, None)
            continue
        sol = solve_ivp(
            rhs,
            (t0, target),
            y0,
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
            events=too_big,
        )
        reached = float(sol.t[-1])
        blowup = (sol.status == 1) or (sol.status == -1) or (
            abs(reached - target) > 1e-9 * max(1.0, abs(target)) and sol.status != 0
        )
        out[side] = (reached, bool(blowup), sol.sol)
    lo, blow_lo, interp_lo = out["lower"]
    hi, blow_hi, interp_hi = out["upper"]
    return NumericSolution(
        t0=t0,
        rho0=complex(rho0),
        lo=lo,
        hi=hi,
        blowup_lower=blow_lo,
        blowup_upper=blow_hi,
        _interp_lo=interp_lo,
        _interp_hi=interp_hi,
    )


def rho_coverage(problem: OscillatorProblem, rho):
    """Maximal probe-grid subinterval around the anchor where rho is usable.

    A candidate may blow up at interior points (poles); the stability
    theory then only applies to the contiguous piece containing the anchor.
    Blow-up *at* an endpoint is fine and does not reduce coverage.
    """
    dom = problem.domain
    if isinstance(rho, NumericSolution):
        lo, hi = rho.lo, rho.hi
        lo_edge = dom.tau if dom.lower.finite else -RANGE_CAP
        hi_edge = dom.sigma if dom.upper.finite else RANGE_CAP
        full = (not rho.blowup_lower or lo <= lo_edge + 1e-6 * max(1.0, abs(lo_edge))) and (
            not rho.blowup_upper or hi >= hi_edge - 1e-6 * max(1.0, abs(hi_edge))
        )
        detail = "" if full else f"numeric blow-up limits coverage to [{lo:.6g}, {hi:.6g}]"
        return RhoCoverage(lo, hi, full, detail)

    fn = problem.bind(rho)
    anchor = dom.default_anchor()
    lo_edge = dom.tau if dom.lower.finite else -RANGE_CAP
    hi_edge = dom.sigma if dom.upper.finite else RANGE_CAP

    # probe grid plus dense windows doubling outward from the anchor, so
    # interior poles near the working region are actually resolved
    grids = [probe_grid(dom)]
    width = 1.0
    while True:
        w_lo = max(lo_edge, anchor - width)
        w_hi = min(hi_edge, anchor + width)
        if w_hi > w_lo:
            grids.append(np.linspace(w_lo, w_hi, 2048)[1:-1])
        if w_lo == lo_edge and w_hi == hi_edge:
            break
        width *= 2.0
        if width > 2.0 * (hi_edge - lo_edge):
            break
    grid = np.unique(np.concatenate(grids))
    grid = grid[(grid > lo_edge) | ((grid == lo_edge) & dom.lower.included)]
    grid = grid[(grid < hi_edge) | ((grid == hi_edge) & dom.upper.included)]

    with np.errstate(all="ignore"):
        vals = np.asarray(fn(grid))
    bad = ~(np.isfinite(vals.real) & np.isfinite(vals.imag)) | (np.abs(vals) >= 1e12)
    if np.all(np.abs(vals.imag[~bad]) < 1e-9 * (1.0 + np.abs(vals.real[~bad]))):
        # real-valued candidate: a sign flip at large magnitude between
        # neighbouring samples that resolve the growth marks a pole
        re = vals.real
        gap = np.diff(grid)
        flip = (re[:-1] * re[1:] < 0) & (np.minimum(np.abs(re[:-1]), np.abs(re[1:])) * gap > 0.5)
        flip &= np.minimum(np.abs(re[:-1]), np.abs(re[1:])) > 100.0
        bad[:-1] |= flip
    good = ~bad

    k = int(np.searchsorted(grid, anchor))
    k = min(max(k, 0), grid.size - 1)
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
