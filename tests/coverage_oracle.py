"""Reference coverage for `riccati.rho_coverage`: the whole grid, evaluated at once.

This is the program's earlier `rho_coverage`, kept as it was.  It evaluates
rho on the whole grid -- the probe grid plus 2,046-point windows doubling
out to `RANGE_CAP` -- and sorts it with `np.unique` before it looks for
the nearest bad samples around the anchor.  The program evaluates only as
far as those samples, and its result is this function's, field for field.
"""

import numpy as np

from ulamstab.model import OscillatorProblem, probe_grid
from ulamstab.quad import RANGE_CAP
from ulamstab.riccati import NumericSolution, RhoCoverage


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
        short = (lo > lo_edge + 1e-6 * max(1.0, abs(lo_edge)), hi < hi_edge - 1e-6 * max(1.0, abs(hi_edge)))
        full = not (rho.blowup_lower and short[0] or rho.blowup_upper and short[1])
        detail = "" if not any(short) else f"numeric {'solution resolved only on' if full else 'blow-up limits coverage to'} [{lo:.6g}, {hi:.6g}]"
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
