"""Chebyshev panel collocation of alpha x'' + beta x' + gamma x = g.

`dynamics.ivp_solution` and `riccati.solve_riccati` solve their initial
value problems here, without the stability engine's caches.  The equation
is linear, so the local solutions on a panel, with data at the panel's end
nearer t0, do not depend on any other panel: each side of t0 is bisected
from one panel, the sides of one call together, and every level is solved
as one batch, with one call of each coefficient on the nodes of all its
panels and one LAPACK solve per panel.  The unknowns are the values of x''
at the N Chebyshev nodes, so the panel's matrix is well conditioned
(spectral integration: Greengard, SIAM J. Numer. Anal. 28, 1991;
Trefethen, *Spectral Methods in MATLAB*, SIAM 2000).  A panel is accepted
when its coefficient and forcing values are finite and the last 3
Chebyshev coefficients of every local solution are at most TAIL of its
largest value.  The members are then carried across the accepted panels in
order (`carry`) and read at their points by barycentric interpolation
(`read`).

A side that collocation does not resolve is data, not an exception:
`panels` returns, per side, its panels nearer t0 than where it stopped and
the message that names the stop.  `ivp_solution` raises that message, and
`solve_riccati` ends the side there as a blow-up.

A panel's numbers depend on its own nodes only.  It is solved by its own
LAPACK call, in real arithmetic when its node values are real.  Every
matrix is applied to its node values by one BLAS product per panel, of one
shape for every panel of the call, with the real and imaginary parts apart
(`_apply`).  `read`'s barycentric sums run over the nodes in node order.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev

from .quad import node_sum

__all__ = ["panels", "panel_solutions", "evaluate", "carry", "read", "differentiate", "first_zero"]

N = 20  # Chebyshev points per collocation panel
TAIL = 1e-13  # trailing coefficients of an accepted local solution, relative to its largest value
FLOOR = 8.0 * np.finfo(float).eps  # narrowest panel, relative to |t|: a few ulp
MAX_PANELS = 10000  # accepted and pending panels per side
CHUNK = 1024  # panels solved together at most, which bounds the temporaries


def _chebyshev_operators(n):
    """The n second-kind Chebyshev points on [-1, 1], from 1 down to -1, and their operators.

    Returns the points, the map from node values to Chebyshev coefficients,
    the barycentric weights, and, indexed by start point (0 for -1, 1 for
    1) and then by order, the matrices (2, 2, n, n) that map node values to
    node values of the integral and the double integral from that point,
    both exact for the interpolant.
    """
    j = np.arange(n)
    x = np.sin(np.pi * (n - 1 - 2 * j) / (2 * (n - 1)))
    half = np.where((j == 0) | (j == n - 1), 0.5, 1.0)
    coef = (2.0 / (n - 1)) * np.cos(np.pi * np.outer(j, j) / (n - 1)) * np.outer(half, half)
    # each column of coef is the series of one node's cardinal function
    integrals = np.array([[chebyshev.chebval(x, chebyshev.chebint(coef, m=m, lbnd=start)).T for m in (1, 2)] for start in (-1.0, 1.0)])
    return x, coef, half * (-1.0) ** j, integrals


_X, _COEF, _W, _INT = _chebyshev_operators(N)
_START = np.array([-1.0, 1.0])  # the start point of each first index of _INT
_DIFF = np.ascontiguousarray(chebyshev.chebval(_X, chebyshev.chebder(_COEF)).T)  # node values to node values of the derivative


def _apply(M, u):
    """sum_j M[..., i, j] u[..., j]: M applied to the node values of every panel.

    One stacked `np.matmul`, which makes one BLAS product per panel, each of
    the same shape, so a panel's numbers are those it gets alone.  A complex
    ``u`` goes in as its real and imaginary parts, each C-contiguous (numpy
    takes a strided view through its own loop, not BLAS) and each a real
    product: a panel whose imaginary part is zero then reads as if real, and
    the parts are put together without a product by 1j, which would turn a
    non-finite imaginary part into a NaN real part.
    """
    Mt = np.swapaxes(M, -1, -2)
    if not np.iscomplexobj(u):
        return np.matmul(np.ascontiguousarray(u), Mt)
    re, im = (np.matmul(np.ascontiguousarray(part), Mt) for part in (u.real, u.imag))
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def panels(fns, t0, *fars):
    """Per far end, the panels of [t0, far] on which the local solutions are resolved, from t0 out, and why the side stopped.

    ``fns`` are alpha, beta, gamma and the forcings (callables or nonzero
    constants).  Bisection starts from each whole side, and the pending
    panels of every side at a level are solved together by
    `panel_solutions`, in chunks of at most `CHUNK`.  A panel is accepted
    when the last 3 Chebyshev coefficients of every local solution are at
    most `TAIL` times its largest value, and split otherwise: at the
    geometric mean of its ends when they differ by more than a factor 4 in
    |t|, else at its midpoint.  A side stops, unresolved, where a value of
    ``fns`` is not finite at a node, where a panel still fails at a few ulp
    wide, or where it would need more than `MAX_PANELS` panels: where
    rounding in the coefficients keeps the tail up, as next to a zero of
    alpha, every panel fails at every level.  A stopped side is no longer
    solved; the other sides go on.

    Returns per far end a pair ``(panels, why)``.  ``panels`` holds the near
    ends, the far ends, the node values (m, r, n) and the far-end values and
    derivatives (m, r, 2) of the m accepted panels nearer t0 than every
    unresolved one, in order from t0 out; ``why`` is None for a resolved
    side, else the message that names where it stopped.
    """
    k, r = len(fars), len(fns) - 1
    near, end, which = np.full(k, float(t0)), np.array(fars, dtype=float), np.arange(k)  # which: the side of each panel
    done = [(near[:0], end[:0], np.empty((0, r, N)), np.empty((0, r, 2)), which[:0])]
    count = np.zeros(k, dtype=int)  # accepted panels per side
    why, cut = [None] * k, np.full(k, np.inf)  # per side: its stop and the distance from t0 of its nearest unresolved panel
    while True:
        for s in np.flatnonzero((count + np.bincount(which, minlength=k) > MAX_PANELS) & np.isinf(cut)):
            mine = near[which == s]
            t = mine[np.argmin(np.abs(mine - t0))]
            why[s], cut[s] = f"collocation does not resolve the solution near t={t:.17g} within {MAX_PANELS} panels", abs(t - t0)
        # a stopped side is no longer solved
        live = np.isinf(cut[which])
        near, end, which = near[live], end[live], which[live]
        if not near.size:
            break
        chunks = [panel_solutions(fns, near[i : i + CHUNK], end[i : i + CHUNK]) for i in range(0, near.size, CHUNK)]
        u, ends, ok, bad = (np.concatenate(part) for part in zip(*chunks))
        done.append((near[ok], end[ok], u[ok], ends[ok], which[ok]))
        count += np.bincount(which[ok], minlength=k)
        mid = 0.5 * (near + end)
        floor = ~ok & (np.abs(end - near) <= FLOOR * np.maximum(np.abs(near), np.abs(end)))
        for s in np.unique(which[floor | ~np.isnan(bad)]):
            mine = which == s
            t_bad = bad[mine & ~np.isnan(bad)]
            if t_bad.size:
                why[s] = f"a coefficient or forcing is not finite at the collocation node t={t_bad[0]:.17g}"
            else:
                why[s] = f"collocation does not resolve the solution near t={mid[floor & mine][0]:.17g}: the panel is a few ulp wide"
            cut[s] = np.min(np.abs(near[mine & ~ok] - t0))
        # geometric splits grade the panels toward t = 0, where coefficients
        # such as 2/t are singular, in a few levels
        a, b, side = near[~ok], end[~ok], which[~ok]
        geometric = (np.sign(a) == np.sign(b)) & (np.abs(a - b) > 3.0 * np.minimum(np.abs(a), np.abs(b)))
        split = np.where(geometric, np.sign(a) * np.sqrt(np.abs(a)) * np.sqrt(np.abs(b)), mid[~ok])
        near, end, which = np.concatenate((a, split)), np.concatenate((split, b)), np.concatenate((side, side))
    near, end, u, ends, which = (np.concatenate(part) for part in zip(*done))
    dist = np.abs(near - t0)
    order = np.argsort(dist, kind="stable")
    keep = [order[(which[order] == s) & (dist[order] < cut[s])] for s in range(k)]
    return tuple(((near[i], end[i], u[i], ends[i]), w) for i, w in zip(keep, why))


def panel_solutions(fns, near, end):
    """Local solutions on the panels between ``near`` and ``end``, solved together.

    Each callable of ``fns`` is called once, on the Chebyshev nodes of all
    panels.  On a panel of half-width h with near end a, the unknowns are
    the node values v of x''; with K and K2 the integral and the double
    integral from a, x' = x'(a) + h K v and x = x(a) + x'(a)(t - a) + h^2 K2 v.
    Collocating the equation at every node gives the n x n system
    ``(diag(alpha) + h diag(beta) K + h^2 diag(gamma) K2) v = rhs``, whose
    conditioning does not grow with n as that of D^2 does.  One LAPACK
    solve per panel gives the local solutions with data (1, 0) at a, with
    (0, 1) and, per forcing, with (0, 0).  Each panel takes its direction
    from its own ends: a is its end ``near``, at -1 on [-1, 1] when ``end``
    lies above it and at 1 when below, so one batch may hold panels of both
    sides of t0.  The integrals, the far-end derivative and the tail's
    Chebyshev coefficients are read off v and x by `_apply`: one BLAS
    product per panel, of one shape for all, with the real and imaginary
    parts apart, so that a panel's numbers do not depend on its batch.

    Returns the node values (m, r, n), the far-end values and derivatives
    (m, r, 2), whether each panel is accepted, and per panel the first node
    at which a value of ``fns`` is not finite, NaN where none is.  A panel
    is accepted when its values are finite and its Chebyshev tail is small
    enough.
    """
    x = _X
    n = x.size
    diag = np.arange(n)
    panel = np.arange(near.size)
    # per panel: its near end as a point of [-1, 1], the integrals from
    # there, and the node index of its far end
    back = (~(end > near)).astype(int)
    start = _START[back][:, None]
    K, K2 = _INT[back, 0], _INT[back, 1]
    i1 = back * (n - 1)
    h = 0.5 * np.abs(end - near)[:, None]
    nodes = 0.5 * (near + end)[:, None] + h * x
    vals = np.stack([np.broadcast_to(np.asarray(f(nodes) if callable(f) else f), nodes.shape) for f in fns])
    nonfinite = np.any(~np.isfinite(vals), axis=0)
    bad = np.where(np.any(nonfinite, axis=1), nodes[panel, np.argmax(nonfinite, axis=1)], np.nan)
    real = ~np.any(vals.imag, axis=(0, 2)) if np.iscomplexobj(vals) else np.ones(near.size, dtype=bool)
    if np.all(real):
        vals = vals.real
    a, b, c, g = vals[0], vals[1], vals[2], vals[3:]
    # a panel too wide for its solution may overflow; the tail test rejects it
    with np.errstate(all="ignore"):
        A = (h * b)[:, :, None] * K
        A += (h * h * c)[:, :, None] * K2
        A[:, diag, diag] += a
        s = h * (x - start)  # t - a at the nodes
        v = _solve_panels(A, np.stack((-c, -b - c * s, *g), axis=-1), real)
        v = np.ascontiguousarray(np.moveaxis(v, -1, 1))
        u = (h * h)[:, None] * _apply(K2, v)
        u[:, 0] += 1.0
        u[:, 1] += s
        du = h * _apply(K[panel, i1][:, None], v)[..., 0]
        du[:, 1] += 1.0
        tail = np.max(np.abs(_apply(_COEF[-3:], u)), axis=-1)
        ok = np.all(tail <= TAIL * np.max(np.abs(u), axis=-1), axis=-1) & np.isnan(bad)
    return u, np.stack((u[panel, :, i1], du), axis=-1), ok, bad


def _solve_panels(A, B, real):
    """Each panel's ``A X = B`` by its own LAPACK solve.

    Panels flagged ``real`` are solved in real arithmetic, and the result is
    real when all of them are.
    """
    if np.all(real) or not np.any(real):
        return _solve(A, B)
    out = np.empty(B.shape, dtype=complex)
    out[real] = _solve(A[real].real, B[real].real)
    out[~real] = _solve(A[~real], B[~real])
    return out


def _solve(A, B):
    """The stacked solve, one LAPACK call per panel; NaN for a singular panel."""
    with np.errstate(all="ignore"):
        try:
            return np.linalg.solve(A, B)
        except np.linalg.LinAlgError:
            out = np.full(B.shape, np.nan, dtype=np.result_type(A, B))
            for i in range(len(A)):
                try:
                    out[i] = np.linalg.solve(A[i], B[i])
                except np.linalg.LinAlgError:
                    pass
            return out


def evaluate(side, x0, x0p, col, pts):
    """The members at the sorted points ``pts`` of one side of t0.

    ``side`` is what `panels` returns for that side, ``x0`` and ``x0p`` are
    the members' x and x' at t0, and ``col`` gives each member's forced
    local solution (None for a homogeneous member).
    """
    return read(side, carry(side, x0, x0p, col, False), col, pts)


def carry(side, x0, x0p, col, unit):
    """(x, x') of every member at each panel's near end and past the last panel, (m + 1, 2k).

    The members start from ``x0`` and ``x0p`` at t0.  With ``unit``, each
    state is taken over the power of two that brings its largest entry to
    [0.5, 1): exact, and for homogeneous members x'/x does not move while x
    cannot overflow.
    """
    state = []
    x, d = x0, x0p
    for e in side[3].tolist():
        if unit:
            s = 2.0 ** -math.frexp(max(map(abs, x + d)))[1]
            x, d = [xi * s for xi in x], [di * s for di in d]
        state.append(x + d)
        x, d = [[xi * e[0][j] + di * e[1][j] + (e[c][j] if c else 0.0) for xi, di, c in zip(x, d, col)] for j in (0, 1)]
    state.append(x + d)
    return np.array(state, dtype=complex)


def read(side, state, col, pts):
    """The members with the `carry` ``state`` at the sorted points ``pts`` of ``side``."""
    near, end, u, _ = side
    k = len(col)
    # each point on the panel that holds it; a node reads its value exactly
    s = 1.0 if end[0] > near[0] else -1.0
    p = np.minimum(np.searchsorted(s * end, s * pts), near.size - 1)
    mid = 0.5 * (near + end)[p]
    hw = 0.5 * np.abs(end - near)[p]
    diff = ((pts - mid) / hw)[:, None] - _X
    hit = diff == 0.0
    with np.errstate(divide="ignore"):
        w = np.where(np.any(hit, axis=1)[:, None], hit.astype(float), _W / diff)
    local = np.stack([node_sum(w, u[p, j]) for j in range(u.shape[1])], axis=-1) / np.sum(w, axis=1)[:, None]
    out = np.empty((k, pts.size), dtype=complex)
    for i, c in enumerate(col):
        out[i] = state[p, i] * local[:, 0] + state[p, k + i] * local[:, 1] + (local[:, c] if c else 0.0)
    return out


def differentiate(side):
    """``side`` with each local solution replaced by its derivative in t, for `read` to read x' off.

    The derivative matrix is applied by `_apply`, one BLAS product per
    panel with the real and imaginary parts apart, so a panel reads the same
    bits whatever else is on the side.
    """
    near, end, u, ends = side
    return near, end, _apply(_DIFF, u) / (0.5 * np.abs(end - near))[:, None, None], ends


def first_zero(side, state):
    """The first zero on ``side`` of the homogeneous member with the `carry` ``state``, and its panel; or None.

    The zero is a root in [-1, 1] of the member's Chebyshev interpolant on a
    panel, its coefficients below TAIL of the largest dropped as noise; a
    root of complex data counts within 1e-12 of the axis, and one within
    1e-12 past an end of the panel counts at that end.  Only a panel whose
    node values change sign or vanish, in the real and in the imaginary
    part, is searched: x and x' never vanish together, so a real x changes
    sign at a zero, and with real coefficients so do both parts of a
    complex x.
    """
    near, end, u, _ = side
    if not near.size:
        return None
    x = np.sum(state[:-1, :, None] * u, axis=1)
    # x at a near end is its carried state: the local solutions read it with
    # a rounding error in proportion to x', which outweighs an x within an
    # ulp of its zero, as from t0 with |rho0| >= 1e19
    x[:, -1 if end[0] > near[0] else 0] = state[:-1, 0]
    crosses = [np.any(v[:, :-1] * v[:, 1:] <= 0.0, axis=1) for v in (x.real, x.imag)]
    for p in np.flatnonzero(crosses[0] & crosses[1]):
        c = _apply(_COEF, x[p])
        r = chebyshev.chebroots(chebyshev.chebtrim(c, TAIL * np.max(np.abs(c))))
        r = np.clip(r.real[(np.abs(r.imag) <= 1e-12) & (np.abs(r.real) <= 1.0 + 1e-12)], -1.0, 1.0)
        if r.size:
            t = 0.5 * (near[p] + end[p]) + 0.5 * np.abs(end[p] - near[p]) * r
            return float(t[np.argmin(np.abs(t - near[0]))]), int(p)
    return None
