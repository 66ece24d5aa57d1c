"""Reference zoom and endpoint tails for `quad.sup_over`: numpy bookkeeping throughout.

This is the program's earlier `_zoom_lockstep`, `_richardson` and
`sup_over`, kept as they were.  The zoom holds every bracket's ends, end
values and best sample in numpy arrays and picks each bracket's best sample
with ``np.argmax``; the endpoint tests, the Richardson table and the tail
limits run on numpy arrays and scalars.  The program keeps that state in
Python floats and lists, and its results are these functions', bit for bit,
with the same calls of ``h``.
"""

import math

import numpy as np

from ulamstab.quad import _ZOOM_K, _ZOOM_REL, _ZOOM_STEPS, DIVERGENCE_THRESHOLD, SUP_SCAN, TAIL_K, SupResult, graded_grid


def zoom_lockstep(h, a, b, fa, fb):
    """Maxima of ``h`` on the brackets [a_i, b_i], refined together by a multi-point zoom.

    ``fa`` and ``fb`` are the values at the bracket ends.  Each step makes one
    ``h`` call on ``_ZOOM_K`` equispaced interior points of every bracket still
    active and keeps the two cells next to the bracket's best sample (one cell
    when that sample is an end), so a bracket shrinks by (K + 1)/2 per step.  A
    bracket stops when it is narrower than 1e-13 relative, when its samples
    agree to 1e-13 relative (flat to rounding), or after ``_ZOOM_STEPS`` steps.
    Non-finite values count as -inf.  A bracket's numbers depend on its own
    samples only, so it gets the same result alone as in a batch.  Returns the
    best sample of each bracket, ends included; a later sample replaces the
    best only when strictly higher, and within a step the lowest t wins a tie.
    """
    frac = np.arange(1, _ZOOM_K + 1) / (_ZOOM_K + 1)
    a, b = a.copy(), b.copy()
    fa, fb = (np.where(np.isfinite(v), v, -np.inf) for v in (fa, fb))
    best_t, best_v = np.where(fb > fa, b, a), np.maximum(fa, fb)
    active = np.arange(a.size)
    for _ in range(_ZOOM_STEPS):
        lo, hi = a[active], b[active]
        wide = ~(hi - lo < _ZOOM_REL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))))
        active, lo, hi = active[wide], lo[wide], hi[wide]
        if not active.size:
            break
        xs = np.empty((active.size, _ZOOM_K + 2))
        xs[:, 0], xs[:, -1] = lo, hi
        xs[:, 1:-1] = lo[:, None] + (hi - lo)[:, None] * frac
        with np.errstate(all="ignore"):
            vals = np.real(h(xs[:, 1:-1].ravel())).reshape(-1, _ZOOM_K)
        fs = np.column_stack([fa[active], np.where(np.isfinite(vals), vals, -np.inf), fb[active]])
        rows = np.arange(active.size)
        j = np.argmax(fs, axis=1)
        top, low = fs[rows, j], np.min(fs, axis=1)
        better = top > best_v[active]
        best_t[active[better]], best_v[active[better]] = xs[rows, j][better], top[better]
        # keep the cells on both sides of the best sample
        left, right = np.maximum(j - 1, 0), np.minimum(j + 1, _ZOOM_K + 1)
        a[active], b[active] = xs[rows, left], xs[rows, right]
        fa[active], fb[active] = fs[rows, left], fs[rows, right]
        # a bracket with a -inf sample is never flat
        with np.errstate(invalid="ignore"):
            flat = np.isfinite(low) & (top - low <= _ZOOM_REL * np.maximum(np.abs(top), np.abs(low)))
        active = active[~flat]
    return best_t, best_v


def richardson(values, ratio):
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


def sup_over(h, lo, hi):
    """The earlier `quad.sup_over`: its scan, endpoint tests, zoom and tail limits."""
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

    # the endpoint tests first: an unbounded endpoint needs no zoom
    tails = []  # (endpoint, points, values) of each approach sequence to extrapolate
    for (endpoint, pts), seq in zip(approach, seqs):
        if pts.size < 4:
            continue
        ok = np.isfinite(seq)
        pts, seq = pts[ok], seq[ok]
        if seq.size < 4:
            continue
        tail = seq[-TAIL_K:]
        incr = np.diff(tail)
        if tail.size >= TAIL_K and np.all(incr > 0):
            if tail[-1] >= DIVERGENCE_THRESHOLD:
                return SupResult(math.inf, endpoint, unbounded=True)
            # slow (power/log) divergence: increments along a geometric
            # approach keep their size instead of decaying with the gap
            noise = 1e-9 * (1.0 + np.abs(tail[-1]))
            if np.all(incr > noise) and np.all(incr[1:] >= 0.95 * incr[:-1]):
                return SupResult(math.inf, endpoint, unbounded=True)
        tails.append((endpoint, pts, seq))

    order = np.argsort(vals)[::-1]
    best_val = float(vals[order[0]])
    best_t = float(grid[order[0]])
    # local refinement around the top-5 scan maxima, all five in lockstep
    top = order[:5]
    ia, ib = np.maximum(top - 1, 0), np.minimum(top + 1, grid.size - 1)
    ia, ib = ia[ib > ia], ib[ib > ia]
    t_loc, v_loc = zoom_lockstep(h, grid[ia], grid[ib], vals[ia], vals[ib])
    for t, v in zip(t_loc.tolist(), v_loc.tolist()):
        if v > best_val:
            best_val, best_t = v, t

    for endpoint, pts, seq in tails:
        limit = richardson(list(seq[-6:]), ratio)
        if np.isfinite(limit) and limit > best_val:
            # never report below a sampled value
            best_val = max(limit, float(np.max(seq)))
            best_t = endpoint
        elif float(np.max(seq)) > best_val:
            best_val = float(np.max(seq))
            best_t = float(pts[int(np.argmax(seq))])
    return SupResult(best_val, best_t, unbounded=False)
