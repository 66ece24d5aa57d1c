"""Reference exchange for `dynamics._exchange`, in `fractions.Fraction` arithmetic.

The program levels a reference on integers over a power of two and reads
each exact coefficient as a correctly rounded double and the double of its
remainder.  This module runs the same Stiefel exchange with every exact
quantity a `Fraction`: the reference's rows, lam, h and the Cramer
coefficients.  Both compute the same rationals and round them alike, so a
fit through either exchange is the same `dynamics._Fit`, bit for bit.
"""

from fractions import Fraction

import numpy as np

from ulamstab.dynamics import _EXCHANGE_STEPS, _GAP, _Fit, _det, _split


def level(W, y, ref):
    """(lam, h, rows) of the reference in rational arithmetic, or None when a lam is 0."""
    rows = [[Fraction(v) for v in W[i].tolist()] for i in ref]
    lam = [(-1) ** k * _det(rows[:k] + rows[k + 1 :]) for k in range(len(ref))]
    if not all(lam):
        return None
    h = sum(lk * Fraction(float(y[i])) for lk, i in zip(lam, ref)) / sum(abs(lk) for lk in lam)
    return lam, h, rows


def levelled_coeffs(y, ref, lev):
    """Exact coefficients with residual sign(lam) h on the reference (Cramer)."""
    lam, h, rows = lev
    sub = rows[1:]
    rhs = [Fraction(float(y[i])) - (h if lk > 0 else -h) for lk, i in zip(lam[1:], ref[1:])]
    d = _det(sub)
    return [_det([row[:k] + [v] + row[k + 1 :] for row, v in zip(sub, rhs)]) / d for k in range(len(sub))]


def residual(y, cols, coeffs):
    """y - sum_k c_k w_k in double-double arithmetic, each c_k a `Fraction`."""
    s = y
    err = 0.0
    for (w, w_hi, w_lo), c in zip(cols, coeffs):
        c_hi = float(c)
        c_lo = float(c - Fraction(c_hi))
        h, l = _split(c_hi)
        p = c_hi * w
        p_err = ((h * w_hi - p) + h * w_lo + l * w_hi) + l * w_lo
        t = s - p
        z = t - s
        err = err + ((s - (t - z)) - (p + z)) - p_err - c_lo * w
        s = t
    return s + err


def exchange(y, W, ref):
    """`dynamics._exchange` on `Fraction`s: a `_Fit`, or None for a singular reference or a stall."""
    ref = [int(i) for i in ref]
    if len(set(ref)) != W.shape[1] + 1:
        return None
    cols = [(w, *_split(w)) for w in W.T]
    lev = level(W, y, ref)
    if lev is None:
        return None
    for _ in range(_EXCHANGE_STEPS):
        coeffs = levelled_coeffs(y, ref, lev)
        res = np.abs(residual(y, cols, coeffs))
        j = int(np.argmax(res))
        h = abs(lev[1])
        if res[j] <= float(h) * (1.0 + _GAP):
            return _Fit(np.array([float(c) for c in coeffs]), float(res[j]), float(h), tuple(ref))
        best = None
        for k in range(len(ref)):
            swap = ref[:k] + [j] + ref[k + 1 :]
            new = level(W, y, swap)
            if new is not None and abs(new[1]) > h:
                best, h = (swap, new), abs(new[1])
        if best is None:
            return None
        ref, lev = best
    return None
