"""Closed-form references the benchmark checks the program against.

Nothing here reads ``ulamstab``: every best constant comes from the
paper's closed forms, evaluated on the numbers written into the problem
document, and the nearest-solution distances of the two unstable examples
come from the explicit solution families, fitted by an exact minimax LP.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

EPS = np.finfo(float).eps


def best_constant(family, doc):
    """Best Ulam constant B of a generated problem document."""
    params = doc.get("params", {})
    sigma = float(doc["interval"]["upper"])
    if family == "exeq01":
        return 0.5
    if family == "exeq03":
        return sigma * sigma / 6.0
    if family == "exeq04":
        return 1.0 - math.sin(sigma) / sigma
    if family == "exeq06":
        a, b = float(params["a"]), float(params["b"])
        return sigma ** (a + 1.0) / ((a + 2.0) * (a + b - 1.0))
    if family.startswith("const-"):
        # a0 x'' + a1 x' + a2 x with real nonzero roots: 1/|a0 l1 l2| = 1/|a2|
        return 1.0 / abs(float(doc["gamma"]))
    raise ValueError(f"no closed form for family {family!r}")


def digits(value, reference):
    """-log10 of the relative error, with the error floored at machine epsilon."""
    rel = abs(value - reference) / abs(reference)
    return -math.log10(max(rel, EPS))


def _minimax(target, basis):
    """min_c max_k |target_k - sum_j c_j basis_j(t_k)| as a HiGHS linear program."""
    cols = np.column_stack(basis)
    scale = np.max(np.abs(cols), axis=0)
    cols = cols / scale
    m, k = cols.shape
    ones = np.ones((m, 1))
    a_ub = np.vstack([np.hstack([-cols, -ones]), np.hstack([cols, -ones])])
    b_ub = np.concatenate([-target, target])
    cost = np.zeros(k + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * k + [(0.0, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"minimax LP failed: {res.message}")
    return float(res.x[-1])


# Truncations used by the instability probe on (tau, inf), and the grid the
# reference fit is taken on: uniform, fine against the unit-frequency
# oscillation of exeq05's family, and including the truncation point itself.
TRUNCATIONS = (10.0, 100.0, 1000.0)
GRID_POINTS = 20001


def instability_distances(family, epsilon=0.1):
    """Minimax distance from the witness to the solution family, per truncation.

    exeq02, x'' + (2/t) x' = -1 on (1, inf): family {1, 1/t}, particular
    solution -t^2/6, witness (eps - 1) t^2/6.  exeq05, x'' + (2/t) x' + x = 0
    on (0, inf): family {sin t/t, cos t/t}, witness
    eps/(8t) (cos t + 2t sin t - 2t^2 cos t).
    """
    out = []
    for T in TRUNCATIONS:
        if family == "exeq02":
            t = np.linspace(1.0, T, GRID_POINTS)[1:]
            target = (epsilon - 1.0) * t**2 / 6.0 - (-(t**2) / 6.0)
            basis = (np.ones_like(t), 1.0 / t)
        elif family == "exeq05":
            t = np.linspace(0.0, T, GRID_POINTS)[1:]
            target = epsilon / (8.0 * t) * (np.cos(t) + 2.0 * t * np.sin(t) - 2.0 * t**2 * np.cos(t))
            basis = (np.sin(t) / t, np.cos(t) / t)
        else:
            raise ValueError(f"no solution family for {family!r}")
        out.append(_minimax(target, basis))
    return out
