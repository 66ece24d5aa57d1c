"""Reference kernel that tracks how fast the machine runs right now.

On a shared 2-core machine the speed of one core drifts by ±25% over tens
of seconds, so two identical runs can differ that much in wall time.  The
benchmark runs a fixed slice of work before and after each command and
rescales the command's time by how long those slices took, which removes
the drift the program and the slices share.  A slice does what the program mostly does,
with numpy and scipy alone: ufuncs on GK15-sized arrays from a Python
loop, Legendre fits, a DOP853 solve and a Nelder-Mead search.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.polynomial import legendre
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

# typical duration of one slice on the machine the reference figures come from
REFERENCE_SLICE_S = 0.03
# slices run around each command for this share of the command's time,
# half before (sized by its previous run) and half after
SHARE = 0.2

_X = np.linspace(-1.0, 1.0, 15)
_A = np.array([[0.0, 1.0], [-1.0, -0.1]])


def _rhs(t, y):
    return _A @ y


def _sup_misfit(c):
    return float(np.max(np.abs(np.sin(_X) - c[0] - c[1] * _X)))


def _slice():
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(600):
        acc += float(np.sum(np.exp(np.sin(_X * (i % 97)))))
    for i in range(60):
        acc += float(legendre.legval(0.3, legendre.legint(legendre.legfit(_X, np.cos(_X * i), 12))))
    for _ in range(2):
        acc += float(solve_ivp(_rhs, (0.0, 12.0), [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12).y[0, -1])
        acc += minimize(_sup_misfit, [0.1, 0.9], method="Nelder-Mead", options={"maxiter": 200}).fun
    return time.perf_counter() - t0


class Speedometer:
    """Slice timings since the last `reset`."""

    def __init__(self):
        self.slices = []

    def reset(self):
        self.slices = []

    def sample(self, seconds):
        """Run whole slices, at least one, until ``seconds`` have been spent."""
        spent = 0.0
        while True:
            self.slices.append(_slice())
            spent += self.slices[-1]
            if spent >= seconds:
                return

    def scale(self):
        """Factor that turns a time measured meanwhile into reference seconds."""
        return REFERENCE_SLICE_S / statistics.fmean(self.slices)
