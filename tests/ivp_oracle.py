"""Test oracle for `dynamics.ivp_solution` and `riccati.solve_riccati`: step-by-step DOP853 integration.

The program solves the linear oscillator by Chebyshev panel collocation.
This module integrates the same initial value problem as a first-order
system with scipy's DOP853 at rtol 1e-12 and atol 1e-14, for the tests
that have no closed form to compare with.  The right-hand side reads the
coefficients through `expr_oracle.evaluate`, in Python complex arithmetic,
so the oracle shares no code with the compiled functions it checks.
"""

import numpy as np
from scipy.integrate import solve_ivp

from expr_oracle import evaluate
from ulamstab.exprlang import Expr

RTOL = 1e-12
ATOL = 1e-14


def dop853(problem, ivp, ts, forcing=None):
    """x at ``ts`` of the member with data ``ivp``, for one forcing.

    ``forcing`` is an expression, a callable of t, a constant, or None for
    the problem's forcing.  ``ts`` may lie on both sides of ``ivp.t0``,
    unsorted.
    """
    return dop853_state(problem, ivp, ts, forcing)[0]


def dop853_state(problem, ivp, ts, forcing=None):
    """x and x' at ``ts`` of the member with data ``ivp``, as for `dop853`."""
    a, b, c = problem.alpha, problem.beta, problem.gamma
    f = problem.forcing if forcing is None else forcing

    def rhs(t, y):
        x, xp = complex(y[0], y[1]), complex(y[2], y[3])
        av, bv, cv = (evaluate(e, t, problem.params) for e in (a, b, c))
        if isinstance(f, Expr):
            g = evaluate(f, t, problem.params)
        else:
            g = complex(f(t)) if callable(f) else complex(f)
        xpp = (g - bv * xp - cv * x) / av
        return [y[2], y[3], xpp.real, xpp.imag]

    t0 = float(ivp.t0)
    x0, x0p = complex(ivp.x0), complex(ivp.x0p)
    ts = np.asarray(ts, float)
    out = np.array([np.full(ts.shape, x0), np.full(ts.shape, x0p)], dtype=complex)
    for mask, step in ((ts < t0, -1), (ts > t0, 1)):
        if not np.any(mask):
            continue
        pts, where = np.unique(ts[mask], return_inverse=True)
        t_eval = pts[::step]
        y0 = [x0.real, x0.imag, x0p.real, x0p.imag]
        sol = solve_ivp(rhs, (t0, float(t_eval[-1])), y0, method="DOP853", t_eval=t_eval, rtol=RTOL, atol=ATOL)
        assert sol.success, sol.message
        out[:, mask] = (sol.y[0::2] + 1j * sol.y[1::2])[:, ::step][:, where]
    return out
