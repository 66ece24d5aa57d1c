"""Solution representation and empirical Ulam experiments.

The closed-form solution of the initial value problem is a triple-nested
integral; with the stability engine's two cached exponent antiderivatives
it collapses to an algebraic combination of three more cached cumulatives.
The forcing-free one, H1 = int exp(-int(2 rho + beta/alpha)), is the
stability engine's own `H1` cache, which its divergence certificates read
too; the other two depend on the forcing.  Every cache is anchored at the
stability engine's anchor and reads exactly 0 there, so a member takes its
data at the anchor: with x = x0 and x' - rho x = c0 there it is
(x0 + c0 H1 + H2) e^R, H2 the forcing's second cache.  The extremal family
coefficients are the stability engine's (`StabilityEngine.extremal_member`).

The two forcing caches are built adaptively only for the unit forcing
g = 1, and for real data with alpha > 0 its F is the stability engine's
A4.  Their integrands are forcing-free weights times g and times the first
cache F: e^P/alpha and e^{-(R+P)}, stored once at the unit caches' nodes.
Every other forcing is replayed on those panels (`quad.replay`) from the
weights times its own g and F there, and takes the adaptive build only when
g is not finite at a node or a panel ends singular; a finite g whose
products overflow raises ValueError.

On top of the representation sit the experiments: reproduce the minimal
constant with the extremal constant perturbation, dominate it over
randomized smooth perturbations, and trace unbounded nearest-solution
growth for instability witnesses.  The solution is linear in the forcing,
so the experiments measure the solution of the perturbation alone: the
extremal distance is |sigma u - w| with u the unit forcing's member and
sigma the sign of alpha, and a trial fits its own g's member; only
`nearest_solution` subtracts the solution for the problem's forcing.  The
fit is positively homogeneous, so both run at unit scale and return no
epsilon: `cli.empirical` scales the reported distances, coefficients and
profile, never a ratio.

The instability probe and the tests take their solutions from
`ivp_solution`, which reads none of the caches: Chebyshev panel
collocation of the equation (`collocation`).

The nearest solution is an exact discrete minimax fit,
min over c of max over the grid of |target - c1 w1 - c2 w2|.  Real data
runs Stiefel's exchange on 3-point references, levelled in exact integer
arithmetic at a power-of-two scale (the reference's doubles as integers over
one power of two), with the residual over the grid in double-double; it
stops on the de la Vallee Poussin certificate, so the distance is the grid
optimum to within 1e-12 relative.  Complex data, or a singular reference or
a stall of the exchange, runs a log-barrier fit until the distance is within
1e-10 relative of Lawson's lower bound at its dual weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import collocation, exprlang, quad
from .model import Interval, probe_grid
from .stability import StabilityEngine

__all__ = [
    "IvpData",
    "SolutionFamilyParams",
    "CoverageExceeded",
    "SolutionEngine",
    "ivp_solution",
    "nearest_solution",
    "extremal_experiment",
    "extremal_profile",
    "random_perturbation_test",
    "instability_probe",
    "instability_evidence",
]

PROBE_EPSILON = 0.1  # residual size of the witness family an instability probe uses


class CoverageExceeded(quad.CoverageError):
    """No experiment-grid point inside the range the caches can serve."""


@dataclass(frozen=True)
class IvpData:
    t0: float
    x0: complex = 0.0
    x0p: complex = 0.0


@dataclass(frozen=True)
class SolutionFamilyParams:
    d1: complex = 0.0
    d2: complex = 0.0


def _unit(s):
    """The unit forcing g = 1."""
    return np.ones_like(np.asarray(s, float))


class SolutionEngine:
    """Evaluates solutions of the oscillator through a `StabilityEngine`'s caches."""

    def __init__(self, engine: StabilityEngine):
        self.se = engine
        self.problem = engine.problem
        self._forcing = {}
        self._h1c = None
        self._weights = None  # the unit caches' nodes and forcing-free weights there
        self._grid = None  # the experiment grid, read-only
        self._extremal = {}  # case -> (sigma, unit family coefficients) of its extremal pair
        # template panels the replays bisected, and replays that took the adaptive build
        self.replay_counts = {"bisected_panels": 0, "fallbacks": 0}

    @property
    def H1c(self):
        """The stability engine's `H1`: cumulative of exp(-int(2 rho + beta/alpha))."""
        if self._h1c is None:
            self._h1c = self.se.H1
        return self._h1c

    def _fc_weight(self, s):
        """e^P/alpha, the forcing's weight in the integrand of F.

        Real e^P over an alpha with no imaginary part divides in real
        arithmetic, as A4's e^P/|alpha| does: numpy's complex quotient of
        real operands is a (1/b), not a/b.
        """
        e, alpha = np.exp(self.se.Pc.value(s)), np.asarray(self.se._alpha(s))
        if not (np.iscomplexobj(e) or np.any(alpha.imag)):
            alpha = alpha.real
        return e / alpha

    def _h2_weight(self, s):
        """e^{-(R+P)}, the weight of F in the integrand of its partner."""
        return np.exp(-(self.se.Rc.value(s) + self.se.Pc.value(s)))

    def forcing_caches(self, g, key=None):
        """Cumulatives F = int e^P g/alpha and its partner int F e^{-(R+P)}.

        ``key`` "unit" names g = 1, whose F is the stability engine's A4
        where the adaptive build would give exactly that (`_a4_as_fc`) and
        is built adaptively otherwise, as its partner always is; the
        weights e^P/alpha and e^{-(R+P)} are then stored at their nodes.
        Every other forcing is replayed on the unit caches' panels
        (`quad.replay`) from weight times g at those nodes, and takes the
        adaptive build only when g is not finite at a node or a replayed
        panel comes back singular; a finite g whose weighted values are not
        finite overflows, and raises ValueError.  ``replay_counts``
        counts the panels the replays bisect and the forcings that fall back.  ``key``
        enables reuse across calls with the same forcing.
        """
        if key in self._forcing:
            return self._forcing[key]
        if key == "unit":
            fc = self._a4_as_fc()
            caches = self._build(g) if fc is None else self._with_partner(fc)
            nodes = [c.nodes() for c in caches]
            self._weights = nodes[0], self._fc_weight(nodes[0]), nodes[1], self._h2_weight(nodes[1])
        else:
            caches = self._replay(g)
            if caches is None:
                self.replay_counts["fallbacks"] += 1
                caches = self._build(g)
        if key is not None:
            self._forcing[key] = caches
        return caches

    def _build(self, g):
        """The adaptive forcing caches of ``g``.

        The unit forcing's F is this build's only where `_a4_as_fc` gives
        none; the partner is always built.
        """
        lo, hi = self.se._overlap(self.se.Rc, self.se.Pc)
        return self._with_partner(self.se.cumulative(lambda s: self._fc_weight(s) * np.asarray(g(s)), lo, hi, tail=True))

    def _with_partner(self, fc):
        """``fc`` and its adaptive partner int F e^{-(R+P)}."""
        lo, hi = self.se._overlap(fc, self.H1c)
        return fc, self.se.cumulative(lambda s: fc.value(s) * self._h2_weight(s), lo, hi, tail=True)

    def _a4_as_fc(self):
        """The unit forcing's F as the stability engine's A4, or None.

        For g = 1, F's integrand e^P/alpha is A4's e^P/|alpha| bit for bit
        where e^P is real and alpha is real and positive.  When Pc is real,
        alpha is real and positive at A4's nodes and F's range is A4's, the
        adaptive build of F therefore bisects as A4's did: F is A4 itself.
        """
        se = self.se
        if np.iscomplexobj(se.Pc.panel_vals) or se._overlap(se.Rc, se.Pc) != se._overlap(se.Pc):
            return None
        a4 = se.A4
        alpha = np.asarray(se._alpha(a4.nodes()))
        return a4 if not np.any(alpha.imag) and np.all(alpha.real > 0) else None

    def _replay(self, g):
        """The forcing caches of ``g`` on the unit caches' panels, or None."""
        unit = self.forcing_caches(_unit, key="unit")
        x_fc, w_fc, x_h2, w_h2 = self._weights
        tol = self.se.config.cum_tol
        with np.errstate(all="ignore"):
            gx = np.asarray(g(x_fc))
            y = w_fc * gx
        # the weights are finite at the nodes: where g is too, a value that
        # is not is an overflow, which an adaptive build would only repeat
        if not np.all(np.isfinite(y)) and np.all(np.isfinite(gx)):
            raise ValueError("the forcing's first cache overflows")
        replayed = quad.replay(unit[0], y, lambda s: self._fc_weight(s) * np.asarray(g(s)), tol, True)
        if replayed is None:
            return None
        fc, split_fc = replayed
        with np.errstate(all="ignore"):
            y = fc.value(x_h2) * w_h2
        if not np.all(np.isfinite(y)):
            raise ValueError("the forcing's second cache overflows")
        replayed = quad.replay(unit[1], y, lambda s: fc.value(s) * self._h2_weight(s), tol, True)
        if replayed is None:
            return None
        h2, split_h2 = replayed
        self.replay_counts["bisected_panels"] += split_fc + split_h2
        return fc, h2

    def _member(self, x0, c0, forced=None):
        """Callable x(t) with x = x0 and x' - rho x = c0 at the anchor.

        Every cache reads 0 at the anchor, so x = (x0 + c0 H1 + H2) e^R,
        with no H2 term without ``forced``; else ``forced`` is the pair that
        `forcing_caches` returns for the forcing.  A point outside the
        coverage of a cache it reads raises `quad.CoverageError`.
        """
        # (coefficient, read of a cache) of each term; a term with a zero
        # coefficient adds nothing and is not evaluated
        terms = [(c0, self.H1c.value)] if c0 != 0 else []
        if forced is not None:
            terms.append((1.0, forced[1].value))

        def x(t):
            t = np.asarray(t, float)
            scalar = t.ndim == 0
            tt = np.atleast_1d(t)
            out = x0
            for coef, read in terms:
                out = out + coef * read(tt)
            out = out * np.exp(self.se.Rc.value(tt))
            return out[0] if scalar else out

        return x

    def representation(self, x0, x0p, forcing=None, forcing_key=None):
        """Callable x(t) with x = x0 and x' = x0p at the anchor, per the nested-integral formula."""
        g = forcing if forcing is not None else self.problem.fn("forcing")
        forced = self.forcing_caches(g, key=forcing_key)
        rho0 = complex(np.atleast_1d(self.se.rho_fn(np.array([self.se.anchor])))[0])
        x0 = complex(x0)
        return self._member(x0, complex(x0p) - rho0 * x0, forced)

    def homogeneous(self, params: SolutionFamilyParams):
        """Callable w(t) = (d2 + d1 int e^{-int(2rho+beta/alpha)}) e^{int rho}, integrals from the anchor."""
        return self._member(complex(params.d2), complex(params.d1))

    def experiment_grid(self):
        """Graded grid restricted to moderate exponential amplification.

        Both a perturbed solution and its nearest true solution scale like
        e^{R(t)}, R = int rho from the anchor; where that factor is
        astronomically large their difference cannot be formed in floating
        point, so the experiments measure on the region with |R(t)| <= 8.
        For every corpus problem the sup of the distance kernel is attained
        there.  The grid is built once and comes back read-only.
        """
        if self._grid is None:
            # every forcing's caches have the unit forcing's panels
            lo, hi = self.se._overlap(self.se.Rc, self.se.Pc, self.H1c, *self.forcing_caches(_unit, key="unit"))
            grid = quad.graded_grid(lo, hi, 1025)
            keep = np.abs(self.se.Rc.value(grid).real) <= 8.0
            if not np.any(keep):
                raise CoverageExceeded("no grid point within the amplification cap")
            grid = grid[keep]
            grid.flags.writeable = False
            self._grid = grid
        return self._grid


# ---------------------------------------------------------------------------
# module-level operations


def ivp_solution(problem, ivps, ts, forcings):
    """Independent oracle: Chebyshev panel collocation of the equation.

    ``ivps`` is a sequence of k `IvpData` with a common ``t0`` and
    ``forcings`` a matching sequence.  A forcing is a callable of t, None
    for the problem's forcing, or a constant (0 for a homogeneous member,
    which then costs no forcing call).  Both sides of ``t0`` are cut into
    panels together, each out to its farthest point of ``ts``, in one
    `collocation.panels` call; the members are carried across each side's
    panels in order and read at ``ts`` by barycentric interpolation
    (`collocation.evaluate`).  Returns x at ``ts``, of shape
    ``(k,) + ts.shape``; a point at ``t0`` keeps the initial value exactly.
    A side that `collocation.panels` stops, at a coefficient or forcing
    that is not finite at a node or at a solution that no panel resolves,
    raises ValueError with the message naming t, the side below ``t0``
    first.
    """
    if len(forcings) != len(ivps):
        raise ValueError("one forcing per initial value problem")
    t0 = float(ivps[0].t0)
    if any(float(d.t0) != t0 for d in ivps):
        raise ValueError("stacked initial value problems need a common t0")
    k = len(ivps)
    # one zero-data forced solution per distinct forcing other than 0; a
    # member's `col` entry is the index of its local solution, None for none
    sources, col = {}, []
    for f in forcings:
        f = problem.fn("forcing") if f is None else f if callable(f) else complex(f)
        if not callable(f) and f == 0:
            col.append(None)
            continue
        key = ("fn", id(f)) if callable(f) else ("const", f)
        col.append(2 + sources.setdefault(key, (len(sources), f))[0])
    fns = [problem.fn(which) for which in ("alpha", "beta", "gamma")] + [f for _, f in sources.values()]
    x0 = [complex(d.x0) for d in ivps]
    x0p = [complex(d.x0p) for d in ivps]
    ts = np.asarray(ts, float)
    flat = ts.ravel()
    out = np.empty((k, flat.size), dtype=complex)
    out[:, flat == t0] = np.array(x0)[:, None]
    masks = [mask for mask in (flat < t0, flat > t0) if np.any(mask)]
    points = [np.unique(flat[mask], return_inverse=True) for mask in masks]
    fars = [float(pts[0] if pts[0] < t0 else pts[-1]) for pts, _ in points]
    sides = collocation.panels(fns, t0, *fars)
    for _, why in sides:
        if why is not None:
            raise ValueError(why)
    for mask, (pts, where), (side, _) in zip(masks, points, sides):
        out[:, mask] = collocation.evaluate(side, x0, x0p, col, pts)[:, where]
    return out.reshape((k,) + ts.shape)


class _Fit(NamedTuple):
    """A certified minimax fit: lower <= grid optimum <= distance."""

    coeffs: np.ndarray  # (c1, c2), rounded to double
    distance: float  # max_t |target - c1 w1 - c2 w2| at the fit's exact coefficients
    lower: float  # levelled |h| of the exchange, or Lawson's bound at the barrier fit's dual weights
    reference: tuple  # the exchange's levelled reference points; () from the barrier fit


_EXCHANGE_STEPS = 50  # each step raises |h| strictly; the probe and trial data take 1-4
_GAP = 1e-12  # certificate of the exchange: distance <= |h| (1 + _GAP)
_BARRIER_STEPS = 200  # Newton steps of the barrier fit; random complex data takes 55-70
_BARRIER_GAP = 1e-10  # certificate of the barrier fit: max|r| <= lower (1 + _BARRIER_GAP)
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant for doubles


def _fit(target, basis):
    """Exact discrete minimax fit of ``target`` by the two ``basis`` columns.

    Real data runs Stiefel's exchange (`_exchange`), complex data the barrier
    fit (`_barrier_fit`); a stalled exchange restarts from that fit's m + 1
    heaviest dual points and, stalled again, returns the fit.  A value that
    is not finite raises ValueError.
    """
    y = np.asarray(target)
    W = np.column_stack(basis)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(W))):
        raise ValueError("the fit's target or basis has a value that is not finite")
    if not np.any(W):
        top = float(np.max(np.abs(y)))
        return _Fit(np.zeros(W.shape[1]), top, top, ())
    real = not (np.any(y.imag) or np.any(W.imag))
    if real:
        y, W = y.real, W.real
        if max(np.max(np.abs(y)), np.max(np.abs(W))) >= 2.0**960:
            # the target and each column with an entry at 2^960 or more over the
            # power of two that brings it below: exact, and clear of overflow in
            # Dekker's split and the rank test
            ey = max(math.frexp(float(np.max(np.abs(y))))[1] - 960, 0)
            ew = np.maximum(np.frexp(np.max(np.abs(W), axis=0))[1] - 960, 0)
            fit = _fit(np.ldexp(y, -ey), tuple(np.ldexp(W, -ew).T))
            return fit._replace(coeffs=np.ldexp(fit.coeffs, ey - ew), distance=math.ldexp(fit.distance, ey), lower=math.ldexp(fit.lower, ey))
        a = np.linalg.lstsq(W, y, rcond=None)[0]
        fit = _exchange(y, W, np.argsort(np.abs(y - W @ a))[-3:])
        if fit is not None:
            return fit
    cols, a, lower, dual = _barrier_fit(y, W)
    c = np.zeros(W.shape[1], np.result_type(y, W))
    c[cols] = a.real if real else a
    fit = _exchange(y, W[:, cols], np.argsort(dual)[-(len(cols) + 1) :]) if real else None
    if fit is not None:
        c[cols] = fit.coeffs
        return fit._replace(coeffs=c)
    distance = float(np.max(np.abs(y - W @ c)))
    return _Fit(c, distance, min(lower, distance), ())


def _barrier_fit(y, W):
    """min over c of max_k |y_k - (W c)_k| by a log barrier, for W != 0.

    Keeps the columns pivoted QR keeps (the largest 2-norm first, the first
    on a tie; the other if more than rounding from its span).  On their
    orthonormal basis Q, with y and W over their largest moduli, it solves
    the second-order cone program min h subject to |y_k - (Q a)_k| <= h
    (Lobo, Vandenberghe, Boyd and Lebret, Linear Algebra Appl. 284, 1998):
    damped Newton steps in (Re a, h, Im a) on t h - sum_k log psi_k, with
    psi_k = h^2 - |r_k|^2 and t 30-fold once centred.  Weights w_k >= 0 of
    sum 1 give Lawson's lower bound sqrt(min_a sum_k w_k |r_k|^2), and near
    the centre a is the fit for w_k ~ 1/psi_k, here less those below 1e-6 of
    the largest.  Stops at max|r| within _BARRIER_GAP of the bound or 1e-13
    of max|y| (an exact fit), or when rounding leaves a cone.  Returns the
    kept columns, their coefficients, the bound and its weights.
    """
    n = y.size
    sy, sw = float(np.max(np.abs(y))) or 1.0, float(np.max(np.abs(W)))
    b, W = y.real / sy + 1j * (y.imag / sy), W / sw
    cols = np.argsort(-np.linalg.norm(W, axis=0), kind="stable")
    Q, R = np.linalg.qr(W[:, cols])
    m = int(np.sum(np.abs(np.diag(R)) > abs(R[0, 0]) * n * np.finfo(float).eps))
    Q, R, cols = Q[:, :m], R[:m, :m], cols[:m]
    a, h, t, lower, w = Q.conj().T @ b, None, None, 0.0, np.full(n, 1.0 / n)
    for _ in range(_BARRIER_STEPS):
        r = b - Q @ a
        mod = np.abs(r)
        upper = float(np.max(mod))
        h = h or 2.0 * upper
        if upper <= 1e-13 or not upper < h:
            break
        psi = (h - mod) * (h + mod)
        t = t or 2.0 * h * float(np.sum(1.0 / psi))  # the first t centres h
        wk = np.where(psi <= 1e6 * np.min(psi), 1.0 / psi, 0.0)
        root = np.sqrt(wk / np.sum(wk))
        aw = np.linalg.lstsq(root[:, None] * Q, root * b, rcond=None)[0]
        bound = float(np.linalg.norm(root * (b - Q @ aw)))
        if bound > lower:
            lower, w = bound, root**2
        if upper - lower <= _BARRIER_GAP * upper:
            break
        Pu = Q.conj() * np.divide(r, mod, out=np.ones(n, complex), where=mod > 0)[:, None]
        # the Hessian of -log psi in (h, r) is the Gram matrix of (h, -r),
        # (|r|, -h u) and sqrt(psi) (0, i u) times sqrt(2)/psi, u = r/|r|: it
        # stays positive where a sum of signed terms cancels, and no row
        # couples Im a to the rest for real data, whose Im a stays 0
        rows = np.concatenate(
            [
                np.column_stack([mod[:, None] * Pu.real, np.full(n, h), mod[:, None] * Pu.imag]),
                np.column_stack([h * Pu.real, mod, h * Pu.imag]),
                np.sqrt(psi)[:, None] * np.column_stack([-Pu.imag, np.zeros(n), Pu.real]),
            ]
        ) * np.tile(math.sqrt(2.0) / psi, 3)[:, None]
        grad = -math.sqrt(2.0) * np.sum(rows[:n], axis=0)  # the first rows are grad psi / (sqrt(2) psi)
        grad[m] += t
        step = np.linalg.solve(rows.T @ rows, -grad)
        dec = float(-grad @ step)  # the squared Newton decrement
        if dec < 1e-2:
            t *= 30.0
            continue
        # inside every cone by self-concordance, but for rounding
        alpha = 1.0 if dec < 0.25 else 1.0 / (1.0 + math.sqrt(dec))
        a, h = a + alpha * (step[:m] + 1j * step[m + 1 :]), h + alpha * step[m]
    return cols, np.linalg.solve(R, a) / sw * sy, lower * sy, w


def _det(rows):
    """Determinant of a 1x1 or 2x2 matrix given as lists."""
    if len(rows) == 1:
        return rows[0][0]
    (a, b), (c, d) = rows
    return a * d - b * c


def _integers(values):
    """Integers n_k and an exponent s with values[k] = n_k / 2^s exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    s = max(d.bit_length() for _, d in ratios) - 1
    return [n << (s + 1 - d.bit_length()) for n, d in ratios], s


def _level(W, y, ref):
    """The levelled reference in exact integer arithmetic.

    The rows [W[i] | y[i]] of the reference are integers over one power of
    two.  lam spans the null space of W[ref]^T; the minimax of the reference
    alone is |h| with h = lam.y / sum|lam|, attained with the residuals
    sign(lam) h.  Returns (lam, (num, den), rows) with h = num / den and
    den > 0, or None when a lam is 0 (singular).
    """
    m = W.shape[1]
    ints, s = _integers([v for i in ref for v in (*W[i].tolist(), float(y[i]))])
    rows = [ints[k : k + m + 1] for k in range(0, len(ints), m + 1)]
    lam = [(-1) ** k * _det([row[:m] for row in rows[:k] + rows[k + 1 :]]) for k in range(len(ref))]
    if not all(lam):
        return None
    num = sum(lk * row[m] for lk, row in zip(lam, rows))
    return lam, (num, sum(abs(lk) for lk in lam) << s), rows


def _levelled_coeffs(level):
    """Exact coefficients with residual sign(lam) h on the reference (Cramer).

    Each is a pair (num, den) of integers with den > 0.
    """
    lam, (num, _), rows = level
    norm = sum(abs(lk) for lk in lam)
    # over the den of h, which is norm 2^s, row i's right-hand side
    # y_i - sign(lam_i) h is y_i norm - sign(lam_i) num; rows 1.. have
    # determinant +-lam[0], which is not 0, and 2^s cancels in the quotient
    sub = [row[:-1] for row in rows[1:]]
    rhs = [row[-1] * norm - (num if lk > 0 else -num) for lk, row in zip(lam[1:], rows[1:])]
    d = _det(sub) * norm
    if d < 0:
        d, rhs = -d, [-v for v in rhs]
    return [(_det([row[:k] + [v] + row[k + 1 :] for row, v in zip(sub, rhs)]), d) for k in range(len(sub))]


def _split(x):
    """Dekker's split of doubles into two halves of 26 bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _residual(y, cols, coeffs):
    """y - sum_k c_k w_k in double-double arithmetic, rounded to double.

    ``cols`` holds (w, *_split(w)) per column; each exact coefficient
    (num, den) enters as its double and the double of its remainder, both
    correctly rounded by the integer division.
    """
    s = y
    err = 0.0
    for (w, w_hi, w_lo), (num, den) in zip(cols, coeffs):
        c_hi = num / den
        hi_num, hi_den = c_hi.as_integer_ratio()
        c_lo = (num * hi_den - hi_num * den) / (den * hi_den)
        h, l = _split(c_hi)
        p = c_hi * w
        p_err = ((h * w_hi - p) + h * w_lo + l * w_hi) + l * w_lo  # p + p_err = c_hi w
        t = s - p
        z = t - s
        err = err + ((s - (t - z)) - (p + z)) - p_err - c_lo * w  # s - p = t + first term
        s = t
    return s + err


def _exchange(y, W, ref):
    """Stiefel's exchange for min_c max |y - W c| from the reference ``ref``.

    Each step levels the m + 1 reference points exactly, evaluates the
    residual on the whole grid and, short of the de la Vallee Poussin
    certificate max|res| <= |h| (1 + _GAP), swaps the point of largest
    residual into the reference, keeping the swap with the largest |h|.
    Returns a `_Fit`, or None for a singular reference or a stall.
    """
    ref = [int(i) for i in ref]
    if len(set(ref)) != W.shape[1] + 1:
        return None
    cols = [(w, *_split(w)) for w in W.T]
    level = _level(W, y, ref)
    if level is None:
        return None
    for _ in range(_EXCHANGE_STEPS):
        coeffs = _levelled_coeffs(level)
        res = np.abs(_residual(y, cols, coeffs))
        j = int(np.argmax(res))
        # |h| as a pair of integers; levels compare by cross-multiplying
        num, den = abs(level[1][0]), level[1][1]
        h = num / den
        if res[j] <= h * (1.0 + _GAP):
            return _Fit(np.array([c / d for c, d in coeffs]), float(res[j]), h, tuple(ref))
        best = None
        for k in range(len(ref)):
            swap = ref[:k] + [j] + ref[k + 1 :]
            lev = _level(W, y, swap)
            if lev is not None and abs(lev[1][0]) * den > num * lev[1][1]:
                best, num, den = (swap, lev), abs(lev[1][0]), lev[1][1]
        if best is None:
            return None
        ref, level = best
    return None


def _fit_basis(eng, grid):
    """The basis (w1, w2) of the solution family on ``grid``."""
    w1 = eng.homogeneous(SolutionFamilyParams(1.0, 0.0))(grid)
    w2 = eng.homogeneous(SolutionFamilyParams(0.0, 1.0))(grid)
    return w1, w2


def nearest_solution(xi, engine: SolutionEngine):
    """Best (d1, d2) member of the solution family approximating xi in sup norm."""
    grid = engine.experiment_grid()
    xi_arr = np.asarray(xi(grid), dtype=complex)
    p_arr = engine.representation(0.0, 0.0, forcing_key="problem")(grid)
    fit = _fit(xi_arr - p_arr, _fit_basis(engine, grid))
    return {
        "params": SolutionFamilyParams(complex(fit.coeffs[0]), complex(fit.coeffs[1])),
        "sup_distance": fit.distance,
    }


def _extremal_setup(eng, case):
    """Unit family coefficients, experiment grid and |sigma u - w| of the extremal pair.

    Complex data takes sigma = 1 and the nearest member to u on the grid.
    The coefficients and the grid are computed once per engine.  The
    members are built anew: they hold the engine, which a stored member
    would keep alive in a reference cycle.
    """
    # the solution is linear in the forcing: the solution for the problem's
    # forcing plus sigma, less the one for the problem's forcing, is sigma
    # times the unit forcing's member
    u = eng.representation(0.0, 0.0, forcing=_unit, forcing_key="unit")
    grid = eng.experiment_grid()
    if case not in eng._extremal:
        se = eng.se
        if se.is_real:
            sigma = 1.0 if se._alpha(np.array([se.anchor]))[0].real > 0 else -1.0
            params = SolutionFamilyParams(*se.extremal_member(case))
        else:  # the proof's construction reads real-data kernels: the nearest member instead
            sigma = 1.0
            params = SolutionFamilyParams(*map(complex, _fit(u(grid), _fit_basis(eng, grid)).coeffs))
        eng._extremal[case] = sigma, params
    sigma, params = eng._extremal[case]
    w = eng.homogeneous(params)
    return params, grid, lambda t: np.abs(sigma * u(t) - w(t))


def extremal_experiment(engine: SolutionEngine, case):
    """Reproduce the minimal constant with the constant perturbation g = sigma, at unit scale.

    Returns the record ``perturbation``, ``ratio`` (the sup distance, since
    sup |g| = 1) and ``detail``, which holds the member's family
    coefficients as ``params``.
    """
    params, grid, distance = _extremal_setup(engine, case)
    res = quad.sup_over(distance, float(grid[0]), float(grid[-1]))
    detail = {"params": [params.d1, params.d2], "attained_near": str(res.attained_near)}
    if not engine.se.is_real:
        detail["member"] = "nearest-solution fit on the experiment grid"
    return {"perturbation": "extremal-constant", "ratio": float(res.sup_value), "detail": detail}


def extremal_profile(engine: SolutionEngine, case):
    """(t, |xi - x|) arrays over the experiment grid for the extremal pair, at unit scale."""
    _, grid, distance = _extremal_setup(engine, case)
    return grid, distance(grid)


def _random_smooth(rng, grid):
    """Smooth random perturbation with certified sup |g| = 1 on the grid.

    A constant component plus a few random-frequency cosines; the constant
    weight lets some draws approach the extremal shape, so the observed max
    ratio is a nondegenerate fraction of the minimal constant.
    """
    lo, hi = float(grid[0]), float(grid[-1])
    span = hi - lo if hi > lo else 1.0
    c0 = 2.0 * rng.normal()
    amps = rng.normal(size=3)
    freqs = rng.uniform(0.5, 6.0, size=3)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=3)

    def raw(t):
        u = (np.asarray(t, float) - lo) / span
        out = np.full_like(u, c0, dtype=float)
        for a, f, ph in zip(amps, freqs, phases):
            out = out + a * np.cos(math.pi * f * u + ph)
        return out

    sup = float(np.max(np.abs(raw(grid))))
    if sup == 0.0:
        return lambda t: np.zeros_like(np.asarray(t, float)), "zero"
    desc = f"fourier(c0={c0:.3f}, freqs={np.round(freqs, 3).tolist()})"
    return lambda t: raw(t) / sup, desc


def random_perturbation_test(engine: SolutionEngine, trials, seed):
    """Per-trial records of the nearest-solution ratio of randomized smooth perturbations.

    A trial's g has sup 1 on the grid, so its ratio is its fit distance.
    The records are not judged here: `cli.empirical` compares them with the
    constant.
    """
    grid = engine.experiment_grid()
    basis = _fit_basis(engine, grid)
    records = []
    for trial in range(int(trials)):
        rng = np.random.default_rng([int(seed), trial])
        g, desc = _random_smooth(rng, grid)
        # linear in the forcing: the perturbed solution less the problem's
        # own is the solution for g alone
        member = engine.representation(0.0, 0.0, forcing=g)
        records.append({"trial": trial, "perturbation": desc, "ratio": _fit(member(grid), basis).distance})
    return records


def _truncations(domain: Interval, t0):
    if not domain.upper.finite:
        return [10.0, 100.0, 1000.0]
    # finite upper endpoint: approach it geometrically
    sig = domain.sigma
    return [sig - (sig - t0) * 10.0 ** (-k) for k in (1, 2, 3)]


def instability_probe(problem, xi_family, epsilon):
    """Trace nearest-solution distance of approximate solutions over truncations.

    ``xi_family`` is an expression in t (parameter ``eps`` allowed) whose
    residual in the equation stays within epsilon; growing distances to the
    true two-parameter solution family evidence Ulam instability.
    """
    dom = problem.domain
    t0 = dom.default_anchor()
    params = dict(problem.params)
    params["eps"] = float(epsilon)
    xi_fn = exprlang.compile_expr(xi_family, params)
    d1 = exprlang.differentiate(xi_family)
    xi_p = exprlang.compile_expr(d1, params)
    xi_pp = exprlang.compile_expr(exprlang.differentiate(d1), params)
    a = problem.fn("alpha")
    b = problem.fn("beta")
    c = problem.fn("gamma")
    f = problem.fn("forcing")

    truncations = _truncations(dom, t0)
    grids = [probe_grid(Interval.open(dom.capped_ends()[0], float(T))) for T in truncations]
    # the residual and the solution family each once over every truncation's grid
    ts = np.concatenate(grids)
    # residual evaluation stays a modest distance from an open finite lower
    # endpoint: compiled derivatives of the witness are cancellation-limited
    # arbitrarily close to a singularity there
    rgrid = ts[ts >= dom.tau + 1e-3 * (t0 - dom.tau)] if dom.lower.finite else ts
    with np.errstate(all="ignore"):
        resid = np.abs(a(rgrid) * xi_pp(rgrid) + b(rgrid) * xi_p(rgrid) + c(rgrid) * xi_fn(rgrid) - f(rgrid))
    residual_sup = float(np.max(resid[np.isfinite(resid)]))
    family = (IvpData(t0, 1.0, 0.0), IvpData(t0, 0.0, 1.0), IvpData(t0, 0.0, 0.0))
    members = ivp_solution(problem, family, ts, (0.0, 0.0, None))
    bounds = np.cumsum([g.size for g in grids])[:-1]
    trace = []
    for T, grid, (y1, y2, p) in zip(truncations, grids, np.split(members, bounds, axis=1)):
        dist = _fit(np.asarray(xi_fn(grid), dtype=complex) - p, (y1, y2)).distance
        trace.append({"T": float(T), "sup_distance": dist})
    dists = [rec["sup_distance"] for rec in trace]
    growing = all(dists[k + 1] >= 10.0 * dists[k] for k in range(len(dists) - 1)) and dists[0] > 0
    return {
        "residual_sup": residual_sup,
        "epsilon": float(epsilon),
        "trace": trace,
        "growth_ok": growing,
    }


def instability_evidence(problem, witness):
    """Run `instability_probe` on the witness text at `PROBE_EPSILON`.

    Returns the probe and whether it evidences instability: distances that
    grow while the witness residual stays within epsilon.
    """
    probe = instability_probe(problem, exprlang.parse(witness), PROBE_EPSILON)
    return probe, probe["growth_ok"] and probe["residual_sup"] <= probe["epsilon"] * (1.0 + 1e-6)
