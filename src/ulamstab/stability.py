"""Core stability engine.

Decides whether a second-order problem with a validated companion function
rho admits a sup-norm stability constant, computes that constant as the
supremum of a nested double integral, and -- for real-valued data --
upgrades it to the minimal constant when the growth certificates at the
interval ends are numerically evidenced.

The three hypothesis cases pair the boundedness functions as
{f1, f2}, {f1, f3}, {f3, f4}.  All exponent arguments are served by two
cached antiderivatives (one for rho, one for rho + beta/alpha); every
boundedness function, nested kernel, and certificate is an algebraic
combination of edge-anchored queries against those caches, so the whole
analysis costs a handful of 1-D adaptive passes instead of a triple loop.

Whether a hypothesis holds is data: `StabilityEngine.f_sup` and
`StabilityEngine.ulam_constant` return a pair ``(result, why)``, where
``why`` is None or the reason the report carries.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import quad, riccati
from .model import Config, Interval, OscillatorProblem, StabilityReport, CharacteristicRoots, probe_grid, validate_problem
from .model import interior_anchor

__all__ = [
    "CaseSelection",
    "DivergenceEvidence",
    "DegenerateLeadingCoefficient",
    "StabilityEngine",
    "analyze",
    "constant_coefficients",
]


class DegenerateLeadingCoefficient(Exception):
    pass


_CASE_F = {"i": ("f1", "f2"), "ii": ("f1", "f3"), "iii": ("f3", "f4")}
# (limit kind, endpoint side, sign of the divergent limit)
_CASE_DIV = {
    "i": (("rho", "upper", 1.0), ("mixed", "upper", 1.0)),
    "ii": (("rho", "lower", 1.0), ("mixed", "upper", 1.0)),
    "iii": (("rho", "lower", 1.0), ("mixed", "lower", -1.0)),
}
# which cache side must behave for each boundedness function to exist
_F_SIDE = {"f1": ("A4", "upper"), "f2": ("A2", "upper"), "f3": ("A2", "lower"), "f4": ("A4", "lower")}
# the nested kernel of each case: its cache and the edge it is anchored at
_KERNEL = {"i": ("C1", "upper"), "ii": ("C1", "lower"), "iii": ("C3", "lower")}
# the boundedness function each kernel cache integrates against e^{-R}
_NESTED = {"C1": "f1", "C3": "f4"}
# largest imaginary part, relative to the real part, of real-valued data
REALITY_TOL = 1e-12
# points of a certificate's geometric approach to its endpoint
DIVERGENCE_POINTS = 24


@dataclass(frozen=True)
class CaseSelection:
    case: str  # "i" | "ii" | "iii" | "none"
    f_sups: dict = field(default_factory=dict)  # name: SupResult, or for "none" name: why it is not finite


@dataclass
class DivergenceEvidence:
    limit: str  # "rho" | "mixed"
    endpoint: str  # "lower" | "upper"
    target_sign: float
    trace: list = field(default_factory=list)
    threshold_crossed: bool = False
    monotone_tail: bool = False

    @property
    def holds(self):
        return self.threshold_crossed and self.monotone_tail

    def to_dict(self):
        return {
            "limit": self.limit,
            "endpoint": self.endpoint,
            "target": "+inf" if self.target_sign > 0 else "-inf",
            "threshold_crossed": self.threshold_crossed,
            "monotone_tail": self.monotone_tail,
            "holds": self.holds,
            "trace": [[float(t), float(v)] for t, v in self.trace],
        }


class StabilityEngine:
    """Builds and caches everything needed to analyze one (problem, rho) pair.

    All heavy objects are constructed lazily and exactly once; the engine is
    read-only after each cache is built and can be shared across threads.
    Each cache remembers its recent reads (`quad.CumulativeIntegral`), so the
    boundedness functions, kernels and certificates that read one cache at
    the same points take one Clenshaw pass between them.
    """

    def __init__(self, problem: OscillatorProblem, rho, config: Config = Config()):
        self.problem = problem
        self.config = config
        self.rho = rho
        self.rho_fn = problem.bind(rho)
        if not callable(self.rho_fn):
            raise TypeError("rho must be an expression or a callable")
        self.coverage = riccati.rho_coverage(problem, rho)
        self.lo = self.coverage.lo
        self.hi = self.coverage.hi
        self.anchor = interior_anchor(self.lo, self.hi)
        self._alpha = problem.fn("alpha")
        self._beta = problem.fn("beta")
        self._gamma = problem.fn("gamma")
        self._cache = {}
        self._sups = {}  # f_sup results by name; apart from _cache, which diagnostics() reports
        self._is_real = None

    # -- reality ---------------------------------------------------------

    @property
    def is_real(self):
        if self._is_real is None:
            work = Interval.open(self.lo, self.hi)
            grid = probe_grid(work)
            ok = True
            with np.errstate(all="ignore"):
                for fn in (self._alpha, self._beta, self._gamma, self.rho_fn):
                    v = np.asarray(fn(grid))
                    v = v[np.isfinite(v.real) & np.isfinite(v.imag)]
                    if v.size and np.max(np.abs(v.imag)) > REALITY_TOL * (1.0 + np.max(np.abs(v.real))):
                        ok = False
                        break
            self._is_real = ok
        return self._is_real

    # -- exponent caches -------------------------------------------------

    def _overlap(self, *caches):
        """The range all ``caches`` cover: a cache built on them spans it."""
        return max(c.lo for c in caches), min(c.hi for c in caches)

    def cumulative(self, g, lo, hi, tail=False):
        """Cumulative of ``g`` over (lo, hi), anchored at the engine's anchor.

        ``tail`` builds an exponential-scale cache whose endpoint tails are
        classified as converged or diverging (`quad.cumulative` tail mode).
        """
        return quad.cumulative(g, self.anchor, lo, hi, tol=self.config.cum_tol, tail_mode=tail)

    @property
    def Rc(self):
        if "Rc" not in self._cache:
            self._cache["Rc"] = self.cumulative(self.rho_fn, self.lo, self.hi)
        return self._cache["Rc"]

    @property
    def Pc(self):
        if "Pc" not in self._cache:
            g = lambda s: np.asarray(self.rho_fn(s)) + self._beta(s) / self._alpha(s)
            self._cache["Pc"] = self.cumulative(g, self.lo, self.hi)
        return self._cache["Pc"]

    def _R(self, t):
        return self.Rc.value(np.asarray(t, float)).real

    def _P(self, t):
        return self.Pc.value(np.asarray(t, float)).real

    # -- derived (exponential-scale) caches ------------------------------

    def _tail_cache(self, key, g, lo, hi):
        if key not in self._cache:
            self._cache[key] = self.cumulative(g, lo, hi, tail=True)
        return self._cache[key]

    @property
    def A4(self):
        lo, hi = self._overlap(self.Pc)
        g = lambda s: np.exp(self._P(s)) / np.abs(self._alpha(s))
        return self._tail_cache("A4", g, lo, hi)

    @property
    def A2(self):
        lo, hi = self._overlap(self.Rc)
        g = lambda s: np.exp(-self._R(s))
        return self._tail_cache("A2", g, lo, hi)

    def _nested(self, key):
        lo, hi = self._overlap(self.A4, self.Rc)
        f = getattr(self, _NESTED[key])
        g = lambda s: f(s) * np.exp(-self._R(s))
        return self._tail_cache(key, g, lo, hi)

    C1 = property(lambda self: self._nested("C1"))
    C3 = property(lambda self: self._nested("C3"))

    @property
    def H1(self):
        """Cumulative of exp(-int(2 rho + beta/alpha)); complex only for complex data, like Rc and Pc."""
        lo, hi = self._overlap(self.Pc, self.Rc)
        g = lambda s: np.exp(-(self.Rc.value(s) + self.Pc.value(s)))
        return self._tail_cache("H1", g, lo, hi)

    # -- boundedness functions and kernels -------------------------------

    def _edge_integral(self, key, side, t):
        """Integral of cache ``key`` between t and its ``side`` edge, weighted.

        A4's integrand carries e^{P}, so its weight is e^{-P(t)}; the
        integrands of A2, C1 and C3 carry e^{-R}, so theirs is e^{R(t)}.
        """
        t = np.asarray(t, float)
        weight = np.exp(-self._P(t) if key == "A4" else self._R(t))
        return weight * getattr(self, key).from_edge(side, t).real

    f1 = functools.partialmethod(_edge_integral, *_F_SIDE["f1"])
    f2 = functools.partialmethod(_edge_integral, *_F_SIDE["f2"])
    f3 = functools.partialmethod(_edge_integral, *_F_SIDE["f3"])
    f4 = functools.partialmethod(_edge_integral, *_F_SIDE["f4"])

    def _limit_cache(self, key, side):
        """Cache ``key``, and its ``side`` edge's status when that edge cannot stand in for the endpoint, else None."""
        cache = getattr(self, key)
        info = cache.upper_info if side == "upper" else cache.lower_info
        return cache, None if info.usable_as_limit else info.status

    def f_sup(self, name):
        """Supremum of a boundedness function over the working interval, and why it is not finite.

        Returns ``(result, why)``.  ``why`` is None, ``divergent`` when the
        defining improper integral grows without bound, ``unresolved:<status>``
        when its endpoint behaviour could not be resolved within the coverage
        budget, or ``unbounded``; ``result`` is None when ``why`` is not.
        Computed once per name: case i and case ii both ask for f1.
        """
        if name not in self._sups:
            cache, status = self._limit_cache(*_F_SIDE[name])
            if status is None:
                res = quad.sup_over(getattr(self, name), cache.lo, cache.hi)
                self._sups[name] = (None, "unbounded") if res.unbounded else (res, None)
            else:
                self._sups[name] = (None, "divergent" if status == "diverging" else "unresolved:" + status)
        return self._sups[name]

    # -- classification ---------------------------------------------------

    def classify(self):
        """First case (in order i, ii, iii) whose boundedness sups are finite.

        With none, `CaseSelection.f_sups` holds why each case's first failing
        function is not finite.
        """
        notes = {}
        for case, names in _CASE_F.items():
            sups = {}
            for name in names:
                res, why = self.f_sup(name)
                if why is not None:
                    notes[name] = why
                    break
                sups[name] = res
            else:
                return CaseSelection(case, sups)
        return CaseSelection("none", notes)

    # -- constants ---------------------------------------------------------

    def ulam_constant(self, case):
        """Sup of the nested double integral for the given case, and why it is not finite.

        Returns ``(result, why)`` as `f_sup` does; ``why`` names the kernel
        endpoint that diverges or the hypothesis on the kernel that failed.
        With real data the no-real-part kernel coincides pointwise with this
        one, so the minimal constant is this supremum itself, once
        `check_divergence` evidences the growth certificates.
        """
        if case not in _KERNEL:
            raise ValueError(f"no constant for case {case!r}")
        key, side = _KERNEL[case]
        cache, status = self._limit_cache(key, side)
        if status is None:
            res = quad.sup_over(lambda t: self._edge_integral(key, side, t), cache.lo, cache.hi)
            if not res.unbounded:
                return res, None
            status = "unbounded"
        if status == "diverging":
            return None, f"nested kernel diverges at the {side} endpoint"
        return None, f"hypothesis on kernel_{case} failed: {status}"

    def extremal_member(self, case):
        """Family coefficients (d1, d2) of the proof's member for the case's extremal perturbation.

        The approximate solution starts at the anchor with x = x' = 0 and is
        perturbed by g = sigma, the sign of alpha.  Its nearest member
        (d2 + d1 H1) e^R has explicit coefficients: d1 integrates
        sigma/alpha = 1/|alpha| against e^P, as A4 does, from the anchor to
        the edge of the boundedness function that the kernel nests, and d2
        is the kernel's own integral from its edge.
        """
        if case not in _KERNEL:
            raise ValueError(f"no extremal construction for case {case!r}")
        key, side = _KERNEL[case]
        inner_key, inner = _F_SIDE[_NESTED[key]]
        s_in, s_out = (1.0 if s == "upper" else -1.0 for s in (inner, side))
        t = np.array([self.anchor])
        d1 = s_in * getattr(self, inner_key).from_edge(inner, t)[0]
        d2 = -s_in * s_out * getattr(self, key).from_edge(side, t)[0]
        return complex(d1), complex(d2)

    # -- divergence certificates -----------------------------------------

    def _approach_points(self, side):
        lo, hi = self._overlap(self.Rc, self.H1)
        t0 = self.anchor
        ratios = np.exp(np.linspace(math.log(0.5), math.log(1e-9), DIVERGENCE_POINTS))
        if side == "lower":
            return lo + (t0 - lo) * ratios
        return hi - (hi - t0) * ratios

    def check_divergence(self, case):
        """Numerically evidence the endpoint growth conditions for a case.

        Each limit is evaluated in log space on a geometric approach to the
        endpoint; it holds when the last `quad.TAIL_K` values are strictly
        increasing in magnitude with the right sign and the final magnitude
        crosses `quad.DIVERGENCE_THRESHOLD`, the numbers `quad.sup_over`
        calls a supremum unbounded by.
        """
        out = []
        # every cache reads 0 at the anchor, so R and H1 are the limits'
        # integrals from there
        for kind, side, sign in _CASE_DIV[case]:
            pts = self._approach_points(side)
            pts = np.sort(pts) if side == "upper" else np.sort(pts)[::-1]
            if kind == "rho":
                logmag = self._R(pts)
                signs = np.ones_like(logmag)
            else:
                re = self.H1.value(pts).real
                signs = np.sign(re)
                with np.errstate(divide="ignore"):
                    logmag = self._R(pts) + np.log(np.abs(re))
            ev = DivergenceEvidence(kind, side, sign)
            vals = signs * np.exp(np.minimum(logmag, 700.0))
            ev.trace = list(zip(pts.tolist(), vals.tolist()))
            k = quad.TAIL_K
            tail_m = logmag[-k:]
            tail_s = signs[-k:]
            ev.monotone_tail = (
                tail_m.size >= k
                and bool(np.all(np.diff(tail_m) > 0))
                and bool(np.all(tail_s == sign))
            )
            ev.threshold_crossed = bool(
                np.isfinite(logmag[-1]) and logmag[-1] >= math.log(quad.DIVERGENCE_THRESHOLD)
            )
            out.append(ev)
        return out

    def diagnostics(self):
        d = {
            "anchor": self.anchor,
            "coverage": self.coverage.to_dict(),
            "is_real": self.is_real,
        }
        for key, cache in self._cache.items():
            d[f"cache_{key}"] = {
                "lo": cache.lo,
                "hi": cache.hi,
                "panels": int(len(cache.panel_vals)),
                "error_bound": cache.error_bound,
                "max_depth_leaves": cache.max_depth_leaves,
                "resolution_floor_leaves": cache.resolution_floor_leaves,
                "integrand_calls": cache.integrand_calls,
                "integrand_points": cache.integrand_points,
                "lower_status": cache.lower_info.status,
                "upper_status": cache.upper_info.status,
            }
        return d


# ---------------------------------------------------------------------------
# constant-coefficient closed forms


def constant_coefficients(a0, a1, a2):
    """Roots and closed-form constants for a0 x'' + a1 x' + a2 x = f.

    Returns the characteristic roots ordered by descending real part, the
    stability constant 1/|a0 Re(l1) Re(l2)| when both real parts are
    nonzero, and the minimal constant 1/|a0 l1 l2| when additionally both
    roots are real and nonzero.
    """
    a0, a1, a2 = complex(a0), complex(a1), complex(a2)
    if a0 == 0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    # Python complex arithmetic: numpy's complex divide overflows on a
    # subnormal divisor (a1 = 1e-309, a2 = 0 gives big = -1e-309)
    disc = cmath.sqrt(a1 * a1 - 4.0 * a0 * a2)
    # pick the sign that avoids cancellation in -a1 -+ disc
    if abs(-a1 + disc) >= abs(-a1 - disc):
        big = (-a1 + disc) / 2.0
    else:
        big = (-a1 - disc) / 2.0
    if big == 0:
        l1 = l2 = -a1 / (2.0 * a0)
    else:
        l1 = big / a0
        l2 = a2 / big
    if l1.real < l2.real:
        l1, l2 = l2, l1
    roots = CharacteristicRoots(l1, l2, a0, a1, a2)
    scale = max(abs(l1), abs(l2), 1.0)
    L = None
    denom = abs(a0 * l1.real * l2.real)
    if l1.real != 0 and l2.real != 0 and denom > 0:  # guard underflow to 0
        L = 1.0 / denom
    B = None
    real_roots = abs(l1.imag) <= 1e-12 * scale and abs(l2.imag) <= 1e-12 * scale
    denom = abs(a0 * l1 * l2)
    if real_roots and abs(l1) > 1e-14 * scale and abs(l2) > 1e-14 * scale and denom > 0:
        B = 1.0 / denom
    return {"roots": roots, "L": L, "B": B}


# ---------------------------------------------------------------------------
# orchestration


def analyze(problem: OscillatorProblem, rho, config: Config = Config(), best=True, engine=None):
    """Full pipeline: validate, check rho, classify, compute constants.

    ``engine`` is a `StabilityEngine` for the same problem, rho and config,
    so that callers running experiments afterwards reuse its caches.
    """
    report = StabilityReport()
    violations = validate_problem(problem)
    if violations:
        report.verdict = "inconclusive"
        report.diagnostics["violations"] = violations
        return report

    resid = riccati.residual_sup(problem, rho)
    report.diagnostics["riccati_residual"] = resid
    if not resid <= riccati.RESIDUAL_TOL:
        report.verdict = "inconclusive"
        report.diagnostics["error"] = f"candidate rho residual {resid:.3e} exceeds tolerance {riccati.RESIDUAL_TOL:.1e}"
        return report

    engine = engine if engine is not None else StabilityEngine(problem, rho, config)
    _classify_and_bound(report, engine, best)
    if report.case != "none" and not engine.coverage.full:
        # hypotheses were only checked on the covered piece of the domain:
        # its case and constants describe that piece, not the problem
        blank = StabilityReport()
        for key in ("case", "f_sups", "divergence", "constant", "verdict"):
            report.diagnostics[f"subinterval_{key}"] = getattr(report, key)
            setattr(report, key, getattr(blank, key))
    report.diagnostics.update(engine.diagnostics())
    return report


def _classify_and_bound(report, engine, best):
    """Fill case, f-sups and constants; the verdict stays inconclusive on failure."""
    selection = engine.classify()
    report.case = selection.case
    if selection.case == "none":
        report.f_sups = {k: {"status": v} for k, v in selection.f_sups.items()}
        return
    for name, res in selection.f_sups.items():
        report.f_sups[name] = {"value": float(res.sup_value), "attained_near": str(res.attained_near)}

    l_res, why = engine.ulam_constant(selection.case)
    if why is not None:
        report.diagnostics["error"] = why
        return
    report.constant["L"] = l_res.sup_value
    report.verdict = "stable_with_constant"
    if not best:
        return
    if not engine.is_real:
        report.diagnostics["best_constant"] = "coefficients or rho are not real-valued on the probe grid"
        return
    evidence = engine.check_divergence(selection.case)
    report.divergence = [ev.to_dict() for ev in evidence]
    if all(ev.holds for ev in evidence):
        report.constant["B"] = l_res.sup_value
        report.verdict = "best_constant"
    else:
        report.diagnostics["best_constant"] = "divergence certificates not evidenced"
