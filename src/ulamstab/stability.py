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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exprlang, quad, riccati
from .model import Config, Interval, OscillatorProblem, StabilityReport, CharacteristicRoots, probe_grid, validate_problem
from .model import interior_anchor

__all__ = [
    "CaseSelection",
    "DivergenceEvidence",
    "HypothesisFailed",
    "RealityViolated",
    "DegenerateLeadingCoefficient",
    "StabilityEngine",
    "analyze",
    "constant_coefficients",
]


class HypothesisFailed(Exception):
    def __init__(self, which, reason):
        super().__init__(f"hypothesis on {which} failed: {reason}")
        self.which = which
        self.reason = reason


class RealityViolated(Exception):
    """Coefficients or rho have non-negligible imaginary parts."""


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


@dataclass(frozen=True)
class CaseSelection:
    case: str  # "i" | "ii" | "iii" | "none"
    required_f: tuple = ()
    required_divergence: tuple = ()
    f_sups: dict = field(default_factory=dict)


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
    """

    def __init__(self, problem: OscillatorProblem, rho, config: Config = Config(), coverage=None):
        self.problem = problem
        self.config = config
        self.rho = rho
        if isinstance(rho, exprlang.Expr):
            self.rho_fn = exprlang.compile_expr(rho, problem.params)
        elif callable(rho):
            self.rho_fn = rho
        else:
            raise TypeError("rho must be an expression or a callable")
        self.coverage = coverage if coverage is not None else riccati.rho_coverage(problem, rho, config)
        self.lo = self.coverage.lo
        self.hi = self.coverage.hi
        self.anchor = interior_anchor(self.lo, self.hi)
        self._alpha = problem.fn("alpha")
        self._beta = problem.fn("beta")
        self._gamma = problem.fn("gamma")
        self._cache = {}
        self._is_real = None

    # -- reality ---------------------------------------------------------

    @property
    def is_real(self):
        if self._is_real is None:
            work = Interval.open(self.lo, self.hi)
            grid = probe_grid(work, self.config.probe_points, self.config.range_cap)
            tol = self.config.reality_tol
            ok = True
            with np.errstate(all="ignore"):
                for fn in (self._alpha, self._beta, self._gamma, self.rho_fn):
                    v = np.asarray(fn(grid))
                    v = v[np.isfinite(v.real) & np.isfinite(v.imag)]
                    if v.size and np.max(np.abs(v.imag)) > tol * (1.0 + np.max(np.abs(v.real))):
                        ok = False
                        break
            self._is_real = ok
        return self._is_real

    # -- exponent caches -------------------------------------------------

    def _shrink(self, lo, hi):
        mlo = 1e-12 * max(1.0, abs(lo))
        mhi = 1e-12 * max(1.0, abs(hi))
        return lo + mlo, hi - mhi

    def cumulative(self, g, lo, hi, tail=False):
        """Cumulative of ``g`` over (lo, hi), anchored at the engine's anchor.

        ``tail`` builds an exponential-scale cache whose endpoint tails are
        classified as converged or diverging (`quad.cumulative` tail mode).
        """
        return quad.cumulative(
            g,
            self.anchor,
            lo,
            hi,
            tol=self.config.cum_tol,
            log_budget=self.config.log_budget,
            range_cap=self.config.range_cap,
            tail_mode=tail,
            # tail integrands are built on other caches and carry their
            # interpolation noise; demanding tighter relative accuracy only
            # forces full-depth splitting against that noise floor
            leaf_rel=1e-8 if tail else 1e-13,
        )

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
        lo, hi = self._shrink(self.Pc.lo, self.Pc.hi)
        g = lambda s: np.exp(self._P(s)) / np.abs(self._alpha(s))
        return self._tail_cache("A4", g, lo, hi)

    @property
    def A2(self):
        lo, hi = self._shrink(self.Rc.lo, self.Rc.hi)
        g = lambda s: np.exp(-self._R(s))
        return self._tail_cache("A2", g, lo, hi)

    @property
    def C1(self):
        a4 = self.A4
        lo, hi = self._shrink(max(a4.lo, self.Rc.lo), min(a4.hi, self.Rc.hi))
        g = lambda s: self.f1(s) * np.exp(-self._R(s))
        return self._tail_cache("C1", g, lo, hi)

    @property
    def C3(self):
        a4 = self.A4
        lo, hi = self._shrink(max(a4.lo, self.Rc.lo), min(a4.hi, self.Rc.hi))
        g = lambda s: self.f4(s) * np.exp(-self._R(s))
        return self._tail_cache("C3", g, lo, hi)

    @property
    def H1(self):
        lo, hi = self._shrink(max(self.Pc.lo, self.Rc.lo), min(self.Pc.hi, self.Rc.hi))
        g = lambda s: np.exp(-(self._R(s) + self._P(s)))
        return self._tail_cache("H1", g, lo, hi)

    # -- boundedness functions -------------------------------------------

    def f1(self, t):
        t = np.asarray(t, float)
        return np.exp(-self._P(t)) * self.A4.from_upper(t).real

    def f2(self, t):
        t = np.asarray(t, float)
        return np.exp(self._R(t)) * self.A2.from_upper(t).real

    def f3(self, t):
        t = np.asarray(t, float)
        return np.exp(self._R(t)) * self.A2.from_lower(t).real

    def f4(self, t):
        t = np.asarray(t, float)
        return np.exp(-self._P(t)) * self.A4.from_lower(t).real

    def _f_status(self, name):
        cache = getattr(self, _F_SIDE[name][0])
        info = cache.upper_info if _F_SIDE[name][1] == "upper" else cache.lower_info
        if info.status == "diverging":
            return "diverging"
        if info.usable_as_limit:
            return "ok"
        return "unresolved:" + info.status

    def f_sup(self, name):
        """Supremum of a boundedness function over the working interval.

        Raises `quad.Divergent` when the defining improper integral grows
        without bound, `HypothesisFailed` when its endpoint behaviour could
        not be resolved within the coverage budget.
        """
        status = self._f_status(name)
        if status == "diverging":
            raise quad.Divergent(f"{name} diverges at the {_F_SIDE[name][1]} endpoint")
        if status != "ok":
            raise HypothesisFailed(name, status)
        fn = getattr(self, name)
        cache = getattr(self, _F_SIDE[name][0])
        return quad.sup_over(
            fn,
            cache.lo,
            cache.hi,
            n_scan=self.config.sup_scan,
            threshold=self.config.divergence_threshold,
            tail_k=self.config.tail_k,
        )

    # -- classification ---------------------------------------------------

    def classify(self):
        """First case (in order i, ii, iii) whose boundedness sups are finite."""
        notes = {}
        for case in ("i", "ii", "iii"):
            sups = {}
            ok = True
            for name in _CASE_F[case]:
                try:
                    res = self.f_sup(name)
                except quad.Divergent:
                    notes[name] = "divergent"
                    ok = False
                    break
                except HypothesisFailed as exc:
                    notes[name] = exc.reason
                    ok = False
                    break
                if res.unbounded:
                    notes[name] = "unbounded"
                    ok = False
                    break
                sups[name] = res
            if ok:
                return CaseSelection(case, _CASE_F[case], _CASE_DIV[case], sups)
        return CaseSelection("none", (), (), notes)

    # -- constants ---------------------------------------------------------

    def _kernel(self, case):
        if case == "i":
            cache = self.C1
            fn = lambda t: np.exp(self._R(np.asarray(t, float))) * cache.from_upper(np.asarray(t, float)).real
            side = "upper"
        elif case == "ii":
            cache = self.C1
            fn = lambda t: np.exp(self._R(np.asarray(t, float))) * cache.from_lower(np.asarray(t, float)).real
            side = "lower"
        elif case == "iii":
            cache = self.C3
            fn = lambda t: np.exp(self._R(np.asarray(t, float))) * cache.from_lower(np.asarray(t, float)).real
            side = "lower"
        else:
            raise ValueError(f"no constant for case {case!r}")
        info = cache.upper_info if side == "upper" else cache.lower_info
        if info.status == "diverging":
            raise quad.Divergent(f"nested kernel diverges at the {side} endpoint")
        if not info.usable_as_limit:
            raise HypothesisFailed(f"kernel_{case}", info.status)
        return fn, cache

    def ulam_constant(self, case):
        """Sup of the nested double integral for the given case."""
        fn, cache = self._kernel(case)
        res = quad.sup_over(
            fn,
            cache.lo,
            cache.hi,
            n_scan=self.config.sup_scan,
            threshold=self.config.divergence_threshold,
            tail_k=self.config.tail_k,
        )
        if res.unbounded:
            raise HypothesisFailed(f"kernel_{case}", "unbounded")
        return res

    def best_constant(self, case):
        """Growth certificates that make the Ulam constant the minimal one.

        Requires real-valued data; with real data the no-real-part kernel
        coincides pointwise with the stability kernel, so the minimal
        constant is the `ulam_constant` supremum itself, and the
        certificates are what upgrade its status.
        """
        if not self.is_real:
            raise RealityViolated("coefficients or rho are not real-valued on the probe grid")
        return self.check_divergence(case)

    # -- divergence certificates -----------------------------------------

    def _approach_points(self, side):
        lo = max(self.Rc.lo, self.H1.lo)
        hi = min(self.Rc.hi, self.H1.hi)
        t0 = self.anchor
        n = self.config.divergence_points
        ratios = np.exp(np.linspace(math.log(0.5), math.log(1e-9), n))
        if side == "lower":
            return lo + (t0 - lo) * ratios
        return hi - (hi - t0) * ratios

    def check_divergence(self, case):
        """Numerically evidence the endpoint growth conditions for a case.

        Each limit is evaluated in log space on a geometric approach to the
        endpoint; it holds when the last ``tail_k`` values are strictly
        increasing in magnitude with the right sign and the final magnitude
        crosses the threshold.
        """
        out = []
        t0 = self.anchor
        r0 = self._R(np.array([t0]))[0]
        rp0 = r0 + self._P(np.array([t0]))[0]
        h1_0 = complex(self.H1.value(np.array([t0]))[0])
        for kind, side, sign in _CASE_DIV[case]:
            pts = self._approach_points(side)
            pts = np.sort(pts) if side == "upper" else np.sort(pts)[::-1]
            if kind == "rho":
                logmag = self._R(pts) - r0
                signs = np.ones_like(logmag)
            else:
                dh = self.H1.value(pts) - h1_0
                re = dh.real
                signs = np.sign(re)
                with np.errstate(divide="ignore"):
                    logmag = (self._R(pts) - r0) + rp0 + np.log(np.abs(re))
            ev = DivergenceEvidence(kind, side, sign)
            vals = signs * np.exp(np.minimum(logmag, 700.0))
            ev.trace = list(zip(pts.tolist(), vals.tolist()))
            k = self.config.tail_k
            tail_m = logmag[-k:]
            tail_s = signs[-k:]
            ev.monotone_tail = (
                tail_m.size >= k
                and bool(np.all(np.diff(tail_m) > 0))
                and bool(np.all(tail_s == sign))
            )
            ev.threshold_crossed = bool(
                np.isfinite(logmag[-1]) and logmag[-1] >= math.log(self.config.divergence_threshold)
            )
            out.append(ev)
        return out

    def diagnostics(self):
        d = {
            "anchor": self.anchor,
            "coverage": {"lo": self.lo, "hi": self.hi, "full": self.coverage.full, "detail": self.coverage.detail},
            "is_real": self.is_real,
        }
        for key, cache in self._cache.items():
            d[f"cache_{key}"] = {
                "lo": cache.lo,
                "hi": cache.hi,
                "panels": int(len(cache.panel_vals)),
                "error_bound": cache.error_bound,
                "max_depth_leaves": cache.max_depth_leaves,
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
    disc = np.sqrt(complex(a1 * a1 - 4.0 * a0 * a2))
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
    violations = validate_problem(problem, config)
    if violations:
        report.verdict = "inconclusive"
        report.diagnostics["violations"] = violations
        return report

    resid = riccati.residual_sup(problem, rho, config)
    report.diagnostics["riccati_residual"] = resid
    if not resid <= config.residual_tol:
        report.verdict = "inconclusive"
        report.diagnostics["error"] = (
            f"candidate rho residual {resid:.3e} exceeds tolerance {config.residual_tol:.1e}"
        )
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

    try:
        l_res = engine.ulam_constant(selection.case)
    except (quad.Divergent, HypothesisFailed) as exc:
        report.diagnostics["error"] = str(exc)
        return
    report.constant["L"] = l_res.sup_value
    report.verdict = "stable_with_constant"
    if not best:
        return
    try:
        evidence = engine.best_constant(selection.case)
    except RealityViolated as exc:
        report.diagnostics["best_constant"] = str(exc)
        return
    report.divergence = [ev.to_dict() for ev in evidence]
    if all(ev.holds for ev in evidence):
        report.constant["B"] = l_res.sup_value
        report.verdict = "best_constant"
    else:
        report.diagnostics["best_constant"] = "divergence certificates not evidenced"
