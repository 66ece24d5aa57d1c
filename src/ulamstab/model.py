"""Domain objects shared by all modules.

Intervals with extended-real endpoints, oscillator problems,
characteristic roots, stability reports, and the tolerance
configuration.  All types are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import exprlang
from .quad import RANGE_CAP, graded_grid

__all__ = [
    "Endpoint",
    "Interval",
    "OscillatorProblem",
    "CharacteristicRoots",
    "StabilityReport",
    "Config",
    "interior_anchor",
    "validate_problem",
    "problem_from_dict",
    "problem_to_dict",
]


@dataclass(frozen=True)
class Endpoint:
    value: float  # may be +-inf
    included: bool = False

    def __post_init__(self):
        if math.isinf(self.value) and self.included:
            raise ValueError("infinite endpoints cannot be included")

    @property
    def finite(self):
        return math.isfinite(self.value)


def interior_anchor(lo, hi):
    """Deterministic reference point of (lo, hi).

    Midpoint for finite ends, one unit inside a single infinite end, zero
    for the whole real line.
    """
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    if math.isfinite(lo):
        return lo + 1.0
    if math.isfinite(hi):
        return hi - 1.0
    return 0.0


@dataclass(frozen=True)
class Interval:
    lower: Endpoint
    upper: Endpoint

    def __post_init__(self):
        if not self.lower.value < self.upper.value:
            raise ValueError("interval requires lower < upper")
        if self.lower.finite and self.upper.finite and not math.isfinite(self.upper.value - self.lower.value):
            raise ValueError("interval length upper - lower overflows")
        lo, hi = self.capped_ends()
        if not lo < hi:
            raise ValueError(
                f"interval's finite end is at or beyond {RANGE_CAP:g}, where coverage of its infinite side ends"
            )

    @classmethod
    def open(cls, lo, hi):
        return cls(Endpoint(float(lo)), Endpoint(float(hi)))

    @property
    def tau(self):
        return self.lower.value

    @property
    def sigma(self):
        return self.upper.value

    def capped_ends(self):
        """(tau, sigma) with an infinite end replaced by -`RANGE_CAP` or `RANGE_CAP`."""
        return (self.tau if self.lower.finite else -RANGE_CAP, self.sigma if self.upper.finite else RANGE_CAP)

    def default_anchor(self):
        """Deterministic interior reference point; see `interior_anchor`."""
        return interior_anchor(self.tau, self.sigma)

    def contains(self, t):
        lo_ok = t > self.tau or (self.lower.included and t == self.tau)
        hi_ok = t < self.sigma or (self.upper.included and t == self.sigma)
        return lo_ok and hi_ok


_COEFFICIENTS = ("alpha", "beta", "gamma", "forcing")


@dataclass(frozen=True)
class OscillatorProblem:
    """alpha x'' + beta x' + gamma x = forcing on the interval.

    ``rho``, when given, is the document's Riccati companion.  The four
    coefficients and ``rho`` are compiled against ``params`` once, when the
    problem is built, so an unbound parameter raises there.
    """

    alpha: exprlang.Expr
    beta: exprlang.Expr
    gamma: exprlang.Expr
    forcing: exprlang.Expr
    domain: Interval
    params: dict = field(default_factory=dict)
    name: str = ""
    rho: exprlang.Expr | None = None

    def __post_init__(self):
        which = _COEFFICIENTS if self.rho is None else _COEFFICIENTS + ("rho",)
        fns = {w: exprlang.compile_expr(getattr(self, w), self.params) for w in which}
        object.__setattr__(self, "_fns", fns)

    def fn(self, which):
        return self._fns[which]

    def bind(self, rho):
        """A companion as a callable of t.

        The problem's own ``rho`` is the function compiled with the problem;
        another expression is compiled against ``params``; a callable (such
        as a numeric solution) is returned as it is.
        """
        if not isinstance(rho, exprlang.Expr):
            return rho
        return self._fns["rho"] if rho == self.rho else exprlang.compile_expr(rho, self.params)


@dataclass(frozen=True)
class CharacteristicRoots:
    lambda1: complex
    lambda2: complex
    a0: complex
    a1: complex
    a2: complex


@dataclass
class StabilityReport:
    case: str = "none"  # "i" | "ii" | "iii" | "none"
    f_sups: dict = field(default_factory=dict)
    divergence: list = field(default_factory=list)
    constant: dict = field(default_factory=dict)  # {"L": float} and/or {"B": float}
    verdict: str = "inconclusive"
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "case": self.case,
            "f_sups": self.f_sups,
            "divergence": self.divergence,
            "constant": self.constant,
            "verdict": self.verdict,
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class Config:
    """The accuracy knob: cumulative caches are built to ``cum_tol``."""

    cum_tol: float = 1e-10

    def to_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# validation


def probe_grid(interval: Interval):
    """1024 interior probe points, geometrically graded toward hard endpoints."""
    lo, hi = interval.capped_ends()
    return graded_grid(lo, hi, 1024, include_lo=interval.lower.included, include_hi=interval.upper.included)


def validate_problem(p: OscillatorProblem):
    """Check the standing hypotheses on a probe grid and the domain's anchor; violations are data.

    Every cumulative cache starts at the anchor, which the probe grid misses
    on a symmetric interval.
    """
    violations = []
    grid = np.union1d(probe_grid(p.domain), [p.domain.default_anchor()])
    for which in _COEFFICIENTS:
        with np.errstate(all="ignore"):
            vals = p.fn(which)(grid)
        bad = ~(np.isfinite(vals.real) & np.isfinite(vals.imag))
        if np.any(bad):
            violations.append(
                {
                    "kind": "evaluation",
                    "which": which,
                    "detail": f"non-finite at {int(np.sum(bad))} probe points",
                    "first_t": float(grid[bad][0]),
                }
            )
        if which == "alpha":
            tiny = np.abs(vals) < 1e-300
            sign_flip = False
            if np.all(np.abs(vals.imag) < 1e-12 * (1 + np.abs(vals.real))):
                re = vals.real[np.isfinite(vals.real)]
                sign_flip = re.size > 1 and (np.min(np.sign(re)) < np.max(np.sign(re)))
            if np.any(tiny) or sign_flip:
                t_bad = float(grid[tiny][0]) if np.any(tiny) else None
                violations.append(
                    {
                        "kind": "alpha_zero",
                        "which": "alpha",
                        "detail": "alpha vanishes or changes sign on the probe grid",
                        "first_t": t_bad,
                    }
                )
    return violations


# ---------------------------------------------------------------------------
# JSON mapping (schema lives in ulamstab/schemas/problem.schema.json)


def _endpoint_from_json(value, closed):
    if value == "-inf":
        v = -math.inf
    elif value == "inf":
        v = math.inf
    else:
        v = float(value)
    return Endpoint(v, bool(closed))


def _endpoint_to_json(e: Endpoint):
    if e.value == -math.inf:
        return "-inf"
    if e.value == math.inf:
        return "inf"
    return e.value


def problem_from_dict(d: dict) -> OscillatorProblem:
    """Build the problem, with its optional ``rho``, from JSON data."""
    params = {k: float(v) for k, v in d.get("params", {}).items()}
    iv = d["interval"]
    domain = Interval(
        _endpoint_from_json(iv["lower"], iv.get("lower_closed", False)),
        _endpoint_from_json(iv["upper"], iv.get("upper_closed", False)),
    )
    problem = OscillatorProblem(
        alpha=exprlang.parse(d["alpha"]),
        beta=exprlang.parse(d["beta"]),
        gamma=exprlang.parse(d["gamma"]),
        forcing=exprlang.parse(d.get("forcing", "0")),
        domain=domain,
        params=params,
        name=d.get("name", ""),
        rho=exprlang.parse(d["rho"]) if d.get("rho") else None,
    )
    return problem


def problem_to_dict(p: OscillatorProblem, rho=None) -> dict:
    """The document of ``p``, with ``rho`` or else the problem's own companion."""
    rho = p.rho if rho is None else rho
    out = {
        "alpha": exprlang.to_string(p.alpha),
        "beta": exprlang.to_string(p.beta),
        "gamma": exprlang.to_string(p.gamma),
        "forcing": exprlang.to_string(p.forcing),
        "interval": {
            "lower": _endpoint_to_json(p.domain.lower),
            "upper": _endpoint_to_json(p.domain.upper),
            "lower_closed": p.domain.lower.included,
            "upper_closed": p.domain.upper.included,
        },
        "params": dict(p.params),
    }
    if p.name:
        out["name"] = p.name
    if rho is not None:
        out["rho"] = exprlang.to_string(rho)
    return out
