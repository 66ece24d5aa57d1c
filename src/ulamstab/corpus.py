"""Built-in example problems with analytic targets.

Nine oscillators with known Riccati solutions and closed-form best Ulam
constants (or known instability witnesses).  The corpus doubles as the
regression suite behind ``ulamstab corpus run`` and as ready-made input
documents for the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import dynamics, stability
from .model import Config, problem_from_dict

__all__ = ["Variant", "CorpusEntry", "entries", "build", "check_variant", "run_all"]

B_RELTOL = 1e-4
F_SUP_TOL = 1e-6


@dataclass(frozen=True)
class Variant:
    """One concrete parameterization of a corpus entry."""

    label: str
    data: dict  # ProblemFile-shaped document, rho included
    expected_case: str
    expected_B: float | None
    f_sup_targets: tuple = ()  # of (f-name, analytic sup)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    description: str
    expected_verdict: str  # "best_constant" | "instability_evidence"
    witness: str | None  # approximate-solution family in t, parameter eps
    variants: tuple

    @property
    def default(self) -> Variant:
        return self.variants[0]


def _data(alpha, beta, gamma, forcing, lo, hi, rho, name, params=None):
    def ep(v):
        if v == math.inf:
            return "inf"
        if v == -math.inf:
            return "-inf"
        return v

    return {
        "name": name,
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "forcing": forcing,
        "interval": {"lower": ep(lo), "upper": ep(hi), "lower_closed": False, "upper_closed": False},
        "rho": rho,
        "params": dict(params or {}),
    }


def _exeq03_variant(sigma):
    return Variant(
        label=f"sigma={sigma}",
        data=_data("1", "2/t", "0", "-1", 0.0, sigma, "-1/t", "exeq03"),
        expected_case="iii",
        expected_B=sigma * sigma / 6.0,
    )


def _exeq04_variant(sigma):
    return Variant(
        label=f"sigma={sigma}",
        data=_data("1", "2/t", "1", "0", 0.0, sigma, "-tan(t) - 1/t", "exeq04"),
        expected_case="iii",
        expected_B=1.0 - math.sin(sigma) / sigma,
    )


def _exeq06_variant(a, b, sigma):
    return Variant(
        label=f"a={a} b={b} sigma={sigma}",
        data=_data(
            "t^(1 - a)",
            "b*t^(-a)",
            "(b - 2)*t^(-1 - a)",
            "0",
            0.0,
            sigma,
            "-1/t",
            "exeq06",
            params={"a": a, "b": b},
        ),
        expected_case="iii",
        expected_B=sigma ** (a + 1.0) / ((a + 2.0) * (a + b - 1.0)),
    )


def _const_variant(name, a0, a1, a2, rho, case, span=40.0):
    b = stability.constant_coefficients(a0, a1, a2)["B"]
    return Variant(
        label=f"({a0},{a1},{a2})",
        data=_data(str(a0), str(a1), str(a2), "0", -span, span, rho, name),
        expected_case=case,
        expected_B=b,
    )


_ENTRIES = (
    CorpusEntry(
        name="exeq01",
        description="t(1-t)x'' + (2-t)x' + x = f on (0,1)",
        expected_verdict="best_constant",
        witness=None,
        variants=(
            Variant(
                label="default",
                data=_data("t*(1 - t)", "2 - t", "1", "0", 0.0, 1.0, "-1/t", "exeq01"),
                expected_case="iii",
                expected_B=0.5,
                f_sup_targets=(("f3", 0.5), ("f4", 1.0)),
            ),
        ),
    ),
    CorpusEntry(
        name="exeq02",
        description="x'' + (2/t)x' = -1 on (1,inf); not Ulam stable",
        expected_verdict="instability_evidence",
        witness="(eps - 1)*t^2/6",
        variants=(
            Variant(
                label="default",
                data=_data("1", "2/t", "0", "-1", 1.0, math.inf, "-1/t", "exeq02"),
                expected_case="none",
                expected_B=None,
            ),
        ),
    ),
    CorpusEntry(
        name="exeq03",
        description="x'' + (2/t)x' = -1 on (0,sigma); B = sigma^2/6",
        expected_verdict="best_constant",
        witness=None,
        variants=tuple(_exeq03_variant(s) for s in (1.0, 0.5, 2.0)),
    ),
    CorpusEntry(
        name="exeq04",
        description="x'' + (2/t)x' + x = f on (0,sigma), sigma < pi/2; B = 1 - sin(sigma)/sigma",
        expected_verdict="best_constant",
        witness=None,
        variants=tuple(_exeq04_variant(s) for s in (1.0, 0.5, 1.5)),
    ),
    CorpusEntry(
        name="exeq05",
        description="x'' + (2/t)x' + x = f on (0,inf); not Ulam stable",
        expected_verdict="instability_evidence",
        witness="eps/(8*t)*(cos(t) + 2*t*sin(t) - 2*t^2*cos(t))",
        variants=(
            Variant(
                label="default",
                data=_data("1", "2/t", "1", "0", 0.0, math.inf, "-tan(t) - 1/t", "exeq05"),
                expected_case="none",
                expected_B=None,
            ),
        ),
    ),
    CorpusEntry(
        name="exeq06",
        description="t^(1-a)x'' + b t^(-a) x' + (b-2)t^(-1-a) x = f on (0,sigma)",
        expected_verdict="best_constant",
        witness=None,
        variants=tuple(_exeq06_variant(a, b, s) for (a, b, s) in ((1.0, 2.0, 1.0), (0.5, 1.5, 1.0), (2.0, 2.0, 0.5))),
    ),
    CorpusEntry(
        name="const-iii",
        description="x'' + 3x' + 2x = f, real negative roots (case iii)",
        expected_verdict="best_constant",
        witness=None,
        variants=(_const_variant("const-iii", 1.0, 3.0, 2.0, "-2", "iii"),),
    ),
    CorpusEntry(
        name="const-ii",
        description="2x'' - 2x' - 4x = f, roots of mixed sign (case ii)",
        expected_verdict="best_constant",
        witness=None,
        variants=(_const_variant("const-ii", 2.0, -2.0, -4.0, "-1", "ii"),),
    ),
    CorpusEntry(
        name="const-i",
        description="x'' - 3x' + 2x = f, real positive roots (case i)",
        expected_verdict="best_constant",
        witness=None,
        variants=(_const_variant("const-i", 1.0, -3.0, 2.0, "1", "i"),),
    ),
)


def entries():
    return _ENTRIES


def build(variant: Variant):
    """Instantiate (problem, rho expression) from a variant's document."""
    problem = problem_from_dict(variant.data)
    return problem, problem.rho


def check_variant(entry: CorpusEntry, variant: Variant, config: Config = Config()):
    """Run the full pipeline on one variant and compare to analytic targets."""
    problem, rho = build(variant)
    result = {"name": entry.name, "label": variant.label, "passed": True, "detail": {}}

    if entry.expected_verdict == "best_constant":
        engine = stability.StabilityEngine(problem, rho, config)
        report = stability.analyze(problem, rho, config, best=True, engine=engine)
        b = report.constant.get("B")
        rel = abs(b - variant.expected_B) / abs(variant.expected_B) if b is not None else math.inf
        result["detail"] = {
            "case": report.case,
            "verdict": report.verdict,
            "B": b,
            "expected_B": variant.expected_B,
            "rel_error": rel if math.isfinite(rel) else None,
        }
        ok = report.case == variant.expected_case and report.verdict == "best_constant" and rel <= B_RELTOL
        if variant.f_sup_targets:
            sups = {}
            for fname, target in variant.f_sup_targets:
                res, _ = engine.f_sup(fname)
                sups[fname] = {"value": res.sup_value, "target": target}
                ok = ok and abs(res.sup_value - target) <= F_SUP_TOL
            result["detail"]["f_sups"] = sups
        result["passed"] = bool(ok)
    else:
        report = stability.analyze(problem, rho, config, best=True)
        probe, evidenced = dynamics.instability_evidence(problem, entry.witness)
        result["detail"] = {
            "verdict": report.verdict,
            "residual_sup": probe["residual_sup"],
            "growth_ok": probe["growth_ok"],
            "trace": probe["trace"],
        }
        result["passed"] = bool(report.verdict != "best_constant" and evidenced)
    return result


def run_all(config: Config = Config()):
    """Check every corpus variant; returns the per-variant result list."""
    return [check_variant(entry, variant, config) for entry in _ENTRIES for variant in entry.variants]
