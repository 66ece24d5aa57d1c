"""Ulam stability analysis for second-order linear oscillators.

Decides Ulam stability of alpha(t) x'' + beta(t) x' + gamma(t) x = f(t)
through an associated Riccati solution, computes Ulam constants and
minimal ("best") Ulam constants by nested adaptive quadrature, and
validates them empirically with perturbation experiments.
"""

from .model import (
    CharacteristicRoots,
    Config,
    Endpoint,
    Interval,
    OscillatorProblem,
    StabilityReport,
    problem_from_dict,
    problem_to_dict,
    validate_problem,
)
from .stability import StabilityEngine, analyze, constant_coefficients
from .riccati import NumericSolution, residual_sup, rho_coverage, solve_riccati

# re-exported from `dynamics`, which is loaded on first use of one of them
_DYNAMICS = frozenset(
    {
        "IvpData",
        "SolutionEngine",
        "SolutionFamilyParams",
        "extremal_experiment",
        "instability_probe",
        "nearest_solution",
        "random_perturbation_test",
    }
)


def __getattr__(name):
    if name in _DYNAMICS:
        from . import dynamics

        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "0.1.0"

__all__ = [
    "CharacteristicRoots",
    "Config",
    "Endpoint",
    "Interval",
    "IvpData",
    "NumericSolution",
    "OscillatorProblem",
    "SolutionEngine",
    "SolutionFamilyParams",
    "StabilityEngine",
    "StabilityReport",
    "analyze",
    "constant_coefficients",
    "extremal_experiment",
    "instability_probe",
    "nearest_solution",
    "problem_from_dict",
    "problem_to_dict",
    "random_perturbation_test",
    "residual_sup",
    "rho_coverage",
    "solve_riccati",
    "validate_problem",
    "__version__",
]
