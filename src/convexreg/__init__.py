"""Univariate convex least-squares regression on [0, 1].

Solver with cumulative-sum optimality certificates, characterization
diagnostics, boundary and argmin estimators, and Monte Carlo harnesses for
rate-of-convergence and limit-process studies.

The public names are resolved on first access, so ``import convexreg`` (or
``import convexreg.cli`` for a fit) loads only the modules it uses: the
study stack and ``numpy.random`` stay unloaded until a study name is read.
"""

import importlib

_EXPORTS = {
    "model": (
        "ConvexFit",
        "Dataset",
        "KINK_TOL",
        "KKT_TOL",
        "SCALE_LIMIT",
        "evaluate",
        "left_derivative",
    ),
    "solver": ("KktSums", "SolverError", "SolverTrace", "fit_convex_lse", "kkt_sums"),
    "diagnostics": ("KktReport", "characterization_report"),
    "inference": ("argmin_estimator", "scaling_constants"),
    "simulation": (
        "DEFAULT_RATE_GRID",
        "InvelopeSample",
        "ScenarioSpec",
        "StudyResult",
        "boundary_inconsistency_study",
        "generate_scenario",
        "invelope_study",
        "local_error_study",
        "rate_study",
        "simulate_invelope",
        "true_mean",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
