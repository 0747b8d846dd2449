"""Univariate convex least-squares regression on [0, 1].

Solver with cumulative-sum optimality certificates, characterization
diagnostics, boundary and argmin estimators, and Monte Carlo harnesses for
rate-of-convergence and limit-process studies.
"""

from .model import (
    KINK_TOL,
    KKT_TOL,
    ConvexFit,
    Dataset,
    build_dataset,
    evaluate,
    hinge_representation,
    left_derivative,
)
from .solver import KktSums, SolverError, SolverTrace, fit_convex_lse, kkt_sums
from .diagnostics import (
    GProcess,
    KktReport,
    SegmentReport,
    characterization_report,
    g_process,
    segment_reports,
    tent_functional,
    tent_weight,
)
from .inference import (
    ArgminResult,
    BoundaryDiagnostics,
    LocalEstimates,
    argmin_estimator,
    boundary_diagnostics,
    local_estimates,
    scaling_constants,
)
from .simulation import (
    DEFAULT_RATE_GRID,
    InvelopeSample,
    RateStudyResult,
    ScenarioSpec,
    boundary_inconsistency_study,
    generate_scenario,
    invelope_study,
    local_error_study,
    rate_study,
    simulate_affine_invelope,
    simulate_invelope,
    true_mean,
)

__version__ = "0.1.0"

__all__ = [
    "ConvexFit",
    "Dataset",
    "KINK_TOL",
    "KKT_TOL",
    "build_dataset",
    "evaluate",
    "hinge_representation",
    "left_derivative",
    "KktSums",
    "SolverError",
    "SolverTrace",
    "fit_convex_lse",
    "kkt_sums",
    "GProcess",
    "KktReport",
    "SegmentReport",
    "characterization_report",
    "g_process",
    "segment_reports",
    "tent_functional",
    "tent_weight",
    "ArgminResult",
    "BoundaryDiagnostics",
    "LocalEstimates",
    "argmin_estimator",
    "boundary_diagnostics",
    "local_estimates",
    "scaling_constants",
    "DEFAULT_RATE_GRID",
    "InvelopeSample",
    "RateStudyResult",
    "ScenarioSpec",
    "boundary_inconsistency_study",
    "generate_scenario",
    "invelope_study",
    "local_error_study",
    "rate_study",
    "simulate_affine_invelope",
    "simulate_invelope",
    "true_mean",
    "__version__",
]
