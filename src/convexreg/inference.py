"""Consumer-facing estimators built on a certified fit.

The argmin estimator (smallest design point attaining the minimum fitted
value), boundary values and slopes obtained by linear continuation of the
first and last segments, and the deterministic scaling constants that map
local estimation error into canonical limit coordinates.
"""

import math

import numpy as np
from dataclasses import dataclass

from .model import ConvexFit, Dataset, evaluate, fitted_values, left_derivative

ARGMIN_TIE_TOL = 1e-12  # absolute tie window on fitted values


@dataclass(frozen=True)
class ArgminResult:
    location: float
    value: float
    tie_count: int


@dataclass(frozen=True)
class BoundaryDiagnostics:
    value_at_0: float
    deriv_at_0: float
    value_at_1: float
    deriv_at_1: float


def argmin_estimator(fit: ConvexFit, dataset: Dataset) -> ArgminResult:
    """Smallest design point minimizing the fitted values; ties within
    an absolute 1e-12 window are counted and resolved to the left."""
    fitted = fitted_values(dataset, fit)
    vmin = float(fitted.min())
    ties = np.flatnonzero(fitted <= vmin + ARGMIN_TIE_TOL)
    loc = int(ties[0])
    return ArgminResult(
        location=float(dataset.x[loc]),
        value=float(fitted[loc]),
        tie_count=int(ties.size),
    )


def boundary_diagnostics(fit: ConvexFit, dataset: Dataset) -> BoundaryDiagnostics:
    """Values and one-sided slopes at 0 and 1 from the boundary segments:
    the evaluators continue them linearly outside the design."""
    return BoundaryDiagnostics(
        value_at_0=evaluate(fit, dataset, 0.0),
        deriv_at_0=left_derivative(fit, dataset, 0.0),
        value_at_1=evaluate(fit, dataset, 1.0),
        deriv_at_1=left_derivative(fit, dataset, 1.0),
    )


def scaling_constants(r: int, sigma: float, mu_r_at_x0: float) -> tuple[float, float]:
    """Deterministic constants (d1, d2) normalizing the local error of the
    fit and of its derivative into canonical limit coordinates:

        d1 = ((r+2)! / (sigma^(2r) * mu_r))^(1/(2r+1))
        d2 = (((r+2)!)^3 / (sigma^(2r-2) * mu_r^3))^(1/(2r+1))

    where mu_r is the (strictly positive) r-th derivative of the true mean
    at the point of interest and r >= 2 is even.  The sigma powers balance
    the noise against the drift; at r = 2 they give Groeneboom, Jongbloed
    and Wellner's (2001) c1 = (24 / (sigma^4 f''))^(1/5) and
    c2 = (24^3 / (sigma^2 f''^3))^(1/5).
    """
    if r < 2 or r % 2 != 0:
        raise ValueError("r must be an even integer >= 2")
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be strictly positive and finite")
    if not 0.0 < mu_r_at_x0 < math.inf:
        raise ValueError("the r-th derivative at the point must be strictly positive and finite")
    fact = math.factorial(r + 2)
    root = 1.0 / (2 * r + 1)
    d1 = (fact / (sigma ** (2 * r) * mu_r_at_x0)) ** root
    d2 = (fact ** 3 / (sigma ** (2 * r - 2) * mu_r_at_x0 ** 3)) ** root
    return d1, d2

