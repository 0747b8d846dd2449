"""Consumer-facing estimators built on a certified fit.

The argmin estimator (the smallest design point attaining the minimum
fitted value) and the deterministic scaling constants that map local
estimation error into canonical limit coordinates.  The boundary values
and slopes are ``evaluate`` and ``left_derivative`` at 0 and 1.
"""

import math

import numpy as np

from .model import ConvexFit, Dataset, fitted_values

ARGMIN_TIE_TOL = 1e-12  # absolute tie window on fitted values


def argmin_estimator(fit: ConvexFit, dataset: Dataset) -> float:
    """Smallest design point minimizing the fitted values; ties within
    an absolute 1e-12 window resolve to the left."""
    fitted = fitted_values(dataset, fit)
    return float(dataset.x[np.flatnonzero(fitted <= fitted.min() + ARGMIN_TIE_TOL)[0]])


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

