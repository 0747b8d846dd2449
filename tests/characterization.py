"""The tent perturbation functional, a characterization check for tests.

For u < v, the tent weight is 1 outside [u, v] and dips linearly to -1 at
the midpoint; the tent functional is the weighted average of the residuals
y - fit against it.  Its value at a pair of kinks of an optimal fit is
nonpositive.  It is a function of the certificate sums alone: with G the gap
process (``kkt_sums(...).cum`` at the design points, 0 left of x[0], linear
between design points and of slope ``total_gap`` right of x[n-1]), h = v - u,
m = (u + v) / 2 and W the total weight,

    tent_functional(u, v) = -(total_gap + (4/h) (2 G(m) - G(u) - G(v))) / W,

so ``characterization_report``, which bounds those sums, bounds it too and
the functional adds no power to reject a fit.  ``test_diagnostics.py``
checks the identity and the bound.
"""

import numpy as np

from convexreg import Dataset
from convexreg.model import fitted_values


def tent_weight(u: float, v: float, x):
    """Tent-shaped perturbation weight: 1 outside [u, v], dipping to -1 at the
    midpoint, with value 1 at u and v."""
    x = np.asarray(x, dtype=float)
    return 1.0 - np.maximum(2.0 - (4.0 / (v - u)) * np.abs(x - 0.5 * (u + v)), 0.0)


def tent_functional(dataset: Dataset, fit_or_values, u: float, v: float) -> float:
    """Average residual against the tent perturbation over [u, v].

    Nonpositive whenever u < v are both kinks of an optimal fit; for other
    (u, v) the value is informational only.
    """
    if not (u < v):
        raise ValueError("need u < v")
    if u < 0.0 or v > 1.0:
        raise ValueError("u and v must lie in [0, 1]")
    resid = dataset.y - fitted_values(dataset, fit_or_values)
    f = tent_weight(u, v, dataset.x)
    return float(np.sum(dataset.weights * f * resid) / dataset.total_weight)
