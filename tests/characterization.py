"""The tent functional and the segment sign conditions, characterization
checks for tests.

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

:func:`segment_signs` gives, for every affine piece of a fit, the residual
sums whose signs an optimal fit fixes.  They are differences of the same
certificate sums, so the report bounds them too.
"""

from dataclasses import dataclass

import numpy as np

from convexreg import Dataset
from convexreg.diagnostics import _fit_view
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


@dataclass(frozen=True)
class SegmentSigns:
    """Residual sums over one affine piece, in the observed-minus-fitted
    orientation.

    ``t1``/``t2`` are the closed-interval sums (plain and x-weighted); for an
    optimal fit both are nonpositive, while the open-interval versions are
    nonnegative and the weighted endpoint residuals are nonpositive.
    """

    u: float
    v: float
    first_index: int
    last_index: int
    t1: float
    t2: float
    open_t1: float
    open_t2: float
    endpoint_resid_u: float
    endpoint_resid_v: float


def segment_signs(dataset: Dataset, fit_or_values) -> list[SegmentSigns]:
    """One record per maximal affine piece of the fit (kink-to-kink runs,
    boundary pieces included); a raw array gets its ``kink_indices`` at the
    dataset's kink threshold."""
    fitted, kinks = _fit_view(dataset, fit_or_values)
    x, w = dataset.x, dataset.weights
    resid = dataset.y - fitted
    boundaries = [0, *kinks, dataset.n - 1]
    records = []
    for k1, k2 in zip(boundaries[:-1], boundaries[1:]):
        closed, inner = slice(k1, k2 + 1), slice(k1 + 1, k2)
        records.append(SegmentSigns(
            u=float(x[k1]), v=float(x[k2]), first_index=k1, last_index=k2,
            t1=float(np.sum(w[closed] * resid[closed])),
            t2=float(np.sum(w[closed] * x[closed] * resid[closed])),
            open_t1=float(np.sum(w[inner] * resid[inner])),
            open_t2=float(np.sum(w[inner] * x[inner] * resid[inner])),
            endpoint_resid_u=float(resid[k1] * w[k1]),
            endpoint_resid_v=float(resid[k2] * w[k2]),
        ))
    return records
