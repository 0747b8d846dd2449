"""Core data model for univariate convex least-squares regression on [0, 1].

Datasets keep the design sorted, with exact duplicate abscissae merged into
weighted points (weight = multiplicity, response = weighted mean); merging
keeps every divided-difference denominator nonzero while the weighted
problem has the same optimum as the original one.  ``Dataset(...)`` is the
one checked constructor: ``Dataset.from_arrays`` sorts and merges raw
(x, y) pairs, then builds through it.

Fits are piecewise linear: values at the design points plus the equivalent
hinge form

    value(t) = intercept + base_slope * t + sum_j coeff_j * max(t - x_j, 0)

with strictly positive hinge coefficients.  Between design points the fit is
the linear interpolant; outside [x_1, x_n] the boundary segments continue
linearly.  All types are frozen and all functions are pure, so values can be
shared freely across threads.
"""

import operator

import numpy as np
from dataclasses import dataclass

_EPS = float(np.finfo(float).eps)


def _frozen_array(values, dtype=float):
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


# Certificate tolerance: the cumulative-sum conditions hold within KKT_TOL
# once normalized by ``total_weight * (1 + max|y|)``, which makes it
# scale-free.  KINK_TOL times ``1 + max|y|`` (no total-weight factor) is the
# slope change below which adjacent segments are reported as one affine piece.
KKT_TOL = 1e-8
KINK_TOL = 1e-7

# Largest accepted ``total_weight * (1 + max|v|)**2`` for a dataset's responses
# and a raw fitted column: it bounds the objective, the certificate scale and
# the orthogonality normalizer, about 1e8 below the largest double.
SCALE_LIMIT = 1e300


def check_kkt_tol(kkt_tol: float) -> None:
    """Reject a certificate tolerance that is not strictly positive and finite."""
    if not (0.0 < kkt_tol < np.inf):
        raise ValueError("kkt_tol must be strictly positive and finite")


def _check_scale(weights: np.ndarray, values: np.ndarray, name: str) -> None:
    """Reject finite ``values`` whose ``total_weight * (1 + max|v|)**2``
    exceeds :data:`SCALE_LIMIT`."""
    top = 1.0 + float(np.max(np.abs(values)))
    if float(weights.sum()) * top * top > SCALE_LIMIT:
        raise ValueError(f"{name} too large: total_weight * (1 + max|{name}|)^2 "
                         f"must not exceed {SCALE_LIMIT:g}")


@dataclass(frozen=True)
class Dataset:
    """Sorted design points in [0, 1] with responses and merge weights."""

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = _frozen_array(self.x)
        y = _frozen_array(self.y)
        w = _frozen_array(self.weights)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "weights", w)
        if x.ndim != 1 or x.shape != y.shape or x.shape != w.shape:
            raise ValueError("x, y and weights must be 1-d arrays of equal length")
        if x.size < 2:
            raise ValueError("need at least 2 distinct design points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(w))):
            raise ValueError("non-finite values in dataset")
        if x[0] < 0.0 or x[-1] > 1.0:
            raise ValueError("design points must lie in [0, 1]")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("design points must be strictly increasing (merge duplicates first)")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        _check_scale(w, y, "y")

    @property
    def n(self) -> int:
        return int(self.x.size)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def response_scale(self) -> float:
        """Scale-free normalizer 1 + max|y| used by every default tolerance."""
        return 1.0 + float(np.max(np.abs(self.y)))

    @property
    def kink_threshold(self) -> float:
        """Absolute slope change above which a bend is a kink."""
        return KINK_TOL * self.response_scale

    @classmethod
    def from_arrays(cls, x, y) -> "Dataset":
        """Sort (x, y) pairs and merge duplicate x into weighted mean points;
        the result is built by ``Dataset(...)``, which checks it."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite values in input points")
        order = x.argsort()
        xs = x[order]
        if xs.size >= 2 and np.logical_and.reduce(xs[1:] > xs[:-1]):
            # distinct abscissae: what the merge below returns, without the
            # grouping (bincount sums each lone y onto 0.0 and divides by 1)
            return cls(xs, y[order] + 0.0, np.ones(xs.size))
        xs, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
        return cls(xs, np.bincount(inverse, weights=y) / counts, counts)


# ---------------------------------------------------------------------------
# piecewise-linear machinery shared by fits and raw fitted-value arrays
# ---------------------------------------------------------------------------

def segment_slopes(x, values):
    return np.diff(np.asarray(values, dtype=float)) / np.diff(np.asarray(x, dtype=float))


def slope_increments(x, values):
    """Slope increments at the interior design points and their float floor
    ``4 eps (1 + max|v|) (1/g_left + 1/g_right)``, the roundoff of the two
    adjacent divided differences: an increment at or below it is no bend."""
    g = np.diff(np.asarray(x, dtype=float))
    scale = 1.0 + float(np.max(np.abs(values)))
    floor = 4.0 * _EPS * scale * (1.0 / g[:-1] + 1.0 / g[1:])
    return np.diff(segment_slopes(x, values)), floor


def kink_indices(x, values, threshold: float) -> tuple[int, ...]:
    """Kinks of a value array: slope increments above floor and threshold."""
    increments, floor = slope_increments(x, values)
    return tuple(int(i) + 1 for i in np.flatnonzero((increments > floor) & (increments > threshold)))


def cone_violation(x, values) -> float:
    """Worst decrease of consecutive segment slopes beyond their float floor:
    nonpositive when the values are convex at double-precision resolution."""
    if np.size(x) < 3:
        return 0.0
    increments, floor = slope_increments(x, values)
    return float(np.max(-increments - floor))


def _interior_indices(indices, n: int, name: str) -> tuple[int, ...]:
    """``indices`` as ints, checked strictly increasing within [1, n - 2]."""
    try:
        out = tuple(operator.index(k) for k in indices)
    except TypeError as exc:
        raise ValueError(f"{name} must be integers") from exc
    if any(not 1 <= k <= n - 2 for k in out) or any(a >= b for a, b in zip(out, out[1:])):
        raise ValueError(f"{name} must be strictly increasing within [1, n - 2]")
    return out


@dataclass(frozen=True)
class ConvexFit:
    """Convex piecewise-linear fit: design-point values plus hinge form.

    ``kinks`` lists the interior design indices (strictly increasing, within
    [1, n - 2]) whose slope increase exceeds the kink threshold;
    ``hinge_coeffs`` keeps every strictly positive slope increment, at
    indices of the same kind, so that the hinge form reproduces ``fitted``
    up to roundoff (sub-threshold increments stay in the representation but are
    not reported as kinks).  Every value, fitted or hinge, must be finite.
    """

    fitted: np.ndarray
    kinks: tuple[int, ...]
    intercept: float
    base_slope: float
    hinge_coeffs: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "fitted", _frozen_array(self.fitted))
        object.__setattr__(self, "kinks", _interior_indices(self.kinks, self.n, "kinks"))
        hinges = tuple(self.hinge_coeffs)
        indices = _interior_indices([j for j, _ in hinges], self.n, "hinge indices")
        object.__setattr__(
            self, "hinge_coeffs", tuple((j, float(b)) for j, (_, b) in zip(indices, hinges))
        )
        scalars = [self.intercept, self.base_slope, *(b for _, b in self.hinge_coeffs)]
        if not (np.isfinite(self.fitted).all() and np.isfinite(scalars).all()):
            raise ValueError("non-finite values in fit")
        if any(b <= 0.0 for _, b in self.hinge_coeffs):
            raise ValueError("hinge coefficients must be strictly positive")

    @property
    def n(self) -> int:
        return int(self.fitted.size)


def fitted_values(dataset: Dataset, fit_or_values) -> np.ndarray:
    """Fitted values of a :class:`ConvexFit` or a raw array, one per design
    point; a raw array must also be finite and within :data:`SCALE_LIMIT`."""
    raw = not isinstance(fit_or_values, ConvexFit)
    values = np.asarray(fit_or_values, dtype=float) if raw else fit_or_values.fitted
    if values.shape != dataset.x.shape:
        raise ValueError("fitted values must match the dataset length")
    if raw:
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite fitted values")
        _check_scale(dataset.weights, values, "fitted")
    return values


def _check_domain(t):
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValueError("evaluation points must lie in [0, 1]")
    return t


def evaluate(fit: ConvexFit, dataset: Dataset, t):
    """Fitted value at t in [0, 1]: interpolation inside the design hull,
    linear continuation of the boundary segments outside."""
    fitted = fitted_values(dataset, fit)
    t = _check_domain(t)
    x = dataset.x
    out = np.interp(t, x, fitted)
    left = t < x[0]
    right = t > x[-1]
    if np.any(left):
        out = np.where(left, fitted[0] + _slope(x, fitted, 0) * (t - x[0]), out)
    if np.any(right):
        out = np.where(right, fitted[-1] + _slope(x, fitted, x.size - 2) * (t - x[-1]), out)
    return float(out) if np.ndim(t) == 0 else out


def left_derivative(fit: ConvexFit, dataset: Dataset, t):
    """Left derivative of the fit at t; equals the first segment slope for
    t <= x_1 and the last segment slope for t > x_n.  Nondecreasing in t."""
    fitted = fitted_values(dataset, fit)
    t = _check_domain(t)
    x = dataset.x
    s = _slope(x, fitted, np.clip(np.searchsorted(x, t, side="left") - 1, 0, x.size - 2))
    return float(s) if np.ndim(t) == 0 else s


def _slope(x, values, i):
    """Slope of segment i (an index or an index array), the same operations
    as :func:`segment_slopes` on just the segments a point query reads."""
    return (values[i + 1] - values[i]) / (x[i + 1] - x[i])

