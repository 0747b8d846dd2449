"""Active-set solver for the convex least-squares fit.

The fit is the projection of the response vector onto the polyhedral cone of
sequences with nondecreasing divided differences.  The solver works over
candidate kink sets: starting from the global affine fit it repeatedly solves
the unconstrained hinge regression on the current kink set, adds the design
index whose cumulative certificate sum is most negative, and resolves
feasibility by a line search toward the new coefficients, dropping hinges
whose coefficients reach zero (most binding first).  Termination is certified
by the cumulative-sum conditions themselves, not by the iteration path:

    cum[p] = sum_{k < p} (prefix_fitted_k - prefix_response_k) * (x_{k+1} - x_k)

must be nonnegative for every p and zero at every kink and at the right end,
and the total fitted mass must match the total response mass.  All sums carry
the dataset weights so merged duplicate points count with their multiplicity.

Each solve fits the least-squares linear spline whose knots are the current
kinks, in the hat (linear B-spline) basis: the unknowns are its values at
x[0], the kinks and x[n-1], and the normal equations are tridiagonal.  They
are assembled from segment moments taken in local coordinates and cached
across solves, then solved by an O(k) Thomas sweep.  Every node is a design
point, so the system is positive definite and needs no condition check or
fallback.  The node values are converted to the hinge form that the line
search and the certificate use.
"""

import numpy as np
from dataclasses import dataclass

from .model import (
    ConvexFit,
    Dataset,
    DEFAULT_CONFIG,
    ToleranceConfig,
    _EPS,
)

_TIE_WINDOW = 1e-12


@dataclass(frozen=True)
class KktSums:
    """Cumulative certificate sums for a (dataset, fitted) pair.

    ``cum[p-1]`` is the weighted sum over prefixes ending before design point
    p (p = 1..n-1); ``total_gap`` is the difference between total fitted and
    total response mass.  A fit is optimal iff total_gap == 0, every entry of
    ``cum`` is nonnegative, and entries at kinks and at p = n-1 vanish.
    """

    cum: np.ndarray
    total_gap: float

    def __post_init__(self):
        c = np.asarray(self.cum, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "cum", c)


@dataclass(frozen=True)
class SolverTrace:
    iterations: int
    kink_history: tuple[tuple[int, ...], ...]
    final_objective: float
    certificate: KktSums


class SolverError(RuntimeError):
    """Raised when the solver cannot certify a fit; carries the trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


def kkt_sums(dataset: Dataset, fit_or_values) -> KktSums:
    """Exact cumulative certificate sums for any fitted-value vector."""
    fitted = _fitted_of(fit_or_values)
    if fitted.shape != dataset.x.shape:
        raise ValueError("fitted values must match the dataset length")
    excess = dataset.weights * (fitted - dataset.y)
    prefix = np.cumsum(excess)
    cum = np.cumsum(prefix[:-1] * np.diff(dataset.x))
    return KktSums(cum=cum, total_gap=float(prefix[-1]))


def certificate_scale(dataset: Dataset) -> float:
    """Normalizer for certificate sums: total weight times (1 + max|y|)."""
    return dataset.total_weight * dataset.response_scale


def _fitted_of(fit_or_values) -> np.ndarray:
    if isinstance(fit_or_values, ConvexFit):
        return fit_or_values.fitted
    return np.asarray(fit_or_values, dtype=float)


class _HingeSystem:
    """Weighted least-squares linear spline on a kink set, in the hat basis.

    Segment s runs between consecutive nodes t_s < t_{s+1} and owns the
    design points from t_s up to, not including, t_{s+1} (the last segment
    also owns x[n-1]).  With u = (x - t_s) / h_s and v = (t_{s+1} - x) / h_s
    it contributes the moments sum w*v^2, w*u*v, w*u^2, w*y*v and w*y*u to
    the tridiagonal normal equations.  The local coordinate keeps them
    accurate on near-zero gaps, where expanding raw power sums of x cancels.
    Moments are cached by (start, end) node pair: a kink entering or leaving
    changes at most two segments, so a solve reuses all the others.

    Each node is a design point with positive weight, so the system is
    positive definite on every kink set and there is no ill-conditioned case
    for a fallback solve to catch; rounding that spoiled a fit would still
    fail the certificate, which raises :class:`SolverError`.
    """

    def __init__(self, dataset: Dataset):
        self.x = dataset.x
        self.y = dataset.y
        self.w = dataset.weights
        self.n = self.x.size
        self._moments = {}

    def _segment_moments(self, start: int, end: int) -> tuple:
        stop = end + 1 if end == self.n - 1 else end
        xs = self.x[start:stop]
        ws = self.w[start:stop]
        ys = self.y[start:stop]
        left, right = self.x[start], self.x[end]
        gap = right - left
        u = (xs - left) / gap
        v = (right - xs) / gap
        wu = ws * u
        wv = ws * v
        # elementwise products and np.sum rather than dot: no BLAS call
        return (
            float(np.sum(wv * v)),
            float(np.sum(wu * v)),
            float(np.sum(wu * u)),
            float(np.sum(wv * ys)),
            float(np.sum(wu * ys)),
        )

    def solve(self, kinks: np.ndarray) -> np.ndarray:
        """Coefficients (intercept, base slope, hinge coeffs) on a kink set."""
        nodes = np.concatenate(([0], kinks, [self.n - 1]))
        ends = nodes.tolist()
        rows = []
        for key in zip(ends, ends[1:]):
            row = self._moments.get(key)
            if row is None:
                row = self._moments[key] = self._segment_moments(*key)
            rows.append(row)
        vv, uv, uu, yv, yu = zip(*rows)
        # a node gathers the u-terms of the segment ending at it and the
        # v-terms of the segment starting at it
        diag = [a + b for a, b in zip((0.0, *uu), (*vv, 0.0))]
        rhs = [a + b for a, b in zip((0.0, *yu), (*yv, 0.0))]
        # Thomas sweep; positive definiteness keeps every pivot positive
        pivot, reduced = diag[0], rhs[0]
        pivots, reduceds = [pivot], [reduced]
        for off, d, r in zip(uv, diag[1:], rhs[1:]):
            factor = off / pivot
            pivot = d - factor * off
            reduced = r - factor * reduced
            pivots.append(pivot)
            reduceds.append(reduced)
        value = reduced / pivot
        values = [value]
        for off, pivot, reduced in zip(reversed(uv), pivots[-2::-1], reduceds[-2::-1]):
            value = (reduced - off * value) / pivot
            values.append(value)
        values = np.array(values[::-1])
        knots = self.x[nodes]
        slopes = np.diff(values) / np.diff(knots)
        coef = np.empty(nodes.size)
        coef[0] = values[0] - slopes[0] * knots[0]
        coef[1] = slopes[0]
        coef[2:] = np.diff(slopes)
        return coef

    def fitted(self, kinks: np.ndarray, coef: np.ndarray) -> np.ndarray:
        # forward recurrence over segments: value increments are slope * gap,
        # so recomputed divided differences stay within local rounding even
        # across tiny design gaps (a direct hinge-sum evaluation cancels
        # catastrophically there)
        slopes = np.full(self.n - 1, coef[1])
        if kinks.size:
            bends = np.zeros(self.n - 1)
            bends[kinks] = coef[2:]
            slopes += np.cumsum(bends)
        out = np.empty(self.n)
        out[0] = coef[0] + coef[1] * self.x[0]
        np.cumsum(slopes * np.diff(self.x), out=out[1:])
        out[1:] += out[0]
        return out


def _certificate_report(dataset, fitted, kinks, kkt_tol):
    sums = kkt_sums(dataset, fitted)
    scale = certificate_scale(dataset)
    cum_norm = sums.cum / scale
    checks = {
        "min_cum": float(cum_norm.min()) if cum_norm.size else 0.0,
        "total_gap": abs(sums.total_gap) / scale,
        "end_eq": abs(cum_norm[-1]) if cum_norm.size else 0.0,
        "kink_eq": float(np.max(np.abs(cum_norm[np.asarray(kinks, dtype=int) - 1])))
        if len(kinks)
        else 0.0,
    }
    ok = (
        checks["min_cum"] >= -kkt_tol
        and checks["total_gap"] <= kkt_tol
        and checks["end_eq"] <= kkt_tol
        and checks["kink_eq"] <= kkt_tol
    )
    return sums, checks, ok


def fit_convex_lse(dataset: Dataset, config: ToleranceConfig = DEFAULT_CONFIG):
    """Fit the convex least-squares estimator.

    Returns ``(ConvexFit, SolverTrace)``.  The returned fit is certified: the
    cumulative-sum conditions hold within ``config.kkt_tol`` after
    normalization by ``total_weight * (1 + max|y|)``; certification failure
    raises :class:`SolverError` with the trace attached.
    """
    x, y, w = dataset.x, dataset.y, dataset.weights
    n = dataset.n
    system = _HingeSystem(dataset)
    scale = certificate_scale(dataset)
    budget = config.iteration_budget(n)
    # stop well below kkt_tol (floored by accumulated roundoff) so the
    # certificate and downstream diagnostics keep a clean margin
    stop_tol = max(min(config.kkt_tol, 1e-13), 8.0 * _EPS * n)

    kinks = np.empty(0, dtype=int)
    coeffs = np.empty(0)
    solves = 0
    history = []

    def resolve(current, feasible):
        # line-search drop loop: keep hinge coefficients strictly positive
        nonlocal solves
        for _ in range(current.size + 2):
            if solves >= budget:
                return None, None
            solves += 1
            coef = system.solve(current)
            hinge = coef[2:]
            if hinge.size == 0 or hinge.min() > 0.0:
                return current, coef
            blocked = hinge <= 0.0
            denom = feasible - hinge
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(blocked & (denom > 0.0), feasible / denom, np.inf)
            steps = np.where(blocked & (denom <= 0.0), 0.0, steps)
            alpha = float(steps.min())
            feasible = feasible + alpha * (hinge - feasible)
            keep = feasible > 0.0
            keep[int(np.argmin(steps))] = False
            current = current[keep]
            feasible = feasible[keep]
        return None, None

    kinks, coef = resolve(kinks, coeffs)
    if kinks is None:
        raise SolverError("iteration budget exhausted in initial solve")
    fitted = system.fitted(kinks, coef)
    history.append(tuple(int(j) for j in kinks))

    interior = np.arange(1, n - 1)
    while True:
        sums = kkt_sums(dataset, fitted)
        cum_norm = sums.cum / scale
        candidates = cum_norm[: n - 2] if n > 2 else cum_norm[:0]
        if candidates.size:
            mask = np.ones(n - 2, dtype=bool)
            mask[kinks - 1] = False
            open_vals = np.where(mask, candidates, np.inf)
            worst = float(open_vals.min())
        else:
            worst = 0.0
        if worst >= -stop_tol:
            break
        if solves >= budget:
            trace = SolverTrace(solves, tuple(history), _objective(dataset, fitted), sums)
            raise SolverError(
                f"no convergence within {budget} solves "
                f"(worst normalized violation {worst:.3e})",
                trace,
            )
        # smallest index among near-equal violations, for reproducible traces
        entering = int(interior[np.flatnonzero(open_vals <= worst + _TIE_WINDOW)[0]])
        pos = int(np.searchsorted(kinks, entering))
        trial = np.insert(kinks, pos, entering)
        feasible = np.insert(coef[2:] if kinks.size else np.empty(0), pos, 0.0)
        new_kinks, new_coef = resolve(trial, feasible)
        if new_kinks is None:
            trace = SolverTrace(solves, tuple(history), _objective(dataset, fitted), sums)
            raise SolverError(f"no convergence within {budget} solves", trace)
        if new_kinks.size == kinks.size and np.array_equal(new_kinks, kinks):
            # entering hinge was immediately infeasible at float resolution;
            # no strict progress is possible, certify what we have
            break
        kinks, coef = new_kinks, new_coef
        fitted = system.fitted(kinks, coef)
        history.append(tuple(int(j) for j in kinks))

    sums, checks, ok = _certificate_report(dataset, fitted, kinks, config.kkt_tol)
    objective = _objective(dataset, fitted)
    trace = SolverTrace(solves, tuple(history), objective, sums)
    if not ok:
        raise SolverError(f"certificate failed: {checks}", trace)

    kink_abs = config.kink_tol * dataset.response_scale
    hinge_pairs = tuple((int(j), float(b)) for j, b in zip(kinks, coef[2:]))
    fit = ConvexFit(
        fitted=fitted,
        kinks=tuple(j for j, b in hinge_pairs if b > kink_abs),
        intercept=float(coef[0]),
        base_slope=float(coef[1]),
        hinge_coeffs=hinge_pairs,
    )
    return fit, trace


def _objective(dataset: Dataset, fitted: np.ndarray) -> float:
    r = dataset.y - fitted
    return float(np.sum(dataset.weights * r * r))
