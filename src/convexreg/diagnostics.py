"""Directly computable optimality diagnostics for a convex fit.

Everything here evaluates the finite-sample characterization of a
(dataset, fit) pair as one aggregate pass/fail report.  It accepts either a
:class:`ConvexFit` or a raw fitted-value array, so it can also reject fits
that were not produced by the solver.

The cumulative gap process G(x_p) = sum_{i <= p} w_i (fit_i - y_i)(x_p - x_i)
is ``cum[p-1]`` of :func:`convexreg.solver.kkt_sums` (G(x_0) = 0), and the
report's cumulative-sum conditions are its :meth:`KktSums.violations`.

Sign convention: ``cum`` is oriented as fitted-minus-observed, which makes
it nonnegative across the design with zeros at the kinks exactly when the
fit is optimal.  All sums carry dataset weights so merged duplicates count
with multiplicity.
"""

import numpy as np
from dataclasses import dataclass

from .model import (
    KKT_TOL,
    ConvexFit,
    Dataset,
    check_kkt_tol,
    cone_violation,
    fitted_values,
    kink_indices,
)
from .solver import certificate_scale, kkt_sums


def _fit_view(dataset: Dataset, fit_or_values):
    """Fitted values plus kink indices; a raw array gets its
    :func:`kink_indices` at :attr:`Dataset.kink_threshold`."""
    values = fitted_values(dataset, fit_or_values)
    if isinstance(fit_or_values, ConvexFit):
        return values, tuple(fit_or_values.kinks)
    return values, kink_indices(dataset.x, values, dataset.kink_threshold)


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    worst: float  # normalized amount by which the condition is violated


@dataclass(frozen=True)
class KktReport:
    """Pass/fail summary of every characterization condition."""

    conditions: tuple[ConditionResult, ...]
    passed: bool
    scale: float


def characterization_report(dataset: Dataset, fit_or_values,
                            kkt_tol: float = KKT_TOL) -> KktReport:
    """Check every characterization condition for any (dataset, fit) pair.

    Conditions, in report order: ``cone`` (membership in the convex cone,
    against the kink threshold), ``fit_residual_orthogonality``, then the
    three cumulative-sum conditions of :meth:`KktSums.violations`:
    ``cumulative_sums_nonnegative``, ``cumulative_sums_zero_at_kinks`` (kinks
    and the right end) and ``total_mass_match``.  Violations are normalized
    by ``total_weight * (1 + max|y|)`` (orthogonality by one more
    response-scale factor) and compared against ``kkt_tol``.

    The residual sums are implied (``sum w (y - f) = -total_gap``, ``sum w x
    (y - f) = cum[-1] - x[n-1] total_gap``); orthogonality is not, since a
    raw array, whose kinks are its :func:`kink_indices` at
    :attr:`Dataset.kink_threshold`, may bend below that threshold.
    """
    check_kkt_tol(kkt_tol)
    fitted, kinks = _fit_view(dataset, fit_or_values)
    w = dataset.weights
    scale = certificate_scale(dataset)

    results = []

    def add(name, violation, tol=kkt_tol):
        violation = float(violation)
        # a NaN violation fails and reads NaN, where max(0.0, nan) is 0.0
        worst = 0.0 if violation <= 0.0 else violation
        results.append(ConditionResult(name, violation <= tol, worst))

    add("cone", cone_violation(dataset.x, fitted), dataset.kink_threshold)

    add("fit_residual_orthogonality",
        abs(np.sum(w * fitted * (dataset.y - fitted))) / (scale * dataset.response_scale))

    for name, violation in kkt_sums(dataset, fit_or_values).violations(kinks, scale).items():
        add(name, violation)

    return KktReport(
        conditions=tuple(results),
        passed=all(c.passed for c in results),
        scale=scale,
    )
