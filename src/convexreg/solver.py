"""Active-set solver for the convex least-squares fit.

The fit is the projection of the response vector onto the polyhedral cone of
sequences with nondecreasing divided differences.  The solver is the
support-reduction algorithm of Groeneboom, Jongbloed and Wellner (Scand. J.
Statist. 2008) with Meyer's line-search drop (Comm. Statist. Sim. Comp.
2013).  Starting from the global affine fit it repeatedly solves the
unconstrained hinge regression on the current kink set and enters a batch of
violators: in every segment between consecutive nodes (x[0], the kinks,
x[n-1]) the open design index whose cumulative certificate sum is most
negative, picked for all segments at once by one segment-wise minimum
(``np.minimum.reduceat``) over the normalized sums.  When the solve after an
entry blocks two or more hinges (coefficients at or below zero), all of them
are dropped at once and the set is solved again until it is feasible; that
set is kept if its projection norm beats the current set's by more than a
rounding margin.  The objective is sum(w*y^2) minus that norm, so this is
strict descent, which is all the support-reduction argument needs; the norm
comes out of the sweep, so the test is O(k).  Otherwise feasibility is
resolved by Meyer's line search toward the first solve's coefficients,
dropping hinges whose coefficients reach zero (most binding first).  The
loop stops when no open sum is strictly negative; ``kkt_tol`` only judges
the certificate, the cumulative-sum conditions themselves, and never
changes the solve path:

    cum[p] = sum_{k < p} (prefix_fitted_k - prefix_response_k) * (x_{k+1} - x_k)

must be nonnegative for every p and zero at every kink and at the right end,
and the total fitted mass must match the total response mass.  All sums carry
the dataset weights so merged duplicate points count with their multiplicity.

:func:`kkt_sums` is the only formula for this process.  The loop evaluates
it once per step on plain arrays to pick the entering batch, and wraps the
final step's sums in a :class:`KktSums` only at its exits; those are
checked by :meth:`KktSums.violations` and returned as
``SolverTrace.certificate``.  The characterization report, the gap process
and the invelope samples read the same object.

Each solve fits the least-squares linear spline whose knots are the current
kinks, in the hat (linear B-spline) basis: the unknowns are its values at
x[0], the kinks and x[n-1], and the normal equations are tridiagonal.  They
are assembled from segment moments taken in local coordinates and cached
across solves, then solved by an O(k) Thomas sweep that adds up each
node's diagonal and right-hand side as it goes.  A batch entry splits every
segment it touches, so the new segments come in runs; each maximal run of
consecutive uncached segments gets its moments in one vectorized pass over
its design points.  A drop joins segments instead: a segment between two
nodes of the previous solve takes its moments from the cached pieces by the
exact affine change of local coordinates, with no pass over its points.
The sweep also returns the projection norm rhs^T A^-1 rhs as a sum of
nonnegative terms.  Every node is a design point, so the system is positive
definite and needs no condition check or fallback.  The fitted values
interpolate the node values; the hinge form (intercept, base slope, slope
increments) drives the line search.

One step of the loop builds the node array (x[0], the kinks, x[n-1]) once
and uses it for the fitted values and the batch pick; a batch is merged
into the kinks by one stable argsort.
"""

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import KKT_TOL, ConvexFit, Dataset, check_kkt_tol, fitted_values

# linear solves per design point a fit may spend
_SOLVES_PER_POINT = 50
# an entry whose solve blocks at least this many hinges first tries dropping
# them all at once; with one blocked hinge the line search drops it alone
_DROP_BLOCKED = 2
# a batch drop is kept only if its projection norm beats the current set's
# by more than this fraction of it.  On every fit of the solver corpus
# (tests/corpus.py, n up to 1e4) the computed norm agrees with sum(w*y^2)
# minus the objective within 5e-14 relative, and the smallest gain of a
# batch drop is 1e-9 relative, so 2^-40 = 9.1e-13 lies between rounding and
# real descent.  A gain inside the margin goes to the line search, which
# needs no comparison; a wrong call could waste steps but never return a
# wrong fit, because the certificate judges the result
_DESCENT_MARGIN = 2.0 ** -40


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

    def violations(self, kinks, scale: float) -> dict[str, float]:
        """The three cumulative-sum conditions as violations normalized by
        ``scale``: minus the smallest sum, the largest absolute sum at the
        kinks and the right end, and the absolute total mass gap.  The fit
        is optimal iff all three are zero."""
        cum_norm = self.cum / scale
        eq_idx = np.append(np.asarray(kinks, dtype=int) - 1, cum_norm.size - 1)
        return {
            "cumulative_sums_nonnegative": float(-cum_norm.min()),
            "cumulative_sums_zero_at_kinks": float(np.max(np.abs(cum_norm[eq_idx]))),
            "total_mass_match": abs(self.total_gap) / scale,
        }


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
    fitted = fitted_values(dataset, fit_or_values)
    cum, total_gap = _cumulative_sums(dataset, fitted, np.diff(dataset.x))
    return KktSums(cum=cum, total_gap=total_gap)


def _cumulative_sums(dataset: Dataset, fitted: np.ndarray,
                     gaps: np.ndarray) -> tuple[np.ndarray, float]:
    """``(cum, total_gap)`` of :class:`KktSums`, unchecked and unwrapped;
    ``gaps`` is ``np.diff(dataset.x)``."""
    prefix = np.add.accumulate(dataset.weights * (fitted - dataset.y))
    return np.add.accumulate(prefix[:-1] * gaps), float(prefix[-1])


def certificate_scale(dataset: Dataset) -> float:
    """Normalizer for certificate sums: total weight times (1 + max|y|)."""
    return dataset.total_weight * dataset.response_scale


class _HingeSystem:
    """Weighted least-squares linear spline on a kink set, in the hat basis.

    Segment s runs between consecutive nodes t_s < t_{s+1} and owns the
    design points from t_s up to, not including, t_{s+1} (the last segment
    also owns x[n-1]).  With u = (x - t_s) / h_s and v = (t_{s+1} - x) / h_s
    it contributes the moments sum w*v^2, w*u*v, w*u^2, w*y*v and w*y*u to
    the tridiagonal normal equations.  The local coordinate keeps them
    accurate on near-zero gaps, where expanding raw power sums of x cancels.
    Moments are cached by (start, end) node pair: a kink entering or leaving
    changes at most two segments, so a solve reuses all the others.  The
    segments a solve does not find in the cache are taken run by run: one
    pass over the contiguous design points of each maximal run of
    consecutive uncached segments, with u and v from each point's own
    segment end nodes (a run of one segment broadcasts its two nodes) and
    the sums split at the segment offsets by ``np.add.reduceat``.

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
        self._ends = []  # the previous solve's nodes
        self._first = np.zeros(1, dtype=int)
        self._last = np.full(1, self.n - 1)

    def _run_moments(self, bounds: np.ndarray) -> list:
        """Moment rows of the consecutive segments between ``bounds`` (node
        indices), in one pass over the design points they own."""
        start, end = int(bounds[0]), int(bounds[-1])
        stop = end + 1 if end == self.n - 1 else end
        xs = self.x[start:stop]
        ws = self.w[start:stop]
        ys = self.y[start:stop]
        knots = self.x[bounds]
        left, right = knots[:-1], knots[1:]
        gap = right - left
        if bounds.size > 2:
            # every point takes u and v from its own segment's end nodes
            counts = bounds[1:] - bounds[:-1]
            counts[-1] += stop - end
            left, right, gap = left.repeat(counts), right.repeat(counts), gap.repeat(counts)
        # rows w*v*v, w*u*v, w*u*u, w*y*v, w*y*u; v and u sit in the last
        # two rows until the products that overwrite them, which keeps the
        # pass to one (5, m) buffer and two m-vectors
        terms = np.empty((5, xs.size))
        v, u = terms[3], terms[4]
        np.subtract(right, xs, out=v)
        v /= gap
        np.subtract(xs, left, out=u)
        u /= gap
        wu = ws * u
        wv = ws * v
        np.multiply(wv, v, out=terms[0])
        np.multiply(wu, v, out=terms[1])
        np.multiply(wu, u, out=terms[2])
        np.multiply(wv, ys, out=terms[3])
        np.multiply(wu, ys, out=terms[4])
        # elementwise products and add.reduceat rather than dot: no BLAS call
        return np.add.reduceat(terms, bounds[:-1] - start, axis=1).T.tolist()

    def _merged_moments(self, bounds: list) -> list:
        """Moment row of the segment from ``bounds[0]`` to ``bounds[-1]``,
        assembled from the cached rows of the consecutive pieces between
        ``bounds`` without a pass over the design points.

        On a piece [p, q] with local coordinates u1, v1 (u1 + v1 = 1) the
        segment's coordinates are u = a + b*u1 and v = g + b*v1, where
        a = (p - start)/h, b = (q - p)/h, g = (end - q)/h are nonnegative.
        Sums of w, w*u1, w*v1 and w*y follow from the stored sums through
        u1 + v1 = 1, so every Gram moment is a sum of nonnegative products
        and nothing cancels.
        """
        knots = self.x[bounds].tolist()
        left, right = knots[0], knots[-1]
        gap = right - left
        svv = suv = suu = syv = syu = 0.0
        for p, q, (vv, uv, uu, yv, yu) in zip(
                knots, knots[1:], map(self._moments.__getitem__, zip(bounds, bounds[1:]))):
            a, b, g = (p - left) / gap, (q - p) / gap, (right - q) / gap
            wu, wv = uu + uv, vv + uv
            w, wy = wu + wv, yu + yv
            svv += g * g * w + 2.0 * g * b * wv + b * b * vv
            suv += a * g * w + a * b * wv + g * b * wu + b * b * uv
            suu += a * a * w + 2.0 * a * b * wu + b * b * uu
            syv += g * wy + b * yv
            syu += a * wy + b * yu
        return [svv, suv, suu, syv, syu]

    def solve(self, kinks: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Coefficients (intercept, base slope, hinge coeffs) on a kink set,
        the spline's values at the nodes x[0], the kinks and x[n-1], and its
        projection norm sum(w * fitted * y); the weighted objective is
        sum(w * y^2) minus that norm."""
        nodes = self._nodes(kinks)
        ends = nodes.tolist()
        keys = list(zip(ends, ends[1:]))
        rows = list(map(self._moments.get, keys))
        missing = [seg for seg, row in enumerate(rows) if row is None]
        previous = self._ends
        if not set(previous).issubset(ends):
            # a drop: an uncached segment between two nodes of the previous
            # solve joins that solve's (cached) pieces.  A solve that leaves
            # out no previous node joins nothing and skips the search.
            for seg in missing:
                start, end = keys[seg]
                i = bisect_left(previous, start)
                j = bisect_left(previous, end, i)
                if j - i > 1 and previous[i] == start and previous[j] == end:
                    rows[seg] = self._moments[keys[seg]] = self._merged_moments(previous[i:j + 1])
            missing = [seg for seg in missing if rows[seg] is None]
        # one pass per maximal run [first, last) of consecutive uncached segments
        runs = []
        for seg in missing:
            if runs and runs[-1][1] == seg:
                runs[-1][1] = seg + 1
            else:
                runs.append([seg, seg + 1])
        for first, last in runs:
            rows[first:last] = self._run_moments(nodes[first:last + 1])
            self._moments.update(zip(keys[first:last], rows[first:last]))
        self._ends = ends
        # Thomas sweep; positive definiteness keeps every pivot positive.  A
        # node gathers the u-terms (uu, yu) of the segment ending at it and
        # the v-terms (vv, yv) of the segment starting at it; the off-diagonal
        # between two nodes is their segment's uv.  With A = L D L^T the
        # norm rhs^T A^-1 rhs is the sum of reduced^2 / pivot, a sum of
        # nonnegative terms.
        vv, _, _, yv, _ = rows[0]
        pivot, reduced = 0.0 + vv, 0.0 + yv
        pivots, reduceds = [pivot], [reduced]
        norm = reduced * reduced / pivot
        for (_, off, uu, _, yu), (vv, _, _, yv, _) in zip(rows, rows[1:] + [_NO_SEGMENT]):
            factor = off / pivot
            pivot = (uu + vv) - factor * off
            reduced = (yu + yv) - factor * reduced
            norm += reduced * reduced / pivot
            pivots.append(pivot)
            reduceds.append(reduced)
        value = reduced / pivot
        values = [value]
        for (_, off, _, _, _), pivot, reduced in zip(reversed(rows), pivots[-2::-1],
                                                     reduceds[-2::-1]):
            value = (reduced - off * value) / pivot
            values.append(value)
        values.reverse()
        values = np.array(values)
        knots = self.x[nodes]
        slopes = (values[1:] - values[:-1]) / (knots[1:] - knots[:-1])
        coef = np.empty(nodes.size)
        coef[1:] = slopes
        coef[2:] -= slopes[:-1]
        coef[0] = values[0] - slopes[0] * knots[0]
        return coef, values, norm

    def fitted(self, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Fitted values at every design point from the values at ``nodes``
        (from :meth:`_nodes`)."""
        # interpolate segment by segment from the node values: rebuilding
        # them from the hinge form (a cumulative sum of slope increments on
        # top of the base slope and intercept) cancels when a tiny first gap
        # makes the base slope huge
        return np.interp(self.x, self.x[nodes], values)

    def _nodes(self, kinks: np.ndarray) -> np.ndarray:
        return np.concatenate((self._first, kinks, self._last))


# moments of the empty segment after x[n-1]: the last node's v-terms
_NO_SEGMENT = (0.0, 0.0, 0.0, 0.0, 0.0)


def fit_convex_lse(dataset: Dataset, kkt_tol: float = KKT_TOL):
    """Fit the convex least-squares estimator.

    Returns ``(ConvexFit, SolverTrace)``.  The returned fit is certified: the
    cumulative-sum conditions hold within ``kkt_tol`` after normalization by
    ``total_weight * (1 + max|y|)``; certification failure raises
    :class:`SolverError` with the trace attached; ``kkt_tol`` never changes
    the solve path.  A fit may spend 50 linear solves per design point;
    ``SolverTrace.iterations`` counts them.
    """
    check_kkt_tol(kkt_tol)
    system = _HingeSystem(dataset)
    scale = certificate_scale(dataset)
    budget = _SOLVES_PER_POINT * dataset.n
    gaps = np.diff(dataset.x)  # every step's certificate sums reuse them

    solves = 0
    history = []

    def solve(current):
        # (kinks, coef, values, norm), or None once the budget is spent
        nonlocal solves
        if solves >= budget:
            return None
        solves += 1
        return (current, *system.solve(current))

    def line_search(solution, feasible):
        # Meyer's drop loop, from a solution on the merged set: keep hinge
        # coefficients strictly positive.  Every pass that does not return
        # removes at least one index, so the merged set's size + 1 passes
        # always reach a feasible set.
        for _ in range(solution[0].size + 1):
            if solution is None or _feasible(solution):
                return solution
            current, coef = solution[:2]
            hinge = coef[2:]
            # an entering hinge (feasible coefficient 0) that solves to <= 0
            # would stop the line search at alpha = 0 and drop the whole
            # batch with it: remove such hinges alone and solve again
            keep = (feasible > 0.0) | (hinge > 0.0)
            if np.logical_and.reduce(keep):
                blocked = (hinge <= 0.0).nonzero()[0]
                steps = feasible[blocked] / (feasible[blocked] - hinge[blocked])
                feasible = feasible + float(np.minimum.reduce(steps)) * (hinge - feasible)
                keep = feasible > 0.0
                keep[blocked[steps.argmin()]] = False
            feasible = feasible[keep]
            solution = solve(current[keep])
        return None

    def batch_drop(solution):
        # drop every nonpositive hinge at once and solve again until the
        # set is feasible; each pass removes at least one index
        while solution is not None and not _feasible(solution):
            current, coef = solution[:2]
            solution = solve(current[coef[2:] > 0.0])
        return solution

    def enter(batch):
        merged, feasible = _merge_batch(kinks, coef[2:], batch)
        first = solve(merged)
        if first is None:
            return None
        if np.count_nonzero(first[1][2:] <= 0.0) >= _DROP_BLOCKED:
            dropped = batch_drop(first)
            if dropped is None:
                return None
            # the objective is sum(w * y^2) minus the norm: a larger norm
            # than the current set's is strict descent, which keeps the
            # support-reduction loop from visiting a set twice
            if dropped[3] - norm > _DESCENT_MARGIN * norm:
                return dropped
        return line_search(first, feasible)

    def trace():
        sums = KktSums(cum=cum, total_gap=total_gap)
        return SolverTrace(solves, tuple(history), _objective(dataset, fitted), sums)

    # one solve: the budget is at least 100 and the empty set is feasible
    kinks, coef, values, norm = solve(np.empty(0, dtype=int))

    while True:
        nodes = system._nodes(kinks)
        fitted = system.fitted(nodes, values)
        history.append(tuple(kinks.tolist()))
        cum, total_gap = _cumulative_sums(dataset, fitted, gaps)
        # entry p - 1 belongs to design point p; kinks and x[n-1] are closed
        open_sums = cum / scale
        open_sums[kinks - 1] = np.inf
        open_sums[-1] = np.inf
        batch = _entering_batch(open_sums, nodes)
        if batch.size == 0:
            break
        result = enter(batch)
        if result is not None and batch.size > 1 and _same_kinks(result[0], kinks):
            # the batch fell through as a whole; retry its deepest index alone
            result = enter(batch[[open_sums[batch - 1].argmin()]])
        if result is None:
            raise SolverError(
                f"no convergence within {budget} solves "
                f"(worst normalized violation {open_sums.min():.3e})",
                trace(),
            )
        if _same_kinks(result[0], kinks):
            # entering hinge was immediately infeasible at float resolution;
            # no strict progress is possible, certify what we have
            break
        kinks, coef, values, norm = result

    # both exits above leave `cum` computed for the final `fitted`
    final = trace()
    violations = final.certificate.violations(kinks, scale)
    if not all(v <= kkt_tol for v in violations.values()):
        raise SolverError(f"certificate failed: {violations}", final)

    kink_abs = dataset.kink_threshold
    hinge_pairs = tuple(zip(kinks.tolist(), coef[2:].tolist()))
    fit = ConvexFit(
        fitted=fitted,
        kinks=tuple(j for j, b in hinge_pairs if b > kink_abs),
        intercept=float(coef[0]),
        base_slope=float(coef[1]),
        hinge_coeffs=hinge_pairs,
    )
    return fit, final


def _merge_batch(kinks: np.ndarray, hinge: np.ndarray,
                 batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted ``batch`` merged into ``kinks`` and, aligned with the
    merged set, the hinge coefficients with 0 at the entering indices.  On
    equal indices the batch comes first, as ``np.insert`` at
    ``np.searchsorted`` would place it."""
    merged = np.concatenate((batch, kinks))
    order = merged.argsort(kind="stable")
    return merged[order], np.concatenate((np.zeros(batch.size), hinge))[order]


def _feasible(solution) -> bool:
    hinge = solution[1][2:]
    return hinge.size == 0 or bool(np.minimum.reduce(hinge) > 0.0)


def _same_kinks(a: np.ndarray, b: np.ndarray) -> bool:
    return a.size == b.size and bool(np.logical_and.reduce(a == b))


def _entering_batch(open_sums: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """One violator per segment between consecutive nodes: the design index
    whose normalized sum is most negative, the smallest on an exact tie, if
    that sum is strictly negative.  The loop stops on an empty batch.

    ``open_sums[p - 1]`` belongs to design point p and is +inf at the closed
    points (the kinks and x[n-1]); segment s owns the entries from
    ``nodes[s]`` up to, not including, ``nodes[s + 1]``.
    """
    starts = nodes[:-1]
    depth = np.minimum.reduceat(open_sums, starts)
    deep_starts = starts[depth < 0.0]
    if deep_starts.size == 0:
        return np.empty(0, dtype=int)
    at_depth = (open_sums == depth.repeat(nodes[1:] - starts)).nonzero()[0]
    # a deep segment holds an index at its depth, so the first index at
    # depth from the segment's start on is that segment's smallest
    return at_depth[at_depth.searchsorted(deep_starts)] + 1


def _objective(dataset: Dataset, fitted: np.ndarray) -> float:
    r = dataset.y - fitted
    return float(np.sum(dataset.weights * r * r))
