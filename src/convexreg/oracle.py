"""Brute-force reference solver for small designs.

Enumerates every subset of interior design indices as a candidate kink set,
solves the unconstrained weighted least-squares linear spline with knots at
that subset, keeps the subsets whose slope increments at the knots are all
strictly positive (those fits are convex by construction), and returns the
feasible fit with the smallest weighted residual sum of squares.  The
optimal kink set is always feasible, and every feasible fit lies in the
cone, so the minimum over feasible subsets is the global projection.
Exponential in n; intended as an independent check for n up to about 14.

Each subset is solved in the hat (node-value) basis: the unknowns are the
spline's values at x[0], the knots and x[n-1].  Every node is a design
point, so the normal equations stay well conditioned on near-duplicate
abscissae, where the raw hinge basis (1, x, (x - t)+) is numerically
singular and its solved coefficients can have the wrong sign.
"""

import itertools

import numpy as np

from .model import Dataset

MAX_ENUMERATION_POINTS = 16


def enumerate_convex_lse(dataset: Dataset):
    """Return (fitted, objective) from exhaustive kink-subset enumeration."""
    n = dataset.n
    if n > MAX_ENUMERATION_POINTS:
        raise ValueError(f"enumeration oracle limited to n <= {MAX_ENUMERATION_POINTS}")
    x, y, w = dataset.x, dataset.y, dataset.weights
    points = np.arange(n)
    best_obj = np.inf
    best_fitted = None
    for k in range(0, n - 1):
        combos = list(itertools.combinations(range(1, n - 1), k))
        batch = len(combos)
        subsets = np.array(combos, dtype=int).reshape(batch, k)
        nodes = np.concatenate(
            [np.zeros((batch, 1), int), subsets, np.full((batch, 1), n - 1)], axis=1
        )
        knots = x[nodes]
        # segment s of each subset holds the points from node s up to node
        # s + 1; the last segment also holds x[n-1]
        seg = np.sum(nodes[:, None, 1:-1] <= points[None, :, None], axis=2)
        rows = np.arange(batch)[:, None]
        left, right = knots[rows, seg], knots[rows, seg + 1]
        gap = right - left
        design = np.zeros((batch, n, k + 2))
        np.put_along_axis(design, seg[:, :, None], ((right - x) / gap)[:, :, None], axis=2)
        np.put_along_axis(design, seg[:, :, None] + 1, ((x - left) / gap)[:, :, None], axis=2)
        weighted = design * w[None, :, None]
        gram = np.einsum("bni,bnj->bij", weighted, design)
        rhs = np.einsum("bni,n->bi", weighted, y)
        values = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        fitted = np.einsum("bni,bi->bn", design, values)
        objective = np.sum(w[None, :] * (y[None, :] - fitted) ** 2, axis=1)
        slopes = np.diff(values, axis=1) / np.diff(knots, axis=1)
        feasible = np.all(np.diff(slopes, axis=1) > 0.0, axis=1)
        objective = np.where(feasible, objective, np.inf)
        pick = int(np.argmin(objective))
        if objective[pick] < best_obj:
            best_obj = float(objective[pick])
            best_fitted = fitted[pick]
    return best_fitted, best_obj
