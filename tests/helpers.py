"""Shared instance builders for the test suite."""

import math

import numpy as np

from convexreg import ConvexFit, Dataset
from convexreg.model import cone_violation, fitted_values, kink_indices, segment_slopes


def fit_from_values(dataset, values):
    """The :class:`ConvexFit` of convex values at the design.

    Every slope increment above the local float-resolution floor becomes a
    hinge, so the telescoped hinge form reproduces the values up to that
    floor; increments above the kink threshold are also the kinks.  Raises if
    the values are not convex over the design.
    """
    values = fitted_values(dataset, values)
    kink_abs = dataset.kink_threshold
    if cone_violation(dataset.x, values) > kink_abs:
        raise ValueError("values are not convex over the design")
    x = dataset.x
    s = segment_slopes(x, values)
    hinges = [(j, float(s[j] - s[j - 1])) for j in kink_indices(x, values, 0.0)]
    return ConvexFit(
        fitted=values,
        kinks=kink_indices(x, values, kink_abs),
        intercept=float(values[0] - s[0] * x[0]),
        base_slope=float(s[0]),
        hinge_coeffs=tuple(hinges),
    )


def hinge_values(fit, dataset, t):
    """The fit's hinge form (not the interpolant) at t."""
    t = np.asarray(t, dtype=float)
    out = fit.intercept + fit.base_slope * t
    for j, b in fit.hinge_coeffs:
        out = out + b * np.maximum(t - dataset.x[j], 0.0)
    return out


def condition(report, name):
    """The condition of a :class:`KktReport` called ``name``."""
    return {c.name: c for c in report.conditions}[name]


def random_dataset(seed, n=None, n_min=3, n_max=12, noise=1.0, weighted=False):
    """Gaussian responses over a sorted uniform design with distinct points;
    ``weighted`` draws weights from U(0.2, 5) instead of ones."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(n_min, n_max + 1))
    x = np.sort(rng.random(n))
    while np.unique(x).size < n:
        x = np.sort(rng.random(n))
    y = noise * rng.standard_normal(n)
    weights = rng.uniform(0.2, 5.0, n) if weighted else np.ones(n)
    return Dataset(x=x, y=y, weights=weights)


def random_convex_values(x, seed, max_hinges=5):
    """Values of a random positive hinge mixture sampled at x (convex)."""
    rng = np.random.default_rng(seed)
    a, b0 = rng.normal(scale=2.0, size=2)
    k = int(rng.integers(0, max_hinges + 1))
    knots = rng.uniform(0.05, 0.95, size=k)
    coeffs = rng.uniform(0.1, 4.0, size=k)
    values = a + b0 * np.asarray(x, dtype=float)
    for t, c in zip(knots, coeffs):
        values = values + c * np.maximum(np.asarray(x) - t, 0.0)
    return values


def noisy_convex_dataset(seed, n, noise=1.0):
    """Random convex mean plus Gaussian noise."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.random(n))
    while np.unique(x).size < n:
        x = np.sort(rng.random(n))
    y = random_convex_values(x, seed + 1) + noise * rng.standard_normal(n)
    return Dataset(x=x, y=y, weights=np.ones(n))


def near_duplicate_design(seed, n=400, copies=20):
    """Uniform design plus ``copies`` of its points shifted right by
    10^U(-12, -9); responses 3 (x - 1/2)^2 + 0.3 N(0, 1)."""
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    idx = rng.choice(n, copies, replace=False)
    x = np.concatenate([x, x[idx] + 10.0 ** rng.uniform(-12.0, -9.0, copies)])
    x = np.clip(x, 0.0, 1.0)
    y = 3.0 * (x - 0.5) ** 2 + 0.3 * rng.standard_normal(x.size)
    return x, y


def near_duplicate_dataset(seed, n, min_exponent=-11.0):
    """Weighted uniform design on which about a third of the points get a
    partner 10^U(min_exponent, -8) to their right; Gaussian responses."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 0.99, n))
    partners = x[rng.random(n) < 1 / 3] + 10.0 ** rng.uniform(min_exponent, -8.0)
    x = np.unique(np.concatenate([x, partners]))
    weights = rng.uniform(0.2, 5.0, x.size)
    return Dataset(x=x, y=rng.standard_normal(x.size), weights=weights)


def segment_moments(dataset, start, end):
    """Hat-basis moments (w v^2, w u v, w u^2, w y v, w y u) of the segment
    between nodes ``start`` and ``end``, one ``np.sum`` per moment; the last
    segment also owns x[n-1]."""
    stop = end + 1 if end == dataset.n - 1 else end
    xs, ys, ws = (a[start:stop] for a in (dataset.x, dataset.y, dataset.weights))
    left, right = dataset.x[start], dataset.x[end]
    u = (xs - left) / (right - left)
    v = (right - xs) / (right - left)
    return tuple(float(np.sum(ws * a * b)) for a, b in
                 ((v, v), (u, v), (u, u), (v, ys), (u, ys)))


def lexsort_batch(open_sums, kinks):
    """Entering batch by sorting every open violator: per segment between
    kinks, the most negative of the strictly negative sums, the smallest
    index on an exact tie.  ``open_sums[p - 1]`` belongs to design point p
    and is +inf at the kinks."""
    violators = np.flatnonzero(open_sums < 0.0) + 1
    depth = open_sums[violators - 1]
    segment = np.searchsorted(kinks, violators)
    order = np.lexsort((violators, depth, segment))
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = segment[order[1:]] != segment[order[:-1]]
    return violators[order[lead]]


def repeat_run_moments(dataset, bounds):
    """Moment rows of the consecutive segments between node indices
    ``bounds``, with each point's segment end nodes and gap spread to it by
    ``np.repeat`` whatever the number of segments."""
    n = dataset.n
    start, end = int(bounds[0]), int(bounds[-1])
    stop = end + 1 if end == n - 1 else end
    xs, ys, ws = (a[start:stop] for a in (dataset.x, dataset.y, dataset.weights))
    counts = bounds[1:] - bounds[:-1]
    counts[-1] += stop - end
    knots = dataset.x[bounds]
    gap = np.repeat(knots[1:] - knots[:-1], counts)
    u = (xs - np.repeat(knots[:-1], counts)) / gap
    v = (np.repeat(knots[1:], counts) - xs) / gap
    terms = np.array([ws * v * v, ws * u * v, ws * u * u, ws * v * ys, ws * u * ys])
    return np.add.reduceat(terms, bounds[:-1] - start, axis=1).T


def scaled_design(scale):
    """n = 200 sorted uniform abscissae and standard normal responses times
    ``scale`` (the responses of ``scale = 1`` have kinks (1, 163))."""
    x = np.sort(np.random.default_rng(1).random(200))
    return x, scale * np.random.default_rng(2).standard_normal(200)


def largest_accepted_scale():
    """The largest ``scale`` whose :func:`scaled_design` responses meet the
    dataset's ``total_weight * (1 + max|y|)**2 <= SCALE_LIMIT``."""
    from convexreg.model import SCALE_LIMIT

    _, z = scaled_design(1.0)
    scale = (np.sqrt(SCALE_LIMIT / z.size) - 1.0) / np.max(np.abs(z))
    while z.size * (1.0 + np.max(np.abs(scale * z))) ** 2 > SCALE_LIMIT:
        scale = np.nextafter(scale, 0.0)
    return float(scale)


def philox(*key):
    """The generator of the simulation stream ``key``, built without the package."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def boundary_draw(n, seed):
    """The boundary study's dataset: x = U(0, 1)^n, then y = 1 - x + x*x plus
    standard normal noise, both from stream (5, n, seed)."""
    rng = philox(5, n, seed)
    x = rng.random(n)
    y = 1.0 - x + x * x + rng.standard_normal(n)
    return Dataset.from_arrays(x, y)


def invelope_grid(variant, m, seed, r=2, c=4.0):
    """``(t, responses, delta)`` of an invelope grid: the m midpoints of
    [-c, c] with drift plus noise from stream (3, r, m, seed) for "drift",
    of [0, 1] with noise from stream (4, m, seed) alone for "affine"."""
    if variant == "drift":
        delta = 2.0 * c / m
        t = -c + (np.arange(m) + 0.5) * delta
        eta = philox(3, r, m, seed).standard_normal(m)
        return t, (r + 2) * (r + 1) * t ** r + eta / math.sqrt(delta), delta
    delta = 1.0 / m
    t = (np.arange(m) + 0.5) * delta
    return t, philox(4, m, seed).standard_normal(m) / math.sqrt(delta), delta
