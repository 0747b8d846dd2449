"""Shared instance builders for the test suite."""

import numpy as np

from convexreg import Dataset


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
