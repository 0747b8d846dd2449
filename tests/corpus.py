"""The solver corpus: named designs in families, and recorders for them.

``test_solver.py::test_corpus_matches_the_recorded_fits`` refits every
design and compares it with ``fixtures/solver_corpus.json``, which holds each
fit's certified kinks, objective and solve count as recorded before the
batch drop entered the solver.  ``test_solver.py::test_corpus_kink_paths``
compares the sha256 of every fit's kink path, the kink set of each step,
with ``fixtures/kink_paths.json``, recorded before the trace kept per-step
changes in place of per-step kink sets.  Re-record (only on purpose) with

    PYTHONPATH=src:tests python tests/corpus.py > tests/fixtures/solver_corpus.json
    PYTHONPATH=src:tests python tests/corpus.py kink-paths > tests/fixtures/kink_paths.json
"""

import hashlib
import json
import sys

import numpy as np
import pytest

from convexreg import Dataset, fit_convex_lse
from convexreg import simulation
from convexreg.simulation import DEFAULT_RATE_GRID, ScenarioSpec, generate_scenario, mix_seed

from helpers import near_duplicate_dataset, near_duplicate_design, random_dataset


def invelope_dataset(seed):
    """The dataset ``simulate_invelope("vanishing", 2000, seed, 2, 4.0)`` fits."""
    seen = []

    def spy(dataset):
        seen.append(dataset)
        return fit_convex_lse(dataset)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "fit_convex_lse", spy)
        simulation.simulate_invelope("vanishing", 2000, seed, 2, 4.0)
    return seen[0]


def rates_dataset(n, replicate, kind="vanishing"):
    """Replicate ``replicate`` at size n of ``rates --scenario kind --seed
    4242``, at r = 4 for the vanishing scenario and r = 2 for the affine."""
    r = 4 if kind == "vanishing" else 2
    return generate_scenario(ScenarioSpec(kind, n=n, seed=mix_seed(4242, n, replicate), r=r))


def noiseless_dataset(n, curve=lambda x: 4.0 * (x - 0.5) ** 2):
    x = np.linspace(0.0, 1.0, n)
    return Dataset(x=x, y=curve(x), weights=np.ones(n))


def _noisy_quadratic(seed, n, noise):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.random(n))
    return rng, x, 3.0 * (x - 0.5) ** 2 + noise(rng, n)


def cauchy_dataset(seed, n=500):
    """Quadratic mean plus 0.3 times standard Cauchy noise."""
    _, x, y = _noisy_quadratic(seed, n, lambda rng, n: 0.3 * rng.standard_cauchy(n))
    return Dataset.from_arrays(x, y)


def tiny_first_gap_dataset(seed, n=300):
    """Noisy quadratic whose first two points sit 1e-11 apart."""
    _, x, y = _noisy_quadratic(seed, n, lambda rng, n: 0.3 * rng.standard_normal(n))
    x[0] = x[1] - 1e-11
    return Dataset(x=x, y=y, weights=np.ones(n))


def extreme_weight_dataset(seed, n=300):
    """Noisy quadratic with weights 1e-8, 1 and 1e8 drawn evenly."""
    rng, x, y = _noisy_quadratic(seed, n, lambda rng, n: 0.3 * rng.standard_normal(n))
    weights = 10.0 ** rng.choice([-8.0, 0.0, 8.0], n)
    return Dataset(x=x, y=y, weights=weights)


def near_noiseless_dataset(seed, n, sigma):
    """Quadratic mean plus sigma times standard normal noise."""
    _, x, y = _noisy_quadratic(seed, n, lambda rng, n: sigma * rng.standard_normal(n))
    return Dataset.from_arrays(x, y)


# the designs of test_solver.py's SOLVE_PATH_PINS
PIN_DESIGNS = {
    "rates_500_0": lambda: rates_dataset(500, 0),
    "rates_500_1": lambda: rates_dataset(500, 1),
    "rates_2000_0": lambda: rates_dataset(2000, 0),
    "rates_10000_0": lambda: rates_dataset(10000, 0),
    "invelope_0": lambda: invelope_dataset(0),
    "invelope_1": lambda: invelope_dataset(1),
    "near_duplicate_design_0": lambda: Dataset.from_arrays(*near_duplicate_design(0)),
    "near_duplicate_design_5_21": lambda: Dataset.from_arrays(
        *near_duplicate_design(21, 5, copies=1)),
    "near_duplicate_dataset_3": lambda: near_duplicate_dataset(3, 60),
    "weighted_352": lambda: random_dataset(352, n=10, weighted=True),
    "weighted_7": lambda: random_dataset(7, n=80, weighted=True),
    "noiseless_300": lambda: noiseless_dataset(300),
}


def _families():
    near = {f"design_{s}": (lambda s=s: Dataset.from_arrays(*near_duplicate_design(s)))
            for s in range(5)}
    near.update({f"dataset_{s}": (lambda s=s: near_duplicate_dataset(s, 200))
                 for s in range(5)})
    return {
        "pins": PIN_DESIGNS,
        "invelope": {f"seed_{s}": (lambda s=s: invelope_dataset(s)) for s in range(20)},
        "rates": {f"{n}_{rep}": (lambda n=n, rep=rep: rates_dataset(n, rep))
                  for n in DEFAULT_RATE_GRID for rep in range(2)},
        "affine": {f"{n}": (lambda n=n: rates_dataset(n, 0, "affine"))
                   for n in DEFAULT_RATE_GRID},
        "near_duplicate": near,
        "cauchy": {f"seed_{s}": (lambda s=s: cauchy_dataset(s)) for s in range(5)},
        "tiny_first_gap": {f"seed_{s}": (lambda s=s: tiny_first_gap_dataset(s))
                           for s in range(5)},
        "extreme_weights": {f"seed_{s}": (lambda s=s: extreme_weight_dataset(s))
                            for s in range(5)},
        "noiseless": {"square_1000": lambda: noiseless_dataset(1000, np.square)},
    }


CORPUS = _families()


def record(dataset):
    """The recorded quantities of one fit: its certified kinks, objective
    and solve count."""
    fit, trace = fit_convex_lse(dataset)
    return {"kinks": list(fit.kinks), "objective": trace.final_objective,
            "solves": trace.iterations}


def replay(steps):
    """The kink set of every step, from the empty set on: each step's set is
    the one before it, less its dropped indices, with its entered ones."""
    kinks = set()
    path = []
    for step in steps:
        kinks.difference_update(step.dropped)
        kinks.update(step.entered)
        path.append(sorted(kinks))
    return path


def kink_path_digest(steps):
    """sha256 of the JSON list of the kink sets that ``steps`` replay to."""
    return hashlib.sha256(json.dumps(replay(steps)).encode()).hexdigest()


if __name__ == "__main__":
    # one line per fit
    if sys.argv[1:] == ["kink-paths"]:
        def recorder(dataset):
            return kink_path_digest(fit_convex_lse(dataset)[1].steps)
    else:
        recorder = record
    families = []
    for family, designs in CORPUS.items():
        fits = [f"  {json.dumps(name)}: {json.dumps(recorder(build()))}"
                for name, build in designs.items()]
        families.append(f" {json.dumps(family)}: {{\n" + ",\n".join(fits) + "\n }")
    sys.stdout.write("{\n" + ",\n".join(families) + "\n}\n")
