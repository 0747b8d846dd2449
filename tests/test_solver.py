import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from convexreg import (
    Dataset,
    SolverError,
    fit_convex_lse,
    kkt_sums,
)
from convexreg import solver
from convexreg.simulation import ScenarioSpec, generate_scenario, mix_seed
from convexreg.solver import _HingeSystem, _entering_batch, _merge_batch, certificate_scale

from corpus import (
    CORPUS,
    PIN_DESIGNS,
    extreme_weight_dataset,
    kink_path_digest,
    near_noiseless_dataset,
    replay,
    tiny_first_gap_dataset,
)
from helpers import (
    hinge_values,
    lexsort_batch,
    near_duplicate_dataset,
    near_duplicate_design,
    noisy_convex_dataset,
    random_convex_values,
    random_dataset,
    repeat_run_moments,
    segment_moments,
)
from oracle import enumerate_convex_lse


def test_noiseless_convex_data_is_its_own_fit():
    x = np.linspace(0.0, 1.0, 20)
    ds = Dataset(x=x, y=x**2, weights=np.ones(20))
    fit, trace = fit_convex_lse(ds)
    assert np.max(np.abs(fit.fitted - ds.y)) < 1e-7
    assert trace.final_objective < 1e-12


def test_two_points_always_interpolated():
    ds = Dataset(x=np.array([0.2, 0.9]), y=np.array([3.0, -1.0]), weights=np.ones(2))
    fit, trace = fit_convex_lse(ds)
    assert np.allclose(fit.fitted, ds.y, atol=1e-13)
    assert trace.final_objective == pytest.approx(0.0, abs=1e-24)
    assert fit.kinks == ()


@given(st.integers(0, 10_000), st.booleans())
def test_matches_enumeration_oracle(seed, weighted):
    ds = random_dataset(seed, n_min=2, n_max=10, weighted=weighted)
    fit, trace = fit_convex_lse(ds)
    oracle_fitted, oracle_objective = enumerate_convex_lse(ds)
    assert np.max(np.abs(fit.fitted - oracle_fitted)) < 1e-6
    if oracle_objective > 1e-12:  # relative comparison is vacuous near zero
        assert trace.final_objective == pytest.approx(oracle_objective, rel=1e-9)
    sums = kkt_sums(ds, fit)
    assert abs(sums.total_gap) < 1e-9


def test_noiseless_strongly_convex_fit_takes_few_solves():
    # every interior point is a kink; entering one violator per segment per
    # step reaches them all in a handful of steps instead of one per kink
    x = np.linspace(0.0, 1.0, 300)
    ds = Dataset(x=x, y=4.0 * (x - 0.5) ** 2, weights=np.ones(300))
    fit, trace = fit_convex_lse(ds)
    assert len(fit.kinks) == 298
    assert np.max(np.abs(fit.fitted - ds.y)) < 1e-12
    assert trace.iterations <= 15


def test_batch_entry_that_solves_nonpositive_is_removed(monkeypatch):
    # found by scanning random_dataset(seed, n, weighted=True) for n = 4..12:
    # the smallest seed at the smallest n whose fit enters a batch, [1, 8],
    # in which one hinge (at 1) solves nonpositive and is removed alone
    ds = random_dataset(352, n=10, weighted=True)
    calls = []  # (kink set, hinge coefficient by kink) per solve
    solve = _HingeSystem.solve

    def spy(self, kinks):
        coef, values, norm = solve(self, kinks)
        calls.append((set(kinks.tolist()), dict(zip(kinks.tolist(), coef[2:]))))
        return coef, values, norm

    monkeypatch.setattr(_HingeSystem, "solve", spy)
    fit, trace = fit_convex_lse(ds)
    removals = []
    for (before, _), (trial, hinges), (after, _) in zip(calls, calls[1:], calls[2:]):
        batch = trial - before
        if before < trial and len(batch) > 1:
            nonpositive = {j for j in batch if hinges[j] <= 0.0}
            if nonpositive:
                assert after == trial - nonpositive
                removals.append(nonpositive)
    assert removals
    _assert_certified(ds, fit, trace)
    oracle_fitted, oracle_objective = enumerate_convex_lse(ds)
    assert np.max(np.abs(fit.fitted - oracle_fitted)) < 1e-6
    assert trace.final_objective == pytest.approx(oracle_objective, rel=1e-9)


@pytest.mark.parametrize("n, seed", [(5, 0), (5, 21), (10, 4), (10, 12)])
def test_tiny_first_gap_certifies(n, seed):
    # the first two points sit ~1e-11 apart, so the base slope is of order
    # 1e10; rebuilding fitted values from the hinge form cancelled there
    ds = Dataset.from_arrays(*near_duplicate_design(seed, n, copies=1))
    fit, trace = fit_convex_lse(ds)
    _assert_certified(ds, fit, trace)
    oracle_fitted, oracle_objective = enumerate_convex_lse(ds)
    assert np.max(np.abs(fit.fitted - oracle_fitted)) < 1e-6
    assert trace.final_objective == pytest.approx(oracle_objective, rel=1e-9)


def _kink_set(rng, n):
    return np.sort(rng.choice(np.arange(1, n - 1), int(rng.integers(0, n - 1)), replace=False))


@given(st.integers(0, 10_000), st.sampled_from(["plain", "weighted", "near_duplicate"]))
def test_run_pass_moments_match_per_segment_sums(seed, design):
    if design == "near_duplicate":
        ds = near_duplicate_dataset(seed, n=int(np.random.default_rng(seed).integers(3, 60)))
    else:
        ds = random_dataset(seed, n_min=3, n_max=80, weighted=design == "weighted")
    abs_ds = Dataset(x=ds.x, y=np.abs(ds.y), weights=ds.weights)
    rng = np.random.default_rng(seed + 1)
    system = _HingeSystem(ds)
    # the second kink set shares some segments with the first, so its solve
    # computes runs of new segments between cached ones
    for _ in range(2):
        system.solve(_kink_set(rng, ds.n))
    for (start, end), row in system._moments.items():
        reference = segment_moments(ds, start, end)
        magnitude = segment_moments(abs_ds, start, end)
        assert np.all(np.abs(np.subtract(row, reference)) <= 1e-12 * np.array(magnitude))


@given(st.integers(0, 10_000), st.integers(2, 60))
def test_entering_batch_matches_lexsort_rule(seed, n):
    # sums on a coarse integer lattice, so most segments hold exact ties
    rng = np.random.default_rng(seed)
    kinks = _kink_set(rng, n)
    open_sums = rng.integers(-4, 3, n - 1) * 0.5
    open_sums[kinks - 1] = np.inf
    open_sums[-1] = np.inf
    nodes = np.concatenate(([0], kinks, [n - 1]))
    expected = lexsort_batch(open_sums[: n - 2], kinks)
    assert np.array_equal(_entering_batch(open_sums, nodes), expected)


@given(st.integers(0, 10_000), st.sampled_from(["plain", "weighted", "near_duplicate"]),
       st.integers(1, 4))
def test_run_moments_equal_the_repeat_form_bitwise(seed, design, segments):
    # a run of one segment broadcasts its end nodes instead of repeating them
    if design == "near_duplicate":
        ds = near_duplicate_dataset(seed, n=int(np.random.default_rng(seed).integers(3, 60)))
    else:
        ds = random_dataset(seed, n_min=3, n_max=80, weighted=design == "weighted")
    rng = np.random.default_rng(seed + 2)
    size = min(segments + 1, ds.n)
    bounds = np.sort(rng.choice(ds.n, size, replace=False))
    rows = np.array(_HingeSystem(ds)._run_moments(bounds))
    assert rows.tobytes() == repeat_run_moments(ds, bounds).tobytes()


HISTORY_DESIGNS = {
    "plain": lambda seed, n: noisy_convex_dataset(seed, n, noise=0.3),
    "extreme_weights": extreme_weight_dataset,
    "tiny_first_gap": tiny_first_gap_dataset,
}


@given(st.integers(0, 10_000), st.sampled_from(sorted(HISTORY_DESIGNS)))
def test_a_solve_depends_only_on_its_kink_set(seed, design):
    # random entries and drops on one warmed system: every solve returns
    # the bits of a fresh system's solve of the same kink set, whatever
    # segments the earlier solves left in the moment cache
    rng = np.random.default_rng(seed)
    ds = HISTORY_DESIGNS[design](seed, int(rng.integers(20, 120)))
    interior = np.arange(1, ds.n - 1)
    system = _HingeSystem(ds)
    kinks = np.sort(rng.choice(interior, int(rng.integers(0, 6)), replace=False))
    for _ in range(12):
        if kinks.size and rng.random() < 0.5:
            kinks = kinks[rng.random(kinks.size) < 0.6]
        else:
            batch = rng.choice(interior, int(rng.integers(1, 6)), replace=False)
            kinks = np.union1d(kinks, batch)
        warm = system.solve(kinks)
        fresh = _HingeSystem(ds).solve(kinks)
        assert warm[0].tobytes() == fresh[0].tobytes(), kinks
        assert warm[1].tobytes() == fresh[1].tobytes(), kinks
        assert warm[2] == fresh[2], kinks


@given(st.integers(0, 10_000), st.integers(3, 60))
def test_merge_batch_matches_insert_at_searchsorted(seed, n):
    rng = np.random.default_rng(seed)
    interior = rng.permutation(np.arange(1, n - 1))
    k = int(rng.integers(0, interior.size + 1))
    kinks = np.sort(interior[:k])
    batch = np.sort(interior[k:k + int(rng.integers(1, n))])
    hinge = rng.uniform(0.1, 5.0, kinks.size)
    at = np.searchsorted(kinks, batch)
    merged, feasible = _merge_batch(kinks, hinge, batch)
    assert merged.dtype == kinks.dtype
    assert np.array_equal(merged, np.insert(kinks, at, batch))
    assert feasible.tobytes() == np.insert(hinge, at, 0.0).tobytes()


def test_entering_batch_without_violators_is_an_empty_integer_array():
    # n = 7 with a kink at 4; a zero sum is not a violation, and the stop
    # rule has no floor: a sum of -5e-14 enters
    nodes = np.array([0, 4, 6])
    open_sums = np.array([0.5, 0.0, 2.0, np.inf, 0.0, np.inf])
    batch = _entering_batch(open_sums, nodes)
    assert batch.shape == (0,)
    assert batch.dtype.kind == "i"
    open_sums[1] = -5e-14
    assert _entering_batch(open_sums, nodes).tolist() == [2]


# (solves, steps, certified kinks) of the corpus's pin
# designs; a change to the solve path that moves them must say why.
# invelope_1 gained kink 1811 when the stop floor went: its normalized sum,
# -1.6e-12, sat above the floor of -8 eps n = -3.6e-12, and entering it
# lowers the objective by 1.4e-6.  The batch drop cut the solves of seven
# pins with their kinks unchanged (solves, steps before it): invelope_0
# (33, 9), invelope_1 (34, 9), near_duplicate_design_0 (12, 7), rates_10000_0
# (21, 9), rates_2000_0 (11, 6), rates_500_1 (16, 8), weighted_7 (10, 6)
SOLVE_PATH_PINS = {
    "rates_500_0": (8, 5, (1, 18, 437, 495)),
    "rates_500_1": (13, 8, (4, 9, 489, 496)),
    "rates_2000_0": (10, 6, (437, 1824, 1952)),
    "rates_10000_0": (17, 9, (1, 2, 3109, 9115, 9983, 9998)),
    "invelope_0": (15, 10, (1, 3, 59, 187, 310, 361, 437, 581, 677, 726, 815, 817, 983,
                            1186, 1191, 1306, 1316, 1507, 1686, 1713, 1916, 1997)),
    "invelope_1": (18, 11, (7, 8, 88, 157, 274, 517, 625, 627, 676, 812, 988, 1199, 1342,
                            1427, 1527, 1545, 1722, 1806, 1811, 1812, 1969, 1985)),
    "near_duplicate_design_0": (11, 7, (35, 55, 151, 172, 233, 312, 354)),
    "near_duplicate_design_5_21": (2, 2, (1,)),
    "near_duplicate_dataset_3": (3, 3, (38, 68)),
    "weighted_352": (5, 4, (4, 7, 8)),
    "weighted_7": (9, 6, (1, 19, 78)),
    "noiseless_300": (10, 10, tuple(range(1, 299))),
}


@pytest.mark.parametrize("name", sorted(SOLVE_PATH_PINS))
def test_solve_path_is_pinned(name):
    # the stop rule reads the data alone: a looser certificate tolerance
    # takes the same path
    solves, steps, kinks = SOLVE_PATH_PINS[name]
    ds = PIN_DESIGNS[name]()
    for kkt_tol in (1e-8, 1e-6):
        fit, trace = fit_convex_lse(ds, kkt_tol=kkt_tol)
        assert (trace.iterations, len(trace.steps), fit.kinks) == (solves, steps, kinks)


# (design, solves, kinks, objective) of the four probe designs on which the
# solver once retried a stalled batch's deepest index alone.  The retry
# stalled every time and left the fit as it was, so deleting it kept these
# kinks and objectives and cut 3 solves from each: 20, 17, 23 and 220
# before.  The 4510 kinks of the last are pinned by the sha256 of their
# JSON list
STALLED_PINS = {
    "extreme_weights_100_66": (lambda: extreme_weight_dataset(66, 100), 17,
                               (3, 11, 23, 49, 96, 97), 216225613.55059206),
    "extreme_weights_100_184": (lambda: extreme_weight_dataset(184, 100), 14,
                                (1, 18, 28, 49, 51, 86, 95), 253473531.41218126),
    "extreme_weights_100_189": (lambda: extreme_weight_dataset(189, 100), 20,
                                (14, 24, 34, 68, 69, 98), 146683541.11818504),
    "near_noiseless_5000_1e-8_1": (
        lambda: near_noiseless_dataset(1, 5000, 1e-8), 217,
        "b4ca2a281b265118bdacf1b6033ad43ef998af611aae767a69fa9da5d9cc4561",
        3.531811184006289e-14),
}


@pytest.mark.parametrize("name", sorted(STALLED_PINS))
def test_stalled_fits_are_pinned(name):
    build, solves, kinks, objective = STALLED_PINS[name]
    fit, trace = fit_convex_lse(build())
    assert trace.iterations == solves
    if isinstance(kinks, str):
        assert hashlib.sha256(json.dumps(list(fit.kinks)).encode()).hexdigest() == kinks
    else:
        assert fit.kinks == kinks
    assert trace.final_objective == pytest.approx(objective, rel=1e-12)
    last = trace.steps[-1]
    assert (last.entered, last.dropped, last.path) == ((), (), "cycle")


def test_every_solve_is_recorded():
    # a step that enters and drops nothing returns the set the loop holds,
    # so it ends the loop as a "cycle" record: the records' solves add up
    # to the trace's, and a fit whose final sums still hold a violator (the
    # loop stalled) ends on that record.  40 of these 200 fits stall
    stalled = 0
    for seed in range(200):
        fit, trace = fit_convex_lse(extreme_weight_dataset(seed, 100))
        assert sum(step.solves for step in trace.steps) == trace.iterations, seed
        open_sums = trace.certificate.cum.copy()
        open_sums[np.array(replay(trace.steps)[-1], dtype=int) - 1] = np.inf
        open_sums[-1] = np.inf
        last = trace.steps[-1]
        if open_sums.min() < 0.0:
            stalled += 1
            assert (last.entered, last.dropped, last.path) == ((), (), "cycle"), seed
        else:
            assert last.entered or last.dropped, seed
    assert stalled == 40


def _affine_noiseless(s, n, k):
    return generate_scenario(ScenarioSpec("affine", n, mix_seed(s, n, k), sigma=0.0))


def test_exactly_affine_noiseless_draws_certify():
    # noise-free affine data are their own fit; before the revisit exit,
    # three of these 400 draws cycled between two kink sets until the
    # budget ran out.  Every fit certifies (fit_convex_lse raises otherwise)
    # at an objective of 0 to roundoff
    solves = 0
    for s in range(4):
        for n in (100, 200, 500, 1000, 2000):
            for k in range(20):
                ds = _affine_noiseless(s, n, k)
                fit, trace = fit_convex_lse(ds)
                assert trace.final_objective <= n * (4 * np.finfo(float).eps) ** 2, (s, n, k)
                solves += trace.iterations
    assert solves == 999


# (s, n, k) of _affine_noiseless: (solves, the index the second step
# enters, the solves of the cycle step that returns to the empty set)
CYCLE_PINS = {
    (0, 500, 13): (7, 498, 5),
    (1, 200, 12): (9, 172, 7),
    (1, 200, 15): (7, 198, 5),
}


@pytest.mark.parametrize("draw", sorted(CYCLE_PINS))
def test_a_revisited_kink_set_ends_the_loop_in_one_cycle_step(draw):
    # the step after entering j drops it again, back to the empty set the
    # loop held first: that step is recorded as "cycle", entering and
    # dropping nothing, and the loop certifies the set it holds, {j}
    solves, j, cycle_solves = CYCLE_PINS[draw]
    fit, trace = fit_convex_lse(_affine_noiseless(*draw))
    assert trace.iterations == solves
    assert trace.steps == (
        solver.SolverStep((), (), "feasible", 1),
        solver.SolverStep((j,), (), "feasible", 1),
        solver.SolverStep((), (), "cycle", cycle_solves),
    )
    assert replay(trace.steps)[-1] == [j] == [i for i, _ in fit.hinge_coeffs]


FIXTURES = Path(__file__).parent / "fixtures"
RECORDED = json.loads((FIXTURES / "solver_corpus.json").read_text())
KINK_PATHS = json.loads((FIXTURES / "kink_paths.json").read_text())


@pytest.mark.parametrize("family", sorted(CORPUS))
def test_corpus_matches_the_recorded_fits(family):
    # every fit certifies (fit_convex_lse raises otherwise) at the recorded
    # objective; unit-weight fits keep their recorded kinks.  Weighted fits
    # are compared by objective only: a point of weight 1e-8 barely moves
    # it, so its fitted value is loose at an equal objective.  No family
    # may take more solves than it did before the batch drop.  The hinge form
    # that `fit` writes reproduces the fitted values within the roundoff of
    # its own sum: (k + 2) eps times the terms' absolute sum and |fitted|.
    # A tiny first gap makes intercept and base slope huge, so a fixed
    # relative tolerance would fail there (3.7e-6 on tiny_first_gap)
    solves = []
    for name, build in CORPUS[family].items():
        ds = build()
        fit, trace = fit_convex_lse(ds)
        # the hinge terms are nonnegative: their own sum is their absolute sum
        magnitude = (abs(fit.intercept) + np.abs(fit.base_slope * ds.x)
                     + hinge_values(replace(fit, intercept=0.0, base_slope=0.0), ds, ds.x))
        bound = (len(fit.hinge_coeffs) + 2) * np.finfo(float).eps * (
            magnitude + np.abs(fit.fitted))
        assert np.all(np.abs(hinge_values(fit, ds, ds.x) - fit.fitted) <= bound), name
        recorded = RECORDED[family][name]
        assert trace.final_objective == pytest.approx(recorded["objective"], rel=1e-12,
                                                      abs=1e-300)
        if np.all(ds.weights == 1.0):
            assert list(fit.kinks) == recorded["kinks"], name
        solves.append(trace.iterations)
    recorded_solves = [fit["solves"] for fit in RECORDED[family].values()]
    assert np.mean(solves) <= np.mean(recorded_solves)
    if family == "invelope":
        assert np.mean(solves) <= 18


@pytest.mark.parametrize("family", sorted(CORPUS))
def test_corpus_kink_paths(family):
    # the step records replay to the kink set of every step that the
    # recorded per-step snapshots held, and account for every solve: each
    # corpus fit ends on an empty batch
    for name, build in CORPUS[family].items():
        _, trace = fit_convex_lse(build())
        assert kink_path_digest(trace.steps) == KINK_PATHS[family][name], name
        assert sum(step.solves for step in trace.steps) == trace.iterations, name


@pytest.mark.parametrize("family", sorted(CORPUS))
def test_the_line_search_alone_reaches_the_recorded_fits(family, monkeypatch):
    # with every batch drop rejected, each entry falls back to Meyer's line
    # search from its first solve; that path alone is a complete solver
    monkeypatch.setattr(solver, "_DESCENT_MARGIN", math.inf)
    for name, build in CORPUS[family].items():
        ds = build()
        fit, trace = fit_convex_lse(ds)
        recorded = RECORDED[family][name]
        assert trace.final_objective == pytest.approx(recorded["objective"], rel=1e-12,
                                                      abs=1e-300), name
        assert list(fit.kinks) == recorded["kinks"], name


@pytest.mark.parametrize("curve", [np.square, np.exp, lambda x: np.abs(x - 0.5) ** 1.5],
                         ids=["square", "exp", "abs_1.5"])
@pytest.mark.parametrize("n", [300, 1000, 10000])
def test_noiseless_uniform_grid_is_reproduced(curve, n):
    # strictly convex data are their own projection, so every interior point
    # is a kink; a loop that stops short of the last negative sum misses most.
    # The fitted values are the data bit for bit
    x = np.linspace(0.0, 1.0, n)
    y = curve(x)
    fit, _ = fit_convex_lse(Dataset(x=x, y=y, weights=np.ones(n)))
    assert fit.fitted.tobytes() == y.tobytes(), np.max(np.abs(fit.fitted - y))
    assert fit.kinks == tuple(range(1, n - 1))


def test_noisy_quadratic_reaches_below_the_floored_objective():
    # a loop that stops at a floor of -8 eps n = -3.6e-11 ends at 1787.152565
    n = 20000
    rng = np.random.default_rng(20261018)
    x = rng.random(n)
    y = 3.0 * (x - 0.5) ** 2 + 0.3 * rng.standard_normal(n)
    _, trace = fit_convex_lse(Dataset.from_arrays(x, y))
    assert trace.final_objective < 1787.15255


def test_weighted_merge_matches_weighted_oracle():
    ds = Dataset.from_arrays([0.1, 0.2, 0.2, 0.45, 0.7, 0.9], [0.0, 4.0, 6.0, 1.0, -1.0, 3.0])
    fit, _ = fit_convex_lse(ds)
    oracle_fitted, _ = enumerate_convex_lse(ds)
    assert np.max(np.abs(fit.fitted - oracle_fitted)) < 1e-8


def _assert_doubled_rows_fit_alike(seed, n, noise):
    # every row twice, the copy reversed: the merge gives each point weight
    # 2, which scales every moment, certificate sum and the total weight by
    # an exact power of two, so neither the fit nor its path moves a bit
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    y = random_convex_values(x, seed) + noise * rng.standard_normal(n)
    single = Dataset.from_arrays(x, y)
    doubled = Dataset.from_arrays(np.concatenate([x, x[::-1]]), np.concatenate([y, y[::-1]]))
    assert doubled.x.tobytes() == single.x.tobytes()
    assert doubled.y.tobytes() == single.y.tobytes()
    assert np.all(single.weights == 1.0) and np.all(doubled.weights == 2.0)
    fit, trace = fit_convex_lse(single)
    fit2, trace2 = fit_convex_lse(doubled)
    assert fit2.fitted.tobytes() == fit.fitted.tobytes() and fit2.kinks == fit.kinks
    assert (trace2.iterations, trace2.steps) == (trace.iterations, trace.steps)


@given(st.integers(0, 10_000), st.integers(5, 3000), st.sampled_from([1.0, 1e-1, 1e-2, 1e-3]))
def test_doubled_rows_merge_into_the_same_fit(seed, n, noise):
    _assert_doubled_rows_fit_alike(seed, n, noise)


def test_doubled_rows_merge_into_the_same_fit_at_1e5_rows():
    _assert_doubled_rows_fit_alike(20261020, 100_000, 1e-2)


class TestKktSums:
    def test_zero_for_interpolating_fit(self):
        x = np.linspace(0.0, 1.0, 8)
        ds = Dataset(x=x, y=1.0 + 3.0 * (x - 0.4) ** 2, weights=np.ones(8))
        fit, _ = fit_convex_lse(ds)
        sums = kkt_sums(ds, fit)
        assert np.max(np.abs(sums.cum)) < 1e-10
        assert sums.total_gap == pytest.approx(0.0, abs=1e-12)

    def test_concave_triple_hand_values(self):
        # the fit pools to the flat mean 1/3; prefix gaps give cum = (1/6, 0)
        ds = Dataset(x=np.array([0.0, 0.5, 1.0]), y=np.array([0.0, 1.0, 0.0]),
                     weights=np.ones(3))
        fit, _ = fit_convex_lse(ds)
        assert np.allclose(fit.fitted, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
        sums = kkt_sums(ds, fit)
        assert sums.cum == pytest.approx([1 / 6, 0.0], abs=1e-12)
        assert sums.total_gap == pytest.approx(0.0, abs=1e-12)

    def test_detects_upward_perturbation(self):
        ds = random_dataset(11, n=9)
        fit, _ = fit_convex_lse(ds)
        bumped = fit.fitted.copy()
        bumped[4] += 0.1
        sums = kkt_sums(ds, bumped)
        assert sums.total_gap == pytest.approx(0.1, abs=1e-12)

    def test_rejects_length_mismatch(self):
        ds = random_dataset(3, n=6)
        with pytest.raises(ValueError, match="length"):
            kkt_sums(ds, np.zeros(5))


class TestCertificate:
    @pytest.mark.parametrize("seed", range(6))
    def test_postcondition_on_noisy_fits(self, seed):
        ds = noisy_convex_dataset(seed, n=400)
        fit, trace = fit_convex_lse(ds)
        scale = certificate_scale(ds)
        cum = trace.certificate.cum / scale
        assert cum.min() >= -1e-8
        for j in fit.kinks:
            assert abs(cum[j - 1]) <= 1e-8
        assert abs(cum[-1]) <= 1e-8
        assert abs(trace.certificate.total_gap) / scale <= 1e-8

    def test_trace_certificate_is_the_final_kkt_sums(self):
        # the solver certifies the sums its loop computed for the final fit
        # and returns that object; a fresh evaluation must agree bit for bit
        for seed in range(4):
            ds = noisy_convex_dataset(seed, n=300)
            fit, trace = fit_convex_lse(ds)
            fresh = kkt_sums(ds, fit)
            assert np.array_equal(trace.certificate.cum, fresh.cum)
            assert trace.certificate.total_gap == fresh.total_gap

    def test_failed_certificate_names_the_violated_conditions(self):
        # a tolerance below float resolution cannot be certified
        ds = noisy_convex_dataset(1, n=200)
        with pytest.raises(SolverError, match="certificate failed") as info:
            fit_convex_lse(ds, kkt_tol=1e-300)
        for name in ("cumulative_sums_nonnegative", "cumulative_sums_zero_at_kinks",
                     "total_mass_match"):
            assert f"'{name}'" in str(info.value)
        assert info.value.trace is not None

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_tolerance(self, tol):
        ds = noisy_convex_dataset(1, n=20)
        with pytest.raises(ValueError, match="kkt_tol must be strictly positive"):
            fit_convex_lse(ds, kkt_tol=tol)

    def test_first_and_last_points_never_underfit(self):
        # prefix gap at the first index and the matching suffix condition;
        # the certificate slack amplifies by 1/gap at the boundary points
        for seed in range(8):
            ds = noisy_convex_dataset(seed, n=120)
            fit, _ = fit_convex_lse(ds)
            slack = 1e-8 * certificate_scale(ds)
            assert fit.fitted[0] >= ds.y[0] - slack / (ds.x[1] - ds.x[0])
            assert fit.fitted[-1] >= ds.y[-1] - slack / (ds.x[-1] - ds.x[-2])


def test_idempotence():
    # equispaced design keeps the certificate-to-value amplification 1/gap
    # bounded, so refitting reproduces the fit at full precision
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.0, 200)
    y = 3.0 * (x - 0.4) ** 2 + rng.standard_normal(200)
    ds = Dataset(x=x, y=y, weights=np.ones(200))
    fit, _ = fit_convex_lse(ds)
    refit_ds = Dataset(x=ds.x, y=fit.fitted, weights=ds.weights)
    refit, trace = fit_convex_lse(refit_ds)
    assert np.max(np.abs(refit.fitted - fit.fitted)) < 1e-9
    assert trace.final_objective < 1e-16


def test_residual_orthogonality():
    for seed in range(6):
        ds = noisy_convex_dataset(seed, n=150)
        fit, _ = fit_convex_lse(ds)
        resid = ds.y - fit.fitted
        scale = certificate_scale(ds) * ds.response_scale
        assert abs(np.sum(ds.weights * fit.fitted * resid)) / scale < 1e-8


def test_dominance_over_random_convex_candidates():
    ds = noisy_convex_dataset(17, n=120)
    fit, trace = fit_convex_lse(ds)
    resid = ds.y - fit.fitted
    base_scale = certificate_scale(ds)
    for seed in range(100):
        psi = random_convex_values(ds.x, 1000 + seed)
        objective = float(np.sum(ds.weights * (ds.y - psi) ** 2))
        assert trace.final_objective <= objective + 1e-9 * base_scale
        inner = float(np.sum(ds.weights * (psi - fit.fitted) * resid))
        assert inner <= 1e-8 * base_scale * (1.0 + np.max(np.abs(psi)))


def test_affine_equivariance():
    rng = np.random.default_rng(99)
    ds = noisy_convex_dataset(23, n=150)
    fit, _ = fit_convex_lse(ds)
    for _ in range(5):
        a, b = rng.uniform(-5.0, 5.0, size=2)
        shifted = Dataset(x=ds.x, y=ds.y + a + b * ds.x, weights=ds.weights)
        shifted_fit, _ = fit_convex_lse(shifted)
        target = fit.fitted + a + b * ds.x
        assert np.max(np.abs(shifted_fit.fitted - target)) < 1e-9


def test_error_on_tiny_iteration_budget(monkeypatch):
    # a budget of 2 solves: the initial solve and one entry, then the main
    # loop runs out with violators still open
    monkeypatch.setattr(solver, "_SOLVES_PER_POINT", 1 / 15)
    x = np.linspace(0.0, 1.0, 30)
    ds = Dataset(x=x, y=x**2, weights=np.ones(30))
    with pytest.raises(SolverError, match="solves") as info:
        fit_convex_lse(ds)
    assert info.value.trace is not None


def test_every_solve_is_within_the_budget(monkeypatch):
    # entry, batch-drop and line-search solves all check the budget: any
    # budget short of the fit's own solve count stops after exactly that
    # many solves
    ds = PIN_DESIGNS["invelope_0"]()
    needed = fit_convex_lse(ds)[1].iterations
    calls = []
    solve = _HingeSystem.solve
    monkeypatch.setattr(_HingeSystem, "solve", lambda self, k: calls.append(1) or solve(self, k))
    for budget in range(1, needed):
        monkeypatch.setattr(solver, "_SOLVES_PER_POINT", budget / ds.n)
        calls.clear()
        with pytest.raises(SolverError, match="solves"):
            fit_convex_lse(ds)
        assert len(calls) == math.ceil(budget / ds.n * ds.n)


@pytest.mark.parametrize("name", ["invelope_0", "rates_10000_0", "weighted_7"])
def test_budget_exit_trace_records_every_solve(monkeypatch, name):
    # a budget that runs out mid-step records the interrupted step, which
    # keeps the kink set, so the record solves add up on every budget exit
    ds = PIN_DESIGNS[name]()
    needed = fit_convex_lse(ds)[1].iterations
    for budget in range(1, needed):
        monkeypatch.setattr(solver, "_SOLVES_PER_POINT", budget / ds.n)
        with pytest.raises(SolverError, match="solves") as info:
            fit_convex_lse(ds)
        trace = info.value.trace
        assert sum(step.solves for step in trace.steps) == trace.iterations
        last = trace.steps[-1]
        assert (last.entered, last.dropped, last.path) == ((), (), "budget")
        assert all(step.path != "budget" for step in trace.steps[:-1])


def test_trace_records_progress():
    ds = noisy_convex_dataset(2, n=80)
    fit, trace = fit_convex_lse(ds)
    assert trace.iterations >= 1
    first, *later = trace.steps
    assert (first.entered, first.dropped, first.path, first.solves) == ((), (), "feasible", 1)
    assert later
    # every later step changes the set: what enters was out, what drops was in
    kinks = set()
    for step in later:
        assert step.entered or step.dropped
        assert list(step.entered) == sorted(set(step.entered) - kinks)
        assert list(step.dropped) == sorted(set(step.dropped) & kinks)
        assert step.path in ("feasible", "batch_drop", "line_search")
        assert step.solves >= 1
        kinks = (kinks - set(step.dropped)) | set(step.entered)
    assert set(fit.kinks) <= kinks == set(replay(trace.steps)[-1])
    assert sum(step.solves for step in trace.steps) == trace.iterations
    resid = ds.y - fit.fitted
    assert trace.final_objective == pytest.approx(
        float(np.sum(ds.weights * resid**2)), rel=1e-12
    )


def _hinge_lstsq(ds, kinks):
    """Reference solve: weighted lstsq on the explicit hinge design.

    Returns the coefficients (intercept, base slope, hinge coeffs) and the
    weighted residual sum of squares.
    """
    root_w = np.sqrt(ds.weights)
    cols = [np.ones(ds.n), ds.x] + [np.maximum(ds.x - ds.x[j], 0.0) for j in kinks]
    design = np.column_stack(cols) * root_w[:, None]
    target = root_w * ds.y
    coef = np.linalg.lstsq(design, target, rcond=None)[0]
    resid = target - design @ coef
    return coef, float(np.sum(resid * resid))


def _gapped_dataset():
    # points 20, 40 and 59 sit 1e-10 right of their left neighbours
    ds = noisy_convex_dataset(31, n=60)
    x = ds.x.copy()
    for j in (20, 40, 59):
        x[j] = x[j - 1] + 1e-10
    weights = np.random.default_rng(31).uniform(0.5, 3.0, size=60)
    return Dataset(x=x, y=ds.y, weights=weights)


# kinks at both ends of an interior 1e-10 gap are left out: the hinge design
# has a condition number near 1e11 there, so the lstsq reference itself is
# off by about 1e-7 relative
@pytest.mark.parametrize(
    "gapped, kinks",
    [
        pytest.param(False, [7, 19, 33, 48], id="spread"),
        pytest.param(False, [20, 21, 22], id="adjacent"),
        pytest.param(False, [1, 2, 3], id="adjacent_left_end"),
        pytest.param(False, [56, 57, 58], id="adjacent_right_end"),
        pytest.param(True, [19, 21], id="straddling_gap"),
        pytest.param(True, [20, 40], id="right_of_gaps"),
    ],
)
def test_hat_basis_solve_matches_hinge_lstsq(gapped, kinks):
    ds = _gapped_dataset() if gapped else noisy_convex_dataset(31, n=60)
    solved = _HingeSystem(ds).solve(np.array(kinks))[0]
    reference, _ = _hinge_lstsq(ds, kinks)
    assert np.max(np.abs(solved - reference)) < 1e-8


@pytest.mark.parametrize("kinks", [[58], [57, 58]])
def test_hat_basis_solve_on_tiny_last_segment(kinks):
    # the last segment spans a 1e-10 gap, so its hinge coefficient is of
    # order 1/gap; compare relative to the coefficient size
    ds = _gapped_dataset()
    solved = _HingeSystem(ds).solve(np.array(kinks))[0]
    reference, _ = _hinge_lstsq(ds, kinks)
    assert np.max(np.abs(solved - reference)) < 1e-8 * np.max(np.abs(reference))


def _assert_certified(ds, fit, trace, tol=1e-8):
    cum = trace.certificate.cum / certificate_scale(ds)
    assert cum.min() >= -tol
    for j, _ in fit.hinge_coeffs:
        assert abs(cum[j - 1]) <= tol
    assert abs(cum[-1]) <= tol
    assert abs(trace.certificate.total_gap) / certificate_scale(ds) <= tol


@pytest.mark.parametrize("seed", range(4))
def test_vanishing_fit_matches_lstsq_refit_on_its_kinks(seed):
    # segment moments expanded from raw prefix sums cancel on short end
    # segments and fail this bound on seeds 1 and 3, whose last segments
    # hold two and five points
    ds = generate_scenario(ScenarioSpec("vanishing", n=40000, seed=seed, r=4))
    fit, trace = fit_convex_lse(ds)
    _assert_certified(ds, fit, trace)
    _, reference = _hinge_lstsq(ds, [j for j, _ in fit.hinge_coeffs])
    assert trace.final_objective <= (1.0 + 1e-12) * reference


def test_solve_path_makes_no_dense_linear_algebra_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra call on the solve path")

    for name in ("solve", "cond", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    ds = noisy_convex_dataset(8, n=2000)
    fit, trace = fit_convex_lse(ds)
    _assert_certified(ds, fit, trace)
