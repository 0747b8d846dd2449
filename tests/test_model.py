import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from convexreg import (
    ConvexFit,
    Dataset,
    evaluate,
    left_derivative,
)
from convexreg.model import SCALE_LIMIT, cone_violation

from helpers import (
    fit_from_values,
    hinge_values,
    largest_accepted_scale,
    random_convex_values,
    random_dataset,
    scaled_design,
)


def line_fit(x_points, slope=1.0, intercept=0.0):
    x = np.asarray(x_points, dtype=float)
    ds = Dataset(x=x, y=intercept + slope * x, weights=np.ones(x.size))
    return fit_from_values(ds, ds.y), ds


def vee_fit():
    ds = Dataset(x=np.array([0.25, 0.5, 0.75]), y=np.array([1.0, 0.0, 1.0]),
                 weights=np.ones(3))
    return fit_from_values(ds, ds.y), ds


class TestBuildDataset:
    def test_sorts_pairs(self):
        ds = Dataset.from_arrays([0.2, 0.1, 0.3], [1.0, 0.0, 2.0])
        assert np.array_equal(ds.x, [0.1, 0.2, 0.3])
        assert np.array_equal(ds.y, [0.0, 1.0, 2.0])
        assert np.array_equal(ds.weights, [1.0, 1.0, 1.0])

    def test_rejects_single_distinct_x(self):
        with pytest.raises(ValueError, match="distinct"):
            Dataset.from_arrays([0.5, 0.5], [1.0, 3.0])

    def test_merges_duplicates_into_weighted_mean(self):
        ds = Dataset.from_arrays([0.1, 0.2, 0.2, 0.4], [0.0, 4.0, 6.0, 1.0])
        assert np.array_equal(ds.x, [0.1, 0.2, 0.4])
        assert np.array_equal(ds.y, [0.0, 5.0, 1.0])
        assert np.array_equal(ds.weights, [1.0, 2.0, 1.0])

    def test_rejects_out_of_range_x(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset.from_arrays([0.1, 1.2], [0.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset.from_arrays([0.1, 0.4], [np.nan, 1.0])

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            Dataset.from_arrays([0.3], [1.0])

    @given(st.integers(0, 10_000), st.integers(3, 60), st.booleans())
    def test_from_arrays_equals_the_unique_merge_byte_for_byte(self, seed, n, duplicates):
        # distinct abscissae skip np.unique and bincount; the arrays must
        # still be the merge's, signed zeros included
        rng = np.random.default_rng(seed)
        x = rng.random(n)
        if duplicates:
            copies = rng.integers(2, n, size=int(rng.integers(1, n - 1)))
            x[copies] = x[rng.integers(0, 2, size=copies.size)]
        y = rng.standard_normal(n)
        y[rng.random(n) < 0.2] = -0.0
        xs, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
        ds = Dataset.from_arrays(x, y)
        assert ds.x.tobytes() == xs.tobytes()
        assert ds.y.tobytes() == (np.bincount(inverse, weights=y) / counts).tobytes()
        assert ds.weights.tobytes() == counts.astype(float).tobytes()
        assert (ds.n < n) == duplicates

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_from_arrays_owns_read_only_copies_equal_to_a_checked_build(self, duplicates):
        rng = np.random.default_rng(7)
        x = rng.random(200)
        if duplicates:
            x[::20] = x[1::20]
        y = rng.standard_normal(200)
        ds = Dataset.from_arrays(x, y)
        checked = Dataset(x=ds.x, y=ds.y, weights=ds.weights)  # every copy and check
        for field in ("x", "y", "weights"):
            arr = getattr(ds, field)
            assert arr.dtype == np.float64 and arr.tobytes() == getattr(checked, field).tobytes()
            assert not arr.flags.writeable
            assert not np.shares_memory(arr, x) and not np.shares_memory(arr, y)
            assert not np.shares_memory(arr, getattr(checked, field))
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5

    @pytest.mark.parametrize("x, y, message", [
        ([[0.1, 0.2]], [[1.0, 2.0]], "x and y must be 1-d arrays of equal length"),
        ([0.1, 0.2], [1.0], "x and y must be 1-d arrays of equal length"),
        ([0.1, np.nan], [1.0, 2.0], "non-finite values in input points"),
        ([0.1, 0.2], [1.0, -np.inf], "non-finite values in input points"),
        ([-0.1, 0.2], [1.0, 2.0], r"design points must lie in \[0, 1\]"),
        ([0.4, 0.4], [1.0, 2.0], "need at least 2 distinct design points"),
        ([], [], "need at least 2 distinct design points"),
        # the mean of two huge duplicates overflows
        ([0.1, 0.1, 0.5], [1.7e308, 1.7e308, 0.0], "non-finite values in dataset"),
    ])
    def test_from_arrays_error_messages(self, x, y, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset.from_arrays(np.array(x), np.array(y))

    @pytest.mark.parametrize("x, y, w, message", [
        ([0.1, 0.2], [1.0], [1.0, 1.0], "x, y and weights must be 1-d arrays of equal length"),
        ([0.5], [1.0], [1.0], "need at least 2 distinct design points"),
        ([0.1, 0.2], [1.0, np.inf], [1.0, 1.0], "non-finite values in dataset"),
        ([0.1, 1.2], [1.0, 2.0], [1.0, 1.0], r"design points must lie in \[0, 1\]"),
        ([0.2, 0.1], [1.0, 2.0], [1.0, 1.0],
         r"design points must be strictly increasing \(merge duplicates first\)"),
        ([0.1, 0.2], [1.0, 2.0], [1.0, 0.0], "weights must be strictly positive"),
    ])
    def test_direct_construction_keeps_every_check(self, x, y, w, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset(x=np.array(x), y=np.array(y), weights=np.array(w))

    @pytest.mark.parametrize("scale", [1e306, 1e200])
    def test_rejects_responses_beyond_the_scale_limit(self, scale):
        # at 1e306 the certificate scale overflowed to inf and certified a
        # kinkless fit; at 1e200 the objective overflowed
        x, y = scaled_design(scale)
        for build in (lambda: Dataset.from_arrays(x, y),
                      lambda: Dataset(x=x, y=y, weights=np.ones(x.size))):
            with pytest.raises(ValueError, match=re.escape(f"must not exceed {SCALE_LIMIT:g}")):
                build()

    def test_scale_limit_counts_the_total_weight(self):
        # unit weights accept y = 1e149; weights of 1e4 put the same y past the limit
        x = np.array([0.1, 0.5, 0.9])
        y = np.array([1e149, 0.0, 1e149])
        Dataset(x=x, y=y, weights=np.ones(3))
        with pytest.raises(ValueError, match="too large"):
            Dataset(x=x, y=y, weights=np.full(3, 1e4))

    def test_direct_construction_copies(self):
        x, y, w = np.array([0.1, 0.2]), np.array([1.0, 2.0]), np.ones(2)
        ds = Dataset(x=x, y=y, weights=w)
        assert not any(np.shares_memory(a, b) for a, b in ((ds.x, x), (ds.y, y), (ds.weights, w)))
        assert x.flags.writeable and not ds.x.flags.writeable

    @pytest.mark.parametrize("points, match", [
        (np.array([[0.3, 1.0]]), "at least 2"),
        (np.array([[0.5, 1.0], [0.5, 3.0]]), "distinct"),
        (np.array([[0.1, np.inf], [0.4, 1.0]]), "finite"),
    ])
    def test_array_input_errors(self, points, match):
        # the column views of an (n, 2) array, as `convexreg fit` passes them
        with pytest.raises(ValueError, match=match):
            Dataset.from_arrays(points[:, 0], points[:, 1])


class TestEvaluate:
    def test_line_is_reproduced(self):
        fit, ds = line_fit(np.linspace(0.0, 1.0, 9))
        assert evaluate(fit, ds, 0.37) == pytest.approx(0.37, abs=1e-14)

    def test_extrapolates_first_segment_to_zero(self):
        fit, ds = vee_fit()
        assert evaluate(fit, ds, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert evaluate(fit, ds, 1.0) == pytest.approx(2.0, abs=1e-12)

    @given(st.integers(0, 10_000))
    def test_matches_manual_interpolation(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(seed, n=12)
        values = random_convex_values(ds.x, seed)
        fit = fit_from_values(ds, values)
        i = int(rng.integers(0, ds.n - 1))
        lam = rng.uniform(0.1, 0.9)
        t = ds.x[i] + lam * (ds.x[i + 1] - ds.x[i])
        manual = values[i] + (t - ds.x[i]) * (values[i + 1] - values[i]) / (
            ds.x[i + 1] - ds.x[i]
        )
        assert evaluate(fit, ds, t) == pytest.approx(manual, abs=1e-12)

    def test_rejects_points_outside_domain(self):
        fit, ds = vee_fit()
        with pytest.raises(ValueError):
            evaluate(fit, ds, -0.01)
        with pytest.raises(ValueError):
            evaluate(fit, ds, 1.01)
        # NaN fails every comparison, so only a two-sided test refuses it
        for t in (np.nan, np.array([0.2, np.nan, 0.6])):
            for query in (evaluate, left_derivative):
                with pytest.raises(ValueError, match=r"^evaluation points must lie in \[0, 1\]$"):
                    query(fit, ds, t)

    def test_rejects_mismatched_lengths(self):
        fit, _ = vee_fit()
        other = Dataset(x=np.array([0.1, 0.9]), y=np.zeros(2), weights=np.ones(2))
        with pytest.raises(ValueError, match="length"):
            evaluate(fit, other, 0.5)

    @given(st.integers(0, 10_000))
    def test_convex_in_t(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(seed, n=10)
        fit = fit_from_values(ds, random_convex_values(ds.x, seed))
        t1, t2 = np.sort(rng.uniform(0.0, 1.0, size=2))
        lam = rng.uniform(0.0, 1.0)
        mid = lam * t1 + (1 - lam) * t2
        combo = lam * evaluate(fit, ds, t1) + (1 - lam) * evaluate(fit, ds, t2)
        assert evaluate(fit, ds, mid) <= combo + 1e-12


class TestLeftDerivative:
    def test_line_slope_everywhere(self):
        fit, ds = line_fit(np.linspace(0.0, 1.0, 9))
        for t in (0.0, 0.3, 0.5, 1.0):
            assert left_derivative(fit, ds, t) == pytest.approx(1.0, abs=1e-12)

    def test_vee_slopes(self):
        fit, ds = vee_fit()
        assert left_derivative(fit, ds, 0.5) == pytest.approx(-4.0)
        assert left_derivative(fit, ds, 0.6) == pytest.approx(4.0)

    @given(st.integers(0, 10_000))
    def test_nondecreasing_in_t(self, seed):
        ds = random_dataset(seed, n=11)
        values = random_convex_values(ds.x, seed)
        fit = fit_from_values(ds, values)
        grid = np.linspace(0.0, 1.0, 101)[1:]
        slopes = left_derivative(fit, ds, grid)
        # slope roundoff amplifies by 1/gap, same allowance as the cone check
        allowance = 8 * np.finfo(float).eps * (1 + np.max(np.abs(values)))
        allowance /= np.min(np.diff(ds.x))
        assert np.all(np.diff(slopes) >= -allowance)


def assert_hinge_form_reproduces_fitted(fit, ds):
    recon = hinge_values(fit, ds, ds.x)
    assert np.max(np.abs(recon - fit.fitted)) <= 1e-10 * (1.0 + np.max(np.abs(fit.fitted)))


class TestHingeRepresentation:
    def test_pure_line(self):
        fit, ds = line_fit(np.linspace(0.0, 1.0, 6), slope=2.0, intercept=1.0)
        assert_hinge_form_reproduces_fitted(fit, ds)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.base_slope == pytest.approx(2.0, abs=1e-12)
        assert fit.hinge_coeffs == ()

    def test_single_kink(self):
        fit, ds = vee_fit()
        assert_hinge_form_reproduces_fitted(fit, ds)
        assert fit.intercept == pytest.approx(2.0, abs=1e-12)
        assert fit.base_slope == pytest.approx(-4.0, abs=1e-12)
        assert len(fit.hinge_coeffs) == 1
        assert fit.hinge_coeffs[0][0] == 1
        assert fit.hinge_coeffs[0][1] == pytest.approx(8.0, abs=1e-12)

    @given(st.integers(0, 10_000))
    def test_reconstruction_round_trip(self, seed):
        ds = random_dataset(seed, n=10)
        values = random_convex_values(ds.x, seed)
        fit = fit_from_values(ds, values)
        recon = hinge_values(fit, ds, ds.x)
        scale = 1.0 + np.max(np.abs(values))
        assert np.max(np.abs(recon - values)) <= 1e-10 * scale

    def test_rejects_nonconvex_values(self):
        ds = Dataset(x=np.array([0.0, 0.5, 1.0]), y=np.zeros(3), weights=np.ones(3))
        with pytest.raises(ValueError, match="convex"):
            fit_from_values(ds, np.array([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("kinks", [(0,), (5,), (2, 2), (4, 2), (0, 9), (2.0,)])
    def test_rejects_kinks_outside_the_interior_or_out_of_order(self, kinks):
        # n = 6: the interior design indices are 1..4
        with pytest.raises(ValueError, match="kinks"):
            ConvexFit(fitted=np.zeros(6), kinks=kinks, intercept=0.0,
                      base_slope=0.0, hinge_coeffs=())
        hinges = tuple((j, 1.0) for j in kinks)
        with pytest.raises(ValueError, match="hinge indices"):
            ConvexFit(fitted=np.zeros(6), kinks=(), intercept=0.0,
                      base_slope=0.0, hinge_coeffs=hinges)

    def test_accepts_interior_increasing_kinks(self):
        fit = ConvexFit(fitted=np.zeros(6), kinks=(np.int64(1), 4), intercept=0.0,
                        base_slope=0.0, hinge_coeffs=((1, 1.0), (np.int64(4), 2.0)))
        assert fit.kinks == (1, 4) and fit.hinge_coeffs == ((1, 1.0), (4, 2.0))
        assert all(type(j) is int for j in (*fit.kinks, *(j for j, _ in fit.hinge_coeffs)))

    @pytest.mark.parametrize(
        "fields",
        [
            {"fitted": np.full(12, np.nan)},
            {"fitted": np.r_[np.zeros(11), np.inf]},
            {"intercept": np.nan},
            {"base_slope": np.inf},
            {"base_slope": -np.inf},
            {"hinge_coeffs": ((3, np.inf),)},
            {"hinge_coeffs": ((3, 1.0), (5, np.nan))},
        ],
        ids=["fitted_nan", "fitted_inf", "intercept_nan", "base_slope_inf",
             "base_slope_minus_inf", "hinge_inf", "hinge_nan"],
    )
    def test_rejects_non_finite_values(self, fields):
        # a NaN hinge slips past "b <= 0.0"; evaluate would return NaN silently
        base = dict(fitted=np.zeros(12), kinks=(), intercept=0.0, base_slope=0.0,
                    hinge_coeffs=((3, 1.0),))
        with pytest.raises(ValueError, match="non-finite"):
            ConvexFit(**{**base, **fields})
        ConvexFit(**base)

    def test_rejects_nonpositive_hinge_coefficients(self):
        with pytest.raises(ValueError, match="positive"):
            ConvexFit(fitted=np.zeros(3), kinks=(1,), intercept=0.0,
                      base_slope=0.0, hinge_coeffs=((1, -0.5),))


def test_cone_violation_signs():
    x = np.array([0.0, 0.5, 1.0])
    assert cone_violation(x, np.array([1.0, 0.0, 1.0])) < 0.0
    assert cone_violation(x, np.array([0.0, 1.0, 0.0])) > 1.0
