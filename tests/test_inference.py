import numpy as np
import pytest

from convexreg import (
    Dataset,
    ScenarioSpec,
    argmin_estimator,
    boundary_diagnostics,
    boundary_inconsistency_study,
    evaluate,
    fit_convex_lse,
    generate_scenario,
    left_derivative,
    local_error_study,
    scaling_constants,
)

from helpers import fit_from_values, noisy_convex_dataset

# frozen with 60-digit decimal arithmetic: 15 ** (1/9)
FIFTEEN_NINTH_ROOT = 1.35106675160177083134619815405


def vee():
    ds = Dataset(x=np.array([0.25, 0.5, 0.75]), y=np.array([1.0, 0.0, 1.0]),
                 weights=np.ones(3))
    return fit_from_values(ds, ds.y), ds


class TestArgmin:
    def test_increasing_fit_takes_first_point(self):
        x = np.linspace(0.1, 0.9, 7)
        ds = Dataset(x=x, y=2.0 * x, weights=np.ones(7))
        fit = fit_from_values(ds, ds.y)
        result = argmin_estimator(fit, ds)
        assert result.location == pytest.approx(0.1)
        assert result.tie_count == 1

    def test_tie_resolves_to_smaller_point(self):
        ds = Dataset(x=np.array([0.1, 0.4, 0.6, 0.9]),
                     y=np.array([1.0, 0.0, 0.0, 1.0]), weights=np.ones(4))
        fit = fit_from_values(ds, ds.y)
        result = argmin_estimator(fit, ds)
        assert result.location == pytest.approx(0.4)
        assert result.value == pytest.approx(0.0)
        assert result.tie_count == 2

    def test_location_attains_global_minimum_of_interpolant(self):
        for seed in range(5):
            ds = noisy_convex_dataset(seed, n=60)
            fit, _ = fit_convex_lse(ds)
            result = argmin_estimator(fit, ds)
            grid = np.linspace(ds.x[0], ds.x[-1], 401)
            assert result.value <= float(np.min(evaluate(fit, ds, grid))) + 1e-10


class TestBoundary:
    def test_line(self):
        x = np.linspace(0.2, 0.8, 5)
        ds = Dataset(x=x, y=x.copy(), weights=np.ones(5))
        fit = fit_from_values(ds, ds.y)
        b = boundary_diagnostics(fit, ds)
        assert (b.value_at_0, b.deriv_at_0) == (pytest.approx(0.0), pytest.approx(1.0))
        assert (b.value_at_1, b.deriv_at_1) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_vee(self):
        fit, ds = vee()
        b = boundary_diagnostics(fit, ds)
        assert b.value_at_0 == pytest.approx(2.0)
        assert b.deriv_at_0 == pytest.approx(-4.0)
        assert b.value_at_1 == pytest.approx(2.0)
        assert b.deriv_at_1 == pytest.approx(4.0)

    def test_boundary_slopes_bracket_interior_slopes(self):
        for seed in range(5):
            ds = noisy_convex_dataset(seed, n=80)
            fit, _ = fit_convex_lse(ds)
            b = boundary_diagnostics(fit, ds)
            grid = np.linspace(0.01, 1.0, 50)
            slopes = left_derivative(fit, ds, grid)
            assert np.all(slopes >= b.deriv_at_0 - 1e-10)
            assert np.all(slopes <= b.deriv_at_1 + 1e-10)

    def test_matches_the_boundary_segment_continuation(self):
        # the evaluators continue the first and last segments linearly; on
        # designs that start at 0 or end at 1 they read the end values
        for seed in range(60):
            rng = np.random.default_rng(900 + seed)
            x = np.sort(rng.random(int(rng.integers(3, 40))))
            if seed % 3 == 0:
                x[0] = 0.0
            if seed % 5 == 0:
                x[-1] = 1.0
            y = 4.0 * (x - rng.random()) ** 2 + rng.standard_normal(x.size)
            ds = Dataset.from_arrays(x, y)
            fit, _ = fit_convex_lse(ds)
            f, x = fit.fitted, ds.x
            s0, s1 = (f[1] - f[0]) / (x[1] - x[0]), (f[-1] - f[-2]) / (x[-1] - x[-2])
            b = boundary_diagnostics(fit, ds)
            assert (b.value_at_0, b.deriv_at_0, b.value_at_1, b.deriv_at_1) == (
                f[0] - s0 * x[0], s0, f[-1] + s1 * (1.0 - x[-1]), s1)

    def test_overshoot_frequency_stays_positive(self):
        study = boundary_inconsistency_study((500, 2000), replicates=40, seed=5)
        assert all(f >= 0.05 for f in study.frequencies.values())


class TestScalingConstants:
    def test_unit_case(self):
        d1, d2 = scaling_constants(2, 1.0, 24.0)
        assert d1 == pytest.approx(1.0, abs=1e-15)
        assert d2 == pytest.approx(1.0, abs=1e-15)

    def test_r4_closed_form(self):
        d1, _ = scaling_constants(4, 1.0, 48.0)
        assert d1 == pytest.approx(FIFTEEN_NINTH_ROOT, rel=1e-14)

    def test_r2_closed_forms_at_sigma_2(self):
        # Groeneboom, Jongbloed and Wellner (2001): c1 = (24/(sigma^4 f''))^(1/5)
        # and c2 = (24^3/(sigma^2 f''^3))^(1/5); at sigma = 2, f'' = 24 they
        # are 2^(-4/5) and 2^(-2/5)
        d1, d2 = scaling_constants(2, 2.0, 24.0)
        assert d1 == pytest.approx(2.0 ** -0.8, rel=1e-15)
        assert d2 == pytest.approx(2.0 ** -0.4, rel=1e-15)

    @pytest.mark.parametrize("r", [2, 4])
    def test_sigma_powers_balance_noise_against_drift(self, r):
        # d1 scales as sigma^(-2r/(2r+1)) and d2 as sigma^(-(2r-2)/(2r+1))
        root = 1.0 / (2 * r + 1)
        scaled = []
        for s in (0.5, 1.0, 2.0, 7.0):
            d1, d2 = scaling_constants(r, s, 48.0)
            scaled.append((d1 * s ** (2 * r * root), d2 * s ** ((2 * r - 2) * root)))
        for pair in scaled[1:]:
            assert pair == pytest.approx(scaled[0], rel=1e-14)

    @pytest.mark.parametrize("r,sigma,deriv", [(3, 1.0, 1.0), (2, 0.0, 1.0),
                                               (2, -1.0, 1.0), (2, 1.0, 0.0),
                                               (1, 1.0, 1.0), (2, np.nan, 1.0),
                                               (2, np.inf, 1.0), (2, 1.0, np.nan),
                                               (2, 1.0, np.inf)])
    def test_rejects_bad_arguments(self, r, sigma, deriv):
        with pytest.raises(ValueError):
            scaling_constants(r, sigma, deriv)

    def test_decreasing_in_sigma_and_curvature(self):
        sigmas = [0.5, 1.0, 2.0, 4.0]
        d1s = [scaling_constants(2, s, 24.0)[0] for s in sigmas]
        d2s = [scaling_constants(2, s, 24.0)[1] for s in sigmas]
        assert all(b < a for a, b in zip(d1s[:-1], d1s[1:]))
        assert all(b < a for a, b in zip(d2s[:-1], d2s[1:]))
        derivs = [4.0, 24.0, 120.0]
        d1m = [scaling_constants(2, 1.0, m)[0] for m in derivs]
        assert all(b < a for a, b in zip(d1m[:-1], d1m[1:]))


def window_grid(x0, halfwidth):
    """The fixed 101-point grid on [x0 - h, x0 + h]: the fit is piecewise
    linear, so a finer grid only interpolates."""
    return np.linspace(x0 - halfwidth, x0 + halfwidth, 101)


class TestLocalEstimates:
    def test_noiseless_profile_is_zero(self):
        # a noiseless convex sample comes back exactly, so over the window
        # the fit is the interpolant of the truth at the design points
        x = np.linspace(0.0, 1.0, 60)
        truth = lambda t: 2.0 * (np.asarray(t) - 0.5) ** 2
        ds = Dataset(x=x, y=truth(x), weights=np.ones(60))
        fit, _ = fit_convex_lse(ds)
        grid = window_grid(0.5, 0.2)
        sup_dev = np.max(np.abs(evaluate(fit, ds, grid) - np.interp(grid, x, truth(x))))
        assert sup_dev == pytest.approx(0.0, abs=1e-12)

    def test_line_values(self):
        x = np.linspace(0.0, 1.0, 9)
        ds = Dataset(x=x, y=x.copy(), weights=np.ones(9))
        fit = fit_from_values(ds, ds.y)
        assert evaluate(fit, ds, 0.5) == pytest.approx(0.5, abs=1e-13)
        assert left_derivative(fit, ds, 0.5) == pytest.approx(1.0, abs=1e-13)

    def test_rejects_window_outside_domain(self):
        fit, ds = vee()
        grid = window_grid(0.05, 0.1)
        for estimate in (evaluate, left_derivative):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                estimate(fit, ds, grid)

    def test_scaled_sup_deviation_bounded_for_affine_truth(self):
        # sup deviation from the true line over a fixed window, scaled by
        # sqrt(n), should have stable quantiles across sample sizes
        grid = window_grid(0.5, 0.1)
        line = 2.0 * (grid - 0.5)
        q95 = {}
        for n in (1000, 4000):
            devs = []
            for rep in range(50):
                spec = ScenarioSpec(kind="affine", n=n, seed=3000 + rep)
                ds = generate_scenario(spec)
                fit, _ = fit_convex_lse(ds)
                devs.append(np.sqrt(n) * np.max(np.abs(evaluate(fit, ds, grid) - line)))
            q95[n] = float(np.quantile(devs, 0.95))
        assert max(q95.values()) < 2.0 * min(q95.values())


def test_argmin_consistency_across_sample_sizes():
    study = local_error_study(2, (500, 2000, 8000), 50, seed=6)
    medians = [float(np.median(v)) for _, v in sorted(study.by_n("argmin_err").items())]
    assert all(b <= a for a, b in zip(medians[:-1], medians[1:]))
