import numpy as np
import pytest
from hypothesis import given, strategies as st

from convexreg import (
    Dataset,
    SolverError,
    ToleranceConfig,
    fit_convex_lse,
    kkt_sums,
)
from convexreg.oracle import enumerate_convex_lse
from convexreg.simulation import ScenarioSpec, generate_scenario
from convexreg.solver import _HingeSystem, certificate_scale

from helpers import noisy_convex_dataset, random_convex_values, random_dataset


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


@given(st.integers(0, 10_000))
def test_matches_enumeration_oracle(seed):
    ds = random_dataset(seed, n_min=2, n_max=10)
    fit, trace = fit_convex_lse(ds)
    oracle_fitted, oracle_objective = enumerate_convex_lse(ds)
    assert np.max(np.abs(fit.fitted - oracle_fitted)) < 1e-6
    if oracle_objective > 1e-12:  # relative comparison is vacuous near zero
        assert trace.final_objective == pytest.approx(oracle_objective, rel=1e-9)
    sums = kkt_sums(ds, fit)
    assert abs(sums.total_gap) < 1e-9


def test_weighted_merge_matches_weighted_oracle():
    from convexreg import build_dataset

    ds = build_dataset(
        [(0.1, 0.0), (0.2, 4.0), (0.2, 6.0), (0.45, 1.0), (0.7, -1.0), (0.9, 3.0)]
    )
    fit, _ = fit_convex_lse(ds)
    oracle_fitted, _ = enumerate_convex_lse(ds)
    assert np.max(np.abs(fit.fitted - oracle_fitted)) < 1e-8


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


def test_error_on_tiny_iteration_budget():
    x = np.linspace(0.0, 1.0, 30)
    ds = Dataset(x=x, y=x**2, weights=np.ones(30))
    with pytest.raises(SolverError, match="solves"):
        fit_convex_lse(ds, ToleranceConfig(max_iterations=2))


def test_trace_records_progress():
    ds = noisy_convex_dataset(2, n=80)
    fit, trace = fit_convex_lse(ds)
    assert trace.iterations >= 1
    assert len(trace.kink_history) >= 1
    assert set(fit.kinks) <= set(trace.kink_history[-1])
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
    solved = _HingeSystem(ds).solve(np.array(kinks))
    reference, _ = _hinge_lstsq(ds, kinks)
    assert np.max(np.abs(solved - reference)) < 1e-8


@pytest.mark.parametrize("kinks", [[58], [57, 58]])
def test_hat_basis_solve_on_tiny_last_segment(kinks):
    # the last segment spans a 1e-10 gap, so its hinge coefficient is of
    # order 1/gap; compare relative to the coefficient size
    ds = _gapped_dataset()
    solved = _HingeSystem(ds).solve(np.array(kinks))
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
