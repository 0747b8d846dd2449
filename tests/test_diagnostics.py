import numpy as np
import pytest

from convexreg import (
    KKT_TOL,
    ConvexFit,
    Dataset,
    characterization_report,
    fit_convex_lse,
    g_process,
    kkt_sums,
    segment_reports,
    tent_functional,
    tent_weight,
)
from convexreg.solver import certificate_scale

from helpers import (
    largest_accepted_scale,
    near_duplicate_design,
    noisy_convex_dataset,
    random_dataset,
    scaled_design,
)
from oracle import enumerate_convex_lse


def oracle_fit(dataset):
    fitted, _ = enumerate_convex_lse(dataset)
    return ConvexFit.from_values(dataset, fitted)


def interpolating_instance(n=12):
    x = np.linspace(0.0, 1.0, n)
    ds = Dataset(x=x, y=(x - 0.3) ** 2, weights=np.ones(n))
    fit, _ = fit_convex_lse(ds)
    return ds, fit


class TestGProcess:
    def test_zero_for_interpolating_fit(self):
        ds, fit = interpolating_instance()
        gp = g_process(ds, fit)
        assert np.max(np.abs(gp.values)) < 1e-10
        violations = kkt_sums(ds, fit).violations(fit.kinks, certificate_scale(ds))
        assert max(violations.values()) <= KKT_TOL

    @pytest.mark.parametrize("seed", range(8))
    def test_nonnegative_and_zero_at_kinks_on_oracle_fits(self, seed):
        ds = random_dataset(seed, n_min=6, n_max=12)
        fit = oracle_fit(ds)
        gp = g_process(ds, fit)
        scale = certificate_scale(ds)
        assert gp.min_value >= -1e-9 * scale
        if gp.kink_values.size:
            assert np.max(np.abs(gp.kink_values)) <= 1e-9 * scale
        assert np.array_equal(gp.kink_values, gp.values[list(fit.kinks)])
        violations = kkt_sums(ds, fit).violations(fit.kinks, scale)
        assert max(violations.values()) <= KKT_TOL

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_direct_quadratic_evaluation(self, seed):
        # G(x_p) = sum_{i <= p} w_i (f_i - y_i)(x_p - x_i), evaluated term by
        # term on weighted designs built by merging duplicate abscissae
        rng = np.random.default_rng(100 + seed)
        n_raw = int(rng.integers(20, 80))
        x = rng.integers(0, n_raw // 2, size=n_raw) / (n_raw // 2)
        y = rng.standard_normal(n_raw) * rng.uniform(0.1, 10.0)
        ds = Dataset.from_arrays(x, y)
        assert ds.weights.max() > 1.0
        fit, _ = fit_convex_lse(ds)
        for fitted in (fit.fitted, rng.standard_normal(ds.n)):
            e = ds.weights * (fitted - ds.y)
            reference = np.array([
                sum(e[i] * (ds.x[p] - ds.x[i]) for i in range(p + 1))
                for p in range(ds.n)
            ])
            gp = g_process(ds, fitted)
            assert gp.values.shape == (ds.n,)
            assert gp.values[0] == 0.0
            atol = 1e-12 * certificate_scale(ds)
            assert np.allclose(gp.values, reference, rtol=1e-10, atol=atol)

    def test_flags_downward_perturbation(self):
        ds = noisy_convex_dataset(4, n=40)
        fit, _ = fit_convex_lse(ds)
        dented = fit.fitted.copy()
        dented[the_idx := len(dented) // 2] -= 0.5
        gp = g_process(ds, dented)
        assert gp.min_value < 0.0
        tol = KKT_TOL * certificate_scale(ds)
        assert any(i >= the_idx for i in np.flatnonzero(gp.values < -tol))
        violations = kkt_sums(ds, dented).violations(fit.kinks, certificate_scale(ds))
        assert violations["cumulative_sums_nonnegative"] > KKT_TOL


class TestTentFunctional:
    def test_weight_shape(self):
        u, v = 0.3, 0.7
        assert tent_weight(u, v, u) == pytest.approx(1.0)
        assert tent_weight(u, v, v) == pytest.approx(1.0)
        assert tent_weight(u, v, 0.5 * (u + v)) == pytest.approx(-1.0)
        assert tent_weight(u, v, 0.1) == pytest.approx(1.0)
        assert tent_weight(u, v, 0.95) == pytest.approx(1.0)

    def test_zero_for_interpolating_fit(self):
        ds, fit = interpolating_instance()
        for u, v in [(0.1, 0.4), (0.2, 0.9), (0.55, 0.6)]:
            assert tent_functional(ds, fit, u, v) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_nonpositive_between_kinks(self, seed):
        ds = random_dataset(seed, n_min=8, n_max=12)
        fit = oracle_fit(ds)
        kinks = fit.kinks
        for a in range(len(kinks)):
            for b in range(a + 1, len(kinks)):
                z = tent_functional(ds, fit, ds.x[kinks[a]], ds.x[kinks[b]])
                assert z <= 1e-9 * ds.response_scale

    def test_rejects_bad_interval(self):
        ds, fit = interpolating_instance()
        with pytest.raises(ValueError):
            tent_functional(ds, fit, 0.7, 0.3)


class TestSegmentReports:
    def test_noiseless_affine_segment_is_exact(self):
        x = np.linspace(0.0, 1.0, 10)
        ds = Dataset(x=x, y=2.0 * x - 0.5, weights=np.ones(10))
        fit, _ = fit_convex_lse(ds)
        reports = segment_reports(ds, fit)
        assert len(reports) == 1
        seg = reports[0]
        assert seg.t1 == pytest.approx(0.0, abs=1e-12)
        assert seg.t2 == pytest.approx(0.0, abs=1e-12)
        assert seg.sup_gap == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_sign_pattern_on_oracle_fits(self, seed):
        ds = random_dataset(seed, n_min=6, n_max=12)
        fit = oracle_fit(ds)
        tol = 1e-9 * certificate_scale(ds)
        for seg in segment_reports(ds, fit):
            assert seg.t1 <= tol
            assert seg.t2 <= tol
            assert seg.open_t1 >= -tol
            assert seg.open_t2 >= -tol
            assert seg.endpoint_resid_u <= tol
            assert seg.endpoint_resid_v <= tol  # informational mirror check

    @pytest.mark.parametrize("seed", range(6))
    def test_least_squares_gap_bound(self, seed):
        ds = noisy_convex_dataset(seed, n=300)
        fit, _ = fit_convex_lse(ds)
        for seg in segment_reports(ds, fit):
            assert seg.sup_gap <= seg.gap_bound + 1e-8 * ds.response_scale

    def test_long_segment_gap_decays_with_sample_size(self):
        # affine truth: the gap between the fit and the segment's own
        # regression line shrinks as n grows; the guarantee applies to
        # segments whose length stays bounded below (short transition pieces
        # and boundary pieces carry O(1) residual-scale gaps instead)
        from convexreg import ScenarioSpec, generate_scenario

        medians = []
        for n in (500, 1000, 2000, 4000):
            gaps = []
            for rep in range(30):
                ds = generate_scenario(ScenarioSpec(kind="affine", n=n, seed=7000 + rep))
                fit, _ = fit_convex_lse(ds)
                segs = [s for s in segment_reports(ds, fit) if s.v - s.u >= 0.15]
                if segs:
                    gaps.append(max(s.sup_gap for s in segs))
            medians.append(float(np.median(gaps)))
        assert all(b < a for a, b in zip(medians[:-1], medians[1:]))


class TestCharacterizationReport:
    def test_passes_on_solver_output(self):
        ds = noisy_convex_dataset(9, n=250)
        fit, _ = fit_convex_lse(ds)
        report = characterization_report(ds, fit)
        assert report.passed

    def test_running_mean_fails_kink_equalities(self):
        # running prefix mean of strictly convex data is a plausible-looking
        # but wrong fit: its cumulative sums cannot vanish at slope changes
        x = np.linspace(0.0, 1.0, 30)
        y = (x - 0.2) ** 2
        ds = Dataset(x=x, y=y, weights=np.ones(30))
        running_mean = np.cumsum(y) / np.arange(1, 31)
        report = characterization_report(ds, running_mean)
        assert not report.passed
        assert not report.condition("cumulative_sums_zero_at_kinks").passed

    def test_affine_shift_leaves_residual_checks_unchanged(self):
        ds = noisy_convex_dataset(13, n=150)
        fit, _ = fit_convex_lse(ds)
        report = characterization_report(ds, fit)
        shifted_ds = Dataset(x=ds.x, y=ds.y + 2.0 + 3.0 * ds.x, weights=ds.weights)
        shifted_values = fit.fitted + 2.0 + 3.0 * ds.x
        shifted_report = characterization_report(shifted_ds, shifted_values)
        assert shifted_report.passed == report.passed
        for cond in report.conditions:
            assert shifted_report.condition(cond.name).passed == cond.passed
        raw = kkt_sums(ds, fit)
        shifted_raw = kkt_sums(shifted_ds, shifted_values)
        assert np.allclose(raw.cum, shifted_raw.cum, atol=1e-10)

    def test_condition_names(self):
        ds = noisy_convex_dataset(9, n=60)
        fit, _ = fit_convex_lse(ds)
        for values in (fit, np.zeros(ds.n)):
            report = characterization_report(ds, values)
            assert tuple(c.name for c in report.conditions) == (
                "cone",
                "fit_residual_orthogonality",
                "cumulative_sums_nonnegative",
                "cumulative_sums_zero_at_kinks",
                "total_mass_match",
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_raw_values_get_the_fit_verdicts_on_near_duplicates(self, seed):
        # near-duplicate abscissae put slope rounding far above kink_tol; a
        # raw array must still bend only where ConvexFit.from_values would
        ds = Dataset.from_arrays(*near_duplicate_design(seed))
        fit, _ = fit_convex_lse(ds)
        assert np.diff(ds.x).min() < 1e-9
        from_fit = characterization_report(ds, fit)
        raw = characterization_report(ds, fit.fitted)
        assert raw.passed
        assert [(c.name, c.passed) for c in raw.conditions] == \
            [(c.name, c.passed) for c in from_fit.conditions]
        kinks = ConvexFit.from_values(ds, fit.fitted).kinks
        assert kinks == fit.kinks
        assert [seg.first_index for seg in segment_reports(ds, fit.fitted)] == [0, *kinks]

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_tolerance(self, tol):
        ds = noisy_convex_dataset(9, n=20)
        fit, _ = fit_convex_lse(ds)
        with pytest.raises(ValueError, match="kkt_tol must be strictly positive"):
            characterization_report(ds, fit, kkt_tol=tol)

    def test_usable_to_reject_arbitrary_values(self):
        ds = random_dataset(21, n=12)
        report = characterization_report(ds, np.zeros(12))
        assert not report.passed

    def test_rejects_wrong_columns_at_the_largest_accepted_scale(self):
        # the normalizers stay finite, so a zero column, the mean and the
        # least-squares line all fail while the fit passes
        ds = Dataset.from_arrays(*scaled_design(largest_accepted_scale()))
        fit, trace = fit_convex_lse(ds)
        assert np.isfinite(trace.final_objective)
        assert fit.kinks == fit_convex_lse(Dataset.from_arrays(*scaled_design(1.0)))[0].kinks
        assert characterization_report(ds, fit).passed
        slope, intercept = np.polyfit(ds.x, ds.y, 1)
        for wrong in (np.zeros(ds.n), np.full(ds.n, ds.y.mean()), intercept + slope * ds.x):
            assert not characterization_report(ds, wrong).passed

    @pytest.mark.parametrize("column", ["huge", "nan", "inf"])
    def test_rejects_raw_columns_beyond_the_scale_limit(self, column):
        ds = Dataset.from_arrays(*scaled_design(1.0))
        values = {"huge": 1e160 * ds.y, "nan": np.where(ds.x < 0.5, ds.y, np.nan),
                  "inf": np.where(ds.x < 0.5, ds.y, np.inf)}[column]
        message = "must not exceed" if column == "huge" else "non-finite fitted values"
        for check in (characterization_report, kkt_sums, ConvexFit.from_values):
            with pytest.raises(ValueError, match=message):
                check(ds, values)

    def test_nan_violation_fails(self):
        # max(0.0, nan) is 0.0: a NaN violation once read as a pass.  ConvexFit
        # rejects NaN values, so the fit is built around its __post_init__.
        ds = random_dataset(21, n=12)
        fit = object.__new__(ConvexFit)
        for name, value in dict(fitted=np.full(12, np.nan), kinks=(), intercept=0.0,
                                base_slope=0.0, hinge_coeffs=()).items():
            object.__setattr__(fit, name, value)
        report = characterization_report(ds, fit)
        assert not report.passed
        assert len(report.conditions) == 5
        for c in report.conditions:
            assert np.isnan(c.worst) and not c.passed, c.name


class TestResidualSumIdentities:
    # the report has no plain or x-weighted residual-sum conditions because
    # the certificate sums determine both:
    #   sum w (y - f) = -total_gap,  sum w x (y - f) = cum[-1] - x[n-1] total_gap
    @pytest.mark.parametrize("seed", range(4))
    def test_residual_sums_follow_from_certificate_sums(self, seed):
        rng = np.random.default_rng(400 + seed)
        x = rng.integers(0, 400, size=500) / 400
        y = 3.0 * (x - 0.5) ** 2 + rng.uniform(0.1, 10.0) * rng.standard_normal(500)
        ds = Dataset.from_arrays(x, y)
        assert ds.weights.max() > 1.0
        fit, _ = fit_convex_lse(ds)
        raw = ds.y + np.abs(ds.y).max() * rng.standard_normal(ds.n)
        tol = ds.n * np.finfo(float).eps * certificate_scale(ds)
        for fitted in (fit.fitted, raw):
            sums = kkt_sums(ds, fitted)
            resid = ds.weights * (ds.y - fitted)
            assert abs(np.sum(resid) + sums.total_gap) <= tol
            assert abs(np.sum(ds.x * resid) - (sums.cum[-1] - ds.x[-1] * sums.total_gap)) <= tol
