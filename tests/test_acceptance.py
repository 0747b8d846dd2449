"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is fixed
here, not calibrated at run time; the statistical criteria use the study seed
20260808 so the whole gate is reproducible bit for bit.
"""

import json
import time

import numpy as np
import pytest

from convexreg import (
    Dataset,
    characterization_report,
    evaluate,
    fit_convex_lse,
    generate_scenario,
    local_error_study,
    rate_study,
    boundary_inconsistency_study,
    simulate_invelope,
    ScenarioSpec,
)
from convexreg.cli import main
from convexreg.output import fmt
from convexreg.simulation import mix_seed

from characterization import segment_signs, tent_functional
from oracle import enumerate_convex_lse

BASE_SEED = 20260808


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_c1_oracle_equivalence():
    rng = np.random.default_rng(BASE_SEED)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n = 3 + trial % 10  # sizes 3..12
        x = np.sort(rng.random(n))
        while np.unique(x).size < n:
            x = np.sort(rng.random(n))
        y = rng.standard_normal(n)
        ds = Dataset(x=x, y=y, weights=np.ones(n))
        fit, _ = fit_convex_lse(ds)
        oracle_fitted, _ = enumerate_convex_lse(ds)
        worst = max(worst, float(np.max(np.abs(fit.fitted - oracle_fitted))))
    elapsed = time.perf_counter() - start
    report(
        "C1 oracle equivalence",
        worst <= 1e-6 and elapsed < 30.0,
        f"200 instances, worst max-abs deviation {worst:.3e}, {elapsed:.1f}s (< 30s)",
    )


def test_c2_characterization_suite():
    start = time.perf_counter()
    kinds = [("vanishing", 2), ("vanishing", 4), ("affine", 2)]
    worst_report = 0.0
    worst_segment = 0.0
    worst_tent = -np.inf
    checked_pairs = 0
    for i in range(50):
        kind, r = kinds[i % 3]
        n = 100 if i % 2 == 0 else 1000
        ds = generate_scenario(ScenarioSpec(kind=kind, n=n, seed=BASE_SEED + i, r=r))
        fit, _ = fit_convex_lse(ds)
        rep = characterization_report(ds, fit)
        worst_report = max(worst_report, max(c.worst for c in rep.conditions))
        assert rep.passed, [c.name for c in rep.conditions if not c.passed]
        scale = ds.response_scale
        wscale = ds.total_weight * scale
        for seg in segment_signs(ds, fit):
            worst_segment = max(
                worst_segment,
                seg.t1 / wscale,
                seg.t2 / wscale,
                -seg.open_t1 / wscale,
                -seg.open_t2 / wscale,
                seg.endpoint_resid_u / wscale,
                seg.endpoint_resid_v / wscale,
            )
        kinks = fit.kinks
        for a in range(len(kinks)):
            for b in range(a + 1, len(kinks)):
                z = tent_functional(ds, fit, ds.x[kinks[a]], ds.x[kinks[b]])
                worst_tent = max(worst_tent, z / scale)
                checked_pairs += 1
    elapsed = time.perf_counter() - start
    ok = worst_report <= 1e-8 and worst_segment <= 1e-8 and worst_tent <= 1e-8
    report(
        "C2 characterization suite",
        ok and elapsed < 60.0,
        f"50 fits: worst condition {worst_report:.2e}, worst segment "
        f"{worst_segment:.2e}, worst tent {worst_tent:.2e} over {checked_pairs} "
        f"kink pairs, {elapsed:.1f}s (< 60s)",
    )


def test_c3_rate_study_reproduction():
    start = time.perf_counter()
    flat = rate_study("vanishing", replicates=100, seed=BASE_SEED, r=4)
    affine = rate_study("affine", replicates=100, seed=BASE_SEED)
    elapsed = time.perf_counter() - start
    ok_flat = -0.524 <= flat.slope <= -0.364
    ok_affine = -0.58 <= affine.slope <= -0.42
    report(
        "C3 rate-study slopes",
        ok_flat and ok_affine,
        f"quartic-bottom slope {flat.slope:.4f} (target window [-0.524, -0.364]), "
        f"affine slope {affine.slope:.4f} (target window [-0.58, -0.42]), "
        f"{elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def pointwise_study():
    return local_error_study(2, (1000, 4000, 16000), 100, seed=BASE_SEED)


def test_c4_derivative_scaling(pointwise_study):
    p95 = {
        n: float(np.quantile(n ** 0.2 * v, 0.95))
        for n, v in pointwise_study.by_n("deriv_err").items()
    }
    ratio = max(p95.values()) / min(p95.values())
    report(
        "C4 derivative scaling",
        ratio < 2.0,
        "p95 of n^(1/5)|slope error| = "
        + ", ".join(f"{n}: {v:.3f}" for n, v in p95.items())
        + f" (ratio {ratio:.2f} < 2)",
    )


def test_c5_argmin_scaling(pointwise_study):
    med_scaled = {
        n: float(np.median(n ** 0.2 * v))
        for n, v in pointwise_study.by_n("argmin_err").items()
    }
    med_raw = {
        n: float(np.median(v)) for n, v in pointwise_study.by_n("argmin_err").items()
    }
    ratio = max(med_scaled.values()) / min(med_scaled.values())
    raw_sorted = [med_raw[n] for n in sorted(med_raw)]
    decreasing = all(b < a for a, b in zip(raw_sorted[:-1], raw_sorted[1:]))
    report(
        "C5 argmin scaling",
        ratio < 2.0 and decreasing,
        "median n^(1/5)|argmin error| = "
        + ", ".join(f"{n}: {v:.3f}" for n, v in med_scaled.items())
        + f" (ratio {ratio:.2f} < 2); raw medians "
        + ", ".join(f"{v:.4f}" for v in raw_sorted)
        + " strictly decreasing",
    )


def test_c6_boundary_inconsistency():
    study = boundary_inconsistency_study((500, 2000, 8000), replicates=200,
                                         seed=BASE_SEED, epsilon=0.05)
    ok = all(f >= 0.05 for f in study.frequencies.values())
    report(
        "C6 boundary overshoot floor",
        ok,
        "frequency of boundary value > 1.05 * truth: "
        + ", ".join(f"n={n}: {f:.3f}" for n, f in sorted(study.frequencies.items()))
        + " (floor 0.05)",
    )


def test_c7_invelope_self_consistency():
    seeds = [mix_seed(BASE_SEED, 7, k) for k in range(500)]
    coarse = [simulate_invelope("vanishing", 2000, s, 2, 4.0) for s in seeds]
    fine = [simulate_invelope("vanishing", 4000, s, 2, 4.0) for s in seeds]
    min_gap = min(min(s.min_envelope_gap for s in coarse),
                  min(s.min_envelope_gap for s in fine))
    kink_gap = max(max(s.kink_envelope_gap for s in coarse),
                   max(s.kink_envelope_gap for s in fine))
    a = np.array([s.h2_at_0 for s in coarse])
    b = np.array([s.h2_at_0 for s in fine])

    def sem(v):
        return v.std(ddof=1) / np.sqrt(v.size)

    def sevar(v):
        fourth = np.mean((v - v.mean()) ** 4)
        s2 = v.var(ddof=1)
        return np.sqrt(max(fourth - s2 ** 2, 0.0) / v.size)

    mean_gap = abs(a.mean() - b.mean())
    mean_budget = 3.0 * float(np.hypot(sem(a), sem(b)))
    var_gap = abs(a.var(ddof=1) - b.var(ddof=1))
    var_budget = 3.0 * float(np.hypot(sevar(a), sevar(b)))
    ok = (min_gap >= -1e-8 and kink_gap <= 1e-8
          and mean_gap <= mean_budget and var_gap <= var_budget)
    report(
        "C7 invelope self-consistency",
        ok,
        f"envelope: min gap {min_gap:.1e} >= -1e-8, kink gap {kink_gap:.1e} <= 1e-8; "
        f"refinement 2000->4000 over 500 matched seeds: |mean diff| {mean_gap:.4f} "
        f"<= {mean_budget:.4f}, |var diff| {var_gap:.4f} <= {var_budget:.4f}",
    )


def test_c8_limit_distribution_cross_check():
    finite = []
    for k in range(500):
        ds = generate_scenario(
            ScenarioSpec(kind="affine", n=4000, seed=mix_seed(BASE_SEED, 4000, k))
        )
        fit, _ = fit_convex_lse(ds)
        finite.append(np.sqrt(4000.0) * evaluate(fit, ds, 0.5))
    finite = np.array(finite)
    limit = np.array(
        [simulate_invelope("affine", 2000, mix_seed(BASE_SEED, 2000, k)).h2_at_0
         for k in range(500)]
    )

    def iqr(v):
        hi, lo = np.percentile(v, [75, 25])
        return float(hi - lo)

    def boot_se(v, stat, draws=1000):
        rng = np.random.default_rng(BASE_SEED)
        stats = [stat(v[rng.integers(0, v.size, v.size)]) for _ in range(draws)]
        return float(np.std(stats, ddof=1))

    med_gap = abs(float(np.median(finite)) - float(np.median(limit)))
    med_budget = 3.0 * float(np.hypot(boot_se(finite, np.median), boot_se(limit, np.median)))
    iqr_gap = abs(iqr(finite) - iqr(limit))
    iqr_budget = 3.0 * float(np.hypot(boot_se(finite, iqr), boot_se(limit, iqr)))
    ok = med_gap <= med_budget and iqr_gap <= iqr_budget
    report(
        "C8 limit-distribution cross-check",
        ok,
        f"median: scaled finite-sample {np.median(finite):.4f} vs simulator "
        f"{np.median(limit):.4f} (|diff| {med_gap:.4f} <= {med_budget:.4f}); "
        f"IQR: {iqr(finite):.4f} vs {iqr(limit):.4f} "
        f"(|diff| {iqr_gap:.4f} <= {iqr_budget:.4f})",
    )


def test_c9_determinism(tmp_path):
    x = np.linspace(0.0, 1.0, 20)
    y = (x - 0.45) ** 2
    src = tmp_path / "in.csv"
    with open(src, "w") as fh:
        fh.write("x,y\n")
        for a, b in zip(x, y):
            fh.write(f"{fmt(float(a))},{fmt(float(b))}\n")
    fit_out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(src), "--output", str(fit_out)]) == 0
    chk = tmp_path / "chk.csv"
    fitted = json.loads(fit_out.read_text())["fitted"]
    with open(chk, "w") as fh:
        fh.write("x,y,fitted\n")
        for a, b, f in zip(x, y, fitted):
            fh.write(f"{fmt(float(a))},{fmt(float(b))},{fmt(float(f))}\n")

    commands = [
        ["fit", "--input", str(src), "--output", str(fit_out)],
        ["check", "--input", str(chk), "--output", str(tmp_path / "rep.json")],
        ["rates", "--scenario", "affine", "--n-grid", "50,120", "--replicates", "20",
         "--seed", "11", "--output", str(tmp_path / "rates")],
        ["invelope", "--m", "250", "--replicates", "3", "--seed", "11",
         "--output", str(tmp_path / "inv")],
        ["argmin", "--n-grid", "80,160", "--replicates", "4", "--seed", "11",
         "--output", str(tmp_path / "argmin")],
    ]
    for argv in commands:
        assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix in (".json", ".csv")}
    for argv in commands:
        assert main(argv) == 0
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix in (".json", ".csv")}
    identical = first == second
    report(
        "C9 determinism",
        identical and len(first) >= 9,
        f"{len(first)} artifacts from fit/check/rates/invelope/argmin reruns are byte-identical",
    )
