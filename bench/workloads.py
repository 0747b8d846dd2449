"""The four benchmark workloads: seeded inputs, CLI arguments, output checks.

Each workload is one ``convexreg`` CLI command run from a work directory
with relative paths, so every artifact's embedded configuration (and hence
its bytes) is the same however the command is launched.  Inputs are made
from the benchmark seed only; the program receives files and flags, never
the seed of the generator that wrote them.

Output checks are the benchmark's own arithmetic (numpy only), not calls
into ``convexreg``, so a defect in the program's certificate code cannot
also hide the defect from the check.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

# the CLI's default rate grid (10 sizes, n = 500..10000), pinned here so a
# later change of that default does not silently change the workload
RATE_GRID = tuple(int(round(v)) for v in np.geomspace(500.0, 10000.0, 10))
RATE_REPLICATES = 20  # the rate study refuses fewer
SIGMA = 1.0  # noise level of the fit_csv_large inputs

KKT_TOL = 1e-6  # 100x the program's default certificate tolerance
ENVELOPE_TOL = 1e-8
NOISELESS_TOL = 1e-8


def _write_xy(path, x, y):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y\n")
        fh.write("".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, y)))


def _read_xy(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def _read_records(path):
    """Rows of a CLI CSV artifact (after its '# config' comment line)."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _merged(x, y):
    """Sorted distinct design points, mean responses and multiplicities."""
    xs, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return xs, np.bincount(inverse, weights=y) / counts, counts.astype(float)


def check_fit(input_csv, fit_json, curve_csv):
    """Problems with a ``convexreg fit`` artifact pair, judged against its input.

    The fit must claim a passing certificate, sit on the sorted merged design,
    be convex at double resolution, satisfy the cumulative-sum optimality
    conditions recomputed here, and its curve must interpolate the fitted
    values inside the design hull and report their segment slopes.
    """
    problems = []
    with open(fit_json, encoding="utf-8") as fh:
        fit = json.load(fh)
    if not fit.get("certificate", {}).get("passed"):
        problems.append("certificate.passed is not true")
    xs, ys, ws = _merged(*_read_xy(input_csv))
    x = np.asarray(fit["x"], dtype=float)
    f = np.asarray(fit["fitted"], dtype=float)
    if x.shape != xs.shape or not np.array_equal(x, xs):
        return problems + ["fit design differs from the sorted input design"]
    if f.shape != xs.shape or not np.array_equal(np.asarray(fit["weights"], dtype=float), ws):
        return problems + ["fitted values or weights do not match the design"]
    yscale = 1.0 + float(np.max(np.abs(ys)))

    gaps = np.diff(xs)
    slopes = np.diff(f) / gaps
    allowance = 4.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(f))) * (
        1.0 / gaps[:-1] + 1.0 / gaps[1:])
    if slopes.size > 1 and np.max(slopes[:-1] - slopes[1:] - allowance) > 1e-7 * yscale:
        problems.append("fitted values are not convex")

    excess = ws * (f - ys)
    prefix = np.cumsum(excess)
    cum = np.cumsum(prefix[:-1] * gaps) / (ws.sum() * yscale)
    kinks = np.asarray(fit["kinks"], dtype=int)
    if abs(prefix[-1]) / (ws.sum() * yscale) > KKT_TOL:
        problems.append("fitted and response masses differ")
    if cum.size and cum.min() < -KKT_TOL:
        problems.append("a cumulative certificate sum is negative")
    at = np.concatenate([kinks - 1, [cum.size - 1]]).astype(int)
    if cum.size and np.max(np.abs(cum[at])) > KKT_TOL:
        problems.append("a cumulative certificate sum is nonzero at a kink or the end")

    rows = _read_records(curve_csv)
    grid = np.array([float(r["grid_t"]) for r in rows])
    values = np.array([float(r["fitted_value"]) for r in rows])
    derivs = np.array([float(r["left_derivative"]) for r in rows])
    inside = (grid >= xs[0]) & (grid <= xs[-1])
    if np.max(np.abs(values[inside] - np.interp(grid[inside], xs, f)), initial=0.0) > 1e-9 * yscale:
        problems.append("curve values do not interpolate the fitted values")
    # left derivative = slope of the segment left of t (the first one at or
    # before x_1), recomputed from the fitted values
    left = slopes[np.clip(np.searchsorted(xs, grid, side="left") - 1, 0, slopes.size - 1)]
    if np.any(np.abs(derivs - left) > 1e-9 * (1.0 + np.abs(left))):
        problems.append("curve left derivatives differ from the fitted segment slopes")
    return problems


@dataclass(frozen=True)
class FitCsvLarge:
    """``convexreg fit`` on a large noisy CSV: the artifact I/O path.

    Whether the solver's lstsq fallback fires depends on the draw, and when
    it does the fit takes several times longer and the peak memory grows by a
    third.  A run therefore cycles through ``variants`` inputs drawn from its
    seed, so that every run sees a similar mix of draws.
    """

    name: str = "fit_csv_large"
    rows: int = 100_000
    variants: int = 10

    artifacts = ("fit.json", "fit.curve.csv")

    def prepare(self, work, seed):
        for variant in range(self.variants):
            rng = np.random.default_rng((seed, 1, variant))
            x = rng.random(self.rows)
            _write_xy(work / f"input-{variant}.csv", x,
                      2.0 * (x - 0.5) ** 4 + SIGMA * rng.standard_normal(self.rows))

    def argv(self, seed, variant):
        return ["fit", "--input", f"input-{variant}.csv", "--output", "fit.json"]

    def work_units(self):
        """(certified fits, data rows fitted) per command."""
        return 1, self.rows

    def check(self, work, variant):
        return check_fit(work / f"input-{variant}.csv", work / "fit.json", work / "fit.curve.csv")


@dataclass(frozen=True)
class NoiselessKinks:
    """``convexreg fit`` on noiseless strictly convex data: every interior
    design point is a kink, the solver's adversarial cliff."""

    name: str = "noiseless_kinks"
    rows: int = 300
    variants: int = 1

    artifacts = ("fit.json", "fit.curve.csv")

    def prepare(self, work, seed):
        # the seed draws an affine tilt; the projection of convex data is the
        # data itself, so the kink count stays rows - 2 for every seed
        a, b = np.random.default_rng((seed, 2)).uniform(-1.0, 1.0, 2)
        x = (np.arange(self.rows) + 0.5) / self.rows
        _write_xy(work / "input.csv", x, 4.0 * (x - 0.5) ** 2 + a + b * x)

    def argv(self, seed, variant):
        return ["fit", "--input", "input.csv", "--output", "fit.json"]

    def work_units(self):
        return 1, self.rows

    def check(self, work, variant):
        problems = check_fit(work / "input.csv", work / "fit.json", work / "fit.curve.csv")
        x, y = _read_xy(work / "input.csv")
        with open(work / "fit.json", encoding="utf-8") as fh:
            fit = json.load(fh)
        fitted = np.asarray(fit["fitted"], dtype=float)
        if fitted.shape != y.shape or np.max(np.abs(fitted - y[np.argsort(x)])) > NOISELESS_TOL * (
                1.0 + np.max(np.abs(y))):
            problems.append("fit does not reproduce noiseless convex data")
        if len(fit["kinks"]) != self.rows - 2:
            problems.append(f"{len(fit['kinks'])} kinks, expected {self.rows - 2}")
        return problems


@dataclass(frozen=True)
class RatesPool:
    """``convexreg rates`` through the process pool: many moderate fits."""

    name: str = "rates_pool"
    grid: tuple = RATE_GRID
    variants: int = 1

    artifacts = ("rates.csv", "rates.json")

    def prepare(self, work, seed):
        pass

    def argv(self, seed, variant):
        return ["rates", "--scenario", "vanishing", "--r", "4",
                "--n-grid", ",".join(str(n) for n in self.grid),
                "--replicates", str(RATE_REPLICATES), "--seed", str(seed),
                "--output", "rates"]

    def work_units(self):
        return len(self.grid) * RATE_REPLICATES, sum(self.grid) * RATE_REPLICATES

    def check(self, work, variant):
        problems = []
        with open(work / "rates.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        rows = _read_records(work / "rates.csv")
        expected = len(self.grid) * RATE_REPLICATES
        if summary["records"] != expected or len(rows) != expected:
            problems.append(f"{summary['records']} records ({len(rows)} rows), expected {expected}")
        if summary["skipped"] != 0:
            problems.append(f"{summary['skipped']} replicates skipped")
        if sorted({int(r["n"]) for r in rows}) != sorted(self.grid):
            problems.append("records do not cover the sample-size grid")
        log_n = np.array([float(r["log_n"]) for r in rows])
        log_b = np.array([float(r["log_abs_bias"]) for r in rows])
        if not np.all(np.isfinite(log_b)):
            problems.append("non-finite log bias")
        elif rows:
            xc = log_n - log_n.mean()
            slope = float(np.sum(xc * log_b) / np.sum(xc * xc))
            if not math.isclose(slope, summary["slope"], rel_tol=1e-9, abs_tol=1e-12):
                problems.append("reported slope differs from the records' least-squares slope")
        return problems


@dataclass(frozen=True)
class InvelopeGrid:
    """``convexreg invelope``: limit-process fits on a fine uniform grid."""

    name: str = "invelope_grid"
    m: int = 2000
    replicates: int = 40
    variants: int = 1

    artifacts = ("inv.csv", "inv.json")

    def prepare(self, work, seed):
        pass

    def argv(self, seed, variant):
        return ["invelope", "--r", "2", "--c", "4", "--m", str(self.m),
                "--replicates", str(self.replicates), "--seed", str(seed),
                "--output", "inv"]

    def work_units(self):
        return self.replicates, self.replicates * self.m

    def check(self, work, variant):
        problems = []
        with open(work / "inv.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        rows = _read_records(work / "inv.csv")
        if summary["replicates"] != self.replicates or len(rows) != self.replicates:
            problems.append(f"{len(rows)} rows, expected {self.replicates}")
        if any(float(r["min_envelope_gap"]) < -ENVELOPE_TOL for r in rows):
            problems.append("min_envelope_gap below tolerance")
        if any(abs(float(r["kink_envelope_gap"])) > ENVELOPE_TOL for r in rows):
            problems.append("kink_envelope_gap beyond tolerance")
        h2 = np.array([float(r["h2"]) for r in rows])
        if rows and not math.isclose(float(h2.mean()), summary["h2_mean"],
                                     rel_tol=1e-9, abs_tol=1e-12):
            problems.append("h2_mean differs from the records' mean")
        return problems


WORKLOADS = {w.name: w for w in (FitCsvLarge(), RatesPool(), InvelopeGrid(), NoiselessKinks())}
