"""Command-line front end.

Subcommands: ``fit`` (fit a CSV of x,y and emit the certified fit),
``check`` (verify a supplied fit column against every characterization
condition), ``rates`` (log-bias rate study), ``invelope`` (limit-process
simulator), ``argmin`` (minimizer scaling study), ``boundary`` (boundary
overshoot frequencies).  An omitted study flag takes its study function's
default; the parser declares none.

Exit codes: 0 success and certified / all checks passed, 1 check command
completed with failing conditions, 2 malformed input or flags (an output file
that cannot be written included, found before any work where its directory is
missing), 3 solver or runtime failure (``fit`` writes a trace file next to the
requested output on a solver failure) or a study's replicate worker that died
without a result.  Every output embeds the resolved configuration including
the seed; reruns with the same flags are byte-identical.  The environment
variable ``CONVEXREG_THREADS`` caps the worker processes of every study's
replicates.
"""

import argparse
import csv
import dataclasses
import inspect
import io
import lzma
import math
import os
import stat
import sys
import warnings

import numpy as np

from .diagnostics import characterization_report
from .model import KINK_TOL, KKT_TOL, Dataset, evaluate, left_derivative
from .output import canonical_json, write_csv, write_json
from .solver import SolverError, fit_convex_lse

# The study commands import ``simulation`` (and with it ``inference`` and
# ``numpy.random``) when they run, so ``fit`` and ``check`` never load it.


class InputError(ValueError):
    pass


def _read_csv_columns(path, columns):
    """Read a headed numeric CSV into an ``(n, len(columns))`` float array.

    After the header check the body is parsed in one ``np.loadtxt`` call
    on the path, which reads faster than through the open text handle.
    That result is used only when it is non-empty, has one column per name
    and is all finite.  Anything else (a parse error, an empty body, a
    non-finite value, or a row that ``float`` accepts but ``loadtxt`` does
    not, such as ``1_0`` or a quoted field) reruns the file through the
    line parser, which decides what is accepted and reports the line
    number of the first bad row.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")  # a byte-order mark is dropped
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    with fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        if not regular:  # a pipe can be neither reopened by path nor rewound
            fh = io.StringIO(fh.read(), newline="")
        try:
            header = next(csv.reader(fh), None)
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise InputError(f"{path}: line 1: {exc}") from exc
        if header is None or [h.strip() for h in header] != list(columns):
            raise InputError(f"{path}: line 1: expected header {','.join(columns)}")
        # numpy reads a file it opens by path in blocks, faster than line by
        # line through this handle
        body, skip = (path, 1) if regular else (fh, 0)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                data = np.loadtxt(body, skiprows=skip, delimiter=",", comments=None,
                                  ndmin=2, dtype=float, encoding="utf-8")
        except (ValueError, OSError, lzma.LZMAError):
            # OSError and LZMAError: numpy decompresses by file suffix, so a
            # plain-text "in.csv.gz", ".bz2" or ".xz" goes to the line parser
            data = None
        if (data is not None and data.shape[0] > 0 and data.shape[1] == len(columns)
                and np.isfinite(data).all()):
            return data
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        rows = []
        lineno = 1
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(columns):
                    raise InputError(f"{path}: line {lineno}: expected {len(columns)} fields")
                try:
                    values = [float(v) for v in row]
                except ValueError as exc:
                    raise InputError(f"{path}: line {lineno}: {exc}") from exc
                if not all(math.isfinite(v) for v in values):
                    raise InputError(f"{path}: line {lineno}: non-finite value")
                rows.append(values)
        except csv.Error as exc:
            # raised while reading the row after the last one numbered
            raise InputError(f"{path}: line {lineno + 1}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows)


def _parse_grid(text):
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc


def _finite_float(text):
    """argparse type of the real-valued study flags: ``nan`` and ``inf``
    exit 2 before any replicate runs."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _run_study(study, args):
    """Run ``study`` on the given flags and its own defaults; return the result
    and the artifact config: the command, the keyword arguments the study ran
    with (invelope's only the ones its variant reads), the output."""
    given = {k: v for k, v in vars(args).items() if k not in ("command", "run", "output")}
    bound = inspect.signature(study).bind(**given)
    bound.apply_defaults()
    params = bound.arguments
    if args.command == "invelope":
        unread = ("r", "c") if params["scenario"] == "affine" else ("x0",)
        for name in unread if params["refine"] else (*unread, "refine"):
            del params[name]
    return study(**params), {"command": args.command, **params, "output": args.output}


def _base_path(output):
    for suffix in (".json", ".csv"):
        if output.endswith(suffix):
            return output[: -len(suffix)]
    return output


def _write(writer, path, *args):
    """``writer(path, *args)``; an output file that cannot be opened or
    written is an input error, as an unreadable ``--input`` is."""
    try:
        writer(path, *args)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write_study(config, header, rows, summary):
    """Write a study's artifact pair at the base of ``config["output"]``:
    ``<base>.csv`` (the config line, ``header``, one line per row) and
    ``<base>.json`` (``summary`` with the config under ``"config"``)."""
    base = _base_path(config["output"])
    _write(write_csv, base + ".csv", config, header, rows)
    _write(write_json, base + ".json", {"config": config, **summary})


def cmd_fit(args) -> int:
    data = _read_csv_columns(args.input, ("x", "y"))
    try:
        dataset = Dataset.from_arrays(data[:, 0], data[:, 1])
    except ValueError as exc:
        raise InputError(f"{args.input}: {exc}") from exc
    del data  # the dataset holds its own copies; the parsed CSV is not needed again
    base = _base_path(args.output)
    resolved = {
        "command": "fit",
        "input": args.input,
        "output": args.output,
        "tol": args.tol,
        "kink_tol": KINK_TOL,
    }
    try:
        fit, trace = fit_convex_lse(dataset, args.tol)
    except SolverError as exc:
        trace_path = base + ".trace.json"
        payload = {"config": resolved, "error": str(exc)}
        if exc.trace is not None:
            payload["iterations"] = exc.trace.iterations
            payload["final_objective"] = exc.trace.final_objective
            payload["steps"] = [dataclasses.asdict(step) for step in exc.trace.steps]
        _write(write_json, trace_path, payload)
        print(f"solver failure, trace written to {trace_path}: {exc}", file=sys.stderr)
        return 3
    report = characterization_report(dataset, fit, args.tol)
    _write(
        write_json,
        base + ".json",
        {
            "config": resolved,
            "n": dataset.n,
            "weights": dataset.weights,
            "x": dataset.x,
            "fitted": fit.fitted,
            "kinks": list(fit.kinks),
            "hinge": {
                "intercept": fit.intercept,
                "base_slope": fit.base_slope,
                "coefficients": [[j, b] for j, b in fit.hinge_coeffs],
            },
            "objective": trace.final_objective,
            "iterations": trace.iterations,
            "certificate": {
                "passed": report.passed,
                "conditions": {c.name: {"passed": c.passed, "worst": c.worst}
                               for c in report.conditions},
            },
        },
    )
    grid = np.linspace(0.0, 1.0, 512)
    _write(
        write_csv,
        base + ".curve.csv",
        resolved,
        ("grid_t", "fitted_value", "left_derivative"),
        zip(grid, evaluate(fit, dataset, grid), left_derivative(fit, dataset, grid)),
    )
    return 0 if report.passed else 3


def cmd_check(args) -> int:
    data = _read_csv_columns(args.input, ("x", "y", "fitted"))
    data = data[data[:, 0].argsort(kind="stable")]  # rows may come in any order, as for fit
    try:
        dataset = Dataset(x=data[:, 0], y=data[:, 1], weights=np.ones(len(data)))
    except ValueError as exc:
        raise InputError(f"{args.input}: {exc}") from exc
    report = characterization_report(dataset, data[:, 2], args.tol)
    payload = {
        "config": {"command": "check", "input": args.input, "tol": args.tol,
                   "kink_tol": KINK_TOL},
        "passed": report.passed,
        "scale": report.scale,
        "conditions": {c.name: {"passed": c.passed, "worst": c.worst}
                       for c in report.conditions},
    }
    if args.output:
        _write(write_json, args.output, payload)
    else:
        print(canonical_json(payload))
    return 0 if report.passed else 1


def cmd_rates(args) -> int:
    from .simulation import rate_study

    result, config = _run_study(rate_study, args)
    _write_study(
        config,
        ("scenario", "r", "n", "replicate", "seed", "bias", "log_n", "log_abs_bias"),
        [(config["scenario"], config["r"], rec.n, rec.replicate, rec.seed,
          rec.bias, rec.log_n, rec.log_abs_bias) for rec in result.records],
        {"slope": result.slope, "stderr": result.slope_stderr,
         "skipped": result.skipped, "records": len(result.records)},
    )
    print(f"slope {result.slope:.6f} stderr {result.slope_stderr:.6f} "
          f"({len(result.records)} records, {result.skipped} skipped)")
    return 0


def cmd_invelope(args) -> int:
    from .simulation import invelope_study

    results, config = _run_study(invelope_study, args)
    h2_all = np.asarray([s.h2_at_0 for _, _, s in results])
    h2 = h2_all[: config["replicates"]]
    summary = {
        "h2_mean": float(h2.mean()),
        "h2_var": float(h2.var(ddof=1)) if h2.size > 1 else 0.0,
        "h2_mean_stderr": float(h2.std(ddof=1) / math.sqrt(h2.size)) if h2.size > 1 else 0.0,
        "replicates": int(h2.size),
    }
    lines = [f"h2 mean {summary['h2_mean']:.6f} var {summary['h2_var']:.6f} "
             f"({h2.size} replicates)"]
    if config.get("refine"):
        summary["refinement"] = _refinement(config["m"], h2, h2_all[h2.size:], lines)
    _write_study(
        config,
        ("scenario", "r", "c", "m", "replicate", "seed", "h2", "h3",
         "argmin", "query_point", "min_envelope_gap", "kink_envelope_gap"),
        [(config["scenario"], s.r, s.c, s.m, rep, child, s.h2_at_0, s.h3_at_0,
          s.argmin_h2, s.query_point, s.min_envelope_gap, s.kink_envelope_gap)
         for rep, child, s in results],
        summary,
    )
    print("\n".join(lines))
    return 0


def _refinement(m, coarse, fine, lines):
    """Mean and variance of h2 on the m vs the 2m grid against 3 combined SEs."""

    def sem(v):
        return v.std(ddof=1) / np.sqrt(v.size)

    def sevar(v):
        fourth = np.mean((v - v.mean()) ** 4)
        return np.sqrt(max(fourth - v.var(ddof=1) ** 2, 0.0) / v.size)

    out = {}
    for label, a, b, se in (
        ("mean", coarse.mean(), fine.mean(), np.hypot(sem(coarse), sem(fine))),
        ("var", coarse.var(ddof=1), fine.var(ddof=1), np.hypot(sevar(coarse), sevar(fine))),
    ):
        out[f"{label}_diff"] = float(abs(a - b))
        out[f"{label}_budget"] = float(3 * se)
        verdict = "consistent" if abs(a - b) <= 3 * se else "INCONSISTENT"
        lines.append(f"h2(0) {label}: m={m}: {a:.4f}  m={2 * m}: {b:.4f}  "
                     f"|diff| {abs(a - b):.4f} vs 3*SE {3 * se:.4f}  [{verdict}]")
    out["consistent"] = all(out[f"{k}_diff"] <= out[f"{k}_budget"] for k in ("mean", "var"))
    return out


def cmd_argmin(args) -> int:
    from .simulation import local_error_study

    study, config = _run_study(local_error_study, args)
    rate = 1.0 / (2 * config["r"] + 1)
    table = {}
    for n, errs in study.by_n("argmin_err").items():
        scaled = n ** rate * errs
        table[str(n)] = {
            "median_raw": float(np.median(errs)),
            "median_scaled": float(np.median(scaled)),
            "p95_scaled": float(np.quantile(scaled, 0.95)),
        }
    _write_study(
        config,
        ("r", "n", "replicate", "seed", "argmin_location", "argmin_err",
         "scaled_argmin_err", "value_err", "deriv_err"),
        [(config["r"], rec.n, rec.replicate, rec.seed, rec.argmin_location,
          rec.argmin_err, rec.n ** rate * rec.argmin_err, rec.value_err, rec.deriv_err)
         for rec in study.records],
        {"quantiles": table},
    )
    for n, q in table.items():
        print(f"n={n}: median|argmin err| {q['median_raw']:.5f} "
              f"scaled median {q['median_scaled']:.4f}")
    return 0


def cmd_boundary(args) -> int:
    from .simulation import boundary_inconsistency_study

    study, config = _run_study(boundary_inconsistency_study, args)
    grid = config["n_grid"]
    _write_study(config, ("n", "count", "replicates", "frequency"),
                 [(n, study.counts[n], study.replicates, study.frequencies[n]) for n in grid],
                 {"counts": study.counts, "frequencies": study.frequencies})
    print(f"model 1 - x + x^2, sigma 1, threshold (1 + {config['epsilon']}) * value at 0")
    for n in grid:
        print(f"n={n:6d}: overshoot frequency {study.frequencies[n]:.3f} "
              f"({study.counts[n]}/{study.replicates})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexreg",
        description="Convex least-squares regression: fitting, certificates, and studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a CSV of x,y columns")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="JSON path; a .curve.csv sibling is written")
    p.add_argument("--tol", type=float, default=KKT_TOL)
    p.set_defaults(run=cmd_fit)

    p = sub.add_parser("check", help="verify an x,y,fitted CSV against every condition")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--tol", type=float, default=KKT_TOL)
    p.set_defaults(run=cmd_check)

    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int)
    common.add_argument("--replicates", type=int)
    common.add_argument("--output", required=True, help="base path for .csv and .json")
    study = {"parents": [common], "argument_default": argparse.SUPPRESS}

    p = sub.add_parser("rates", help="log-bias rate-of-convergence study", **study)
    p.set_defaults(run=cmd_rates)
    p.add_argument("--scenario", required=True, choices=("vanishing", "affine"))
    p.add_argument("--r", type=int)
    p.add_argument("--n-grid", type=_parse_grid, help="comma-separated sizes")
    p.add_argument("--sigma", type=_finite_float)
    p.add_argument("--x0", type=_finite_float)

    p = sub.add_parser("invelope", help="limit-process simulator", **study)
    p.set_defaults(run=cmd_invelope)
    p.add_argument("--scenario", choices=("vanishing", "affine"))
    p.add_argument("--r", type=int)
    p.add_argument("--c", type=_finite_float)
    p.add_argument("--m", type=int)
    p.add_argument("--x0", type=_finite_float, help="query point for the affine variant")
    p.add_argument("--refine", action="store_true", help="also run the 2m grid, same seeds")

    p = sub.add_parser("argmin", help="minimizer scaling study", **study)
    p.set_defaults(run=cmd_argmin)
    p.add_argument("--r", type=int)
    p.add_argument("--n-grid", type=_parse_grid, help="comma-separated sizes")
    p.add_argument("--sigma", type=_finite_float)

    p = sub.add_parser("boundary", help="boundary overshoot frequency study", **study)
    p.set_defaults(run=cmd_boundary)
    p.add_argument("--n-grid", type=_parse_grid, help="comma-separated sizes")
    p.add_argument("--epsilon", type=_finite_float)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output is not None:  # every command has one; checked before any work
            folder = os.path.dirname(args.output) or "."
            if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
                raise InputError(f"{args.output}: directory {folder} is missing or not writable")
        return args.run(args)
    except ValueError as exc:  # InputError included
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, MemoryError, RuntimeError) as exc:
        # a dead replicate worker (WorkerError), or a failure named by its type, such
        # as the RuntimeError carrying the repr of a replicate's unpicklable exception
        dead = type(exc).__name__ == "WorkerError"
        print(f"worker failure: {exc}" if dead else f"failure: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
