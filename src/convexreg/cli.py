"""Command-line front end.

Subcommands: ``fit`` (fit a CSV of x,y and emit the certified fit),
``check`` (verify a supplied fit column against every characterization
condition), ``rates`` (log-bias rate study), ``invelope`` (limit-process
simulator), ``argmin`` (minimizer scaling study), ``boundary`` (boundary
overshoot frequencies).  Every study command is :func:`cmd_study`: it runs the
study function ``STUDIES`` names for it and writes the ``StudyResult`` it
returns, the header and rows as ``<base>.csv``, the summary beside the
config as ``<base>.json``, and prints its lines.  An omitted study flag takes
its study function's default; the parser declares none.

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

# Each study command and the ``simulation`` function it runs.  The commands
# import ``simulation`` (and with it ``inference`` and ``numpy.random``) when
# they run, so ``fit`` and ``check`` never load it.
STUDIES = {"rates": "rate_study", "invelope": "invelope_study",
           "argmin": "local_error_study", "boundary": "boundary_inconsistency_study"}


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


def _verdict(report):
    """The ``passed`` flag and per-condition results of a characterization
    report, as ``fit`` and ``check`` write them."""
    return {"passed": report.passed,
            "conditions": {c.name: {"passed": c.passed, "worst": c.worst}
                           for c in report.conditions}}


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
            "certificate": _verdict(report),
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
        "scale": report.scale,
        **_verdict(report),
    }
    if args.output:
        _write(write_json, args.output, payload)
    else:
        print(canonical_json(payload))
    return 0 if report.passed else 1


def cmd_study(args) -> int:
    from . import simulation

    result, config = _run_study(getattr(simulation, STUDIES[args.command]), args)
    _write_study(config, result.header, result.rows, result.summary)
    print("\n".join(result.lines))
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
    common.set_defaults(run=cmd_study)
    study = {"parents": [common], "argument_default": argparse.SUPPRESS}

    p = sub.add_parser("rates", help="log-bias rate-of-convergence study", **study)
    p.add_argument("--scenario", required=True, choices=("vanishing", "affine"))
    p.add_argument("--r", type=int)
    p.add_argument("--n-grid", type=_parse_grid, help="comma-separated sizes")
    p.add_argument("--sigma", type=_finite_float)
    p.add_argument("--x0", type=_finite_float)

    p = sub.add_parser("invelope", help="limit-process simulator", **study)
    p.add_argument("--scenario", choices=("vanishing", "affine"))
    p.add_argument("--r", type=int)
    p.add_argument("--c", type=_finite_float)
    p.add_argument("--m", type=int)
    p.add_argument("--x0", type=_finite_float, help="query point for the affine variant")
    p.add_argument("--refine", action="store_true", help="also run the 2m grid, same seeds")

    p = sub.add_parser("argmin", help="minimizer scaling study", **study)
    p.add_argument("--r", type=int)
    p.add_argument("--n-grid", type=_parse_grid, help="comma-separated sizes")
    p.add_argument("--sigma", type=_finite_float)

    p = sub.add_parser("boundary", help="boundary overshoot frequency study", **study)
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
