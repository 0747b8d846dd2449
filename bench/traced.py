"""Run one ``convexreg`` CLI command inside this process and time it.

    python3 bench/traced.py --report R.json --run-id N [--spans] -- fit --input ...

The command runs through ``convexreg.cli.main`` exactly as ``python -m
convexreg.cli`` would run it; the report records its exit code and its wall
time measured in-process (interpreter start and imports excluded), and the
process exits with the command's exit code.

With ``--spans`` every public function of the ``convexreg`` layers is
wrapped wherever the package binds it, and each call records a span: name,
start, end and parent span; the report gives the run id its spans share.
Spans stay in memory and are written to the report when the command ends.  The solver's own namespace is left
alone, so calls inside the solver (its phases, its ``lstsq`` fallbacks) are
not visible here; ``fit_convex_lse`` is timed as one call, and its returned
``SolverTrace`` gives the solve and kink counts.

``layer_metrics`` turns the reports of one traced iteration into the
benchmark's per-layer metrics.
"""

import argparse
import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "model", "solver", "diagnostics", "inference", "simulation", "output")
# per-value serialization helpers: one span per printed float would measure
# the tracer, not the writer
UNTRACED = {"output.fmt", "output.canonical_json"}


class Recorder:
    """In-memory span log of one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index]
        self.fits = []  # [solves, kinks, seconds] per fit_convex_lse call
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, span)
            return result

        return traced

    def record_fit(self, result, span):
        fit, trace = result
        self.fits.append([trace.iterations, len(fit.kinks), span[2] - span[1]])


def install(recorder):
    """Wrap the public functions of every layer at every binding site."""
    modules = {layer: importlib.import_module(f"convexreg.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        if layer == "cli":
            continue  # the root span around cli.main stands for the cli layer
        for attr, fn in vars(module).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                hook = recorder.record_fit if name == "solver.fit_convex_lse" else None
                wrappers[fn] = recorder.wrap(name, fn, hook)
    for layer, module in modules.items():
        if layer == "solver":
            continue  # calls inside the solver stay untimed
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
    dataset = modules["model"].Dataset
    from_arrays = vars(dataset)["from_arrays"].__func__
    dataset.from_arrays = classmethod(recorder.wrap("model.Dataset.from_arrays", from_arrays))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--run-id", type=int, required=True)
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from convexreg import cli

    recorder = Recorder(args.run_id)
    entry = cli.main
    if args.spans:
        install(recorder)
        entry = recorder.wrap("cli.main", cli.main)
    start = time.perf_counter()
    rc = entry(cli_args)
    wall = time.perf_counter() - start
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump({"run_id": recorder.run_id, "rc": rc, "wall": wall,
                   "spans": recorder.spans, "fits": recorder.fits}, fh)
    return rc


def _inclusive(spans, names):
    """Seconds inside spans named in ``names``, not counting nested repeats."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(traced, serial_wall, pooled_wall, pooled_cpu_s, pooled_process_wall,
                  workers, artifact_bytes):
    """Per-layer metrics of one iteration, as {name: (value, unit)}.

    ``traced`` is the report of a serial run with spans.  ``serial_wall`` and
    ``pooled_wall`` are in-process walls of the same command without spans,
    run serially and on ``workers`` pool workers; ``pooled_cpu_s`` and
    ``pooled_process_wall`` are the CPU time of the pooled run's process tree
    and its wall from launch to exit.
    """
    spans = traced["spans"]
    wall = traced["wall"]
    child = [0.0] * len(spans)
    first_child = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
            first_child.setdefault(parent, start)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name.split(".")[0]] += end - start - child[i]

    fits = np.asarray(traced["fits"], dtype=float).reshape(-1, 3)
    solves, kinks = fits[:, 0].sum(), fits[:, 1].sum()
    fit_s = _inclusive(spans, {"solver.fit_convex_lse"})
    json_s = _inclusive(spans, {"output.write_json"})
    csv_s = _inclusive(spans, {"output.write_csv"})
    root_start = spans[0][1]

    def share(*names):
        return _inclusive(spans, set(names)) / wall, "ratio"

    out = {
        # cli time before its first call into another layer: the CSV read on
        # fit commands, argument handling on the study commands
        "cli.read_csv_s": (first_child.get(0, spans[0][2]) - root_start, "s"),
        "model.build_dataset_s": (_inclusive(spans, {"model.build_dataset",
                                                     "model.Dataset.from_arrays"}), "s"),
        "model.curve_eval_s": (_inclusive(spans, {"model.evaluate", "model.left_derivative"}), "s"),
        "solver.fit_s": (fit_s, "s"),
        "solver.fit_ms_p50": (1e3 * float(np.percentile(fits[:, 2], 50)), "ms"),
        "solver.fit_ms_p90": (1e3 * float(np.percentile(fits[:, 2], 90)), "ms"),
        "solver.ms_per_solve": (1e3 * fit_s / solves, "ms"),
        "solver.solves": (int(solves), "count"),
        "solver.solves_per_fit": (solves / len(fits), "count"),
        "solver.kinks_per_fit": (kinks / len(fits), "count"),
        "solver.solves_per_kink": (solves / max(kinks, 1.0), "ratio"),
        "diagnostics.report_share": share("diagnostics.characterization_report"),
        "inference.argmin_share": share("inference.argmin_estimator"),
        "simulation.scenario_share": share("simulation.generate_scenario"),
        "simulation.invelope_share": share("simulation.simulate_invelope"),
        "simulation.pool_cpu_util": (pooled_cpu_s / (workers * pooled_process_wall), "ratio"),
        "simulation.pool_overhead_s": (pooled_wall - serial_wall / workers, "s"),
        "output.write_json_s": (json_s, "s"),
        "output.write_csv_s": (csv_s, "s"),
        "output.bytes": (int(artifact_bytes), "bytes"),
        "output.mb_per_s": (artifact_bytes / 1e6 / (json_s + csv_s), "MB/s"),
        "trace.overhead_ratio": (wall / serial_wall - 1.0, "ratio"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (self_s[layer] / wall, "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
