"""convexreg benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload fit_csv_large --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there, never from an installed copy.  Inputs are generated from
``--seed`` into ``.bench_work/<workload>/`` (excluded from every metric),
then the workload's ``convexreg`` command is launched as its own process
again and again for ``--seconds``, a closed loop with one client.  Every
command runs with the thread setting in ``THREAD_ENV``.

``--trace 0`` reports the end-to-end metrics (medians over the commands of
the run).  ``--trace 1`` instead repeats, for ``--seconds`` and in whole
cycles through the input variants, one pooled and one serial run without
spans and one serial run with spans (see ``traced.py``) and reports the
per-layer metrics (medians over iterations).

Each command starts with its artifacts removed; what it writes is checked
(``workloads.py``) and must be byte identical to what the run's first command
on the same input wrote (tracing included).  A non-zero exit, a missing
artifact or a failed check counts as a failed operation.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the artifact digests
(for information, not a gate) and record the machine, the numpy/BLAS build
and the thread environment.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from traced import layer_metrics
from workloads import WORKLOADS

WORKERS = 2
# Pool workers each run single-threaded BLAS: with OpenBLAS threads on top
# of the pool on a 2-vCPU Intel Xeon machine, run times turned bimodal (one
# 20-replicate rate-study run of five took 1.5 s, the others about 3.5 s;
# pinned, 0.72-1.09 s), so an unpinned benchmark would time the scheduler
# rather than the program.
THREAD_ENV = {"CONVEXREG_THREADS": str(WORKERS), "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1"}
MIN_COMMANDS = 3
COMMAND_TIMEOUT_S = 120


@dataclass
class Launch:
    rc: int
    wall: float  # launch to exit
    cpu: float  # user + system of the process and the children it waited for
    rss_mb: float  # peak resident set of the largest process in the tree


def launch(argv, cwd, env):
    """Run a command to completion; stdout and stderr go to files in cwd."""
    with open(cwd / "stdout.log", "wb") as out, open(cwd / "stderr.log", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0)


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Tally:
    """Attempted and failed operations of one run, with the artifact checks."""

    def __init__(self, workload, work):
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.reference = {}  # input variant -> artifact digest of its first successful command
        self.verdicts = {}  # digest -> problems found by the workload check

    def digest(self):
        h = hashlib.sha256()
        for name in self.workload.artifacts:
            h.update(name.encode() + b"\0" + (self.work / name).read_bytes())
        return h.hexdigest()

    def run(self, argv, env, variant):
        """Launch one workload command on a clean slate and record it: the
        artifacts of earlier commands are removed first, so a command that
        fails to write one cannot pass on stale bytes."""
        for name in self.workload.artifacts:
            (self.work / name).unlink(missing_ok=True)
        launched = launch(argv, self.work, env)
        self.attempted += 1
        if launched.rc != 0:
            stderr = (self.work / "stderr.log").read_text(errors="replace")[-2000:]
            problems = [f"exit code {launched.rc}: {stderr.strip()}"]
        else:
            try:
                problems = self._check(variant)
            except Exception as exc:  # an unreadable artifact fails this operation only
                problems = [f"artifact check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            print(f"failed operation {self.attempted}: " + "; ".join(problems), file=sys.stderr)
        return launched

    def _check(self, variant):
        digest = self.digest()
        problems = []
        if self.reference.setdefault(variant, digest) != digest:
            problems.append("artifacts differ from the first command's bytes on this input")
        if digest not in self.verdicts:
            self.verdicts[digest] = self.workload.check(self.work, variant)
        return problems + self.verdicts[digest]

    def artifact_bytes(self):
        return sum((self.work / name).stat().st_size for name in self.workload.artifacts)


def cli_command(workload, seed, variant):
    return [sys.executable, "-m", "convexreg.cli", *workload.argv(seed, variant)]


def workload_env(root):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update(THREAD_ENV)
    return env


def environment(env, root):
    """Machine, interpreter, numpy/BLAS build and thread settings of a run."""
    cpu = None
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: v for k, v in sorted(env.items()) if k.endswith("THREADS")},
        "git_commit": git_commit(root),
    }


def git_commit(root):
    """Commit of a git checkout; None outside one or without git."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def high_percentile(values):
    """(p, value) for the highest percentile above the median with at least
    ten samples above it, or None when there are too few samples for one."""
    n = len(values)
    p = 100 * (n - 10) // n
    if p <= 50:
        return None
    return p, float(np.percentile(values, p))


def _time_left(start, seconds, done, steps=1):
    """Whether ``steps`` more steps, as long as the ``done`` ones so far on
    average, still end within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + steps * elapsed / done <= seconds


def timed_runs(workload, seed, work, env, tally, seconds):
    """End-to-end metrics: a set-up probe and the CLI command, repeated for
    ``seconds`` in rotation through the workload's input variants, each at
    least once; the variants are draws from one distribution, so the few a
    partial last rotation repeats bias nothing, and using the whole window
    averages over more of the machine's speed swings.  Probes alternate with
    commands so both sample the same stretch of machine time."""
    probe = [sys.executable, "-c", "import convexreg.cli"]
    setup, runs = [], []
    start = time.perf_counter()
    cycle = workload.variants
    while len(runs) < max(MIN_COMMANDS, cycle) or _time_left(start, seconds, len(runs)):
        # set-up: interpreter start and package import, as a user pays it per command
        setup.append(launch(probe, work, env).wall)
        variant = len(runs) % cycle
        runs.append(tally.run(cli_command(workload, seed, variant), env, variant))
    fits, rows = workload.work_units()
    walls = [r.wall for r in runs]
    top = high_percentile(walls)
    print(f"{workload.name}: {len(walls)} commands, wall median {statistics.median(walls):.4f} s"
          + (f", p{top[0]} {top[1]:.4f} s" if top else ""))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "fits_per_s": (statistics.median(fits / w for w in walls), "1/s"),
        "rows_per_s": (statistics.median(rows / w for w in walls), "rows/s"),
        "cpu_s": (statistics.median(r.cpu for r in runs), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in runs), "MB"),
    }


def traced_runs(workload, seed, root, work, env, tally, seconds):
    """Per-layer metrics: pooled, serial and traced runs repeated for
    ``seconds`` in whole cycles through the workload's input variants, so
    every variant is traced equally often."""
    serial_env = dict(env, CONVEXREG_THREADS="1")
    helper = [sys.executable, str(root / "bench" / "traced.py")]
    iterations = []
    rounds = 0
    start = time.perf_counter()
    cycle = workload.variants
    while rounds == 0 or rounds % cycle or _time_left(start, seconds, rounds, cycle):
        variant = rounds % cycle
        rounds += 1
        reports = {}
        serial_pair = [("serial", serial_env, []), ("traced", serial_env, ["--spans"])]
        if rounds % 2 == 0:  # alternate so neither serial run always follows the pooled one
            serial_pair.reverse()
        for kind, run_env, flags in [("pooled", env, []), *serial_pair]:
            report = work / f"{kind}.report.json"
            launched = tally.run(helper + ["--report", str(report), "--run-id", str(rounds),
                                           *flags, "--", *workload.argv(seed, variant)],
                                 run_env, variant)
            if launched.rc != 0:
                break
            reports[kind] = (json.loads(report.read_text()), launched)
        if len(reports) == 3:
            pooled, pooled_launch = reports["pooled"]
            iterations.append(layer_metrics(
                reports["traced"][0], reports["serial"][0]["wall"], pooled["wall"],
                pooled_launch.cpu, pooled_launch.wall, WORKERS, tally.artifact_bytes()))
    if not iterations:
        return {}
    print(f"{workload.name}: {len(iterations)} traced iterations")
    return {name: (statistics.median(it[name][0] for it in iterations), unit)
            for name, (_, unit) in iterations[0].items()}


def run(workload, seed, seconds, trace, root, work):
    """One benchmark run; returns the result object printed as the last line."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = workload_env(root)
    workload.prepare(work, seed)
    tally = Tally(workload, work)
    # warm-up: compiles bytecode and fills the page cache
    tally.run(cli_command(workload, seed, 0), env, 0)
    if trace:
        metrics = traced_runs(workload, seed, root, work, env, tally, seconds)
    else:
        metrics = timed_runs(workload, seed, work, env, tally, seconds)
    # for information only: a change may legitimately alter the artifact bytes
    print("artifact sha256 by input variant " + json.dumps(tally.reference, sort_keys=True))
    print("env " + json.dumps(environment(env, root), sort_keys=True))
    return {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="convexreg benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "convexreg" / "cli.py").is_file():
        print(f"no convexreg sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, root,
                 root / ".bench_work" / args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
