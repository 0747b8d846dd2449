"""Data generators and Monte Carlo harnesses.

Scenario generators draw uniform designs with Gaussian noise around either a
flat-bottomed polynomial mean (vanishing derivatives of orders 2..r-1 at the
center) or an affine mean, both times the constant ``AMPLITUDE``.  The rate
study pools log absolute bias at a query point against log sample size and
reports the fitted slope.  The invelope simulators fit the convex estimator
to canonical drifted-noise data on a uniform grid, which approximates the
second and third derivatives of the limiting invelope process at a point.
The local error and boundary studies record argmin errors and boundary
overshoots per replicate.

Randomness is counter-based (Philox) and keyed by entropy tuples so every
draw is reproducible bit-for-bit and replicates can run in any order or in
parallel without changing results:

    (1, kind_code, r, n, seed)   scenario draws (x first, then noise)
    (2, base_seed, n, replicate) per-replicate seed mixing inside studies
    (3, r, m, seed)              canonical invelope noise
    (4, m, seed)                 zero-drift invelope noise
    (5, n, seed)                 boundary-study draws

Every study's replicate is one task ``(n, replicate, mix_seed(seed, n,
replicate), ...)``, the study's own parameters following, and
:func:`_replicate_tasks` builds them all, sizes outermost.  One helper,
:func:`_run_tasks`, runs them: serially by default, or on
``CONVEXREG_THREADS`` forked worker processes, each taking one strided share
of the tasks.  Results are put back in task order, so the worker count never
changes the output.  A study function's parameters are the flags of
its CLI subcommand, and the command records them as the artifact's
configuration.
"""

import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .inference import argmin_estimator, boundary_diagnostics
from .model import Dataset, evaluate, left_derivative
from .solver import certificate_scale, fit_convex_lse

_STREAM_SCENARIO = 1
_STREAM_MIX = 2
_STREAM_INVELOPE = 3
_STREAM_FLAT_INVELOPE = 4
_STREAM_BOUNDARY = 5

_KIND_CODES = {"vanishing": 0, "affine": 1}

AMPLITUDE = 2.0  # scale of every scenario mean

DEFAULT_RATE_GRID = tuple(
    int(round(v)) for v in np.geomspace(500.0, 10000.0, 10)
)


def rng_from_key(*key) -> np.random.Generator:
    """Counter-based generator keyed by a tuple of nonnegative integers."""
    if any(int(k) < 0 for k in key):
        raise ValueError("stream keys must be nonnegative integers")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(tuple(int(k) for k in key))))


def mix_seed(base_seed: int, n: int, replicate: int) -> int:
    """Fold (study seed, sample size, replicate) into one replayable seed."""
    ss = np.random.SeedSequence((_STREAM_MIX, int(base_seed), int(n), int(replicate)))
    return int(ss.generate_state(1, np.uint64)[0])


def thread_count() -> int:
    """Worker cap from CONVEXREG_THREADS (default 1 = serial)."""
    raw = os.environ.get("CONVEXREG_THREADS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"CONVEXREG_THREADS must be an integer, got {raw!r}") from exc
    return max(1, value)


def _run_tasks(fn, tasks):
    """Map fn over tasks and return the results in task order; on
    :func:`thread_count` forked workers when that is above 1.

    Worker j runs the strided share tasks j, j + w, j + 2w, ...  Study grids
    list tasks by ascending sample size, so contiguous shares would put all
    the largest fits in the last one; strided ones give every worker the same
    mix.  Each worker sends its share's results, or the first exception a
    task raised, back through its own pipe as one pickle.  The parent only
    collects: it reads the pipes in worker order, puts share j back at
    ``results[j::w]`` and re-raises the first worker's exception; a worker
    that exits without sending anything raises a ``RuntimeError`` naming its
    wait status.  On every exit the parent kills the workers still running
    and reaps them all.  With one worker, or without ``os.fork``, the tasks
    run serially in this process.
    """
    if not tasks:
        raise ValueError("need at least 1 replicate")
    workers = min(thread_count(), len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(t) for t in tasks]
    results = [None] * len(tasks)
    pids = []  # None once reaped
    pipes = []
    try:
        for j in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(fn, tasks[j::workers], write_fd, pipes)  # never returns
            finally:
                os.close(write_fd)
            pids.append(pid)
        for j, pipe in enumerate(pipes):
            payload = pipe.read()
            _, status = os.waitpid(pids[j], 0)
            pids[j] = None
            if not payload:
                how = (f"signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
                       else f"exit code {os.WEXITSTATUS(status)}")
                raise RuntimeError(f"replicate worker {j} exited without a result "
                                   f"(wait status {status}: {how})")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results[j::workers] = value
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _run_share(fn, share, write_fd, inherited):
    """Forked worker body: send ``(True, results)`` or ``(False, exception)``
    through ``write_fd`` and leave by ``os._exit``, so the child never runs
    the parent's cleanup or returns into its stack.  An exception that does
    not survive a pickle round trip is sent as a ``RuntimeError`` carrying
    its repr, and so is the error of results that do not pickle.

    ``inherited`` are the parent's read ends, this worker's own included.
    Closing them leaves the parent the only reader of every pipe, so once
    the parent is gone a write fails instead of blocking forever.
    """
    code = 1
    try:
        for pipe in inherited:
            pipe.close()
        try:
            ok, value = True, [fn(t) for t in share]
        except Exception as exc:  # the parent re-raises it
            ok, value = False, exc
        try:
            data = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
            if not ok:
                pickle.loads(data)
        except Exception as exc:
            failure = value if not ok else exc
            data = pickle.dumps((False, RuntimeError(repr(failure))), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


@dataclass(frozen=True)
class ScenarioSpec:
    """One synthetic regression scenario.

    ``kind`` is "vanishing" (mean AMPLITUDE*(x-1/2)^r with even r >= 2) or
    "affine" (mean AMPLITUDE*(x-1/2)); the amplitude is a constant.  Noise is
    i.i.d. normal with finite standard deviation ``sigma``; the design is
    i.i.d. uniform on [0, 1].
    """

    kind: str
    n: int
    seed: int
    r: int = 2
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"kind must be one of {sorted(_KIND_CODES)}")
        if self.kind == "vanishing" and (self.r < 2 or self.r % 2 != 0):
            raise ValueError("r must be an even integer >= 2")
        if self.n < 10:
            raise ValueError("n must be at least 10")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def true_mean(spec: ScenarioSpec, t):
    t = np.asarray(t, dtype=float)
    if spec.kind == "vanishing":
        out = AMPLITUDE * _int_power(t - 0.5, spec.r)
    else:
        out = AMPLITUDE * (t - 0.5)
    return float(out) if out.ndim == 0 else out


def _int_power(base: np.ndarray, r: int) -> np.ndarray:
    """base**r for an integer r >= 1 by repeated squaring: a few
    multiplications instead of libm pow per element, within about
    r/2 ulp of the correctly rounded power."""
    out = None
    while True:
        if r & 1:
            out = base if out is None else out * base
        r >>= 1
        if not r:
            return out
        base = base * base


def generate_scenario(spec: ScenarioSpec) -> Dataset:
    """Draw the scenario dataset; identical spec and seed give identical bytes.

    sigma only rescales the noise, so runs with the same (kind, r, n, seed)
    share the same underlying design and noise.
    """
    rng = rng_from_key(_STREAM_SCENARIO, _KIND_CODES[spec.kind], spec.r, spec.n, spec.seed)
    x = rng.random(spec.n)
    eps = rng.standard_normal(spec.n)
    y = true_mean(spec, x) + spec.sigma * eps
    return Dataset.from_arrays(x, y)


# ---------------------------------------------------------------------------
# rate-of-convergence study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateRecord:
    n: int
    replicate: int
    seed: int
    bias: float
    log_n: float
    log_abs_bias: float


@dataclass(frozen=True)
class RateStudyResult:
    records: tuple[RateRecord, ...]
    slope: float
    slope_stderr: float
    skipped: int


def _rate_task(args):
    n, replicate, seed, kind, r, sigma, x0 = args
    spec = ScenarioSpec(kind=kind, n=n, seed=seed, r=r, sigma=sigma)
    dataset = generate_scenario(spec)
    fit, _ = fit_convex_lse(dataset)
    bias = abs(evaluate(fit, dataset, x0) - true_mean(spec, x0))
    return n, replicate, seed, float(bias)


def pooled_log_slope(log_n, log_bias):
    """Plain least-squares slope of log|bias| on log n, with its standard error."""
    log_n = np.asarray(log_n, dtype=float)
    log_bias = np.asarray(log_bias, dtype=float)
    if log_n.size < 3 or np.ptp(log_n) == 0.0:
        raise ValueError("need at least 3 records across at least 2 sample sizes")
    xc = log_n - log_n.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * log_bias) / sxx)
    intercept = float(log_bias.mean() - slope * log_n.mean())
    rss = float(np.sum((log_bias - intercept - slope * log_n) ** 2))
    stderr = math.sqrt(rss / (log_n.size - 2) / sxx)
    return slope, stderr


def _study_grid(n_grid) -> list[int]:
    """Study sample sizes: non-empty and strictly increasing, as ints."""
    grid = [int(n) for n in n_grid]
    if not grid or any(b <= a for a, b in zip(grid[:-1], grid[1:])):
        raise ValueError(f"n_grid must be non-empty and strictly increasing, got {grid}")
    return grid


def _replicate_tasks(n_grid, replicates, seed, *params):
    """``(n, replicate, mix_seed(seed, n, replicate), *params)`` for every
    replicate at every size of the checked grid, sizes outermost."""
    return [
        (n, rep, mix_seed(seed, n, rep), *params)
        for n in _study_grid(n_grid)
        for rep in range(replicates)
    ]


def rate_study(scenario: str, n_grid=DEFAULT_RATE_GRID, replicates: int = 100,
               x0: float = 0.5, seed: int = 0, r: int = 4,
               sigma: float = 1.0) -> RateStudyResult:
    """Fit one estimator per (n, replicate), record log absolute bias at x0,
    and regress it on log n pooled over every record.

    Replicates with zero bias have no log and are skipped (zero means below
    the floating-point floor 1e-12 * (1 + |true value|), which only noise-free
    degenerate runs reach); the skip count is reported and the study raises
    when every record is skipped (e.g. sigma = 0).
    """
    tasks = _replicate_tasks(n_grid, replicates, seed, scenario, r, sigma, x0)
    if replicates < 20:
        raise ValueError("need at least 20 replicates")
    # the last task has the largest size
    probe = ScenarioSpec(kind=scenario, n=tasks[-1][0], seed=0, r=r, sigma=sigma)
    zero_floor = 1e-12 * (1.0 + abs(true_mean(probe, x0)))
    rows = _run_tasks(_rate_task, tasks)
    records = []
    skipped = 0
    for n, rep, child, bias in rows:
        if bias <= zero_floor:
            skipped += 1
            continue
        records.append(
            RateRecord(n=n, replicate=rep, seed=child, bias=bias,
                       log_n=math.log(n), log_abs_bias=math.log(bias))
        )
    if not records:
        raise ValueError(f"all {skipped} replicates had exactly zero bias; no slope to fit")
    slope, stderr = pooled_log_slope(
        [rec.log_n for rec in records], [rec.log_abs_bias for rec in records]
    )
    return RateStudyResult(records=tuple(records), slope=slope,
                           slope_stderr=stderr, skipped=skipped)


# ---------------------------------------------------------------------------
# invelope simulators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvelopeSample:
    """One draw of the discretized limit pair.

    ``h2_at_0`` is the fitted value at the grid point nearest the query
    (0 for the canonical problem), ``h3_at_0`` the left derivative there, and
    ``argmin_h2`` the smallest minimizer of the fitted values, all in the
    coordinates of ``domain``.  ``r = 0`` marks the zero-drift variant.
    ``min_envelope_gap`` and ``kink_envelope_gap`` read the fit's own
    certificate (``SolverTrace.certificate``) with the fit report's
    normalization ``m * (1 + max|response|)``: the smallest cumulative sum
    and the largest absolute sum at a kink.  The first should be >= -tol,
    the second ~ 0 for a certified fit.  On the grid, the fitted-minus-
    response gap summed twice with steps of ``delta`` equals ``delta * 2c``
    times these sums, because the fit runs on the grid rescaled to [0, 1].
    """

    r: int
    c: float
    m: int
    h2_at_0: float
    h3_at_0: float
    argmin_h2: float
    domain: tuple[float, float]
    query_point: float
    min_envelope_gap: float
    kink_envelope_gap: float


def _run_invelope(t, responses, delta, query, r, c):
    lo, hi = float(t[0] - 0.5 * delta), float(t[-1] + 0.5 * delta)
    width = hi - lo
    u = (t - lo) / width
    dataset = Dataset.from_arrays(u, responses)
    fit, trace = fit_convex_lse(dataset)
    idx = int(np.argmin(np.abs(t - query)))
    h2 = float(fit.fitted[idx])
    h3 = left_derivative(fit, dataset, u[idx]) / width
    loc = argmin_estimator(fit, dataset).location * width + lo
    cum = trace.certificate.cum
    scale = certificate_scale(dataset)
    kink_gap = float(np.max(np.abs(cum[np.asarray(fit.kinks) - 1]))) if fit.kinks else 0.0
    return InvelopeSample(
        r=r, c=c, m=len(t), h2_at_0=h2, h3_at_0=h3, argmin_h2=float(loc),
        domain=(lo, hi), query_point=float(t[idx]),
        min_envelope_gap=float(cum.min() / scale),
        kink_envelope_gap=kink_gap / scale,
    )


def simulate_invelope(r: int, c: float = 4.0, m: int = 2000, seed: int = 0) -> InvelopeSample:
    """Simulate the canonical drifted-noise problem on a uniform grid over
    [-c, c] and fit the convex estimator.

    Responses are (r+2)(r+1) t^r + eta / sqrt(delta) with standard normal
    eta and delta = 2c/m.  Cumulative sums of responses*delta then
    approximate a two-sided Brownian motion plus the drift (r+2) t^(r+1),
    and double cumulative sums approximate its integral plus t^(r+2); the
    fitted values approximate the second derivative of the invelope of that
    integrated process, the left slope its third derivative.
    """
    if r < 2 or r % 2 != 0:
        raise ValueError("r must be an even integer >= 2")
    if c <= 0.0:
        raise ValueError("c must be strictly positive")
    if m < 200:
        raise ValueError("need m >= 200 grid points")
    delta = 2.0 * c / m
    t = -c + (np.arange(m) + 0.5) * delta
    eta = rng_from_key(_STREAM_INVELOPE, r, m, seed).standard_normal(m)
    responses = (r + 2) * (r + 1) * t ** r + eta / math.sqrt(delta)
    return _run_invelope(t, responses, delta, query=0.0, r=r, c=float(c))


def simulate_affine_invelope(m: int = 2000, seed: int = 0, query: float = 0.5) -> InvelopeSample:
    """Zero-drift variant on [0, 1]: responses are pure scaled noise and the
    fitted values approximate the invelope second derivative at ``query``."""
    if m < 200:
        raise ValueError("need m >= 200 grid points")
    if not (0.0 < query < 1.0):
        raise ValueError("query must be interior to (0, 1)")
    delta = 1.0 / m
    t = (np.arange(m) + 0.5) * delta
    eta = rng_from_key(_STREAM_FLAT_INVELOPE, m, seed).standard_normal(m)
    responses = eta / math.sqrt(delta)
    return _run_invelope(t, responses, delta, query=query, r=0, c=0.5)


def _invelope_task(args):
    m, replicate, seed, scenario, r, c, x0 = args
    if scenario == "affine":
        return replicate, seed, simulate_affine_invelope(m, seed, query=x0)
    return replicate, seed, simulate_invelope(r, c, m, seed)


def invelope_study(scenario: str, m: int, replicates: int, seed: int = 0, r: int = 2,
                   c: float = 4.0, x0: float = 0.5, refine: bool = False):
    """``(replicate, seed, sample)`` per replicate of the drift ("vanishing")
    or zero-drift ("affine") simulator on the m-point grid, with seed
    ``mix_seed(seed, m, replicate)``; ``refine`` appends the same seeds drawn
    on the 2m-point grid."""
    tasks = _replicate_tasks([m], replicates, seed, scenario, r, c, x0)
    if refine:
        tasks += [(2 * n, *rest) for n, *rest in tasks]
    return tuple(_run_tasks(_invelope_task, tasks))


# ---------------------------------------------------------------------------
# pointwise error / argmin study and boundary study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalErrorRecord:
    n: int
    replicate: int
    seed: int
    value_err: float
    deriv_err: float
    argmin_location: float
    argmin_err: float


@dataclass(frozen=True)
class LocalErrorStudy:
    r: int
    records: tuple[LocalErrorRecord, ...]

    def by_n(self, field: str) -> dict[int, np.ndarray]:
        out = {}
        for rec in self.records:
            out.setdefault(rec.n, []).append(getattr(rec, field))
        return {n: np.asarray(v) for n, v in sorted(out.items())}


def _local_error_task(args):
    n, replicate, seed, r, sigma = args
    dataset = generate_scenario(ScenarioSpec(kind="vanishing", n=n, seed=seed, r=r, sigma=sigma))
    fit, _ = fit_convex_lse(dataset)
    # the mean and its slope vanish at the minimum 1/2: the errors are |value|, |slope|
    value_err = abs(evaluate(fit, dataset, 0.5))
    deriv_err = abs(left_derivative(fit, dataset, 0.5))
    am = argmin_estimator(fit, dataset)
    return LocalErrorRecord(
        n=n, replicate=replicate, seed=seed,
        value_err=float(value_err), deriv_err=float(deriv_err),
        argmin_location=float(am.location), argmin_err=float(abs(am.location - 0.5)),
    )


def local_error_study(r: int, n_grid, replicates: int, seed: int = 0,
                      sigma: float = 1.0) -> LocalErrorStudy:
    """Per-replicate value, derivative and argmin errors at 1/2, the minimum
    of the flat-bottomed scenario."""
    records = _run_tasks(_local_error_task, _replicate_tasks(n_grid, replicates, seed, r, sigma))
    return LocalErrorStudy(r=r, records=tuple(records))


@dataclass(frozen=True)
class BoundaryStudyResult:
    epsilon: float
    frequencies: dict[int, float]
    counts: dict[int, int]
    replicates: int


def _boundary_mean(t):
    # convex, decreasing at 0, value 1 there
    return 1.0 - t + t * t


def _boundary_task(args):
    n, _, seed, epsilon = args
    rng = rng_from_key(_STREAM_BOUNDARY, n, seed)
    x = rng.random(n)
    y = _boundary_mean(x) + rng.standard_normal(n)
    dataset = Dataset.from_arrays(x, y)
    fit, _ = fit_convex_lse(dataset)
    value0 = boundary_diagnostics(fit, dataset).value_at_0
    return n, bool(value0 > (1.0 + epsilon) * 1.0)


def boundary_inconsistency_study(n_grid, replicates: int, seed: int = 0,
                                 epsilon: float = 0.05) -> BoundaryStudyResult:
    """Frequency of the extrapolated boundary value overshooting the true
    boundary mean by a factor 1 + epsilon, per sample size.

    The study model is 1 - t + t^2 plus standard normal noise: convex,
    strictly decreasing at 0 with value 1, so a consistent estimator would
    drive the frequency to zero; the convex fit keeps it bounded away.
    """
    tasks = _replicate_tasks(n_grid, replicates, seed, epsilon)
    counts: dict[int, int] = {}
    for n, hit in _run_tasks(_boundary_task, tasks):
        counts[n] = counts.get(n, 0) + int(hit)
    freqs = {n: counts[n] / replicates for n in counts}
    return BoundaryStudyResult(epsilon=epsilon, frequencies=freqs,
                               counts=counts, replicates=replicates)
