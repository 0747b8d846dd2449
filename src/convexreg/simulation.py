"""Data generators and Monte Carlo harnesses.

Scenario generators draw uniform designs with Gaussian noise around a
flat-bottomed polynomial mean (vanishing derivatives of orders 2..r-1 at the
center) or an affine mean, both times ``AMPLITUDE``, or 1 - t + t^2.  The rate
study pools log absolute bias at a query point against log sample size and
reports the fitted slope.  One invelope simulator, :func:`simulate_invelope`,
fits the convex estimator to scaled noise on a uniform grid, which
approximates the second and third derivatives of the limiting invelope
process at a point: with the polynomial drift of case (a) on [-c, c]
("vanishing", which reads r and c) or with none on [0, 1], queried at x0
("affine", which reads x0).  The local error study records value, slope and
argmin errors at the minimum 1/2, and the boundary study how often the value
at 0 overshoots the true mean.

Randomness is counter-based (Philox) and keyed by entropy tuples so every
draw is reproducible bit-for-bit and replicates can run in any order or in
parallel without changing results:

    (1, kind_code, r, n, seed)   "vanishing" (0) and "affine" (1) draws, x then noise
    (2, base_seed, n, replicate) per-replicate seed mixing inside studies
    (3, r, m, seed)              canonical invelope noise
    (4, m, seed)                 zero-drift invelope noise
    (5, n, seed)                 "boundary" draws, x then noise

Every study's replicate is one task ``(n, replicate, mix_seed(seed, n,
replicate), ...)``, the study's own parameters following, and
:func:`_replicate_tasks` builds them all, sizes outermost.  The three
finite-sample studies share one task, :func:`_point_task`, on parameters
``(kind, r, sigma, x0)``: it draws and fits the scenario and returns the
value, slope and argmin that :func:`_read_at` reads at x0 (the invelope
simulator reads its grid point with it too); each study computes its own
statistic from these rows.  A study first runs the checks its tasks would
(``ScenarioSpec``'s at the smallest size, or :func:`_check_invelope`), so a
bad parameter fails before any task does.  One helper, :func:`_run_tasks`,
runs them: serially by default, or on ``CONVEXREG_THREADS`` forked worker
processes, each taking one strided share of the tasks.  Results are put back
in task order, so the worker count never changes the output.  A study
function's parameters and defaults are the flags and defaults of its CLI
subcommand, and the command records the arguments the study ran with as the
artifact's configuration.
"""

import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .inference import argmin_estimator
from .model import Dataset, evaluate, left_derivative
from .solver import certificate_scale, fit_convex_lse

_STREAM_SCENARIO = 1
_STREAM_MIX = 2
_STREAM_INVELOPE = 3
_STREAM_FLAT_INVELOPE = 4
_STREAM_BOUNDARY = 5

_KINDS = ("vanishing", "affine", "boundary")  # index = kind_code of stream 1

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


class WorkerError(RuntimeError):
    """A replicate worker exited without sending a result."""


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
    that exits without sending anything raises a :class:`WorkerError` naming
    its wait status.  On every exit the parent kills the workers still running
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
                raise WorkerError(f"replicate worker {j} exited without a result "
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

    ``kind`` is "vanishing" (mean AMPLITUDE*(x-1/2)^r, even r >= 2), "affine"
    (mean AMPLITUDE*(x-1/2)) or "boundary" (mean 1 - x + x^2, value 1 at 0
    and decreasing there; r unread).  Noise is i.i.d. normal with finite
    standard deviation ``sigma``; the design is i.i.d. uniform on [0, 1].
    """

    kind: str
    n: int
    seed: int
    r: int = 2
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {sorted(_KINDS)}")
        if self.kind == "vanishing" and (self.r < 2 or self.r % 2 != 0):
            raise ValueError(f"r must be an even integer >= 2, got {self.r}")
        if self.n < 10:
            raise ValueError(f"n must be at least 10, got {self.n}")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def true_mean(spec: ScenarioSpec, t):
    t = np.asarray(t, dtype=float)
    if spec.kind == "vanishing":
        out = AMPLITUDE * _int_power(t - 0.5, spec.r)
    elif spec.kind == "affine":
        out = AMPLITUDE * (t - 0.5)
    else:
        out = 1.0 - t + t * t
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
    head = ((_STREAM_BOUNDARY,) if spec.kind == "boundary"
            else (_STREAM_SCENARIO, _KINDS.index(spec.kind), spec.r))
    rng = rng_from_key(*head, spec.n, spec.seed)
    x = rng.random(spec.n)
    eps = rng.standard_normal(spec.n)
    y = true_mean(spec, x) + spec.sigma * eps
    return Dataset.from_arrays(x, y)


def _read_at(fit, dataset, point):
    """The fit's value and left derivative at ``point`` in [0, 1], and the
    argmin location: the three pointwise reads the studies make."""
    return (evaluate(fit, dataset, point), left_derivative(fit, dataset, point),
            argmin_estimator(fit, dataset).location)


def _point_task(args):
    """One finite-sample replicate: draw the scenario, fit it and read the
    fit at x0."""
    n, replicate, seed, kind, r, sigma, x0 = args
    dataset = generate_scenario(ScenarioSpec(kind, n, seed, r=r, sigma=sigma))
    fit, _ = fit_convex_lse(dataset)
    return (n, replicate, seed, *_read_at(fit, dataset, x0))


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


def _probe_spec(kind, n_grid, **params):
    """The seed-0 spec at the smallest size of the checked study grid.  Only
    the floor on n depends on the size, so this raises, before any task
    runs, for every spec the study's tasks would reject."""
    n = _study_grid(n_grid)[0]
    try:
        return ScenarioSpec(kind, n, 0, **params)
    except ValueError as exc:
        raise ValueError(f"{exc} (at n_grid size {n})") from None


def _replicate_tasks(n_grid, replicates, seed, *params):
    """``(n, replicate, mix_seed(seed, n, replicate), *params)`` for every
    replicate at every size of the checked grid, sizes outermost."""
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
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
    grid = _study_grid(n_grid)
    if len(grid) < 2 or replicates < 20:
        raise ValueError(f"need 2+ sizes and 20+ replicates, got n_grid {grid}, {replicates}")
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 must lie in [0, 1], got {x0}")
    probe = _probe_spec(scenario, grid, r=r, sigma=sigma)
    tasks = _replicate_tasks(grid, replicates, seed, scenario, r, sigma, x0)
    truth = true_mean(probe, x0)
    zero_floor = 1e-12 * (1.0 + abs(truth))
    records = []
    skipped = 0
    for n, rep, child, value, _, _ in _run_tasks(_point_task, tasks):
        bias = abs(value - truth)
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
# invelope simulator
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
    h2, slope, loc = _read_at(fit, dataset, u[idx])
    cum = trace.certificate.cum
    scale = certificate_scale(dataset)
    kink_gap = float(np.max(np.abs(cum[np.asarray(fit.kinks) - 1]))) if fit.kinks else 0.0
    return InvelopeSample(
        r=r, c=c, m=len(t), h2_at_0=h2, h3_at_0=slope / width, argmin_h2=loc * width + lo,
        domain=(lo, hi), query_point=float(t[idx]),
        min_envelope_gap=float(cum.min() / scale),
        kink_envelope_gap=kink_gap / scale,
    )


def _check_invelope(scenario, m, r, c, x0):
    """Reject the parameters of an invelope grid that cannot be drawn; the
    "affine" variant reads the query point x0, the "vanishing" one r and c."""
    if scenario not in ("vanishing", "affine"):
        raise ValueError(f"scenario must be 'vanishing' or 'affine', got {scenario!r}")
    if m < 200:
        raise ValueError(f"m must be at least 200 grid points, got {m}")
    if scenario == "affine":
        if not 0.0 < x0 < 1.0:
            raise ValueError(f"query point x0 must be interior to (0, 1), got {x0}")
    elif r < 2 or r % 2 != 0:
        raise ValueError(f"r must be an even integer >= 2, got {r}")
    elif not 0.0 < c < math.inf:
        raise ValueError(f"c must be strictly positive and finite, got {c}")


def simulate_invelope(scenario: str = "vanishing", m: int = 2000, seed: int = 0, r: int = 2,
                      c: float = 4.0, x0: float = 0.5) -> InvelopeSample:
    """One draw of the drift ("vanishing") or zero-drift ("affine") limit
    pair: the convex fit to scaled noise on the m midpoints of a grid.

    "vanishing" reads r and c: the grid covers [-c, c], the query is 0 and
    the responses are (r+2)(r+1) t^r + eta / sqrt(delta) with standard
    normal eta (stream 3) and delta = 2c/m.  Cumulative sums of
    responses*delta then approximate a two-sided Brownian motion plus the
    drift (r+2) t^(r+1), and double cumulative sums approximate its integral
    plus t^(r+2); the fitted values approximate the second derivative of the
    invelope of that integrated process, the left slope its third
    derivative.  "affine" reads x0: stream 4's noise alone on [0, 1],
    queried at x0; its sample reports r = 0 and c = 0.5.
    """
    _check_invelope(scenario, m, r, c, x0)
    if scenario == "affine":
        lo, width, key, query, r, c = 0.0, 1.0, (_STREAM_FLAT_INVELOPE, m, seed), x0, 0, 0.5
    else:
        lo, width, key, query = -c, 2.0 * c, (_STREAM_INVELOPE, r, m, seed), 0.0
    delta = width / m
    t = lo + (np.arange(m) + 0.5) * delta
    responses = rng_from_key(*key).standard_normal(m) / math.sqrt(delta)
    if r:
        responses = (r + 2) * (r + 1) * t ** r + responses
    return _run_invelope(t, responses, delta, query, r, float(c))


def _invelope_task(args):
    m, replicate, seed, scenario, r, c, x0 = args
    return replicate, seed, simulate_invelope(scenario, m, seed, r, c, x0)


def invelope_study(scenario: str = "vanishing", m: int = 2000, replicates: int = 100,
                   seed: int = 0, r: int = 2, c: float = 4.0, x0: float = 0.5,
                   refine: bool = False):
    """``(replicate, seed, sample)`` per replicate of the drift ("vanishing")
    or zero-drift ("affine") simulator on the m-point grid, with seed
    ``mix_seed(seed, m, replicate)``; ``refine`` appends the same seeds drawn
    on the 2m-point grid."""
    _check_invelope(scenario, m, r, c, x0)
    if refine and replicates < 2:
        raise ValueError(f"refine needs at least 2 replicates, got {replicates}")
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


def local_error_study(r: int = 2, n_grid=(1000, 4000, 16000), replicates: int = 100,
                      seed: int = 0, sigma: float = 1.0) -> LocalErrorStudy:
    """Per-replicate value, derivative and argmin errors at 1/2, the minimum
    of the flat-bottomed scenario."""
    _probe_spec("vanishing", n_grid, r=r, sigma=sigma)
    tasks = _replicate_tasks(n_grid, replicates, seed, "vanishing", r, sigma, 0.5)
    # the mean and its slope vanish at the minimum 1/2: the errors are |value|, |slope|
    records = tuple(
        LocalErrorRecord(n, rep, child, abs(value), abs(slope), loc, abs(loc - 0.5))
        for n, rep, child, value, slope, loc in _run_tasks(_point_task, tasks))
    return LocalErrorStudy(r=r, records=records)


@dataclass(frozen=True)
class BoundaryStudyResult:
    epsilon: float
    frequencies: dict[int, float]
    counts: dict[int, int]
    replicates: int


def boundary_inconsistency_study(n_grid=(500, 2000, 8000), replicates: int = 200,
                                 seed: int = 0, epsilon: float = 0.05) -> BoundaryStudyResult:
    """Frequency of the extrapolated boundary value overshooting the true
    boundary mean by a factor 1 + epsilon, per sample size.

    The study draws the "boundary" scenario with unit noise: its mean is
    strictly decreasing at 0, so a consistent estimator would drive the
    frequency to zero; the convex fit keeps it bounded away.
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be nonnegative and finite, got {epsilon}")
    probe = _probe_spec("boundary", n_grid)
    threshold = (1.0 + epsilon) * true_mean(probe, 0.0)
    tasks = _replicate_tasks(n_grid, replicates, seed, "boundary", probe.r, probe.sigma, 0.0)
    counts: dict[int, int] = {}
    for n, _, _, value, _, _ in _run_tasks(_point_task, tasks):
        counts[n] = counts.get(n, 0) + int(value > threshold)
    freqs = {n: counts[n] / replicates for n in counts}
    return BoundaryStudyResult(epsilon=epsilon, frequencies=freqs,
                               counts=counts, replicates=replicates)
