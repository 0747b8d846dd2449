import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import convexreg
from convexreg import (
    Dataset,
    ScenarioSpec,
    boundary_inconsistency_study,
    fit_convex_lse,
    generate_scenario,
    invelope_study,
    local_error_study,
    rate_study,
    simulate_affine_invelope,
    simulate_invelope,
    true_mean,
)
from convexreg.simulation import (
    AMPLITUDE,
    DEFAULT_RATE_GRID,
    _int_power,
    _run_tasks,
    mix_seed,
    rng_from_key,
)
from convexreg.solver import certificate_scale


class TestGenerateScenario:
    def test_same_seed_same_bytes(self):
        spec = ScenarioSpec(kind="vanishing", n=100, seed=7, r=4)
        a = generate_scenario(spec)
        b = generate_scenario(spec)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_different_seeds_differ(self):
        a = generate_scenario(ScenarioSpec(kind="affine", n=50, seed=1))
        b = generate_scenario(ScenarioSpec(kind="affine", n=50, seed=2))
        assert a.y.tobytes() != b.y.tobytes()

    def test_zero_noise_quartic_is_exact(self):
        spec = ScenarioSpec(kind="vanishing", n=200, seed=3, r=4, sigma=0.0)
        ds = generate_scenario(spec)
        assert np.allclose(ds.y, 2.0 * (ds.x - 0.5) ** 4, atol=0.0)

    def test_zero_noise_affine_recovered_by_solver(self):
        ds = generate_scenario(ScenarioSpec(kind="affine", n=100, seed=4, sigma=0.0))
        fit, trace = fit_convex_lse(ds)
        assert trace.final_objective < 1e-20
        assert np.max(np.abs(fit.fitted - ds.y)) < 1e-10

    def test_true_mean(self):
        spec = ScenarioSpec(kind="vanishing", n=10, seed=0, r=2)
        assert AMPLITUDE == 2.0
        assert true_mean(spec, 0.5) == 0.0
        assert true_mean(spec, 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("r", range(2, 9))
    def test_integer_power_matches_pow(self, r):
        # repeated squaring carries at most r - 1 roundings, pow about one
        base = np.random.default_rng(r).random(3700) - 0.5
        power = _int_power(base, r)
        assert np.all(np.abs(power - base**r) <= 0.5 * r * np.finfo(float).eps * np.abs(base**r))
        if r == 2:
            assert np.array_equal(power, np.square(base))
        if r % 2 == 0:
            spec = ScenarioSpec(kind="vanishing", n=10, seed=0, r=r)
            assert np.array_equal(true_mean(spec, base + 0.5), AMPLITUDE * _int_power(base, r))
            assert true_mean(spec, 0.0) == AMPLITUDE * 0.5**r

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="cubic", n=50, seed=0),
            dict(kind="vanishing", n=50, seed=0, r=3),
            dict(kind="vanishing", n=5, seed=0),
            dict(kind="affine", n=50, seed=0, sigma=-1.0),
            dict(kind="affine", n=50, seed=0, sigma=float("nan")),
            dict(kind="affine", n=50, seed=0, sigma=float("inf")),
            dict(kind="affine", n=50, seed=-1),
        ],
    )
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs)


def test_mix_seed_is_stable_and_injective_enough():
    assert mix_seed(1, 100, 0) == mix_seed(1, 100, 0)
    keys = {mix_seed(1, n, rep) for n in (100, 200) for rep in range(50)}
    assert len(keys) == 100


@pytest.mark.parametrize(
    "study",
    [
        lambda grid: boundary_inconsistency_study(grid, 20, seed=20260808),
        lambda grid: local_error_study(2, grid, 3),
    ],
    ids=["boundary", "local_error"],
)
def test_studies_reject_repeated_or_empty_grid(study):
    # a repeated n would pool both copies under one key: a boundary frequency
    # of 1.3 (26/20), 6 local-error records under n = 100
    for grid in ((100, 100), (200, 100), ()):
        with pytest.raises(ValueError, match="strictly increasing"):
            study(grid)


class TestRateStudy:
    def test_all_zero_bias_raises(self):
        with pytest.raises(ValueError, match="zero bias"):
            rate_study("affine", n_grid=(50, 100), replicates=20, seed=1, sigma=0.0)

    def test_rejects_nonincreasing_grid_and_few_replicates(self):
        with pytest.raises(ValueError):
            rate_study("affine", n_grid=(100, 100), replicates=20)
        with pytest.raises(ValueError):
            rate_study("affine", n_grid=(50, 100), replicates=5)

    def test_smoke_slope_is_negative(self):
        result = rate_study("affine", n_grid=(50, 200, 800), replicates=20, seed=2)
        assert result.slope < 0.0
        assert result.skipped == 0
        assert len(result.records) == 60

    def test_flat_scenario_rate_exponent(self):
        # quadratic-bottom scenario on the default grid: pooled log-bias
        # slope sits near -2/5
        result = rate_study("vanishing", replicates=100, seed=20260808, r=2)
        assert result.slope == pytest.approx(-0.4, abs=0.08)

    def test_quartic_scaled_value_quantiles_are_tight(self):
        # the centered value error scaled by n^(4/9) keeps stable upper
        # quantiles across an n range spanning a factor of 16
        study = local_error_study(4, (1000, 4000, 16000), 60, seed=20260808)
        p95 = {
            n: float(np.quantile(n ** (4.0 / 9.0) * v, 0.95))
            for n, v in study.by_n("value_err").items()
        }
        assert max(p95.values()) < 2.0 * min(p95.values())


class TestInvelope:
    def test_determinism(self):
        a = simulate_invelope(2, 4.0, 400, seed=11)
        b = simulate_invelope(2, 4.0, 400, seed=11)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_invelope(3, 4.0, 400, 0)
        with pytest.raises(ValueError):
            simulate_invelope(2, -1.0, 400, 0)
        with pytest.raises(ValueError):
            simulate_invelope(2, 4.0, 100, 0)
        with pytest.raises(ValueError):
            simulate_affine_invelope(100, 0)

    def test_noiseless_drift_interpolates(self):
        # with the noise off the responses are a convex polynomial, so the
        # projection reproduces them and the value near zero vanishes
        c, m, r = 2.0, 400, 2
        delta = 2 * c / m
        t = -c + (np.arange(m) + 0.5) * delta
        responses = (r + 2) * (r + 1) * t**r
        ds = Dataset.from_arrays((t + c) / (2 * c), responses)
        fit, trace = fit_convex_lse(ds)
        idx = int(np.argmin(np.abs(t)))
        assert abs(fit.fitted[idx]) < 1e-3
        assert np.max(np.abs(fit.fitted - responses)) < 1e-3

    def test_noiseless_flat_case_is_identically_zero(self):
        m = 300
        t = (np.arange(m) + 0.5) / m
        ds = Dataset.from_arrays(t, np.zeros(m))
        fit, trace = fit_convex_lse(ds)
        assert np.max(np.abs(fit.fitted)) == 0.0
        assert trace.final_objective == 0.0

    @pytest.mark.parametrize("variant", ["drift", "affine"])
    def test_envelope_fields_match_double_cumulative_reference(self, variant):
        # rebuild the sample's grid and responses (noise stream keys 3 and 4
        # of the simulation module), then double-cumulate the fitted-minus-
        # response gap on the grid with step delta; on the grid rescaled to
        # [0, 1] this is the certificate process times 2c * delta
        seed, m = 3, 400
        if variant == "drift":
            r, c = 2, 4.0
            sample = simulate_invelope(r, c, m, seed)
            delta = 2 * c / m
            t = -c + (np.arange(m) + 0.5) * delta
            eta = rng_from_key(3, r, m, seed).standard_normal(m)
            responses = (r + 2) * (r + 1) * t**r + eta / np.sqrt(delta)
        else:
            sample = simulate_affine_invelope(m, seed)
            delta = 1.0 / m
            t = (np.arange(m) + 0.5) * delta
            responses = rng_from_key(4, m, seed).standard_normal(m) / np.sqrt(delta)
        lo, hi = sample.domain
        ds = Dataset.from_arrays((t - lo) / (hi - lo), responses)
        fit, trace = fit_convex_lse(ds)
        assert fit.kinks
        gap = delta * np.cumsum(delta * np.cumsum(fit.fitted - responses))
        scale = delta * m * (1.0 + np.max(np.abs(responses))) * 2.0 * sample.c
        reference = gap / scale
        cum_norm = trace.certificate.cum / certificate_scale(ds)
        # the whole process agrees, not just its extremes
        assert np.allclose(reference[:-1], cum_norm, rtol=1e-9, atol=1e-15)
        assert abs(reference[-1]) < 1e-15
        kink_idx = np.asarray(fit.kinks) - 1
        assert sample.min_envelope_gap == pytest.approx(reference.min(), abs=1e-15)
        assert sample.kink_envelope_gap == pytest.approx(
            np.max(np.abs(reference[kink_idx])), abs=1e-15)
        # and the fields are read off the fit's own certificate
        assert sample.min_envelope_gap == cum_norm.min()
        assert sample.kink_envelope_gap == np.max(np.abs(cum_norm[kink_idx]))

    def test_sample_envelope_fields_certify(self):
        for seed in range(5):
            s = simulate_invelope(2, 4.0, 500, seed)
            assert s.min_envelope_gap >= -1e-8
            assert s.kink_envelope_gap <= 1e-8
            sa = simulate_affine_invelope(500, seed)
            assert sa.min_envelope_gap >= -1e-8
            assert sa.kink_envelope_gap <= 1e-8

    def test_affine_sample_reports_query_point(self):
        s = simulate_affine_invelope(400, 2, query=0.25)
        assert abs(s.query_point - 0.25) < 1.0 / 400
        assert s.domain == (0.0, 1.0)
        assert s.r == 0

    def test_refinement_smoke(self):
        # matched seeds across a grid refinement: distributions stay close
        coarse = np.array([simulate_invelope(2, 4.0, 400, s).h2_at_0 for s in range(40)])
        fine = np.array([simulate_invelope(2, 4.0, 800, s).h2_at_0 for s in range(40)])
        pooled = np.hypot(coarse.std(ddof=1), fine.std(ddof=1)) / np.sqrt(40)
        assert abs(coarse.mean() - fine.mean()) < 4 * pooled


def test_thread_pool_matches_serial(monkeypatch):
    serial = rate_study("affine", n_grid=(50, 120), replicates=20, seed=5)
    monkeypatch.setenv("CONVEXREG_THREADS", "2")
    pooled = rate_study("affine", n_grid=(50, 120), replicates=20, seed=5)
    assert serial == pooled


@pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 9, 200])
def test_pooled_results_come_back_in_task_order(monkeypatch, count):
    # worker j of w runs tasks j, j + w, ...: counts below, at and above the
    # worker count, and shares of unequal length
    tasks = list(range(count))
    for threads in ("2", "3"):
        monkeypatch.setenv("CONVEXREG_THREADS", threads)
        assert _run_tasks(str, tasks) == [str(t) for t in tasks]
        _assert_no_child_left()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this (main) thread if the block runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _failing_at(bad, make=lambda t: t):
    def task(t):
        if t == bad:
            raise ValueError(f"task {t} failed")
        return make(t)
    return task


@pytest.mark.parametrize("bad", [0, 1, 5])
def test_a_worker_exception_is_raised_with_its_type_and_message(monkeypatch, bad):
    monkeypatch.setenv("CONVEXREG_THREADS", "3")
    with _deadline(30), pytest.raises(ValueError, match=f"^task {bad} failed$"):
        _run_tasks(_failing_at(bad), list(range(6)))
    _assert_no_child_left()


@pytest.mark.parametrize("bad", [0, 1], ids=["first_worker_fails", "second_worker_fails"])
def test_a_failure_beside_a_full_pipe_does_not_hang(monkeypatch, bad):
    # the worker that does not fail sends 200 KiB, far past a 64 KiB pipe
    # buffer: whichever worker the parent reads first, it must neither wait
    # on a blocked writer nor leave it running
    monkeypatch.setenv("CONVEXREG_THREADS", "2")
    task = _failing_at(bad, make=lambda t: bytes(100 * 1024))
    with _deadline(30), pytest.raises(ValueError, match=f"^task {bad} failed$"):
        _run_tasks(task, list(range(4)))
    _assert_no_child_left()


def test_an_unpicklable_worker_exception_arrives_as_its_repr(monkeypatch):
    class LocalError(Exception):  # a local class does not pickle
        pass

    def task(t):
        if t == 1:
            raise LocalError("boom")
        return t

    monkeypatch.setenv("CONVEXREG_THREADS", "2")
    with _deadline(30), pytest.raises(RuntimeError, match=r"^LocalError\('boom'\)$"):
        _run_tasks(task, list(range(4)))
    _assert_no_child_left()


class _TwoArgError(Exception):
    # pickles, but unpickling calls __init__ with the message alone
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def test_an_exception_that_cannot_be_unpickled_arrives_as_its_repr(monkeypatch):
    def task(t):
        if t == 1:
            raise _TwoArgError("boom", 7)
        return t

    monkeypatch.setenv("CONVEXREG_THREADS", "2")
    with _deadline(30), pytest.raises(RuntimeError, match=r"^_TwoArgError\('boom'\)$"):
        _run_tasks(task, list(range(4)))
    _assert_no_child_left()


@pytest.mark.parametrize(
    "leave, status",
    [(lambda: os._exit(5), "exit code 5"),
     (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {int(signal.SIGKILL)}")],
    ids=["exit", "killed"],
)
def test_a_worker_that_sends_nothing_names_its_wait_status(monkeypatch, leave, status):
    def task(t):
        if t == 1:
            leave()
        return t

    monkeypatch.setenv("CONVEXREG_THREADS", "2")
    with _deadline(30), pytest.raises(RuntimeError, match=f"worker 1 exited without a "
                                                          f"result .*{status}"):
        _run_tasks(task, list(range(4)))
    _assert_no_child_left()


ORPHAN_SCRIPT = """
import os, time
os.environ["CONVEXREG_THREADS"] = "2"
from convexreg.simulation import _run_tasks

def say_pid():
    os.write(1, b"%d\\n" % os.getpid())  # one write: the workers' lines never interleave

def task(t):
    say_pid()
    time.sleep(0.5)
    return bytes(100 * 1024)

say_pid()
_run_tasks(task, [0, 1])
"""


def _running(pid):
    # an exited orphan is gone, or a zombie until its new parent reaps it
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states")
def test_workers_exit_when_the_parent_is_killed():
    # each worker then holds 100 KiB for a parent that is gone: the write
    # must fail rather than block on a read end that a worker still holds
    env = dict(os.environ, PYTHONPATH=str(Path(convexreg.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN_SCRIPT], env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        parent = int(proc.stdout.readline())
        workers = [int(proc.stdout.readline()) for _ in range(2)]
        os.kill(parent, signal.SIGKILL)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.stdout.close()


def test_without_fork_the_tasks_run_in_this_process(monkeypatch):
    monkeypatch.setenv("CONVEXREG_THREADS", "2")
    monkeypatch.delattr(os, "fork")
    seen = []
    assert _run_tasks(lambda t: seen.append(t) or -t, [1, 2, 3]) == [-1, -2, -3]
    assert seen == [1, 2, 3]


def test_default_grid_shape():
    assert DEFAULT_RATE_GRID[0] == 500
    assert DEFAULT_RATE_GRID[-1] == 10000
    assert len(DEFAULT_RATE_GRID) == 10
    assert all(b > a for a, b in zip(DEFAULT_RATE_GRID, DEFAULT_RATE_GRID[1:]))


def _spy_tasks(monkeypatch):
    import convexreg.simulation as simulation

    seen = []

    def spy(fn, tasks):
        seen.extend(tasks)
        return _run_tasks(fn, tasks)

    monkeypatch.setattr(simulation, "_run_tasks", spy)
    return seen


@pytest.mark.parametrize(
    "run, sizes, replicates, params",
    [
        (lambda: rate_study("affine", n_grid=(20, 40), replicates=20, seed=3, r=2,
                            sigma=0.5, x0=0.3),
         (20, 40), 20, ("affine", 2, 0.5, 0.3)),
        (lambda: local_error_study(2, (20, 40), 3, seed=3, sigma=0.7),
         (20, 40), 3, (2, 0.7)),
        (lambda: boundary_inconsistency_study((20, 40), 3, seed=3, epsilon=0.1),
         (20, 40), 3, (0.1,)),
        (lambda: invelope_study("affine", 200, 3, seed=3, x0=0.25),
         (200,), 3, ("affine", 2, 4.0, 0.25)),
    ],
    ids=["rates", "argmin", "boundary", "invelope"],
)
def test_every_study_task_is_n_replicate_mixed_seed_then_params(
        monkeypatch, run, sizes, replicates, params):
    seen = _spy_tasks(monkeypatch)
    run()
    assert seen == [(n, rep, mix_seed(3, n, rep), *params)
                    for n in sizes for rep in range(replicates)]


def test_refine_repeats_the_m_seeds_on_the_doubled_grid(monkeypatch):
    seen = _spy_tasks(monkeypatch)
    samples = invelope_study("vanishing", 200, 3, seed=3, refine=True)
    coarse = [(200, rep, mix_seed(3, 200, rep), "vanishing", 2, 4.0, 0.5) for rep in range(3)]
    assert seen == coarse + [(400, *task[1:]) for task in coarse]
    assert [(rep, seed, s.m) for rep, seed, s in samples] == [
        (rep, seed, m) for m, rep, seed, *_ in seen]
