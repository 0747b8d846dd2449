"""Self-test of the benchmark at tiny sizes: python3 -m pytest bench/tests"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CLAIMS = json.loads((BENCH / "claims.json").read_text())
TINY = {
    "fit_csv_large": dataclasses.replace(WORKLOADS["fit_csv_large"], rows=2000, variants=2),
    "rates_pool": dataclasses.replace(WORKLOADS["rates_pool"], grid=(100, 200, 400)),
    "invelope_grid": dataclasses.replace(WORKLOADS["invelope_grid"], m=200, replicates=4),
    "noiseless_kinks": dataclasses.replace(WORKLOADS["noiseless_kinks"], rows=40),
}


def test_spec_names_the_workloads_and_metrics_the_code_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(CLAIMS["workloads"]) == set(WORKLOADS)
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for claim in CLAIMS["predictions"]:
        assert set(claim["metrics"]) <= declared, claim["claim"]
        assert claim["moves"] in declared | {"none"}, claim["claim"]
        assert set(claim["on"]) <= set(WORKLOADS), claim["claim"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = bench.run(TINY[name], seed=3, seconds=0.1, trace=trace, root=ROOT,
                       work=tmp_path / "work")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    # warm-up plus at least one measured command; with trace=1 the traced and
    # serial runs are checked byte for byte against the untraced warm-up
    assert result["attempted"] >= 2
    assert result["failed"] == 0 and result["correct"] is True
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in declared)


def test_corrupted_fitted_value_fails_the_check_and_counts(tmp_path, monkeypatch):
    workload = dataclasses.replace(TINY["fit_csv_large"], variants=1)
    launch = bench.launch

    def launch_then_corrupt(argv, cwd, env):
        launched = launch(argv, cwd, env)
        if argv[1:3] == ["-m", "convexreg.cli"]:
            fit = json.loads((cwd / "fit.json").read_text())
            fit["fitted"][len(fit["fitted"]) // 2] += 0.5
            (cwd / "fit.json").write_text(json.dumps(fit))
        return launched

    monkeypatch.setattr(bench, "launch", launch_then_corrupt)
    result = bench.run(workload, seed=3, seconds=0.1, trace=0, root=ROOT, work=tmp_path / "work")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1 + bench.MIN_COMMANDS

    problems = workload.check(tmp_path / "work", 0)
    assert "fitted values are not convex" in problems


def test_failing_traced_command_counts_even_with_earlier_artifacts(tmp_path, monkeypatch):
    # the untraced warm-up writes good artifacts; every traced command then
    # reads a missing input and exits 2, which must count as failed rather
    # than pass on the warm-up's bytes
    launch = bench.launch

    def launch_traced_on_missing_input(argv, cwd, env):
        if argv[1].endswith("traced.py"):
            argv = [a.replace("input-0.csv", "missing.csv") for a in argv]
        return launch(argv, cwd, env)

    monkeypatch.setattr(bench, "launch", launch_traced_on_missing_input)
    workload = dataclasses.replace(TINY["fit_csv_large"], variants=1)
    result = bench.run(workload, seed=3, seconds=0.1, trace=1, root=ROOT, work=tmp_path / "work")
    assert result["correct"] is False
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"] - 1


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit_csv_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
