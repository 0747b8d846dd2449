import inspect
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import convexreg
from convexreg import boundary_inconsistency_study, cli, simulate_invelope
from convexreg.cli import main
from convexreg.output import fmt
from convexreg.simulation import mix_seed

from helpers import largest_accepted_scale, near_duplicate_design, scaled_design

FIXTURES = Path(__file__).parent / "fixtures"


def write_xy(path, x, y):
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for a, b in zip(x, y):
            fh.write(f"{fmt(float(a))},{fmt(float(b))}\n")


def run_fit(tmp_path, x, y, name="case"):
    src = tmp_path / f"{name}.csv"
    out = tmp_path / f"{name}.json"
    write_xy(src, x, y)
    code = main(["fit", "--input", str(src), "--output", str(out)])
    return code, out


def test_fit_two_points_exact(tmp_path):
    code, out = run_fit(tmp_path, [0.2, 0.8], [1.0, 3.0])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["objective"] == pytest.approx(0.0, abs=1e-24)
    assert blob["fitted"] == pytest.approx([1.0, 3.0])
    assert blob["certificate"]["passed"] is True


def test_fit_noiseless_square_certifies(tmp_path):
    x = np.linspace(0.0, 1.0, 25)
    code, out = run_fit(tmp_path, x, x**2)
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["objective"] < 1e-12
    curve = out.with_name("case.curve.csv").read_text().splitlines()
    assert curve[0].startswith("# {")
    assert curve[1] == "grid_t,fitted_value,left_derivative"
    assert len(curve) == 2 + 512


def test_fit_matches_committed_oracle_fixture(tmp_path):
    out = tmp_path / "n12.json"
    code = main(["fit", "--input", str(FIXTURES / "fit_n12.csv"), "--output", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    expected = json.loads((FIXTURES / "fit_n12_expected.json").read_text())
    assert np.max(np.abs(np.array(blob["fitted"]) - expected["fitted"])) < 1e-6
    assert blob["objective"] == pytest.approx(expected["objective"], rel=1e-9)


def test_check_round_trip_and_perturbation(tmp_path):
    x = np.sort(np.random.default_rng(0).random(30))
    y = 2 * (x - 0.5) ** 2 + 0.5 * np.random.default_rng(1).standard_normal(30)
    code, out = run_fit(tmp_path, x, y)
    assert code == 0
    fitted = json.loads(out.read_text())["fitted"]

    def write_check(fitted_col, name):
        p = tmp_path / name
        with open(p, "w") as fh:
            fh.write("x,y,fitted\n")
            for a, b, f in zip(x, y, fitted_col):
                fh.write(f"{fmt(float(a))},{fmt(float(b))},{fmt(float(f))}\n")
        return p

    good = write_check(fitted, "good.csv")
    rep = tmp_path / "rep.json"
    assert main(["check", "--input", str(good), "--output", str(rep)]) == 0
    assert json.loads(rep.read_text())["passed"] is True

    bumped = list(fitted)
    bumped[10] += 0.05
    bad = write_check(bumped, "bad.csv")
    rep2 = tmp_path / "rep2.json"
    assert main(["check", "--input", str(bad), "--output", str(rep2)]) == 1
    blob = json.loads(rep2.read_text())
    assert blob["passed"] is False
    failing = [k for k, v in blob["conditions"].items() if not v["passed"]]
    assert failing  # at least one named condition pinpoints the defect


def test_check_accepts_fit_output_on_near_duplicate_design(tmp_path, capsys):
    x, y = near_duplicate_design(0)
    code, out = run_fit(tmp_path, x, y)
    assert code == 0
    blob = json.loads(out.read_text())
    order = np.argsort(x)
    assert blob["x"] == x[order].tolist() and blob["weights"] == [1.0] * x.size
    src = tmp_path / "xyf.csv"
    with open(src, "w") as fh:
        fh.write("x,y,fitted\n")
        for a, b, f in zip(x[order], y[order], blob["fitted"]):
            fh.write(f"{fmt(float(a))},{fmt(float(b))},{fmt(float(f))}\n")
    assert main(["check", "--input", str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_check_accepts_near_duplicate_fixture(capsys):
    # `convexreg fit` output on near_duplicate_design(15, n=5, copies=1)
    assert main(["check", "--input", str(FIXTURES / "check_near_duplicates.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_tol_flag_is_recorded(tmp_path):
    out = tmp_path / "n12.json"
    argv = ["fit", "--input", str(FIXTURES / "fit_n12.csv"), "--output", str(out),
            "--tol", "1e-6"]
    assert main(argv) == 0
    assert json.loads(out.read_text())["config"]["tol"] == 1e-6
    header = out.with_name("n12.curve.csv").read_text().splitlines()[0]
    assert json.loads(header.removeprefix("# "))["tol"] == 1e-6
    rep = tmp_path / "rep.json"
    argv = ["check", "--input", str(FIXTURES / "check_near_duplicates.csv"),
            "--output", str(rep), "--tol", "1e-6"]
    assert main(argv) == 0
    assert json.loads(rep.read_text())["config"]["tol"] == 1e-6


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["fit", "check"])
def test_nonpositive_tol_is_an_input_error(tmp_path, capsys, command, tol):
    src = FIXTURES / ("fit_n12.csv" if command == "fit" else "check_near_duplicates.csv")
    out = tmp_path / "out.json"
    assert main([command, "--input", str(src), "--output", str(out), "--tol", tol]) == 2
    assert "input error: kkt_tol must be strictly positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _write_rows(path, header, columns):
    path.write_text(header + "\n" + "".join(
        ",".join(fmt(float(v)) for v in row) + "\n" for row in zip(*columns)))


@pytest.mark.parametrize("case", ["fit", "check", "check_fitted"])
def test_data_beyond_the_scale_limit_exit_2_without_output(tmp_path, capsys, case):
    from convexreg.model import SCALE_LIMIT

    src = tmp_path / "in.csv"
    x, y = scaled_design(1e306 if case != "check_fitted" else 1.0)
    if case == "fit":
        _write_rows(src, "x,y", (x, y))
    else:
        _write_rows(src, "x,y,fitted", (x, y, 1e160 * y if case == "check_fitted" else y))
    out = tmp_path / "out.json"
    assert main([case.split("_")[0], "--input", str(src), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and f"must not exceed {SCALE_LIMIT:g}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


def test_fit_at_the_largest_accepted_scale(tmp_path):
    code, out = run_fit(tmp_path, *scaled_design(largest_accepted_scale()))
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["certificate"]["passed"] is True
    assert blob["kinks"] == [1, 163] and np.isfinite(blob["objective"])


def test_solver_failure_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    import convexreg.cli as cli_mod
    from convexreg.solver import SolverError

    def boom(dataset, kkt_tol):
        raise SolverError("forced failure")

    monkeypatch.setattr(cli_mod, "fit_convex_lse", boom)
    src = tmp_path / "in.csv"
    src.write_text("x,y\n0.1,1.0\n0.5,0.0\n0.9,1.0\n")
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(src), "--output", str(out)]) == 3
    assert (tmp_path / "fit.trace.json").exists()
    assert "trace" in capsys.readouterr().err


def test_malformed_csv_reports_line(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("x,y\n0.1,1.0\n0.4,oops\n")
    code = main(["fit", "--input", str(src), "--output", str(tmp_path / "o.json")])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def _random_rows_text(columns):
    rng = np.random.default_rng(5)
    rows = rng.random((300, len(columns)))
    rows[::7, 1] = rng.normal(scale=1e-200, size=rows[::7, 1].size)
    lines = [",".join(fmt(float(v)) for v in row) for row in rows[:150]]
    lines += [",".join(repr(float(v)) for v in row) for row in rows[150:]]
    return ",".join(columns) + "\n" + "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "columns, body",
    [
        (("x", "y"), _random_rows_text(("x", "y"))),
        (("x", "y"), "x,y\n0.1,1.0\n\n0.4,2.5\n"),
        (("x", "y"), "x,y\n0.1,1.0\n   \n0.4,2.5\n"),
        (("x", "y"), " x , y \n 0.1 , 1.0\n0.4 ,\t2.5 \n"),
        (("x", "y"), "x,y\r\n0.1,1.0\r\n0.4,2.5\r\n"),
        (("x", "y"), 'x,y\n"0.1","1.0"\n0.4,2.5\n'),
        (("x", "y"), "x,y\n0.1,1_0\n0.4,2.5\n"),
        (("x", "y"), "x,y\n0.3,-7e-310"),
        (("x", "y", "fitted"), "x,y,fitted\n0.1,1.0,0.9\n0.4,2.5,2.4\n0.8,-1,0.5\n"),
        (("x", "y", "fitted"), _random_rows_text(("x", "y", "fitted"))),
    ],
    ids=["random", "blank", "whitespace", "spaces", "crlf", "quoted", "underscore",
         "single_row", "three_columns", "random_three_columns"],
)
def test_csv_reader_matches_line_parser(tmp_path, monkeypatch, columns, body):
    src = tmp_path / "in.csv"
    src.write_bytes(body.encode())
    got = cli._read_csv_columns(str(src), columns)

    def no_fast_path(*args, **kwargs):
        raise ValueError("fast path disabled")

    monkeypatch.setattr(cli.np, "loadtxt", no_fast_path)
    expected = cli._read_csv_columns(str(src), columns)
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("suffix", [".csv.gz", ".csv.bz2", ".csv.xz", ".csv.lzma"])
def test_plain_csv_with_a_compression_suffix_is_read_as_text(tmp_path, suffix):
    # numpy picks a decompressor by suffix when it opens a path itself
    body = _random_rows_text(("x", "y")).encode()
    (tmp_path / "in.csv").write_bytes(body)
    (tmp_path / f"in{suffix}").write_bytes(body)
    expected = cli._read_csv_columns(str(tmp_path / "in.csv"), ("x", "y"))
    got = cli._read_csv_columns(str(tmp_path / f"in{suffix}"), ("x", "y"))
    assert got.tobytes() == expected.tobytes()


def _read_through_fifo(fifo, body):
    """``_read_csv_columns`` on a named pipe fed ``body``: the array, or the
    input error it raised."""
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(body)

    result = {}

    def read():  # in a thread: a reopen of the drained pipe would block forever
        try:
            result["data"] = cli._read_csv_columns(str(fifo), ("x", "y"))
        except cli.InputError as exc:
            result["error"] = exc

    threads = [threading.Thread(target=f, daemon=True) for f in (feed, read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    return result.get("data", result.get("error"))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_csv_from_a_pipe_keeps_every_row(tmp_path):
    # a pipe cannot be reopened by path: the rows after the header would be
    # read past the handle's buffer, or not at all
    body = _random_rows_text(("x", "y")).encode()
    (tmp_path / "in.csv").write_bytes(body)
    data = _read_through_fifo(tmp_path / "in.fifo", body)
    expected = cli._read_csv_columns(str(tmp_path / "in.csv"), ("x", "y"))
    assert data.shape == (300, 2)
    assert data.tobytes() == expected.tobytes()
    # nor can it be rewound: a malformed body reaches the line parser, which
    # names the bad line
    fifo = tmp_path / "bad.fifo"
    error = _read_through_fifo(fifo, b"x,y\n0.1,1\n0.2,oops\n")
    assert str(error) == f"{fifo}: line 3: could not convert string to float: 'oops'"


@pytest.mark.parametrize(
    "body, message",
    [
        ("x,y\n0.1,1.0\n0.4,oops\n", "line 3: could not convert string to float: 'oops'"),
        ("x,y\n0.1,1.0\n0.4,1.0,2.0\n", "line 3: expected 2 fields"),
        ("x,y\n0.1,1.0,0.0\n0.4,1.0,2.0\n", "line 2: expected 2 fields"),
        ("x,y\n0.1,1.0\n\n0.4,\n", "line 4: could not convert string to float: ''"),
        ("x,y\n0.1,1.0\n0.4,inf\n", "line 3: non-finite value"),
        ("x,y\n0.1,nan\n0.4,1\n", "line 2: non-finite value"),
        ("x,y\n0.1,1.0\n0.4,1e400\n", "line 3: non-finite value"),
        ("x,y\n\n  \n", "no data rows"),
        ("x,y", "no data rows"),
        # the csv module refuses fields over 131072 characters
        ("x,y\n" + "a" * 140000 + ",1\n", "line 2: field larger than field limit (131072)"),
        ("x," + "y" * 140000 + "\n0.1,1\n", "line 1: field larger than field limit (131072)"),
    ],
    ids=["text", "field_count", "three_fields", "empty_field", "inf", "nan", "overflow",
         "empty_body", "header_only", "oversized_field", "oversized_header"],
)
def test_malformed_csv_messages(tmp_path, capsys, body, message):
    src = tmp_path / "bad.csv"
    src.write_bytes(body.encode())
    code = main(["fit", "--input", str(src), "--output", str(tmp_path / "o.json")])
    assert code == 2
    assert capsys.readouterr().err == f"input error: {src}: {message}\n"
    assert not (tmp_path / "o.json").exists()


def test_missing_header_rejected(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("a,b\n0.1,1.0\n")
    assert main(["fit", "--input", str(src), "--output", str(tmp_path / "o.json")]) == 2


def test_degenerate_design_rejected(tmp_path):
    src = tmp_path / "dup.csv"
    src.write_text("x,y\n0.5,1.0\n0.5,3.0\n")
    assert main(["fit", "--input", str(src), "--output", str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--scenario", "affine", "--n-grid", "50,120", "--replicates", "20",
         "--seed", "9"],
        ["invelope", "--m", "250", "--replicates", "3", "--seed", "4"],
        ["invelope", "--scenario", "affine", "--m", "250", "--replicates", "3",
         "--seed", "4", "--x0", "0.25"],
        ["argmin", "--n-grid", "80,160", "--replicates", "4", "--seed", "2"],
        ["boundary", "--n-grid", "100,200", "--replicates", "5", "--seed", "3"],
        ["invelope", "--refine", "--m", "250", "--replicates", "3", "--seed", "4"],
    ],
)
def test_study_commands_rerun_byte_identical(tmp_path, argv):
    out = tmp_path / "artifact"
    args = argv + ["--output", str(out)]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(args) == 0
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second
    assert any(name.endswith(".csv") for name in first)
    assert any(name.endswith(".json") for name in first)


@pytest.mark.parametrize(
    "argv",
    [
        ["invelope", "--m", "250", "--replicates", "5", "--seed", "4"],
        ["invelope", "--scenario", "affine", "--m", "250", "--replicates", "5",
         "--seed", "4", "--x0", "0.25"],
        ["boundary", "--n-grid", "100,200", "--replicates", "6", "--seed", "3"],
        ["rates", "--scenario", "affine", "--n-grid", "50,120", "--replicates", "20",
         "--seed", "9", "--sigma", "0.5", "--x0", "0.3"],
        ["argmin", "--n-grid", "80,160", "--replicates", "4", "--seed", "2", "--sigma", "0.7"],
    ],
    ids=["invelope_drift", "invelope_affine", "boundary", "rates", "argmin"],
)
def test_study_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, argv):
    artifacts = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("CONVEXREG_THREADS", threads)
        work = tmp_path / threads
        work.mkdir()
        monkeypatch.chdir(work)  # same relative --output, so the embedded configs agree
        assert main(argv + ["--output", "artifact"]) == 0
        artifacts[threads] = {p.name: p.read_bytes() for p in work.iterdir()}
    assert sorted(artifacts["1"]) == ["artifact.csv", "artifact.json"]
    assert artifacts["1"] == artifacts["2"] == artifacts["3"]


def test_a_pooled_replicate_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    # the workers are forked, so they run the patched solver
    import convexreg.simulation as simulation
    from convexreg.solver import SolverError

    def fail(dataset):
        raise SolverError(f"no convergence at n = {dataset.n}")

    monkeypatch.setattr(simulation, "fit_convex_lse", fail)
    monkeypatch.setenv("CONVEXREG_THREADS", "2")
    argv = ["rates", "--scenario", "affine", "--n-grid", "50,120", "--replicates", "20",
            "--output", str(tmp_path / "artifact")]
    assert main(argv) == 3
    assert "solver failure: no convergence at n = 50" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _csv_records(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    return lines[2:], [dict(zip(header, line.split(","))) for line in lines[2:]]


def test_invelope_refine_adds_the_doubled_grid(tmp_path):
    flags = ["--m", "250", "--replicates", "6", "--seed", "8"]
    assert main(["invelope", *flags, "--output", str(tmp_path / "plain")]) == 0
    assert main(["invelope", "--refine", *flags, "--output", str(tmp_path / "refined")]) == 0
    plain_lines, _ = _csv_records(tmp_path / "plain.csv")
    lines, rows = _csv_records(tmp_path / "refined.csv")
    assert lines[:6] == plain_lines
    assert [int(r["m"]) for r in rows] == [250] * 6 + [500] * 6
    for k, (row, fine) in enumerate(zip(rows[:6], rows[6:])):
        assert int(row["replicate"]) == int(fine["replicate"]) == k
        assert int(row["seed"]) == int(fine["seed"]) == mix_seed(8, 250, k)
    assert float(rows[-1]["h2"]) == simulate_invelope(2, 4.0, 500, mix_seed(8, 250, 5)).h2_at_0

    plain = json.loads((tmp_path / "plain.json").read_text())
    refined = json.loads((tmp_path / "refined.json").read_text())
    assert "refine" not in plain["config"] and refined["config"]["refine"] is True
    refinement = refined.pop("refinement")
    for blob in (plain, refined):
        blob.pop("config")
    assert refined == plain

    coarse = np.array([float(r["h2"]) for r in rows[:6]])
    fine = np.array([float(r["h2"]) for r in rows[6:]])

    def sevar(v):
        return np.sqrt(max(np.mean((v - v.mean()) ** 4) - v.var(ddof=1) ** 2, 0.0) / v.size)

    expected = {
        "mean_diff": abs(coarse.mean() - fine.mean()),
        "mean_budget": 3 * np.hypot(coarse.std(ddof=1), fine.std(ddof=1)) / np.sqrt(6),
        "var_diff": abs(coarse.var(ddof=1) - fine.var(ddof=1)),
        "var_budget": 3 * np.hypot(sevar(coarse), sevar(fine)),
    }
    assert set(refinement) == set(expected) | {"consistent"}
    for key, value in expected.items():
        assert refinement[key] == pytest.approx(value, rel=1e-12), key
    assert refinement["consistent"] is bool(
        expected["mean_diff"] <= expected["mean_budget"]
        and expected["var_diff"] <= expected["var_budget"])


def test_boundary_command_matches_study(tmp_path, capsys):
    out = tmp_path / "b"
    assert main(["boundary", "--n-grid", "100,200", "--replicates", "8", "--seed", "5",
                 "--epsilon", "0.1", "--output", str(out)]) == 0
    study = boundary_inconsistency_study((100, 200), 8, seed=5, epsilon=0.1)
    _, rows = _csv_records(tmp_path / "b.csv")
    assert [(int(r["n"]), int(r["count"]), int(r["replicates"]), float(r["frequency"]))
            for r in rows] == [(n, study.counts[n], 8, study.frequencies[n]) for n in (100, 200)]
    summary = json.loads((tmp_path / "b.json").read_text())
    assert summary["config"]["seed"] == 5 and summary["config"]["epsilon"] == 0.1
    assert summary["counts"] == {str(n): c for n, c in study.counts.items()}
    printed = capsys.readouterr().out.splitlines()
    assert printed[1] == f"n=   100: overshoot frequency {study.frequencies[100]:.3f} " \
                         f"({study.counts[100]}/8)"


@pytest.mark.parametrize(
    "argv",
    [
        ["invelope", "--m", "250", "--replicates", "0"],
        ["invelope", "--m", "250", "--replicates", "-3"],
        ["invelope", "--refine", "--m", "250", "--replicates", "1"],
        ["argmin", "--n-grid", "80,160", "--replicates", "0"],
        ["boundary", "--n-grid", "100,200", "--replicates", "0"],
        ["rates", "--scenario", "affine", "--n-grid", "50,120", "--replicates", "0"],
        ["rates", "--scenario", "affine", "--n-grid", "100,100", "--replicates", "20"],
        ["argmin", "--n-grid", "100,100", "--replicates", "2"],
        ["boundary", "--n-grid", "200,100", "--replicates", "2"],
    ],
    ids=["invelope_zero", "invelope_negative", "refine_one", "argmin_zero", "boundary_zero",
         "rates_zero", "rates_duplicate_n", "argmin_duplicate_n", "boundary_decreasing_n"],
)
def test_bad_study_flags_exit_2_before_writing(tmp_path, capsys, argv):
    assert main(argv + ["--output", str(tmp_path / "artifact")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["rates", "--scenario", "affine", "--x0", "nan"], "--x0"),
        (["rates", "--scenario", "affine", "--sigma", "inf"], "--sigma"),
        (["argmin", "--sigma", "nan"], "--sigma"),
        (["boundary", "--epsilon", "nan"], "--epsilon"),
        (["invelope", "--c", "inf"], "--c"),
        (["invelope", "--scenario", "affine", "--x0=-inf"], "--x0"),
    ],
    ids=["rates_x0", "rates_sigma", "argmin_sigma", "boundary_epsilon", "invelope_c",
         "invelope_x0"],
)
def test_non_finite_study_flags_exit_2_at_parse_time(tmp_path, capsys, monkeypatch, argv, flag):
    import convexreg.simulation as simulation

    def never(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(simulation, "_run_tasks", never)
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--output", str(tmp_path / "artifact")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be finite" in err
    assert list(tmp_path.iterdir()) == []


def test_study_parameters_are_the_command_flags():
    # one name list per study: the study runs on exactly its command's flags
    # (--output aside), and the command records them as the artifact config
    import convexreg.simulation as simulation

    studies = {"rates": simulation.rate_study, "argmin": simulation.local_error_study,
               "boundary": simulation.boundary_inconsistency_study,
               "invelope": simulation.invelope_study}
    subparsers = next(action.choices for action in cli.build_parser()._actions
                      if action.dest == "command")
    assert set(studies) < set(subparsers)
    for command, study in studies.items():
        dests = {action.dest for action in subparsers[command]._actions} - {"help", "output"}
        assert set(inspect.signature(study).parameters) == dests, command


def test_study_flag_defaults_are_the_study_defaults(tmp_path, monkeypatch):
    # every default is written twice, in the parser and in the study's
    # signature; the two must agree wherever the study has one
    import convexreg.simulation as simulation

    studies = {"rates": simulation.rate_study, "argmin": simulation.local_error_study,
               "boundary": simulation.boundary_inconsistency_study,
               "invelope": simulation.invelope_study}
    required = {"rates": ["--scenario", "affine"]}
    parser = cli.build_parser()
    compared = 0
    for command, study in studies.items():
        args = vars(parser.parse_args([command, *required.get(command, []), "--output", "o"]))
        for name, param in inspect.signature(study).parameters.items():
            if param.default is inspect.Parameter.empty:
                continue
            compared += 1
            if (command, name) == ("rates", "n_grid"):
                assert args[name] is None  # resolved by the command, checked below
                continue
            assert args[name] == param.default and type(args[name]) is type(param.default), \
                (command, name)
    assert compared == 15

    ran_with = {}

    def record(**params):
        ran_with.update(params)
        return simulation.RateStudyResult(records=(), slope=0.0, slope_stderr=0.0, skipped=0)

    monkeypatch.setattr(simulation, "rate_study", record)
    assert main(["rates", "--scenario", "affine", "--output", str(tmp_path / "r")]) == 0
    assert ran_with["n_grid"] == simulation.DEFAULT_RATE_GRID
    assert (inspect.signature(studies["rates"]).parameters["n_grid"].default
            == simulation.DEFAULT_RATE_GRID)


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["--scenario", "affine", "--x0", "0.25"], [["--c", "3"], ["--c", "4"], ["--r", "4"]]),
        (["--refine"], [["--x0", "0.25"], ["--x0", "0.5"]]),
    ],
    ids=["affine_ignores_r_c", "drift_ignores_x0"],
)
def test_invelope_records_only_the_flags_its_variant_reads(tmp_path, monkeypatch, argv, unread):
    artifacts = []
    for k, extra in enumerate(unread):
        work = tmp_path / str(k)
        work.mkdir()
        monkeypatch.chdir(work)  # same relative --output, so the configs can agree
        assert main(["invelope", *argv, *extra, "--m", "200", "--replicates", "3",
                     "--seed", "4", "--output", "artifact"]) == 0
        artifacts.append({p.name: p.read_bytes() for p in work.iterdir()})
    assert sorted(artifacts[0]) == ["artifact.csv", "artifact.json"]
    assert all(a == artifacts[0] for a in artifacts)
    config = json.loads(artifacts[0]["artifact.json"])["config"]
    assert not {flag[0][2:] for flag in unread} & set(config)


def test_invelope_refinement_stability(tmp_path):
    # doubling the grid leaves the summary stable within the reported
    # Monte Carlo error
    summaries = {}
    for m in (250, 500):
        out = tmp_path / f"inv{m}"
        assert main(["invelope", "--m", str(m), "--replicates", "40",
                     "--seed", "6", "--output", str(out)]) == 0
        summaries[m] = json.loads((tmp_path / f"inv{m}.json").read_text())
    diff = abs(summaries[250]["h2_mean"] - summaries[500]["h2_mean"])
    budget = 3.0 * float(np.hypot(summaries[250]["h2_mean_stderr"],
                                  summaries[500]["h2_mean_stderr"]))
    assert diff <= budget


def test_fit_rerun_byte_identical(tmp_path):
    x = np.linspace(0.0, 1.0, 15)
    y = (x - 0.4) ** 2
    src = tmp_path / "in.csv"
    write_xy(src, x, y)
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(src), "--output", str(out)]) == 0
    first = (out.read_bytes(), out.with_name("fit.curve.csv").read_bytes())
    assert main(["fit", "--input", str(src), "--output", str(out)]) == 0
    assert (out.read_bytes(), out.with_name("fit.curve.csv").read_bytes()) == first


def test_outputs_embed_resolved_config(tmp_path):
    out = tmp_path / "study"
    assert main(["rates", "--scenario", "affine", "--n-grid", "50,120",
                 "--replicates", "20", "--seed", "3", "--output", str(out)]) == 0
    summary = json.loads((tmp_path / "study.json").read_text())
    cfg = summary["config"]
    assert cfg["seed"] == 3 and cfg["replicates"] == 20
    assert cfg["sigma"] == 1 and cfg["x0"] == 0.5  # defaults resolved
    header = (tmp_path / "study.csv").read_text().splitlines()[0]
    assert header.startswith("# {") and '"seed":3' in header


LEAN_FIT_SCRIPT = """
import json, sys
import numpy
before = set(sys.modules)
import convexreg.cli
rc = convexreg.cli.main(["fit", "--input", sys.argv[1], "--output", sys.argv[2]])
print(json.dumps({"rc": rc, "loaded": sorted(set(sys.modules) - before)}))
"""


def test_fit_command_loads_only_the_fit_path(tmp_path):
    # measured against what `import numpy` alone loads, since numpy < 2
    # imports numpy.random itself
    env = dict(os.environ, PYTHONPATH=str(Path(convexreg.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", LEAN_FIT_SCRIPT, str(FIXTURES / "fit_n12.csv"),
         str(tmp_path / "n12.json")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(out.stdout)
    assert report["rc"] == 0
    assert "convexreg.solver" in report["loaded"]
    for module in ("numpy.random", "convexreg.simulation", "convexreg.inference"):
        assert module not in report["loaded"]


POOLED_STUDY_SCRIPT = """
import json, os, sys
import convexreg.cli
rc = convexreg.cli.main(["rates", "--scenario", "affine", "--n-grid", "50,120",
                         "--replicates", "20", "--output", sys.argv[1]])
try:
    left = os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    left = None
executors = sorted({"concurrent.futures", "multiprocessing"} & set(sys.modules))
print(json.dumps({"rc": rc, "executors": executors, "left": left}))
"""


def test_pooled_study_loads_no_executor_and_leaves_no_child(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(convexreg.__file__).parents[1]),
               CONVEXREG_THREADS="2")
    out = subprocess.run(
        [sys.executable, "-c", POOLED_STUDY_SCRIPT, str(tmp_path / "rates")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report == {"rc": 0, "executors": [], "left": None}


def test_every_public_name_resolves():
    import convexreg.simulation

    assert convexreg.rate_study is convexreg.simulation.rate_study
    namespace = {}
    exec("from convexreg import *", namespace)
    for name in convexreg.__all__:
        assert namespace[name] is getattr(convexreg, name)
    assert set(convexreg.__all__) <= set(dir(convexreg))
    with pytest.raises(AttributeError, match="no_such_name"):
        convexreg.no_such_name


def test_rates_default_grid_is_the_study_default(tmp_path, monkeypatch, capsys):
    import convexreg.simulation as simulation

    seen = {}

    def stop(scenario, n_grid, **kwargs):
        seen["n_grid"] = n_grid
        raise ValueError("stopped before the study")

    monkeypatch.setattr(simulation, "rate_study", stop)
    assert main(["rates", "--scenario", "affine", "--output", str(tmp_path / "r")]) == 2
    assert seen["n_grid"] == simulation.DEFAULT_RATE_GRID
    assert "stopped before the study" in capsys.readouterr().err
