import argparse
import ast
import inspect
import json
import os
import re
import signal
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import convexreg
from convexreg import cli, simulate_invelope
from convexreg.cli import main
from convexreg.output import fmt
from convexreg.simulation import mix_seed

from corpus import near_noiseless_dataset, replay
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


def test_check_reads_rows_in_any_order(tmp_path, capsys):
    # fit sorts its rows; check sorts them too, so a fit column saved in
    # data order is judged as the sorted file is
    header, *rows = (FIXTURES / "check_near_duplicates.csv").read_text().splitlines()
    src = tmp_path / "in.csv"
    reports = []
    for order in (rows, [rows[i] for i in (3, 0, 5, 2, 4, 1)]):
        src.write_text("\n".join([header, *order]) + "\n")
        assert main(["check", "--input", str(src)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[1] == reports[0]
    # a duplicate x is still refused, wherever it stands
    src.write_text("\n".join([header, *rows, rows[2]]) + "\n")
    assert main(["check", "--input", str(src)]) == 2
    assert capsys.readouterr().err == (f"input error: {src}: design points must be strictly "
                                       "increasing (merge duplicates first)\n")


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


def test_certificate_failure_writes_the_step_trace(tmp_path, capsys):
    # no fit certifies at --tol 1e-300: the solver's own trace goes to
    # <base>.trace.json and no fit artifact is written
    src = FIXTURES / "fit_n12.csv"
    assert main(["fit", "--input", str(src), "--output", str(tmp_path / "n12.json"),
                 "--tol", "1e-300"]) == 3
    assert "certificate failed" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["n12.trace.json"]
    blob = json.loads((tmp_path / "n12.trace.json").read_text())
    assert sorted(blob) == ["config", "error", "final_objective", "iterations", "steps"]
    assert blob["error"].startswith("certificate failed")
    assert blob["iterations"] == 2
    assert sum(step["solves"] for step in blob["steps"]) == blob["iterations"]
    assert replay(SimpleNamespace(**step) for step in blob["steps"]) == [[], [9]]
    assert main(["fit", "--input", str(src), "--output", str(tmp_path / "ok.json")]) == 0
    assert json.loads((tmp_path / "ok.json").read_text())["kinks"] == [9]


def test_stalled_certificate_failure_records_every_solve(tmp_path, capsys):
    # this near-noiseless fit ends on a step that enters and drops nothing,
    # which returns the set the loop holds; its trace records that step as
    # "cycle", so the step solves add up
    ds = near_noiseless_dataset(0, 2000, 1e-8)
    src = tmp_path / "stall.csv"
    write_xy(src, ds.x, ds.y)
    assert main(["fit", "--input", str(src), "--output", str(tmp_path / "stall.json"),
                 "--tol", "1e-300"]) == 3
    assert "certificate failed" in capsys.readouterr().err
    blob = json.loads((tmp_path / "stall.trace.json").read_text())
    assert blob["iterations"] == 44
    assert sum(step["solves"] for step in blob["steps"]) == blob["iterations"]
    last = blob["steps"][-1]
    assert (last["entered"], last["dropped"], last["path"]) == ([], [], "cycle")


def test_the_fit_module_exits_2_on_a_bad_tol_and_3_on_an_uncertified_fit(tmp_path):
    # the in-process tests above call main(); this launch checks that the
    # module hands its return code to the shell
    env = dict(os.environ, PYTHONPATH=str(Path(convexreg.__file__).parents[1]))
    for tol, code in (("0", 2), ("1e-300", 3)):
        done = subprocess.run(
            [sys.executable, "-m", "convexreg.cli", "fit", "--input",
             str(FIXTURES / "fit_n12.csv"), "--output", str(tmp_path / "n12.json"),
             "--tol", tol],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr
        assert not (tmp_path / "n12.json").exists()


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
        (("x", "y"), "\ufeffx,y\n0.1,1.0\n0.4,2.5\n"),
        (("x", "y", "fitted"), "x,y,fitted\n0.1,1.0,0.9\n0.4,2.5,2.4\n0.8,-1,0.5\n"),
        (("x", "y", "fitted"), _random_rows_text(("x", "y", "fitted"))),
    ],
    ids=["random", "blank", "whitespace", "spaces", "crlf", "quoted", "underscore",
         "single_row", "byte_order_mark", "three_columns", "random_three_columns"],
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
        ("x,y\n0.3,1.0\n", "need at least 2 distinct design points"),
    ],
    ids=["text", "field_count", "three_fields", "empty_field", "inf", "nan", "overflow",
         "empty_body", "header_only", "oversized_field", "oversized_header", "one_row"],
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


@pytest.mark.parametrize("via", ["path", "stdin"])
def test_a_byte_order_mark_before_the_header_is_dropped(tmp_path, via):
    # a BOM-prefixed copy gives the plain file's fit and check report; a pipe
    # is read whole and never reaches numpy by path, so it is its own case
    env = dict(os.environ, PYTHONPATH=str(Path(convexreg.__file__).parents[1]))

    def run(command, name):
        src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        argv = [sys.executable, "-m", "convexreg.cli", command,
                "--input", "/dev/stdin" if via == "stdin" else str(src)]
        if command == "fit":
            argv += ["--output", str(out)]
        with open(src, "rb") as fh:
            done = subprocess.run(argv, stdin=fh, env=env, capture_output=True, text=True,
                                  timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        return json.loads(out.read_text() if command == "fit" else done.stdout)

    for command, fixture in (("fit", "fit_n12.csv"), ("check", "check_near_duplicates.csv")):
        body = (FIXTURES / fixture).read_bytes()
        (tmp_path / "plain.csv").write_bytes(body)
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + body)
        plain, bom = run(command, "plain"), run(command, "bom")
        if command == "fit":
            for key in ("x", "fitted", "kinks"):
                assert bom[key] == plain[key], key
        for blob in (plain, bom):
            del blob["config"]  # names the input and output paths
        assert bom == plain


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--input", str(FIXTURES / "fit_n12.csv")],
        ["check", "--input", str(FIXTURES / "check_near_duplicates.csv")],
        ["boundary", "--n-grid", "100,200", "--replicates", "5"],
    ],
    ids=["fit", "check", "boundary"],
)
def test_an_unwritable_output_exits_2(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    assert main(argv + ["--output", str(missing / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {missing}{os.sep}out.") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--scenario", "affine", "--n-grid", "50,120", "--replicates", "20"],
        ["argmin", "--n-grid", "80,160", "--replicates", "2"],
        ["boundary", "--n-grid", "100,200", "--replicates", "2"],
        ["invelope", "--m", "200", "--replicates", "2"],
        ["fit", "--input", str(FIXTURES / "fit_n12.csv")],
        ["check", "--input", str(FIXTURES / "check_near_duplicates.csv")],
    ],
    ids=["rates", "argmin", "boundary", "invelope", "fit", "check"],
)
def test_a_missing_output_directory_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                            argv):
    import convexreg.simulation as simulation

    def never(*args, **kwargs):
        raise AssertionError("input read or fit run")

    monkeypatch.setattr(simulation, "fit_convex_lse", never)
    monkeypatch.setattr(cli, "fit_convex_lse", never)
    monkeypatch.setattr(cli, "_read_csv_columns", never)
    missing = tmp_path / "missing"
    assert main(argv + ["--output", str(missing / "base")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert str(missing) in err
    assert list(tmp_path.iterdir()) == []


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
        ["invelope", "--refine", "--m", "250", "--replicates", "5", "--seed", "4"],
    ],
    ids=["invelope_drift", "invelope_affine", "boundary", "rates", "argmin", "invelope_refine"],
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


# the study commands whose sha256 digests tests/fixtures/study_digests.json
# records, as `_study_digests` computes them
DIGEST_COMMANDS = {
    "rates_vanishing": ["rates", "--scenario", "vanishing", "--n-grid", "100,200",
                        "--replicates", "20", "--seed", "5"],
    "rates_affine_x0": ["rates", "--scenario", "affine", "--n-grid", "100,200",
                        "--replicates", "20", "--seed", "5", "--x0", "0.3"],
    "invelope": ["invelope", "--m", "300", "--replicates", "6", "--seed", "5"],
    "invelope_refine": ["invelope", "--m", "300", "--replicates", "6", "--seed", "5",
                        "--refine"],
    "invelope_affine_refine": ["invelope", "--scenario", "affine", "--m", "300",
                               "--replicates", "6", "--seed", "5", "--refine"],
    "argmin": ["argmin", "--n-grid", "200,400", "--replicates", "6", "--seed", "5"],
    "boundary": ["boundary", "--n-grid", "200,400", "--replicates", "6", "--seed", "5"],
}


def _study_digests(argv, capsys):
    """sha256 of the ``.csv``, the ``.json`` and the stdout of one study
    command run through ``main`` with the relative ``--output artifact``, so
    the embedded config is the same in any working directory."""
    import hashlib

    capsys.readouterr()
    assert main(argv + ["--output", "artifact"]) == 0
    stdout = capsys.readouterr().out.encode()
    return {"csv": hashlib.sha256(Path("artifact.csv").read_bytes()).hexdigest(),
            "json": hashlib.sha256(Path("artifact.json").read_bytes()).hexdigest(),
            "stdout": hashlib.sha256(stdout).hexdigest()}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(DIGEST_COMMANDS))
def test_study_bytes_match_the_recorded_digests(tmp_path, monkeypatch, capsys, name, threads):
    # every artifact and stdout byte of each study command, pinned against
    # digests recorded before the study results were refactored
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CONVEXREG_THREADS", threads)
    recorded = json.loads((FIXTURES / "study_digests.json").read_text())
    assert sorted(recorded) == sorted(DIGEST_COMMANDS)
    assert _study_digests(DIGEST_COMMANDS[name], capsys) == recorded[name]


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


def test_a_killed_replicate_worker_exits_3(tmp_path, monkeypatch, capsys):
    import convexreg.simulation as simulation

    def die(dataset):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(simulation, "fit_convex_lse", die)
    monkeypatch.setenv("CONVEXREG_THREADS", "2")
    argv = ["rates", "--scenario", "affine", "--n-grid", "50,120", "--replicates", "20",
            "--output", str(tmp_path / "artifact")]
    assert main(argv) == 3
    kill = int(signal.SIGKILL)
    assert capsys.readouterr().err.splitlines() == [
        f"worker failure: replicate worker 0 exited without a result "
        f"(wait status {kill}: signal {kill})"]
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Unpicklable(ArithmeticError):
    # pickle rebuilds an exception from its args, which this __init__ refuses
    def __init__(self, n):
        super().__init__(f"unpicklable at n = {n}", n)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("error, name", [
    (lambda n: FloatingPointError(f"overflow at n = {n}"), "FloatingPointError"),
    (lambda n: MemoryError(), "MemoryError"),
    (_Unpicklable, "_Unpicklable"),
], ids=["floating_point", "memory", "unpicklable"])
def test_a_replicate_exception_exits_3_naming_its_type(tmp_path, monkeypatch, capsys,
                                                       threads, error, name):
    # a pooled worker sends an exception that does not pickle as a
    # RuntimeError carrying its repr, so the line names the type either way
    import convexreg.simulation as simulation

    def fail(dataset):
        raise error(dataset.n)

    monkeypatch.setattr(simulation, "fit_convex_lse", fail)
    monkeypatch.setenv("CONVEXREG_THREADS", threads)
    argv = ["rates", "--scenario", "affine", "--n-grid", "50,120", "--replicates", "20",
            "--output", str(tmp_path / "artifact")]
    assert main(argv) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("failure: ") and name in line, line
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
    assert float(rows[-1]["h2"]) == simulate_invelope(
        "vanishing", 500, mix_seed(8, 250, 5), 2, 4.0).h2_at_0

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


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--scenario", "affine", "--n-grid", "50,120", "--replicates", "20",
         "--seed", "9", "--x0", "0.3"],
        ["invelope", "--refine", "--m", "250", "--replicates", "3", "--seed", "4"],
        ["argmin", "--n-grid", "80,160", "--replicates", "4", "--seed", "2"],
        ["boundary", "--n-grid", "100,200", "--replicates", "8", "--seed", "5",
         "--epsilon", "0.1"],
    ],
    ids=["rates", "invelope", "argmin", "boundary"],
)
def test_study_command_writes_its_study_result(tmp_path, capsys, argv):
    # the command writes the study's result as it is: the header and rows as
    # the CSV body, the summary beside the config as the JSON, the lines as stdout
    from convexreg.output import canonical_json

    argv = argv + ["--output", str(tmp_path / "artifact")]
    given = {k: v for k, v in vars(cli.build_parser().parse_args(argv)).items()
             if k not in ("command", "run", "output")}
    result = _studies()[argv[0]](**given)
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == "\n".join(result.lines) + "\n"
    lines = (tmp_path / "artifact.csv").read_text().splitlines()
    assert lines[1:] == [",".join(result.header),
                         *(",".join(fmt(v) for v in row) for row in result.rows)]
    blob = json.loads((tmp_path / "artifact.json").read_text())
    assert blob["config"]["command"] == argv[0]
    assert {k: blob["config"][k] for k in given} == json.loads(canonical_json(given))
    assert blob == {"config": blob["config"], **json.loads(canonical_json(result.summary))}


@pytest.mark.parametrize(
    "argv, named",
    [
        (["invelope", "--m", "250", "--replicates", "0"], "replicate"),
        (["invelope", "--m", "250", "--replicates", "-3"], "replicate"),
        (["invelope", "--refine", "--m", "250", "--replicates", "1"], "replicates"),
        (["argmin", "--n-grid", "80,160", "--replicates", "0"], "replicate"),
        (["boundary", "--n-grid", "100,200", "--replicates", "0"], "replicate"),
        (["rates", "--scenario", "affine", "--n-grid", "50,120", "--replicates", "0"],
         "replicates"),
        (["rates", "--scenario", "affine", "--n-grid", "100,100", "--replicates", "20"],
         "n_grid"),
        (["argmin", "--n-grid", "100,100", "--replicates", "2"], "n_grid"),
        (["boundary", "--n-grid", "200,100", "--replicates", "2"], "n_grid"),
        (["rates", "--scenario", "vanishing", "--n-grid", "5000", "--replicates", "40"],
         "n_grid"),
        (["rates", "--scenario", "vanishing", "--x0", "2", "--replicates", "20"], "x0"),
        (["boundary", "--n-grid", "100,200", "--replicates", "3", "--epsilon", "-5"],
         "epsilon"),
    ],
    ids=["invelope_zero", "invelope_negative", "refine_one", "argmin_zero", "boundary_zero",
         "rates_zero", "rates_duplicate_n", "argmin_duplicate_n", "boundary_decreasing_n",
         "rates_one_size", "rates_x0_outside", "boundary_negative_epsilon"],
)
def test_bad_study_flags_exit_2_before_writing(tmp_path, monkeypatch, capsys, argv, named):
    import convexreg.simulation as simulation

    def fail(dataset):
        raise AssertionError("a replicate ran")

    # no replicate runs either, and the message names the bad flag's parameter
    monkeypatch.setattr(simulation, "fit_convex_lse", fail)
    assert main(argv + ["--output", str(tmp_path / "artifact")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert named in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, named",
    [
        (["invelope", "--scenario", "affine", "--x0", "2"], "x0"),
        (["invelope", "--c", "-1"], "c"),
        (["invelope", "--m", "100", "--refine"], "m"),
        (["argmin", "--sigma", "-1"], "sigma"),
        (["argmin", "--r", "3"], "r"),
        (["argmin", "--n-grid", "3,5"], "n_grid"),
        (["boundary", "--n-grid", "1,2"], "n_grid"),
        (["rates", "--scenario", "vanishing", "--n-grid", "5,10"], "n_grid"),
        # the boundary study draws a scenario, so it shares the floor n >= 10
        (["boundary", "--n-grid", "5,8"], "n_grid"),
        (["rates", "--scenario", "affine", "--seed", "-1"], "seed"),
        (["invelope", "--seed", "-1"], "seed"),
        (["argmin", "--seed", "-1"], "seed"),
        (["boundary", "--seed", "-1"], "seed"),
    ],
    ids=["invelope_x0_outside", "invelope_negative_c", "invelope_small_m",
         "argmin_negative_sigma", "argmin_odd_r", "argmin_small_n", "boundary_tiny_n",
         "rates_small_n_below_largest", "boundary_small_n", "rates_negative_seed",
         "invelope_negative_seed", "argmin_negative_seed", "boundary_negative_seed"],
)
def test_bad_study_flags_exit_2_before_any_task(tmp_path, monkeypatch, capsys, argv, named):
    # the study checks every spec its tasks would build before it hands them
    # to the pool, with the same checks, and the message names the parameter
    import convexreg.simulation as simulation

    def never(*args, **kwargs):
        raise AssertionError("a task ran")

    monkeypatch.setattr(simulation, "_run_tasks", never)
    assert main(argv + ["--replicates", "20", "--output", str(tmp_path / "artifact")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert re.search(rf"\b{named}\b", err), err
    assert list(tmp_path.iterdir()) == []


def test_refine_with_one_replicate_exits_2_before_any_task(tmp_path, monkeypatch, capsys):
    # invelope_study checks refine itself, next to its grid checks
    import convexreg.simulation as simulation

    def never(*args, **kwargs):
        raise AssertionError("a task ran")

    monkeypatch.setattr(simulation, "_run_tasks", never)
    argv = ["invelope", "--refine", "--replicates", "1", "--output", str(tmp_path / "a")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "input error: refine needs at least 2 replicates, got 1\n"
    assert list(tmp_path.iterdir()) == []


def test_noiseless_affine_rates_exit_2_with_zero_bias(tmp_path, capsys):
    # every noise-free affine fit certifies (none cycles to the solve
    # budget), reproduces the mean and so has zero bias: no slope to fit
    argv = ["rates", "--scenario", "affine", "--n-grid", "100,200", "--replicates", "20",
            "--sigma", "0", "--output", str(tmp_path / "rates")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == ("input error: all 40 replicates had exactly zero bias; "
                   "no slope to fit\n")
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
    studies = _studies()
    subparsers = next(action.choices for action in cli.build_parser()._actions
                      if action.dest == "command")
    assert set(subparsers) == {"fit", "check", *studies}
    for command, study in studies.items():
        dests = {action.dest for action in subparsers[command]._actions} - {"help", "output"}
        assert set(inspect.signature(study).parameters) == dests, command


# every study default, pinned; the study's signature is the only place one is written
STUDY_DEFAULTS = {
    "rates": {"r": 4, "n_grid": (500, 697, 973, 1357, 1893, 2641, 3684, 5139, 7169, 10000),
              "replicates": 100, "seed": 0, "sigma": 1.0, "x0": 0.5},
    "invelope": {"scenario": "vanishing", "m": 2000, "replicates": 100, "seed": 0, "r": 2,
                 "c": 4.0, "x0": 0.5, "refine": False},
    "argmin": {"r": 2, "n_grid": (1000, 4000, 16000), "replicates": 100, "seed": 0,
               "sigma": 1.0},
    "boundary": {"n_grid": (500, 2000, 8000), "replicates": 200, "seed": 0, "epsilon": 0.05},
}


def _stub_task(fn, task):
    """A result of the shape each study's replicate task returns, without a fit."""
    import convexreg.simulation as simulation

    n, rep, seed = task[:3]
    if fn is simulation._point_task:
        return n, rep, seed, 1.0 / n, 0.0, 0.5
    r, c = task[4:6]
    return rep, seed, simulation.InvelopeSample(r, c, n, float(rep), 0.0, 0.0, 0.0, 0.0, 0.0)


def _studies():
    """Each study command's study function, from the command line's own table."""
    import convexreg.simulation as simulation

    return {command: getattr(simulation, name) for command, name in cli.STUDIES.items()}


def test_study_flag_defaults_are_the_study_defaults():
    # the parser declares no default of its own, so an omitted flag can only
    # take the study's; the study defaults themselves are pinned
    subparsers = next(action.choices for action in cli.build_parser()._actions
                      if action.dest == "command")
    for command, study in _studies().items():
        defaults = {name: param.default
                    for name, param in inspect.signature(study).parameters.items()
                    if param.default is not inspect.Parameter.empty}
        pinned = STUDY_DEFAULTS[command]
        assert defaults == pinned, command
        assert ({k: type(v) for k, v in defaults.items()}
                == {k: type(v) for k, v in pinned.items()}), command
        assert ({action.default for action in subparsers[command]._actions}
                == {argparse.SUPPRESS}), command
    assert sum(map(len, STUDY_DEFAULTS.values())) == 23


def test_rates_default_grid_is_the_study_default(tmp_path, monkeypatch):
    import convexreg.simulation as simulation

    ran = []
    monkeypatch.setattr(simulation, "_run_tasks",
                        lambda fn, tasks: ran.extend(tasks) or [_stub_task(fn, t) for t in tasks])
    assert main(["rates", "--scenario", "affine", "--output", str(tmp_path / "r")]) == 0
    assert sorted({task[0] for task in ran}) == list(simulation.DEFAULT_RATE_GRID)
    config = json.loads((tmp_path / "r.json").read_text())["config"]
    assert config["n_grid"] == list(simulation.DEFAULT_RATE_GRID)


@pytest.mark.parametrize(
    "command, required, unread",
    [
        ("rates", {"scenario": "affine"}, ()),
        ("invelope", {}, ("x0", "refine")),
        ("argmin", {}, ()),
        ("boundary", {}, ()),
    ],
    ids=["rates", "invelope", "argmin", "boundary"],
)
def test_omitted_study_flags_take_the_study_defaults(tmp_path, monkeypatch, command, required,
                                                     unread):
    # the command passes each omitted flag on as the study's default and
    # records exactly what the study ran with; the defaults are pinned
    import convexreg.simulation as simulation

    study = _studies()[command]
    pinned = STUDY_DEFAULTS[command]
    ran = []
    monkeypatch.setattr(simulation, "_run_tasks",
                        lambda fn, tasks: ran.extend(tasks) or [_stub_task(fn, t) for t in tasks])
    out = str(tmp_path / "artifact")
    flags = [arg for k, v in required.items() for arg in (f"--{k}", v)]
    assert main([command, *flags, "--output", out]) == 0
    bound = inspect.signature(study).bind(**required)
    bound.apply_defaults()
    expected = {"command": command, "output": out,
                **{k: v for k, v in bound.arguments.items() if k not in unread}}
    config = json.loads((tmp_path / "artifact.json").read_text())["config"]
    assert config == json.loads(json.dumps(expected))
    sizes = pinned.get("n_grid", (pinned.get("m"),))
    assert len(ran) == len(sizes) * pinned["replicates"]
    assert sorted({task[0] for task in ran}) == list(sizes)


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
    for module in ("numpy.random", "convexreg.simulation", "convexreg.inference",
                   "fractions", "decimal"):
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


def test_public_names_are_pinned():
    # a new public name is a deliberate edit of this list
    assert sorted(convexreg.__all__) == [
        "ConvexFit", "DEFAULT_RATE_GRID", "Dataset", "InvelopeSample", "KINK_TOL", "KKT_TOL",
        "KktReport", "KktSums", "SCALE_LIMIT", "ScenarioSpec", "SolverError", "SolverTrace",
        "StudyResult", "__version__", "argmin_estimator", "boundary_inconsistency_study",
        "characterization_report", "evaluate", "fit_convex_lse", "generate_scenario",
        "invelope_study", "kkt_sums", "left_derivative", "local_error_study", "rate_study",
        "scaling_constants", "simulate_invelope", "true_mean",
    ]


def _named(node):
    """Every name, attribute and ``_EXPORTS`` string at or under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in sub.targets):
            yield from (c.value for c in ast.walk(sub.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))


def _definitions(body, prefix=""):
    """(label, node) of each function and class in ``body`` and each method
    of those classes, dunders (protocol hooks) aside."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef) and not prefix:
                yield from _definitions(node.body, f"{node.name}.")


def test_every_src_definition_is_referenced_from_src():
    # each module-level function and class and each non-dunder method of the
    # package is named somewhere in src outside its own definition (an
    # _EXPORTS entry counts): what only tests call belongs in tests/
    package = Path(convexreg.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    references = Counter(name for tree in trees.values() for name in _named(tree))
    unreferenced = [
        f"{module}:{label}"
        for module, tree in trees.items()
        for label, node in _definitions(tree.body)
        if references[node.name] <= Counter(_named(node))[node.name]
    ]
    assert unreferenced == []


def test_ci_workflow_runs_only_the_suites():
    # CI installs the dependencies and runs the two test suites, nothing
    # else, so a check that CI makes is a test a local run makes too.  The
    # workflow is read as text: any other `run:` line, a block included,
    # fails here
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    runs = re.findall(r"^\s*(?:-\s+)?run:\s*(.*?)\s*$",
                      workflow.read_text(encoding="utf-8"), flags=re.MULTILINE)
    install, *suites = runs
    assert install.startswith("python -m pip install "), install
    assert suites == ["PYTHONPATH=src python -m pytest -q --durations=10",
                      "python3 -m pytest bench/tests"]


def test_readme_entry_points_resolve():
    # the names each "Key entry points" bullet documents, before its dash
    # (which may end a line); a call such as `fit_convex_lse(dataset, ...)`
    # names its function
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Key entry points:", 1)[1].split("\n## ", 1)[0]
    heads = [re.split(r"—\s", bullet, maxsplit=1)[0]
             for bullet in section.split("\n- ") if re.search(r"—\s", bullet)]
    names = [span.split("(")[0] for head in heads for span in re.findall(r"`([^`]+)`", head)]
    assert {"Dataset.from_arrays", "fit_convex_lse", "kkt_sums",
            "argmin_estimator"} <= set(names)
    for name in names:
        value = convexreg
        for part in name.split("."):
            assert hasattr(value, part), name
            value = getattr(value, part)
